//! Span checkpoints: fast-forwarding a repeated operation sequence once a
//! later run's timing state has converged to the recorded one.
//!
//! A *span* is a stretch of [`TimedCore`] operations whose op stream —
//! every fetch, load and store address, branch site and outcome, in
//! order — does not depend on memory contents or on the state the span
//! starts from. One layer of a generic convolution kernel is a span: its
//! loops and padding checks depend only on the layer's shapes.
//!
//! [`SpanRecorder`] records one run of a span: the core's timing state
//! and counters at each *boundary* the caller marks, and which cache
//! sets and predictor entries the span touched after each boundary (its
//! *footprint* from there on). The resulting [`SpanRecord`] serves later
//! runs of the same span on a core with the same [`CpuConfig`] and an
//! identically built bus. At boundary `b`, [`SpanRecord::converged`]
//! compares the live state with the recorded one, restricted to the
//! footprint of the rest of the span. When they are equal,
//! [`SpanRecord::fast_forward`] skips the rest of the span. It adds the
//! recorded deltas of every counter and installs the recorded exit state
//! on the footprint. The caller supplies the functional result (the
//! bytes the span would have stored) separately.
//!
//! This is exact, not an approximation. The rest of the span issues the
//! same ops as in the recording, because its op stream is fixed. Each op
//! reads only state in the footprint: the fetch walk, the cache set and
//! predictor entry it hits, the write buffer relative to the cycle
//! counter, and the device timing states. Each op also writes only state
//! in the footprint. Two runs whose states agree on the footprint
//! therefore take identical steps: they charge the same cycles, count
//! the same events and leave the same footprint state behind. State
//! outside the footprint is never read or written. Comparing a superset
//! of the footprint is just as exact, only more likely to see a
//! difference. Comparing all device states, rather than only those of
//! the devices the span touches, is such a superset.
//!
//! Every checkpoint here first settles the core's deferred instruction
//! fetches (see [`TimedCore::defer_fetches`]): the walk, the I-cache, the
//! code device's timing and the counters it reads and installs are then
//! those of a run that fetched op by op.

use cfu_mem::{Cache, CacheStats, DeviceStats};

use crate::config::CpuConfig;
use crate::timed_core::{CodeDevice, FetchWalk, TimedCore, TlmStats};

/// Counters a fast-forward credits with the rest of the span's deltas.
#[derive(Debug, Clone)]
struct Counters {
    stats: TlmStats,
    icache: Option<CacheStats>,
    dcache: Option<CacheStats>,
    /// Predictor (correct, incorrect) counts.
    predictions: (u64, u64),
    /// Per-region traffic, in mapping order.
    devices: Vec<DeviceStats>,
}

impl Counters {
    fn of(core: &TimedCore) -> Self {
        Counters {
            stats: core.stats,
            icache: core.icache.as_ref().map(Cache::stats),
            dcache: core.dcache.as_ref().map(Cache::stats),
            predictions: core.bpred.stats(),
            devices: core.bus.regions().map(|(id, _)| core.bus.stats(id)).collect(),
        }
    }
}

/// The timing state outside the caches and the predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CoreState {
    walk: FetchWalk,
    warm_skip: bool,
    resident_skip: bool,
    code_device: CodeDevice,
    /// Pending store-buffer drain times, relative to the cycle counter.
    /// Entries already drained are equivalent to absent ones.
    write_buffer: Vec<u64>,
    /// [`cfu_mem::Bus::save_timing`] words.
    devices: Vec<u64>,
}

impl CoreState {
    /// `None` when a bus device cannot save its timing state.
    fn of(core: &TimedCore) -> Option<Self> {
        let mut devices = Vec::new();
        core.bus.save_timing(&mut devices).then(|| CoreState {
            walk: core.walk,
            warm_skip: core.warm_skip,
            resident_skip: core.resident_skip,
            code_device: core.code_device,
            write_buffer: pending_drains(core),
            devices,
        })
    }

    /// The state of a core whose span [`SpanRecorder::start`] accepted.
    #[allow(clippy::expect_used, reason = "start checked that the bus saves its timing")]
    fn saved(core: &TimedCore) -> Self {
        Self::of(core).expect("bus state saved at start")
    }
}

fn pending_drains(core: &TimedCore) -> Vec<u64> {
    let now = core.stats.cycles;
    core.write_buffer.iter().filter(|&&t| t > now).map(|&t| t - now).collect()
}

/// Every set's [`Cache::save_set`] words, in set order.
fn save_cache(cache: Option<&Cache>) -> Vec<u64> {
    let mut words = Vec::new();
    if let Some(cache) = cache {
        for set in 0..cache.config().sets() as usize {
            cache.save_set(set, &mut words);
        }
    }
    words
}

/// A full snapshot taken at a boundary while recording.
#[derive(Debug)]
struct Snapshot {
    counters: Counters,
    state: CoreState,
    clocks: [u64; 2],
    caches: [Vec<u64>; 2],
    /// Every predictor entry.
    predictor: Vec<u64>,
}

/// The sets of one cache that the rest of a span touches, with their
/// state at the boundary.
#[derive(Debug, Default)]
struct SetFootprint {
    /// Bit `s % 64` of word `s / 64` marks set `s`.
    sets: Vec<u64>,
    /// The marked sets' [`Cache::save_set`] words, in set order.
    words: Vec<u64>,
}

impl SetFootprint {
    fn sets(&self) -> impl Iterator<Item = usize> + '_ {
        self.sets.iter().enumerate().flat_map(|(i, &bits)| {
            (0..64).filter(move |b| bits >> b & 1 == 1).map(move |b| i * 64 + b)
        })
    }

    /// The sets of `cache` touched after `clock`, with their state in
    /// `snapshot` (a [`save_cache`] of the same cache).
    fn touched_since(cache: Option<&Cache>, clock: u64, snapshot: &[u64]) -> Self {
        let mut fp = SetFootprint::default();
        let Some(cache) = cache else { return fp };
        let (sets, ways) = (cache.config().sets() as usize, cache.config().ways as usize);
        fp.sets = vec![0; sets.div_ceil(64)];
        for set in (0..sets).filter(|&s| cache.set_touched_since(s, clock)) {
            fp.sets[set / 64] |= 1 << (set % 64);
            fp.words.extend_from_slice(&snapshot[set * ways..(set + 1) * ways]);
        }
        fp
    }

    fn matches(&self, cache: Option<&Cache>) -> bool {
        let Some(cache) = cache else { return true };
        let ways = cache.config().ways as usize;
        self.sets().zip(self.words.chunks_exact(ways)).all(|(set, w)| cache.set_matches(set, w))
    }

    /// Installs the exit state `exit` (a [`save_cache`]) on these sets.
    fn restore(&self, cache: Option<&mut Cache>, exit: &[u64]) {
        let Some(cache) = cache else { return };
        let ways = cache.config().ways as usize;
        for set in self.sets() {
            cache.restore_set(set, &exit[set * ways..(set + 1) * ways]);
        }
    }
}

/// One boundary of a recorded span, restricted to the footprint of the
/// rest of the span.
#[derive(Debug)]
struct Checkpoint {
    counters: Counters,
    state: CoreState,
    caches: [SetFootprint; 2],
    /// Folded mask of the predictor entries trained after the boundary.
    predictor_mask: u64,
    predictor: Vec<u64>,
}

/// The state at the end of a recorded span.
#[derive(Debug)]
struct Exit {
    counters: Counters,
    state: CoreState,
    caches: [Vec<u64>; 2],
    /// Every predictor entry.
    predictor: Vec<u64>,
}

/// Records one run of a span (see the [module docs](self)).
///
/// Call [`boundary`](Self::boundary) at each point a later run may stop
/// at, then [`finish`](Self::finish) at the end of the span. Recording
/// only reads the core, after settling its fetch backlog: the recorded
/// run's charges are unchanged.
#[derive(Debug)]
pub struct SpanRecorder {
    config: CpuConfig,
    snapshots: Vec<Snapshot>,
    /// Predictor entries trained between boundary `i` and the next one
    /// (or the end), folded as in the predictor.
    masks: Vec<u64>,
}

impl SpanRecorder {
    /// Starts recording a span on `core`. Returns `None` when the core
    /// cannot be fast-forwarded: it is capturing a trace (which needs
    /// every op), or a bus device cannot save its timing state.
    pub fn start(core: &mut TimedCore) -> Option<Self> {
        core.settle();
        if core.recorder.is_some() || CoreState::of(core).is_none() {
            return None;
        }
        core.bpred.take_touched();
        Some(SpanRecorder { config: core.config, snapshots: Vec::new(), masks: Vec::new() })
    }

    /// Marks a boundary: a later run may stop here.
    pub fn boundary(&mut self, core: &mut TimedCore) {
        core.settle();
        let touched = core.bpred.take_touched();
        if !self.snapshots.is_empty() {
            self.masks.push(touched);
        }
        let clock = |c: &Option<Cache>| c.as_ref().map_or(0, Cache::clock);
        self.snapshots.push(Snapshot {
            counters: Counters::of(core),
            state: CoreState::saved(core),
            clocks: [clock(&core.icache), clock(&core.dcache)],
            caches: [save_cache(core.icache.as_ref()), save_cache(core.dcache.as_ref())],
            predictor: saved_entries(core, !0),
        });
    }

    /// Ends the span and compacts the boundaries to their footprints.
    /// Returns `None` when the span issued CFU ops: a CFU's state is not
    /// part of the footprint, so such spans are never fast-forwarded.
    pub fn finish(mut self, core: &mut TimedCore) -> Option<SpanRecord> {
        core.settle();
        let exit = Exit {
            counters: Counters::of(core),
            state: CoreState::saved(core),
            caches: [save_cache(core.icache.as_ref()), save_cache(core.dcache.as_ref())],
            predictor: saved_entries(core, !0),
        };
        let cfu_ops = self.snapshots.first().map_or(0, |s| s.counters.stats.cfu_ops);
        if exit.counters.stats.cfu_ops != cfu_ops {
            return None;
        }
        if !self.snapshots.is_empty() {
            self.masks.push(core.bpred.take_touched());
        }
        // Entries trained after boundary b: the union of the later bands.
        for b in (1..self.masks.len()).rev() {
            self.masks[b - 1] |= self.masks[b];
        }
        let checkpoints = self
            .snapshots
            .into_iter()
            .zip(self.masks)
            .map(|(snap, mask)| Checkpoint {
                caches: [
                    SetFootprint::touched_since(
                        core.icache.as_ref(),
                        snap.clocks[0],
                        &snap.caches[0],
                    ),
                    SetFootprint::touched_since(
                        core.dcache.as_ref(),
                        snap.clocks[1],
                        &snap.caches[1],
                    ),
                ],
                predictor: core.bpred.select_entries(!0, &snap.predictor, mask),
                predictor_mask: mask,
                counters: snap.counters,
                state: snap.state,
            })
            .collect();
        Some(SpanRecord { config: self.config, checkpoints, exit })
    }
}

fn saved_entries(core: &TimedCore, mask: u64) -> Vec<u64> {
    let mut words = Vec::new();
    core.bpred.save_entries(mask, &mut words);
    words
}

/// A recorded span: its boundaries and its exit state, restricted to
/// footprints (see the [module docs](self)).
#[derive(Debug)]
pub struct SpanRecord {
    config: CpuConfig,
    checkpoints: Vec<Checkpoint>,
    exit: Exit,
}

impl SpanRecord {
    /// Whether `core`, standing at boundary `b` of a run of this span,
    /// is in the recorded state on the footprint of the rest of the
    /// span. A core with another [`CpuConfig`] never is, nor is one
    /// capturing a trace (capture needs every op). Settles the core's
    /// fetch backlog (see [`TimedCore::defer_fetches`]) first.
    pub fn converged(&self, core: &mut TimedCore, b: usize) -> bool {
        core.settle();
        let Some(cp) = self.checkpoints.get(b) else { return false };
        core.recorder.is_none()
            && core.config == self.config
            && core.walk == cp.state.walk
            && core.warm_skip == cp.state.warm_skip
            && core.resident_skip == cp.state.resident_skip
            && core.code_device == cp.state.code_device
            && pending_drains(core) == cp.state.write_buffer
            && core.bpred.entries_match(cp.predictor_mask, &cp.predictor)
            && cp.caches[0].matches(core.icache.as_ref())
            && cp.caches[1].matches(core.dcache.as_ref())
            && {
                let mut devices = Vec::with_capacity(cp.state.devices.len());
                core.bus.save_timing(&mut devices) && devices == cp.state.devices
            }
    }

    /// Skips the rest of the span from boundary `b`, where
    /// [`converged`](Self::converged) holds: credits every counter with
    /// the rest of the span's recorded deltas and installs the recorded
    /// exit state on its footprint. Memory contents are not touched.
    /// Returns the guest instructions skipped.
    pub fn fast_forward(&self, core: &mut TimedCore, b: usize) -> u64 {
        core.settle();
        let (cp, exit) = (&self.checkpoints[b], &self.exit);
        let (from, to) = (&cp.counters, &exit.counters);
        let stats = since(&to.stats, &from.stats);
        add(&mut core.stats, &stats);
        for (cache, (to, from)) in [
            (core.icache.as_mut(), (to.icache, from.icache)),
            (core.dcache.as_mut(), (to.dcache, from.dcache)),
        ] {
            if let (Some(cache), Some(to), Some(from)) = (cache, to, from) {
                cache.add_stats(to.since(&from));
            }
        }
        cp.caches[0].restore(core.icache.as_mut(), &exit.caches[0]);
        cp.caches[1].restore(core.dcache.as_mut(), &exit.caches[1]);
        let entries = core.bpred.select_entries(!0, &exit.predictor, cp.predictor_mask);
        core.bpred.restore_entries(cp.predictor_mask, &entries);
        core.bpred.add_stats(
            to.predictions.0 - from.predictions.0,
            to.predictions.1 - from.predictions.1,
        );
        core.bus.restore_timing(&exit.state.devices);
        let ids: Vec<_> = core.bus.regions().map(|(id, _)| id).collect();
        for ((id, to), from) in ids.into_iter().zip(&to.devices).zip(&from.devices) {
            core.bus.add_stats(id, to.since(from));
        }
        core.walk = exit.state.walk;
        core.warm_skip = exit.state.warm_skip;
        core.resident_skip = exit.state.resident_skip;
        core.code_device = exit.state.code_device;
        let now = core.stats.cycles;
        core.write_buffer = exit.state.write_buffer.iter().map(|&t| now + t).collect();
        stats.instructions
    }
}

fn since(to: &TlmStats, from: &TlmStats) -> TlmStats {
    TlmStats {
        instructions: to.instructions - from.instructions,
        cycles: to.cycles - from.cycles,
        loads: to.loads - from.loads,
        stores: to.stores - from.stores,
        muls: to.muls - from.muls,
        divs: to.divs - from.divs,
        branches: to.branches - from.branches,
        mispredicts: to.mispredicts - from.mispredicts,
        cfu_ops: to.cfu_ops - from.cfu_ops,
    }
}

fn add(stats: &mut TlmStats, d: &TlmStats) {
    stats.instructions += d.instructions;
    stats.cycles += d.cycles;
    stats.loads += d.loads;
    stats.stores += d.stores;
    stats.muls += d.muls;
    stats.divs += d.divs;
    stats.branches += d.branches;
    stats.mispredicts += d.mispredicts;
    stats.cfu_ops += d.cfu_ops;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfu_core::templates::SimdAddCfu;
    use cfu_core::CfuOp;
    use cfu_mem::{Bus, Ddr3};

    const RAM: u32 = 0x4000_0000;
    const BANDS: usize = 12;

    fn core() -> TimedCore {
        let mut bus = Bus::new();
        bus.map("ram", RAM, Ddr3::new(1 << 20));
        TimedCore::with_cfu(CpuConfig::arty_default(), bus, SimdAddCfu::new())
    }

    /// A fixed op stream of `BANDS` bands: strided loads and stores over
    /// 64 KiB of data, with branches at two sites. Before each band,
    /// `at_boundary` may end the span by returning `true`.
    fn span(core: &mut TimedCore, mut at_boundary: impl FnMut(&mut TimedCore, usize) -> bool) {
        core.set_code_region(RAM, 2048).unwrap();
        for band in 0..BANDS as u32 {
            if at_boundary(core, band as usize) {
                return;
            }
            for i in 0..200 {
                let addr = RAM + 0x1_0000 + (band * 200 + i) * 68 % 0x1_0000;
                core.alu(3);
                core.load_u32(addr).unwrap();
                core.store_u8(addr + 0x2_0000, 1).unwrap();
                core.branch(7, true, i % 5 != 4);
            }
            core.branch(8, true, band as usize + 1 != BANDS);
        }
    }

    /// A prior history that leaves its own cache lines, open rows and
    /// predictor entries behind.
    fn warm_up(core: &mut TimedCore, seed: u32) {
        core.set_code_region(RAM + 0x8000, 1024).unwrap();
        for i in 0..300 {
            core.load_u32(RAM + 0x3_0000 + (i * 36 * seed) % 0x8000).unwrap();
            core.branch(7 + seed, false, i % seed == 0);
        }
    }

    type Observed =
        (TlmStats, Option<CacheStats>, Option<CacheStats>, (u64, u64), Vec<DeviceStats>);

    fn observe(core: &TimedCore) -> Observed {
        let bus = core.bus();
        (
            core.stats(),
            core.icache_stats(),
            core.dcache_stats(),
            core.bpred.stats(),
            bus.regions().map(|(id, _)| bus.stats(id)).collect(),
        )
    }

    fn record(warm_seed: u32) -> SpanRecord {
        let mut reference = core();
        warm_up(&mut reference, warm_seed);
        let mut recorder = SpanRecorder::start(&mut reference).unwrap();
        span(&mut reference, |core, _| {
            recorder.boundary(core);
            false
        });
        recorder.finish(&mut reference).unwrap()
    }

    #[test]
    fn a_converged_run_fast_forwards_to_the_live_result() {
        let record = record(3);
        let (mut live, mut fast) = (core(), core());
        warm_up(&mut live, 5);
        warm_up(&mut fast, 5);
        span(&mut live, |_, _| false);
        let mut stopped = None;
        span(&mut fast, |core, b| {
            let converged = record.converged(core, b);
            if converged {
                record.fast_forward(core, b);
                stopped = Some(b);
            }
            converged
        });
        let b = stopped.expect("the run converges");
        assert!(b > 0 && b < BANDS, "the other history shows at first: {b}");
        assert_eq!(observe(&fast), observe(&live));
        // The installed exit state behaves like the live one afterwards.
        for core in [&mut live, &mut fast] {
            warm_up(core, 3);
            span(core, |_, _| false);
        }
        assert_eq!(observe(&fast), observe(&live));
    }

    #[test]
    fn another_config_never_converges() {
        let record = record(3);
        let mut bus = Bus::new();
        bus.map("ram", RAM, Ddr3::new(1 << 20));
        let config = CpuConfig { dcache: None, ..CpuConfig::arty_default() };
        let mut other = TimedCore::new(config, bus);
        span(&mut other, |core, b| {
            assert!(!record.converged(core, b));
            false
        });
    }

    #[test]
    fn spans_that_issue_cfu_ops_are_not_recorded() {
        let mut core = core();
        core.set_code_region(RAM, 256).unwrap();
        let mut recorder = SpanRecorder::start(&mut core).unwrap();
        recorder.boundary(&mut core);
        core.cfu(CfuOp::new(0, 0), 1, 2).unwrap();
        assert!(recorder.finish(&mut core).is_none());
    }
}
