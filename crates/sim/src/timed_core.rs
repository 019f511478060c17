//! The transaction-level execution path (`TimedCore`).
//!
//! Running a whole TFLite-Micro inference through the instruction-set
//! simulator would require porting the entire runtime to RISC-V. Instead,
//! kernels written in Rust drive this *transaction-level model*: every
//! abstract operation they perform (instruction fetch, load, store,
//! multiply, branch, CFU op) is charged through **the same cache, memory
//! and latency models** the ISS uses. Cycle totals therefore respond to
//! the same knobs — SPI width, cache geometry, multiplier choice, CFU
//! design — which is what the paper's deploy→profile→optimize loop
//! measures. ISS-vs-TLM agreement is validated on microkernels in the
//! integration tests.

use std::collections::VecDeque;
use std::fmt;

use cfu_core::{Cfu, CfuError, CfuOp, NullCfu};
use cfu_mem::{Bus, Cache, CacheConfig, MemError};

use crate::bpred::PredictorState;
use crate::config::CpuConfig;
use crate::cpu::UNCACHED_BASE;
use crate::retime::TraceRecorder;

/// Depth of the store write buffer (the ISS shares [`buffer_store`]).
const WRITE_BUFFER_DEPTH: usize = 4;

/// Statistics accumulated by a [`TimedCore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlmStats {
    /// Abstract instructions charged (each pays a fetch).
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Data loads.
    pub loads: u64,
    /// Data stores.
    pub stores: u64,
    /// Multiplies.
    pub muls: u64,
    /// Divides.
    pub divs: u64,
    /// Branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// CFU operations.
    pub cfu_ops: u64,
}

/// One byte multiply-accumulate loop for [`TimedCore::mac_loop`]: `n`
/// iterations, the `i`-th loading input byte `x + i` and filter byte
/// `w + i`, with `pre`, `mid` and `post` ALU instructions around the
/// loads and the multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacLoop {
    /// Address of the first input byte.
    pub x: u32,
    /// Address of the first filter byte.
    pub w: u32,
    /// Iterations.
    pub n: u32,
    /// Added to every input byte before the multiply (the negated input
    /// zero point).
    pub input_offset: i32,
    /// ALU instructions before the input load.
    pub pre: u32,
    /// ALU instructions between the two loads.
    pub mid: u32,
    /// ALU instructions after the multiply.
    pub post: u32,
    /// Branch site of the loop's back-edge.
    pub site: u32,
}

impl MacLoop {
    /// ALU instructions per iteration.
    pub(crate) fn alu(&self) -> u64 {
        u64::from(self.pre) + u64::from(self.mid) + u64::from(self.post)
    }
}

/// `Σ (x[i] + input_offset) * w[i]` over the `n` signed bytes at `x` and
/// at `w`, read with [`Bus::peek`].
fn dot_i8(bus: &mut Bus, x: u32, w: u32, n: u32, input_offset: i32) -> Result<i32, MemError> {
    const CHUNK: u32 = 64;
    let (mut xs, mut ws) = ([0u8; CHUNK as usize], [0u8; CHUNK as usize]);
    let mut acc = 0;
    let mut done = 0;
    while done < n {
        let k = (n - done).min(CHUNK) as usize;
        bus.peek(x.wrapping_add(done), &mut xs[..k])?;
        bus.peek(w.wrapping_add(done), &mut ws[..k])?;
        for (&a, &b) in xs[..k].iter().zip(&ws[..k]) {
            acc += (i32::from(a as i8) + input_offset) * i32::from(b as i8);
        }
        done += k as u32;
    }
    Ok(acc)
}

/// Transaction-level CPU model sharing the ISS's timing machinery.
///
/// Kernels call the typed operations; the core charges cycles through the
/// configured caches, bus devices, and functional-unit latencies. A
/// synthetic program counter walks the kernel's declared *code region* so
/// instruction-fetch traffic (XIP flash! I-cache capacity!) is modelled
/// faithfully — this is what makes the Fomu ladder's `QuadSPI`,
/// `SRAM Ops` and `Larger Icache` steps measurable.
///
/// # Example
///
/// ```
/// use cfu_mem::{Bus, Sram};
/// use cfu_sim::{CpuConfig, TimedCore};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut bus = Bus::new();
/// bus.map("sram", 0, Sram::new(4096));
/// let mut core = TimedCore::new(CpuConfig::arty_default(), bus);
/// core.set_code_region(0x100, 256)?;
/// core.store_u32(0, 7)?;
/// assert_eq!(core.load_u32(0)?, 7);
/// assert!(core.cycles() > 0);
/// # Ok(())
/// # }
/// ```
pub struct TimedCore {
    pub(crate) config: CpuConfig,
    pub(crate) bus: Bus,
    pub(crate) icache: Option<Cache>,
    pub(crate) dcache: Option<Cache>,
    pub(crate) bpred: PredictorState,
    cfu: Box<dyn Cfu>,
    pub(crate) stats: TlmStats,
    pub(crate) walk: FetchWalk,
    /// Whether the code region qualifies for the warm-window fast path
    /// (see [`set_code_region`](Self::set_code_region)).
    pub(crate) warm_skip: bool,
    /// Whether the code region qualifies for whole-region residency (see
    /// [`set_code_region`](Self::set_code_region)).
    pub(crate) resident_skip: bool,
    /// What the fetch backlog can interact with, classified by
    /// [`set_code_region`](Self::set_code_region).
    pub(crate) code_device: CodeDevice,
    /// Instruction fetches issued but not yet charged (see
    /// [`defer_fetches`](Self::defer_fetches)).
    pending: u64,
    /// Whether fetch charges may stay pending past the op that issued
    /// them.
    deferring: bool,
    pub(crate) write_buffer: VecDeque<u64>,
    /// Trace recorder for capture mode ([`crate::Trace`]); `None` (the
    /// default) costs one branch per operation.
    pub(crate) recorder: Option<TraceRecorder>,
    /// Loads [`mac_loop`](Self::mac_loop) charged in bulk by its D-cache
    /// hit rule (live or in a replay's memory pass) and by its uncached
    /// rule, for the tests to show that the rules engage.
    #[cfg(test)]
    pub(crate) bulk_loads: [u64; 2],
}

/// The 4-deep write-through buffer every cached store goes through, at
/// cycle `now`: entries whose write completed by `now` leave, a full
/// buffer stalls until its oldest write completes, and the store's write
/// of `device_cycles` queues behind the last one. Returns the cycles the
/// store charges: the stall plus one issue cycle. Shared by live
/// execution and the trace-replay combine, which runs it only at the
/// stores where the buffer may still hold a write.
pub(crate) fn buffer_store(buffer: &mut VecDeque<u64>, now: u64, device_cycles: u64) -> u64 {
    while buffer.front().is_some_and(|&front| front <= now) {
        buffer.pop_front();
    }
    let mut t = now;
    if buffer.len() >= WRITE_BUFFER_DEPTH {
        t = buffer.pop_front().unwrap_or(now);
    }
    let start = buffer.back().copied().unwrap_or(t);
    buffer.push_back(start.max(t) + device_cycles);
    t + 1 - now
}

/// The device behind the declared code region: what deferred fetch
/// charges can touch, and so which loads, line fills and peeks must
/// settle them first. [`TimedCore::set_code_region`] classifies it once;
/// the fetch backlog, which live execution and trace replay share,
/// settles by [`must_flush_for`](CodeDevice::must_flush_for).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CodeDevice {
    /// Fetches commute with every load, fill and peek: the ideal fetch
    /// (no region declared) or code on a timing-stateless device (SRAM).
    Commuting,
    /// Code on the timing-stateful device spanning `[base, end)`: SPI
    /// flash (its sequential-burst tracker) or DDR3 (its open rows).
    Stateful { base: u32, end: u64 },
}

impl CodeDevice {
    /// Whether a load, line fill or peek at `addr` must settle the
    /// deferred fetches first: only when it lands on the code device and
    /// that device's timing is stateful. Any other access touches neither
    /// the I-cache nor the code device's timing state, and cycle charges
    /// add, so it commutes with the backlog. An accepted region's fetches
    /// cannot fault, so a faulting access commutes too.
    #[inline]
    pub(crate) fn must_flush_for(self, addr: u32) -> bool {
        match self {
            CodeDevice::Commuting => false,
            CodeDevice::Stateful { base, end } => addr >= base && u64::from(addr) < end,
        }
    }
}

/// Size of the active inner-loop window: kernels spend their time in
/// small loops, not sweeping their whole footprint linearly.
const CODE_WINDOW: u32 = 256;
/// Fetches before the active window advances (≈ 8 passes over the
/// window: inner loops re-execute, then control moves on).
const WINDOW_DWELL: u32 = 8 * (CODE_WINDOW / 4);

/// The synthetic program-counter walk of the [`TimedCore`] fetch path.
/// Trace replay drives the same core, so capture, replay and live
/// execution agree on every fetch address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FetchWalk {
    pub(crate) code_base: u32,
    pub(crate) code_len: u32,
    pub(crate) code_pc: u32,
    /// Start of the active inner-loop window within the code region.
    pub(crate) window_base: u32,
    /// Fetches issued since the window last moved.
    pub(crate) window_fetches: u32,
    /// The PC has wrapped back to `window_base` since the window last
    /// moved, so every fetch PC of the window was charged in this dwell.
    pub(crate) warm: bool,
    /// The window has wrapped back to `code_base` since the region was
    /// declared, so every fetch PC of the region was charged in this
    /// visit.
    pub(crate) swept: bool,
}

/// Whether the I-cache lines holding `first` through `last` are all
/// cacheable and land in distinct sets of `cfg`. Such lines cannot evict
/// one another: once each has been touched, and while nothing else
/// touches the cache, re-fetching them is all hits on lines that are
/// already most-recently-used in their sets, so counting the re-fetches
/// with [`Cache::note_hits`] leaves every future LRU victim unchanged,
/// at any associativity.
pub(crate) fn lines_in_distinct_sets(cfg: CacheConfig, first: u32, last: u32) -> bool {
    let shift = cfg.line_bytes.trailing_zeros();
    last < UNCACHED_BASE && (last >> shift) - (first >> shift) < cfg.sets()
}

/// `bytes.div_ceil(step)` for a fetch step: the common non-RVC step of 4
/// stays a shift, since this runs once per fetched line and per stretch.
#[inline]
fn div_ceil_step(bytes: u32, step: u32) -> u32 {
    if step == 4 {
        (bytes + 3) >> 2
    } else {
        bytes.div_ceil(step)
    }
}

/// Before any region is declared the walk uses the ideal fetch.
impl Default for FetchWalk {
    fn default() -> Self {
        FetchWalk {
            code_base: 0,
            code_len: 4,
            code_pc: 0,
            window_base: 0,
            window_fetches: 0,
            warm: false,
            swept: false,
        }
    }
}

impl FetchWalk {
    /// Re-targets the walk at a fresh code region (mirrors
    /// [`TimedCore::set_code_region`], including the 4-byte floor).
    pub(crate) fn set_region(&mut self, base: u32, len: u32) {
        *self = FetchWalk {
            code_base: base,
            code_len: len.max(4),
            code_pc: base,
            window_base: base,
            window_fetches: 0,
            warm: false,
            swept: false,
        };
    }

    /// Advances one fetch of `step` bytes, returning the fetched PC and
    /// whether this region uses the ideal 1-cycle fetch (`code_len == 4`,
    /// i.e. no real region was declared). The tests' per-fetch oracle:
    /// live charging goes through [`stretch`](Self::stretch).
    #[cfg(test)]
    pub(crate) fn next(&mut self, step: u32) -> (u32, bool) {
        let pc = self.code_pc;
        self.code_pc += step;
        let window_len = CODE_WINDOW.min(self.code_len);
        if self.code_pc >= (self.window_base + window_len).min(self.code_base + self.code_len) {
            self.code_pc = self.window_base;
            self.warm = true;
        }
        self.window_fetches += 1;
        if self.window_fetches >= WINDOW_DWELL {
            self.slide();
        }
        (pc, self.code_len == 4)
    }

    /// Ends the dwell: the window moves on to the next `CODE_WINDOW`
    /// bytes of the region (wrapping to its start, which completes a
    /// sweep) and the PC restarts at the new window's base.
    fn slide(&mut self) {
        self.window_fetches = 0;
        self.window_base += CODE_WINDOW.min(self.code_len);
        if self.window_base >= self.code_base + self.code_len {
            self.window_base = self.code_base;
            self.swept = true;
        }
        self.code_pc = self.window_base;
        self.warm = false;
    }

    /// Consumes up to `n` fetches of a warm window without moving the
    /// PC, returning how many, and slides the window exactly as
    /// `next` does when they end the dwell. Only for the
    /// warm-window fast path: the PC it leaves stale is never read
    /// before the slide resets it.
    #[inline]
    pub(crate) fn skip_warm(&mut self, n: u64) -> u64 {
        let k = n.min(u64::from(WINDOW_DWELL - self.window_fetches));
        self.window_fetches += k as u32;
        if self.window_fetches >= WINDOW_DWELL {
            self.slide();
        }
        k
    }

    /// Whether the walk's `u32` arithmetic has one window of headroom
    /// past the region.
    pub(crate) fn has_headroom(&self) -> bool {
        u64::from(self.code_base) + u64::from(self.code_len) + u64::from(CODE_WINDOW) <= 1 << 32
    }

    /// Exclusive end of the bytes any fetch of `step` bytes can read.
    /// PCs are exactly `window_start + j * step` below the window's end,
    /// so the highest one is the last step of the final window.
    fn fetch_end(&self, step: u32) -> u64 {
        let len = u64::from(self.code_len);
        let window_len = u64::from(CODE_WINDOW.min(self.code_len));
        let last_window = (len - 1) / window_len * window_len;
        let step = u64::from(step);
        let max_pc = last_window + (len - last_window - 1) / step * step;
        u64::from(self.code_base) + max_pc + step
    }

    /// Advances the walk in closed form by its current maximal
    /// strictly-sequential stretch, capped at `max` (≥ 1) fetches, and
    /// returns the stretch as `(start_pc, count)`. Repeated calls emit a
    /// PC stream byte-identical to calling `next` once per
    /// fetch: `next` only redirects the PC *after* returning the fetch
    /// that trips a window wrap or a dwell slide, so every fetch up to
    /// and including that one extends the current stretch.
    pub(crate) fn stretch(&mut self, step: u32, max: u64) -> (u32, u64) {
        let window_end =
            (self.window_base + CODE_WINDOW.min(self.code_len)).min(self.code_base + self.code_len);
        // Fetches until (and including) the one that reaches the window
        // end, and until the dwell counter trips; both are ≥ 1 because
        // `code_pc < window_end` and `window_fetches < WINDOW_DWELL` hold
        // between calls.
        let to_wrap = u64::from(div_ceil_step(window_end - self.code_pc, step));
        let to_dwell = u64::from(WINDOW_DWELL - self.window_fetches);
        let k = max.min(to_wrap).min(to_dwell);
        let pc = self.code_pc;
        self.code_pc += k as u32 * step;
        self.window_fetches += k as u32;
        // Re-apply `next`'s post-fetch updates once, in its order: wrap
        // to the window base first, then the dwell slide.
        if self.code_pc >= window_end {
            self.code_pc = self.window_base;
            self.warm = true;
        }
        if self.window_fetches >= WINDOW_DWELL {
            self.slide();
        }
        (pc, k)
    }
}

impl fmt::Debug for TimedCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimedCore")
            .field("cycles", &self.stats.cycles)
            .field("cfu", &self.cfu.name())
            .finish_non_exhaustive()
    }
}

impl TimedCore {
    /// Creates a core with no CFU.
    pub fn new(config: CpuConfig, bus: Bus) -> Self {
        TimedCore::with_cfu(config, bus, NullCfu)
    }

    /// Creates a core with a CFU attached to the custom-0 port.
    pub fn with_cfu(config: CpuConfig, bus: Bus, cfu: impl Cfu + 'static) -> Self {
        TimedCore {
            config,
            bus,
            icache: config.icache.map(Cache::new),
            dcache: config.dcache.map(Cache::new),
            bpred: PredictorState::new(config.branch_predictor),
            cfu: Box::new(cfu),
            stats: TlmStats::default(),
            walk: FetchWalk::default(),
            warm_skip: false,
            resident_skip: false,
            code_device: CodeDevice::Commuting,
            pending: 0,
            deferring: false,
            write_buffer: VecDeque::new(),
            recorder: None,
            #[cfg(test)]
            bulk_loads: [0; 2],
        }
    }

    /// The CPU configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Total cycles so far.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlmStats {
        self.stats
    }

    /// Shared bus access.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Mutable bus access (loading tensors, reading results — use the
    /// timing-free [`Bus::load_image`]/[`Bus::peek`] for that). Settles
    /// the fetch backlog first: a peek resets device timing.
    pub fn bus_mut(&mut self) -> &mut Bus {
        self.settle();
        &mut self.bus
    }

    /// Consumes the core, returning its bus — the mapped devices can be
    /// handed to another core or replayer instead of being rebuilt
    /// (the next measurement's [`reset_stats`](Self::reset_stats)
    /// clears statistics and device timing, making a reused bus
    /// timing-equivalent to a fresh one).
    pub fn into_bus(mut self) -> Bus {
        self.settle();
        self.bus
    }

    /// I-cache statistics, if configured.
    pub fn icache_stats(&self) -> Option<cfu_mem::CacheStats> {
        self.icache.as_ref().map(|c| c.stats())
    }

    /// D-cache statistics, if configured.
    pub fn dcache_stats(&self) -> Option<cfu_mem::CacheStats> {
        self.dcache.as_ref().map(|c| c.stats())
    }

    /// Turns fetch deferral on or off; turning it off settles the backlog.
    ///
    /// Every charged instruction pays a fetch. While deferral is on, a
    /// fetch only counts towards a backlog, and the backlog is charged in
    /// bulk where its timing can be observed or perturbed: before a
    /// store (the write buffer reads the cycle counter), before a load,
    /// line fill or [`peek_u32`](Self::peek_u32) on a timing-stateful
    /// code device, in [`set_code_region`](Self::set_code_region),
    /// [`reset_stats`](Self::reset_stats), [`bus_mut`](Self::bus_mut) and
    /// [`into_bus`](Self::into_bus), and at every [`crate::span`]
    /// checkpoint. Every other operation commutes with the pending
    /// fetches, so the charges are exactly those of fetching op by op.
    /// While deferral is off (the default), every operation settles
    /// before it returns.
    ///
    /// [`cycles`](Self::cycles), [`stats`](Self::stats), the cache
    /// statistics and [`bus`](Self::bus) take `&self` and cannot settle:
    /// they lag the backlog until deferral is turned off.
    pub fn defer_fetches(&mut self, on: bool) {
        self.deferring = on;
        if !on {
            self.settle();
        }
    }

    /// Declares the code region the currently-running kernel occupies:
    /// every charged instruction fetches from a synthetic PC walking
    /// `[base, base + len)`. Moving this region between flash and SRAM is
    /// the `SRAM Ops` ladder step.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if `base` is not mapped on the bus;
    /// [`MemError::OutOfBounds`] if any byte a fetch or I-cache line fill
    /// of this region can read lies outside the device holding `base`.
    /// Once a region is accepted, instruction fetch cannot fault.
    ///
    /// The region also qualifies for the warm-window fast path when an
    /// I-cache is configured, every fetch PC lies below
    /// [`UNCACHED_BASE`], and the lines of any one window land in
    /// distinct sets. Then, once the walk wraps back to its window's
    /// base, the rest of the dwell is charged as bulk I-cache hits.
    /// When the lines of the whole region land in distinct sets, it
    /// qualifies for whole-region residency too: once the window wraps
    /// back to the region's base, every later fetch of this visit is a
    /// bulk I-cache hit that touches no device.
    pub fn set_code_region(&mut self, base: u32, len: u32) -> Result<(), MemError> {
        self.settle();
        let (_, info) = self.bus.region_of(base).ok_or(MemError::Unmapped { addr: base })?;
        let mut walk = FetchWalk::default();
        walk.set_region(base, len);
        let mut warm_skip = false;
        let mut resident_skip = false;
        let mut code_device = CodeDevice::Commuting;
        // Regions of at most 4 bytes use the ideal fetch and never touch
        // the bus.
        if walk.code_len != 4 {
            let step = self.fetch_step();
            let end = walk.fetch_end(step);
            let (mut lo, mut hi) = (u64::from(base), end);
            if let Some(cache) = &self.icache {
                let line = u64::from(cache.config().line_bytes);
                if base < UNCACHED_BASE {
                    lo &= !(line - 1);
                }
                // A cached fetch reads only the line holding its PC.
                let max_pc = end - u64::from(step);
                if max_pc < u64::from(UNCACHED_BASE) {
                    hi = (max_pc + 1).next_multiple_of(line);
                    // A window starting on a line's last byte spans the
                    // most lines, ceil(window / line) + 1 at worst.
                    let line = line as u32;
                    let window = CODE_WINDOW.min(walk.code_len);
                    warm_skip = lines_in_distinct_sets(cache.config(), line - 1, line + window - 2);
                    resident_skip = lines_in_distinct_sets(cache.config(), base, max_pc as u32);
                }
            }
            if lo < u64::from(info.base) || hi > info.end() || !walk.has_headroom() {
                return Err(MemError::OutOfBounds { addr: lo as u32, len: (hi - lo) as usize });
            }
            // Every fetch and fill reads the device holding `base`.
            if !self.bus.timing_stateless_at(base) {
                code_device = CodeDevice::Stateful { base: info.base, end: info.end() };
            }
        }
        if let Some(r) = &mut self.recorder {
            r.region(base, len);
        }
        self.walk = walk;
        self.warm_skip = warm_skip;
        self.resident_skip = resident_skip;
        self.code_device = code_device;
        Ok(())
    }

    /// Bytes per fetch: RVC code is ~70% 16-bit parcels, 3 bytes per
    /// instruction on average, which is what the fetch stream pulls.
    pub(crate) fn fetch_step(&self) -> u32 {
        if self.config.compressed {
            3
        } else {
            4
        }
    }

    /// Begins recording every subsequent charged operation into a
    /// [`crate::Trace`]. Recording is passive: charges, statistics and
    /// functional effects are identical to an unrecorded run.
    pub fn start_recording(&mut self) {
        self.recorder = Some(TraceRecorder::new(self.config.compressed));
    }

    /// Records a layer boundary (profile granularity for replay).
    /// No-op when not recording.
    pub fn mark_layer(&mut self) {
        if let Some(r) = &mut self.recorder {
            r.mark();
        }
    }

    /// Stops recording and returns the finalized trace, or `None` if
    /// [`start_recording`](Self::start_recording) was never called.
    pub fn finish_recording(&mut self) -> Option<crate::Trace> {
        self.recorder.take().map(TraceRecorder::finish)
    }

    pub(crate) fn charge(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
    }

    /// Issues `n` instruction fetches at the synthetic PC: the one entry
    /// point of every fetch charge, live or replayed. They join the
    /// backlog, which settles at once unless deferral is on (see
    /// [`defer_fetches`](Self::defer_fetches)).
    ///
    /// The PC loops inside a [`CODE_WINDOW`]-byte inner-loop window and
    /// the window slides through the kernel's footprint every
    /// [`WINDOW_DWELL`] fetches — matching real kernels, which re-execute
    /// small loops rather than sweeping their whole `.text` linearly.
    #[inline]
    pub(crate) fn fetch(&mut self, n: u64) {
        self.pending += n;
        if !self.deferring {
            self.settle();
        }
    }

    /// Charges the fetch backlog.
    ///
    /// Once a region that qualifies for whole-region residency (see
    /// [`set_code_region`](Self::set_code_region)) has been swept, the
    /// backlog is bulk I-cache hits. This is the warm-window rule of
    /// [`note_warm_hits`](Self::note_warm_hits) widened to the whole
    /// region: every line of the region was fetched in this visit, and
    /// its lines land in distinct sets, so each is still resident and
    /// most-recently-used in its set. The hits touch no device and
    /// commute with every other operation, so settling them anywhere is
    /// exact. The walk stops; the next region resets it.
    #[inline]
    pub(crate) fn settle(&mut self) {
        if self.pending > 0 {
            let n = std::mem::take(&mut self.pending);
            if self.resident_skip && self.walk.swept {
                self.note_warm_hits(n);
                return;
            }
            // The one place the charge-only ops' fetches can surface an
            // error, so the one place the invariant is asserted:
            // set_code_region accepted only regions whose every fetch and
            // line fill lies inside one device, and Bus cannot unmap it.
            #[allow(clippy::expect_used, reason = "an accepted code region never faults")]
            self.fetch_batch(n).expect("code region validated at set_code_region");
        }
    }

    /// Charges the next `n` instruction fetches of the walk in bulk, one
    /// [`fetch_run`](Self::fetch_run) per maximal sequential stretch and
    /// the warm rest of a dwell as bulk hits. Exact against charging them
    /// one at a time, each a one-fetch stretch, because nothing else
    /// touches the I-cache or the code device's timing in between.
    fn fetch_batch(&mut self, n: u64) -> Result<(), MemError> {
        if self.walk.code_len == 4 {
            // Ideal fetch ignores the PC, and the next region resets the
            // walk, so its position is never observed: skip it.
            self.stats.instructions += n;
            self.charge(n);
            return Ok(());
        }
        let step = self.fetch_step();
        let mut left = n;
        while left > 0 {
            if self.resident_skip && self.walk.swept {
                self.note_warm_hits(left);
                break;
            }
            if self.warm_skip && self.walk.warm {
                let k = self.walk.skip_warm(left);
                self.note_warm_hits(k);
                left -= k;
            } else {
                let (pc, k) = self.walk.stretch(step, left);
                self.fetch_run(pc, k)?;
                left -= k;
            }
        }
        Ok(())
    }

    /// Charges `k` fetches of a warm window in a qualifying region (see
    /// [`set_code_region`](Self::set_code_region)) as I-cache hits.
    ///
    /// Exact for any associativity: only fetches touch the I-cache, and
    /// the dwell started at the window's base and ran sequentially to its
    /// wrap, so every fetch PC of the window went through
    /// [`fetch_run`](Self::fetch_run) in this dwell. The window's lines
    /// land in distinct sets, so none evicted another and each was
    /// touched after every other line of its set: all are resident and
    /// most-recently-used, and skipping the re-touches leaves every
    /// future LRU victim unchanged. A hit charges no cycles and no bus
    /// access. The PC is not advanced; the dwell's slide resets it.
    fn note_warm_hits(&mut self, k: u64) {
        self.stats.instructions += k;
        if let Some(cache) = &mut self.icache {
            cache.note_hits(k);
        }
    }

    /// Charges `k` strictly sequential instruction fetches, the first at
    /// `pc` and each [`fetch_step`](Self::fetch_step) bytes after the
    /// last — the one fetch charger of every backlog settle.
    ///
    /// With an I-cache, each line below [`UNCACHED_BASE`] costs one real
    /// access (plus the fill read on a miss) and the rest of the
    /// stretch's fetches inside it are proven hits: strictly ascending
    /// fetches keep the line most-recently-used, so counting them with
    /// [`Cache::note_hits`] is LRU-exact, and a hit charges nothing (it
    /// overlaps execute). Uncached fetches expose the full device
    /// latency; one [`Bus::read_cost_run`] burst prices them all.
    pub(crate) fn fetch_run(&mut self, pc: u32, k: u64) -> Result<(), MemError> {
        let step = self.fetch_step();
        self.stats.instructions += k;
        let (mut pc, mut left) = (pc, k);
        if let Some(cache) = &mut self.icache {
            let line = cache.config().line_bytes;
            while left > 0 && pc < UNCACHED_BASE {
                let line_start = pc & !(line - 1);
                // Fetches of this stretch inside `line_start`'s line.
                let chunk = u64::from(div_ceil_step(line_start + line - pc, step)).min(left);
                if !cache.access(pc) {
                    // The fill's bytes are never read (contents live in
                    // the backing device): cost-only read.
                    self.stats.cycles += self.bus.read_cost(line_start, line)?;
                }
                cache.note_hits(chunk - 1);
                pc += chunk as u32 * step;
                left -= chunk;
            }
        }
        if left > 0 {
            self.stats.cycles += self.bus.read_cost_run(pc, step, left as u32)?;
        }
        Ok(())
    }

    /// Charges `n` plain single-cycle ALU instructions.
    pub fn alu(&mut self, n: u32) {
        if let Some(r) = &mut self.recorder {
            r.alu(n);
        }
        self.fetch(u64::from(n));
        self.charge(u64::from(n));
    }

    /// Charges one multiply instruction.
    pub fn mul(&mut self) {
        if let Some(r) = &mut self.recorder {
            r.mul();
        }
        self.fetch(1);
        self.mul_cost();
    }

    /// Post-fetch multiply charge.
    pub(crate) fn mul_cost(&mut self) {
        self.stats.muls += 1;
        self.charge(self.config.mul_cycles());
    }

    /// Charges one divide instruction.
    pub fn div(&mut self) {
        if let Some(r) = &mut self.recorder {
            r.div();
        }
        self.fetch(1);
        self.stats.divs += 1;
        self.charge(self.config.div_cycles());
    }

    /// Charges a shift by `shamt`.
    pub fn shift(&mut self, shamt: u32) {
        if let Some(r) = &mut self.recorder {
            r.shift(shamt);
        }
        self.fetch(1);
        self.charge(self.config.shift_cycles(shamt));
    }

    /// Charges a conditional branch at stable site `site` with outcome
    /// `taken`, consulting the configured predictor. `backward` is the
    /// branch's static direction (a loop back-edge points backward, a
    /// skip-over-the-body check points forward): the BTFN Static
    /// predictor predicts from it, so it must reflect the real control
    /// structure, not the outcome.
    pub fn branch(&mut self, site: u32, backward: bool, taken: bool) {
        if let Some(r) = &mut self.recorder {
            r.branch(site, backward, taken);
        }
        self.fetch(1);
        self.branch_cost(site, backward, taken);
    }

    /// Post-fetch charge of [`branch`](Self::branch).
    fn branch_cost(&mut self, site: u32, backward: bool, taken: bool) {
        self.stats.branches += 1;
        // The predictor's view of the branch: a pc from the stable site
        // id and an offset from its static direction.
        let offset = if backward { -4 } else { 4 };
        let (mispredicted, redirect) = self.bpred.resolve(site.wrapping_mul(4), offset, taken);
        self.stats.mispredicts += u64::from(mispredicted);
        // Arithmetic form of: mispredict → refill, correct taken branch
        // without a known target → 1-cycle redirect. The outcome is
        // data-dependent, so a branchy form mispredicts on the host.
        self.charge(
            1 + u64::from(mispredicted) * self.config.refill_penalty() + u64::from(redirect),
        );
    }

    /// Charges a function call/return pair plus `saved_regs` stack
    /// save/restore stores+loads (prologue/epilogue overhead).
    pub fn call(&mut self, saved_regs: u32) {
        if let Some(r) = &mut self.recorder {
            r.call(saved_regs);
        }
        // jal + jalr-ret redirects, then the stack traffic: SRAM/stack-
        // cached, approximated as 2 single-cycle instructions per reg.
        self.fetch(2 + 2 * u64::from(saved_regs));
        self.charge(2 + 1 + self.config.refill_penalty() + 2 * u64::from(saved_regs));
    }

    fn timed_read(&mut self, addr: u32, len: u32) -> Result<u32, MemError> {
        if let Some(r) = &mut self.recorder {
            r.load(addr, len);
        }
        self.fetch(1);
        if self.code_device.must_flush_for(addr) {
            self.settle();
        }
        self.stats.loads += 1;
        let Some(cache) = self.dcache.as_mut().filter(|_| addr < UNCACHED_BASE) else {
            let mut buf = [0u8; 4];
            let cycles = self.bus.read(addr, &mut buf[..len as usize])?;
            self.charge(cycles);
            return Ok(u32::from_le_bytes(buf));
        };
        if cache.access(addr) {
            self.charge(1);
        } else {
            let line = cache.config().line_bytes;
            let cycles = self.bus.read_cost(addr & !(line - 1), line)?;
            self.charge(1 + cycles);
        }
        let mut b = [0u8; 4];
        self.bus.peek(addr, &mut b[..len as usize])?;
        Ok(u32::from_le_bytes(b))
    }

    /// Post-fetch timing of [`timed_read`](Self::timed_read) with the
    /// data path removed (trace replay): same cache traffic, fill reads,
    /// charges and device-timing evolution — the trailing peek collapses
    /// to its net effect, [`Bus::reset_device_timing`].
    pub(crate) fn load_cost(&mut self, addr: u32, len: u32) -> Result<(), MemError> {
        self.stats.loads += 1;
        let Some(cache) = self.dcache.as_mut().filter(|_| addr < UNCACHED_BASE) else {
            let cycles = self.bus.read_cost(addr, len)?;
            self.charge(cycles);
            return Ok(());
        };
        if cache.access(addr) {
            self.charge(1);
        } else {
            let line = cache.config().line_bytes;
            let cycles = self.bus.read_cost(addr & !(line - 1), line)?;
            self.charge(1 + cycles);
        }
        self.bus.reset_device_timing(addr)
    }

    fn timed_write(&mut self, addr: u32, value: u32, len: u32) -> Result<(), MemError> {
        if let Some(r) = &mut self.recorder {
            r.store(addr, len);
        }
        // The write buffer reads the cycle counter.
        self.fetch(1);
        self.settle();
        self.stats.stores += 1;
        let bytes = value.to_le_bytes();
        let device_cycles = self.bus.write(addr, &bytes[..len as usize])?;
        // Uncached stores expose the device latency; cached ones drain
        // through the write buffer against the live cycle counter.
        if addr >= UNCACHED_BASE {
            self.charge(device_cycles);
            return Ok(());
        }
        let charged = buffer_store(&mut self.write_buffer, self.stats.cycles, device_cycles);
        self.charge(charged);
        Ok(())
    }

    /// Timed signed 8-bit load.
    ///
    /// # Errors
    ///
    /// Bus faults.
    pub fn load_i8(&mut self, addr: u32) -> Result<i8, MemError> {
        Ok(self.timed_read(addr, 1)? as u8 as i8)
    }

    /// Timed unsigned 8-bit load.
    ///
    /// # Errors
    ///
    /// Bus faults.
    pub fn load_u8(&mut self, addr: u32) -> Result<u8, MemError> {
        Ok(self.timed_read(addr, 1)? as u8)
    }

    /// Timed 32-bit load.
    ///
    /// # Errors
    ///
    /// Bus faults.
    pub fn load_u32(&mut self, addr: u32) -> Result<u32, MemError> {
        self.timed_read(addr, 4)
    }

    /// Timed 32-bit signed load.
    ///
    /// # Errors
    ///
    /// Bus faults.
    pub fn load_i32(&mut self, addr: u32) -> Result<i32, MemError> {
        Ok(self.timed_read(addr, 4)? as i32)
    }

    /// The byte multiply-accumulate loop of the software convolution
    /// kernels: charges exactly the ops of
    ///
    /// ```text
    /// for i in 0..n {
    ///     alu(pre); x = load_i8(x + i); alu(mid); w = load_i8(w + i);
    ///     mul(); alu(post); branch(site, true, i + 1 != n);
    ///     acc += (x + input_offset) * w;
    /// }
    /// ```
    ///
    /// and returns `acc`. That loop is the definition, and it runs as
    /// written except where a stretch's outcome is already fixed; such a
    /// stretch is charged in bulk as plain counter updates. Both bulk
    /// rules need fetch deferral on.
    ///
    /// * **D-cache hits.** When the code region is resident and swept
    ///   (every fetch is a free I-cache hit that touches no device, see
    ///   [`set_code_region`](Self::set_code_region)) and an iteration
    ///   leaves the lines of both operands resident, every later
    ///   iteration inside both lines is a pair of hits: one cycle each,
    ///   no device access, and the [`Bus::peek`] reset of each is
    ///   idempotent because the previous load from that device already
    ///   reset it. They are charged as the loop's counters, the hits and
    ///   replacement clock of [`Cache::note_hits`], the predictor's
    ///   closed form for a run of taken back-edges and a fetch backlog.
    ///   The last iteration inside the lines runs op by op and re-stamps
    ///   both lines, which leaves the cache exactly as the op-by-op loop
    ///   does.
    /// * **Uncached loads from timing-stateless memory.** Without a
    ///   D-cache (or with both operand runs at or above
    ///   [`UNCACHED_BASE`]), when each run lies inside one
    ///   timing-stateless device, the whole loop is charged at once: one
    ///   [`Bus::read_cost_run`] per run prices its loads. Such a device
    ///   is never the timing-stateful code device, so the loads commute
    ///   with the fetch backlog.
    ///
    /// A capture records the loop as one MAC record, pushed once the loop
    /// returns `Ok`; trace replay charges that record as the op-by-op
    /// loop, its memory side through the same D-cache-hit rule. A loop
    /// that faults records nothing: its capture fails anyway.
    ///
    /// # Errors
    ///
    /// Bus faults, as the loop's loads raise them.
    pub fn mac_loop(&mut self, m: &MacLoop) -> Result<i32, MemError> {
        // The loop's ops are recorded as one record, not one by one.
        let recorder = self.recorder.take();
        let out = self.mac_run(m);
        self.recorder = recorder;
        if let (Ok(_), Some(r)) = (&out, &mut self.recorder) {
            r.mac(m);
        }
        out
    }

    /// [`mac_loop`](Self::mac_loop) with no recorder attached.
    fn mac_run(&mut self, m: &MacLoop) -> Result<i32, MemError> {
        let bulk = self.deferring;
        if bulk && m.n > 0 && self.uncached_stateless(m.x, m.n) && self.uncached_stateless(m.w, m.n)
        {
            return self.mac_uncached(m);
        }
        let mut acc = 0;
        let mut i = 0;
        while i < m.n {
            acc += self.mac_step(m, i)?;
            i += 1;
            let k = if bulk { self.fixed_hits(m, i) } else { 0 };
            if k > 0 {
                acc += self.mac_hits(m, i, k)?;
                i += k;
            }
        }
        Ok(acc)
    }

    /// Iteration `i` of [`mac_loop`](Self::mac_loop), op by op.
    fn mac_step(&mut self, m: &MacLoop, i: u32) -> Result<i32, MemError> {
        self.alu(m.pre);
        let x = i32::from(self.load_i8(m.x.wrapping_add(i))?);
        self.alu(m.mid);
        let w = i32::from(self.load_i8(m.w.wrapping_add(i))?);
        self.mul();
        self.alu(m.post);
        self.branch(m.site, true, i + 1 != m.n);
        Ok((x + m.input_offset) * w)
    }

    /// How many iterations from `i` on the D-cache-hit rule of
    /// [`mac_loop`](Self::mac_loop) charges in bulk, just after iteration
    /// `i - 1` ran op by op: those inside both operands' lines except the
    /// last, when both lines are resident. 0 when the rule does not
    /// apply. Trace replay's memory pass asks the same question.
    pub(crate) fn fixed_hits(&self, m: &MacLoop, i: u32) -> u32 {
        let Some(cache) = &self.dcache else { return 0 };
        let (x, w) = (m.x.wrapping_add(i - 1), m.w.wrapping_add(i - 1));
        if !(self.resident_skip && self.walk.swept) || x.max(w) >= UNCACHED_BASE {
            return 0;
        }
        let line = cache.config().line_bytes;
        let after = |a: u32| line - 1 - (a & (line - 1));
        let inside = after(x).min(after(w)).min(m.n - i);
        if inside < 2 || !cache.contains(x) || !cache.contains(w) {
            return 0;
        }
        inside - 1
    }

    /// Charges iterations `i..i + k` of [`mac_loop`](Self::mac_loop) as
    /// D-cache hit pairs (see [`fixed_hits`](Self::fixed_hits)); none is
    /// the loop's last, so every back-edge is taken.
    fn mac_hits(&mut self, m: &MacLoop, i: u32, k: u32) -> Result<i32, MemError> {
        self.mac_hit_memory(m, k);
        self.mac_core(m, k, false);
        dot_i8(&mut self.bus, m.x.wrapping_add(i), m.w.wrapping_add(i), k, m.input_offset)
    }

    /// The memory side of `k` D-cache-hit iterations of
    /// [`mac_loop`](Self::mac_loop): the hits and replacement clock of
    /// both loads, one cycle per hit, the load count, and every fetch of
    /// the iterations onto the backlog. Live execution adds
    /// [`mac_core`](Self::mac_core) to it; trace replay's memory pass
    /// charges it alone.
    pub(crate) fn mac_hit_memory(&mut self, m: &MacLoop, k: u32) {
        let hits = 2 * u64::from(k);
        #[cfg(test)]
        {
            self.bulk_loads[0] += hits;
        }
        if let Some(cache) = &mut self.dcache {
            cache.note_hits(hits);
        }
        self.stats.loads += hits;
        self.charge(hits);
        self.pending += u64::from(k) * (m.alu() + 4);
    }

    /// The core side of `k` iterations of [`mac_loop`](Self::mac_loop):
    /// the ALU and multiply cycles, the multiply count and the
    /// back-edges, all taken unless `last` makes the final one (`k ≥ 1`)
    /// the loop's exit.
    fn mac_core(&mut self, m: &MacLoop, k: u32, last: bool) {
        let k = u64::from(k);
        self.stats.muls += k;
        self.charge(k * (m.alu() + self.config.mul_cycles()));
        let taken = k - u64::from(last);
        let (mispredicts, redirects) = self.bpred.resolve_taken(m.site.wrapping_mul(4), -4, taken);
        self.stats.branches += taken;
        self.stats.mispredicts += mispredicts;
        self.charge(taken + mispredicts * self.config.refill_penalty() + redirects);
        if taken < k {
            self.branch_cost(m.site, true, false);
        }
    }

    /// Whether `n` loads from `addr` on are uncached and priced by a
    /// timing-stateless device alone.
    fn uncached_stateless(&self, addr: u32, n: u32) -> bool {
        (self.dcache.is_none() || addr >= UNCACHED_BASE) && self.bus.timing_stateless_span(addr, n)
    }

    /// Charges the whole of [`mac_loop`](Self::mac_loop) as uncached
    /// loads from timing-stateless devices.
    fn mac_uncached(&mut self, m: &MacLoop) -> Result<i32, MemError> {
        let n = u64::from(m.n);
        #[cfg(test)]
        {
            self.bulk_loads[1] += 2 * n;
        }
        self.pending += n * (m.alu() + 4);
        self.stats.loads += 2 * n;
        let cycles = self.bus.read_cost_run(m.x, 1, m.n)? + self.bus.read_cost_run(m.w, 1, m.n)?;
        self.charge(cycles);
        self.mac_core(m, m.n, true);
        dot_i8(&mut self.bus, m.x, m.w, m.n, m.input_offset)
    }

    /// Timed 8-bit store.
    ///
    /// # Errors
    ///
    /// Bus faults (including ROM writes).
    pub fn store_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        self.timed_write(addr, u32::from(value), 1)
    }

    /// Timed 32-bit store.
    ///
    /// # Errors
    ///
    /// Bus faults (including ROM writes).
    pub fn store_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        self.timed_write(addr, value, 4)
    }

    /// Issues one CFU custom instruction, charging its response latency.
    ///
    /// # Errors
    ///
    /// [`CfuError`] from the CFU itself (bus faults cannot occur — the
    /// fetch is charged against the code region, which was validated).
    pub fn cfu(&mut self, op: CfuOp, rs1: u32, rs2: u32) -> Result<u32, CfuError> {
        self.fetch(1);
        self.stats.cfu_ops += 1;
        match self.cfu.execute(op, rs1, rs2) {
            Ok(resp) => {
                if let Some(r) = &mut self.recorder {
                    r.cfu(resp.latency);
                }
                self.charge(u64::from(resp.latency));
                Ok(resp.value)
            }
            Err(e) => {
                // The failed op still fetched and counted; a zero-latency
                // record replays that exactly (charge(0) is a no-op).
                if let Some(r) = &mut self.recorder {
                    r.cfu(0);
                }
                Err(e)
            }
        }
    }

    /// Issues a CFU op *in the shadow of an in-flight CFU computation*
    /// (a pipelined CFU with double-buffered storage): the functional
    /// effect happens, but no cycles are charged because the CPU issues
    /// it while the CFU's previous multi-cycle response is still being
    /// produced. Used by the `Overlap input` ladder step.
    ///
    /// # Errors
    ///
    /// [`CfuError`] from the CFU.
    pub fn cfu_hidden(&mut self, op: CfuOp, rs1: u32, rs2: u32) -> Result<u32, CfuError> {
        if let Some(r) = &mut self.recorder {
            r.cfu_hidden();
        }
        self.stats.cfu_ops += 1;
        Ok(self.cfu.execute(op, rs1, rs2)?.value)
    }

    /// Functional (uncharged) 32-bit read, for data movement whose timing
    /// is hidden under concurrent CFU computation.
    ///
    /// # Errors
    ///
    /// Bus faults.
    pub fn peek_u32(&mut self, addr: u32) -> Result<u32, MemError> {
        if let Some(r) = &mut self.recorder {
            r.peek(addr);
        }
        if self.code_device.must_flush_for(addr) {
            self.settle();
        }
        let mut b = [0u8; 4];
        self.bus.peek(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Resets cycle counters, cache stats, predictor state and bus stats
    /// (not memory contents) — fresh measurement, warm data.
    pub fn reset_stats(&mut self) {
        // The backlog's cache and device-timing effects outlive the reset.
        self.settle();
        self.stats = TlmStats::default();
        self.bus.reset_stats();
        if let Some(c) = &mut self.icache {
            c.reset_stats();
        }
        if let Some(c) = &mut self.dcache {
            c.reset_stats();
        }
        self.bpred = PredictorState::new(self.config.branch_predictor);
        self.write_buffer.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfu_core::templates::SimdAddCfu;
    use cfu_mem::{SpiFlash, SpiWidth, Sram};

    fn bus_with_flash(width: SpiWidth) -> Bus {
        let mut bus = Bus::new();
        bus.map("flash", 0, SpiFlash::new(1 << 20, width));
        bus.map("sram", 0x1000_0000, Sram::new(128 << 10));
        bus
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut core = TimedCore::new(CpuConfig::arty_default(), bus_with_flash(SpiWidth::Quad));
        core.set_code_region(0x1000_0000, 1024).unwrap();
        core.store_u32(0x1000_4000, 0xCAFE_F00D).unwrap();
        assert_eq!(core.load_u32(0x1000_4000).unwrap(), 0xCAFE_F00D);
        core.store_u8(0x1000_4004, 0xAB).unwrap();
        assert_eq!(core.load_u8(0x1000_4004).unwrap(), 0xAB);
        assert_eq!(core.load_i8(0x1000_4004).unwrap(), -85);
        assert_eq!(core.stats().loads, 3);
        assert_eq!(core.stats().stores, 2);
    }

    #[test]
    fn code_in_flash_is_slower_than_sram() {
        // Same work, code region in XIP flash vs SRAM — the `SRAM Ops`
        // ladder step.
        let mut flash_core =
            TimedCore::new(CpuConfig::fomu_baseline(), bus_with_flash(SpiWidth::Single));
        flash_core.set_code_region(0, 2048).unwrap();
        flash_core.alu(5000);

        let mut sram_core =
            TimedCore::new(CpuConfig::fomu_baseline(), bus_with_flash(SpiWidth::Single));
        sram_core.set_code_region(0x1000_0000, 2048).unwrap();
        sram_core.alu(5000);

        assert!(
            flash_core.cycles() > 5 * sram_core.cycles(),
            "flash {} vs sram {}",
            flash_core.cycles(),
            sram_core.cycles()
        );
    }

    #[test]
    fn quad_spi_speeds_up_xip() {
        let mut single =
            TimedCore::new(CpuConfig::fomu_baseline(), bus_with_flash(SpiWidth::Single));
        single.set_code_region(0, 4096).unwrap();
        single.alu(3000);
        let mut quad = TimedCore::new(CpuConfig::fomu_baseline(), bus_with_flash(SpiWidth::Quad));
        quad.set_code_region(0, 4096).unwrap();
        quad.alu(3000);
        let ratio = single.cycles() as f64 / quad.cycles() as f64;
        assert!(ratio > 2.0, "QuadSPI speedup only {ratio:.2}x");
    }

    #[test]
    fn icache_captures_small_kernels() {
        // 1 KiB kernel, 2 KiB icache: after the first pass everything hits.
        let mut core =
            TimedCore::new(CpuConfig::fomu_with_icache(2048), bus_with_flash(SpiWidth::Single));
        core.set_code_region(0, 1024).unwrap();
        core.alu(256); // first pass: cold misses
        let cold = core.cycles();
        core.alu(256); // second pass: all hits
        let warm = core.cycles() - cold;
        assert!(warm * 5 < cold, "cold {cold} warm {warm}");
    }

    #[test]
    fn branch_costs_depend_on_predictor() {
        let mut none = TimedCore::new(
            CpuConfig {
                branch_predictor: crate::config::BranchPredictor::None,
                ..CpuConfig::arty_default()
            },
            bus_with_flash(SpiWidth::Quad),
        );
        none.set_code_region(0x1000_0000, 256).unwrap();
        let mut dynamic = TimedCore::new(CpuConfig::arty_default(), bus_with_flash(SpiWidth::Quad));
        dynamic.set_code_region(0x1000_0000, 256).unwrap();
        for core in [&mut none, &mut dynamic] {
            for i in 0..1000 {
                core.branch(7, true, i % 100 != 99);
            }
        }
        assert!(none.cycles() > dynamic.cycles() + 1000);
        assert!(dynamic.stats().mispredicts < 50);
    }

    #[test]
    fn cfu_latency_charged() {
        let mut core = TimedCore::with_cfu(
            CpuConfig::arty_default(),
            bus_with_flash(SpiWidth::Quad),
            SimdAddCfu::new(),
        );
        core.set_code_region(0x1000_0000, 256).unwrap();
        let before = core.cycles();
        let v = core.cfu(CfuOp::new(0, 0), 0x01010101, 0x02020202).unwrap();
        assert_eq!(v, 0x03030303);
        assert!(core.cycles() > before);
        assert_eq!(core.stats().cfu_ops, 1);
    }

    #[test]
    fn mul_cost_follows_config() {
        let mut fast = TimedCore::new(CpuConfig::arty_default(), bus_with_flash(SpiWidth::Quad));
        fast.set_code_region(0x1000_0000, 64).unwrap();
        let mut slow = TimedCore::new(
            CpuConfig::arty_default().with_multiplier(crate::config::Multiplier::Iterative),
            bus_with_flash(SpiWidth::Quad),
        );
        slow.set_code_region(0x1000_0000, 64).unwrap();
        for core in [&mut fast, &mut slow] {
            for _ in 0..100 {
                core.mul();
            }
        }
        assert!(slow.cycles() > fast.cycles() + 100 * 30);
    }

    #[test]
    fn fetch_stretch_crossing_uncached_base_bypasses_icache() {
        // One sequential stretch of 64 fetches: the first 32 sit in four
        // cacheable 32-byte lines, the rest in the uncached window.
        let mut bus = Bus::new();
        let edge = bus.map("edge", UNCACHED_BASE - 256, Sram::new(512));
        let mut core = TimedCore::new(CpuConfig::arty_default(), bus);
        core.set_code_region(UNCACHED_BASE - 128, 256).unwrap();
        core.alu(64);
        let icache = core.icache_stats().unwrap();
        assert_eq!((icache.misses, icache.hits), (4, 28));
        assert_eq!(core.bus().stats(edge).reads, 4 + 32);
    }

    #[test]
    fn code_region_running_off_its_device_is_rejected() {
        // The flash ends at 1 MiB: a region whose tail crosses that end
        // used to be accepted and then panic inside `cfu` once the walk
        // reached the tail.
        let flash_end = 1 << 20;
        for config in [CpuConfig::fomu_baseline(), CpuConfig::fomu_with_icache(2048)] {
            let mut core =
                TimedCore::with_cfu(config, bus_with_flash(SpiWidth::Single), SimdAddCfu::new());
            let err = core.set_code_region(flash_end - 512, 1024).unwrap_err();
            assert!(matches!(err, MemError::OutOfBounds { .. }), "{err:?}");
            // Rejected regions leave the ideal fetch in place: enough ops
            // to slide the walk onto the missing tail all still run.
            for _ in 0..4 * WINDOW_DWELL {
                core.cfu(CfuOp::new(0, 0), 1, 2).unwrap();
            }
            assert_eq!(core.stats().instructions, u64::from(4 * WINDOW_DWELL));
        }
        // RVC fetches read 3 bytes: a region ending exactly at the device
        // end still has its last fetch run 2 bytes past it.
        let mut rvc = TimedCore::new(
            CpuConfig::fomu_baseline().with_compressed(true),
            bus_with_flash(SpiWidth::Single),
        );
        assert!(rvc.set_code_region(flash_end - 256, 256).is_err());
        // Line fills round down to the line: a region starting just above
        // a device's base would fill from below it.
        let mut bus = Bus::new();
        bus.map("sram", 0x1000_0004, Sram::new(4096));
        let mut cached = TimedCore::new(CpuConfig::fomu_with_icache(2048), bus);
        assert!(cached.set_code_region(0x1000_0004, 256).is_err());
        // Exactly-fitting regions are accepted and fetch without faults.
        let mut fits = TimedCore::new(CpuConfig::fomu_baseline(), bus_with_flash(SpiWidth::Single));
        fits.set_code_region(flash_end - 1024, 1024).unwrap();
        fits.alu(10 * WINDOW_DWELL);
    }

    /// Charges `n` fetches of `walk` one at a time through the real
    /// charger, never skipping an I-cache access: the oracle for the
    /// bulk and warm-window paths.
    fn fetch_each(core: &mut TimedCore, walk: &mut FetchWalk, n: u64) {
        let step = core.fetch_step();
        for _ in 0..n {
            let (pc, _) = walk.next(step);
            core.fetch_run(pc, 1).unwrap();
        }
    }

    /// Runs one pseudo-random `alu`/`call`/`mul` sequence per region on
    /// a live core and replays its fetches one at a time on an oracle
    /// core, comparing statistics, device traffic and the residency of
    /// every line after each region. Returns whether the first region
    /// qualified for the warm-window fast path.
    ///
    /// Region A starts mid-line and ends in a 232-byte tail window; the
    /// short region is smaller than one window; B aliases A in every
    /// cache of at most 4 KiB, evicting it before A returns.
    fn check_warm_window_against_oracle(icache: CacheConfig, rvc: bool) -> bool {
        let (a, short, b) = ((0x104, 1000), (0x2014, 100), (0x104 + 4096, 1000));
        let config =
            CpuConfig { icache: Some(icache), ..CpuConfig::fomu_baseline().with_compressed(rvc) };
        let mut fast = TimedCore::new(config, bus_with_flash(SpiWidth::Quad));
        let mut oracle = TimedCore::new(config, bus_with_flash(SpiWidth::Quad));
        let mut walk = FetchWalk::default();
        let mut qualified = false;
        let mut seed = icache.size_bytes ^ icache.ways << 16 ^ icache.line_bytes << 20;
        for (phase, (base, len)) in [a, short, b, a].into_iter().enumerate() {
            fast.set_code_region(base, len).unwrap();
            oracle.set_code_region(base, len).unwrap();
            walk.set_region(base, len);
            qualified |= phase == 0 && fast.warm_skip;
            // ≈ 2800 fetches: past every window of A once.
            for _ in 0..300 {
                seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let (n, extra_cycles) = match seed >> 29 {
                    0..=3 => {
                        let n = seed >> 8 & 31;
                        fast.alu(n);
                        (u64::from(n), u64::from(n))
                    }
                    4 | 5 => {
                        let s = u64::from(seed >> 8 & 3);
                        fast.call(s as u32);
                        (2 + 2 * s, 2 + 1 + config.refill_penalty() + 2 * s)
                    }
                    _ => {
                        fast.mul();
                        // Counter additions commute with the fetch.
                        oracle.mul_cost();
                        (1, 0)
                    }
                };
                fetch_each(&mut oracle, &mut walk, n);
                oracle.charge(extra_cycles);
            }
            let what = format!("{icache:?}, rvc {rvc}, phase {phase}");
            assert_eq!(fast.stats(), oracle.stats(), "{what}: TlmStats");
            assert_eq!(fast.icache_stats(), oracle.icache_stats(), "{what}");
            let (fc, oc) = (fast.icache.as_ref().unwrap(), oracle.icache.as_ref().unwrap());
            for addr in (0..0x2400).step_by(icache.line_bytes as usize) {
                assert_eq!(fc.contains(addr), oc.contains(addr), "{what}: line {addr:#x}");
            }
            let flash = fast.bus().region_by_name("flash").unwrap().0;
            assert_eq!(fast.bus().stats(flash), oracle.bus().stats(flash), "{what}");
        }
        qualified
    }

    #[test]
    fn warm_window_fetches_match_per_fetch_charging() {
        let mut qualified = [0; 2];
        for ways in [1, 2, 4] {
            for line_bytes in [16, 32, 64] {
                for size_bytes in [256, 1024, 4096] {
                    for rvc in [false, true] {
                        let icache = CacheConfig { size_bytes, ways, line_bytes };
                        qualified[usize::from(check_warm_window_against_oracle(icache, rvc))] += 1;
                    }
                }
            }
        }
        // Both sides of the distinct-sets gate are exercised.
        assert!(qualified[0] > 0 && qualified[1] > 0, "{qualified:?}");
    }

    /// Runs a sweep of a 3 KiB flash region and then more `alu`/`mul`
    /// work under `icache`, against the per-fetch oracle. Returns
    /// whether the region qualified for whole-region residency.
    fn check_region_sweep_against_oracle(icache: CacheConfig) -> bool {
        let (base, len) = (0x400, 3 << 10);
        let config = CpuConfig { icache: Some(icache), ..CpuConfig::arty_default() };
        let mut fast = TimedCore::new(config, bus_with_flash(SpiWidth::Quad));
        let mut oracle = TimedCore::new(config, bus_with_flash(SpiWidth::Quad));
        let mut walk = FetchWalk::default();
        fast.set_code_region(base, len).unwrap();
        oracle.set_code_region(base, len).unwrap();
        walk.set_region(base, len);
        let flash = fast.bus().region_by_name("flash").unwrap().0;
        // One dwell per 256-byte window sweeps the region.
        let sweep = 12 * WINDOW_DWELL;
        fast.alu(sweep);
        fetch_each(&mut oracle, &mut walk, u64::from(sweep));
        oracle.charge(u64::from(sweep));
        assert!(fast.walk.swept);
        let (reads, misses) = (fast.bus().stats(flash).reads, fast.icache_stats().unwrap().misses);
        for n in [1, 37, 700, 5000] {
            fast.alu(n);
            fast.mul();
            fetch_each(&mut oracle, &mut walk, u64::from(n) + 1);
            oracle.charge(u64::from(n));
            oracle.mul_cost();
        }
        if fast.resident_skip {
            assert_eq!(fast.bus().stats(flash).reads, reads, "{icache:?}");
            assert_eq!(fast.icache_stats().unwrap().misses, misses, "{icache:?}");
        }
        assert_eq!(fast.stats(), oracle.stats(), "{icache:?}");
        assert_eq!(fast.icache_stats(), oracle.icache_stats(), "{icache:?}");
        assert_eq!(fast.bus().stats(flash), oracle.bus().stats(flash), "{icache:?}");
        fast.resident_skip
    }

    #[test]
    fn swept_resident_region_fetches_as_free_hits() {
        // Arty's 4 KiB direct-mapped I-cache holds the region's 96 lines
        // in distinct sets: after the sweep, no fetch reaches the flash.
        let arty = CpuConfig::arty_default().icache.unwrap();
        assert!(check_region_sweep_against_oracle(arty));
        // 1 KiB 2-way has 16 sets: gated off, charged line by line.
        let small = CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 32 };
        assert!(!check_region_sweep_against_oracle(small));
    }

    #[test]
    fn reset_stats_keeps_memory() {
        let mut core = TimedCore::new(CpuConfig::arty_default(), bus_with_flash(SpiWidth::Quad));
        core.set_code_region(0x1000_0000, 64).unwrap();
        core.store_u32(0x1000_2000, 99).unwrap();
        core.reset_stats();
        assert_eq!(core.cycles(), 0);
        assert_eq!(core.load_u32(0x1000_2000).unwrap(), 99);
    }
}
