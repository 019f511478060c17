//! Trace capture and retime-only replay.
//!
//! Design-space sweeps spend most of their points on configurations that
//! differ only in *timing* knobs (cache geometry, multiplier latency,
//! branch predictor, flash width, code placement) while the committed
//! operation stream is identical. Re-running the full functional model
//! for every such point is wasted work — the standard fix in full-system
//! evaluation stacks (gem5's trace CPUs, FEMU's pluggable timing modes)
//! is to split *capture* from *replay*:
//!
//! * **Capture** runs the workload once in execute mode with a
//!   [`TraceRecorder`] attached ([`crate::TimedCore::start_recording`]).
//!   Recording is passive — the capture run's own timing and statistics
//!   are unchanged — and yields a compact in-memory [`Trace`] of the
//!   committed operation stream. Traces are never written to disk. Ops
//!   are recorded at the granularity of the API that issues them: a
//!   [`crate::TimedCore::mac_loop`] is one four-word MAC record for any
//!   iteration count, and the loop runs under its live bulk rules while
//!   recording.
//! * **Replay** streams the trace through a [`TraceReplayer`]: only the
//!   timing machinery runs (I/D caches, branch predictor, bus device
//!   wait-state models, CFU latencies, the store write buffer). Fetch,
//!   decode, functional execution, and all tensor arithmetic are skipped
//!   entirely, yet the resulting [`TlmStats`], per-device traffic and
//!   layer cycle profile are bit-identical to an execute-mode run under
//!   the replayed configuration.
//!
//! The exactness argument rests on five properties, each pinned by
//! tests here or in `cfu-mem`:
//!
//! 1. [`cfu_mem::Bus::read_cost`] evolves routing, statistics and device
//!    timing exactly like a data-carrying read, and
//!    [`cfu_mem::Bus::reset_device_timing`] reproduces the net timing
//!    effect of a `peek` for every device in the crate.
//! 2. Replay charges instruction fetches through the live engine: the
//!    memory pass drives its own [`TimedCore`] with fetch deferral on,
//!    issuing each op's fetches (`TimedCore::fetch`) and settling the
//!    backlog (`TimedCore::settle`) wherever live execution settles it —
//!    at stores, marks, region switches, and loads or peeks on a
//!    timing-stateful code device. The synthetic fetch walk, its
//!    warm-window and whole-region residency rules and the fetch charger
//!    are therefore the live ones, and the fetch-address stream is
//!    regenerated from the trace's region records and op counts alone.
//! 3. Store timing is value-independent (device write latency does not
//!    depend on the data), so replay writes zeros through the same
//!    write-buffer model and nobody ever reads the replay bus's contents.
//! 4. A MAC record is charged everywhere as the op-by-op loop that
//!    defines it: the scan adds its ALU, branch-issue and multiply counts
//!    in closed form and runs its back-edges through the predictor's
//!    closed form for a run of taken branches
//!    ([`PredictorState`]), and the memory pass issues its
//!    fetches and loads iteration by iteration through the same load
//!    handler as a recorded load, charging the stretches whose outcome
//!    is fixed by the live D-cache-hit rule (`TimedCore::fixed_hits`,
//!    `TimedCore::mac_hit_memory`).
//! 5. Memory-side timing state — cache tags and LRU, DRAM open rows, the
//!    flash burst tracker — never reads the cycle counter. So a replay
//!    splits into a memory pass per cache geometry ([`MemoryProfile`]),
//!    a core count and a branch pass per predictor ([`CoreProfile`],
//!    [`BranchProfile`]), and a per-segment combine. The write buffer is
//!    their one coupling: it drains against the live cycle counter. The
//!    combine runs it at every store where it may still hold a write,
//!    and a store that provably finds it drained costs one issue cycle
//!    wherever it falls in its segment.

use std::collections::VecDeque;
use std::fmt;

use cfu_mem::{CacheConfig, CacheStats, MemError};

use crate::bpred::PredictorState;
use crate::config::{BranchPredictor, CpuConfig};
use crate::cpu::UNCACHED_BASE;
use crate::timed_core::{buffer_store, MacLoop, TimedCore, TlmStats};

/// Op-word tags (low 4 bits of the first packed `u64` of each record;
/// a region record takes two words, a MAC record [`MAC_WORDS`]).
const TAG_REGION: u64 = 0;
const TAG_ALU: u64 = 1;
const TAG_MUL: u64 = 2;
const TAG_DIV: u64 = 3;
const TAG_SHIFT: u64 = 4;
const TAG_BRANCH: u64 = 5;
const TAG_CALL: u64 = 6;
const TAG_LOAD: u64 = 7;
const TAG_STORE: u64 = 8;
const TAG_CFU: u64 = 9;
const TAG_CFU_HIDDEN: u64 = 10;
const TAG_PEEK: u64 = 11;
const TAG_MARK: u64 = 12;
/// One [`crate::TimedCore::mac_loop`], in [`MAC_WORDS`] words.
const TAG_MAC: u64 = 13;

/// Words of a MAC record: the tag and `n`, then `x | w << 32`,
/// `pre | mid << 32` and `post | site << 32`, so every field keeps all
/// of its 32 bits.
pub(crate) const MAC_WORDS: usize = 4;

/// A captured committed-operation trace from a [`TimedCore`] run.
///
/// The trace stores the abstract operation stream, packed one `u64`
/// word per op (two for a code region, four for a whole MAC loop);
/// replay regenerates the fetch-address stream from it. Every trace
/// comes from a capture run ([`TimedCore::finish_recording`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    ops: Vec<u64>,
    compressed: bool,
}

impl Trace {
    /// Number of packed op words (a code region uses two, a MAC loop
    /// four).
    pub fn words(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether replaying this trace under a different *timing*
    /// configuration is guaranteed to match an execute-mode run. Always
    /// `true`: a `TimedCore` capture records an operation stream that no
    /// timing knob can change.
    pub fn retime_safe(&self) -> bool {
        true
    }

    /// RVC setting the trace was captured under (replay requires a
    /// matching `compressed` flag).
    pub fn compressed(&self) -> bool {
        self.compressed
    }

    pub(crate) fn ops(&self) -> &[u64] {
        &self.ops
    }
}

/// Error during trace replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The trace and the replay target disagree structurally (wrong RVC
    /// setting, truncated record, profiles of another trace).
    Mismatch(&'static str),
    /// A bus fault while replaying memory timing (e.g. the replay bus
    /// lacks a region the capture bus had).
    Mem(MemError),
}

impl From<MemError> for ReplayError {
    fn from(e: MemError) -> Self {
        ReplayError::Mem(e)
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Mismatch(why) => write!(f, "trace replay mismatch: {why}"),
            ReplayError::Mem(e) => write!(f, "trace replay bus fault: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Records the committed operation stream of a [`TimedCore`] run.
/// Created by [`TimedCore::start_recording`]; finalized into a [`Trace`]
/// by [`TimedCore::finish_recording`].
#[derive(Debug)]
pub(crate) struct TraceRecorder {
    ops: Vec<u64>,
    compressed: bool,
    /// `ops.len()` just after the last ALU record was pushed; equal to
    /// the current length only while that record is still the last one.
    alu_end: usize,
}

impl TraceRecorder {
    pub(crate) fn new(compressed: bool) -> Self {
        TraceRecorder { ops: Vec::new(), compressed, alu_end: 0 }
    }

    pub(crate) fn region(&mut self, base: u32, len: u32) {
        self.ops.push(TAG_REGION | (u64::from(base) << 8));
        self.ops.push(u64::from(len));
    }

    /// Records `n` plain ALU instructions, merging with an immediately
    /// preceding ALU record — exact, since `alu(n)` then `alu(m)` charges
    /// identically to `alu(n + m)`. The record position is tracked rather
    /// than read back from the tag bits: a region's length word can carry
    /// any low nibble.
    pub(crate) fn alu(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        if self.alu_end == self.ops.len() {
            if let Some(last) = self.ops.last_mut() {
                *last += u64::from(n) << 8;
                return;
            }
        }
        self.ops.push(TAG_ALU | (u64::from(n) << 8));
        self.alu_end = self.ops.len();
    }

    pub(crate) fn mul(&mut self) {
        self.ops.push(TAG_MUL);
    }

    pub(crate) fn div(&mut self) {
        self.ops.push(TAG_DIV);
    }

    pub(crate) fn shift(&mut self, shamt: u32) {
        self.ops.push(TAG_SHIFT | (u64::from(shamt) << 8));
    }

    pub(crate) fn branch(&mut self, site: u32, backward: bool, taken: bool) {
        self.ops.push(
            TAG_BRANCH
                | (u64::from(taken) << 4)
                | (u64::from(backward) << 5)
                | (u64::from(site) << 8),
        );
    }

    pub(crate) fn call(&mut self, saved_regs: u32) {
        self.ops.push(TAG_CALL | (u64::from(saved_regs) << 8));
    }

    pub(crate) fn load(&mut self, addr: u32, len: u32) {
        self.ops.push(TAG_LOAD | (u64::from(len) << 4) | (u64::from(addr) << 8));
    }

    pub(crate) fn store(&mut self, addr: u32, len: u32) {
        self.ops.push(TAG_STORE | (u64::from(len) << 4) | (u64::from(addr) << 8));
    }

    pub(crate) fn cfu(&mut self, latency: u32) {
        self.ops.push(TAG_CFU | (u64::from(latency) << 8));
    }

    pub(crate) fn cfu_hidden(&mut self) {
        self.ops.push(TAG_CFU_HIDDEN);
    }

    pub(crate) fn peek(&mut self, addr: u32) {
        self.ops.push(TAG_PEEK | (u64::from(addr) << 8));
    }

    pub(crate) fn mark(&mut self) {
        self.ops.push(TAG_MARK);
    }

    /// Records a whole MAC loop (its input offset leaves timing alone).
    pub(crate) fn mac(&mut self, m: &MacLoop) {
        let pair = |lo: u32, hi: u32| u64::from(lo) | u64::from(hi) << 32;
        self.ops.extend([
            TAG_MAC | u64::from(m.n) << 8,
            pair(m.x, m.w),
            pair(m.pre, m.mid),
            pair(m.post, m.site),
        ]);
    }

    /// Packed words recorded so far.
    #[cfg(test)]
    pub(crate) fn words(&self) -> usize {
        self.ops.len()
    }

    pub(crate) fn finish(self) -> Trace {
        Trace { ops: self.ops, compressed: self.compressed }
    }
}

/// The MAC loop recorded at word `i` of `ops`, if all of its words are
/// there.
fn mac_record(ops: &[u64], i: usize) -> Result<MacLoop, ReplayError> {
    let Some(&[head, xw, pre_mid, post_site]) = ops.get(i..i + MAC_WORDS) else {
        return Err(ReplayError::Mismatch("truncated MAC record"));
    };
    let lo = |w: u64| w as u32;
    let hi = |w: u64| (w >> 32) as u32;
    Ok(MacLoop {
        x: lo(xw),
        w: hi(xw),
        n: (head >> 8) as u32,
        input_offset: 0,
        pre: lo(pre_mid),
        mid: hi(pre_mid),
        post: lo(post_site),
        site: hi(post_site),
    })
}

/// One bus region's replay-side metadata: its address range, memoized
/// per-length uncached read cost (valid because
/// [`cfu_mem::BusDevice::timing_stateless`] promises cost is a pure
/// function of length), and deferred traffic statistics settled in bulk
/// by [`RegionTable::spill`].
struct RegionEntry {
    base: u32,
    end: u64,
    id: cfu_mem::RegionId,
    stateless: bool,
    /// Memoized uncached read cost per access length (1/2/4 bytes).
    cost: [Option<u64>; 5],
    deferred_reads: u64,
    deferred_bytes: u64,
    deferred_cycles: u64,
}

/// Region lookup with a hot-entry cache (loads cluster heavily on one
/// region, so the common case is a single range check).
struct RegionTable {
    entries: Vec<RegionEntry>,
    hot: usize,
}

impl RegionTable {
    fn new(bus: &cfu_mem::Bus) -> Self {
        let entries = bus
            .regions()
            .map(|(id, info)| RegionEntry {
                base: info.base,
                end: info.end(),
                id,
                stateless: bus.timing_stateless_at(info.base),
                cost: [None; 5],
                deferred_reads: 0,
                deferred_bytes: 0,
                deferred_cycles: 0,
            })
            .collect();
        RegionTable { entries, hot: 0 }
    }

    /// The region wholly containing `[addr, addr + len)`, if any.
    fn find(&mut self, addr: u32, len: u32) -> Option<&mut RegionEntry> {
        let end = u64::from(addr) + u64::from(len);
        let hit = |e: &RegionEntry| e.base <= addr && end <= e.end;
        if !self.entries.get(self.hot).is_some_and(hit) {
            self.hot = self.entries.iter().position(hit)?;
        }
        Some(&mut self.entries[self.hot])
    }

    /// Settles deferred read statistics onto the bus's per-region
    /// counters.
    fn spill(&mut self, bus: &mut cfu_mem::Bus) {
        for e in &mut self.entries {
            if e.deferred_reads > 0 {
                let reads = cfu_mem::DeviceStats {
                    reads: e.deferred_reads,
                    bytes_read: e.deferred_bytes,
                    read_cycles: e.deferred_cycles,
                    ..Default::default()
                };
                bus.add_stats(e.id, reads);
                e.deferred_reads = 0;
                e.deferred_bytes = 0;
                e.deferred_cycles = 0;
            }
        }
    }
}

/// Statistics of one replay pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Core statistics, bit-identical to an execute-mode run under the
    /// replayed configuration.
    pub stats: TlmStats,
    /// Cycle counter sampled at every recorded mark, in trace order.
    /// Capture emits marks in begin/end pairs around each layer, so
    /// [`layer_cycles`](ReplaySummary::layer_cycles) pairs them up.
    pub mark_cycles: Vec<u64>,
}

impl ReplaySummary {
    /// Per-layer cycle deltas (marks paired begin/end).
    pub fn layer_cycles(&self) -> Vec<u64> {
        self.mark_cycles.chunks_exact(2).map(|p| p[1] - p[0]).collect()
    }

    /// Sum of per-layer cycles (what the profiler's `total_cycles`
    /// reports in execute mode).
    pub fn total_cycles(&self) -> u64 {
        self.mark_cycles.chunks_exact(2).map(|p| p[1] - p[0]).sum()
    }
}

/// The cheapest multiply any [`CpuConfig`] charges (a single-cycle
/// multiplier).
const MIN_MUL_CYCLES: u64 = 1;
/// The cheapest divide any [`CpuConfig`] charges (the iterative divider).
const MIN_DIV_CYCLES: u64 = 34;
/// The cheapest pipeline refill any [`CpuConfig`] charges.
const MIN_REFILL: u64 = 1;

/// What closes a segment of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegmentEnd {
    /// A cached store the write buffer may still hold a write at (or the
    /// last store before such a one): the combine times it exactly.
    Store,
    /// A layer mark: the combine samples the cycle counter.
    Mark,
    /// The end of the trace.
    End,
}

/// Core-side work of one segment: everything its cycle count needs
/// besides memory timing and branch outcomes, summed over its ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CoreCounts {
    /// Cycles no timing knob changes: ALU ops, each branch's issue
    /// cycle, call overhead besides the refill, CFU latency and the
    /// issue cycle of every store merged into the segment.
    fixed: u64,
    muls: u64,
    divs: u64,
    shifts: u64,
    /// Σ shift amounts: an iterative shifter pays one cycle per bit.
    shamt: u64,
    /// Calls; each pays one pipeline refill.
    calls: u64,
    branches: u64,
    cfu_ops: u64,
}

impl CoreCounts {
    /// The fewest cycles these ops cost under any [`CpuConfig`], memory
    /// cycles counted as zero.
    fn min_cycles(&self) -> u64 {
        self.fixed
            + self.muls * MIN_MUL_CYCLES
            + self.divs * MIN_DIV_CYCLES
            + self.shifts
            + self.calls * MIN_REFILL
    }
}

/// Branch outcomes of one segment under one predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BranchCounts {
    mispredicts: u64,
    /// Correctly predicted taken branches whose target was unknown: one
    /// redirect cycle each.
    bubbles: u64,
}

impl std::ops::AddAssign for CoreCounts {
    fn add_assign(&mut self, o: CoreCounts) {
        self.fixed += o.fixed;
        self.muls += o.muls;
        self.divs += o.divs;
        self.shifts += o.shifts;
        self.shamt += o.shamt;
        self.calls += o.calls;
        self.branches += o.branches;
        self.cfu_ops += o.cfu_ops;
    }
}

impl std::ops::AddAssign for BranchCounts {
    fn add_assign(&mut self, o: BranchCounts) {
        self.mispredicts += o.mispredicts;
        self.bubbles += o.bubbles;
    }
}

/// The counts of a run of ops: what the fused scan accumulates.
type Counts = (CoreCounts, BranchCounts);

/// The segmentation of a trace over one bus, with the core-side counts
/// of every segment: the part of a replay that depends on neither the
/// caches nor the branch predictor nor any latency knob.
///
/// Segments end at layer marks and at the cached stores where the write
/// buffer may still hold a write; every other cached store is *quiet*
/// and merges into its segment as one issue cycle (see
/// [`scan`](CoreProfile::scan)). Built together with a
/// [`BranchProfile`] by one fused scan; combined with a
/// [`MemoryProfile`] by [`TraceReplayer::combine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreProfile {
    ends: Vec<SegmentEnd>,
    counts: Vec<CoreCounts>,
    /// Word index of every store that ends a segment, in trace order.
    store_words: Vec<usize>,
}

/// Per-segment branch outcomes of a trace under one predictor (the
/// branch pass).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchProfile {
    predictor: BranchPredictor,
    counts: Vec<BranchCounts>,
}

/// Per-segment memory cycles of a trace under one bus and one (I-cache,
/// D-cache) geometry, with the device cycles of every store that ends a
/// segment and the run's bus and cache statistics (the memory pass).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryProfile {
    icache: Option<CacheConfig>,
    dcache: Option<CacheConfig>,
    compressed: bool,
    /// Memory cycles per segment: fetches, loads, uncached stores.
    cycles: Vec<u64>,
    /// Device write cycles of each segment-ending store.
    store_cycles: Vec<u64>,
    /// Instructions, loads and stores of the run.
    stats: TlmStats,
    regions: Vec<cfu_mem::DeviceStats>,
    icache_stats: Option<CacheStats>,
    dcache_stats: Option<CacheStats>,
}

/// Builds a [`CoreProfile`] while the fused scan walks a trace, from the
/// counts of the ops between consecutive cached stores and marks.
///
/// A cached store is quiet when the write buffer is provably empty at
/// it. `bound` is an upper bound `U` on how long after the previous
/// cached store's issue the buffer's last write completes. The gap is
/// the fewest cycles that can have elapsed since that issue: 1 for the
/// issue itself plus the cheapest core cost of every op since
/// ([`CoreCounts::min_cycles`]; memory cycles count as zero). The store
/// is quiet when `U ≤ gap`; then `U ← max(U − gap, 0) + W`, with `W` the
/// device's write-latency bound (`None`, no bound, makes every later
/// cached store a boundary).
///
/// A quiet store still leaves its own write in the buffer, which the
/// next store can meet if that one is not quiet. So the latest quiet
/// store stays *pending*: it merges into its segment (one issue cycle)
/// once the next cached store proves quiet too or the trace ends, and
/// becomes a boundary when the next one is not, or when a mark closes
/// the segment first.
struct Segmenter {
    profile: CoreProfile,
    branches: Vec<BranchCounts>,
    /// Counts up to and including the pending store.
    closed: Counts,
    pending: Option<usize>,
    bound: Option<u64>,
    /// Cheapest core cycles since the last cached store, up to the last
    /// mark.
    carry: u64,
}

impl Segmenter {
    fn new() -> Self {
        Segmenter {
            profile: CoreProfile { ends: Vec::new(), counts: Vec::new(), store_words: Vec::new() },
            branches: Vec::new(),
            closed: Counts::default(),
            pending: None,
            bound: Some(0),
            carry: 0,
        }
    }

    fn emit(&mut self, (core, branch): Counts, end: SegmentEnd) {
        self.profile.ends.push(end);
        self.profile.counts.push(core);
        self.branches.push(branch);
    }

    /// Closes the pending store as a segment boundary.
    fn close_pending(&mut self) {
        if let Some(word) = self.pending.take() {
            let closed = std::mem::take(&mut self.closed);
            self.emit(closed, SegmentEnd::Store);
            self.profile.store_words.push(word);
        }
    }

    /// A store below [`UNCACHED_BASE`] at word `word`, after the ops
    /// counted in `open`, to a device that bounds its write latency by
    /// `bound` cycles.
    fn cached_store(&mut self, word: usize, bound: Option<u64>, open: Counts) {
        let gap = 1 + std::mem::take(&mut self.carry) + open.0.min_cycles();
        if self.bound.is_some_and(|u| u <= gap) {
            if self.pending.is_some() {
                // This store found the buffer drained: the pending one's
                // write never mattered.
                self.closed.0.fixed += 1;
            }
            self.closed.0 += open.0;
            self.closed.1 += open.1;
            self.pending = Some(word);
        } else {
            self.close_pending();
            self.emit(open, SegmentEnd::Store);
            self.profile.store_words.push(word);
        }
        self.bound = self.bound.zip(bound).map(|(u, w)| u.saturating_sub(gap) + w);
    }

    /// A layer mark after the ops counted in `open`.
    fn mark(&mut self, open: Counts) {
        self.carry += open.0.min_cycles();
        self.close_pending();
        self.emit(open, SegmentEnd::Mark);
    }

    /// The end of the trace after the ops counted in `open`.
    fn finish(
        mut self,
        mut open: Counts,
        predictor: BranchPredictor,
    ) -> (CoreProfile, BranchProfile) {
        if self.pending.take().is_some() {
            open.0 += self.closed.0;
            open.0.fixed += 1;
            open.1 += self.closed.1;
        }
        self.emit(open, SegmentEnd::End);
        (self.profile, BranchProfile { predictor, counts: self.branches })
    }
}

impl CoreProfile {
    /// The core count and the branch pass of `trace`, fused into one
    /// scan: segments the trace against `bus`'s write-latency bounds
    /// ([`cfu_mem::Bus::write_latency_bound`]), sums each segment's
    /// core-side work, and runs `predictor` over its branches.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Mismatch`] on a truncated or unknown record.
    pub fn scan(
        trace: &Trace,
        bus: &cfu_mem::Bus,
        predictor: BranchPredictor,
    ) -> Result<(CoreProfile, BranchProfile), ReplayError> {
        let mut seg = Segmenter::new();
        let mut bpred = PredictorState::new(predictor);
        // The ops since the last cached store or mark, kept in locals so
        // the per-op adds stay in registers.
        let (mut core, mut branch) = Counts::default();
        let ops = trace.ops();
        let mut i = 0;
        while i < ops.len() {
            let w = ops[i];
            match w & 0xF {
                TAG_REGION => {
                    if i + 1 == ops.len() {
                        return Err(ReplayError::Mismatch("truncated region record"));
                    }
                    i += 1;
                }
                TAG_ALU => core.fixed += w >> 8,
                TAG_MUL => core.muls += 1,
                TAG_DIV => core.divs += 1,
                TAG_SHIFT => {
                    core.shifts += 1;
                    core.shamt += w >> 8;
                }
                TAG_BRANCH => {
                    let taken = w >> 4 & 1 != 0;
                    let offset = if w >> 5 & 1 != 0 { -4 } else { 4 };
                    let pc = ((w >> 8) as u32).wrapping_mul(4);
                    let (mispredicted, redirect) = bpred.resolve(pc, offset, taken);
                    core.fixed += 1;
                    core.branches += 1;
                    branch.mispredicts += u64::from(mispredicted);
                    branch.bubbles += u64::from(redirect);
                }
                TAG_CALL => {
                    core.fixed += 3 + 2 * (w >> 8);
                    core.calls += 1;
                }
                TAG_LOAD | TAG_PEEK => {}
                TAG_STORE => {
                    let addr = (w >> 8) as u32;
                    if addr < UNCACHED_BASE {
                        let bound = bus.write_latency_bound(addr, (w >> 4 & 0xF) as u32);
                        let open = (std::mem::take(&mut core), std::mem::take(&mut branch));
                        seg.cached_store(i, bound, open);
                    }
                }
                TAG_CFU => {
                    core.fixed += w >> 8;
                    core.cfu_ops += 1;
                }
                TAG_CFU_HIDDEN => core.cfu_ops += 1,
                TAG_MARK => seg.mark((std::mem::take(&mut core), std::mem::take(&mut branch))),
                TAG_MAC => {
                    // n iterations of ALU work, a multiply and a branch
                    // issue each; the back-edge is taken n − 1 times,
                    // then falls through.
                    let m = mac_record(ops, i)?;
                    let n = u64::from(m.n);
                    core.fixed += n * (m.alu() + 1);
                    core.muls += n;
                    core.branches += n;
                    if n > 0 {
                        let pc = m.site.wrapping_mul(4);
                        let (mispredicts, bubbles) = bpred.resolve_taken(pc, -4, n - 1);
                        let (mispredicted, redirect) = bpred.resolve(pc, -4, false);
                        branch.mispredicts += mispredicts + u64::from(mispredicted);
                        branch.bubbles += bubbles + u64::from(redirect);
                    }
                    i += MAC_WORDS - 1;
                }
                _ => return Err(ReplayError::Mismatch("unknown op tag")),
            }
            i += 1;
        }
        Ok(seg.finish((core, branch), predictor))
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.ends.len()
    }

    /// Number of stores timed exactly by the combine (those ending a
    /// segment); every other cached store merged into its segment.
    pub fn boundary_stores(&self) -> usize {
        self.store_words.len()
    }
}

/// Streams a captured [`Trace`] through only the timing machinery of a
/// [`TimedCore`]: caches, branch predictor, bus wait states, CFU
/// latencies. No functional work happens — the replay bus needs mapped
/// regions (for routing and device timing) but no model weights.
///
/// A replay is three exact passes and a combine. Memory-side timing
/// state (cache tags and LRU, DRAM open rows, the flash burst tracker)
/// never reads the cycle counter, so the [memory pass](Self::memory_pass)
/// depends only on the trace, the bus and the cache geometry; the core
/// count and the branch pass ([`CoreProfile::scan`]) depend only on the
/// trace and the predictor; and the [combine](Self::combine) prices each
/// segment under the point's latency knobs, running the write buffer —
/// the one coupling between the two sides — at the segment-ending
/// stores. [`replay`](Self::replay) runs all of them; a caller scoring
/// many points over one trace shares the profiles instead.
///
/// # Example
///
/// ```
/// use cfu_mem::{Bus, Sram};
/// use cfu_sim::{CpuConfig, TimedCore, TraceReplayer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let build_bus = || {
///     let mut bus = Bus::new();
///     bus.map("sram", 0, Sram::new(4096));
///     bus
/// };
/// let mut live = TimedCore::new(CpuConfig::arty_default(), build_bus());
/// live.start_recording();
/// live.set_code_region(0, 1024)?;
/// live.alu(100);
/// live.store_u32(0x40, 7)?;
/// let trace = live.finish_recording().expect("recording");
///
/// let mut replayer = TraceReplayer::new(CpuConfig::arty_default(), build_bus());
/// let summary = replayer.replay(&trace)?;
/// assert_eq!(summary.stats, live.stats());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceReplayer {
    core: TimedCore,
}

impl TraceReplayer {
    /// Creates a replayer for `config` over `bus` (same board mapping as
    /// the capture run; contents are irrelevant).
    pub fn new(config: CpuConfig, bus: cfu_mem::Bus) -> Self {
        TraceReplayer { core: TimedCore::new(config, bus) }
    }

    /// The inner core — replayed statistics, cache stats and per-device
    /// bus traffic (e.g. for the energy model) live here.
    pub fn core(&self) -> &TimedCore {
        &self.core
    }

    /// Consumes the replayer, returning the underlying bus so the next
    /// replay over the same board mapping can reuse the mapped devices
    /// instead of rebuilding them. Every pass resets statistics and
    /// device timing up front, so a reused bus is timing-equivalent to a
    /// fresh one.
    pub fn into_bus(self) -> cfu_mem::Bus {
        self.core.into_bus()
    }

    /// Replays `trace`, resetting statistics first: the fused core and
    /// branch scan, the memory pass and the combine, with nothing shared.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Mismatch`] when the trace's RVC setting disagrees
    /// with the replay configuration or the stream is internally
    /// inconsistent; [`ReplayError::Mem`] on bus faults (wrong board).
    pub fn replay(&mut self, trace: &Trace) -> Result<ReplaySummary, ReplayError> {
        let (core, branches) =
            CoreProfile::scan(trace, &self.core.bus, self.core.config.branch_predictor)?;
        let memory = self.memory_pass(trace, &core)?;
        self.combine(&core, &branches, &memory)
    }

    /// The memory pass: streams `trace` through the caches and bus
    /// devices of this replayer's geometry with every core-side charge
    /// left out, recording each of `core`'s segments' memory cycles.
    /// Leaves the core's bus and cache statistics as the run's.
    ///
    /// # Errors
    ///
    /// As [`replay`](Self::replay); also [`ReplayError::Mismatch`] when
    /// `core` was not scanned from `trace`.
    pub fn memory_pass(
        &mut self,
        trace: &Trace,
        profile: &CoreProfile,
    ) -> Result<MemoryProfile, ReplayError> {
        if trace.compressed() != self.core.config.compressed {
            return Err(ReplayError::Mismatch("trace captured under a different RVC setting"));
        }
        let core = &mut self.core;
        core.reset_stats();
        // Fetches defer exactly as in a live layer; turning deferral off
        // again settles whatever a failed pass left pending.
        core.defer_fetches(true);
        let walked = memory_walk(core, trace, profile);
        core.defer_fetches(false);
        let (cycles, store_cycles) = walked?;
        Ok(MemoryProfile {
            icache: core.config.icache,
            dcache: core.config.dcache,
            compressed: core.config.compressed,
            cycles,
            store_cycles,
            stats: core.stats,
            regions: core.bus.regions().map(|(id, _)| core.bus.stats(id)).collect(),
            icache_stats: core.icache_stats(),
            dcache_stats: core.dcache_stats(),
        })
    }

    /// The combine: prices every segment of `core` under this replayer's
    /// latency knobs, adds its memory cycles and branch outcomes, and
    /// runs the write buffer at each segment-ending store. Yields the
    /// same summary as [`replay`](Self::replay), and leaves the same
    /// statistics, cache statistics and per-device traffic on
    /// [`core`](Self::core) (cache contents and device timing state are
    /// not reproduced).
    ///
    /// `memory` must come from a memory pass over `core` on a bus with
    /// the same devices as this replayer's; only its structure is
    /// checked.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Mismatch`] when the profiles disagree with each
    /// other or with this replayer's predictor, caches or bus regions.
    pub fn combine(
        &mut self,
        core: &CoreProfile,
        branches: &BranchProfile,
        memory: &MemoryProfile,
    ) -> Result<ReplaySummary, ReplayError> {
        let config = self.core.config;
        let n = core.segments();
        if branches.predictor != config.branch_predictor
            || branches.counts.len() != n
            || (memory.icache, memory.dcache, memory.compressed)
                != (config.icache, config.dcache, config.compressed)
            || memory.cycles.len() != n
            || memory.store_cycles.len() != core.boundary_stores()
            || memory.regions.len() != self.core.bus.regions().count()
        {
            return Err(ReplayError::Mismatch("profiles do not fit this replayer"));
        }
        let (mul, div, refill) =
            (config.mul_cycles(), config.div_cycles(), config.refill_penalty());
        let shift = config.shift_cycles(0);
        let per_bit = config.shift_cycles(1) - shift;
        let mut buffer = VecDeque::with_capacity(4);
        let mut stores = memory.store_cycles.iter();
        let mut mark_cycles = Vec::new();
        let mut now = 0;
        for (((end, c), b), mem) in
            core.ends.iter().zip(&core.counts).zip(&branches.counts).zip(&memory.cycles)
        {
            now += mem
                + c.fixed
                + c.muls * mul
                + c.divs * div
                + c.shifts * shift
                + c.shamt * per_bit
                + (c.calls + b.mispredicts) * refill
                + b.bubbles;
            match end {
                SegmentEnd::Store => {
                    #[allow(clippy::expect_used, reason = "the store counts were checked above")]
                    let device_cycles = stores.next().expect("counts checked above");
                    now += buffer_store(&mut buffer, now, *device_cycles);
                }
                SegmentEnd::Mark => mark_cycles.push(now),
                SegmentEnd::End => {}
            }
        }
        let mut totals = CoreCounts::default();
        core.counts.iter().for_each(|&c| totals += c);
        let stats = TlmStats {
            instructions: memory.stats.instructions,
            cycles: now,
            loads: memory.stats.loads,
            stores: memory.stats.stores,
            muls: totals.muls,
            divs: totals.divs,
            branches: totals.branches,
            mispredicts: branches.counts.iter().map(|b| b.mispredicts).sum(),
            cfu_ops: totals.cfu_ops,
        };
        let c = &mut self.core;
        c.reset_stats();
        let ids: Vec<_> = c.bus.regions().map(|(id, _)| id).collect();
        for (id, delta) in ids.into_iter().zip(&memory.regions) {
            c.bus.add_stats(id, *delta);
        }
        for (cache, delta) in
            [(&mut c.icache, memory.icache_stats), (&mut c.dcache, memory.dcache_stats)]
        {
            if let (Some(cache), Some(delta)) = (cache, delta) {
                cache.add_stats(delta);
            }
        }
        c.stats = stats;
        Ok(ReplaySummary { stats, mark_cycles })
    }
}

/// The body of [`TraceReplayer::memory_pass`] on a core with fetch
/// deferral on: charges every op's memory side, settling the fetch
/// backlog by the live rule, and returns each segment's memory cycles
/// and the device cycles of every segment-ending store.
fn memory_walk(
    core: &mut TimedCore,
    trace: &Trace,
    profile: &CoreProfile,
) -> Result<(Vec<u64>, Vec<u64>), ReplayError> {
    // Per-region lookup table: loads on stateless uncached regions
    // collapse to a memoized per-length charge with statistics settled in
    // bulk. Pending fetches only ever touch the *code* device, so a load
    // or peek settles the backlog only when `core.code_device` says so,
    // as a live one does.
    let mut memo = RegionTable::new(&core.bus);
    let mut cycles = Vec::with_capacity(profile.segments());
    let mut store_cycles = Vec::with_capacity(profile.boundary_stores());
    let mut bounds = profile.store_words.iter().copied();
    let mut next_bound = bounds.next();
    let mut seg_start = 0;
    let ops = trace.ops();
    let mut i = 0;
    while i < ops.len() {
        let w = ops[i];
        match w & 0xF {
            TAG_REGION => {
                let len =
                    *ops.get(i + 1).ok_or(ReplayError::Mismatch("truncated region record"))?;
                i += 1;
                core.set_code_region((w >> 8) as u32, (len as u32).max(4))?;
            }
            TAG_ALU => core.fetch(w >> 8),
            TAG_MUL | TAG_DIV | TAG_SHIFT | TAG_BRANCH | TAG_CFU => core.fetch(1),
            TAG_CALL => core.fetch(2 + 2 * (w >> 8)),
            TAG_LOAD => load(core, &mut memo, (w >> 8) as u32, (w >> 4 & 0xF) as u32)?,
            TAG_STORE => {
                // The write buffer reads the cycle counter, so a store
                // settles the backlog first, as a live one does.
                core.fetch(1);
                core.settle();
                let addr = (w >> 8) as u32;
                let len = (w >> 4 & 0xF) as usize;
                core.stats.stores += 1;
                // Write timing is value-independent: write zeros.
                let device_cycles = core.bus.write(addr, &[0; 4][..len])?;
                if addr >= UNCACHED_BASE {
                    core.stats.cycles += device_cycles;
                } else if next_bound == Some(i) {
                    cycles.push(core.stats.cycles - seg_start);
                    seg_start = core.stats.cycles;
                    store_cycles.push(device_cycles);
                    next_bound = bounds.next();
                }
            }
            TAG_CFU_HIDDEN => {}
            TAG_PEEK => {
                let addr = (w >> 8) as u32;
                if core.code_device.must_flush_for(addr) {
                    core.settle();
                }
                core.bus.reset_device_timing(addr)?;
            }
            TAG_MARK => {
                core.settle();
                cycles.push(core.stats.cycles - seg_start);
                seg_start = core.stats.cycles;
            }
            TAG_MAC => {
                // The loop's definition, op by op, with live execution's
                // D-cache-hit rule for the stretches whose charge is
                // fixed.
                let m = mac_record(ops, i)?;
                let mut j = 0;
                while j < m.n {
                    core.fetch(u64::from(m.pre));
                    load(core, &mut memo, m.x.wrapping_add(j), 1)?;
                    core.fetch(u64::from(m.mid));
                    load(core, &mut memo, m.w.wrapping_add(j), 1)?;
                    core.fetch(u64::from(m.post) + 2);
                    j += 1;
                    let k = core.fixed_hits(&m, j);
                    core.mac_hit_memory(&m, k);
                    j += k;
                }
                i += MAC_WORDS - 1;
            }
            _ => return Err(ReplayError::Mismatch("unknown op tag")),
        }
        i += 1;
    }
    core.settle();
    cycles.push(core.stats.cycles - seg_start);
    if cycles.len() != profile.segments() || store_cycles.len() != profile.boundary_stores() {
        return Err(ReplayError::Mismatch("core profile scanned from another trace"));
    }
    memo.spill(&mut core.bus);
    Ok((cycles, store_cycles))
}

/// The memory side of one recorded load: its fetch, then the load
/// through the D-cache and bus as [`TimedCore`] charges it, settling
/// the fetch backlog first when the load lands on a timing-stateful code
/// device. A load from a timing-stateless region outside the D-cache
/// costs a per-length constant: `memo` charges the memoized value and
/// settles its traffic statistics at the end of the pass.
fn load(core: &mut TimedCore, memo: &mut RegionTable, addr: u32, len: u32) -> Result<(), MemError> {
    core.fetch(1);
    match memo.find(addr, len) {
        Some(e) if e.stateless && (core.dcache.is_none() || addr >= UNCACHED_BASE) => {
            core.stats.loads += 1;
            if let Some(c) = e.cost[len as usize] {
                core.stats.cycles += c;
                e.deferred_reads += 1;
                e.deferred_bytes += u64::from(len);
                e.deferred_cycles += c;
            } else {
                let c = core.bus.read_cost(addr, len)?;
                core.stats.cycles += c;
                e.cost[len as usize] = Some(c);
            }
            Ok(())
        }
        _ => {
            if core.code_device.must_flush_for(addr) {
                core.settle();
            }
            core.load_cost(addr, len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfu_mem::{Bus, SpiFlash, SpiWidth, Sram};

    fn build_bus() -> Bus {
        let mut bus = Bus::new();
        bus.map("flash", 0, SpiFlash::new(1 << 20, SpiWidth::Single));
        bus.map("sram", 0x1000_0000, Sram::new(128 << 10));
        bus
    }

    fn capture_workload(config: CpuConfig) -> (TlmStats, Trace) {
        let mut core = TimedCore::new(config, build_bus());
        core.start_recording();
        core.mark_layer();
        core.set_code_region(0, 4096).unwrap();
        for i in 0..50 {
            core.alu(37);
            core.mul();
            core.shift(i % 31);
            core.branch(3, true, i % 7 != 0);
            core.branch(4, false, i % 5 == 0);
            core.store_u32(0x1000_0000 + i * 4, i).unwrap();
            core.load_u32(0x1000_0000 + i * 4).unwrap();
            core.call(4);
            core.peek_u32(0x1000_0000).unwrap();
        }
        core.mark_layer();
        core.set_code_region(0x1000_0000, 2048).unwrap();
        core.mark_layer();
        core.alu(500);
        core.div();
        core.mark_layer();
        (core.stats(), core.finish_recording().expect("recording"))
    }

    #[test]
    fn replay_matches_capture_stats_exactly() {
        for config in [
            CpuConfig::arty_default(),
            CpuConfig::fomu_baseline(),
            CpuConfig::fomu_with_icache(2048),
            CpuConfig::arty_default().with_compressed(true),
        ] {
            let (live, trace) = capture_workload(config);
            assert!(trace.retime_safe());
            let mut rp = TraceReplayer::new(config, build_bus());
            let summary = rp.replay(&trace).unwrap();
            assert_eq!(summary.stats, live, "stats diverged for {config:?}");
            assert_eq!(summary.mark_cycles.len(), 4);
            assert_eq!(summary.mark_cycles[3], live.cycles);
        }
    }

    #[test]
    fn replay_under_different_timing_matches_fresh_execution() {
        // Capture once under the baseline; replay under a *different*
        // timing configuration must equal executing under it.
        let base = CpuConfig::fomu_baseline();
        let (_, trace) = capture_workload(base);
        for target in [
            CpuConfig::fomu_with_icache(4096),
            CpuConfig::fomu_baseline().with_multiplier(crate::config::Multiplier::SingleCycleDsp),
            CpuConfig {
                branch_predictor: crate::config::BranchPredictor::Dynamic { entries: 64 },
                ..CpuConfig::fomu_baseline()
            },
            CpuConfig {
                branch_predictor: crate::config::BranchPredictor::Static,
                ..CpuConfig::fomu_baseline()
            },
        ] {
            let (live, _) = capture_workload(target);
            let mut rp = TraceReplayer::new(target, build_bus());
            let summary = rp.replay(&trace).unwrap();
            assert_eq!(summary.stats, live, "replay diverged for {target:?}");
        }
    }

    #[test]
    fn replay_device_stats_match_execute() {
        let config = CpuConfig::fomu_with_icache(2048);
        let (_, trace) = capture_workload(CpuConfig::fomu_baseline());
        let mut rp = TraceReplayer::new(config, build_bus());
        rp.replay(&trace).unwrap();

        let mut live = TimedCore::new(config, build_bus());
        // Re-run the same workload (no recording).
        live.set_code_region(0, 4096).unwrap();
        for i in 0..50 {
            live.alu(37);
            live.mul();
            live.shift(i % 31);
            live.branch(3, true, i % 7 != 0);
            live.branch(4, false, i % 5 == 0);
            live.store_u32(0x1000_0000 + i * 4, i).unwrap();
            live.load_u32(0x1000_0000 + i * 4).unwrap();
            live.call(4);
            live.peek_u32(0x1000_0000).unwrap();
        }
        live.set_code_region(0x1000_0000, 2048).unwrap();
        live.alu(500);
        live.div();

        for (id, info) in live.bus().regions() {
            let (rid, _) = rp.core().bus().region_by_name(&info.name).expect("same mapping");
            assert_eq!(
                live.bus().stats(id),
                rp.core().bus().stats(rid),
                "device stats diverged for {}",
                info.name
            );
        }
        assert_eq!(live.icache_stats(), rp.core().icache_stats());
    }

    #[test]
    fn rvc_mismatch_is_rejected() {
        let (_, trace) = capture_workload(CpuConfig::arty_default().with_compressed(true));
        let mut rp = TraceReplayer::new(CpuConfig::arty_default(), build_bus());
        assert!(matches!(rp.replay(&trace), Err(ReplayError::Mismatch(_))));
    }

    #[test]
    fn combine_refuses_profiles_of_another_configuration() {
        let config = CpuConfig::arty_default();
        let (_, trace) = capture_workload(config);
        let mut rp = TraceReplayer::new(config, build_bus());
        let predictor = config.branch_predictor;
        let (core, branches) = CoreProfile::scan(&trace, rp.core().bus(), predictor).unwrap();
        let memory = rp.memory_pass(&trace, &core).unwrap();
        let alone = TraceReplayer::new(config, build_bus()).replay(&trace).unwrap();
        assert_eq!(rp.combine(&core, &branches, &memory).unwrap(), alone);
        for other in [
            CpuConfig { branch_predictor: BranchPredictor::Static, ..config },
            config.with_dcache_bytes(0),
            config.with_compressed(true),
        ] {
            let mut rp = TraceReplayer::new(other, build_bus());
            let refused = rp.combine(&core, &branches, &memory);
            assert!(matches!(refused, Err(ReplayError::Mismatch(_))), "{other:?}");
        }
        // A core profile scanned from another trace does not fit.
        let (_, other) = capture_workload(CpuConfig::fomu_baseline());
        let mut empty = TimedCore::new(config, build_bus());
        empty.start_recording();
        empty.mark_layer();
        let empty = empty.finish_recording().unwrap();
        let mut rp = TraceReplayer::new(config, build_bus());
        let (short, _) = CoreProfile::scan(&empty, rp.core().bus(), predictor).unwrap();
        assert!(matches!(rp.memory_pass(&other, &short), Err(ReplayError::Mismatch(_))));
    }

    #[test]
    fn minimum_costs_are_the_cheapest_any_config_charges() {
        use crate::config::{Divider, Multiplier, Shifter};
        let base = CpuConfig::arty_default();
        let muls = [
            Multiplier::None,
            Multiplier::Iterative,
            Multiplier::SingleCycleDsp,
            Multiplier::SingleCycleLut,
        ];
        let mul = muls.map(|multiplier| CpuConfig { multiplier, ..base }.mul_cycles());
        assert_eq!(mul.into_iter().min(), Some(MIN_MUL_CYCLES));
        let div = [Divider::None, Divider::Iterative]
            .map(|divider| CpuConfig { divider, ..base }.div_cycles());
        assert_eq!(div.into_iter().min(), Some(MIN_DIV_CYCLES));
        let refill = (2..=7).map(|pipeline_depth| CpuConfig { pipeline_depth, ..base });
        assert_eq!(refill.map(|c| c.refill_penalty()).min(), Some(MIN_REFILL));
        // The combine prices a shift as a base cost plus a per-bit one;
        // the scan counts it at one cycle.
        for shifter in [Shifter::Iterative, Shifter::Barrel] {
            let c = CpuConfig { shifter, ..base };
            let per_bit = c.shift_cycles(1) - c.shift_cycles(0);
            assert_eq!(c.shift_cycles(0), 1);
            for shamt in 0..32 {
                assert_eq!(c.shift_cycles(shamt), 1 + u64::from(shamt) * per_bit);
            }
        }
    }

    #[test]
    fn alu_records_merge() {
        let mut r = TraceRecorder::new(false);
        r.alu(3);
        r.alu(0);
        r.alu(7);
        assert_eq!(r.ops, vec![TAG_ALU | (10 << 8)]);
        r.mul();
        r.alu(2);
        assert_eq!(r.ops.len(), 3);
        // A region length whose low nibble reads as the ALU tag is not
        // an ALU record: the next ALU op must not fold into it.
        r.region(0, 0x431);
        r.alu(13);
        assert_eq!(r.ops[3..], [TAG_REGION, 0x431, TAG_ALU | (13 << 8)]);
    }

    #[test]
    fn mac_records_keep_every_field() {
        let mut r = TraceRecorder::new(false);
        let max = MacLoop {
            x: u32::MAX,
            w: 0x8000_0001,
            n: u32::MAX,
            input_offset: -128,
            pre: u32::MAX,
            mid: 1,
            post: u32::MAX - 1,
            site: u32::MAX,
        };
        let zero = MacLoop { x: 0, w: 0, n: 0, input_offset: 0, pre: 0, mid: 0, post: 0, site: 0 };
        for m in [max, zero] {
            r.mac(&m);
            let at = r.ops.len() - MAC_WORDS;
            assert_eq!(mac_record(&r.ops, at), Ok(MacLoop { input_offset: 0, ..m }));
        }
        let truncated = mac_record(&r.ops, r.ops.len() - 2);
        assert_eq!(truncated, Err(ReplayError::Mismatch("truncated MAC record")));
    }

    #[test]
    fn fetches_before_any_region_use_the_ideal_fetch() {
        // With no region declared every fetch costs 1 cycle and never
        // reaches the bus; capture must finalize and replay exactly.
        let config = CpuConfig::fomu_baseline();
        let mut core = TimedCore::new(config, build_bus());
        core.start_recording();
        core.alu(700);
        core.mul();
        core.set_code_region(0, 1024).unwrap();
        core.alu(10);
        let trace = core.finish_recording().expect("recording");
        let flash = core.bus().region_by_name("flash").expect("mapped").0;
        assert_eq!(core.bus().stats(flash).reads, 10);
        let summary = TraceReplayer::new(config, build_bus()).replay(&trace).unwrap();
        assert_eq!(summary.stats, core.stats());
    }

    #[test]
    fn replay_on_wrong_board_faults_cleanly() {
        let (_, trace) = capture_workload(CpuConfig::arty_default());
        let mut tiny = Bus::new();
        tiny.map("flash", 0, SpiFlash::new(1 << 20, SpiWidth::Single));
        // No SRAM region: the first SRAM store must surface a Mem error.
        let mut rp = TraceReplayer::new(CpuConfig::arty_default(), tiny);
        assert!(matches!(rp.replay(&trace), Err(ReplayError::Mem(_))));
    }
}
