//! Generated differential test for [`TimedCore::mac_loop`] against the
//! op-by-op loop that defines it.
//!
//! It lives inside the crate because it compares state that a later op
//! can see but the public API does not show: every cache set's
//! replacement words, the predictor's entries and touched mask, the
//! write buffer and the fetch walk.
//!
//! Each case builds two identical cores, runs the same history on both
//! (a warm-up that may sweep the code region, then loads, stores,
//! branches and MAC loops), then one MAC loop: `mac_loop` on one core,
//! the op-by-op loop on the other. Configurations cover no D-cache and
//! 1 KiB D-caches of 1, 2 and 4 ways with 16-, 32- and 64-byte lines;
//! SPI flash, SRAM and DDR3 behind the operands and the code region;
//! same-line, overlapping, same-set and unrelated operands, operands
//! straddling [`UNCACHED_BASE`] and operands running off their device;
//! deferral and capture on and off; swept and unswept code regions. After
//! the loop and again after a follow-up op sequence, the two cores must
//! agree on everything a later op can observe.
//!
//! A capture records `mac_loop` as one MAC record and the op-by-op loop
//! as its ops, so the two traces differ word for word. What must agree is
//! what replay makes of them: under the case's configuration and under a
//! second one with other caches and another predictor, both traces
//! replay to the same summary, statistics, cache statistics and device
//! traffic, and under the case's configuration that is the live run's.
//! Every MAC loop records the same number of words whatever its `n`, and
//! a faulting one records none.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use cfu_mem::{
    Bus, CacheConfig, CacheStats, Ddr3, DeviceStats, MemError, SpiFlash, SpiWidth, Sram,
};
use proptest::collection::vec;
use proptest::prelude::*;

use crate::retime::MAC_WORDS;
use crate::timed_core::FetchWalk;
use crate::{
    BranchPredictor, CpuConfig, MacLoop, ReplaySummary, TimedCore, TlmStats, Trace, TraceReplayer,
    UNCACHED_BASE,
};

const FLASH: (u32, u32) = (0x0000_0000, 64 << 10);
const SRAM: (u32, u32) = (0x1000_0000, 64 << 10);
const DDR: (u32, u32) = (0x4000_0000, 256 << 10);
/// An SRAM straddling `UNCACHED_BASE`: its upper half is uncached.
const EDGE: (u32, u32) = (UNCACHED_BASE - (16 << 10), 32 << 10);
const DEVICES: [(u32, u32); 4] = [FLASH, SRAM, DDR, EDGE];

fn build_bus() -> Bus {
    let mut bus = Bus::new();
    bus.map("flash", FLASH.0, SpiFlash::new(FLASH.1, SpiWidth::Quad));
    bus.map("sram", SRAM.0, Sram::new(SRAM.1));
    bus.map("ddr", DDR.0, Ddr3::new(DDR.1));
    bus.map("edge", EDGE.0, Sram::new(EDGE.1));
    for (base, size) in DEVICES {
        let bytes: Vec<u8> =
            (0..size).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        bus.load_image(base, &bytes).unwrap();
    }
    bus
}

/// An I-cache that holds any generated code region in distinct sets.
const BIG_ICACHE: CacheConfig = CacheConfig { size_bytes: 4096, ways: 1, line_bytes: 32 };
/// An I-cache that holds only the shortest generated code region.
const SMALL_ICACHE: CacheConfig = CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 32 };
const PREDICTORS: [BranchPredictor; 4] = [
    BranchPredictor::None,
    BranchPredictor::Static,
    BranchPredictor::Dynamic { entries: 64 },
    BranchPredictor::DynamicTarget { entries: 16 },
];

/// The cores' configuration: no D-cache or one of nine 1 KiB D-caches,
/// the big or the small I-cache, and one of four predictors.
fn config() -> impl Strategy<Value = CpuConfig> {
    (0usize..10, any::<bool>(), 0usize..4).prop_map(|(dcache, small_icache, predictor)| {
        let dcache = dcache.checked_sub(1).map(|d| CacheConfig {
            size_bytes: 1024,
            ways: [1, 2, 4][d % 3],
            line_bytes: [16, 32, 64][d / 3],
        });
        let icache = if small_icache { SMALL_ICACHE } else { BIG_ICACHE };
        let branch_predictor = PREDICTORS[predictor];
        CpuConfig { icache: Some(icache), dcache, branch_predictor, ..CpuConfig::arty_default() }
    })
}

/// A second replay target for a trace captured under `c`: the other
/// I-cache, a 2 KiB D-cache of another geometry (or a 1 KiB one where `c`
/// has none) and the next predictor.
fn retimed(c: CpuConfig) -> CpuConfig {
    let dcache = Some(match c.dcache {
        None => CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 32 },
        Some(d) => CacheConfig {
            size_bytes: 2048,
            ways: if d.ways == 1 { 2 } else { 1 },
            line_bytes: if d.line_bytes == 64 { 16 } else { 2 * d.line_bytes },
        },
    });
    let icache = Some(if c.icache == Some(BIG_ICACHE) { SMALL_ICACHE } else { BIG_ICACHE });
    let next = PREDICTORS.iter().position(|&p| p == c.branch_predictor).map_or(0, |i| i + 1);
    CpuConfig { icache, dcache, branch_predictor: PREDICTORS[next % 4], ..c }
}

/// The start of an `n`-byte operand: inside one of the devices with 4 KiB
/// to spare (device 0–3), straddling `UNCACHED_BASE` (4), or running off
/// the end of the SRAM (5).
fn operand(dev: usize, off: u32, n: u32) -> u32 {
    match dev {
        0..=3 => {
            let (base, size) = DEVICES[dev];
            base + off % (size - n - 4096)
        }
        4 => UNCACHED_BASE - 1 - off % 320,
        _ => SRAM.0 + SRAM.1 - 1 - off % 128,
    }
}

/// The loop: `n` up to 300, `pre`/`mid`/`post` up to 30 and a filter
/// operand in the input's line (overlapping it), in the same set of any
/// generated D-cache, or anywhere.
fn mac() -> impl Strategy<Value = MacLoop> {
    (
        (0usize..6, any::<u32>(), 0u32..6, 0usize..4, any::<u32>()),
        prop_oneof![0u32..4, 4u32..40, 40u32..=300],
        (0u32..=30, 0u32..=30, 0u32..=30),
        (0u32..3, -128i32..=128),
    )
        .prop_map(
            |((xdev, xoff, rel, wdev, woff), n, (pre, mid, post), (site, input_offset))| {
                let x = operand(xdev, xoff, n);
                let w = match rel {
                    0 => x,
                    1 => x.wrapping_add(woff % 64),
                    2 => x.wrapping_add(1024 << (woff % 2)),
                    _ => operand(wdev, woff, n),
                };
                MacLoop { x, w, n, input_offset, pre, mid, post, site }
            },
        )
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Alu(u32),
    Load(u32),
    Store(u32),
    Branch { site: u32, taken: bool },
    Mul,
    Mac(MacLoop),
}

/// History and follow-up ops. Loads and stores land near the operands
/// of `main` or at aliases of them in a 1 KiB cache, so the MAC loop's
/// line residency and LRU order decide their hits.
fn op() -> impl Strategy<Value = (u32, u32, u32)> {
    (0u32..7, any::<u32>(), any::<u32>())
}

fn make_op((kind, a, b): (u32, u32, u32), main: &MacLoop) -> Op {
    let near = |a: u32, b: u32| {
        let base = if a & 1 == 0 { main.x } else { main.w };
        let addr = base.wrapping_add(b % 96).wrapping_add((a >> 1) % 3 * 1024);
        // Keep to mapped, writable bytes: the data stays in its device.
        if DEVICES.iter().any(|&(d, size)| addr >= d && addr - d < size - 4) {
            addr
        } else {
            SRAM.0 + b % 4096
        }
    };
    match kind {
        0 => Op::Alu(a % 700),
        1 | 2 => Op::Load(near(a, b)),
        3 => {
            let addr = near(a, b);
            Op::Store(if addr < SRAM.0 { SRAM.0 + addr % 4096 } else { addr })
        }
        4 => Op::Branch { site: a % 3, taken: b & 1 == 1 },
        5 => Op::Mul,
        _ => Op::Mac(MacLoop { n: a % 40, pre: b % 20, ..*main }),
    }
}

#[derive(Debug, Clone)]
struct Case {
    config: CpuConfig,
    /// Code region base and length.
    code: (u32, u32),
    /// Single-cycle instructions right after the region is declared: 0
    /// to 7000, so the region is sometimes swept, sometimes not.
    warm: u32,
    history: Vec<Op>,
    main: MacLoop,
    follow: Vec<Op>,
    defer: bool,
    record: bool,
}

fn case() -> impl Strategy<Value = Case> {
    (
        config(),
        (0usize..3, any::<u32>(), 0usize..3, 0usize..5),
        mac(),
        (vec(op(), 0..12), vec(op(), 0..24)),
        (0u32..4, any::<bool>()),
    )
        .prop_map(
            |(config, (dev, off, len, warm), main, (history, follow), (defer, record))| {
                let (base, _) = DEVICES[dev];
                let code = (base + (off % (16 << 10)) / 4 * 4, [256, 1024, 3072][len]);
                Case {
                    config,
                    code,
                    warm: [0, 300, 700, 2500, 7000][warm],
                    history: history.into_iter().map(|o| make_op(o, &main)).collect(),
                    main,
                    follow: follow.into_iter().map(|o| make_op(o, &main)).collect(),
                    // Deferral is on inside every deployed layer.
                    defer: defer != 0,
                    record,
                }
            },
        )
}

/// The definition of [`TimedCore::mac_loop`], op by op.
fn mac_by_ops(core: &mut TimedCore, m: &MacLoop) -> Result<i32, MemError> {
    let mut acc = 0;
    for i in 0..m.n {
        core.alu(m.pre);
        let x = i32::from(core.load_i8(m.x.wrapping_add(i))?);
        core.alu(m.mid);
        let w = i32::from(core.load_i8(m.w.wrapping_add(i))?);
        core.mul();
        core.alu(m.post);
        core.branch(m.site, true, i + 1 != m.n);
        acc += (x + m.input_offset) * w;
    }
    Ok(acc)
}

fn run_mac(core: &mut TimedCore, m: &MacLoop, by_ops: bool) -> Result<i32, MemError> {
    if by_ops {
        return mac_by_ops(core, m);
    }
    let words = |core: &TimedCore| core.recorder.as_ref().map(|r| r.words());
    let before = words(core);
    let out = core.mac_loop(m);
    // One fixed-size record for any `n`; none for a loop that faulted.
    let added = if out.is_ok() { MAC_WORDS } else { 0 };
    assert_eq!(words(core), before.map(|w| w + added), "{m:?}: {out:?}");
    out
}

/// Runs `ops`, returning each MAC loop's and load's result.
fn run(core: &mut TimedCore, ops: &[Op], by_ops: bool) -> Vec<Result<i32, MemError>> {
    let mut out = Vec::new();
    for op in ops {
        match *op {
            Op::Alu(n) => core.alu(n),
            Op::Load(addr) => out.push(core.load_u8(addr).map(i32::from)),
            Op::Store(addr) => core.store_u8(addr, addr as u8).unwrap(),
            Op::Branch { site, taken } => core.branch(site, true, taken),
            Op::Mul => core.mul(),
            Op::Mac(m) => out.push(run_mac(core, &m, by_ops)),
        }
    }
    out
}

/// Everything a later op can observe, after settling the fetch backlog.
#[derive(Debug, PartialEq, Eq)]
struct State {
    stats: TlmStats,
    cache_stats: [Option<CacheStats>; 2],
    clocks: [Option<u64>; 2],
    /// Every set's `save_set` words, I-cache then D-cache.
    sets: [Vec<u64>; 2],
    /// Every predictor entry, the hit/miss counts and the touched mask.
    predictor: (Vec<u64>, (u64, u64), u64),
    device_timing: Vec<u64>,
    devices: Vec<DeviceStats>,
    write_buffer: Vec<u64>,
    walk: FetchWalk,
}

fn observe(core: &mut TimedCore, defer: bool) -> State {
    core.defer_fetches(false);
    core.defer_fetches(defer);
    let mut entries = Vec::new();
    core.bpred.save_entries(u64::MAX, &mut entries);
    let predictor = (entries, core.bpred.stats(), core.bpred.take_touched());
    let caches = [core.icache.as_ref(), core.dcache.as_ref()];
    let sets = caches.map(|cache| {
        let mut words = Vec::new();
        if let Some(cache) = cache {
            for set in 0..cache.config().sets() as usize {
                cache.save_set(set, &mut words);
            }
        }
        words
    });
    let mut device_timing = Vec::new();
    assert!(core.bus.save_timing(&mut device_timing));
    State {
        stats: core.stats,
        cache_stats: caches.map(|c| c.map(|c| c.stats())),
        clocks: caches.map(|c| c.map(|c| c.clock())),
        sets,
        predictor,
        device_timing,
        devices: core.bus.regions().map(|(id, _)| core.bus.stats(id)).collect(),
        write_buffer: core.write_buffer.iter().copied().collect(),
        walk: core.walk,
    }
}

/// One case on one core: `by_ops` runs every MAC loop op by op.
fn run_case(case: &Case, by_ops: bool) -> (TimedCore, Vec<Result<i32, MemError>>, [State; 2]) {
    let mut core = TimedCore::new(case.config, build_bus());
    if case.record {
        core.start_recording();
    }
    core.defer_fetches(case.defer);
    core.set_code_region(case.code.0, case.code.1).unwrap();
    core.alu(case.warm);
    let mut results = run(&mut core, &case.history, by_ops);
    results.push(run_mac(&mut core, &case.main, by_ops));
    let after_main = observe(&mut core, case.defer);
    results.extend(run(&mut core, &case.follow, by_ops));
    let after_follow = observe(&mut core, case.defer);
    (core, results, [after_main, after_follow])
}

/// What a replay of a trace under one configuration yields: its summary,
/// both caches' statistics and every device's traffic.
type Replayed = (ReplaySummary, [Option<CacheStats>; 2], Vec<DeviceStats>);

fn replay(config: CpuConfig, trace: &Trace) -> (Replayed, [u64; 2]) {
    let mut replayer = TraceReplayer::new(config, build_bus());
    let summary = replayer.replay(trace).unwrap();
    let core = replayer.core();
    let devices = core.bus.regions().map(|(id, _)| core.bus.stats(id)).collect();
    ((summary, [core.icache_stats(), core.dcache_stats()], devices), core.bulk_loads)
}

const CASES: u32 = 600;
/// Cases run so far, and the loads that the bulk rules charged, by rule:
/// the hit and uncached rules without and with capture, and the hit
/// rule in replays. The last case asserts the generator engages each.
static RAN: AtomicU32 = AtomicU32::new(0);
static BULK_LOADS: [AtomicU64; 5] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]
    #[test]
    fn mac_loop_equals_its_op_by_op_definition(case in case()) {
        let (mut bulk, results, states) = run_case(&case, false);
        let (mut oracle, oracle_results, oracle_states) = run_case(&case, true);
        let what = format!("{case:?}");
        prop_assert_eq!(&results, &oracle_results, "results: {}", what);
        prop_assert_eq!(&states[0], &oracle_states[0], "after the loop: {}", what);
        prop_assert_eq!(&states[1], &oracle_states[1], "after the follow-up: {}", what);
        // A capture whose loop faulted fails, and no caller replays it.
        let traces = bulk.finish_recording().zip(oracle.finish_recording());
        if let Some((trace, oracle_trace)) = traces.filter(|_| results.iter().all(Result::is_ok)) {
            for config in [case.config, retimed(case.config)] {
                let (replayed, replay_loads) = replay(config, &trace);
                let (want, _) = replay(config, &oracle_trace);
                prop_assert_eq!(&replayed, &want, "replay under {:?}: {}", config, what);
                if config == case.config {
                    prop_assert_eq!(replayed.0.stats, states[1].stats, "live: {}", what);
                }
                BULK_LOADS[4].fetch_add(replay_loads[0], Ordering::Relaxed);
            }
        }
        if !case.defer {
            prop_assert_eq!(bulk.bulk_loads, [0, 0], "{}", what);
        }
        for (rule, loads) in bulk.bulk_loads.into_iter().enumerate() {
            BULK_LOADS[2 * usize::from(case.record) + rule].fetch_add(loads, Ordering::Relaxed);
        }
        if RAN.fetch_add(1, Ordering::Relaxed) + 1 == CASES {
            let loads = BULK_LOADS.each_ref().map(|l| l.load(Ordering::Relaxed));
            prop_assert!(
                loads.iter().all(|&l| l > 0),
                "bulk loads (hit, uncached; captured hit, uncached; replayed hit): {:?}",
                loads
            );
        }
    }
}
