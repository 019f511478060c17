//! Generated differential test for bulk and deferred instruction-fetch
//! charging.
//!
//! It lives inside the crate because its per-fetch reference drives the
//! crate-private fetch walk and charger (`FetchWalk::next`,
//! `TimedCore::fetch_run` and `charge`).
//!
//! `TimedCore::alu(n)` and `call(s)` charge their fetches one sequential
//! stretch at a time, the warm rest of a fetch window as bulk hits, and
//! every fetch of a swept resident region as bulk hits; with fetch
//! deferral on, every op's fetch joins a backlog that settles only where
//! its timing can be observed; and `TraceReplayer` replays a captured
//! trace's fetches through the same backlog. Over random operation sequences
//! and random configurations (I-cache none / 1-way / 2-way / 4-way of
//! 256 B to 4 KiB with 16/32/64-byte lines, D-cache on/off, RVC on/off,
//! single/quad SPI flash, SRAM, DDR3 and a region straddling the uncached
//! window), this checks that
//!
//! * `alu(n)` equals `n` calls of `alu(1)` and `n` single-fetch steps,
//! * `call(s)` equals its per-fetch expansion,
//! * the ops inside one deferral scope, settled at each mark, equal the
//!   same ops charged one at a time, at every mark, and
//! * replaying the recorded trace equals the live run,
//!
//! on every `TlmStats` field, both caches' statistics and every device's
//! traffic statistics.

use std::sync::atomic::{AtomicU32, Ordering};

use cfu_core::templates::SimdAddCfu;
use cfu_core::CfuOp;
use cfu_mem::{Bus, CacheConfig, CacheStats, Ddr3, DeviceStats, SpiFlash, SpiWidth, Sram};
use proptest::collection::vec;
use proptest::prelude::*;

use crate::{CpuConfig, TimedCore, TraceReplayer, UNCACHED_BASE};

const FLASH: (u32, u32) = (0x0000_0000, 64 << 10);
const SRAM: (u32, u32) = (0x1000_0000, 64 << 10);
const DDR: (u32, u32) = (0x4000_0000, 1 << 20);
/// An SRAM straddling `UNCACHED_BASE`: its upper half is uncached.
const EDGE: (u32, u32) = (UNCACHED_BASE - (16 << 10), 32 << 10);

fn build_bus(quad: bool) -> Bus {
    let width = if quad { SpiWidth::Quad } else { SpiWidth::Single };
    let mut bus = Bus::new();
    bus.map("flash", FLASH.0, SpiFlash::new(FLASH.1, width));
    bus.map("sram", SRAM.0, Sram::new(SRAM.1));
    bus.map("ddr", DDR.0, Ddr3::new(DDR.1));
    bus.map("edge", EDGE.0, Sram::new(EDGE.1));
    bus
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Alu(u32),
    Call(u32),
    Mul,
    Div,
    Shift(u32),
    Branch { site: u32, backward: bool, taken: bool },
    Load { addr: u32, wide: bool },
    Store { addr: u32, wide: bool },
    Cfu,
    Peek(u32),
    Mark,
    Region { base: u32, len: u32 },
}

/// A word-aligned data address in one of the devices; stores never
/// target the read-only flash.
fn data_addr(dev: u32, off: u32, store: bool) -> u32 {
    let (base, size) = match dev {
        0 if !store => FLASH,
        0 | 1 => SRAM,
        2 => DDR,
        _ => EDGE,
    };
    base + (off % (size - 4)) / 4 * 4
}

/// A code region in one of the devices (or unmapped space). Some run
/// off their device's end and must be rejected; the `EDGE` ones sit
/// around `UNCACHED_BASE`.
fn region(dev: u32, off: u32, len: u32) -> Op {
    let base = match dev {
        0 => FLASH.0 + off % FLASH.1,
        1 => SRAM.0 + off % SRAM.1,
        2 => DDR.0 + off % DDR.1,
        3 => UNCACHED_BASE - (4 << 10) + off % (8 << 10),
        _ => 0x2000_0000,
    };
    Op::Region { base, len }
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..16).prop_map(Op::Alu),
        (16u32..700).prop_map(Op::Alu),
        (0u32..5).prop_map(Op::Call),
        Just(Op::Mul),
        Just(Op::Div),
        (0u32..32).prop_map(Op::Shift),
        (0u32..4, any::<bool>(), any::<bool>()).prop_map(|(site, backward, taken)| Op::Branch {
            site,
            backward,
            taken
        }),
        (0u32..4, any::<u32>(), any::<bool>())
            .prop_map(|(dev, off, wide)| Op::Load { addr: data_addr(dev, off, false), wide }),
        (0u32..4, any::<u32>(), any::<bool>())
            .prop_map(|(dev, off, wide)| Op::Store { addr: data_addr(dev, off, true), wide }),
        Just(Op::Cfu),
        (0u32..4, any::<u32>()).prop_map(|(dev, off)| Op::Peek(data_addr(dev, off, false))),
        Just(Op::Mark),
        (0u32..5, any::<u32>(), prop_oneof![Just(0u32), Just(4u32), 5u32..4096])
            .prop_map(|(dev, off, len)| region(dev, off, len)),
        (0u32..3, 0u32..4, any::<bool>()).prop_map(aliased_region),
    ]
}

/// One of a few aligned slots that alias in every generated I-cache, so
/// regions are revisited after evicting each other.
fn aliased_region((dev, slot, long): (u32, u32, bool)) -> Op {
    region(dev, slot << 10, if long { 1024 } else { 256 })
}

/// `(config, quad_spi_flash)`.
fn config() -> impl Strategy<Value = (CpuConfig, bool)> {
    (0usize..4, 0u32..3, 0usize..4, 0u32..16).prop_map(|(ways, line, size, flags)| {
        let [rvc, dcache, quad, fomu] = [0, 1, 2, 3].map(|bit| flags >> bit & 1 != 0);
        let line_bytes = 16 << line;
        // A 256-byte I-cache cannot hold a whole 256-byte fetch window in
        // distinct sets, so it never takes the warm-window fast path.
        let icache = (ways > 0).then_some(CacheConfig {
            size_bytes: [256, 512, 1024, 4096][size],
            ways: [0, 1, 2, 4][ways],
            line_bytes,
        });
        let base = if fomu { CpuConfig::fomu_baseline() } else { CpuConfig::arty_default() };
        let dcache = dcache.then_some(CacheConfig { size_bytes: 1024, ways: 1, line_bytes: 32 });
        (CpuConfig { icache, dcache, compressed: rvc, ..base }, quad)
    })
}

/// How the ops are charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Op by op: `alu(n)` and `call(s)` charge in bulk stretches.
    Batched,
    /// `alu(n)` as `n` calls of `alu(1)`.
    UnitAlu,
    /// Every fetch of `alu` and `call` charged alone by the oracle, with
    /// the warm-window and whole-region residency fast paths off.
    PerFetch,
    /// Every op inside one deferral scope, settled at each `Mark`.
    Deferred,
}

/// The per-fetch oracle: one fetch at the walk's next PC through the
/// charger, never skipping an I-cache access.
fn fetch_one(core: &mut TimedCore) {
    let step = core.fetch_step();
    let (pc, ideal) = core.walk.next(step);
    if ideal {
        core.stats.instructions += 1;
        core.charge(1);
    } else {
        core.fetch_run(pc, 1).expect("accepted regions fetch without faults");
    }
}

/// `n` single-cycle instructions through the oracle fetch.
fn steps(core: &mut TimedCore, n: u32) {
    for _ in 0..n {
        fetch_one(core);
        core.charge(1);
    }
}

/// What a mark observes: core, cache and per-device statistics.
type Observed = (crate::TlmStats, Option<CacheStats>, Option<CacheStats>, Vec<DeviceStats>);

fn observe(core: &TimedCore) -> Observed {
    let bus = core.bus();
    (
        core.stats(),
        core.icache_stats(),
        core.dcache_stats(),
        bus.regions().map(|(id, _)| bus.stats(id)).collect(),
    )
}

/// What [`run`] returns: the core, each op's success, what every `Mark`
/// observed, and whether some op found a swept resident region.
type Run = (TimedCore, Vec<bool>, Vec<Observed>, bool);

/// Runs `ops` under `mode`.
fn run(config: CpuConfig, quad: bool, ops: &[Op], mode: Mode) -> Run {
    let mut core = TimedCore::with_cfu(config, build_bus(quad), SimdAddCfu::new());
    match mode {
        Mode::Batched => core.start_recording(),
        Mode::Deferred => core.defer_fetches(true),
        Mode::UnitAlu | Mode::PerFetch => {}
    }
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut marks = Vec::new();
    let mut resident = false;
    for &op in ops {
        resident |= core.resident_skip && core.walk.swept;
        let mut ok = true;
        match (op, mode) {
            (Op::Alu(n), Mode::UnitAlu) => (0..n).for_each(|_| core.alu(1)),
            (Op::Alu(n), Mode::PerFetch) => steps(&mut core, n),
            (Op::Alu(n), _) => core.alu(n),
            (Op::Call(s), Mode::PerFetch) => {
                // jal, jalr-ret, then two single-cycle instructions per
                // saved register.
                fetch_one(&mut core);
                core.charge(2);
                fetch_one(&mut core);
                core.charge(1 + config.refill_penalty());
                steps(&mut core, 2 * s);
            }
            (Op::Call(s), _) => core.call(s),
            (Op::Mul, _) => core.mul(),
            (Op::Div, _) => core.div(),
            (Op::Shift(s), _) => core.shift(s),
            (Op::Branch { site, backward, taken }, _) => core.branch(site, backward, taken),
            (Op::Load { addr, wide: true }, _) => ok = core.load_u32(addr).is_ok(),
            (Op::Load { addr, wide: false }, _) => ok = core.load_u8(addr).is_ok(),
            (Op::Store { addr, wide: true }, _) => ok = core.store_u32(addr, addr).is_ok(),
            (Op::Store { addr, wide: false }, _) => ok = core.store_u8(addr, addr as u8).is_ok(),
            (Op::Cfu, _) => ok = core.cfu(CfuOp::new(0, 0), 0x0102_0304, 0x0101_0101).is_ok(),
            (Op::Peek(addr), _) => ok = core.peek_u32(addr).is_ok(),
            (Op::Mark, _) => {
                core.mark_layer();
                core.defer_fetches(false);
                marks.push(observe(&core));
                core.defer_fetches(mode == Mode::Deferred);
            }
            (Op::Region { base, len }, _) => {
                ok = core.set_code_region(base, len).is_ok();
                if mode == Mode::PerFetch {
                    // The remaining single fetches (`mul`, loads, ...)
                    // then take the one-fetch stretch, never bulk hits.
                    core.warm_skip = false;
                    core.resident_skip = false;
                }
            }
        }
        outcomes.push(ok);
    }
    core.defer_fetches(false);
    (core, outcomes, marks, resident)
}

/// Asserts two cores charged identically: core, cache and per-device
/// statistics.
fn assert_same(a: &TimedCore, b: &TimedCore, what: &str) {
    assert_eq!(a.stats(), b.stats(), "{what}: TlmStats");
    assert_eq!(a.icache_stats(), b.icache_stats(), "{what}: I-cache stats");
    assert_eq!(a.dcache_stats(), b.dcache_stats(), "{what}: D-cache stats");
    for ((id_a, info), (id_b, _)) in a.bus().regions().zip(b.bus().regions()) {
        assert_eq!(a.bus().stats(id_a), b.bus().stats(id_b), "{what}: {} stats", info.name);
    }
}

const CASES: u32 = 256;
/// Cases run so far, and those in which some op found a swept resident
/// region: the last case asserts the generator reaches that fast path.
static RAN: AtomicU32 = AtomicU32::new(0);
static RESIDENT: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]
    #[test]
    fn bulk_fetch_charging_is_exact(
        (config, quad) in config(),
        ops in vec(op(), 1..200),
    ) {
        let (mut batched, outcomes, marks, resident) = run(config, quad, &ops, Mode::Batched);
        RESIDENT.fetch_add(u32::from(resident), Ordering::Relaxed);
        for mode in [Mode::UnitAlu, Mode::PerFetch, Mode::Deferred] {
            let (reference, ref_outcomes, ref_marks, _) = run(config, quad, &ops, mode);
            let what = format!("{mode:?} vs Batched, {config:?}, quad {quad}, ops {ops:?}");
            prop_assert_eq!(&ref_outcomes, &outcomes, "{}", what);
            for (i, (r, b)) in ref_marks.iter().zip(&marks).enumerate() {
                prop_assert_eq!(r, b, "mark {}: {}", i, what);
            }
            assert_same(&reference, &batched, &what);
        }
        // Only region declarations may fail: data accesses target mapped
        // words, and an accepted region's fetches cannot fault.
        for (op, ok) in ops.iter().zip(&outcomes) {
            prop_assert!(*ok || matches!(op, Op::Region { .. }), "{:?} failed", op);
        }

        let trace = batched.finish_recording().expect("recording");
        let mut replayer = TraceReplayer::new(config, build_bus(quad));
        let summary = replayer.replay(&trace).expect("replay");
        let what = format!("replay vs live, {config:?}, quad {quad}, ops {ops:?}");
        prop_assert_eq!(summary.stats, batched.stats(), "{}", what);
        assert_same(replayer.core(), &batched, &what);
        if RAN.fetch_add(1, Ordering::Relaxed) + 1 == CASES {
            let resident = RESIDENT.load(Ordering::Relaxed);
            prop_assert!(resident > 0, "no case reached a swept resident region");
        }
    }
}
