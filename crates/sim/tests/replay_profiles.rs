//! Generated exactness tests for factored trace replay.
//!
//! A replay is a memory pass per cache geometry, a fused core-count and
//! branch pass per predictor, and a per-segment combine that runs the
//! write buffer only at the stores where it may still hold a write. The
//! programs here are bursts of stores with 0–3 ALU ops between them, to
//! DDR3, SRAM, the uncached window and a device without a write-latency
//! bound, with layer marks inside the bursts: the shapes where the
//! write buffer fills and quiet-store merging has to get every boundary
//! right. For each program, one captured trace is replayed under every
//! branch predictor, both shifters and a spread of multipliers,
//! dividers and pipeline depths, over four cache geometries, three ways:
//!
//! * live execution under the configuration,
//! * [`TraceReplayer::replay`] on its own, and
//! * [`TraceReplayer::combine`] over profiles shared across the whole
//!   configuration set (one memory pass per geometry, one scan per
//!   predictor),
//!
//! and all three must agree on `TlmStats`, the cycle count at every
//! mark, per-region traffic and both caches' statistics.

use std::collections::HashMap;

use cfu_mem::{Bus, BusDevice, CacheConfig, Ddr3, MemError, Sram};
use cfu_sim::{
    BranchPredictor, BranchProfile, CoreProfile, CpuConfig, Divider, MemoryProfile, Multiplier,
    Shifter, TimedCore, Trace, TraceReplayer, UNCACHED_BASE,
};
use proptest::collection::vec;
use proptest::prelude::*;

const SRAM: u32 = 0x1000_0000;
const UNBOUNDED: u32 = 0x2000_0000;
const DDR: u32 = 0x4000_0000;
const IO: u32 = UNCACHED_BASE + 0x1000;
const SIZE: u32 = 64 << 10;

/// SRAM timing without a write-latency bound: every buffered store to
/// it must be timed exactly.
#[derive(Debug)]
struct Unbounded(Sram);

impl BusDevice for Unbounded {
    fn size(&self) -> u32 {
        self.0.size()
    }
    fn read(&mut self, offset: u32, buf: &mut [u8]) -> Result<u64, MemError> {
        self.0.read(offset, buf)
    }
    fn write(&mut self, offset: u32, data: &[u8]) -> Result<u64, MemError> {
        // Slower than any bound the scan could assume for SRAM.
        Ok(self.0.write(offset, data)? * 9)
    }
    fn poke(&mut self, offset: u32, data: &[u8]) -> Result<(), MemError> {
        self.0.poke(offset, data)
    }
}

fn build_bus(unbounded: bool) -> Bus {
    let mut bus = Bus::new();
    bus.map("sram", SRAM, Sram::new(SIZE));
    bus.map("ddr", DDR, Ddr3::new(1 << 20));
    bus.map("io", IO, Sram::with_latency(SIZE, 3));
    if unbounded {
        bus.map("slow", UNBOUNDED, Unbounded(Sram::new(SIZE)));
    }
    bus
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Alu(u32),
    Mul,
    Div,
    Shift(u32),
    Branch { site: u32, backward: bool, taken: bool },
    Call(u32),
    Load(u32),
    Store(u32),
    Mark,
}

/// A word address on device `dev`: 0 SRAM, 1 and 2 DDR3 (two banks'
/// worth of rows), 3 the uncached window, 4 the unbounded device (SRAM
/// on buses without it).
fn addr(dev: u32, off: u32, unbounded: bool) -> u32 {
    let off = (off % (SIZE - 4)) & !3;
    match dev {
        0 => SRAM + off,
        1 => DDR + off,
        2 => DDR + (8 << 11) + off,
        3 => IO + off,
        _ if unbounded => UNBOUNDED + off,
        _ => SRAM + off,
    }
}

/// A burst of 1–8 stores to random devices, 0–3 ALU ops apart, with an
/// occasional mark inside.
fn burst(unbounded: bool) -> impl Strategy<Value = Vec<Op>> {
    vec((0u32..5, any::<u32>(), 0u32..4, 0u32..8), 1..9).prop_map(move |stores| {
        let mut ops = Vec::new();
        for (dev, off, alu, mark) in stores {
            ops.push(Op::Store(addr(dev, off, unbounded)));
            if alu > 0 {
                ops.push(Op::Alu(alu));
            }
            if mark == 0 {
                ops.push(Op::Mark);
            }
        }
        ops
    })
}

/// Work between bursts: everything a predictor, shifter, multiplier,
/// divider or pipeline depth prices.
fn filler(unbounded: bool) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..40).prop_map(Op::Alu),
        Just(Op::Mul),
        Just(Op::Div),
        (0u32..32).prop_map(Op::Shift),
        (0u32..6, any::<bool>(), 0u32..4).prop_map(|(site, backward, t)| Op::Branch {
            site,
            backward,
            taken: t != 0
        }),
        (0u32..4).prop_map(Op::Call),
        (0u32..5, any::<u32>()).prop_map(move |(dev, off)| Op::Load(addr(dev, off, unbounded))),
        Just(Op::Mark),
    ]
}

fn program(unbounded: bool) -> impl Strategy<Value = Vec<Op>> {
    vec((burst(unbounded), vec(filler(unbounded), 0..12)), 1..12).prop_map(|chunks| {
        chunks.into_iter().flat_map(|(burst, filler)| burst.into_iter().chain(filler)).collect()
    })
}

/// Runs `ops` live under `config`, returning the core, the cycle count
/// at every mark and (when `record`) the trace.
fn run(config: CpuConfig, unbounded: bool, ops: &[Op], record: bool) -> (TimedCore, Vec<u64>) {
    let mut core = TimedCore::new(config, build_bus(unbounded));
    if record {
        core.start_recording();
    }
    core.set_code_region(DDR + (32 << 10), 2048).unwrap();
    let mut marks = Vec::new();
    for &op in ops {
        match op {
            Op::Alu(n) => core.alu(n),
            Op::Mul => core.mul(),
            Op::Div => core.div(),
            Op::Shift(s) => core.shift(s),
            Op::Branch { site, backward, taken } => core.branch(site, backward, taken),
            Op::Call(s) => core.call(s),
            Op::Load(a) => drop(core.load_u32(a).unwrap()),
            Op::Store(a) => core.store_u32(a, a).unwrap(),
            Op::Mark => {
                core.mark_layer();
                marks.push(core.cycles());
            }
        }
    }
    (core, marks)
}

/// Every branch predictor and shifter, with the multiplier, divider and
/// pipeline depth cycling through their settings alongside.
fn timing_configs(geometry: (Option<CacheConfig>, Option<CacheConfig>)) -> Vec<CpuConfig> {
    let predictors = [
        BranchPredictor::None,
        BranchPredictor::Static,
        BranchPredictor::Dynamic { entries: 64 },
        BranchPredictor::Dynamic { entries: 256 },
        BranchPredictor::DynamicTarget { entries: 64 },
        BranchPredictor::DynamicTarget { entries: 256 },
    ];
    let multipliers = [Multiplier::None, Multiplier::Iterative, Multiplier::SingleCycleDsp];
    let mut configs = Vec::new();
    for (i, branch_predictor) in predictors.into_iter().enumerate() {
        for (j, shifter) in [Shifter::Iterative, Shifter::Barrel].into_iter().enumerate() {
            configs.push(CpuConfig {
                branch_predictor,
                shifter,
                multiplier: multipliers[(i + j) % 3],
                divider: if (i + j) % 2 == 0 { Divider::None } else { Divider::Iterative },
                pipeline_depth: [2, 3, 5][(i + 2 * j) % 3],
                icache: geometry.0,
                dcache: geometry.1,
                ..CpuConfig::arty_default()
            });
        }
    }
    configs
}

/// Asserts a replay reproduced a live run.
fn assert_replayed(live: &TimedCore, marks: &[u64], replayed: &TimedCore, got: &[u64], what: &str) {
    assert_eq!(replayed.stats(), live.stats(), "{what}: TlmStats");
    assert_eq!(got, marks, "{what}: mark cycles");
    assert_eq!(replayed.icache_stats(), live.icache_stats(), "{what}: I-cache");
    assert_eq!(replayed.dcache_stats(), live.dcache_stats(), "{what}: D-cache");
    for ((a, info), (b, _)) in live.bus().regions().zip(replayed.bus().regions()) {
        assert_eq!(replayed.bus().stats(b), live.bus().stats(a), "{what}: {} traffic", info.name);
    }
}

/// Profiles shared across every configuration replayed from one trace.
#[derive(Default)]
struct Shared {
    core: Option<CoreProfile>,
    branches: HashMap<BranchPredictor, BranchProfile>,
    memory: HashMap<(Option<CacheConfig>, Option<CacheConfig>), MemoryProfile>,
}

impl Shared {
    fn replay(&mut self, trace: &Trace, replayer: &mut TraceReplayer) -> Vec<u64> {
        let config = *replayer.core().config();
        let bus = replayer.core().bus();
        let predictor = config.branch_predictor;
        if !self.branches.contains_key(&predictor) {
            let (core, branches) = CoreProfile::scan(trace, bus, predictor).unwrap();
            assert_eq!(self.core.get_or_insert_with(|| core.clone()), &core);
            self.branches.insert(predictor, branches);
        }
        let core = self.core.as_ref().unwrap();
        let memory = self
            .memory
            .entry((config.icache, config.dcache))
            .or_insert_with(|| replayer.memory_pass(trace, core).unwrap());
        replayer.combine(core, &self.branches[&predictor], memory).unwrap().mark_cycles
    }
}

fn check(ops: &[Op], unbounded: bool) -> CoreProfile {
    let (mut captured, _) = run(CpuConfig::arty_default(), unbounded, ops, true);
    let trace = captured.finish_recording().unwrap();
    let mut shared = Shared::default();
    let small = CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 32 };
    for geometry in
        [(None, None), (Some(small), None), (None, Some(small)), (Some(small), Some(small))]
    {
        for config in timing_configs(geometry) {
            let (live, marks) = run(config, unbounded, ops, false);
            let what = format!("{config:?}, unbounded {unbounded}");
            let mut alone = TraceReplayer::new(config, build_bus(unbounded));
            let summary = alone.replay(&trace).unwrap();
            assert_replayed(&live, &marks, alone.core(), &summary.mark_cycles, &what);
            let mut replayer = TraceReplayer::new(config, build_bus(unbounded));
            let got = shared.replay(&trace, &mut replayer);
            assert_replayed(&live, &marks, replayer.core(), &got, &format!("shared, {what}"));
        }
    }
    assert_eq!(shared.memory.len(), 4);
    shared.core.unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn store_bursts_replay_exactly(ops in program(false)) {
        let stores = ops.iter().filter(|op| matches!(op, Op::Store(a) if *a < UNCACHED_BASE)).count();
        let core = check(&ops, false);
        prop_assert!(core.boundary_stores() <= stores);
    }

    #[test]
    fn a_device_without_a_write_bound_makes_every_later_store_a_boundary(ops in program(true)) {
        let core = check(&ops, true);
        // From the first store to the unbounded device on, no cached
        // store is provably quiet.
        let mut cached = ops.iter().filter_map(|op| match op {
            Op::Store(a) if *a < UNCACHED_BASE => Some(*a),
            _ => None,
        });
        let before = cached.by_ref().take_while(|a| !(UNBOUNDED..UNBOUNDED + SIZE).contains(a)).count();
        let after = cached.count();
        prop_assert!(core.boundary_stores() >= after, "{} < {}", core.boundary_stores(), after);
        prop_assert!(core.boundary_stores() <= before + after + 1);
    }
}

#[test]
fn bursts_both_merge_quiet_stores_and_time_full_buffers() {
    // Eight back-to-back DDR3 stores fill the buffer: a row miss (22
    // cycles) outlasts the one-cycle gap, leaving the buffer's last write
    // at most 22 + 7 * 21 = 169 cycles out. Stores 200 ALU ops apart are
    // then quiet.
    let mut ops = vec![Op::Mark];
    ops.extend([Op::Store(DDR); 8]);
    for i in 0..8 {
        ops.push(Op::Alu(200));
        ops.push(Op::Store(SRAM + 4 * i));
    }
    let core = check(&ops, false);
    // The first store is quiet but the next is not, so it stays a
    // boundary with the seven after it; the SRAM stores all merge.
    assert_eq!(core.boundary_stores(), 8);
    assert_eq!(core.segments(), 1 + 8 + 1);
}
