//! Capture/replay ablation (`abl_retime`): per-design-point evaluation
//! cost with trace-capture + retime-only replay vs plain execution.
//!
//! It measures the retime-eligible shape `fig7_dse_pareto` hits over
//! and over: one capture run per `(workload, CFU)` group, then many
//! timing siblings scored from the shared trace. Figure 7 is the only
//! artifact that replays; every other figure executes.
//!
//! * `mnv2_*` — MobileNetV2 8x8 on an SRAM-backed main memory.
//!   `execute` deploys and runs the guest through `InferenceEvaluator`,
//!   `capture` is the one-off recording run. The replayed point retimes
//!   the multiplier (iterative → single-cycle DSP) against the
//!   minimal-CPU capture: `replay` is a `TraceReplayer::replay` of it
//!   with nothing shared (fused core and branch scan, memory pass,
//!   combine), `memory_pass` the memory pass alone, and
//!   `replay_profiled` an `InferenceEvaluator` scoring it from a
//!   `TraceStore` that already holds its geometry's and predictor's
//!   profiles — the combine, which is all most `fig7_dse_pareto` points
//!   pay.
//!
//! Every sample evaluates with a *fresh* evaluator so no per-evaluator
//! memo cache short-circuits the work; replayed cycle counts are
//! bit-identical to execute mode (pinned by `cfu-dse`'s
//! `shared_replay_equals_one_shot_replay_and_execution` test, and
//! re-asserted here). Results land in
//! `target/criterion-stub/abl_retime.json` and are summarised (min-ns
//! estimator) in `BENCH_sim.json`.

use criterion::{criterion_group, criterion_main, Criterion};

use cfu_core::Resources;
use cfu_dse::{CfuChoice, DesignPoint, Evaluator, EvaluatorFactory, InferenceEvaluatorFactory};
use cfu_sim::{CoreProfile, CpuConfig, Multiplier, TraceReplayer};
use cfu_soc::{Board, MemorySpec};
use cfu_tflm::models;

/// An Arty-class board whose main memory is on-chip SRAM instead of
/// DDR3. MobileNetV2's weights (~400 kB) exceed every bundled board's
/// SRAM, so the SRAM-main point is expressed as its own board; its
/// timing-stateless memory makes the pair a clean measure of the
/// capture/replay machinery rather than of the DRAM open-row model (the
/// DDR3 fig7 points replay through the same code path).
fn sram_board() -> Board {
    Board {
        name: "SRAM-main",
        fpga: "xc7a35t",
        budget: Resources::new(33_000, 41_600, 450, 90),
        clock_hz: 100_000_000,
        memories: vec![MemorySpec::Sram { name: "main_ram", base: 0x4000_0000, size: 2 << 20 }],
        needs_usb_bridge: false,
    }
}

/// The MNV2 point pair: capture under the plain Fomu-minimal CPU,
/// replay (or execute) its single-cycle-DSP timing sibling — same
/// architectural config and CFU choice, different timing knobs.
fn mnv2_points() -> (DesignPoint, DesignPoint) {
    let capture = DesignPoint { cpu: CpuConfig::fomu_minimal(), cfu: CfuChoice::None };
    let replay = DesignPoint {
        cpu: CpuConfig::fomu_minimal().with_multiplier(Multiplier::SingleCycleDsp),
        cfu: CfuChoice::None,
    };
    (capture, replay)
}

fn mnv2_factory() -> InferenceEvaluatorFactory {
    let model = models::mobilenet_v2(8, 2, 1);
    let input = models::synthetic_input(&model, 5);
    InferenceEvaluatorFactory::new(sram_board(), model, input)
}

fn bench_mnv2(group: &mut criterion::BenchmarkGroup<'_>) {
    let (capture_point, replay_point) = mnv2_points();
    let execute_factory = mnv2_factory();
    let reference = execute_factory.make_evaluator().evaluate(&replay_point);
    group.bench_function("mnv2_execute", |b| {
        b.iter(|| {
            let mut eval = execute_factory.make_evaluator();
            std::hint::black_box(eval.evaluate(&replay_point))
        });
    });
    // Seed one capture and one replay of the point, which leaves its
    // geometry's and predictor's profiles in the shared store.
    let retime_factory = mnv2_factory().with_retime(true);
    retime_factory.make_evaluator().evaluate(&capture_point);
    let replayed = retime_factory.make_evaluator().evaluate(&replay_point);
    assert_eq!(reference.latency, replayed.latency, "retime parity");
    let store = retime_factory.trace_store().expect("retime on");
    assert_eq!((store.memory_passes(), store.branch_passes()), (1, 1));
    let trace = store.slot(CfuChoice::None).get().cloned().flatten().expect("captured");
    eprintln!("abl_retime: the mnv2 trace holds {} packed word(s)", trace.words());
    let mut replayer = TraceReplayer::new(replay_point.cpu, sram_board().build_bus(None));
    let summary = replayer.replay(&trace).expect("replays");
    assert_eq!(reference.latency, summary.total_cycles(), "retime parity");
    group.bench_function("mnv2_replay", |b| {
        b.iter(|| std::hint::black_box(replayer.replay(&trace).expect("replays")));
    });
    let predictor = replay_point.cpu.branch_predictor;
    let (core, _) = CoreProfile::scan(&trace, replayer.core().bus(), predictor).expect("scans");
    group.bench_function("mnv2_memory_pass", |b| {
        b.iter(|| std::hint::black_box(replayer.memory_pass(&trace, &core).expect("passes")));
    });
    group.bench_function("mnv2_replay_profiled", |b| {
        b.iter(|| {
            let mut eval = retime_factory.make_evaluator();
            std::hint::black_box(eval.evaluate(&replay_point))
        });
    });
    assert_eq!((store.memory_passes(), store.branch_passes()), (1, 1), "combine only");
    group.bench_function("mnv2_capture", |b| {
        b.iter(|| {
            // A fresh store per iteration: this measures the one-off
            // capture run (execute + record + publish).
            let factory = execute_factory.clone().with_retime(true);
            let mut eval = factory.make_evaluator();
            std::hint::black_box(eval.evaluate(&capture_point))
        });
    });
}

fn bench_retime(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_retime");
    group.sample_size(10);
    bench_mnv2(&mut group);
    group.finish();
}

criterion_group!(benches, bench_retime);
criterion_main!(benches);
