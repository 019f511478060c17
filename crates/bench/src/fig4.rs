//! Figure 4: MobileNetV2 1x1 CONV_2D speedup and resource usage per
//! ladder step, on the Arty A7-35T.
//!
//! Two drivers produce the same rows: [`run_ladder`] walks the steps
//! serially, [`run_ladder_parallel`] expresses the ladder as a
//! degenerate one-axis [`SearchSpace`] and runs it through the shared
//! DSE engine (`GridSearch` + `ParallelStudy`), so steps evaluate on a
//! worker pool. Outputs are byte-identical at any thread count (pinned
//! in `tests/ladder_parallel.rs`).

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use cfu_core::cfu1::Cfu1;
use cfu_core::{Cfu, NullCfu, Resources};
use cfu_dse::{
    key_fingerprint, CfuChoice, DesignPoint, EvalResult, Evaluator, GridSearch, ParallelStudy,
    SearchSpace, StoreContext, StudyStore,
};
use cfu_sim::CpuConfig;
use cfu_soc::Board;
use cfu_tflm::deploy::{DeployConfig, Deployment, KernelRegistry};
use cfu_tflm::kernels::conv1x1::Conv1x1Variant;
use cfu_tflm::model::OpKind;
use cfu_tflm::models;
use cfu_tflm::profiler::Profile;

/// One row of the Figure 4 series.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Ladder step label (Figure 4 x-axis).
    pub label: &'static str,
    /// Cycles spent in 1x1 CONV_2D operators for one inference.
    pub conv1x1_cycles: u64,
    /// Whole-model cycles for one inference.
    pub total_cycles: u64,
    /// Speedup of the 1x1 operator vs the baseline row.
    pub operator_speedup: f64,
    /// Whole-model speedup vs the baseline row.
    pub overall_speedup: f64,
    /// CFU resources at this step (the Figure 4 resource curve).
    pub cfu_resources: Resources,
}

/// Runs one ladder step and returns its profile.
///
/// # Panics
///
/// Panics if deployment or inference fails (harness-level bug).
pub fn run_step(input_hw: usize, full_width: bool, variant: Conv1x1Variant) -> Profile {
    run_step_configured(CpuConfig::arty_default(), input_hw, full_width, variant)
}

/// [`run_step`] with an explicit CPU configuration (the DSE engine and
/// the result store evaluate the ladder on a caller-chosen CPU).
///
/// # Panics
///
/// Panics if deployment or inference fails (harness-level bug).
pub fn run_step_configured(
    cpu: CpuConfig,
    input_hw: usize,
    full_width: bool,
    variant: Conv1x1Variant,
) -> Profile {
    run_step_inner(cpu, input_hw, full_width, variant, false).0
}

/// [`run_step_configured`] while capturing the committed operation
/// trace. Every Figure-4 rung swaps the deployed 1x1-conv kernel, so
/// each step is its own retime group — the capture/replay pipeline
/// degenerates to capture-only here, but the trace is still recorded
/// (and serializable) for offline retiming.
///
/// # Panics
///
/// As [`run_step_configured`].
pub fn run_step_configured_captured(
    cpu: CpuConfig,
    input_hw: usize,
    full_width: bool,
    variant: Conv1x1Variant,
) -> (Profile, cfu_sim::Trace) {
    let (profile, trace) = run_step_inner(cpu, input_hw, full_width, variant, true);
    (profile, trace.expect("capture requested"))
}

fn run_step_inner(
    cpu: CpuConfig,
    input_hw: usize,
    full_width: bool,
    variant: Conv1x1Variant,
    capture: bool,
) -> (Profile, Option<cfu_sim::Trace>) {
    let board = Board::arty_a7_35t();
    let model = if full_width {
        models::mobilenet_v2_full(input_hw, 2, 1)
    } else {
        models::mobilenet_v2(input_hw, 2, 1)
    };
    let input = models::synthetic_input(&model, 42);
    let bus = board.build_bus(None);
    let mut cfg = DeployConfig::new(cpu, "main_ram", "main_ram", "main_ram");
    cfg.registry = KernelRegistry { conv1x1: Some(variant), ..Default::default() };
    let cfu: Box<dyn Cfu> = match variant.required_stage() {
        Some(stage) => Box::new(Cfu1::new(stage)),
        None => Box::new(NullCfu),
    };
    let mut dep = Deployment::new(model, bus, cfu, &cfg).expect("fig4 deployment");
    if capture {
        let (_, profile, trace) = dep.run_captured(&input).expect("fig4 inference");
        (profile, Some(trace))
    } else {
        let (_, profile) = dep.run(&input).expect("fig4 inference");
        (profile, None)
    }
}

/// Runs the whole ladder at the given input resolution. `full_width`
/// selects the width-1.0 MobileNetV2 (the paper-scale workload); width
/// 0.35 keeps smoke tests fast.
pub fn run_ladder(input_hw: usize, full_width: bool) -> Vec<Fig4Row> {
    run_ladder_configured(CpuConfig::arty_default(), input_hw, full_width)
}

/// Number of steps in the Figure-4 ladder (progress-readout totals).
pub fn ladder_len() -> u64 {
    Conv1x1Variant::LADDER.len() as u64
}

/// [`run_ladder`] with an explicit CPU configuration.
pub fn run_ladder_configured(cpu: CpuConfig, input_hw: usize, full_width: bool) -> Vec<Fig4Row> {
    let mut rows = Vec::new();
    let mut baseline_conv = 0u64;
    let mut baseline_total = 0u64;
    for variant in Conv1x1Variant::LADDER {
        let profile = run_step_configured(cpu, input_hw, full_width, variant);
        let conv1x1_cycles = profile.cycles_for(OpKind::Conv2d1x1);
        let total_cycles = profile.total_cycles();
        if variant == Conv1x1Variant::Generic {
            baseline_conv = conv1x1_cycles;
            baseline_total = total_cycles;
        }
        let cfu_resources = match variant.required_stage() {
            Some(stage) => Cfu1::new(stage).resources(),
            None => Resources::ZERO,
        };
        rows.push(Fig4Row {
            label: variant.label(),
            conv1x1_cycles,
            total_cycles,
            operator_speedup: baseline_conv as f64 / conv1x1_cycles.max(1) as f64,
            overall_speedup: baseline_total as f64 / total_cycles.max(1) as f64,
            cfu_resources,
        });
    }
    rows
}

/// The Figure-4 ladder as a degenerate one-axis design space: the only
/// knob is the ladder step. Lets the sweep ride the generic DSE engine
/// (worker pool, memo cache, archives) instead of a bespoke loop.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Space;

impl SearchSpace for Fig4Space {
    type Point = Conv1x1Variant;

    fn size(&self) -> u64 {
        Conv1x1Variant::LADDER.len() as u64
    }

    fn point(&self, index: u64) -> Conv1x1Variant {
        Conv1x1Variant::LADDER[usize::try_from(index).expect("ladder index fits usize")]
    }
}

/// Scores one ladder step by a full MobileNetV2 inference on the
/// simulated Arty SoC. `latency` carries whole-model cycles, `aux` the
/// 1x1-CONV_2D operator cycles, `resources` the CFU cost of the step.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Evaluator {
    cpu: CpuConfig,
    input_hw: usize,
    full_width: bool,
}

impl Fig4Evaluator {
    /// Creates the evaluator at the given input resolution and width.
    pub fn new(input_hw: usize, full_width: bool) -> Self {
        Fig4Evaluator::configured(CpuConfig::arty_default(), input_hw, full_width)
    }

    /// Creates the evaluator with an explicit CPU configuration.
    pub fn configured(cpu: CpuConfig, input_hw: usize, full_width: bool) -> Self {
        Fig4Evaluator { cpu, input_hw, full_width }
    }
}

impl Evaluator<Conv1x1Variant> for Fig4Evaluator {
    fn evaluate(&mut self, variant: &Conv1x1Variant) -> EvalResult {
        let profile = run_step_configured(self.cpu, self.input_hw, self.full_width, *variant);
        let cfu_resources = match variant.required_stage() {
            Some(stage) => Cfu1::new(stage).resources(),
            None => Resources::ZERO,
        };
        EvalResult {
            latency: profile.total_cycles(),
            resources: cfu_resources,
            fits: true,
            energy_uj: 0.0,
            aux: profile.cycles_for(OpKind::Conv2d1x1),
        }
    }
}

/// [`Fig4Evaluator`] routed through the capture/replay pipeline. Every
/// Figure-4 step deploys a different kernel, so each step is a
/// singleton retime group: every point captures, none replay, and rows
/// are byte-identical to [`Fig4Evaluator`] by construction. Wired so a
/// sweep whose every point is an eligibility boundary still exercises
/// the pipeline's bookkeeping (and records serializable traces).
#[derive(Debug, Clone)]
pub struct RetimedFig4Evaluator {
    inner: Fig4Evaluator,
    store: Arc<cfu_dse::TraceStore<u8>>,
}

impl RetimedFig4Evaluator {
    /// Creates the evaluator over a shared trace store.
    pub fn new(
        cpu: CpuConfig,
        input_hw: usize,
        full_width: bool,
        store: Arc<cfu_dse::TraceStore<u8>>,
    ) -> Self {
        RetimedFig4Evaluator { inner: Fig4Evaluator::configured(cpu, input_hw, full_width), store }
    }
}

impl Evaluator<Conv1x1Variant> for RetimedFig4Evaluator {
    fn evaluate(&mut self, variant: &Conv1x1Variant) -> EvalResult {
        let Fig4Evaluator { cpu, input_hw, full_width } = self.inner;
        let group = Conv1x1Variant::LADDER.iter().position(|v| v == variant).unwrap_or(0) as u8;
        let profile = crate::fig6::capture_or_replay(
            &self.store,
            group,
            || run_step_configured_captured(cpu, input_hw, full_width, *variant),
            // Per-operator cycles (`aux`) come from the execute-mode
            // profile; singleton groups never reach this branch.
            |_trace| None,
            || run_step_configured(cpu, input_hw, full_width, *variant),
        );
        let cfu_resources = match variant.required_stage() {
            Some(stage) => Cfu1::new(stage).resources(),
            None => Resources::ZERO,
        };
        EvalResult {
            latency: profile.total_cycles(),
            resources: cfu_resources,
            fits: true,
            energy_uj: 0.0,
            aux: profile.cycles_for(OpKind::Conv2d1x1),
        }
    }
}

/// The persistent-store context for a Figure-4 sweep. The ladder's
/// searched axis is only the kernel variant, so everything else that
/// moves the numbers — input resolution, model width, and the fixed CPU
/// configuration — goes into the workload tag. The CPU is folded in by
/// its [`StoreKey`](cfu_dse::StoreKey) fingerprint, which excludes
/// host-only knobs such as the ISS decode cache.
pub fn store_context(cpu: CpuConfig, input_hw: usize, full_width: bool) -> StoreContext {
    let fp = key_fingerprint(&DesignPoint { cpu, cfu: CfuChoice::None });
    let width = if full_width { "100" } else { "035" };
    StoreContext::new(format!("fig4-mnv2-hw{input_hw}-w{width}-cpu{fp:016x}"))
}

/// Runs the ladder through the parallel DSE engine: `GridSearch` over
/// [`Fig4Space`] at full budget walks the steps in ladder order, and
/// each batch fans out over `threads` workers. Rows are rebuilt from
/// the engine's memo cache with the same arithmetic as [`run_ladder`],
/// so the output is byte-identical to the serial driver.
pub fn run_ladder_parallel(input_hw: usize, full_width: bool, threads: usize) -> Vec<Fig4Row> {
    run_ladder_parallel_configured(CpuConfig::arty_default(), input_hw, full_width, threads, None)
}

/// [`run_ladder_parallel`] scored through the capture/replay pipeline
/// (see [`RetimedFig4Evaluator`]); rows are byte-identical.
pub fn run_ladder_parallel_retimed(
    input_hw: usize,
    full_width: bool,
    threads: usize,
) -> Vec<Fig4Row> {
    let cpu = CpuConfig::arty_default();
    let store = Arc::new(cfu_dse::TraceStore::new());
    run_ladder_engine(threads, None, None, &move || {
        RetimedFig4Evaluator::new(cpu, input_hw, full_width, Arc::clone(&store))
    })
}

/// [`run_ladder_parallel`] with an explicit CPU configuration and an
/// optional shared progress counter (bumped once per evaluated step —
/// the live readout `fig4_mnv2_ladder` prints to stderr during long
/// full-width sweeps). Rows and CSV stay byte-identical for any
/// host-only `cpu` change and any `threads`.
pub fn run_ladder_parallel_configured(
    cpu: CpuConfig,
    input_hw: usize,
    full_width: bool,
    threads: usize,
    progress: Option<Arc<AtomicU64>>,
) -> Vec<Fig4Row> {
    run_ladder_parallel_stored(cpu, input_hw, full_width, threads, progress, None)
}

/// [`run_ladder_parallel_configured`] with an optional persistent
/// result store (see [`store_context`] for what keys the records):
/// freshly simulated steps are appended, and a resume-mode handle
/// hydrates prior results so a warm ladder re-runs without a single
/// simulation. Rows stay byte-identical either way.
pub fn run_ladder_parallel_stored(
    cpu: CpuConfig,
    input_hw: usize,
    full_width: bool,
    threads: usize,
    progress: Option<Arc<AtomicU64>>,
    store: Option<Arc<StudyStore<Conv1x1Variant>>>,
) -> Vec<Fig4Row> {
    run_ladder_engine(threads, progress, store, &move || {
        Fig4Evaluator::configured(cpu, input_hw, full_width)
    })
}

fn run_ladder_engine<F: cfu_dse::EvaluatorFactory<Conv1x1Variant>>(
    threads: usize,
    progress: Option<Arc<AtomicU64>>,
    store: Option<Arc<StudyStore<Conv1x1Variant>>>,
    factory: &F,
) -> Vec<Fig4Row> {
    let space = Fig4Space;
    let optimizer = GridSearch::new(&space, space.size());
    let mut study = ParallelStudy::new(space, optimizer, threads);
    if let Some(counter) = progress {
        study.attach_progress(counter);
    }
    if let Some(handle) = store {
        study.attach_store(handle);
    }
    study.run(factory, space.size());
    let mut rows = Vec::new();
    let mut baseline_conv = 0u64;
    let mut baseline_total = 0u64;
    for variant in Conv1x1Variant::LADDER {
        let r = study.cache().get(&variant).expect("engine evaluated every ladder step");
        if variant == Conv1x1Variant::Generic {
            baseline_conv = r.aux;
            baseline_total = r.latency;
        }
        rows.push(Fig4Row {
            label: variant.label(),
            conv1x1_cycles: r.aux,
            total_cycles: r.latency,
            operator_speedup: baseline_conv as f64 / r.aux.max(1) as f64,
            overall_speedup: baseline_total as f64 / r.latency.max(1) as f64,
            cfu_resources: r.resources,
        });
    }
    rows
}

/// Renders the ladder as CSV (one row per step) for plotting.
pub fn to_csv(rows: &[Fig4Row]) -> String {
    let mut out = String::from(
        "step,conv1x1_cycles,operator_speedup,total_cycles,overall_speedup,cfu_luts,cfu_dsps\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.4},{},{:.4},{},{}\n",
            r.label,
            r.conv1x1_cycles,
            r.operator_speedup,
            r.total_cycles,
            r.overall_speedup,
            r.cfu_resources.luts,
            r.cfu_resources.dsps,
        ));
    }
    out
}

/// Pretty-prints the ladder like the paper's figure caption.
pub fn render(rows: &[Fig4Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>15} {:>10} {:>9} {:>8} {:>6}\n",
        "step", "1x1 conv cycles", "speedup", "overall", "LUTs", "DSPs"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>15} {:>9.2}x {:>8.2}x {:>8} {:>6}\n",
            r.label,
            r.conv1x1_cycles,
            r.operator_speedup,
            r.overall_speedup,
            r.cfu_resources.luts,
            r.cfu_resources.dsps,
        ));
    }
    out
}
