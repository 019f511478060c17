//! Figure 4: MobileNetV2 1x1 CONV_2D speedup and resource usage per
//! ladder step, on the Arty A7-35T.
//!
//! [`run`] expresses the ladder as a degenerate one-axis
//! [`SearchSpace`] ([`Fig4Space`]) and runs it through the shared DSE
//! engine (`GridSearch` + `ParallelStudy`): the baseline rung first,
//! then the other steps on a worker pool. Rows and layer-memo counts are
//! identical at any thread count (pinned in `tests/ladder_parallel.rs`
//! against `tests/golden/`).

use std::sync::Arc;

use cfu_core::cfu1::Cfu1;
use cfu_core::{Cfu, NullCfu, Resources};
use cfu_dse::{
    key_fingerprint, CfuChoice, DesignPoint, EvalResult, Evaluator, SearchSpace, StoreContext,
};
use cfu_sim::CpuConfig;
use cfu_soc::Board;
use cfu_tflm::deploy::{DeployConfig, Deployment, KernelRegistry};
use cfu_tflm::kernels::conv1x1::Conv1x1Variant;
use cfu_tflm::memo::LayerMemo;
use cfu_tflm::model::OpKind;
use cfu_tflm::models;
use cfu_tflm::tensor::Tensor;

use crate::{Run, RunSpec};

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

/// The Figure-4 ladder as a degenerate one-axis design space: the only
/// knob is the ladder step. Lets the sweep ride the generic DSE engine
/// (worker pool, memo cache, result store) instead of a bespoke loop.
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
/// Every rung it deploys (through any of its clones) shares one
/// [`LayerMemo`], so rungs fast-forward the layers they have in common
/// without changing any result (see [`cfu_tflm::memo`]).
#[derive(Debug, Clone)]
pub struct Fig4Evaluator {
    cpu: CpuConfig,
    input_hw: usize,
    full_width: bool,
    memo: Arc<LayerMemo>,
}

impl Fig4Evaluator {
    /// Creates the evaluator for `cpu` at the given input resolution;
    /// `full_width` selects the width-1.0 MobileNetV2 over width 0.35.
    pub fn new(cpu: CpuConfig, input_hw: usize, full_width: bool, memo: Arc<LayerMemo>) -> Self {
        Fig4Evaluator { cpu, input_hw, full_width, memo }
    }
}

/// Deploys one ladder rung: MobileNetV2 at `input_hw` (width 1.0 with
/// `full_width`, else 0.35) on a fresh Arty bus under `cpu`, with the
/// rung's 1x1 kernel and CFU. Returns the deployment, the fixed input
/// every rung runs on, and the CFU's resources.
///
/// # Panics
///
/// Panics if deployment fails (harness-level bug).
pub fn deploy_rung(
    cpu: CpuConfig,
    input_hw: usize,
    full_width: bool,
    variant: Conv1x1Variant,
) -> (Deployment, Tensor, Resources) {
    let model = if full_width {
        models::mobilenet_v2_full(input_hw, 2, 1)
    } else {
        models::mobilenet_v2(input_hw, 2, 1)
    };
    let input = models::synthetic_input(&model, 42);
    let bus = Board::arty_a7_35t().build_bus(None);
    let mut cfg = DeployConfig::new(cpu, "main_ram", "main_ram", "main_ram");
    cfg.registry = KernelRegistry { conv1x1: Some(variant), ..Default::default() };
    let (cfu, resources): (Box<dyn Cfu>, _) = match variant.required_stage() {
        Some(stage) => {
            let cfu = Cfu1::new(stage);
            let resources = cfu.resources();
            (Box::new(cfu), resources)
        }
        None => (Box::new(NullCfu), Resources::ZERO),
    };
    let dep = Deployment::new(model, bus, cfu, &cfg).expect("fig4 deployment");
    (dep, input, resources)
}

impl Evaluator<Conv1x1Variant> for Fig4Evaluator {
    /// # Panics
    ///
    /// Panics if deployment or inference fails (harness-level bug).
    fn evaluate(&mut self, variant: &Conv1x1Variant) -> EvalResult {
        let (mut dep, input, resources) =
            deploy_rung(self.cpu, self.input_hw, self.full_width, *variant);
        dep.share_layers(Arc::clone(&self.memo));
        let (_, profile) = dep.run(&input).expect("fig4 inference");
        EvalResult {
            latency: profile.total_cycles(),
            resources,
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
/// its [`StoreKey`](cfu_dse::StoreKey) fingerprint.
pub fn store_context(cpu: CpuConfig, input_hw: usize, full_width: bool) -> StoreContext {
    let fp = key_fingerprint(&DesignPoint { cpu, cfu: CfuChoice::None });
    let width = if full_width { "100" } else { "035" };
    StoreContext::new(format!("fig4-mnv2-hw{input_hw}-w{width}-cpu{fp:016x}"))
}

/// Runs the whole ladder on the Arty CPU at the given input resolution.
/// `full_width` selects the width-1.0 MobileNetV2 (the paper-scale
/// workload); width 0.35 keeps smoke tests fast.
///
/// The rungs share one [`LayerMemo`]: they differ only in the 1x1
/// CONV_2D kernel, so every other generic CONV_2D/DEPTHWISE_CONV_2D
/// layer is recorded once and fast-forwarded in later rungs once its
/// timing state converges. The generic-kernel baseline rung runs alone
/// first and records every such layer; the other rungs then fan out
/// over the spec's workers and only fast-forward against that
/// recording. The run's `fast_forwards` and `skipped_instructions`
/// count that, and repeat exactly at any thread count.
pub fn run(spec: &RunSpec, input_hw: usize, full_width: bool) -> Run<Vec<Fig4Row>, Conv1x1Variant> {
    let cpu = CpuConfig::arty_default();
    let memo = Arc::new(LayerMemo::new());
    let evaluator = Fig4Evaluator::new(cpu, input_hw, full_width, Arc::clone(&memo));
    let ctx = store_context(cpu, input_hw, full_width);
    let mut run = crate::run_ladder(spec, Fig4Space, true, ctx, &|| evaluator.clone());
    run.fast_forwards = memo.fast_forwards();
    run.skipped_instructions = memo.skipped_instructions();
    run.map(|results| {
        // The first rung is the generic-kernel baseline.
        let (baseline_conv, baseline_total) = (results[0].aux, results[0].latency);
        Conv1x1Variant::LADDER
            .iter()
            .zip(results)
            .map(|(variant, r)| Fig4Row {
                label: variant.label(),
                conv1x1_cycles: r.aux,
                total_cycles: r.latency,
                operator_speedup: baseline_conv as f64 / r.aux.max(1) as f64,
                overall_speedup: baseline_total as f64 / r.latency.max(1) as f64,
                cfu_resources: r.resources,
            })
            .collect()
    })
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
