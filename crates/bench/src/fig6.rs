//! Figure 6: Keyword-Spotting speedup and resource usage on Fomu, plus
//! the energy-extension table over the same ladder.
//!
//! Both artifacts are one engine run over [`Fig6Space`], the eight steps
//! as a degenerate [`SearchSpace`]: [`run`] for the performance ladder,
//! [`run_energy`] for the energy table, whose [`Fig6Evaluator`] threads
//! the [`EnergyEstimate`] through `EvalResult::{energy_uj, aux}`. Both
//! execute every step on its own [`Fig6Step::cpu`]. Rows are
//! byte-identical at any thread count.
//!
//! [`EnergyEstimate`]: cfu_sim::energy::EnergyEstimate

use cfu_core::cfu2::Cfu2;
use cfu_core::{Cfu, NullCfu};
use cfu_dse::{EvalResult, Evaluator, SearchSpace, StoreContext, StoreKey};
use cfu_mem::SpiWidth;
use cfu_sim::energy::{estimate_core, EnergyParams};
use cfu_sim::{CpuConfig, Multiplier};
use cfu_soc::{Board, SocBuilder, SocFeatures};
use cfu_tflm::deploy::{ConvKernel, DeployConfig, Deployment, DwKernel, KernelRegistry};
use cfu_tflm::models;

use crate::{Run, RunSpec};

/// One Figure 6 ladder step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig6Step {
    /// Everything in 1-bit-SPI flash, minimal CPU, generic kernels.
    Baseline,
    /// Flash controller upgraded to Quad SPI.
    QuadSpi,
    /// Hot kernel code and model weights moved to the 128 kB SRAM.
    SramOpsAndModel,
    /// A 2 kB I-cache added (paid for by removed debug CSRs).
    LargerIcache,
    /// Single-cycle DSP multiplier (4 of the 8 DSP tiles).
    FastMult,
    /// CFU2's 4-way MAC in conv, single lane in depthwise.
    MacConv,
    /// Accumulator post-processing inside the CFU.
    PostProc,
    /// Compiler specialization of the conv/depthwise kernels.
    SwSpecialize,
}

impl Fig6Step {
    /// All steps in ladder order.
    pub const LADDER: [Fig6Step; 8] = [
        Fig6Step::Baseline,
        Fig6Step::QuadSpi,
        Fig6Step::SramOpsAndModel,
        Fig6Step::LargerIcache,
        Fig6Step::FastMult,
        Fig6Step::MacConv,
        Fig6Step::PostProc,
        Fig6Step::SwSpecialize,
    ];

    /// The Figure 6 label.
    pub fn label(self) -> &'static str {
        match self {
            Fig6Step::Baseline => "Baseline",
            Fig6Step::QuadSpi => "QuadSPI",
            Fig6Step::SramOpsAndModel => "SRAM Ops and Model",
            Fig6Step::LargerIcache => "Larger Icache",
            Fig6Step::FastMult => "Fast Mult",
            Fig6Step::MacConv => "MAC Conv",
            Fig6Step::PostProc => "Post Proc",
            Fig6Step::SwSpecialize => "SW specialize",
        }
    }

    /// SoC feature set at this step.
    pub fn features(self) -> SocFeatures {
        let mut f = SocFeatures::fomu_trimmed();
        if self >= Fig6Step::QuadSpi {
            f.spi_width = SpiWidth::Quad;
        }
        f
    }

    /// CPU configuration at this step.
    pub fn cpu(self) -> CpuConfig {
        let mut cpu = CpuConfig::fomu_baseline();
        if self >= Fig6Step::LargerIcache {
            cpu = CpuConfig::fomu_with_icache(2048);
        }
        if self >= Fig6Step::FastMult {
            cpu = cpu.with_multiplier(Multiplier::SingleCycleDsp);
        }
        cpu
    }

    /// Kernel registry at this step.
    pub fn registry(self) -> KernelRegistry {
        let mut r = KernelRegistry::default();
        if self >= Fig6Step::MacConv {
            let postproc = self >= Fig6Step::PostProc;
            let specialized = self >= Fig6Step::SwSpecialize;
            r.conv = ConvKernel::Cfu2 { postproc, specialized };
            r.dwconv = DwKernel::Cfu2 { postproc, specialized };
        }
        r
    }

    /// The CFU instance at this step.
    pub fn cfu(self) -> Box<dyn Cfu> {
        if self >= Fig6Step::PostProc {
            Box::new(Cfu2::new())
        } else if self >= Fig6Step::MacConv {
            Box::new(Cfu2::mac_only())
        } else {
            Box::new(NullCfu)
        }
    }

    /// Retime-eligibility group: steps in one group run the *same*
    /// committed operation stream (same deployment layout, kernel
    /// registry and CFU) and differ only in timing knobs (SPI width,
    /// I-cache, multiplier) — so one captured trace serves the group.
    ///
    /// * `Baseline`/`QuadSpi` differ only in flash timing;
    /// * `SramOpsAndModel` moves the layout (new stream), then
    ///   `LargerIcache`/`FastMult` only change CPU timing on top of it;
    /// * each kernel/CFU change (`MacConv`, `PostProc`, `SwSpecialize`)
    ///   issues a different stream and gets its own group.
    ///
    /// The figure runs execute every step; the artifact benchmark's
    /// traced energy pipeline (`benchmark/`) is this grouping's only
    /// user.
    pub fn retime_group(self) -> u8 {
        match self {
            Fig6Step::Baseline | Fig6Step::QuadSpi => 0,
            Fig6Step::SramOpsAndModel | Fig6Step::LargerIcache | Fig6Step::FastMult => 1,
            Fig6Step::MacConv => 2,
            Fig6Step::PostProc => 3,
            Fig6Step::SwSpecialize => 4,
        }
    }
}

/// Stable on-disk key for the persistent result store: one tag byte in
/// the published ladder order. Appending future steps extends the tags;
/// existing records stay valid.
impl StoreKey for Fig6Step {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Fig6Step::Baseline => 0,
            Fig6Step::QuadSpi => 1,
            Fig6Step::SramOpsAndModel => 2,
            Fig6Step::LargerIcache => 3,
            Fig6Step::FastMult => 4,
            Fig6Step::MacConv => 5,
            Fig6Step::PostProc => 6,
            Fig6Step::SwSpecialize => 7,
        });
    }

    fn decode_key(bytes: &[u8]) -> Option<Self> {
        match bytes {
            [0] => Some(Fig6Step::Baseline),
            [1] => Some(Fig6Step::QuadSpi),
            [2] => Some(Fig6Step::SramOpsAndModel),
            [3] => Some(Fig6Step::LargerIcache),
            [4] => Some(Fig6Step::FastMult),
            [5] => Some(Fig6Step::MacConv),
            [6] => Some(Fig6Step::PostProc),
            [7] => Some(Fig6Step::SwSpecialize),
            _ => None,
        }
    }
}

/// The persistent-store context for the Figure-6 performance ladder.
/// Everything that moves the numbers is a function of the step itself,
/// so a plain workload tag suffices.
pub fn store_context() -> StoreContext {
    StoreContext::new("fig6-kws")
}

/// The persistent-store context for the energy-extension ladder —
/// distinct from [`store_context`] so the two artifacts keep separate
/// records.
pub fn energy_store_context() -> StoreContext {
    StoreContext::new("fig6-kws-energy")
}

impl PartialOrd for Fig6Step {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Fig6Step {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

/// One row of the Figure 6 series.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Step label.
    pub label: &'static str,
    /// Whole-inference cycles.
    pub cycles: u64,
    /// Wall-clock seconds at the Fomu clock.
    pub seconds: f64,
    /// Cumulative speedup vs the baseline.
    pub speedup: f64,
    /// SoC LUT usage at this step.
    pub luts: u32,
    /// DSP tiles used.
    pub dsps: u32,
    /// Whether the design fits Fomu.
    pub fits: bool,
}

/// Executes the KWS workload with `step`'s deployment, kernels, CPU and
/// SoC features, and scores it as [`Fig6Evaluator`] describes.
///
/// # Panics
///
/// Panics if deployment or inference fails.
pub fn execute(step: Fig6Step) -> EvalResult {
    let cpu = step.cpu();
    let cfu = step.cfu();
    let soc =
        SocBuilder::new(Board::fomu()).cpu(cpu).features(step.features()).cfu(cfu.as_ref()).build();
    let model = models::ds_cnn_kws(1);
    let input = models::synthetic_input(&model, 7);
    // Baseline placement: weights + code execute-in-place from flash,
    // activations in SRAM (the binary image does not fit in 128 kB).
    let mut cfg = DeployConfig::new(cpu, "spiflash", "sram", "spiflash");
    cfg.registry = step.registry();
    if step >= Fig6Step::SramOpsAndModel {
        cfg.hot_code_region = Some("sram".to_owned());
        cfg.hot_weights_region = Some("sram".to_owned());
    }
    let mut dep = Deployment::new(model, soc.build_bus(), cfu, &cfg).expect("fig6 deployment");
    let (_, profile) = dep.run(&input).expect("fig6 inference");
    let fit = soc.fit_report();
    let energy = estimate_core(dep.core(), fit.used(), &EnergyParams::ice40());
    EvalResult {
        latency: profile.total_cycles(),
        resources: fit.used(),
        fits: fit.fits(),
        energy_uj: energy.total_uj(),
        aux: energy.dynamic_bits(),
    }
}

/// The Figure-6 ladder as a degenerate one-axis design space over
/// [`Fig6Step`]; both the performance ladder and the energy table run
/// over it.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Space;

impl SearchSpace for Fig6Space {
    type Point = Fig6Step;

    fn size(&self) -> u64 {
        Fig6Step::LADDER.len() as u64
    }

    fn point(&self, index: u64) -> Fig6Step {
        Fig6Step::LADDER[usize::try_from(index).expect("ladder index fits usize")]
    }
}

/// Scores one KWS ladder step: a full DS-CNN inference on the simulated
/// Fomu SoC for `latency`, the step's SoC fit report for
/// `resources`/`fits`, and the iCE40 energy estimate in `energy_uj`
/// (total) and `aux` (bit pattern of the dynamic component), so the
/// energy rows rebuild loss-free from the memo cache. The performance
/// ladder ignores the energy fields.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Evaluator;

impl Evaluator<Fig6Step> for Fig6Evaluator {
    fn evaluate(&mut self, step: &Fig6Step) -> EvalResult {
        execute(*step)
    }
}

/// Runs the ladder's steps through the engine per `spec` under the
/// store workload `ctx`. The steps share nothing, so all of them fan out
/// at once.
fn run_steps(spec: &RunSpec, ctx: StoreContext) -> Run<Vec<EvalResult>, Fig6Step> {
    crate::run_ladder(spec, Fig6Space, false, ctx, &|| Fig6Evaluator)
}

/// Runs the whole Figure 6 ladder.
pub fn run(spec: &RunSpec) -> Run<Vec<Fig6Row>, Fig6Step> {
    let clock_hz = Board::fomu().clock_hz as f64;
    run_steps(spec, store_context()).map(|results| {
        let baseline = results[0].latency;
        Fig6Step::LADDER
            .iter()
            .zip(results)
            .map(|(step, r)| Fig6Row {
                label: step.label(),
                cycles: r.latency,
                seconds: r.latency as f64 / clock_hz,
                speedup: baseline as f64 / r.latency.max(1) as f64,
                luts: r.resources.luts,
                dsps: r.resources.dsps,
                fits: r.fits,
            })
            .collect()
    })
}

/// One row of the energy-extension table (paper §V future work): the
/// Figure-6 step re-measured under the iCE40 energy model.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Step label.
    pub label: &'static str,
    /// Whole-inference cycles.
    pub cycles: u64,
    /// Total (dynamic + static) energy in microjoules.
    pub total_uj: f64,
    /// Dynamic (activity-proportional) energy in microjoules.
    pub dynamic_uj: f64,
    /// Average power in milliwatts at the Fomu clock.
    pub avg_mw: f64,
    /// Energy-delay product in microjoule-seconds.
    pub edp_ujs: f64,
}

/// Runs the energy table: every ladder step once, each with its energy
/// estimate (the final-step result comes from the run, never from a
/// second simulation for the summary ratio).
pub fn run_energy(spec: &RunSpec) -> Run<Vec<EnergyRow>, Fig6Step> {
    let clock_hz = Board::fomu().clock_hz as f64;
    run_steps(spec, energy_store_context()).map(|results| {
        Fig6Step::LADDER
            .iter()
            .zip(results)
            .map(|(step, r)| {
                let (cycles, total_uj) = (r.latency, r.energy_uj);
                let seconds = cycles as f64 / clock_hz;
                let avg_mw = if cycles == 0 { 0.0 } else { total_uj / 1e3 / seconds };
                EnergyRow {
                    label: step.label(),
                    cycles,
                    total_uj,
                    dynamic_uj: f64::from_bits(r.aux),
                    avg_mw,
                    edp_ujs: total_uj * seconds,
                }
            })
            .collect()
    })
}

/// Renders the energy table exactly as `table_energy_ladder` prints it,
/// including the baseline→final reduction summary (computed from the
/// captured rows — no step is re-simulated).
pub fn render_energy(rows: &[EnergyRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>14} {:>10} {:>10} {:>9} {:>12}\n",
        "step", "cycles", "µJ total", "µJ dyn", "avg mW", "EDP µJ·s"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>14} {:>10.1} {:>10.1} {:>9.3} {:>12.3}\n",
            r.label, r.cycles, r.total_uj, r.dynamic_uj, r.avg_mw, r.edp_ujs,
        ));
    }
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        out.push_str(&format!(
            "\nenergy reduction, baseline → final: {:.1}x\n",
            first.total_uj / last.total_uj
        ));
    }
    out
}

/// Renders the energy ladder as CSV for plotting.
pub fn energy_to_csv(rows: &[EnergyRow]) -> String {
    let mut out = String::from("step,cycles,total_uj,dynamic_uj,avg_mw,edp_ujs\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6},{:.6}\n",
            r.label, r.cycles, r.total_uj, r.dynamic_uj, r.avg_mw, r.edp_ujs
        ));
    }
    out
}

/// Renders the ladder as CSV for plotting.
pub fn to_csv(rows: &[Fig6Row]) -> String {
    let mut out = String::from("step,cycles,seconds,speedup,luts,dsps,fits\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.4},{:.4},{},{},{}\n",
            r.label, r.cycles, r.seconds, r.speedup, r.luts, r.dsps, r.fits
        ));
    }
    out
}

/// Pretty-prints the ladder.
pub fn render(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>14} {:>9} {:>9} {:>7} {:>5} {:>5}\n",
        "step", "cycles", "seconds", "speedup", "LUTs", "DSPs", "fits"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>14} {:>8.2}s {:>8.2}x {:>7} {:>5} {:>5}\n",
            r.label, r.cycles, r.seconds, r.speedup, r.luts, r.dsps, r.fits
        ));
    }
    out
}
