//! The workloads' pipelines run in-process, with a span at every call
//! into a layer's public functions.
//!
//! Each pipeline does the work its figure binary does with `--store`:
//! the same models, inputs, SoCs, deployments, engine and store, so its
//! CSV must match the binary's byte for byte. The ladders run on a
//! `ParallelStudy` + `GridSearch` over an evaluator written here that
//! calls the layers directly; Figure 7 runs its three curves as three
//! threads over `InferenceEvaluatorFactory`. Nothing from `cfu-bench`
//! is used except the Figure 6 ladder definition.

use std::fmt::Debug;
use std::hash::Hash;
use std::path::Path;
use std::sync::Arc;

use cfu_bench::fig6::Fig6Step;
use cfu_core::cfu1::Cfu1;
use cfu_core::{Cfu, NullCfu, Resources};
use cfu_dse::{
    CfuChoice, EvalFailure, EvalResult, Evaluator, EvaluatorFactory, Fig7CurveSpace, GridSearch,
    InferenceEvaluatorFactory, Optimizer, ParallelStudy, RegularizedEvolution, ResultStore,
    SearchSpace, StoreContext, StoreKey, StudyStore, TraceStore,
};
use cfu_sim::energy::{estimate_core, EnergyEstimate, EnergyParams};
use cfu_sim::{CpuConfig, TimedCore, Trace, TraceReplayer};
use cfu_soc::{Board, Bus, Soc, SocBuilder};
use cfu_tflm::deploy::{DeployConfig, Deployment, KernelRegistry};
use cfu_tflm::kernels::conv1x1::Conv1x1Variant;
use cfu_tflm::model::{Model, OpKind};
use cfu_tflm::models;
use cfu_tflm::tensor::Tensor;

use crate::trace::{self, count, span, timed};
use crate::workload::{Workload, CURVES};

/// What one pipeline run produced besides its spans.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The artifact CSV, formatted as the figure binary writes it.
    pub csv: String,
    /// Store records hydrated into the memo caches (resume runs).
    pub hydrated: u64,
    /// Store records appended.
    pub appended: u64,
    /// Trace words the run's trace stores still held when its studies
    /// ended.
    pub retained_words: u64,
}

/// Runs `workload`'s pipeline against the result store at `store`,
/// hydrating prior results when `resume` is set.
pub fn run(workload: Workload, store: &Path, resume: bool) -> Result<Outcome, String> {
    let _pipeline = span("pipeline");
    match workload {
        Workload::Fig4Mnv2 => fig4(store, resume),
        Workload::Fig6Kws => fig6(store, resume),
        Workload::EnergyKws => energy(store, resume),
        Workload::Fig7Dse => fig7(store, resume),
    }
}

/// Times each suggest and observe round of the wrapped optimizer.
struct TracedOptimizer<O>(O);

impl<S: SearchSpace, O: Optimizer<S>> Optimizer<S> for TracedOptimizer<O> {
    fn suggest(&mut self, space: &S) -> u64 {
        self.0.suggest(space)
    }

    fn observe(&mut self, index: u64, result: &EvalResult) {
        self.0.observe(index, result);
    }

    fn suggest_batch(&mut self, space: &S, n: usize) -> Vec<u64> {
        let batch = timed("dse.optimizer.suggest", || self.0.suggest_batch(space, n));
        count("dse.optimizer.suggested", batch.len() as f64);
        batch
    }

    fn observe_batch(&mut self, batch: &[(u64, EvalResult)]) {
        timed("dse.optimizer.observe", || self.0.observe_batch(batch));
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Mints evaluators that time every call and classify it as a capture,
/// a replay or a plain execution by the trace store's counters.
struct TracedFactory<F, K> {
    inner: F,
    traces: Option<Arc<TraceStore<K>>>,
}

struct TracedEvaluator<E, K> {
    inner: E,
    traces: Option<Arc<TraceStore<K>>>,
}

impl<P, F, K> EvaluatorFactory<P> for TracedFactory<F, K>
where
    F: EvaluatorFactory<P>,
    K: Copy + Eq + Hash + Send + Sync,
{
    type Eval = TracedEvaluator<F::Eval, K>;

    fn make_evaluator(&self) -> Self::Eval {
        let inner = timed("dse.factory.make", || self.inner.make_evaluator());
        TracedEvaluator { inner, traces: self.traces.clone() }
    }
}

impl<E, K: Copy + Eq + Hash> TracedEvaluator<E, K> {
    fn retime_counts(&self) -> (u64, u64) {
        self.traces.as_ref().map_or((0, 0), |t| (t.captures(), t.replays()))
    }
}

impl<P, E: Evaluator<P>, K: Copy + Eq + Hash> Evaluator<P> for TracedEvaluator<E, K> {
    fn evaluate(&mut self, point: &P) -> EvalResult {
        self.inner.evaluate(point)
    }

    fn try_evaluate(&mut self, point: &P) -> Result<EvalResult, EvalFailure> {
        let (captures, replays) = self.retime_counts();
        let mut call = span("dse.eval.execute");
        let result = self.inner.try_evaluate(point);
        let (captures_after, replays_after) = self.retime_counts();
        if captures_after > captures {
            call.rename("dse.eval.capture");
        } else if replays_after > replays {
            call.rename("dse.eval.replay");
        }
        drop(call);
        if result.is_err() {
            count("dse.eval.failed", 1.0);
        }
        result
    }
}

/// A ladder as a one-axis search space over its steps.
#[derive(Debug, Clone, Copy)]
struct Ladder<P: 'static>(&'static [P]);

impl<P: Copy + Eq + Hash + Send + Sync + Debug> SearchSpace for Ladder<P> {
    type Point = P;

    fn size(&self) -> u64 {
        self.0.len() as u64
    }

    fn point(&self, index: u64) -> P {
        self.0[index as usize]
    }
}

/// A ladder's per-step results and its store counters.
struct Stored {
    results: Vec<EvalResult>,
    hydrated: u64,
    appended: u64,
}

/// Walks a ladder through the engine, as the binaries do with a store
/// attached: one worker, grid order, one result per step.
fn run_ladder<P, F>(
    steps: &'static [P],
    context: &str,
    store: &Path,
    resume: bool,
    factory: &F,
) -> Result<Stored, String>
where
    P: StoreKey + Copy + Eq + Hash + Send + Sync + Debug + 'static,
    F: EvaluatorFactory<P>,
{
    let file = timed("dse.store.open", || ResultStore::open(store))
        .map_err(|e| format!("cannot open result store {}: {e}", store.display()))?;
    let handle =
        Arc::new(StudyStore::new(Arc::new(file), StoreContext::new(context)).with_resume(resume));
    let space = Ladder(steps);
    let optimizer = TracedOptimizer(GridSearch::new(&space, space.size()));
    let mut study = ParallelStudy::new(space, optimizer, 1);
    timed("dse.store.hydrate", || study.attach_store(Arc::clone(&handle)));
    timed("dse.study.run", || study.run(factory, space.size()));
    let results = steps
        .iter()
        .map(|p| study.cache().get(p).ok_or_else(|| format!("the engine left step {p:?} unscored")))
        .collect::<Result<_, _>>()?;
    Ok(Stored { results, hydrated: handle.hydrated(), appended: handle.appended() })
}

/// Counts one finished run's simulated work; `executed` marks a guest
/// execution (as opposed to a trace replay).
fn note_core(core: &TimedCore, executed: bool) {
    let stats = core.stats();
    if executed {
        count("tflm.guest_cycles", stats.cycles as f64);
        count("tflm.guest_instructions", stats.instructions as f64);
    }
    count("mem.loads", stats.loads as f64);
    count("mem.stores", stats.stores as f64);
    count("core.cfu_ops", stats.cfu_ops as f64);
    if let Some(c) = core.icache_stats() {
        count("mem.icache.misses", c.misses as f64);
        count("mem.icache.accesses", c.accesses() as f64);
    }
    if let Some(c) = core.dcache_stats() {
        count("mem.dcache.misses", c.misses as f64);
        count("mem.dcache.accesses", c.accesses() as f64);
    }
}

fn model_and_input(build: impl FnOnce() -> Model, input_seed: u64) -> (Model, Tensor) {
    timed("tflm.model_build", || {
        let model = build();
        let input = models::synthetic_input(&model, input_seed);
        (model, input)
    })
}

// ---- Figure 4: MobileNetV2 1x1 CONV_2D ladder on Arty ----

/// Scores one Figure 4 step: a full 96x96 MobileNetV2 inference.
#[derive(Clone, Copy)]
struct Fig4Step;

impl Evaluator<Conv1x1Variant> for Fig4Step {
    fn evaluate(&mut self, variant: &Conv1x1Variant) -> EvalResult {
        let (model, input) = model_and_input(|| models::mobilenet_v2(96, 2, 1), 42);
        let bus = timed("soc.build", || Board::arty_a7_35t().build_bus(None));
        let mut cfg =
            DeployConfig::new(CpuConfig::arty_default(), "main_ram", "main_ram", "main_ram");
        cfg.registry = KernelRegistry { conv1x1: Some(*variant), ..Default::default() };
        let cfu: Box<dyn Cfu> = match variant.required_stage() {
            Some(stage) => Box::new(Cfu1::new(stage)),
            None => Box::new(NullCfu),
        };
        let mut dep = timed("tflm.deploy", || Deployment::new(model, bus, cfu, &cfg))
            .expect("fig4 deployment");
        let (_, profile) = timed("tflm.run", || dep.run(&input)).expect("fig4 inference");
        note_core(dep.core(), true);
        EvalResult {
            latency: profile.total_cycles(),
            resources: variant
                .required_stage()
                .map_or(Resources::ZERO, |s| Cfu1::new(s).resources()),
            fits: true,
            energy_uj: 0.0,
            aux: profile.cycles_for(OpKind::Conv2d1x1),
        }
    }
}

fn fig4(store: &Path, resume: bool) -> Result<Outcome, String> {
    let factory: TracedFactory<_, u8> = TracedFactory { inner: || Fig4Step, traces: None };
    let run = run_ladder(&Conv1x1Variant::LADDER, "bench-fig4-mnv2-hw96", store, resume, &factory)?;
    let base = run.results[0];
    let mut csv = String::from(
        "step,conv1x1_cycles,operator_speedup,total_cycles,overall_speedup,cfu_luts,cfu_dsps\n",
    );
    for (variant, r) in Conv1x1Variant::LADDER.iter().zip(&run.results) {
        csv.push_str(&format!(
            "{},{},{:.4},{},{:.4},{},{}\n",
            variant.label(),
            r.aux,
            base.aux as f64 / r.aux.max(1) as f64,
            r.latency,
            base.latency as f64 / r.latency.max(1) as f64,
            r.resources.luts,
            r.resources.dsps,
        ));
    }
    Ok(Outcome { csv, hydrated: run.hydrated, appended: run.appended, retained_words: 0 })
}

// ---- Figure 6 and the energy table: the KWS ladder on Fomu ----

fn kws_model() -> (Model, Tensor) {
    model_and_input(|| models::ds_cnn_kws(1), 7)
}

fn kws_deploy_config(step: Fig6Step) -> DeployConfig {
    let mut cfg = DeployConfig::new(step.cpu(), "spiflash", "sram", "spiflash");
    cfg.registry = step.registry();
    if step >= Fig6Step::SramOpsAndModel {
        cfg.hot_code_region = Some("sram".to_owned());
        cfg.hot_weights_region = Some("sram".to_owned());
    }
    cfg
}

/// The step's SoC with its CFU attached.
fn kws_soc(step: Fig6Step) -> Soc {
    let cfu = step.cfu();
    SocBuilder::new(Board::fomu())
        .cpu(step.cpu())
        .features(step.features())
        .cfu(cfu.as_ref())
        .build()
}

/// The step's resources and whether they fit Fomu.
fn kws_fit(step: Fig6Step) -> (Resources, bool) {
    timed("soc.build", || {
        let fit = kws_soc(step).fit_report();
        (fit.used(), fit.fits())
    })
}

/// The step's resources and a fresh bus for it.
fn kws_design_and_bus(step: Fig6Step) -> (Resources, Bus) {
    timed("soc.build", || {
        let soc = kws_soc(step);
        (soc.fit_report().used(), soc.build_bus())
    })
}

/// Scores one Figure 6 step: a full DS-CNN inference on Fomu.
#[derive(Clone, Copy)]
struct Fig6Perf;

impl Evaluator<Fig6Step> for Fig6Perf {
    fn evaluate(&mut self, step: &Fig6Step) -> EvalResult {
        let step = *step;
        let (model, input) = kws_model();
        let bus = timed("soc.build", || {
            SocBuilder::new(Board::fomu())
                .cpu(step.cpu())
                .features(step.features())
                .build()
                .build_bus()
        });
        let cfg = kws_deploy_config(step);
        let mut dep = timed("tflm.deploy", || Deployment::new(model, bus, step.cfu(), &cfg))
            .expect("fig6 deployment");
        let (_, profile) = timed("tflm.run", || dep.run(&input)).expect("fig6 inference");
        note_core(dep.core(), true);
        let (resources, fits) = kws_fit(step);
        EvalResult { latency: profile.total_cycles(), resources, fits, energy_uj: 0.0, aux: 0 }
    }
}

fn fig6(store: &Path, resume: bool) -> Result<Outcome, String> {
    let factory: TracedFactory<_, u8> = TracedFactory { inner: || Fig6Perf, traces: None };
    let run = run_ladder(&Fig6Step::LADDER, "bench-fig6-kws", store, resume, &factory)?;
    let clock_hz = Board::fomu().clock_hz as f64;
    let base = run.results[0].latency;
    let mut csv = String::from("step,cycles,seconds,speedup,luts,dsps,fits\n");
    for (step, r) in Fig6Step::LADDER.iter().zip(&run.results) {
        csv.push_str(&format!(
            "{},{},{:.4},{:.4},{},{},{}\n",
            step.label(),
            r.latency,
            r.latency as f64 / clock_hz,
            base as f64 / r.latency.max(1) as f64,
            r.resources.luts,
            r.resources.dsps,
            r.fits
        ));
    }
    Ok(Outcome { csv, hydrated: run.hydrated, appended: run.appended, retained_words: 0 })
}

/// Executes one energy-table step (capturing its trace when asked) and
/// runs the iCE40 energy model over the core.
fn energy_execute(step: Fig6Step, capture: bool) -> ((u64, EnergyEstimate), Option<Trace>) {
    let (model, input) = kws_model();
    let (design, bus) = kws_design_and_bus(step);
    let cfg = kws_deploy_config(step);
    let mut dep = timed("tflm.deploy", || Deployment::new(model, bus, step.cfu(), &cfg))
        .expect("energy deployment");
    let (cycles, trace) = if capture {
        let (_, profile, trace) =
            timed("tflm.run_captured", || dep.run_captured(&input)).expect("energy inference");
        (profile.total_cycles(), Some(trace))
    } else {
        let (_, profile) = timed("tflm.run", || dep.run(&input)).expect("energy inference");
        (profile.total_cycles(), None)
    };
    note_core(dep.core(), true);
    let estimate =
        timed("sim.energy", || estimate_core(dep.core(), design, &EnergyParams::ice40()));
    ((cycles, estimate), trace)
}

/// Replays a captured group trace under `step`'s timing and runs the
/// energy model over the replayed core; `None` when replay fails.
fn energy_replay(step: Fig6Step, trace: &Trace) -> Option<(u64, EnergyEstimate)> {
    let (design, bus) = kws_design_and_bus(step);
    let mut replayer = TraceReplayer::new(step.cpu(), bus);
    let summary = timed("sim.replay", || replayer.replay(trace)).ok()?;
    count("sim.replay.words", trace.words() as f64);
    note_core(replayer.core(), false);
    let estimate =
        timed("sim.energy", || estimate_core(replayer.core(), design, &EnergyParams::ice40()));
    Some((summary.total_cycles(), estimate))
}

/// Scores one energy-table step with capture/replay: the first step of
/// each retime group executes and captures, its timing siblings replay
/// the group's trace, and a failed replay falls back to execution.
struct EnergyStep {
    traces: Arc<TraceStore<u8>>,
}

impl Evaluator<Fig6Step> for EnergyStep {
    fn evaluate(&mut self, step: &Fig6Step) -> EvalResult {
        let step = *step;
        let slot = self.traces.slot(step.retime_group());
        let mut own = None;
        let shared = slot
            .get_or_init(|| {
                self.traces.begin_capture();
                let (result, trace) = energy_execute(step, true);
                own = Some(result);
                self.traces.finish_capture();
                trace.map(Arc::new).filter(|t| t.retime_safe())
            })
            .clone();
        let replayed = || {
            let result = energy_replay(step, shared.as_deref()?)?;
            self.traces.note_replay();
            Some(result)
        };
        let (cycles, estimate) =
            own.or_else(replayed).unwrap_or_else(|| energy_execute(step, false).0);
        let (resources, fits) = kws_fit(step);
        EvalResult {
            latency: cycles,
            resources,
            fits,
            energy_uj: estimate.total_uj(),
            aux: estimate.dynamic_bits(),
        }
    }
}

fn energy(store: &Path, resume: bool) -> Result<Outcome, String> {
    let traces = Arc::new(TraceStore::new());
    let shared = Arc::clone(&traces);
    let factory = TracedFactory {
        inner: move || EnergyStep { traces: Arc::clone(&shared) },
        traces: Some(Arc::clone(&traces)),
    };
    let run = run_ladder(&Fig6Step::LADDER, "bench-fig6-kws-energy", store, resume, &factory)?;
    let mut groups: Vec<u8> = Fig6Step::LADDER.iter().map(|s| s.retime_group()).collect();
    groups.dedup();
    let retained_words = retained_words(&traces, groups);
    let clock_hz = Board::fomu().clock_hz as f64;
    let mut csv = String::from("step,cycles,total_uj,dynamic_uj,avg_mw,edp_ujs\n");
    for (step, r) in Fig6Step::LADDER.iter().zip(&run.results) {
        let seconds = r.latency as f64 / clock_hz;
        let avg_mw = if r.latency == 0 { 0.0 } else { r.energy_uj / 1e3 / seconds };
        csv.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6},{:.6}\n",
            step.label(),
            r.latency,
            r.energy_uj,
            f64::from_bits(r.aux),
            avg_mw,
            r.energy_uj * seconds
        ));
    }
    Ok(Outcome { csv, hydrated: run.hydrated, appended: run.appended, retained_words })
}

/// Trace words held in `traces` under `keys`.
fn retained_words<K: Copy + Eq + Hash>(
    traces: &TraceStore<K>,
    keys: impl IntoIterator<Item = K>,
) -> u64 {
    keys.into_iter()
        .filter_map(|k| traces.slot(k).get().cloned().flatten())
        .map(|t| t.words() as u64)
        .sum()
}

// ---- Figure 7: three concurrent DSE curves ----

struct Curve {
    label: &'static str,
    front: Vec<(u64, u64)>,
    hydrated: u64,
    appended: u64,
    retained_words: u64,
}

fn fig7(store: &Path, resume: bool) -> Result<Outcome, String> {
    let file = timed("dse.store.open", || ResultStore::open(store))
        .map_err(|e| format!("cannot open result store {}: {e}", store.display()))?;
    let file = Arc::new(file);
    let pipeline = trace::current();
    let curves = std::thread::scope(|scope| {
        let handles: Vec<_> = CURVES
            .iter()
            .enumerate()
            .map(|(i, &choice)| {
                let file = Arc::clone(&file);
                scope.spawn(move || fig7_curve(i, choice, file, resume, pipeline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a Figure 7 curve thread panicked".to_owned()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut csv = String::from("curve,logic_cells,cycles\n");
    for curve in &curves {
        for (cells, cycles) in &curve.front {
            csv.push_str(&format!("{},{cells},{cycles}\n", curve.label));
        }
    }
    Ok(Outcome {
        csv,
        hydrated: curves.iter().map(|c| c.hydrated).sum(),
        appended: curves.iter().map(|c| c.appended).sum(),
        retained_words: curves.iter().map(|c| c.retained_words).sum(),
    })
}

/// One curve at `fig7_dse_pareto`'s defaults: 120 regularized-evolution
/// trials (seed 11) over a 16x16 MobileNetV2 with trace capture/replay.
fn fig7_curve(
    index: usize,
    choice: CfuChoice,
    file: Arc<ResultStore>,
    resume: bool,
    parent: Option<usize>,
) -> Curve {
    let _curve = trace::span_under("fig7.curve", parent);
    let (model, input) = model_and_input(|| models::mobilenet_v2(16, 2, 1), 5);
    let inner =
        InferenceEvaluatorFactory::new(Board::arty_a7_35t(), model, input).with_retime(true);
    let traces = inner.trace_store().cloned();
    let factory = TracedFactory { inner, traces: traces.clone() };
    let context = StoreContext::new(format!("fig7-mnv2-hw16-cfu{index}"));
    let handle = Arc::new(StudyStore::new(file, context).with_resume(resume));
    let optimizer = TracedOptimizer(RegularizedEvolution::new(11, 24, 6));
    let mut study = ParallelStudy::new(Fig7CurveSpace::new(choice), optimizer, 1);
    timed("dse.store.hydrate", || study.attach_store(Arc::clone(&handle)));
    timed("dse.study.run", || study.run(&factory, 120));
    Curve {
        label: choice.label(),
        front: study.archive().front().iter().map(|p| (p.resources, p.latency)).collect(),
        hydrated: handle.hydrated(),
        appended: handle.appended(),
        retained_words: traces.map_or(0, |t| retained_words(&t, [choice])),
    }
}
