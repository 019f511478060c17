//! Evaluators: mapping a design point to (latency, resources, fits).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use cfu_core::{Cfu, NullCfu, Resources};
use cfu_mem::{CacheConfig, RegionInfo};
use cfu_sim::{
    BranchPredictor, BranchProfile, CoreProfile, MemoryProfile, ReplayError, ReplaySummary, Trace,
    TraceReplayer,
};
use cfu_soc::Board;
use cfu_tflm::deploy::{
    ConvKernel, DeployConfig, DeployError, Deployment, DwKernel, KernelRegistry,
};
use cfu_tflm::kernels::conv1x1::Conv1x1Variant;
use cfu_tflm::kernels::KernelError;
use cfu_tflm::model::Model;
use cfu_tflm::tensor::Tensor;

use crate::fault::{EvalFailure, GuestFaultKind};
use crate::space::{CfuChoice, DesignPoint};

/// Outcome of evaluating one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Inference latency in cycles.
    pub latency: u64,
    /// FPGA resources (CPU + CFU + SoC fabric).
    pub resources: Resources,
    /// Whether the design fits the target board.
    pub fits: bool,
    /// Estimated inference energy in microjoules (0 when the evaluator
    /// does not model energy) — the paper's §V future-work axis, wired
    /// into the DSE loop as an extension.
    pub energy_uj: f64,
    /// Free-form auxiliary metric carried through the engine untouched
    /// (0 when unused). Optimizers and archives ignore it;
    /// domain evaluators use it to smuggle a second per-point
    /// measurement out of the worker pool — the Figure-4 ladder harness
    /// stores the hot-operator (1x1 CONV_2D) cycle count here while
    /// `latency` holds the whole-model count.
    pub aux: u64,
}

/// Anything that can score a candidate point of type `P`.
///
/// The default `P` is [`DesignPoint`], the paper-scale CPU+CFU
/// configuration; harnesses exploring other spaces (e.g. the ladder
/// sweeps in `cfu-bench`) implement `Evaluator<TheirPoint>`.
pub trait Evaluator<P = DesignPoint> {
    /// Evaluates one configuration.
    fn evaluate(&mut self, point: &P) -> EvalResult;

    /// Evaluates one configuration, reporting failure as a classified
    /// [`EvalFailure`] instead of a sentinel result.
    ///
    /// The default delegates to [`evaluate`], so infallible evaluators
    /// (the analytic and ladder harnesses) keep working unchanged;
    /// fallible evaluators override this and derive `evaluate` from it.
    /// The worker pool always calls `try_evaluate`, so failures reach
    /// the retry/quarantine machinery with their cause intact.
    ///
    /// # Errors
    ///
    /// The classified reason the point could not be scored.
    ///
    /// [`evaluate`]: Evaluator::evaluate
    fn try_evaluate(&mut self, point: &P) -> Result<EvalResult, EvalFailure> {
        Ok(self.evaluate(point))
    }
}

/// A fast analytic evaluator for tests, examples and optimizer
/// comparisons: resources from the real model, latency from a
/// closed-form workload estimate (no simulation). The *shape* matches
/// the simulated evaluator (caches, multiplier and CFU help; everything
/// costs area).
#[derive(Debug, Clone)]
pub struct ResourceEvaluator {
    budget_luts: u32,
}

impl ResourceEvaluator {
    /// Creates the evaluator with a LUT budget for the fit check.
    pub fn new(budget_luts: u32) -> Self {
        ResourceEvaluator { budget_luts }
    }
}

impl Evaluator for ResourceEvaluator {
    fn evaluate(&mut self, point: &DesignPoint) -> EvalResult {
        let resources = point.resources();
        // A synthetic 1M-MAC workload: start from 30 cycles/MAC and apply
        // multiplicative savings per feature.
        let mut cycles = 30_000_000f64;
        if point.cpu.icache.is_some() {
            cycles *= 0.55;
        }
        if point.cpu.dcache.is_some() {
            cycles *= 0.75;
        }
        cycles *= match point.cpu.multiplier {
            cfu_sim::Multiplier::None => 3.0,
            cfu_sim::Multiplier::Iterative => 1.6,
            _ => 1.0,
        };
        cycles *= match point.cpu.branch_predictor {
            cfu_sim::BranchPredictor::None => 1.15,
            cfu_sim::BranchPredictor::Static => 1.08,
            _ => 1.0,
        };
        if !point.cpu.bypassing {
            cycles *= 1.2;
        }
        cycles *= match point.cfu {
            CfuChoice::None => 1.0,
            CfuChoice::Cfu1 => 0.04,
            CfuChoice::Cfu2 => 0.3,
        };
        // Toy energy: activity energy plus leakage over the run.
        let energy_uj = cycles * 25e-6 + cycles * f64::from(resources.luts) / 1000.0 * 8e-6;
        EvalResult {
            latency: cycles as u64,
            resources,
            fits: resources.luts <= self.budget_luts,
            energy_uj,
            aux: 0,
        }
    }
}

/// One [`TraceStore`] slot: filled exactly once, `None` when the
/// capture failed.
pub type TraceSlot = Arc<OnceLock<Option<Arc<Trace>>>>;

/// A profile-cache slot: one pass's outcome, computed exactly once.
type ProfileSlot<T> = Arc<OnceLock<Result<Arc<T>, ReplayError>>>;

/// The slot for `key` in `map`, created empty on first request. The map
/// lock is held only for the probe, never while a slot fills. Poison
/// recovery: the map is valid after any unwind (the lock only ever
/// guards a probe-or-insert), and one panicked worker must not wedge
/// every later lookup.
fn probe<Q: Eq + Hash, T>(map: &Mutex<HashMap<Q, Arc<OnceLock<T>>>>, key: Q) -> Arc<OnceLock<T>> {
    let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(map.entry(key).or_default())
}

/// The memory pass's key: trace key, I-cache, D-cache, RVC.
type Geometry<K> = (K, Option<CacheConfig>, Option<CacheConfig>, bool);

/// What replay profiles computed over a bus depend on: its region map
/// and, per region, the device's write-latency bound and whether its
/// timing is stateless.
type BusSignature = Vec<(RegionInfo, Option<u64>, bool)>;

fn bus_signature(bus: &cfu_mem::Bus) -> BusSignature {
    bus.regions()
        .map(|(_, info)| {
            let bound = bus.write_latency_bound(info.base, 4);
            (info.clone(), bound, bus.timing_stateless_at(info.base))
        })
        .collect()
}

/// Replay profiles shared by every point replayed from a store's traces
/// (see [`TraceStore::replay`]).
#[derive(Debug)]
struct Profiles<K> {
    /// The signature of the first bus a replay ran on; profiles are
    /// valid for that bus only.
    bus: OnceLock<BusSignature>,
    core: Mutex<HashMap<K, ProfileSlot<CoreProfile>>>,
    branches: Mutex<HashMap<(K, BranchPredictor), ProfileSlot<BranchProfile>>>,
    memory: Mutex<HashMap<Geometry<K>, ProfileSlot<MemoryProfile>>>,
    memory_passes: AtomicU64,
    branch_passes: AtomicU64,
}

impl<K> Default for Profiles<K> {
    fn default() -> Self {
        Profiles {
            bus: OnceLock::new(),
            core: Mutex::default(),
            branches: Mutex::default(),
            memory: Mutex::default(),
            memory_passes: AtomicU64::new(0),
            branch_passes: AtomicU64::new(0),
        }
    }
}

/// A shared store of captured operation traces, one per
/// retime-eligibility key, and of the replay profiles computed from them.
///
/// Retime-eligible design points share the guest's *architectural*
/// behaviour — the committed operation stream — and differ only in
/// *timing* knobs (caches, predictors, functional-unit latencies). The
/// store runs the guest once per key (capture), then every other point
/// with the same key replays the shared [`Trace`] through timing-only
/// machinery. [`replay`](TraceStore::replay) shares that work too: one
/// memory pass per cache geometry and one branch pass per predictor,
/// after which a point costs only the per-segment combine.
///
/// The store is shared by `Arc` across a
/// [`ParallelStudy`](crate::ParallelStudy) worker pool: each slot is a
/// [`OnceLock`], so exactly one worker performs the capture (or a pass)
/// while racing workers block briefly and then reuse it. A trace slot
/// holding `None` records a failed capture run — every point under that
/// key falls back to execute mode.
///
/// Keyed by `K` (default [`CfuChoice`], the Figure-7 eligibility key:
/// for a fixed board/model/input the operation stream depends only on
/// which CFU's kernels are deployed). Ladder harnesses key by their own
/// step-group type.
#[derive(Debug)]
pub struct TraceStore<K = CfuChoice> {
    slots: Mutex<HashMap<K, TraceSlot>>,
    captures_started: AtomicU64,
    captures_finished: AtomicU64,
    replays: AtomicU64,
    profiles: Profiles<K>,
}

impl<K: Copy + Eq + Hash> Default for TraceStore<K> {
    fn default() -> Self {
        TraceStore::new()
    }
}

impl<K: Copy + Eq + Hash> TraceStore<K> {
    /// An empty store.
    pub fn new() -> Self {
        TraceStore {
            slots: Mutex::new(HashMap::new()),
            captures_started: AtomicU64::new(0),
            captures_finished: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            profiles: Profiles::default(),
        }
    }

    /// The capture slot for `key`, created empty on first request. The
    /// slot lock is held only for the map probe, never during capture.
    pub fn slot(&self, key: K) -> TraceSlot {
        probe(&self.slots, key)
    }

    /// Replays `trace`, the trace captured under `key`, on `replayer`,
    /// sharing the passes with every other replay of it: the fused core
    /// count and branch pass run once per predictor, the memory pass once
    /// per (I-cache, D-cache) geometry, and each point pays only
    /// [`TraceReplayer::combine`]. The profiles are bound to the first
    /// replayer's bus (its region map and each region's device kind, as
    /// far as the write-latency bound and timing statelessness tell);
    /// a replayer on any other bus replays on its own
    /// ([`TraceReplayer::replay`]).
    ///
    /// # Errors
    ///
    /// As [`TraceReplayer::replay`]; a failed pass is cached and fails
    /// every point that needs it.
    pub fn replay(
        &self,
        key: K,
        trace: &Trace,
        replayer: &mut TraceReplayer,
    ) -> Result<ReplaySummary, ReplayError> {
        let p = &self.profiles;
        let bus = bus_signature(replayer.core().bus());
        if *p.bus.get_or_init(|| bus.clone()) != bus {
            return replayer.replay(trace);
        }
        let cpu = *replayer.core().config();
        let predictor = cpu.branch_predictor;
        let scan = |replayer: &TraceReplayer| {
            p.branch_passes.fetch_add(1, Ordering::Relaxed);
            CoreProfile::scan(trace, replayer.core().bus(), predictor)
        };
        // The first scan of a trace also fills its predictor's branch
        // slot.
        let core = probe(&p.core, key)
            .get_or_init(|| {
                let (core, branches) = scan(replayer)?;
                let _ = probe(&p.branches, (key, predictor)).set(Ok(Arc::new(branches)));
                Ok(Arc::new(core))
            })
            .clone()?;
        let branches = probe(&p.branches, (key, predictor))
            .get_or_init(|| scan(replayer).map(|(_, branches)| Arc::new(branches)))
            .clone()?;
        let memory = probe(&p.memory, (key, cpu.icache, cpu.dcache, cpu.compressed))
            .get_or_init(|| {
                p.memory_passes.fetch_add(1, Ordering::Relaxed);
                replayer.memory_pass(trace, &core).map(Arc::new)
            })
            .clone()?;
        replayer.combine(&core, &branches, &memory)
    }

    /// Marks a capture run as started (drives "capturing trace…"
    /// progress readouts).
    pub fn begin_capture(&self) {
        self.captures_started.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a capture run as finished.
    pub fn finish_capture(&self) {
        self.captures_finished.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one replayed evaluation.
    pub fn note_replay(&self) {
        self.replays.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed capture runs.
    pub fn captures(&self) -> u64 {
        self.captures_finished.load(Ordering::Relaxed)
    }

    /// Capture runs currently in flight (started, not yet finished).
    pub fn capturing(&self) -> u64 {
        self.captures_started
            .load(Ordering::Relaxed)
            .saturating_sub(self.captures_finished.load(Ordering::Relaxed))
    }

    /// Evaluations served by trace replay instead of execution.
    pub fn replays(&self) -> u64 {
        self.replays.load(Ordering::Relaxed)
    }

    /// Packed words of the traces captured so far ([`Trace::words`]),
    /// summed over keys: what the store holds in trace memory.
    pub fn trace_words(&self) -> u64 {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.values().filter_map(|slot| slot.get()?.as_ref()).map(|t| t.words() as u64).sum()
    }

    /// Memory passes [`replay`](TraceStore::replay) ran: one per trace
    /// and cache geometry.
    pub fn memory_passes(&self) -> u64 {
        self.profiles.memory_passes.load(Ordering::Relaxed)
    }

    /// Fused core-count and branch passes [`replay`](TraceStore::replay)
    /// ran: one per trace and branch predictor.
    pub fn branch_passes(&self) -> u64 {
        self.profiles.branch_passes.load(Ordering::Relaxed)
    }
}

/// The real evaluator: deploys the workload on the simulated SoC and
/// measures one inference — the stand-in for the paper's "Verilator, a
/// cycle-accurate simulator ... used to determine the latency for Vizier
/// when running experiments at scale in the cloud".
///
/// With a [`TraceStore`] attached (see
/// [`InferenceEvaluator::set_trace_store`]) the evaluator runs the
/// guest once per [`CfuChoice`] and serves every other point under that
/// choice by replaying the captured trace through timing-only machinery
/// — same results. A replayed point costs one memory pass when its cache
/// geometry is new to the store, one branch pass when its predictor is,
/// and otherwise only the per-segment combine (well under a
/// millisecond).
pub struct InferenceEvaluator {
    board: Board,
    model: Arc<Model>,
    input: Arc<Tensor>,
    cache: HashMap<DesignPoint, EvalResult>,
    /// Classified failures, cached separately from results: a failed
    /// point is never memoized as a result (so the old `(u64::MAX, ∞)`
    /// sentinel can never be recorded or persisted), but re-probing it
    /// also never re-runs the simulator.
    failed: HashMap<DesignPoint, EvalFailure>,
    retime: Option<Arc<TraceStore>>,
    /// Guest cycle watchdog threaded into every deployment; `None`
    /// disables it.
    cycle_budget: Option<u64>,
    /// Bus recycled across replays: replay never reads memory contents
    /// and resets stats/device timing up front, so reusing the mapped
    /// devices (and their large DRAM allocation) is free speedup.
    replay_bus: Option<cfu_soc::Bus>,
}

impl std::fmt::Debug for InferenceEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceEvaluator")
            .field("board", &self.board.name)
            .field("model", &self.model.name)
            .field("cached", &self.cache.len())
            .finish()
    }
}

impl InferenceEvaluator {
    /// Creates an evaluator running `model` on `board` with `input`.
    /// `model` may be a bare [`Model`] or a shared [`Arc<Model>`] handle.
    pub fn new(board: Board, model: impl Into<Arc<Model>>, input: Tensor) -> Self {
        Self::with_shared(board, model, Arc::new(input))
    }

    /// Creates an evaluator over already-shared model and input handles —
    /// the zero-copy constructor used by worker-pool factories: no weight
    /// or input bytes are duplicated per evaluator.
    pub fn with_shared(board: Board, model: impl Into<Arc<Model>>, input: Arc<Tensor>) -> Self {
        InferenceEvaluator {
            board,
            model: model.into(),
            input,
            cache: HashMap::new(),
            failed: HashMap::new(),
            retime: None,
            cycle_budget: None,
            replay_bus: None,
        }
    }

    /// Sets (or clears) the guest cycle watchdog: a run exceeding
    /// `budget` cycles fails with [`EvalFailure::BudgetExhausted`]
    /// instead of grinding on — runaway points become classified
    /// failures, not hangs.
    pub fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.cycle_budget = budget;
    }

    /// Attaches a shared [`TraceStore`]: evaluations become
    /// capture-once / replay-many per [`CfuChoice`]. Detach by passing
    /// `None` to return to plain execute mode.
    pub fn set_trace_store(&mut self, store: Option<Arc<TraceStore>>) {
        self.retime = store;
    }

    /// The shared model handle (for pointer-identity assertions that no
    /// per-evaluation weight copies happen).
    pub fn model_arc(&self) -> &Arc<Model> {
        &self.model
    }

    /// The kernel registry and CFU instance implied by a CFU choice.
    fn kernels_for(choice: CfuChoice) -> (KernelRegistry, Box<dyn Cfu>) {
        match choice {
            CfuChoice::None => (KernelRegistry::default(), Box::new(NullCfu)),
            CfuChoice::Cfu1 => (
                KernelRegistry {
                    conv1x1: Some(Conv1x1Variant::CfuOverlapInput),
                    ..Default::default()
                },
                Box::new(cfu_core::cfu1::Cfu1::full()),
            ),
            CfuChoice::Cfu2 => (
                KernelRegistry {
                    conv1x1: None,
                    conv: ConvKernel::Cfu2 { postproc: true, specialized: true },
                    dwconv: DwKernel::Cfu2 { postproc: true, specialized: true },
                },
                Box::new(cfu_core::cfu2::Cfu2::new()),
            ),
        }
    }

    /// Picks deployment regions for the board: main RAM if present,
    /// otherwise SRAM (weights fall back to flash when SRAM is small).
    fn deploy_config(&self, point: &DesignPoint) -> DeployConfig {
        let (registry, _) = Self::kernels_for(point.cfu);
        let has_dram = self.board.memory("main_ram").is_some();
        let region = if has_dram { "main_ram" } else { "sram" };
        let mut cfg = DeployConfig::new(point.cpu, region, region, region);
        cfg.registry = registry;
        cfg.cycle_budget = self.cycle_budget;
        cfg
    }

    /// Runs one inference at `point` in execute mode, optionally
    /// capturing the committed operation trace. Returns
    /// `(latency, energy_uj, trace)`; failures propagate as classified
    /// [`EvalFailure`]s instead of the old `(u64::MAX, ∞)` sentinel.
    fn execute_point(
        &self,
        point: &DesignPoint,
        resources: Resources,
        capture: bool,
    ) -> Result<(u64, f64, Option<Trace>), EvalFailure> {
        let (_, cfu) = Self::kernels_for(point.cfu);
        let cfg = self.deploy_config(point);
        let bus = self.board.build_bus(None);
        let params = cfu_sim::energy::default_params_for(&point.cpu);
        // `Arc::clone` bumps a refcount; the weights are never copied.
        let mut dep = Deployment::new(Arc::clone(&self.model), bus, cfu, &cfg)
            .map_err(classify_deploy_error)?;
        let run = if capture {
            dep.run_captured(&self.input).map(|(out, profile, trace)| (out, profile, Some(trace)))
        } else {
            dep.run(&self.input).map(|(out, profile)| (out, profile, None))
        };
        let (_, profile, trace) = run.map_err(classify_kernel_error)?;
        let e = cfu_sim::energy::estimate_core(dep.core(), resources, &params);
        Ok((profile.total_cycles(), e.total_uj(), trace))
    }

    /// Replays a captured trace under `point`'s *timing* configuration:
    /// a recycled board bus (contents are irrelevant to timing), a
    /// [`TraceReplayer`] with the point's CPU knobs sharing `store`'s
    /// replay profiles, and the same energy model over the replayed core.
    /// `None` on replay error (caller falls back to execute mode).
    fn replay_point(
        &mut self,
        store: &TraceStore,
        point: &DesignPoint,
        resources: Resources,
        trace: &Trace,
    ) -> Option<(u64, f64)> {
        let bus = self.replay_bus.take().unwrap_or_else(|| self.board.build_bus(None));
        let params = cfu_sim::energy::default_params_for(&point.cpu);
        let mut replayer = TraceReplayer::new(point.cpu, bus);
        let result = store.replay(point.cfu, trace, &mut replayer);
        let out = result.ok().map(|summary| {
            let e = cfu_sim::energy::estimate_core(replayer.core(), resources, &params);
            (summary.total_cycles(), e.total_uj())
        });
        self.replay_bus = Some(replayer.into_bus());
        out
    }

    /// Scores `point` through the capture/replay pipeline: first point
    /// under each [`CfuChoice`] executes (capturing), the rest replay.
    fn evaluate_retimed(
        &mut self,
        store: &Arc<TraceStore>,
        point: &DesignPoint,
        resources: Resources,
    ) -> Result<(u64, f64), EvalFailure> {
        let slot = store.slot(point.cfu);
        let mut captured = None;
        let shared = slot
            .get_or_init(|| {
                store.begin_capture();
                let outcome = self.execute_point(point, resources, true);
                store.finish_capture();
                match outcome {
                    Ok((latency, energy_uj, trace)) => {
                        captured = Some(Ok((latency, energy_uj)));
                        trace.map(Arc::new)
                    }
                    Err(failure) => {
                        // A failed capture fails only its own point; the
                        // slot records refused eligibility and every
                        // other point under this key executes directly
                        // (and fails or succeeds on its own merits).
                        captured = Some(Err(failure));
                        None
                    }
                }
            })
            .clone();
        if let Some(own) = captured {
            return own;
        }
        if let Some(trace) = shared {
            if let Some(replayed) = self.replay_point(store, point, resources, &trace) {
                store.note_replay();
                return Ok(replayed);
            }
        }
        self.execute_point(point, resources, false)
            .map(|(latency, energy_uj, _)| (latency, energy_uj))
    }
}

/// Maps a deployment-planning error to its failure class: a too-small
/// region means the point can structurally never run on this target
/// (the paper's Fomu "image would not fit" case → `Infeasible`); the
/// rest are deployment errors.
fn classify_deploy_error(e: DeployError) -> EvalFailure {
    match e {
        DeployError::RegionFull { .. } => EvalFailure::Infeasible(e.to_string()),
        DeployError::BadModel(_) | DeployError::MissingRegion(_) => {
            EvalFailure::Deploy(e.to_string())
        }
    }
}

/// Maps a guest-run error to its failure class.
fn classify_kernel_error(e: KernelError) -> EvalFailure {
    match e {
        KernelError::BudgetExhausted { cycles, budget } => {
            EvalFailure::BudgetExhausted { cycles, budget }
        }
        KernelError::Mem(_) => {
            EvalFailure::GuestFault { kind: GuestFaultKind::Mem, detail: e.to_string() }
        }
        KernelError::Cfu(_) => {
            EvalFailure::GuestFault { kind: GuestFaultKind::Cfu, detail: e.to_string() }
        }
        KernelError::Unsupported(_) => {
            EvalFailure::GuestFault { kind: GuestFaultKind::Unsupported, detail: e.to_string() }
        }
    }
}

impl Evaluator for InferenceEvaluator {
    /// Legacy sentinel interface: failures map to the canonical
    /// infeasible-shaped result ([`EvalFailure::sentinel`]) — which is
    /// **never** memoized as a result (the classified failure is cached
    /// instead), so sentinels can no longer leak into memo caches,
    /// result stores or CSV rows.
    fn evaluate(&mut self, point: &DesignPoint) -> EvalResult {
        self.try_evaluate(point).unwrap_or_else(|_| EvalFailure::sentinel())
    }

    fn try_evaluate(&mut self, point: &DesignPoint) -> Result<EvalResult, EvalFailure> {
        if let Some(hit) = self.cache.get(point) {
            return Ok(*hit);
        }
        if let Some(failure) = self.failed.get(point) {
            return Err(failure.clone());
        }
        let fabric = cfu_soc::SocFeatures::default().resources();
        let resources = point.resources() + fabric;
        let fits = resources.fits_within(&self.board.budget);
        let outcome = match self.retime.clone() {
            Some(store) => self.evaluate_retimed(&store, point, resources),
            None => self
                .execute_point(point, resources, false)
                .map(|(latency, energy_uj, _)| (latency, energy_uj)),
        };
        match outcome {
            Ok((latency, energy_uj)) => {
                let result = EvalResult { latency, resources, fits, energy_uj, aux: 0 };
                self.cache.insert(*point, result);
                Ok(result)
            }
            Err(failure) => {
                self.failed.insert(*point, failure.clone());
                Err(failure)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignSpace;
    use cfu_tflm::models;

    #[test]
    fn resource_evaluator_orders_features_sensibly() {
        let space = DesignSpace::small();
        let mut eval = ResourceEvaluator::new(100_000);
        // A point with caches + fast multiplier beats one without.
        let slow = space.point(0); // first point: no caches, iterative mul
        let mut results = Vec::new();
        for i in 0..space.size() {
            results.push((i, eval.evaluate(&space.point(i))));
        }
        let slow_result = eval.evaluate(&slow);
        let best = results.iter().map(|(_, r)| r.latency).min().unwrap();
        assert!(best < slow_result.latency);
        // CFU1 points dominate the latency tail.
        let best_point = results.iter().min_by_key(|(_, r)| r.latency).unwrap();
        assert_eq!(space.point(best_point.0).cfu, CfuChoice::Cfu1);
    }

    #[test]
    fn inference_evaluator_runs_and_caches() {
        let model = models::tiny_test_net(1);
        let input = models::synthetic_input(&model, 2);
        let mut eval = InferenceEvaluator::new(cfu_soc::Board::arty_a7_35t(), model, input);
        let space = DesignSpace::small();
        let p = space.point(space.size() - 1);
        let a = eval.evaluate(&p);
        let b = eval.evaluate(&p);
        assert_eq!(a, b);
        assert!(a.latency > 0 && a.latency < u64::MAX);
        assert!(a.fits);
    }

    #[test]
    fn cfu_choice_changes_latency_and_area() {
        let model = models::tiny_test_net(3);
        let input = models::synthetic_input(&model, 4);
        let mut eval = InferenceEvaluator::new(cfu_soc::Board::arty_a7_35t(), model, input);
        let space = DesignSpace::small();
        // Pin a matched pair: identical CPU configuration, differing only
        // in the attached CFU, so the comparison isolates the CFU itself.
        let mut pair = None;
        'outer: for i in 0..space.size() {
            let base = space.point(i);
            if base.cfu != CfuChoice::None {
                continue;
            }
            for j in 0..space.size() {
                let cand = space.point(j);
                if cand.cfu == CfuChoice::Cfu1 && cand.cpu == base.cpu {
                    pair = Some((base, cand));
                    break 'outer;
                }
            }
        }
        let (a, b) = pair.expect("small space pairs every CPU config with every CFU");
        assert_eq!(a.cpu, b.cpu, "pair must differ only in CFU choice");
        let ra = eval.evaluate(&a);
        let rb = eval.evaluate(&b);
        assert!(rb.resources.luts > ra.resources.luts, "CFU1 costs area");
        assert!(rb.latency < ra.latency, "CFU1 accelerates the conv workload");
    }

    #[test]
    fn retimed_evaluation_matches_execute_mode_bit_exactly() {
        let model = std::sync::Arc::new(models::tiny_test_net(3));
        let input = std::sync::Arc::new(models::synthetic_input(&model, 4));
        let board = cfu_soc::Board::arty_a7_35t();
        let mut plain =
            InferenceEvaluator::with_shared(board.clone(), Arc::clone(&model), Arc::clone(&input));
        let mut retimed = InferenceEvaluator::with_shared(board, model, input);
        let store = Arc::new(TraceStore::new());
        retimed.set_trace_store(Some(Arc::clone(&store)));
        let space = DesignSpace::small();
        // A stride that still visits every CFU choice several times.
        for i in (0..space.size()).step_by(5) {
            let p = space.point(i);
            assert_eq!(retimed.evaluate(&p), plain.evaluate(&p), "point {i} diverged");
        }
        // One capture per CFU choice; every other point replayed.
        assert_eq!(store.captures(), 3);
        assert_eq!(store.capturing(), 0);
        assert!(store.replays() > 0, "replay path never taken");
    }

    /// Everything a replay must reproduce of an execute-mode run: core
    /// statistics, per-layer cycles, per-region traffic, both caches'
    /// statistics and the energy estimate's bits.
    #[derive(Debug, PartialEq)]
    struct Observed {
        stats: cfu_sim::TlmStats,
        layers: Vec<u64>,
        regions: Vec<cfu_mem::DeviceStats>,
        icache: Option<cfu_mem::CacheStats>,
        dcache: Option<cfu_mem::CacheStats>,
        energy_bits: u64,
    }

    fn observe(core: &cfu_sim::TimedCore, point: &DesignPoint, layers: Vec<u64>) -> Observed {
        let resources = point.resources() + cfu_soc::SocFeatures::default().resources();
        let params = cfu_sim::energy::default_params_for(&point.cpu);
        let energy = cfu_sim::energy::estimate_core(core, resources, &params);
        Observed {
            stats: core.stats(),
            layers,
            regions: core.bus().regions().map(|(id, _)| core.bus().stats(id)).collect(),
            icache: core.icache_stats(),
            dcache: core.dcache_stats(),
            energy_bits: energy.total_uj().to_bits(),
        }
    }

    /// Runs `point` in execute mode on MobileNetV2 8x8 over the Arty
    /// board, capturing its trace when asked.
    fn execute(
        eval: &InferenceEvaluator,
        point: &DesignPoint,
        capture: bool,
    ) -> (Observed, Option<Trace>) {
        let (_, cfu) = InferenceEvaluator::kernels_for(point.cfu);
        let bus = eval.board.build_bus(None);
        let mut dep =
            Deployment::new(Arc::clone(&eval.model), bus, cfu, &eval.deploy_config(point))
                .expect("MobileNetV2 8x8 deploys on Arty");
        let (profile, trace) = if capture {
            let (_, profile, trace) = dep.run_captured(&eval.input).expect("capture runs");
            (profile, Some(trace))
        } else {
            (dep.run(&eval.input).expect("execute runs").1, None)
        };
        let layers = profile.entries().iter().map(|l| l.cycles).collect();
        (observe(dep.core(), point, layers), trace)
    }

    fn mnv2_evaluator() -> InferenceEvaluator {
        let model = models::mobilenet_v2(8, 2, 1);
        let input = models::synthetic_input(&model, 5);
        InferenceEvaluator::new(cfu_soc::Board::arty_a7_35t(), model, input)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2))]
        /// For random paper-scale points of every CFU choice, replaying
        /// the CFU's trace with shared profiles, replaying it on its own
        /// and executing the point agree on everything observable. The
        /// second point of each pair reuses the first one's cache
        /// geometry, so its memory profile comes from the store.
        #[test]
        fn shared_replay_equals_one_shot_replay_and_execution(
            picks in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 3..4)
        ) {
            let eval = mnv2_evaluator();
            let space = DesignSpace::paper_scale();
            let store = TraceStore::new();
            let choices = [CfuChoice::None, CfuChoice::Cfu1, CfuChoice::Cfu2];
            for (choice, &(a, b)) in choices.into_iter().zip(&picks) {
                let capture = DesignPoint { cpu: cfu_sim::CpuConfig::arty_default(), cfu: choice };
                let trace = execute(&eval, &capture, true).1.expect("captured");
                let first = DesignPoint { cfu: choice, ..space.point(space.random_index(a)) };
                let second = space.point(space.random_index(b)).cpu;
                let second = DesignPoint {
                    cpu: cfu_sim::CpuConfig { icache: first.cpu.icache, dcache: first.cpu.dcache, ..second },
                    cfu: choice,
                };
                for point in [first, second] {
                    let executed = execute(&eval, &point, false).0;
                    let mut one_shot = TraceReplayer::new(point.cpu, eval.board.build_bus(None));
                    let alone = one_shot.replay(&trace).expect("one-shot replay");
                    let mut shared = TraceReplayer::new(point.cpu, eval.board.build_bus(None));
                    let summary = store.replay(choice, &trace, &mut shared).expect("shared replay");
                    proptest::prop_assert_eq!(&summary, &alone, "{:?}", point);
                    let what = format!("{point:?}");
                    proptest::prop_assert_eq!(
                        &observe(one_shot.core(), &point, alone.layer_cycles()), &executed, "{}", what
                    );
                    proptest::prop_assert_eq!(
                        &observe(shared.core(), &point, summary.layer_cycles()), &executed, "{}", what
                    );
                }
            }
            // The second point of every pair reused the first's geometry.
            proptest::prop_assert_eq!(store.memory_passes(), 3);
        }
    }

    #[test]
    fn profiles_bind_to_the_first_bus() {
        let eval = mnv2_evaluator();
        let point = DesignPoint { cpu: cfu_sim::CpuConfig::arty_default(), cfu: CfuChoice::None };
        let trace = execute(&eval, &point, true).1.expect("captured");
        let store = TraceStore::new();
        let mut arty = TraceReplayer::new(point.cpu, eval.board.build_bus(None));
        let on_arty = store.replay(point.cfu, &trace, &mut arty).expect("replays on Arty");
        // The same address map with SRAM as main memory: the Arty
        // profiles do not describe it, so the store replays it alone.
        let mut sram_main = cfu_soc::Board::arty_a7_35t();
        for memory in &mut sram_main.memories {
            if let cfu_soc::MemorySpec::Ddr3 { name, base, size } = *memory {
                *memory = cfu_soc::MemorySpec::Sram { name, base, size };
            }
        }
        let mut other = TraceReplayer::new(point.cpu, sram_main.build_bus(None));
        let shared = store.replay(point.cfu, &trace, &mut other).expect("replays on SRAM");
        let alone = TraceReplayer::new(point.cpu, sram_main.build_bus(None)).replay(&trace);
        assert_eq!(Ok(&shared), alone.as_ref());
        assert_ne!(shared, on_arty);
        assert_eq!((store.memory_passes(), store.branch_passes()), (1, 1));
    }

    #[test]
    fn evaluator_shares_model_without_copying_weights() {
        let model = std::sync::Arc::new(models::tiny_test_net(1));
        let input = models::synthetic_input(&model, 2);
        let mut eval = InferenceEvaluator::new(
            cfu_soc::Board::arty_a7_35t(),
            std::sync::Arc::clone(&model),
            input,
        );
        // Pointer identity: the evaluator holds the caller's allocation.
        assert!(std::sync::Arc::ptr_eq(eval.model_arc(), &model));
        let baseline = std::sync::Arc::strong_count(&model);
        let space = DesignSpace::small();
        let _ = eval.evaluate(&space.point(0));
        let _ = eval.evaluate(&space.point(space.size() - 1));
        // Evaluations borrow the shared model transiently (refcount bumps)
        // but retain no copy afterwards.
        assert_eq!(std::sync::Arc::strong_count(&model), baseline);
        assert!(std::sync::Arc::ptr_eq(eval.model_arc(), &model));
    }
}
