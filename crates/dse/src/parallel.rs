//! Parallel batched design-point evaluation — the "at scale in the
//! cloud" leg of the paper's Figure-7 experiment, on one machine.
//!
//! [`ParallelStudy`] drives the same suggest/observe protocol as
//! [`Study`](crate::Study), but fans each suggestion batch out over a
//! [`std::thread::scope`] worker pool. Three design rules keep it exact:
//!
//! 1. **Same batch schedule.** Batches are [`SUGGEST_BATCH`]-sized for
//!    both drivers, so the optimizer sees an identical call sequence and
//!    reaches identical state regardless of thread count.
//! 2. **Merge in suggestion order.** Worker completion order never leaks
//!    into `observe_batch`, the Pareto archives or an attached result
//!    store, so fronts and store bytes are identical at 1, 2 or 8
//!    threads.
//! 3. **One evaluator per worker.** Evaluators stay single-threaded;
//!    an [`EvaluatorFactory`] mints a private instance per worker, and a
//!    [`MemoCache`] shared across workers (and batches) makes revisits
//!    free; its lock is held only for a map probe, never during a
//!    simulation. Workers are only started for points the cache cannot
//!    answer, so a fully memoized batch starts none.

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use cfu_soc::Board;
use cfu_tflm::model::Model;
use cfu_tflm::tensor::Tensor;

use crate::eval::{EvalResult, Evaluator, InferenceEvaluator, TraceStore};
use crate::fault::{EvalFailure, FailureClass, FaultDomain, RetryPolicy, StudyReport};
use crate::optimizer::{record_result, Optimizer, SUGGEST_BATCH};
use crate::pareto::ParetoArchive;
use crate::space::{DesignPoint, DesignSpace, SearchSpace};
use crate::store::{StoreKey, StoreSink, StudyStore};

/// Mints one evaluator per worker thread.
///
/// The factory itself is shared by reference across the worker pool
/// (hence `Sync`); the evaluators it creates live and die on one thread
/// each and need no synchronization of their own. Generic over the
/// candidate type `P` (default [`DesignPoint`]) so ladder harnesses can
/// pool their own evaluators.
pub trait EvaluatorFactory<P = DesignPoint>: Sync {
    /// The evaluator type produced for each worker.
    type Eval: Evaluator<P>;

    /// Creates a fresh evaluator (called once per worker per run).
    fn make_evaluator(&self) -> Self::Eval;
}

/// Any `Fn() -> impl Evaluator` closure is a factory.
impl<P, E: Evaluator<P>, F: Fn() -> E + Sync> EvaluatorFactory<P> for F {
    type Eval = E;
    fn make_evaluator(&self) -> E {
        self()
    }
}

/// Factory for [`InferenceEvaluator`] workers sharing one model: the
/// board description is cloned (plain data), while the model weights and
/// the input tensor are shared by [`Arc`] — spawning eight workers costs
/// eight reference-count bumps, not eight copies of MobileNetV2.
#[derive(Debug, Clone)]
pub struct InferenceEvaluatorFactory {
    board: Board,
    model: Arc<Model>,
    input: Arc<Tensor>,
    retime: Option<Arc<TraceStore>>,
    cycle_budget: Option<u64>,
}

impl InferenceEvaluatorFactory {
    /// Creates the factory; `model` and `input` may be bare values or
    /// existing [`Arc`] handles shared with other factories.
    pub fn new(board: Board, model: impl Into<Arc<Model>>, input: impl Into<Arc<Tensor>>) -> Self {
        InferenceEvaluatorFactory {
            board,
            model: model.into(),
            input: input.into(),
            retime: None,
            cycle_budget: None,
        }
    }

    /// Sets a guest cycle watchdog on every minted evaluator: a run that
    /// exceeds `budget` cycles fails with
    /// [`EvalFailure::BudgetExhausted`](crate::EvalFailure) instead of
    /// burning the rest of the sweep's wall clock. `None` disables.
    pub fn with_cycle_budget(mut self, budget: Option<u64>) -> Self {
        self.cycle_budget = budget;
        self
    }

    /// Enables (or disables) trace-capture + retime-only replay: with
    /// `enabled`, every evaluator minted by this factory shares one
    /// [`TraceStore`], so the guest executes once per [`CfuChoice`] and
    /// all other points under that choice replay the captured trace
    /// through timing-only machinery. Off by default.
    ///
    /// [`CfuChoice`]: crate::CfuChoice
    pub fn with_retime(mut self, enabled: bool) -> Self {
        self.retime = enabled.then(|| Arc::new(TraceStore::new()));
        self
    }

    /// The shared trace store, when retime mode is enabled — poll its
    /// counters for "capturing trace…" progress readouts.
    pub fn trace_store(&self) -> Option<&Arc<TraceStore>> {
        self.retime.as_ref()
    }

    /// The shared model handle (for pointer-identity assertions).
    pub fn model_arc(&self) -> &Arc<Model> {
        &self.model
    }
}

impl EvaluatorFactory for InferenceEvaluatorFactory {
    type Eval = InferenceEvaluator;
    fn make_evaluator(&self) -> InferenceEvaluator {
        let mut eval = InferenceEvaluator::with_shared(
            self.board.clone(),
            Arc::clone(&self.model),
            Arc::clone(&self.input),
        );
        eval.set_trace_store(self.retime.clone());
        eval.set_cycle_budget(self.cycle_budget);
        eval
    }
}

/// A concurrent memoization cache for design-point evaluations.
///
/// Keyed by the full point (not its hash), so two points can never
/// alias each other's results. One lock guards the map; it is held for a
/// probe or an insert, never while a point simulates. Generic over the
/// candidate type `P` (default [`DesignPoint`]).
///
/// The cache is in-memory and per-study; to persist results across
/// processes, attach a [`StudyStore`](crate::StudyStore), which
/// hydrates this cache from disk at study startup.
///
/// # Example
///
/// ```
/// use cfu_dse::{DesignSpace, Evaluator, MemoCache, ResourceEvaluator};
///
/// let space = DesignSpace::small();
/// let cache = MemoCache::new();
/// let point = space.point(7);
/// assert_eq!(cache.get(&point), None);
/// let result = ResourceEvaluator::new(1_000_000).evaluate(&point);
/// cache.insert(point, result);
/// // The revisit is a pure lookup.
/// assert_eq!(cache.get(&point), Some(result));
/// assert_eq!(cache.len(), 1);
/// ```
#[derive(Debug)]
pub struct MemoCache<P = DesignPoint> {
    map: Mutex<HashMap<P, EvalResult>>,
}

impl<P> Default for MemoCache<P> {
    fn default() -> Self {
        MemoCache { map: Mutex::new(HashMap::new()) }
    }
}

impl<P: Copy + Eq + Hash> MemoCache<P> {
    /// An empty cache.
    pub fn new() -> Self {
        MemoCache::default()
    }

    // Poison recovery: a `HashMap` is never left mid-mutation by a panic
    // in the caller (inserts are single calls), so a panicked worker must
    // not take the whole cache down with it.
    fn map(&self) -> MutexGuard<'_, HashMap<P, EvalResult>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a previously inserted result.
    pub fn get(&self, point: &P) -> Option<EvalResult> {
        self.map().get(point).copied()
    }

    /// Inserts (or overwrites) a result.
    pub fn insert(&self, point: P, result: EvalResult) {
        self.map().insert(point, result);
    }

    /// Number of distinct points cached.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A Vizier-style study whose evaluation rounds saturate a worker pool.
///
/// Apart from `run` taking an [`EvaluatorFactory`] and a thread count,
/// the API mirrors [`Study`](crate::Study) — and so do the results:
/// fronts are bit-identical to the serial driver for every thread count.
///
/// # Example
///
/// ```
/// use cfu_dse::{DesignSpace, ParallelStudy, RandomSearch, ResourceEvaluator, Study};
///
/// let space = DesignSpace::small();
/// // Serial reference run...
/// let mut serial = Study::new(space.clone(), RandomSearch::new(7));
/// let mut eval = ResourceEvaluator::new(1_000_000);
/// serial.run(&mut eval, 48);
/// // ...and the same exploration fanned out over 4 workers: the
/// // closure mints one private evaluator per worker.
/// let mut parallel = ParallelStudy::new(space, RandomSearch::new(7), 4);
/// parallel.run(&|| ResourceEvaluator::new(1_000_000), 48);
/// assert_eq!(parallel.archive().front(), serial.archive().front());
/// ```
#[derive(Debug)]
pub struct ParallelStudy<O, S: SearchSpace = DesignSpace> {
    space: S,
    optimizer: O,
    archive: ParetoArchive<S::Point>,
    energy_archive: ParetoArchive<S::Point>,
    cache: MemoCache<S::Point>,
    /// Workers per batch; `None` runs one per available core.
    threads: Option<usize>,
    progress: Option<Arc<AtomicU64>>,
    store: Option<Arc<dyn StoreSink<S::Point>>>,
    faults: FaultDomain<S::Point>,
}

impl<S: SearchSpace, O: Optimizer<S>> ParallelStudy<O, S> {
    /// Creates a study over `space` using `optimizer`, evaluating on
    /// `threads` workers (clamped to at least 1).
    pub fn new(space: S, optimizer: O, threads: usize) -> Self {
        Self::with_workers(space, optimizer, Some(threads.max(1)))
    }

    /// As [`new`](Self::new) for `Some(threads)`; `None` evaluates on
    /// one worker per available core. The core count is looked up only
    /// for a batch with two or more points to simulate, so a fully
    /// memoized run spawns nothing.
    pub fn with_workers(space: S, optimizer: O, threads: Option<usize>) -> Self {
        ParallelStudy {
            space,
            optimizer,
            archive: ParetoArchive::new(),
            energy_archive: ParetoArchive::new(),
            cache: MemoCache::new(),
            threads: threads.map(|n| n.max(1)),
            progress: None,
            store: None,
            faults: FaultDomain::new(RetryPolicy::default()),
        }
    }

    /// Sets the retry/quarantine policy applied by subsequent `run`
    /// calls (see [`RetryPolicy`]).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.faults.set_policy(policy);
    }

    /// Snapshot of this study's failure-handling accounting: attempts,
    /// retries, per-class failure counts and the quarantine set.
    pub fn report(&self) -> StudyReport<S::Point> {
        self.faults.report()
    }

    /// Attaches a shared counter that `run` increments once per
    /// evaluated point (memo hits included), so callers can observe a
    /// long sweep from another thread — the per-study progress readout
    /// behind `fig7_dse_pareto`'s live counters. Purely observational:
    /// results are unaffected.
    pub fn attach_progress(&mut self, counter: Arc<AtomicU64>) {
        self.progress = Some(counter);
    }

    /// Attaches a persistent [`StudyStore`]: in resume mode every prior
    /// result under the study's context hydrates the memo cache right
    /// now (so known points never reach the evaluator) and every
    /// *permanent* failure tombstone seeds the quarantine set (so known
    /// infeasible points are skipped, while transient failures like a
    /// panicked worker are re-evaluated); in every mode each freshly
    /// simulated point — and each freshly quarantined one — is appended
    /// back to the store at each batch merge, in suggestion order, and
    /// flushed once per batch. Purely
    /// observational for the search itself: fronts are byte-identical
    /// with or without a store.
    pub fn attach_store(&mut self, store: Arc<StudyStore<S::Point>>)
    where
        S::Point: StoreKey + 'static,
    {
        store.hydrate_into(&self.cache);
        for (point, failure) in store.permanent_tombstones() {
            self.faults.seed_known_infeasible(point, failure);
        }
        self.store = Some(store);
    }

    /// The design space.
    pub fn space(&self) -> &S {
        &self.space
    }

    /// Worker count used by `run`; `None` is one per available core.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The feasible Pareto archive accumulated so far.
    pub fn archive(&self) -> &ParetoArchive<S::Point> {
        &self.archive
    }

    /// The (energy, latency) Pareto archive.
    pub fn energy_archive(&self) -> &ParetoArchive<S::Point> {
        &self.energy_archive
    }

    /// The shared memo cache (observability: distinct points simulated).
    pub fn cache(&self) -> &MemoCache<S::Point> {
        &self.cache
    }

    /// Runs `trials` suggest→evaluate→observe rounds, fanning each
    /// [`SUGGEST_BATCH`]-sized round out over the worker pool and merging
    /// results back in suggestion order. Failing points are retried and
    /// quarantined per the [`RetryPolicy`]; under a fail-fast policy the
    /// study stops at the first batch boundary after a quarantine (never
    /// mid-batch, so the stopping point is schedule-independent).
    pub fn run<F: EvaluatorFactory<S::Point>>(&mut self, factory: &F, trials: u64) {
        let mut remaining = trials;
        while remaining > 0 {
            let n = remaining.min(SUGGEST_BATCH as u64) as usize;
            let indices = self.optimizer.suggest_batch(&self.space, n);
            if indices.is_empty() {
                break;
            }
            let points: Vec<S::Point> = indices.iter().map(|&i| self.space.point(i)).collect();
            let results = evaluate_batch(
                &points,
                factory,
                &self.cache,
                self.threads,
                self.progress.as_deref(),
                self.store.as_deref(),
                &self.faults,
            );
            let batch: Vec<(u64, EvalResult)> = indices.iter().copied().zip(results).collect();
            self.optimizer.observe_batch(&batch);
            for ((index, result), point) in batch.iter().zip(&points) {
                debug_assert_eq!(*point, self.space.point(*index));
                record_result(&mut self.archive, &mut self.energy_archive, *point, result);
            }
            remaining -= batch.len() as u64;
            if let Some(store) = &self.store {
                store.flush_sink();
            }
            if self.faults.tripped() {
                break;
            }
        }
    }
}

/// Renders a caught panic payload for [`EvalFailure::Panicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What one batch slot came to.
enum Outcome {
    /// A memo hit or an already-quarantined point: nothing to record.
    Known(EvalResult),
    /// A freshly simulated result.
    Fresh(EvalResult),
    /// A point quarantined by this batch.
    Quarantined(EvalFailure),
}

impl Outcome {
    fn result(&self) -> EvalResult {
        match self {
            Outcome::Known(result) | Outcome::Fresh(result) => *result,
            Outcome::Quarantined(_) => EvalFailure::sentinel(),
        }
    }
}

/// One worker per core the process may use (1 when that is unknown).
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Evaluates one batch of points, returning results in input order.
/// Memo hits and already-quarantined points are answered up front; the
/// rest are simulated on `threads` workers (`None`: one per available
/// core), never more workers than points to simulate. A batch with
/// nothing to simulate builds no evaluator and spawns no thread, and
/// the core count is looked up only when two or more points need
/// simulating. Workers pull work items off a shared atomic cursor so
/// an expensive point never stalls the rest of the batch behind it, and
/// each builds its evaluator when it first needs one.
///
/// Each evaluation is its own fault domain: `try_evaluate` runs under
/// [`catch_unwind`], a panicked evaluator is rebuilt from the factory,
/// transient failures are retried up to the [`RetryPolicy`] bound, and a
/// point that still fails is quarantined in `faults` (its slot observes
/// the canonical sentinel, which optimizers already treat as
/// infeasible). The batch is deduplicated up front so each distinct
/// point is evaluated exactly once per batch — retry accounting keys off
/// the point, never off worker scheduling, keeping outcomes bit-
/// identical at any thread count.
///
/// `progress` (when supplied) is bumped once per completed point (memo
/// hits and duplicates included); `store` (when supplied) records each
/// *freshly computed* result or quarantine tombstone at merge time, in
/// suggestion order, so the store's bytes do not depend on the schedule
/// either — memo hits, including store-hydrated ones, are never
/// re-recorded.
fn evaluate_batch<P, F>(
    points: &[P],
    factory: &F,
    cache: &MemoCache<P>,
    threads: Option<usize>,
    progress: Option<&AtomicU64>,
    store: Option<&dyn StoreSink<P>>,
    faults: &FaultDomain<P>,
) -> Vec<EvalResult>
where
    P: Copy + Eq + Hash + Send + Sync,
    F: EvaluatorFactory<P>,
{
    // Dedupe to first-occurrence order: each distinct point is evaluated
    // exactly once per batch, so two workers can never race the per-point
    // fault/retry accounting for the same point.
    let mut order: HashMap<P, usize> = HashMap::new();
    let mut unique: Vec<P> = Vec::new();
    let mut multiplicity: Vec<u64> = Vec::new();
    let slots: Vec<usize> = points
        .iter()
        .map(|p| {
            let idx = *order.entry(*p).or_insert_with(|| {
                unique.push(*p);
                multiplicity.push(0);
                unique.len() - 1
            });
            multiplicity[idx] += 1;
            idx
        })
        .collect();
    let tick = |idx: usize| {
        if let Some(counter) = progress {
            counter.fetch_add(multiplicity[idx], Ordering::Relaxed);
        }
    };
    let outcomes: Vec<OnceLock<Outcome>> = unique.iter().map(|_| OnceLock::new()).collect();
    let mut pending: Vec<usize> = Vec::new();
    for (idx, point) in unique.iter().enumerate() {
        let known = match cache.get(point) {
            Some(hit) => hit,
            None if faults.quarantined(point).is_some() => EvalFailure::sentinel(),
            None => {
                pending.push(idx);
                continue;
            }
        };
        let _ = outcomes[idx].set(Outcome::Known(known));
        tick(idx);
    }
    // One point's full evaluate→classify→retry→quarantine lifecycle, on
    // the worker's evaluator (built on first use).
    let eval_one = |evaluator: &mut Option<F::Eval>, idx: usize| -> Outcome {
        let point = &unique[idx];
        let mut attempt = 0u32;
        let outcome = loop {
            let live = evaluator.get_or_insert_with(|| factory.make_evaluator());
            faults.note_attempt();
            let outcome = catch_unwind(AssertUnwindSafe(|| live.try_evaluate(point)));
            let failure = match outcome {
                Ok(Ok(result)) if result.latency != u64::MAX && !result.energy_uj.is_nan() => {
                    faults.note_success();
                    cache.insert(*point, result);
                    break Outcome::Fresh(result);
                }
                // A nominal success carrying the legacy sentinel latency
                // or NaN energy would poison archives and the store.
                Ok(Ok(_)) => EvalFailure::CorruptResult,
                Ok(Err(failure)) => failure,
                Err(payload) => {
                    // The evaluator may be mid-mutation after the unwind;
                    // rebuild it so the fault stays confined to this point.
                    *evaluator = None;
                    EvalFailure::Panicked(panic_message(payload.as_ref()))
                }
            };
            faults.note_failure(&failure);
            if failure.class() == FailureClass::Transient && attempt < faults.policy().max_retries {
                attempt += 1;
                faults.note_retry();
                continue;
            }
            faults.quarantine(*point, failure.clone());
            break Outcome::Quarantined(failure);
        };
        tick(idx);
        outcome
    };
    let workers = match pending.len() {
        0 | 1 => 1,
        n => threads.unwrap_or_else(available_cores).clamp(1, n),
    };
    if workers > 1 {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut evaluator = None;
                        while let Some(&idx) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                            let _ = outcomes[idx].set(eval_one(&mut evaluator, idx));
                        }
                    })
                })
                .collect();
            for handle in handles {
                // A worker that dies outright (a panic escaping even the
                // per-point catch_unwind, e.g. in the factory itself)
                // does not take the study down: finished points keep
                // their slots, and its unfilled ones are rescheduled
                // below.
                let _ = handle.join();
            }
        });
    }
    // The merge, in suggestion order. Serial batches simulate here, and
    // so do the slots a dead worker left unfilled.
    let mut evaluator = None;
    let results: Vec<EvalResult> = outcomes
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| {
            let outcome = slot.into_inner().unwrap_or_else(|| eval_one(&mut evaluator, idx));
            let point = &unique[idx];
            match (&outcome, store) {
                (Outcome::Fresh(result), Some(sink)) => sink.record(point, result),
                (Outcome::Quarantined(failure), Some(sink)) => sink.record_failure(point, failure),
                _ => {}
            }
            outcome.result()
        })
        .collect();
    slots.iter().map(|&idx| results[idx]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::ResourceEvaluator;
    use crate::optimizer::{RandomSearch, RegularizedEvolution};

    #[test]
    fn memo_cache_counts_distinct_points_only() {
        let space = DesignSpace::small();
        let mut study = ParallelStudy::new(space, RandomSearch::new(9), 4);
        study.run(&|| ResourceEvaluator::new(1_000_000), 300);
        // 300 trials over a 96-point space must revisit heavily.
        assert!(study.cache().len() <= 96, "cached {}", study.cache().len());
        assert!(!study.cache().is_empty());
    }

    #[test]
    fn closure_factories_work() {
        let space = DesignSpace::small();
        let mut study = ParallelStudy::new(space, RegularizedEvolution::new(5, 8, 3), 2);
        study.run(&|| ResourceEvaluator::new(1_000_000), 64);
        assert!(!study.archive().front().is_empty());
    }

    /// Counts the evaluators it mints.
    struct CountingFactory(AtomicU64);

    impl EvaluatorFactory for CountingFactory {
        type Eval = ResourceEvaluator;
        fn make_evaluator(&self) -> ResourceEvaluator {
            self.0.fetch_add(1, Ordering::Relaxed);
            ResourceEvaluator::new(1_000_000)
        }
    }

    #[test]
    fn a_memoized_batch_builds_no_evaluator() {
        let space = DesignSpace::small();
        for threads in [Some(4), None] {
            let mut study =
                ParallelStudy::with_workers(space.clone(), RandomSearch::new(3), threads);
            let mut eval = ResourceEvaluator::new(1_000_000);
            for i in 0..space.size() {
                let point = space.point(i);
                study.cache().insert(point, eval.evaluate(&point));
            }
            let factory = CountingFactory(AtomicU64::new(0));
            study.run(&factory, 64);
            assert_eq!(factory.0.load(Ordering::Relaxed), 0, "{threads:?}");
            assert_eq!(study.report().attempts, 0, "{threads:?}");
        }
    }

    #[test]
    fn a_single_miss_builds_a_single_evaluator() {
        let space = DesignSpace::small();
        let points: Vec<DesignPoint> = (0..16).map(|i| space.point(i)).collect();
        let cache = MemoCache::new();
        let mut eval = ResourceEvaluator::new(1_000_000);
        for point in &points[1..] {
            cache.insert(*point, eval.evaluate(point));
        }
        let faults = FaultDomain::new(RetryPolicy::default());
        let factory = CountingFactory(AtomicU64::new(0));
        // One miss in sixteen points: simulated inline, one evaluator.
        let results = evaluate_batch(&points, &factory, &cache, Some(8), None, None, &faults);
        assert_eq!(results[0], eval.evaluate(&points[0]));
        assert_eq!(factory.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn progress_counter_reaches_trial_count_at_any_thread_count() {
        for threads in [1, 4] {
            let counter = Arc::new(AtomicU64::new(0));
            let mut study = ParallelStudy::new(DesignSpace::small(), RandomSearch::new(3), threads);
            study.attach_progress(Arc::clone(&counter));
            study.run(&|| ResourceEvaluator::new(1_000_000), 100);
            // Every trial ticks the counter, memo hits included.
            assert_eq!(counter.load(Ordering::Relaxed), 100, "at {threads} threads");
        }
    }
}
