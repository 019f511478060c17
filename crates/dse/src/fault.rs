//! Fault-domain study execution: structured evaluation failures,
//! bounded deterministic retry, quarantine, and fault injection.
//!
//! A sweep over tens of thousands of design points *will* hit points
//! that cannot be evaluated — models that do not fit a region, guest
//! memory faults, runaway configurations, or a bug that panics one
//! worker. Before this module, any of those either aborted the whole
//! study or was silently memoized (and persisted!) as the sentinel
//! `(u64::MAX, ∞)`. Now every failed evaluation produces a classified
//! [`EvalFailure`], the worker pool isolates it to the one point that
//! caused it, a bounded retry policy re-runs transient classes, and the
//! study always completes with a [`StudyReport`] accounting for every
//! attempt.
//!
//! Determinism is preserved at any thread count because every decision
//! keys off the *point* (which fails deterministically, injected faults
//! included), never off scheduling order: the surviving Pareto front is
//! byte-identical at 1 and 8 threads even with faults firing.
//!
//! [`FaultPlan`] + [`FaultyEvaluator`] are the proof harness: they
//! inject panics, guest traps, corrupt results and torn store writes at
//! planned points/ordinals — no RNG anywhere — so the whole pipeline is
//! testable end to end.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cfu_core::Resources;

use crate::eval::{EvalResult, Evaluator};
use crate::parallel::EvaluatorFactory;

/// Which guest-side mechanism faulted during an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuestFaultKind {
    /// A simulated memory access faulted (unmapped, out of bounds,
    /// read-only, …).
    Mem,
    /// The guest hit an illegal/undecodable instruction.
    Illegal,
    /// The CFU rejected an op (protocol violation, unsupported funct).
    Cfu,
    /// A kernel cannot run the layer configuration it was handed.
    Unsupported,
}

impl GuestFaultKind {
    /// Stable lower-case label (used in reports and tombstones).
    pub fn label(self) -> &'static str {
        match self {
            GuestFaultKind::Mem => "mem",
            GuestFaultKind::Illegal => "illegal",
            GuestFaultKind::Cfu => "cfu",
            GuestFaultKind::Unsupported => "unsupported",
        }
    }
}

/// Why one design point's evaluation failed — the classified outcome
/// that replaces the old `(u64::MAX, ∞)` sentinel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EvalFailure {
    /// The point can structurally never run on this target (e.g. the
    /// model image does not fit any memory region).
    Infeasible(String),
    /// Deployment failed before the guest ran (bad model, missing
    /// region).
    Deploy(String),
    /// The guest ran and faulted.
    GuestFault {
        /// Faulting mechanism.
        kind: GuestFaultKind,
        /// Human-readable detail (source error rendering).
        detail: String,
    },
    /// The evaluation watchdog tripped: the run exceeded the configured
    /// guest cycle budget.
    BudgetExhausted {
        /// Cycles consumed when the watchdog fired.
        cycles: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The evaluator itself panicked; the worker caught the unwind and
    /// rebuilt its evaluator from the factory.
    Panicked(String),
    /// The evaluator returned a sentinel-shaped or non-finite result
    /// (`latency == u64::MAX` or NaN energy) — never stored, never
    /// archived.
    CorruptResult,
}

/// Retry classification of a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// May succeed on a re-run (host-side panic); retried up to
    /// [`RetryPolicy::max_retries`] times before quarantine.
    Transient,
    /// Deterministic for the point (deploy errors, guest faults, budget
    /// exhaustion): quarantined immediately, tombstoned as
    /// known-infeasible so resumed studies skip it.
    Permanent,
}

impl EvalFailure {
    /// Whether this failure class is worth retrying.
    pub fn class(&self) -> FailureClass {
        match self {
            EvalFailure::Panicked(_) => FailureClass::Transient,
            _ => FailureClass::Permanent,
        }
    }

    /// Stable short label for per-class counters and tombstones.
    pub fn label(&self) -> &'static str {
        match self {
            EvalFailure::Infeasible(_) => "infeasible",
            EvalFailure::Deploy(_) => "deploy",
            EvalFailure::GuestFault { .. } => "guest-fault",
            EvalFailure::BudgetExhausted { .. } => "budget-exhausted",
            EvalFailure::Panicked(_) => "panicked",
            EvalFailure::CorruptResult => "corrupt-result",
        }
    }

    /// The canonical infeasible-shaped [`EvalResult`] fed to optimizers
    /// for a failed point, so the batch protocol (and therefore the
    /// optimizer state sequence) is identical at any thread count. It is
    /// **never** memoized, archived, or persisted.
    pub fn sentinel() -> EvalResult {
        EvalResult {
            latency: u64::MAX,
            resources: Resources::ZERO,
            fits: false,
            energy_uj: f64::INFINITY,
            aux: 0,
        }
    }
}

impl fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalFailure::Infeasible(why) => write!(f, "infeasible: {why}"),
            EvalFailure::Deploy(why) => write!(f, "deploy error: {why}"),
            EvalFailure::GuestFault { kind, detail } => {
                write!(f, "guest fault ({}): {detail}", kind.label())
            }
            EvalFailure::BudgetExhausted { cycles, budget } => {
                write!(f, "budget exhausted: {cycles} cycles > {budget} budget")
            }
            EvalFailure::Panicked(msg) => write!(f, "evaluator panicked: {msg}"),
            EvalFailure::CorruptResult => write!(f, "corrupt result (sentinel-shaped)"),
        }
    }
}

impl std::error::Error for EvalFailure {}

/// How the worker pool handles failing evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first for *transient* failures
    /// (permanent classes are never retried).
    pub max_retries: u32,
    /// Stop the study at the first quarantined point instead of
    /// completing the remaining trials.
    pub fail_fast: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2, fail_fast: false }
    }
}

/// Per-study accounting of every evaluation attempt — how the study
/// completed, not just what it found.
#[derive(Debug, Clone)]
pub struct StudyReport<P> {
    /// Evaluation attempts, retries included.
    pub attempts: u64,
    /// Attempts that produced a valid result.
    pub succeeded: u64,
    /// Transient failures that were re-queued.
    pub retries: u64,
    /// Failure counts per class label (see [`EvalFailure::label`]).
    pub failures: BTreeMap<&'static str, u64>,
    /// Points that permanently failed, with their final failure, in
    /// first-quarantined order (scheduling-dependent across thread
    /// counts; the *set* is not).
    pub quarantined: Vec<(P, EvalFailure)>,
    /// `true` when a fail-fast policy stopped the study early.
    pub tripped: bool,
}

// Manual impl: the derive would demand `P: Default`, which candidate
// point types have no reason to provide.
impl<P> Default for StudyReport<P> {
    fn default() -> Self {
        StudyReport {
            attempts: 0,
            succeeded: 0,
            retries: 0,
            failures: BTreeMap::new(),
            quarantined: Vec::new(),
            tripped: false,
        }
    }
}

impl<P> StudyReport<P> {
    /// Total failed attempts across all classes.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// `true` when the study produced not a single valid result despite
    /// attempting evaluations — the only condition sweep binaries treat
    /// as a fatal (nonzero-exit) outcome.
    pub fn total_failure(&self) -> bool {
        self.attempts > 0 && self.succeeded == 0
    }

    /// One-line human summary (the `faults:` line sweep binaries print).
    pub fn render(&self) -> String {
        if self.failed() == 0 && self.quarantined.is_empty() {
            return format!("faults: none ({} evaluation(s) clean)", self.succeeded);
        }
        let classes = self
            .failures
            .iter()
            .map(|(label, n)| format!("{label} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let mut line = format!(
            "faults: {} failed attempt(s) ({classes}), {} retried, {} point(s) quarantined",
            self.failed(),
            self.retries,
            self.quarantined.len()
        );
        if self.tripped {
            line.push_str(" [fail-fast: stopped early]");
        }
        line
    }

    /// Folds `other` into `self` (multi-curve drivers aggregate one
    /// report per curve).
    pub fn merge(&mut self, other: &StudyReport<P>)
    where
        P: Clone,
    {
        self.attempts += other.attempts;
        self.succeeded += other.succeeded;
        self.retries += other.retries;
        for (label, n) in &other.failures {
            *self.failures.entry(label).or_insert(0) += n;
        }
        self.quarantined.extend(other.quarantined.iter().cloned());
        self.tripped |= other.tripped;
    }
}

fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // Poison recovery: all guarded state here is valid after any unwind
    // (plain maps mutated by single inserts), so a panicked worker must
    // not cascade into unrelated bookkeeping.
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Shared fault-handling state of one study: the retry policy, the
/// quarantine set, and the counters a [`StudyReport`] snapshots.
///
/// Held by `ParallelStudy` and consulted by the worker pool for every
/// evaluation. All decisions key off the point, so the observable
/// outcome is schedule-independent.
#[derive(Debug, Default)]
pub(crate) struct FaultDomain<P> {
    policy: RetryPolicy,
    quarantine: Mutex<HashMap<P, EvalFailure>>,
    /// First-quarantine order for the report (the set, not the order,
    /// is deterministic across thread counts).
    quarantine_order: Mutex<Vec<P>>,
    failures: Mutex<BTreeMap<&'static str, u64>>,
    attempts: AtomicU64,
    succeeded: AtomicU64,
    retries: AtomicU64,
    tripped: AtomicBool,
}

impl<P: Copy + Eq + Hash> FaultDomain<P> {
    pub(crate) fn new(policy: RetryPolicy) -> Self {
        FaultDomain {
            policy,
            quarantine: Mutex::new(HashMap::new()),
            quarantine_order: Mutex::new(Vec::new()),
            failures: Mutex::new(BTreeMap::new()),
            attempts: AtomicU64::new(0),
            succeeded: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
        }
    }

    pub(crate) fn policy(&self) -> RetryPolicy {
        self.policy
    }

    pub(crate) fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// The recorded failure for a quarantined point, if any.
    pub(crate) fn quarantined(&self, point: &P) -> Option<EvalFailure> {
        recover(self.quarantine.lock()).get(point).cloned()
    }

    /// Quarantines `point` (first failure wins), recording it for the
    /// report.
    pub(crate) fn quarantine(&self, point: P, failure: EvalFailure) {
        let mut map = recover(self.quarantine.lock());
        if map.contains_key(&point) {
            return;
        }
        map.insert(point, failure);
        drop(map);
        recover(self.quarantine_order.lock()).push(point);
        if self.policy.fail_fast {
            self.tripped.store(true, Ordering::Relaxed);
        }
    }

    /// Seeds the quarantine set from persisted tombstones (resume mode)
    /// without touching the report counters: the point is only reported
    /// if this run actually encounters it.
    pub(crate) fn seed_known_infeasible(&self, point: P, failure: EvalFailure) {
        recover(self.quarantine.lock()).entry(point).or_insert(failure);
    }

    pub(crate) fn note_attempt(&self) {
        self.attempts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_success(&self) {
        self.succeeded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_failure(&self, failure: &EvalFailure) {
        *recover(self.failures.lock()).entry(failure.label()).or_insert(0) += 1;
    }

    /// `true` once a fail-fast policy has quarantined a point.
    pub(crate) fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    /// Snapshots the current report.
    pub(crate) fn report(&self) -> StudyReport<P> {
        let map = recover(self.quarantine.lock());
        let quarantined = recover(self.quarantine_order.lock())
            .iter()
            .filter_map(|p| map.get(p).map(|f| (*p, f.clone())))
            .collect();
        StudyReport {
            attempts: self.attempts.load(Ordering::Relaxed),
            succeeded: self.succeeded.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            failures: recover(self.failures.lock()).clone(),
            quarantined,
            tripped: self.tripped(),
        }
    }
}

/// Stable per-process fingerprint of a candidate point, used to address
/// [`FaultPlan`] entries. (`DefaultHasher::new()` is deterministic
/// within one process — plans and the points they target are always
/// built by the same process, typically the same test.)
pub fn fault_key<P: Hash>(point: &P) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    point.hash(&mut hasher);
    hasher.finish()
}

/// What a planned fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The evaluator panics (transient class: retried, then quarantined).
    Panic,
    /// The evaluator reports a guest memory fault (permanent class).
    GuestTrap,
    /// The evaluator returns a sentinel-shaped result, which the pool
    /// must classify as [`EvalFailure::CorruptResult`].
    CorruptResult,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "trap" => Some(FaultKind::GuestTrap),
            "corrupt" => Some(FaultKind::CorruptResult),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Planned {
    kind: FaultKind,
    /// How many evaluation attempts of the point fire the fault before
    /// it starts succeeding (`u32::MAX` = always).
    times: u32,
}

/// A deterministic fault-injection plan: which evaluations fail, how,
/// and how often. No RNG anywhere — faults are keyed by point
/// fingerprint ([`fault_key`]) or by global evaluation ordinal.
///
/// Point-keyed faults are deterministic at any thread count (the same
/// point always sees the same fault sequence); ordinal-keyed faults are
/// deterministic only single-threaded and exist for coarse smoke tests
/// ("some evaluation fails") like the `CFU_FAULT_PLAN` CI knob.
///
/// Torn-write entries fire on store *flush* ordinals and chop the given
/// number of bytes off the store file's tail after the flush — the
/// crash-mid-append simulation for resume tests.
#[derive(Debug, Default)]
pub struct FaultPlan {
    by_point: HashMap<u64, Planned>,
    by_ordinal: HashMap<u64, FaultKind>,
    torn_flushes: HashMap<u64, u64>,
    served: Mutex<HashMap<u64, u32>>,
    next_ordinal: AtomicU64,
    next_flush: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (nothing ever fires).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Plans `kind` for the point with [`fault_key`] `key`, firing on
    /// its first `times` evaluation attempts (`u32::MAX` = every
    /// attempt).
    #[must_use]
    pub fn fault_point(mut self, key: u64, kind: FaultKind, times: u32) -> Self {
        self.by_point.insert(key, Planned { kind, times });
        self
    }

    /// Plans a torn store write: after the `flush`-th sink flush
    /// (0-based), `bytes` are chopped off the store file's tail.
    #[must_use]
    pub fn torn_flush(mut self, flush: u64, bytes: u64) -> Self {
        self.torn_flushes.insert(flush, bytes);
        self
    }

    /// Parses the `CFU_FAULT_PLAN` environment knob: a comma-separated
    /// list of `kind@ordinal` entries, e.g. `"trap@3,panic@7,corrupt@9"`
    /// (kinds: `panic`, `trap`, `corrupt`).
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind, ordinal) =
                entry.split_once('@').ok_or_else(|| format!("bad fault entry `{entry}`"))?;
            let kind = FaultKind::parse(kind)
                .ok_or_else(|| format!("unknown fault kind `{kind}` in `{entry}`"))?;
            let ordinal: u64 =
                ordinal.parse().map_err(|_| format!("bad ordinal `{ordinal}` in `{entry}`"))?;
            plan.by_ordinal.insert(ordinal, kind);
        }
        Ok(plan)
    }

    /// `true` when nothing is planned (the wrapper becomes pass-through).
    pub fn is_empty(&self) -> bool {
        self.by_point.is_empty() && self.by_ordinal.is_empty() && self.torn_flushes.is_empty()
    }

    /// Consults the plan for one evaluation attempt of the point with
    /// fingerprint `key`. Point-keyed entries take precedence; every
    /// call consumes one global ordinal.
    pub fn next(&self, key: u64) -> Option<FaultKind> {
        let ordinal = self.next_ordinal.fetch_add(1, Ordering::Relaxed);
        if let Some(planned) = self.by_point.get(&key) {
            let mut served = recover(self.served.lock());
            let count = served.entry(key).or_insert(0);
            if *count < planned.times {
                *count = count.saturating_add(1);
                return Some(planned.kind);
            }
        }
        self.by_ordinal.get(&ordinal).copied()
    }

    /// Consumes one flush ordinal; returns the tail bytes to tear, if a
    /// torn write is planned for it.
    pub fn next_flush_tear(&self) -> Option<u64> {
        let flush = self.next_flush.fetch_add(1, Ordering::Relaxed);
        self.torn_flushes.get(&flush).copied()
    }
}

/// An [`Evaluator`] wrapper that injects the faults a [`FaultPlan`]
/// prescribes and otherwise delegates to the wrapped evaluator.
#[derive(Debug)]
pub struct FaultyEvaluator<E> {
    inner: E,
    plan: Arc<FaultPlan>,
}

impl<E> FaultyEvaluator<E> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: E, plan: Arc<FaultPlan>) -> Self {
        FaultyEvaluator { inner, plan }
    }
}

impl<P: Hash, E: Evaluator<P>> Evaluator<P> for FaultyEvaluator<E> {
    fn evaluate(&mut self, point: &P) -> EvalResult {
        self.try_evaluate(point).unwrap_or_else(|_| EvalFailure::sentinel())
    }

    fn try_evaluate(&mut self, point: &P) -> Result<EvalResult, EvalFailure> {
        let key = fault_key(point);
        match self.plan.next(key) {
            Some(FaultKind::Panic) => panic!("injected fault: panic at point {key:016x}"),
            Some(FaultKind::GuestTrap) => Err(EvalFailure::GuestFault {
                kind: GuestFaultKind::Mem,
                detail: format!("injected guest trap at point {key:016x}"),
            }),
            Some(FaultKind::CorruptResult) => Ok(EvalResult {
                latency: u64::MAX,
                resources: Resources::ZERO,
                fits: true,
                energy_uj: f64::NAN,
                aux: 0,
            }),
            None => self.inner.try_evaluate(point),
        }
    }
}

/// An [`EvaluatorFactory`] wrapper minting [`FaultyEvaluator`]s that
/// share one [`FaultPlan`] across the worker pool (so per-point fire
/// counts survive evaluator rebuilds after panics).
#[derive(Debug)]
pub struct FaultyFactory<F> {
    inner: F,
    plan: Arc<FaultPlan>,
}

impl<F> FaultyFactory<F> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: F, plan: Arc<FaultPlan>) -> Self {
        FaultyFactory { inner, plan }
    }

    /// The shared plan.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl<P: Hash, F: EvaluatorFactory<P>> EvaluatorFactory<P> for FaultyFactory<F> {
    type Eval = FaultyEvaluator<F::Eval>;

    fn make_evaluator(&self) -> Self::Eval {
        FaultyEvaluator::new(self.inner.make_evaluator(), Arc::clone(&self.plan))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::eval::ResourceEvaluator;
    use crate::space::DesignSpace;

    #[test]
    fn failure_classes_split_transient_from_permanent() {
        assert_eq!(EvalFailure::Panicked("x".into()).class(), FailureClass::Transient);
        for permanent in [
            EvalFailure::Infeasible("no room".into()),
            EvalFailure::Deploy("bad".into()),
            EvalFailure::GuestFault { kind: GuestFaultKind::Mem, detail: String::new() },
            EvalFailure::BudgetExhausted { cycles: 10, budget: 5 },
            EvalFailure::CorruptResult,
        ] {
            assert_eq!(permanent.class(), FailureClass::Permanent, "{permanent}");
        }
    }

    #[test]
    fn plan_point_faults_fire_exactly_times_attempts() {
        let point = DesignSpace::small().point(3);
        let key = fault_key(&point);
        let plan = FaultPlan::new().fault_point(key, FaultKind::Panic, 2);
        assert_eq!(plan.next(key), Some(FaultKind::Panic));
        assert_eq!(plan.next(key), Some(FaultKind::Panic));
        assert_eq!(plan.next(key), None, "fault exhausted after `times` firings");
        assert_eq!(plan.next(fault_key(&DesignSpace::small().point(4))), None);
    }

    #[test]
    fn plan_spec_parses_ordinal_entries() {
        let plan = FaultPlan::from_spec("trap@0, panic@2,corrupt@3").unwrap();
        assert_eq!(plan.next(1), Some(FaultKind::GuestTrap)); // ordinal 0
        assert_eq!(plan.next(1), None); // ordinal 1
        assert_eq!(plan.next(9), Some(FaultKind::Panic)); // ordinal 2
        assert_eq!(plan.next(9), Some(FaultKind::CorruptResult)); // ordinal 3
        assert!(FaultPlan::from_spec("bogus@1").is_err());
        assert!(FaultPlan::from_spec("panic@x").is_err());
        assert!(FaultPlan::from_spec("").unwrap().is_empty());
    }

    #[test]
    fn faulty_evaluator_injects_and_passes_through() {
        let space = DesignSpace::small();
        let trapped = space.point(5);
        let clean = space.point(6);
        let plan = Arc::new(FaultPlan::new().fault_point(
            fault_key(&trapped),
            FaultKind::GuestTrap,
            u32::MAX,
        ));
        let mut eval = FaultyEvaluator::new(ResourceEvaluator::new(1_000_000), plan);
        assert!(matches!(
            eval.try_evaluate(&trapped),
            Err(EvalFailure::GuestFault { kind: GuestFaultKind::Mem, .. })
        ));
        let ok = eval.try_evaluate(&clean).unwrap();
        assert!(ok.latency < u64::MAX);
        // The blanket `evaluate` on the wrapper maps failures to the
        // canonical sentinel (for legacy/serial callers only).
        assert_eq!(eval.evaluate(&trapped), EvalFailure::sentinel());
    }

    #[test]
    fn report_renders_and_merges() {
        let domain: FaultDomain<u32> = FaultDomain::new(RetryPolicy::default());
        domain.note_attempt();
        domain.note_attempt();
        domain.note_success();
        domain.note_failure(&EvalFailure::CorruptResult);
        domain.quarantine(7, EvalFailure::CorruptResult);
        let mut a = domain.report();
        assert_eq!(a.failed(), 1);
        assert!(!a.total_failure());
        assert!(a.render().contains("1 point(s) quarantined"), "{}", a.render());
        let b = domain.report();
        a.merge(&b);
        assert_eq!(a.attempts, 4);
        assert_eq!(a.quarantined.len(), 2);
    }
}
