//! Experiment harnesses regenerating every table and figure of the CFU
//! Playground paper (see DESIGN.md's experiment index).
//!
//! Each module owns one artifact:
//!
//! * [`fig4`] — the MobileNetV2 1x1-CONV_2D ladder (speedup + resources),
//! * [`fig6`] — the Keyword-Spotting Fomu ladder (speedup + logic cells)
//!   and its energy-extension table,
//! * [`fig7`] — the CPU-vs-CFU design-space Pareto fronts,
//! * [`tables`] — the §III-A operator-time profile and the MLPerf-Tiny
//!   model inventory.
//!
//! Every figure is one run of the shared DSE engine (`ParallelStudy`)
//! whose mode is data: a [`RunSpec`] says how many workers, which result
//! store and which faults to inject. Figure 7 scores its timing siblings
//! by trace replay; every other artifact executes each of its points.
//! Each figure exposes one `run` over it, and the rows are
//! byte-identical for every spec (pinned against the checked-in fixtures
//! in `tests/golden/`).
//!
//! Binaries under `src/bin/` parse their flags with [`cli`] and print the
//! same rows/series the paper reports; Criterion benches under `benches/`
//! track simulator throughput on the same workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod micro;
pub mod svg;
pub mod tables;

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use cfu_dse::{
    EvalResult, EvaluatorFactory, FaultPlan, FaultyFactory, GridSearch, Optimizer, ParallelStudy,
    ResultStore, SearchSpace, StoreContext, StoreKey, StudyReport, StudyStore,
};

/// How one figure run executes. The figure binaries fill it from their
/// flags; rows are byte-identical for every value, which only moves
/// wall-clock time, memory and what gets persisted.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Worker threads per study (clamped to at least 1). `None`, the
    /// binaries' default without `--threads`: one worker per available
    /// core.
    pub threads: Option<usize>,
    /// Persistent result store: every freshly simulated point is
    /// appended to it, under a workload tag the figure chooses.
    pub store: Option<Arc<ResultStore>>,
    /// Hydrate prior results from `store` before running, so a fully
    /// warm store means zero simulations.
    pub resume: bool,
    /// Deterministic evaluation and store-flush faults, for exercising
    /// the retry/quarantine machinery (`CFU_FAULT_PLAN`).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Print a live progress readout to stderr every half second while
    /// the run goes (a run that finishes before the first tick prints
    /// nothing).
    pub progress: bool,
}

impl Default for RunSpec {
    /// Default workers, no store, no faults, silent.
    fn default() -> Self {
        RunSpec { threads: None, store: None, resume: false, fault_plan: None, progress: false }
    }
}

/// Interval between progress polls.
const PROGRESS_PERIOD: Duration = Duration::from_millis(500);

impl RunSpec {
    /// Runs `study` on `factory`'s evaluators, `rounds` trials at a time
    /// in order, attached to the spec's result store under `ctx` and
    /// wrapped in its fault plan; `render(points evaluated)` is the
    /// progress readout. The finished study is the run's rows.
    fn run_engine<S, O, F>(
        &self,
        mut study: ParallelStudy<O, S>,
        ctx: StoreContext,
        factory: &F,
        rounds: &[u64],
        render: impl Fn(&u64) -> String + Send,
    ) -> Run<ParallelStudy<O, S>, S::Point>
    where
        S: SearchSpace,
        S::Point: StoreKey + Hash + 'static,
        O: Optimizer<S>,
        F: EvaluatorFactory<S::Point>,
    {
        let store = self.store.as_ref().map(|store| {
            let mut handle = StudyStore::new(Arc::clone(store), ctx).with_resume(self.resume);
            if let Some(plan) = &self.fault_plan {
                handle = handle.with_fault_plan(Arc::clone(plan));
            }
            Arc::new(handle)
        });
        if let Some(handle) = &store {
            study.attach_store(Arc::clone(handle));
        }
        let progress = Arc::new(AtomicU64::new(0));
        study.attach_progress(Arc::clone(&progress));
        self.observe(
            || progress.load(Ordering::Relaxed),
            render,
            || {
                for &trials in rounds {
                    match &self.fault_plan {
                        Some(plan) => {
                            let faulty =
                                FaultyFactory::new(|| factory.make_evaluator(), Arc::clone(plan));
                            study.run(&faulty, trials);
                        }
                        None => study.run(factory, trials),
                    }
                }
            },
        );
        let report = study.report();
        Run::collect(study, report, &store)
    }

    /// Runs `work`; with [`progress`](RunSpec::progress) on, a scoped
    /// thread meanwhile polls `snapshot` every half second and prints
    /// `progress: {render(snapshot)}` to stderr whenever it changed. The
    /// poller is woken as soon as `work` returns or unwinds, so it adds
    /// no wait to the run.
    fn observe<S: Default + PartialEq, T>(
        &self,
        snapshot: impl Fn() -> S + Send,
        render: impl Fn(&S) -> String + Send,
        work: impl FnOnce() -> T,
    ) -> T {
        if !self.progress {
            return work();
        }
        let (done, finished) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut last = S::default();
                while let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(PROGRESS_PERIOD) {
                    let snap = snapshot();
                    if snap != last {
                        eprintln!("progress: {}", render(&snap));
                        last = snap;
                    }
                }
            });
            let out = work();
            drop(done);
            out
        })
    }
}

/// What one figure run produced: its rows plus the study counts the
/// binaries report on stderr.
#[derive(Debug)]
pub struct Run<R, P> {
    /// The figure's rows (or curves).
    pub rows: R,
    /// How the study completed: attempts (one per simulation, memo and
    /// store hits excluded), retries, failures, quarantined points.
    pub report: StudyReport<P>,
    /// Prior results hydrated from the result store.
    pub hydrated: u64,
    /// Fresh results appended to the result store.
    pub appended: u64,
    /// Failure tombstones appended to the result store.
    pub tombstoned: u64,
    /// Guest executions that captured a trace for retime replay (Figure 7).
    pub captures: u64,
    /// Points scored by trace replay instead of execution.
    pub replays: u64,
    /// Memory passes those replays shared: one per trace and cache
    /// geometry.
    pub memory_passes: u64,
    /// Fused core-count and branch passes those replays shared: one per
    /// trace and branch predictor.
    pub branch_passes: u64,
    /// Packed words of the captured traces, summed over every trace
    /// store the run used.
    pub trace_words: u64,
    /// Layer runs fast-forwarded by a shared layer memo (Figure 4).
    pub fast_forwards: u64,
    /// Guest instructions those fast-forwards skipped.
    pub skipped_instructions: u64,
}

impl<R, P> Run<R, P> {
    /// Assembles a run from its rows, report and the result stores it
    /// used.
    fn collect<'a>(
        rows: R,
        report: StudyReport<P>,
        stores: impl IntoIterator<Item = &'a Arc<StudyStore<P>>>,
    ) -> Self
    where
        P: 'a,
    {
        let mut run = Run {
            rows,
            report,
            hydrated: 0,
            appended: 0,
            tombstoned: 0,
            captures: 0,
            replays: 0,
            memory_passes: 0,
            branch_passes: 0,
            trace_words: 0,
            fast_forwards: 0,
            skipped_instructions: 0,
        };
        for store in stores {
            run.hydrated += store.hydrated();
            run.appended += store.appended();
            run.tombstoned += store.tombstoned();
        }
        run
    }

    /// The same run with its rows mapped through `f`.
    fn map<T>(self, f: impl FnOnce(R) -> T) -> Run<T, P> {
        Run {
            rows: f(self.rows),
            report: self.report,
            hydrated: self.hydrated,
            appended: self.appended,
            tombstoned: self.tombstoned,
            captures: self.captures,
            replays: self.replays,
            memory_passes: self.memory_passes,
            branch_passes: self.branch_passes,
            trace_words: self.trace_words,
            fast_forwards: self.fast_forwards,
            skipped_instructions: self.skipped_instructions,
        }
    }
}

/// Evaluates every rung of a ladder space once through the engine
/// (`GridSearch` at full budget walks the rungs in order; each batch fans
/// out over the spec's workers) and returns the results in ladder order.
/// With `baseline_first`, the first rung runs alone before the rest fan
/// out, so later rungs can reuse what it records.
fn run_ladder<S, F>(
    spec: &RunSpec,
    space: S,
    baseline_first: bool,
    ctx: StoreContext,
    factory: &F,
) -> Run<Vec<EvalResult>, S::Point>
where
    S: SearchSpace,
    S::Point: StoreKey + Hash + std::fmt::Debug + Send + Sync + 'static,
    F: EvaluatorFactory<S::Point>,
{
    let total = space.size();
    let optimizer = GridSearch::new(&space, total);
    let study = ParallelStudy::with_workers(space, optimizer, spec.threads);
    let lead = u64::from(baseline_first).min(total);
    spec.run_engine(study, ctx, factory, &[lead, total - lead], |done| {
        format!("{done}/{total} ladder steps")
    })
    .map(|study| {
        (0..total)
            .map(|i| {
                study.cache().get(&study.space().point(i)).expect("engine evaluated every rung")
            })
            .collect()
    })
}

/// Formats a speedup for tables ("55.30x").
pub fn fmt_speedup(baseline: u64, value: u64) -> String {
    if value == 0 {
        return "inf".to_owned();
    }
    format!("{:.2}x", baseline as f64 / value as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(100, 50), "2.00x");
        assert_eq!(fmt_speedup(55, 1), "55.00x");
        assert_eq!(fmt_speedup(10, 0), "inf");
    }
}
