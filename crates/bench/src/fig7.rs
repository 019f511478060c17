//! Figure 7: design-space exploration Pareto fronts (CPU alone vs
//! CPU+CFU1 vs CPU+CFU2) on the MobileNetV2 workload.
//!
//! Each curve is a [`Fig7CurveSpace`] — the paper-scale space restricted
//! to one CFU choice — explored through the same [`ParallelStudy`]
//! engine as every other experiment in the repo. [`run`] explores the
//! three curves as three concurrently-pipelined studies, each with its
//! own worker pool and its own trace store: a curve executes the guest
//! once to capture its operation trace and scores every other design
//! point by replaying it through timing-only machinery (DESIGN.md §4b).
//! With [`RunSpec::progress`] on, live per-curve evaluation counters
//! print to stderr while long sweeps run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cfu_dse::{
    CfuChoice, DesignPoint, EvaluatorFactory, Fig7CurveSpace, InferenceEvaluatorFactory, Optimizer,
    ParallelStudy, ParetoPoint, RandomSearch, RegularizedEvolution, RetryPolicy, StoreContext,
    StudyReport, StudyStore, TraceStore,
};
use cfu_soc::Board;
use cfu_tflm::models;

use crate::{Run, RunSpec};

/// The three curves of Figure 7, in rendering order.
pub const CURVES: [CfuChoice; 3] = [CfuChoice::None, CfuChoice::Cfu1, CfuChoice::Cfu2];

/// One Pareto curve of Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7Curve {
    /// Which CFU the curve attaches ("CPU alone" / "CPU + CFU1" / ...).
    pub label: &'static str,
    /// The CFU choice.
    pub choice: CfuChoice,
    /// Non-dominated (logic cells, latency) points, ascending resources.
    pub front: Vec<ParetoPoint>,
    /// Total design points evaluated for this curve.
    pub evaluated: u64,
    /// How the curve's study completed: attempts, retries, per-class
    /// failure counts, quarantined points.
    pub report: StudyReport<DesignPoint>,
}

/// Exploration settings. How the exploration executes (workers, store,
/// faults) is the [`RunSpec`]'s business.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Config {
    /// MobileNetV2 input resolution (small values keep sweeps fast; the
    /// latency *ordering* of configurations is resolution-independent).
    pub input_hw: usize,
    /// Optimizer trials per curve.
    pub trials: u64,
    /// Use regularized evolution (vs pure random search).
    pub evolutionary: bool,
    /// RNG seed.
    pub seed: u64,
    /// Retry budget for transient evaluation failures (a panicked
    /// worker) before a point is quarantined.
    pub max_retries: u32,
    /// Stop each curve's study at the first batch boundary after a
    /// quarantined point instead of completing the remaining trials.
    pub fail_fast: bool,
    /// Guest cycle watchdog per evaluation: a point exceeding this many
    /// simulated cycles fails as budget-exhausted instead of burning the
    /// sweep's wall clock. `None` disables.
    pub cycle_budget: Option<u64>,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            input_hw: 16,
            trials: 120,
            evolutionary: true,
            seed: 11,
            max_retries: 2,
            fail_fast: false,
            cycle_budget: None,
        }
    }
}

/// Live evaluation counters and trace stores of the three
/// concurrently-running curves, indexed like [`CURVES`].
#[derive(Debug, Default)]
struct Progress {
    counters: [Arc<AtomicU64>; 3],
    traces: [OnceLock<Arc<TraceStore>>; 3],
}

impl Progress {
    /// Points evaluated so far, per curve.
    fn snapshot(&self) -> [u64; 3] {
        std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed))
    }

    /// One-line readout ("CPU alone 48/120 · ..."), `trials` being the
    /// per-curve budget. Curves with a capture run in flight show
    /// "capturing trace…" after their counter.
    fn render(&self, trials: u64) -> String {
        CURVES
            .iter()
            .zip(self.snapshot())
            .zip(&self.traces)
            .map(|((c, n), traces)| {
                let capturing = traces.get().is_some_and(|s| s.capturing() > 0);
                let tail = if capturing { " (capturing trace…)" } else { "" };
                format!("{} {n}/{trials}{tail}", c.label())
            })
            .collect::<Vec<_>>()
            .join(" · ")
    }
}

/// The search space of one curve: the paper-scale space restricted to
/// `choice`.
pub fn space_for(choice: CfuChoice) -> Fig7CurveSpace {
    Fig7CurveSpace::new(choice)
}

/// Explores one curve (curve `i` of [`CURVES`]), publishing its trace
/// store into `progress`.
///
/// # Panics
///
/// Panics if the model/evaluator cannot be constructed.
fn run_curve(
    i: usize,
    spec: &RunSpec,
    cfg: &Fig7Config,
    progress: &Progress,
    store: Option<Arc<StudyStore<DesignPoint>>>,
) -> Fig7Curve {
    let choice = CURVES[i];
    let model = models::mobilenet_v2(cfg.input_hw, 2, 1);
    let input = models::synthetic_input(&model, 5);
    // One factory per curve: workers share the model weights and the
    // input tensor by `Arc`, each minting a private evaluator.
    let factory = InferenceEvaluatorFactory::new(Board::arty_a7_35t(), model, input)
        .with_retime(true)
        .with_cycle_budget(cfg.cycle_budget);
    if let Some(traces) = factory.trace_store() {
        let _ = progress.traces[i].set(Arc::clone(traces));
    }
    let counter = Arc::clone(&progress.counters[i]);
    let (front, evaluated, report) = if cfg.evolutionary {
        let optimizer = RegularizedEvolution::new(cfg.seed, 24, 6);
        drive_curve(choice, optimizer, spec, cfg, &factory, counter, store)
    } else {
        drive_curve(choice, RandomSearch::new(cfg.seed), spec, cfg, &factory, counter, store)
    };
    Fig7Curve { label: choice.label(), choice, front, evaluated, report }
}

/// Drives one curve's study with `optimizer` against `factory`.
fn drive_curve<O: Optimizer<Fig7CurveSpace>, F: EvaluatorFactory<DesignPoint>>(
    choice: CfuChoice,
    optimizer: O,
    spec: &RunSpec,
    cfg: &Fig7Config,
    factory: &F,
    progress: Arc<AtomicU64>,
    store: Option<Arc<StudyStore<DesignPoint>>>,
) -> (Vec<ParetoPoint>, u64, StudyReport<DesignPoint>) {
    let mut study = ParallelStudy::new(space_for(choice), optimizer, spec.threads.unwrap_or(1));
    study.set_retry_policy(RetryPolicy { max_retries: cfg.max_retries, fail_fast: cfg.fail_fast });
    study.attach_progress(progress);
    if let Some(handle) = store {
        study.attach_store(handle);
    }
    spec.run_study(&mut study, factory, cfg.trials);
    (study.archive().front(), study.archive().evaluated(), study.report())
}

/// Explores all three curves as three concurrently-running studies (one
/// OS thread per curve, each fanning its batches out over
/// `spec.threads` workers, default one). Curves are independent
/// studies, so results are byte-identical to running them one after
/// another. With a result
/// store, each curve gets its own workload tag —
/// `fig7-mnv2-hw{N}-cfu{i}` — so hydration and the counters stay exact
/// per curve even though all three append to one file.
pub fn run(spec: &RunSpec, cfg: &Fig7Config) -> Run<Vec<Fig7Curve>, DesignPoint> {
    let progress = Progress::default();
    let stores: [_; 3] = std::array::from_fn(|i| {
        spec.study_store(StoreContext::new(format!("fig7-mnv2-hw{}-cfu{i}", cfg.input_hw)))
    });
    let curves: Vec<Fig7Curve> = spec.observe(
        || progress.snapshot(),
        |_| progress.render(cfg.trials),
        || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = stores
                    .iter()
                    .enumerate()
                    .map(|(i, store)| {
                        let (progress, store) = (&progress, store.clone());
                        scope.spawn(move || run_curve(i, spec, cfg, progress, store))
                    })
                    .collect();
                // Joining in spawn order keeps the output order fixed. A
                // curve thread that dies outright (setup panic — per-point
                // faults are contained inside the study) yields an empty
                // curve whose report records the panic, so the other
                // curves still render.
                handles
                    .into_iter()
                    .zip(CURVES)
                    .map(|(h, choice)| {
                        h.join().unwrap_or_else(|_| {
                            let mut report = StudyReport { attempts: 1, ..StudyReport::default() };
                            report.failures.insert("panicked", 1);
                            Fig7Curve {
                                label: choice.label(),
                                choice,
                                front: Vec::new(),
                                evaluated: 0,
                                report,
                            }
                        })
                    })
                    .collect()
            })
        },
    );
    let mut report = StudyReport::default();
    for curve in &curves {
        report.merge(&curve.report);
    }
    let mut run = Run::collect(curves, report, stores.iter().flatten());
    for traces in progress.traces.iter().flat_map(OnceLock::get) {
        run.captures += traces.captures();
        run.replays += traces.replays();
        run.memory_passes += traces.memory_passes();
        run.branch_passes += traces.branch_passes();
    }
    run
}

/// The overall Pareto-optimal points across all curves (the starred
/// points in Figure 7).
///
/// When two curves produce tied `(resources, latency)` points, exactly
/// one star is printed and the tie breaks deterministically to the
/// first curve in input order (the [`CURVES`] order for [`run`]) —
/// matching the archive, which keeps the first point offered and
/// rejects coordinate duplicates.
pub fn overall_optima(curves: &[Fig7Curve]) -> Vec<(&'static str, ParetoPoint)> {
    let mut archive = cfu_dse::ParetoArchive::new();
    let mut labelled: Vec<(&'static str, ParetoPoint)> = Vec::new();
    for curve in curves {
        for p in &curve.front {
            labelled.push((curve.label, *p));
        }
    }
    for (_, p) in &labelled {
        archive.offer(*p);
    }
    // One labelled entry per front point: the first match in curve order
    // claims the star, so tied points cannot appear under two labels.
    archive
        .front()
        .into_iter()
        .map(|f| {
            *labelled
                .iter()
                .find(|(_, p)| p.resources == f.resources && p.latency == f.latency)
                .expect("every front point came from a curve")
        })
        .collect()
}

/// Renders the curves as CSV (`curve,logic_cells,cycles`) for plotting.
pub fn to_csv(curves: &[Fig7Curve]) -> String {
    let mut out = String::from("curve,logic_cells,cycles\n");
    for curve in curves {
        for p in &curve.front {
            out.push_str(&format!("{},{},{}\n", curve.label, p.resources, p.latency));
        }
    }
    out
}

/// Pretty-prints the curves as (resources, latency) series.
pub fn render(curves: &[Fig7Curve]) -> String {
    let mut out = String::new();
    for curve in curves {
        out.push_str(&format!(
            "--- {} ({} points evaluated, {} on front) ---\n",
            curve.label,
            curve.evaluated,
            curve.front.len()
        ));
        out.push_str(&format!("{:>12} {:>14}\n", "logic cells", "cycles"));
        for p in &curve.front {
            out.push_str(&format!("{:>12} {:>14}\n", p.resources, p.latency));
        }
    }
    out.push_str("--- overall Pareto-optimal (starred in Fig. 7) ---\n");
    for (label, p) in overall_optima(curves) {
        out.push_str(&format!("{:>12} {:>14}   {}\n", p.resources, p.latency, label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfu_dse::DesignSpace;

    fn pp(resources: u64, latency: u64) -> ParetoPoint {
        ParetoPoint { point: DesignSpace::small().point(0), resources, latency }
    }

    fn curve(label: &'static str, choice: CfuChoice, front: Vec<ParetoPoint>) -> Fig7Curve {
        let evaluated = front.len() as u64;
        Fig7Curve { label, choice, front, evaluated, report: StudyReport::default() }
    }

    #[test]
    fn overall_optima_breaks_ties_to_the_first_curve() {
        // Both curves carry the identical (4000, 900) point; before the
        // fix the labelled `retain` kept it under *both* labels while the
        // archive kept one — the starred list printed a duplicate.
        let curves = vec![
            curve("CPU alone", CfuChoice::None, vec![pp(3000, 2000), pp(4000, 900)]),
            curve("CPU + CFU1", CfuChoice::Cfu1, vec![pp(4000, 900), pp(5000, 500)]),
        ];
        let optima = overall_optima(&curves);
        let coords: Vec<_> = optima.iter().map(|(_, p)| (p.resources, p.latency)).collect();
        assert_eq!(coords, vec![(3000, 2000), (4000, 900), (5000, 500)], "no duplicate stars");
        let tied: Vec<_> =
            optima.iter().filter(|(_, p)| p.resources == 4000).map(|(l, _)| *l).collect();
        assert_eq!(tied, vec!["CPU alone"], "tie goes to the first curve in input order");
    }

    #[test]
    fn overall_optima_drops_dominated_points_and_sorts_by_resources() {
        let curves = vec![
            curve("CPU alone", CfuChoice::None, vec![pp(3000, 2000)]),
            // (3500, 2500) is dominated by (3000, 2000): no star.
            curve("CPU + CFU2", CfuChoice::Cfu2, vec![pp(3500, 2500), pp(2500, 3000)]),
        ];
        let optima = overall_optima(&curves);
        let coords: Vec<_> = optima.iter().map(|(_, p)| (p.resources, p.latency)).collect();
        assert_eq!(coords, vec![(2500, 3000), (3000, 2000)]);
    }
}
