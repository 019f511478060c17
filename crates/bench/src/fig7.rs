//! Figure 7: design-space exploration Pareto fronts (CPU alone vs
//! CPU+CFU1 vs CPU+CFU2) on the MobileNetV2 workload.
//!
//! Each curve is a [`Fig7CurveSpace`] — the paper-scale space restricted
//! to one CFU choice — explored through the same [`ParallelStudy`]
//! engine as every other experiment in the repo. [`run`] explores the
//! three curves one after another, each on the spec's workers and with
//! its own trace store: a curve executes the guest once to capture its
//! operation trace and scores every other design point by replaying it
//! through timing-only machinery (DESIGN.md §4b). With
//! [`RunSpec::progress`] on, the running curve's evaluation counter
//! prints to stderr while long sweeps run.

use std::sync::Arc;

use cfu_dse::{
    CfuChoice, DesignPoint, Fig7CurveSpace, InferenceEvaluatorFactory, Optimizer, ParallelStudy,
    ParetoPoint, RandomSearch, RegularizedEvolution, RetryPolicy, StoreContext, StudyReport,
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

/// The search space of one curve: the paper-scale space restricted to
/// `choice`.
pub fn space_for(choice: CfuChoice) -> Fig7CurveSpace {
    Fig7CurveSpace::new(choice)
}

/// Explores one curve with `optimizer` on the spec's workers, storing
/// its results under `ctx`.
fn run_curve<O: Optimizer<Fig7CurveSpace>>(
    spec: &RunSpec,
    cfg: &Fig7Config,
    choice: CfuChoice,
    optimizer: O,
    ctx: StoreContext,
    factory: &InferenceEvaluatorFactory,
) -> Run<Fig7Curve, DesignPoint> {
    let mut study = ParallelStudy::with_workers(space_for(choice), optimizer, spec.threads);
    study.set_retry_policy(RetryPolicy { max_retries: cfg.max_retries, fail_fast: cfg.fail_fast });
    let traces = factory.trace_store();
    let run = spec.run_engine(study, ctx, factory, &[cfg.trials], |done| {
        let capturing = traces.is_some_and(|t| t.capturing() > 0);
        let tail = if capturing { " (capturing trace…)" } else { "" };
        format!("{} {done}/{}{tail}", choice.label(), cfg.trials)
    });
    run.map(|study| {
        let (front, evaluated) = (study.archive().front(), study.archive().evaluated());
        Fig7Curve { label: choice.label(), choice, front, evaluated, report: study.report() }
    })
}

/// Explores the three curves in [`CURVES`] order, one study at a time,
/// each on `spec.threads` workers (default one per core). The model and
/// its input are built once and shared by every curve's evaluators. With
/// a result store, each curve gets its own workload tag —
/// `fig7-mnv2-hw{N}-cfu{i}` — so hydration and the counters stay exact
/// per curve even though all three append to one file.
pub fn run(spec: &RunSpec, cfg: &Fig7Config) -> Run<Vec<Fig7Curve>, DesignPoint> {
    let model = Arc::new(models::mobilenet_v2(cfg.input_hw, 2, 1));
    let input = Arc::new(models::synthetic_input(&model, 5));
    let mut run = Run::collect(Vec::new(), StudyReport::default(), []);
    for (i, choice) in CURVES.into_iter().enumerate() {
        let board = Board::arty_a7_35t();
        let factory = InferenceEvaluatorFactory::new(board, Arc::clone(&model), Arc::clone(&input))
            .with_retime(true)
            .with_cycle_budget(cfg.cycle_budget);
        let ctx = StoreContext::new(format!("fig7-mnv2-hw{}-cfu{i}", cfg.input_hw));
        let curve = if cfg.evolutionary {
            let optimizer = RegularizedEvolution::new(cfg.seed, 24, 6);
            run_curve(spec, cfg, choice, optimizer, ctx, &factory)
        } else {
            run_curve(spec, cfg, choice, RandomSearch::new(cfg.seed), ctx, &factory)
        };
        run.report.merge(&curve.report);
        run.hydrated += curve.hydrated;
        run.appended += curve.appended;
        run.tombstoned += curve.tombstoned;
        let traces = factory.trace_store().expect("retime is on");
        run.captures += traces.captures();
        run.replays += traces.replays();
        run.memory_passes += traces.memory_passes();
        run.branch_passes += traces.branch_passes();
        run.trace_words += traces.trace_words();
        run.rows.push(curve.rows);
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
