//! Every figure run against its checked-in golden CSV at the thread
//! counts that must not move a byte: threads {1, 4} and the default
//! (one worker per core), Figure 4 also at 2. This is
//! the contract that lets the figure binaries take `--threads N`, and
//! run multi-worker without it, without perturbing published numbers.
//! Figure 7 scores its timing siblings by trace replay; every other
//! figure executes each point.

use std::sync::Arc;

use cfu_bench::{fig4, fig6, fig7, RunSpec};
use cfu_dse::FaultPlan;

/// The run modes each figure is checked under: 1 and 4 workers, and
/// the binaries' default.
fn specs() -> Vec<RunSpec> {
    [Some(1), Some(4), None].map(|threads| RunSpec { threads, ..RunSpec::default() }).to_vec()
}

#[test]
fn fig4_matches_golden_at_any_thread_count() {
    // Every rung deploys a different kernel: no trace to replay. The
    // rungs share their other layers through a layer memo, whose
    // fast-forwards must not move a byte at any thread count.
    for threads in [Some(1), Some(2), Some(4), None] {
        let spec = RunSpec { threads, ..RunSpec::default() };
        let run = fig4::run(&spec, 16, false);
        let csv = fig4::to_csv(&run.rows);
        assert_eq!(csv, include_str!("golden/fig4_mnv2_ladder_hw16.csv"), "{spec:?}");
        assert_eq!(run.report.attempts, 10, "one simulation per rung: {spec:?}");
        // The baseline rung records the shared layers before the others
        // start, so the counts repeat exactly at any thread count.
        let counts = (run.fast_forwards, run.skipped_instructions);
        assert_eq!(counts, (74, 18_847_872), "{spec:?}");
    }
}

#[test]
fn fig6_matches_golden_at_any_thread_count() {
    for spec in specs() {
        let run = fig6::run(&spec);
        let csv = fig6::to_csv(&run.rows);
        assert_eq!(csv, include_str!("golden/fig6_kws_ladder.csv"), "{spec:?}");
        assert_eq!(run.report.attempts, 8, "one execution per step: {spec:?}");
        assert_eq!((run.captures, run.replays), (0, 0), "{spec:?}");
    }
}

#[test]
fn energy_table_matches_golden_with_one_execution_per_step() {
    // The energy estimate rides the memo cache through
    // `EvalResult::{energy_uj, aux}`, so the rendered table (rebuilt
    // from the cached bits) must not move either.
    let mut table = None;
    for spec in specs() {
        let run = fig6::run_energy(&spec);
        let csv = fig6::energy_to_csv(&run.rows);
        assert_eq!(csv, include_str!("golden/table_energy_ladder.csv"), "{spec:?}");
        let rendered = fig6::render_energy(&run.rows);
        assert_eq!(table.get_or_insert_with(|| rendered.clone()), &rendered, "{spec:?}");
        assert_eq!(run.report.attempts, 8, "one execution per step: {spec:?}");
        assert_eq!((run.captures, run.replays), (0, 0), "{spec:?}");
    }
}

#[test]
fn fig7_matches_golden_and_report_at_any_thread_count() {
    // The three curves run one after another on N-worker studies; the
    // CSV and the rendered report (including the starred overall
    // optima) must not move for any N. Eight trials are
    // one suggest/observe round per curve; 24 cross a round boundary
    // (`SUGGEST_BATCH` = 16), so the second round's replays come from
    // traces captured in the first.
    // Each golden comes with the counts the run reports: points
    // replayed, memory passes (one per curve and cache geometry), branch
    // passes (one per curve and predictor) and the captured traces'
    // packed words (the same three captures at either trial count).
    let goldens = [
        (8, include_str!("golden/fig7_dse_pareto_trials8_hw8.csv"), [21, 18, 12, 1_445_248]),
        (24, include_str!("golden/fig7_dse_pareto_trials24_hw8.csv"), [69, 39, 18, 1_445_248]),
    ];
    for (trials, golden, [replays, memory_passes, branch_passes, trace_words]) in goldens {
        let cfg = fig7::Fig7Config { trials, input_hw: 8, ..fig7::Fig7Config::default() };
        let mut report = None;
        for spec in specs() {
            let run = fig7::run(&spec, &cfg);
            let csv = fig7::to_csv(&run.rows);
            assert_eq!(csv, golden, "{trials} trials, {spec:?}");
            let rendered = fig7::render(&run.rows);
            assert_eq!(
                report.get_or_insert_with(|| rendered.clone()),
                &rendered,
                "{trials} trials, {spec:?}"
            );
            // One capture per curve; timing siblings replay.
            assert_eq!((run.captures, run.replays), (3, replays), "{trials} trials, {spec:?}");
            let passes = (run.memory_passes, run.branch_passes);
            assert_eq!(passes, (memory_passes, branch_passes), "{trials} trials, {spec:?}");
            assert_eq!(run.trace_words, trace_words, "{trials} trials, {spec:?}");
        }
    }
}

#[test]
fn fig7_ordinal_faults_are_deterministic_on_one_worker() {
    // Ordinal-keyed faults count evaluations across the whole run, so
    // they land on the same points only when one worker evaluates the
    // curves in a fixed order.
    let cfg = fig7::Fig7Config { trials: 8, input_hw: 8, ..fig7::Fig7Config::default() };
    let faulty = || {
        let plan = FaultPlan::from_spec("trap@3,panic@7").unwrap();
        let spec =
            RunSpec { threads: Some(1), fault_plan: Some(Arc::new(plan)), ..RunSpec::default() };
        let run = fig7::run(&spec, &cfg);
        (fig7::to_csv(&run.rows), run.report)
    };
    let (csv, report) = faulty();
    assert_eq!((report.retries, report.quarantined.len()), (1, 1), "{}", report.render());
    let (again, again_report) = faulty();
    assert_eq!(again, csv, "the faulted fronts moved between runs");
    assert_eq!(again_report.render(), report.render());
    assert_eq!(format!("{again_report:?}"), format!("{report:?}"));
}
