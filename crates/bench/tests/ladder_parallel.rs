//! Equivalence of the legacy serial ladder drivers and the DSE-engine
//! path: `run_ladder_parallel` must render byte-identical CSV at any
//! worker count. This is the contract that lets the figure binaries
//! take `--threads N` without perturbing published numbers.

use std::sync::{Mutex, PoisonError};

use cfu_bench::{fig4, fig6, fig7};

/// The energy tests count evaluations through one process-wide counter:
/// they take this lock so neither counts the other's evaluations.
static ENERGY_COUNTER: Mutex<()> = Mutex::new(());

#[test]
fn fig4_engine_path_matches_legacy_csv_at_any_thread_count() {
    // Small input keeps each of the 10 inferences cheap; the row math
    // under test is resolution-independent.
    let legacy = fig4::to_csv(&fig4::run_ladder(16, false));
    for threads in [1, 4] {
        let engine = fig4::to_csv(&fig4::run_ladder_parallel(16, false, threads));
        assert_eq!(engine, legacy, "fig4 CSV diverged at {threads} threads");
    }
}

#[test]
fn fig6_engine_path_matches_legacy_csv_at_any_thread_count() {
    let legacy = fig6::to_csv(&fig6::run_ladder());
    for threads in [1, 4] {
        let engine = fig6::to_csv(&fig6::run_ladder_parallel(threads));
        assert_eq!(engine, legacy, "fig6 CSV diverged at {threads} threads");
    }
}

#[test]
fn fig7_concurrent_curves_match_the_serial_driver_byte_for_byte() {
    // The pre-unification serial driver: one curve after another, one
    // worker thread each.
    let serial_cfg = fig7::Fig7Config {
        input_hw: 8,
        trials: 24,
        evolutionary: true,
        seed: 11,
        threads: 1,
        retime: false,
        ..fig7::Fig7Config::default()
    };
    let legacy: Vec<fig7::Fig7Curve> =
        fig7::CURVES.iter().map(|&c| fig7::run_curve(c, &serial_cfg)).collect();
    let legacy_csv = fig7::to_csv(&legacy);
    let legacy_render = fig7::render(&legacy);
    // The unified driver runs the three curves concurrently on N-worker
    // studies; CSV and the rendered report (including the starred
    // overall optima) must not move for any N.
    for threads in [1, 4] {
        let cfg = fig7::Fig7Config { threads, ..serial_cfg };
        let curves = fig7::run_all(&cfg);
        assert_eq!(fig7::to_csv(&curves), legacy_csv, "fig7 CSV diverged at {threads} threads");
        assert_eq!(
            fig7::render(&curves),
            legacy_render,
            "fig7 report diverged at {threads} threads"
        );
    }
}

#[test]
fn fig4_retime_pipeline_matches_execute_mode_csv() {
    // Every Figure-4 rung deploys a different kernel, so the pipeline is
    // capture-only there — rows must still be byte-identical.
    let execute = fig4::to_csv(&fig4::run_ladder_parallel(16, false, 1));
    for threads in [1, 4] {
        let retimed = fig4::to_csv(&fig4::run_ladder_parallel_retimed(16, false, threads));
        assert_eq!(retimed, execute, "fig4 retime CSV diverged at {threads} threads");
    }
}

#[test]
fn fig6_retime_pipeline_matches_execute_mode_csv() {
    // QuadSPI / Larger Icache / Fast Mult are scored by replaying their
    // group's captured trace; the CSV must not move by a byte.
    let execute = fig6::to_csv(&fig6::run_ladder_parallel(1));
    for threads in [1, 4] {
        let retimed = fig6::to_csv(&fig6::run_ladder_parallel_retimed(threads));
        assert_eq!(retimed, execute, "fig6 retime CSV diverged at {threads} threads");
    }
}

#[test]
fn fig7_retime_pipeline_matches_execute_mode_csv_and_report() {
    let base = fig7::Fig7Config {
        input_hw: 8,
        trials: 24,
        evolutionary: true,
        seed: 11,
        threads: 1,
        retime: false,
        ..fig7::Fig7Config::default()
    };
    let execute = fig7::run_all(&base);
    let (execute_csv, execute_render) = (fig7::to_csv(&execute), fig7::render(&execute));
    for threads in [1, 4] {
        let cfg = fig7::Fig7Config { threads, retime: true, ..base };
        let curves = fig7::run_all(&cfg);
        assert_eq!(
            fig7::to_csv(&curves),
            execute_csv,
            "fig7 retime CSV diverged at {threads} threads"
        );
        assert_eq!(
            fig7::render(&curves),
            execute_render,
            "fig7 retime report diverged at {threads} threads"
        );
    }
}

#[test]
fn energy_ladder_retime_pipeline_matches_execute_mode_loss_free() {
    let _counter = ENERGY_COUNTER.lock().unwrap_or_else(PoisonError::into_inner);
    // The replayed energy estimate rides the memo cache through
    // `EvalResult::{energy_uj, aux}` exactly like the executed one:
    // both the rendered table (total/dynamic/EDP columns rebuilt from
    // the cached bits) and the CSV must be byte-identical, and each
    // step still counts as exactly one evaluation.
    let steps = fig6::Fig6Step::LADDER.len() as u64;
    let execute_table = fig6::render_energy(&fig6::run_energy_ladder_parallel(1));
    let execute_csv = fig6::energy_to_csv(&fig6::run_energy_ladder_parallel(1));
    for threads in [1, 4] {
        let before = fig6::energy_step_evaluations();
        let rows = fig6::run_energy_ladder_parallel_retimed(threads);
        assert_eq!(
            fig6::energy_step_evaluations() - before,
            steps,
            "retimed energy ladder must count one evaluation per step at {threads} threads"
        );
        assert_eq!(
            fig6::render_energy(&rows),
            execute_table,
            "retimed energy table diverged at {threads} threads"
        );
        assert_eq!(
            fig6::energy_to_csv(&rows),
            execute_csv,
            "retimed energy CSV diverged at {threads} threads"
        );
    }
}

#[test]
fn energy_ladder_engine_path_matches_serial_with_one_eval_per_step() {
    let _counter = ENERGY_COUNTER.lock().unwrap_or_else(PoisonError::into_inner);
    let steps = fig6::Fig6Step::LADDER.len() as u64;
    // Serial driver: exactly one `run_step_with_energy` per ladder step
    // (the old binary re-simulated the final step for its summary line).
    let before = fig6::energy_step_evaluations();
    let legacy = fig6::run_energy_ladder();
    assert_eq!(
        fig6::energy_step_evaluations() - before,
        steps,
        "serial energy ladder must simulate each step exactly once"
    );
    let legacy_table = fig6::render_energy(&legacy);
    let legacy_csv = fig6::energy_to_csv(&legacy);
    for threads in [1, 4] {
        let before = fig6::energy_step_evaluations();
        let rows = fig6::run_energy_ladder_parallel(threads);
        assert_eq!(
            fig6::energy_step_evaluations() - before,
            steps,
            "engine energy ladder must simulate each step exactly once at {threads} threads"
        );
        assert_eq!(
            fig6::render_energy(&rows),
            legacy_table,
            "energy table diverged at {threads} threads"
        );
        assert_eq!(
            fig6::energy_to_csv(&rows),
            legacy_csv,
            "energy CSV diverged at {threads} threads"
        );
    }
}
