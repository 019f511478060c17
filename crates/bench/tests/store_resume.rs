//! Cold/warm equivalence of the persistent result store across every
//! figure run: a cold run populates the store without moving a byte of
//! output, and a warm resume reproduces the same CSV with **zero** guest
//! simulations. This is the contract behind the `--store`/`--resume`
//! flags on the figure binaries.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cfu_bench::{fig4, fig6, fig7, RunSpec};
use cfu_dse::ResultStore;
use cfu_sim::CpuConfig;

fn temp_store(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("cfu-bench-store-{tag}-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// A two-worker spec over the store file at `path`.
fn stored(path: &Path, resume: bool) -> RunSpec {
    let store = Arc::new(ResultStore::open(path).unwrap());
    RunSpec { threads: Some(2), store: Some(store), resume, ..RunSpec::default() }
}

#[test]
fn fig7_warm_resume_is_byte_identical_with_zero_guest_runs() {
    let cfg = fig7::Fig7Config { input_hw: 8, trials: 24, ..fig7::Fig7Config::default() };
    let plain = RunSpec { threads: Some(2), ..RunSpec::default() };
    let baseline = fig7::to_csv(&fig7::run(&plain, &cfg).rows);
    let path = temp_store("fig7");
    let cold = fig7::run(&stored(&path, false), &cfg);
    assert_eq!(fig7::to_csv(&cold.rows), baseline, "attaching a store must not move the fronts");
    assert!(cold.appended > 0, "cold run must persist fresh evaluations");

    let warm = fig7::run(&stored(&path, true), &cfg);
    assert_eq!(fig7::to_csv(&warm.rows), baseline, "warm resume must reproduce the fronts");
    assert_eq!(warm.appended, 0, "warm resume must append nothing");
    assert!(warm.hydrated > 0, "warm resume must hydrate prior results");
    // The retime counters are the zero-simulation proof: with every
    // point memoized up front, no curve captures a trace or replays one.
    assert_eq!((warm.captures, warm.replays), (0, 0), "warm resume ran the guest");
    assert_eq!(warm.report.attempts, 0, "warm resume evaluated a point");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn fig7_store_bytes_do_not_depend_on_the_thread_count() {
    // Fresh results reach the store at batch merge, in suggestion order,
    // and the curves run one after another: the file is a function of
    // the sweep alone.
    let cfg = fig7::Fig7Config { input_hw: 8, trials: 24, ..fig7::Fig7Config::default() };
    let cold = |tag: &str, threads| {
        let path = temp_store(tag);
        let store = Arc::new(ResultStore::open(&path).unwrap());
        fig7::run(&RunSpec { threads, store: Some(store), ..RunSpec::default() }, &cfg);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    };
    let reference = cold("fig7-bytes-t1", Some(1));
    assert!(reference.len() > 8, "the cold run must persist records");
    for (tag, threads) in [("fig7-bytes-t4", Some(4)), ("fig7-bytes-def", None)] {
        assert!(cold(tag, threads) == reference, "store bytes differ at {threads:?} workers");
    }
    assert!(cold("fig7-bytes-t1-again", Some(1)) == reference, "store bytes differ between runs");
}

#[test]
fn fig4_warm_resume_is_byte_identical_and_appends_nothing() {
    let baseline = include_str!("golden/fig4_mnv2_ladder_hw16.csv");
    let path = temp_store("fig4");
    let cold = fig4::run(&stored(&path, false), 16, false);
    assert_eq!(fig4::to_csv(&cold.rows), baseline, "attaching a store must not move the rows");
    assert!(cold.appended > 0, "cold run must persist fresh steps");
    let warm = fig4::run(&stored(&path, true), 16, false);
    assert_eq!(fig4::to_csv(&warm.rows), baseline, "warm resume must reproduce the rows");
    assert_eq!(warm.appended, 0, "warm resume must append nothing");
    assert!(warm.hydrated > 0, "warm resume must hydrate prior steps");
    assert_eq!(warm.report.attempts, 0, "warm resume must simulate zero steps");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn fig4_store_contexts_isolate_cpu_and_resolution_variants() {
    // A warm store for one (cpu, input, width) must never leak into a
    // run at different settings: the workload tag embeds all three.
    let arty = CpuConfig::arty_default();
    let a = fig4::store_context(arty, 16, false);
    assert_ne!(a.workload(), fig4::store_context(arty, 32, false).workload());
    assert_ne!(a.workload(), fig4::store_context(arty, 16, true).workload());
    let bigger_icache = arty.with_icache_bytes(8192);
    assert_ne!(a.workload(), fig4::store_context(bigger_icache, 16, false).workload());
}

#[test]
fn fig6_and_energy_share_one_store_and_resume_with_zero_simulations() {
    // The content-addressed keys embed the workload tag, so the KWS
    // ladder and its energy extension can share one `--store` file:
    // each hydrates only its own records.
    let baseline = include_str!("golden/fig6_kws_ladder.csv");
    let energy_csv = include_str!("golden/table_energy_ladder.csv");
    let path = temp_store("fig6-shared");
    let cold = fig6::run(&stored(&path, false));
    assert_eq!(fig6::to_csv(&cold.rows), baseline, "attaching a store must not move the rows");
    assert!(cold.appended > 0, "cold ladder run must persist fresh steps");
    let cold_energy = fig6::run_energy(&stored(&path, false));
    assert_eq!(fig6::energy_to_csv(&cold_energy.rows), energy_csv);
    assert!(cold_energy.appended > 0, "cold energy run must persist fresh steps");
    assert_eq!(cold_energy.report.attempts, 8, "each step must be simulated exactly once");
    let energy_table = fig6::render_energy(&cold_energy.rows);

    let warm = fig6::run(&stored(&path, true));
    assert_eq!(fig6::to_csv(&warm.rows), baseline, "warm resume must reproduce the rows");
    assert_eq!(warm.appended, 0, "warm resume must append nothing");
    assert_eq!(
        warm.hydrated,
        fig6::Fig6Step::LADDER.len() as u64,
        "the ladder must hydrate exactly its own records, not the energy rows"
    );
    // A fully hydrated memo cache means no evaluator ever touches the
    // guest.
    let warm_energy = fig6::run_energy(&stored(&path, true));
    assert_eq!(warm_energy.report.attempts, 0, "warm resume must simulate zero steps");
    assert_eq!(fig6::render_energy(&warm_energy.rows), energy_table, "warm energy table diverged");
    assert_eq!(fig6::energy_to_csv(&warm_energy.rows), energy_csv, "warm energy CSV diverged");
    assert_eq!(warm_energy.appended, 0, "warm energy resume must append nothing");
    std::fs::remove_file(&path).unwrap();
}
