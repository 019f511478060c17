//! Regenerates Figure 7: design-space-exploration Pareto fronts.
//!
//! Usage: `fig7_dse_pareto [--trials N] [--input-hw N] [--threads N]
//! [--random] [--retime|--no-retime]` (defaults: 120 trials per curve,
//! 16x16 MobileNetV2, regularized evolution, 1 worker thread, retime
//! on). The three curves run as three concurrent studies, each on
//! `--threads` workers; per-curve progress counters print to stderr
//! while the sweep runs. The Pareto fronts are byte-identical for every
//! `--threads` value and for both retime modes; those knobs only change
//! wall-clock time. With retime on (the default), each curve executes
//! the guest once to capture its operation trace and scores every other
//! design point by replaying the trace through timing-only machinery;
//! `--no-retime` executes the guest for every point instead.
//!
//! `--store PATH` persists every freshly simulated point to an
//! append-only result store at PATH; `--resume` additionally hydrates
//! prior results from it, so a warm re-run performs zero guest
//! simulations while printing byte-identical fronts.
//!
//! Failure handling: `--max-retries N` bounds re-runs of transient
//! evaluation failures before a point is quarantined (default 2);
//! `--fail-fast` stops each curve at the first quarantined point;
//! `--cycle-budget N` arms a guest cycle watchdog per evaluation. A
//! `faults:` summary line always prints to stderr. The exit code is
//! nonzero only when no curve produced a single valid result (or a
//! fail-fast run tripped) — individual bad points never kill a sweep.
//! Setting `CFU_FAULT_PLAN` (e.g. `"trap@3,panic@7"`) injects
//! deterministic evaluation faults for smoke-testing this machinery.

use std::sync::Arc;

use cfu_bench::fig7::{
    merged_report, render, run_all_faulted, Fig7Config, Fig7Progress, Fig7Store,
};
use cfu_dse::{FaultPlan, ResultStore};

fn main() {
    let mut cfg = Fig7Config::default();
    let mut csv_path: Option<String> = None;
    let mut svg_path: Option<String> = None;
    let mut store_path: Option<String> = None;
    let mut resume = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trials" => {
                cfg.trials =
                    args.next().and_then(|v| v.parse().ok()).expect("--trials needs an integer");
            }
            "--input-hw" => {
                cfg.input_hw =
                    args.next().and_then(|v| v.parse().ok()).expect("--input-hw needs an integer");
            }
            "--threads" => {
                cfg.threads =
                    args.next().and_then(|v| v.parse().ok()).expect("--threads needs an integer");
            }
            "--random" => cfg.evolutionary = false,
            "--retime" => cfg.retime = true,
            "--no-retime" => cfg.retime = false,
            "--max-retries" => {
                cfg.max_retries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-retries needs an integer");
            }
            "--fail-fast" => cfg.fail_fast = true,
            "--cycle-budget" => {
                cfg.cycle_budget = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--cycle-budget needs an integer"),
                );
            }
            "--csv" => {
                csv_path = Some(args.next().expect("--csv needs a path"));
            }
            "--svg" => {
                svg_path = Some(args.next().expect("--svg needs a path"));
            }
            "--store" => {
                store_path = Some(args.next().expect("--store needs a path"));
            }
            "--resume" => resume = true,
            other => {
                eprintln!("unknown flag {other}; supported: --trials N --input-hw N --threads N --random --retime --no-retime --max-retries N --fail-fast --cycle-budget N --csv PATH --svg PATH --store PATH --resume");
                std::process::exit(2);
            }
        }
    }
    if resume && store_path.is_none() {
        eprintln!("--resume requires --store PATH");
        std::process::exit(2);
    }
    let fault_plan = match std::env::var("CFU_FAULT_PLAN") {
        Ok(spec) if !spec.trim().is_empty() => match FaultPlan::from_spec(&spec) {
            Ok(plan) => {
                eprintln!("fault injection: CFU_FAULT_PLAN={spec}");
                Some(Arc::new(plan))
            }
            Err(e) => {
                eprintln!("bad CFU_FAULT_PLAN: {e}");
                std::process::exit(2);
            }
        },
        _ => None,
    };
    let store = store_path.as_deref().map(|path| {
        let file = ResultStore::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open result store {path}: {e}");
            std::process::exit(2);
        });
        Fig7Store::with_fault_plan(Arc::new(file), cfg.input_hw, resume, fault_plan.clone())
    });
    let space = cfu_dse::DesignSpace::paper_scale();
    println!("Figure 7 — DSE of CPU vs CFU configurations (MobileNetV2 workload)");
    println!(
        "design space: {} points (paper: ~93,000); {} trials/curve via {} on {} thread(s)\n",
        space.size() * 3 / space.cfus.len() as u64,
        cfg.trials,
        if cfg.evolutionary { "regularized evolution" } else { "random search" },
        cfg.threads.max(1)
    );
    // Live per-curve counters on stderr (stdout stays byte-identical to
    // the serial driver); quick runs finish before the first tick.
    let progress = Fig7Progress::new();
    let curves = cfu_bench::with_progress(
        || progress.snapshot(),
        |_| progress.render(cfg.trials),
        || run_all_faulted(&cfg, &progress, store.as_ref(), fault_plan.as_ref()),
    );
    if cfg.retime {
        let (captures, replays): (u64, u64) = (0..3)
            .filter_map(|i| progress.store(i))
            .map(|s| (s.captures(), s.replays()))
            .fold((0, 0), |(c, r), (dc, dr)| (c + dc, r + dr));
        eprintln!("retime: {captures} capture run(s), {replays} point(s) scored by trace replay");
    }
    if let (Some(path), Some(store)) = (&store_path, &store) {
        eprintln!(
            "store: {path}: {} prior result(s) loaded, {} new result(s) appended, {} tombstone(s)",
            store.hydrated(),
            store.appended(),
            store.tombstoned()
        );
    }
    let report = merged_report(&curves);
    eprintln!("{}", report.render());
    print!("{}", render(&curves));
    if let Some(path) = csv_path {
        std::fs::write(&path, cfu_bench::fig7::to_csv(&curves)).expect("write csv");
        println!("wrote {path}");
    }
    if let Some(path) = svg_path {
        let series: Vec<(String, Vec<(f64, f64)>)> = curves
            .iter()
            .map(|c| {
                (
                    c.label.to_owned(),
                    c.front.iter().map(|p| (p.resources as f64, p.latency as f64)).collect(),
                )
            })
            .collect();
        let svg = cfu_bench::svg::scatter(
            "Figure 7: CPU vs CFU design-space Pareto fronts",
            "logic cells",
            "inference cycles",
            &series,
        );
        std::fs::write(&path, svg).expect("write svg");
        println!("wrote {path}");
    }
    // Individual bad points never fail the sweep; only producing nothing
    // at all (or tripping an explicit fail-fast policy) does.
    if report.total_failure() {
        eprintln!("error: no evaluation produced a valid result");
        std::process::exit(2);
    }
    if report.tripped {
        std::process::exit(2);
    }
}
