//! Regenerates Figure 7: design-space-exploration Pareto fronts.
//!
//! Usage: `fig7_dse_pareto [--trials N] [--input-hw N] [--threads N]
//! [--random]` (defaults: 120 trials per curve, 16x16 MobileNetV2,
//! regularized evolution, one worker per available core). The three
//! curves run one after another, each on `--threads` workers; the
//! running curve's progress counter prints to stderr while the sweep
//! runs. The Pareto fronts and `--store` files are byte-identical for
//! every `--threads` value, which only changes wall-clock time. Each
//! curve executes the guest once to capture its operation trace and
//! scores every other design point by replaying the trace through
//! timing-only machinery; a `retime:` line on stderr counts the
//! captures, replays and shared replay passes, and the packed words the
//! captured traces hold.
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

use cfu_bench::cli::{self, Command};
use cfu_bench::fig7::{render, Fig7Config};
use cfu_dse::FaultPlan;

const CMD: Command = Command {
    usage: "fig7_dse_pareto [--trials N] [--input-hw N] [--threads N] [--random] [--max-retries N] [--fail-fast] [--cycle-budget N] [--csv PATH] [--svg PATH] [--store PATH] [--resume]",
    svg: true,
    tombstones: true,
};

fn main() {
    let mut cfg = Fig7Config::default();
    let mut args = cli::parse_or_exit(&CMD, |flag, value| {
        match flag {
            "--trials" => cfg.trials = value.int()?,
            "--input-hw" => cfg.input_hw = value.input_hw()?,
            "--random" => cfg.evolutionary = false,
            "--max-retries" => cfg.max_retries = value.int()?,
            "--fail-fast" => cfg.fail_fast = true,
            "--cycle-budget" => cfg.cycle_budget = Some(value.int()?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    args.spec.progress = true;
    args.spec.fault_plan = match std::env::var("CFU_FAULT_PLAN") {
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
    let space = cfu_dse::DesignSpace::paper_scale();
    println!("Figure 7 — DSE of CPU vs CFU configurations (MobileNetV2 workload)");
    println!(
        "design space: {} points (paper: ~93,000); {} trials/curve via {} on {} thread(s)\n",
        space.size() * 3 / space.cfus.len() as u64,
        cfg.trials,
        if cfg.evolutionary { "regularized evolution" } else { "random search" },
        args.spec.threads.map_or_else(
            || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            |n| n.max(1)
        )
    );
    let run = cfu_bench::fig7::run(&args.spec, &cfg);
    eprintln!(
        "retime: {} capture run(s), {} point(s) scored by trace replay, {} memory pass(es), {} branch pass(es), {} trace word(s)",
        run.captures, run.replays, run.memory_passes, run.branch_passes, run.trace_words
    );
    CMD.print_store(&args, &run);
    eprintln!("{}", run.report.render());
    let curves = run.rows;
    print!("{}", render(&curves));
    if let Some(path) = args.csv {
        std::fs::write(&path, cfu_bench::fig7::to_csv(&curves)).expect("write csv");
        println!("wrote {path}");
    }
    if let Some(path) = args.svg {
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
    if run.report.total_failure() {
        eprintln!("error: no evaluation produced a valid result");
        std::process::exit(2);
    }
    if run.report.tripped {
        std::process::exit(2);
    }
}
