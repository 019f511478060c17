//! Artifact benchmark: the wall-clock, CPU time, memory and paper
//! fidelity of regenerating the paper's figures, and (with `--trace 1`)
//! where that time goes, layer by layer.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fig7-dse --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a table with each metric's
//! spread goes to standard error, one JSON record per metric is
//! appended to `benchmark/target/results.jsonl`, and a traced run
//! writes its spans to `benchmark/target/<workload>.trace.json`. The
//! exit code is 0 only when every output check passed.

mod binaries;
mod e2e;
mod fidelity;
mod pipeline;
mod proc;
mod report;
mod stats;
mod trace;
mod traced;
mod workload;

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use workload::Workload;

const USAGE: &str = "usage: cfu-artifact-bench --workload NAME --seed N --seconds N --trace 0|1\n\
     workloads: fig4-mnv2 fig6-kws energy-kws fig7-dse";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} needs an integer"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".");
    let names = Workload::ALL.map(Workload::binary);
    let bin_dir = match binaries::build(root)
        .and_then(|dir| binaries::check_fresh(root, &dir, &names).map(|()| dir))
    {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let target = root.join("benchmark").join("target");
    let dir = target.join(args.workload.name());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let binary = bin_dir.join(args.workload.binary());
    let report = if args.trace {
        let spans = target.join(format!("{}.trace.json", args.workload.name()));
        traced::run(args.workload, &binary, &dir, &spans)
    } else {
        e2e::run(args.workload, &binary, &dir, args.seconds)
    };
    eprintln!(
        "{} (seed {}, trace {}): {} run(s), {} failed",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed
    );
    for e in report.errors.iter().take(10) {
        eprintln!("  failed: {e}");
    }
    eprint!("{}", report.table());
    // The figure binaries fix their own seeds, so the seed only labels
    // the run's records.
    let records = report.records(args.workload.name(), args.seed, args.trace);
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(target.join("results.jsonl"))
        .and_then(|mut f| f.write_all(records.as_bytes()));
    if let Err(e) = appended {
        eprintln!("warning: cannot append to results.jsonl: {e}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_driver_flags() {
        let args =
            parse(&["--workload", "fig6-kws", "--seed", "3", "--seconds", "20", "--trace", "1"]);
        assert_eq!(
            args,
            Ok(Args { workload: Workload::Fig6Kws, seed: 3, seconds: 20, trace: true })
        );
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&["--workload", "fig5", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "fig4-mnv2", "--seed", "x", "--seconds", "1"]).is_err());
        assert!(parse(&[
            "--workload",
            "fig4-mnv2",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&["--workload", "fig4-mnv2", "--seed"]).is_err());
        assert!(parse(&["--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
    }
}
