//! The end-to-end pass: each figure binary run the way a user runs it,
//! one child process at a time.
//!
//! A round is one cold run on a fresh store (the write path: every
//! result simulated and appended) followed by warm runs of the same
//! command with `--resume` on the filled store (the read path: zero
//! simulations). Rounds repeat while another fits in the time budget;
//! warm runs then fill the rest of it.

use std::ffi::OsStr;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::proc::{self, Usage};
use crate::report::Report;
use crate::workload::{Fidelity, Workload};

/// Warm runs after each cold run. Few, so that a fig7-dse run (whose
/// warm runs take 0.5 s each) still fits three cold runs in 20 s.
const WARM_PER_ROUND: usize = 3;
/// Fewest warm runs behind a `setup_s` median.
const MIN_WARM: usize = 9;

/// Scratch files of one workload's runs.
pub(crate) struct Files {
    store: PathBuf,
    cold_csv: PathBuf,
    warm_csv: PathBuf,
    stdout: PathBuf,
    stderr: PathBuf,
}

impl Files {
    pub(crate) fn new(dir: &Path) -> Files {
        Files {
            store: dir.join("results.store"),
            cold_csv: dir.join("cold.csv"),
            warm_csv: dir.join("warm.csv"),
            stdout: dir.join("stdout.txt"),
            stderr: dir.join("stderr.txt"),
        }
    }
}

pub(crate) fn remove(path: &Path) -> Result<(), String> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

/// Runs the binary with `extra` flags after `--store S --csv C` and
/// returns its usage and CSV; fails unless it exits 0.
fn run_binary(
    binary: &Path,
    files: &Files,
    csv: &Path,
    extra: &[&str],
) -> Result<(Usage, String), String> {
    remove(csv)?;
    let mut args =
        vec![OsStr::new("--store"), files.store.as_os_str(), OsStr::new("--csv"), csv.as_os_str()];
    args.extend(extra.iter().map(OsStr::new));
    let usage = proc::run(binary, &args, &files.stdout, &files.stderr)
        .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
    if usage.exit_code != Some(0) {
        return Err(format!(
            "{} exited with {:?}; its stderr is in {}",
            binary.display(),
            usage.exit_code,
            files.stderr.display()
        ));
    }
    let text =
        fs::read_to_string(csv).map_err(|e| format!("cannot read {}: {e}", csv.display()))?;
    Ok((usage, text))
}

/// One cold run on a fresh store; its CSV must pass the workload's
/// checks and match the first cold run's byte for byte.
pub(crate) fn cold_run(
    workload: Workload,
    binary: &Path,
    files: &Files,
    first: Option<&str>,
) -> Result<(Usage, String, Fidelity), String> {
    remove(&files.store)?;
    let (usage, csv) = run_binary(binary, files, &files.cold_csv, &[])?;
    let fidelity = workload.check(&csv).map_err(|e| format!("cold CSV: {e}"))?;
    if first.is_some_and(|f| f != csv) {
        return Err("cold CSV differs from the first cold run's".to_owned());
    }
    Ok((usage, csv, fidelity))
}

/// One warm run; its CSV must equal the cold run's and it must append
/// nothing to the store.
fn warm_run(binary: &Path, files: &Files, cold: Option<&str>) -> Result<Duration, String> {
    let cold = cold.ok_or("no cold CSV to compare the warm run with")?;
    let size = || fs::metadata(&files.store).map(|m| m.len()).ok();
    let before = size();
    let (usage, csv) = run_binary(binary, files, &files.warm_csv, &["--resume"])?;
    if csv != cold {
        return Err("warm CSV differs from the cold CSV".to_owned());
    }
    if size() != before {
        return Err("warm run changed the filled store".to_owned());
    }
    Ok(usage.wall)
}

/// Runs `workload` for about `seconds` and reports its end-to-end
/// metrics.
pub fn run(workload: Workload, binary: &Path, dir: &Path, seconds: u64) -> Report {
    let files = Files::new(dir);
    let mut report = Report::default();
    let (mut wall, mut cpu, mut rss, mut setup) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_csv: Option<String> = None;
    let mut fidelity = None;
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut warm_runs = 0;
    let mut round_csv;
    loop {
        let round = Instant::now();
        round_csv = None;
        if let Some((usage, csv, f)) =
            report.attempt(cold_run(workload, binary, &files, first_csv.as_deref()))
        {
            wall.push(usage.wall.as_secs_f64());
            cpu.push(usage.cpu_s);
            rss.push(usage.peak_rss_mib);
            fidelity = Some(f);
            first_csv.get_or_insert_with(|| csv.clone());
            round_csv = Some(csv);
        }
        for _ in 0..WARM_PER_ROUND {
            warm_runs += 1;
            if let Some(d) = report.attempt(warm_run(binary, &files, round_csv.as_deref())) {
                setup.push(d.as_secs_f64());
            }
        }
        if start.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    let mut last = Duration::ZERO;
    while warm_runs < MIN_WARM || start.elapsed() + last <= budget {
        warm_runs += 1;
        let t = Instant::now();
        if let Some(d) = report.attempt(warm_run(binary, &files, round_csv.as_deref())) {
            setup.push(d.as_secs_f64());
        }
        last = t.elapsed();
    }
    report.median("cold_s", "s", &wall);
    report.median("cold_cpu_s", "s", &cpu);
    report.median("setup_s", "s", &setup);
    report.median("peak_rss_mb", "MiB", &rss);
    if let Some(f) = fidelity {
        report.value("paper_logerr", "ln", f.paper_logerr);
        report.value("front_hv", "hv", f.front_hv);
    }
    report
}
