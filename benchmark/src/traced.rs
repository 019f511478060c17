//! The traced pass: per-layer metrics of one workload.
//!
//! One cold process run gives the end-to-end time and the CSV the
//! in-process pipeline is compared with. The pipeline then runs in-process three
//! times: cold with spans off (the time without tracing), cold with
//! spans on (where work went), and warm with spans on over the store
//! the cold run filled (the read path). Every run must reproduce the
//! process's CSV byte for byte.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::e2e::{cold_run, remove, Files};
use crate::pipeline::{self, Outcome};
use crate::report::Report;
use crate::trace::{self, Recording};
use crate::workload::Workload;

/// Runs the pipeline once and checks its CSV against `expected`.
fn pipeline_run(
    workload: Workload,
    store: &Path,
    resume: bool,
    expected: Option<&str>,
) -> Result<(Outcome, Duration), String> {
    let start = Instant::now();
    let outcome = pipeline::run(workload, store, resume)?;
    let wall = start.elapsed();
    let expected = expected.ok_or("no process CSV to compare the in-process run with")?;
    if outcome.csv != expected {
        return Err(format!(
            "in-process {} run's CSV differs from the binary's",
            if resume { "warm" } else { "cold" }
        ));
    }
    Ok((outcome, wall))
}

/// Runs the traced pass of `workload`; writes every span to
/// `trace_path`.
pub fn run(workload: Workload, binary: &Path, dir: &Path, trace_path: &Path) -> Report {
    let mut report = Report::default();
    let process = report.attempt(cold_run(workload, binary, &Files::new(dir), None));
    let expected = process.as_ref().map(|(_, csv, _)| csv.as_str());
    let off_store = dir.join("untraced.store");
    let on_store = dir.join("traced.store");

    let untraced = report.attempt(
        remove(&off_store).and_then(|()| pipeline_run(workload, &off_store, false, expected)),
    );

    let cold = report.attempt(remove(&on_store).and_then(|()| {
        trace::start();
        let run = pipeline_run(workload, &on_store, false, expected);
        let recording = trace::finish();
        run.map(|(outcome, wall)| (outcome, wall, recording))
    }));
    let store_bytes = fs::metadata(&on_store).map_or(0, |m| m.len());

    let warm = report.attempt((|| {
        trace::start();
        let run = pipeline_run(workload, &on_store, true, expected);
        let recording = trace::finish();
        let (outcome, _) = run?;
        if outcome.appended != 0 {
            return Err(format!("warm in-process run appended {} records", outcome.appended));
        }
        Ok((outcome, recording))
    })());

    let (
        Some((usage, _, _)),
        Some((_, off_wall)),
        Some((cold_out, on_wall, cold_rec)),
        Some((warm_out, warm_rec)),
    ) = (process, untraced, cold, warm)
    else {
        return report;
    };
    let json = format!(
        "{{\"workload\": \"{}\", \"cold\": {}, \"warm\": {}}}\n",
        workload.name(),
        cold_rec.to_json(),
        warm_rec.to_json()
    );
    if let Err(e) = fs::write(trace_path, json) {
        report.errors.push(format!("cannot write {}: {e}", trace_path.display()));
    }
    let off = off_wall.as_secs_f64();
    report.value("bench.outside_s", "s", usage.wall.as_secs_f64() - off);
    report.value("trace.overhead_s", "s", on_wall.as_secs_f64() - off);
    layer_metrics(&mut report, &cold_rec, &warm_rec, &cold_out, &warm_out, store_bytes);
    report
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics from the cold and warm recordings.
fn layer_metrics(
    r: &mut Report,
    cold: &Recording,
    warm: &Recording,
    cold_out: &Outcome,
    warm_out: &Outcome,
    store_bytes: u64,
) {
    let suggested = cold.counter("dse.optimizer.suggested");
    let kinds = ["capture", "replay", "execute"].map(|k| {
        let name = format!("dse.eval.{k}");
        (cold.calls(&name), cold.seconds(&name))
    });
    let eval_calls: f64 = kinds.iter().map(|(n, _)| n).sum();
    r.value("dse.study.run_s", "s", cold.seconds("dse.study.run"));
    r.value("dse.engine.self_s", "s", cold.self_seconds("dse.study.run"));
    r.value("dse.optimizer.suggest_s", "s", cold.seconds("dse.optimizer.suggest"));
    r.value("dse.optimizer.observe_s", "s", cold.seconds("dse.optimizer.observe"));
    r.value("dse.optimizer.suggested", "count", suggested);
    r.value(
        "dse.memo.hit_ratio",
        "ratio",
        if suggested > 0.0 { 1.0 - eval_calls / suggested } else { 0.0 },
    );
    r.value("dse.eval.calls", "count", eval_calls);
    r.value("dse.eval.failed", "count", cold.counter("dse.eval.failed"));
    r.value("dse.eval.capture.calls", "count", kinds[0].0);
    r.value("dse.eval.replay.calls", "count", kinds[1].0);
    r.value("dse.eval.execute.calls", "count", kinds[2].0);
    r.value("dse.eval.capture_s", "s", kinds[0].1);
    r.value("dse.eval.replay_s", "s", kinds[1].1);
    r.value("dse.eval.execute_s", "s", kinds[2].1);
    r.value("dse.eval.replay_ms_per_point", "ms", ratio(kinds[1].1 * 1e3, kinds[1].0));
    r.value("dse.store.open_s", "s", warm.seconds("dse.store.open"));
    r.value("dse.store.hydrate_s", "s", warm.seconds("dse.store.hydrate"));
    r.value("dse.store.records_in", "count", warm_out.hydrated as f64);
    r.value("dse.store.records_out", "count", cold_out.appended as f64);
    r.value("dse.store.bytes", "bytes", store_bytes as f64);

    let run_s = cold.seconds("tflm.run");
    let captured_s = cold.seconds("tflm.run_captured");
    let guest_cycles = cold.counter("tflm.guest_cycles");
    r.value("tflm.model_build_s", "s", cold.seconds("tflm.model_build"));
    r.value("tflm.deploy_s", "s", cold.seconds("tflm.deploy"));
    r.value("tflm.deploy.calls", "count", cold.calls("tflm.deploy"));
    r.value("tflm.run_s", "s", run_s);
    r.value("tflm.run_captured_s", "s", captured_s);
    r.value("tflm.run.calls", "count", cold.calls("tflm.run") + cold.calls("tflm.run_captured"));
    r.value("tflm.guest_mcycles", "Mcycles", guest_cycles / 1e6);
    r.value("tflm.guest_minstructions", "Minstr", cold.counter("tflm.guest_instructions") / 1e6);
    r.value(
        "tflm.ns_per_guest_kcycle",
        "ns/kcycle",
        ratio((run_s + captured_s) * 1e12, guest_cycles),
    );

    let replay_s = cold.seconds("sim.replay");
    let words = cold.counter("sim.replay.words");
    r.value("sim.replay_s", "s", replay_s);
    r.value("sim.replay.calls", "count", cold.calls("sim.replay"));
    r.value("sim.replay.mwords", "Mwords", words / 1e6);
    r.value("sim.replay.ns_per_word", "ns/word", ratio(replay_s * 1e9, words));
    r.value("sim.energy_s", "s", cold.seconds("sim.energy"));
    r.value("sim.trace.retained_mb", "MiB", cold_out.retained_words as f64 * 8.0 / 1048576.0);
    r.value("soc.build_s", "s", cold.seconds("soc.build"));

    let miss_ratio = |cache: &str| {
        let misses = cold.counter(&format!("mem.{cache}.misses"));
        ratio(misses, cold.counter(&format!("mem.{cache}.accesses")))
    };
    r.value("mem.icache.miss_ratio", "ratio", miss_ratio("icache"));
    r.value("mem.dcache.miss_ratio", "ratio", miss_ratio("dcache"));
    r.value("mem.loads", "count", cold.counter("mem.loads"));
    r.value("mem.stores", "count", cold.counter("mem.stores"));
    r.value("core.cfu_ops", "count", cold.counter("core.cfu_ops"));
}
