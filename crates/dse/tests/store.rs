//! Robustness contract of the persistent result store.
//!
//! The store is an append-only log that outlives its writers, so the
//! properties under test are the unglamorous ones that matter at that
//! boundary: reopening yields exactly what was flushed; a process dying
//! mid-append costs the torn tail and nothing else; a stale simulator
//! version silently invalidates every old record; and two studies (or
//! two handles) sharing one file never corrupt each other. Finally, the
//! headline feature end-to-end: a resumed study performs zero evaluator
//! invocations and reproduces the cold run's fronts bit-for-bit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cfu_dse::{
    DesignPoint, DesignSpace, EvalResult, Evaluator, ParallelStudy, RandomSearch,
    ResourceEvaluator, ResultStore, StoreContext, StudyStore,
};

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("cfu-store-it-{tag}-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Wraps the analytic evaluator and counts invocations — the probe that
/// proves a warm resume never reaches the evaluator.
struct CountingEvaluator {
    inner: ResourceEvaluator,
    calls: Arc<AtomicU64>,
}

impl Evaluator for CountingEvaluator {
    fn evaluate(&mut self, point: &DesignPoint) -> EvalResult {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(point)
    }
}

#[test]
fn flushed_records_survive_reopen_bit_for_bit() {
    let path = temp_path("roundtrip");
    let ctx = StoreContext::new("mnv2-hw16");
    let space = DesignSpace::paper_scale();
    let mut eval = ResourceEvaluator::new(1_000_000);
    let step = space.size() / 257;
    let written: Vec<(DesignPoint, EvalResult)> = (0..257)
        .map(|k| {
            let point = space.point(k * step);
            (point, eval.evaluate(&point))
        })
        .collect();
    {
        let store = ResultStore::open(&path).unwrap();
        for (point, result) in &written {
            store.put(&ctx, point, *result);
        }
        store.flush().unwrap();
    }
    let store = ResultStore::open(&path).unwrap();
    assert_eq!(store.recovered_bytes(), 0, "clean file must need no recovery");
    for (point, result) in &written {
        assert_eq!(store.get(&ctx, point), Some(*result), "lost {point:?}");
    }
    let mut entries = store.entries::<DesignPoint>(&ctx);
    entries.sort_by_key(|(_, r)| r.latency);
    let mut expected: Vec<(DesignPoint, EvalResult)> = written.clone();
    expected.sort_by_key(|(_, r)| r.latency);
    // Same multiset: the written points are distinct, so compare sorted.
    assert_eq!(entries.len(), expected.len());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_tail_is_dropped_and_the_file_heals() {
    let path = temp_path("torn-tail");
    let ctx = StoreContext::new("w");
    let space = DesignSpace::small();
    let mut eval = ResourceEvaluator::new(1_000_000);
    let results: Vec<(DesignPoint, EvalResult)> =
        (0..8).map(|k| (space.point(k * 7), eval.evaluate(&space.point(k * 7)))).collect();
    {
        let store = ResultStore::open(&path).unwrap();
        for (point, result) in &results {
            store.put(&ctx, point, *result);
        }
        store.flush().unwrap();
    }
    // Simulate a crash mid-append: cut the file mid-way through the
    // final record.
    let full_len = std::fs::metadata(&path).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(full_len - 13).unwrap();
    drop(file);

    let store = ResultStore::open(&path).unwrap();
    assert!(store.recovered_bytes() > 0, "the torn record must be detected");
    assert_eq!(store.len(), 7, "exactly the torn record is lost");
    for (point, result) in &results[..7] {
        assert_eq!(store.get(&ctx, point), Some(*result));
    }
    // The healed file accepts appends again, including re-recording the
    // lost point, and a third open sees everything with no recovery.
    store.put(&ctx, &results[7].0, results[7].1);
    store.flush().unwrap();
    drop(store);
    let store = ResultStore::open(&path).unwrap();
    assert_eq!(store.recovered_bytes(), 0);
    assert_eq!(store.len(), 8);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checksum_corruption_in_the_tail_record_is_dropped() {
    let path = temp_path("bitflip");
    let ctx = StoreContext::new("w");
    let space = DesignSpace::small();
    let mut eval = ResourceEvaluator::new(1_000_000);
    {
        let store = ResultStore::open(&path).unwrap();
        for k in 0..4 {
            let point = space.point(k * 11);
            store.put(&ctx, &point, eval.evaluate(&point));
        }
        store.flush().unwrap();
    }
    // Flip one byte inside the last record's body (10 bytes from EOF is
    // within its 41-byte value).
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 10] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let store = ResultStore::open(&path).unwrap();
    assert!(store.recovered_bytes() > 0);
    assert_eq!(store.len(), 3, "only the corrupt tail record is dropped");
    for k in 0..3 {
        let point = space.point(k * 11);
        assert_eq!(store.get(&ctx, &point), Some(eval.evaluate(&point)));
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn two_handles_on_one_file_interleave_without_corruption() {
    // Two separate ResultStore handles (as two processes would hold)
    // appending to the same path: append-mode single-write flushes keep
    // whole records intact, and a fresh open sees the union.
    let path = temp_path("two-handles");
    let ctx_a = StoreContext::new("study-a");
    let ctx_b = StoreContext::new("study-b");
    let space = DesignSpace::small();
    let mut eval = ResourceEvaluator::new(1_000_000);
    let a = ResultStore::open(&path).unwrap();
    let b = ResultStore::open(&path).unwrap();
    for k in 0..6 {
        let point = space.point(k * 5);
        a.put(&ctx_a, &point, eval.evaluate(&point));
        b.put(&ctx_b, &point, eval.evaluate(&point));
        a.flush().unwrap();
        b.flush().unwrap();
    }
    drop(a);
    drop(b);
    let store = ResultStore::open(&path).unwrap();
    assert_eq!(store.recovered_bytes(), 0, "interleaved flushes must not tear");
    assert_eq!(store.entries::<DesignPoint>(&ctx_a).len(), 6);
    assert_eq!(store.entries::<DesignPoint>(&ctx_b).len(), 6);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn concurrent_studies_share_one_store_without_corruption() {
    // Two ParallelStudys over different workload contexts, appending to
    // one shared Arc<ResultStore> from their worker pools concurrently.
    let path = temp_path("concurrent");
    let store = Arc::new(ResultStore::open(&path).unwrap());
    let contexts = [StoreContext::new("left"), StoreContext::new("right")];
    std::thread::scope(|scope| {
        for ctx in &contexts {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                let mut study = ParallelStudy::new(DesignSpace::small(), RandomSearch::new(17), 4);
                study.attach_store(Arc::new(StudyStore::new(store, ctx.clone())));
                study.run(&|| ResourceEvaluator::new(1_000_000), 150);
            });
        }
    });
    drop(store);
    let store = ResultStore::open(&path).unwrap();
    assert_eq!(store.recovered_bytes(), 0);
    // Each study recorded every distinct point it computed, and the
    // records decode back into in-space design points.
    for ctx in &contexts {
        let entries = store.entries::<DesignPoint>(ctx);
        assert!(!entries.is_empty(), "{} recorded nothing", ctx.workload());
        let mut eval = ResourceEvaluator::new(1_000_000);
        for (point, result) in entries {
            assert_eq!(result, eval.evaluate(&point), "stored result diverges at {point:?}");
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// The analytic evaluator, slowed by a point-dependent few hundred
/// microseconds so that workers finish out of suggestion order.
struct UnevenEvaluator(ResourceEvaluator);

impl Evaluator for UnevenEvaluator {
    fn evaluate(&mut self, point: &DesignPoint) -> EvalResult {
        let result = self.0.evaluate(point);
        std::thread::sleep(std::time::Duration::from_micros(result.latency % 7 * 60));
        result
    }
}

#[test]
fn store_bytes_do_not_depend_on_the_thread_count() {
    // Fresh results are recorded at merge time in suggestion order, so
    // the file a study writes is the same at any worker count.
    let ctx = StoreContext::new("schedule-wl");
    let files: Vec<Vec<u8>> = [1, 4, 3]
        .iter()
        .map(|&threads| {
            let path = temp_path(&format!("schedule-{threads}"));
            let mut study = ParallelStudy::new(DesignSpace::small(), RandomSearch::new(5), threads);
            let store = Arc::new(ResultStore::open(&path).unwrap());
            study.attach_store(Arc::new(StudyStore::new(store, ctx.clone())));
            study.run(&|| UnevenEvaluator(ResourceEvaluator::new(1_000_000)), 64);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            bytes
        })
        .collect();
    assert!(files[0].len() > 64, "the study must have recorded results");
    assert!(files.iter().all(|f| *f == files[0]), "store bytes moved with the thread count");
}

#[test]
fn warm_resume_runs_zero_evaluations_and_reproduces_the_fronts() {
    let path = temp_path("resume");
    let ctx = StoreContext::new("resume-wl");
    let make_study = || ParallelStudy::new(DesignSpace::small(), RandomSearch::new(23), 2);

    // Cold run: everything is simulated and recorded.
    let cold_calls = Arc::new(AtomicU64::new(0));
    let mut cold = make_study();
    {
        let store = Arc::new(ResultStore::open(&path).unwrap());
        cold.attach_store(Arc::new(StudyStore::new(store, ctx.clone())));
        let calls = Arc::clone(&cold_calls);
        cold.run(
            &move || CountingEvaluator {
                inner: ResourceEvaluator::new(1_000_000),
                calls: Arc::clone(&calls),
            },
            200,
        );
    }
    assert!(cold_calls.load(Ordering::Relaxed) > 0);

    // Warm run: every point hydrates from disk; the evaluator is idle.
    let warm_calls = Arc::new(AtomicU64::new(0));
    let mut warm = make_study();
    let store = Arc::new(ResultStore::open(&path).unwrap());
    let handle = Arc::new(StudyStore::new(store, ctx).with_resume(true));
    warm.attach_store(Arc::clone(&handle));
    assert!(handle.hydrated() > 0, "resume must hydrate the memo cache");
    let calls = Arc::clone(&warm_calls);
    warm.run(
        &move || CountingEvaluator {
            inner: ResourceEvaluator::new(1_000_000),
            calls: Arc::clone(&calls),
        },
        200,
    );
    assert_eq!(warm_calls.load(Ordering::Relaxed), 0, "warm resume must not simulate");
    assert_eq!(handle.appended(), 0, "warm resume must not append");
    assert_eq!(warm.archive().front(), cold.archive().front());
    assert_eq!(warm.energy_archive().front(), cold.energy_archive().front());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn stale_sim_version_forces_resimulation() {
    let path = temp_path("stale");
    let space = DesignSpace::small();
    let point = space.point(42);
    let mut eval = ResourceEvaluator::new(1_000_000);
    {
        let store = ResultStore::open(&path).unwrap();
        store.put(&StoreContext::versioned("wl", 1), &point, eval.evaluate(&point));
        store.flush().unwrap();
    }
    // A study opening the same file under a bumped simulator version
    // hydrates nothing — old records never leak into new results.
    let store = Arc::new(ResultStore::open(&path).unwrap());
    let handle = Arc::new(
        StudyStore::new(Arc::clone(&store), StoreContext::versioned("wl", 2)).with_resume(true),
    );
    let mut study = ParallelStudy::new(space, RandomSearch::new(5), 1);
    study.attach_store(Arc::clone(&handle));
    assert_eq!(handle.hydrated(), 0, "stale-version records must not hydrate");
    study.run(&|| ResourceEvaluator::new(1_000_000), 50);
    assert!(handle.appended() > 0, "fresh-version results must be recorded");
    std::fs::remove_file(&path).unwrap();
}
