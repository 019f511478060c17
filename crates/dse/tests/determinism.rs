//! Thread-count invariance of the parallel DSE engine.
//!
//! The contract under test: `ParallelStudy` at any worker count produces
//! exactly the Pareto fronts the serial `Study` produces, for every
//! optimizer strategy — including the stateful one (regularized
//! evolution) whose suggestions depend on previously observed results.
//! Both drivers share the same `SUGGEST_BATCH` schedule, so the only
//! thing threads may change is wall-clock time. `Study` has no memo,
//! fault domain or worker pool, which is what makes it an independent
//! reference.

use std::collections::HashSet;

use proptest::prelude::*;

use cfu_dse::{
    DesignSpace, Evaluator, GridSearch, MemoCache, Optimizer, ParallelStudy, RandomSearch,
    RegularizedEvolution, ResourceEvaluator, Study,
};

const BUDGET: u32 = 1_000_000;

/// Runs a serial and a parallel study with identically built optimizers
/// and asserts both archives (feasible and energy) match bit-for-bit.
fn assert_thread_invariant<O: Optimizer>(
    space: &DesignSpace,
    make: impl Fn() -> O,
    threads: usize,
    trials: u64,
) {
    let mut serial = Study::new(space.clone(), make());
    serial.run(&mut ResourceEvaluator::new(BUDGET), trials);
    assert!(
        !serial.archive().front().is_empty(),
        "serial baseline found no feasible points — test is vacuous"
    );
    let mut parallel = ParallelStudy::new(space.clone(), make(), threads);
    parallel.run(&|| ResourceEvaluator::new(BUDGET), trials);
    assert_eq!(
        parallel.archive().front(),
        serial.archive().front(),
        "feasible front diverged at {threads} threads"
    );
    assert_eq!(
        parallel.energy_archive().front(),
        serial.energy_archive().front(),
        "energy front diverged at {threads} threads"
    );
}

proptest! {
    /// 1 ≡ N threads over seeds × thread counts × optimizers × trial
    /// counts. Threads stay ≤ 4 so a case never starts more than four
    /// workers; trial counts reach past several `SUGGEST_BATCH` rounds
    /// and include short tail batches.
    #[test]
    fn parallel_study_matches_serial_study(
        seed in 0u64..1_000_000,
        threads in 1usize..=4,
        optimizer in 0u8..3,
        trials in 1u64..=160,
    ) {
        let space = &DesignSpace::paper_scale();
        match optimizer {
            0 => assert_thread_invariant(space, || RandomSearch::new(seed), threads, trials),
            1 => assert_thread_invariant(space, || GridSearch::new(space, trials), threads, trials),
            _ => assert_thread_invariant(
                space,
                || RegularizedEvolution::new(seed, 16, 4),
                threads,
                trials,
            ),
        }
    }

    /// The memo cache must never hand back a result stored for a
    /// different design point: insert results stamped with each point's
    /// own index, then read every one back and count the distinct ones.
    #[test]
    fn memo_cache_never_aliases_design_points(
        seed in 0u64..1_000_000,
        count in 1usize..200,
    ) {
        let space = DesignSpace::paper_scale();
        let cache = MemoCache::new();
        let mut eval = ResourceEvaluator::new(BUDGET);
        let mut rng = seed | 1;
        let mut picked = Vec::with_capacity(count);
        for _ in 0..count {
            // splitmix64 step; index reduced without modulo bias.
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let index = ((u128::from(rng) * u128::from(space.size())) >> 64) as u64;
            picked.push(index);
        }
        for &index in &picked {
            let point = space.point(index);
            let mut result = eval.evaluate(&point);
            result.latency = index; // stamp: provenance of the entry
            cache.insert(point, result);
        }
        for &index in &picked {
            let point = space.point(index);
            let hit = cache.get(&point).expect("inserted point must be cached");
            prop_assert_eq!(hit.latency, index);
        }
        let distinct: HashSet<u64> = picked.iter().copied().collect();
        prop_assert_eq!(cache.len(), distinct.len());
    }
}
