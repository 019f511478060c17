//! Black-box optimizers and the Vizier-style study loop.

use std::collections::VecDeque;

use crate::eval::{EvalResult, Evaluator};
use crate::pareto::{ParetoArchive, ParetoPoint};
use crate::space::{DesignSpace, SearchSpace};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The canonical suggestion-batch size shared by [`Study`] and
/// [`crate::ParallelStudy`].
///
/// Both drivers issue `suggest_batch`/`observe_batch` rounds of exactly
/// this size (the tail round may be shorter), so an optimizer sees the
/// identical call sequence — and therefore reaches the identical state —
/// whether a round is evaluated serially or fanned out over a worker
/// pool. That is what makes Pareto fronts bit-identical across thread
/// counts.
pub const SUGGEST_BATCH: usize = 16;

/// A suggest/observe black-box optimizer over candidate indices —
/// the same protocol Vizier's clients speak.
///
/// Optimizers only ever see *indices* into a [`SearchSpace`] (plus the
/// scalar feedback in [`EvalResult`]), so every strategy here works
/// unchanged on any space: the paper-scale [`DesignSpace`] or the
/// degenerate ladder spaces in `cfu-bench`.
pub trait Optimizer<S: SearchSpace = DesignSpace> {
    /// Proposes the next point to evaluate.
    fn suggest(&mut self, space: &S) -> u64;

    /// Feeds back the measurement for a previously-suggested point.
    fn observe(&mut self, index: u64, result: &EvalResult);

    /// Proposes up to `n` points to evaluate as one batch (Vizier's
    /// multi-suggestion RPC). The default delegates to [`suggest`]
    /// `n` times, so scalar optimizers keep working unchanged; batch-aware
    /// optimizers may override for diversity-aware proposals.
    ///
    /// [`suggest`]: Optimizer::suggest
    fn suggest_batch(&mut self, space: &S, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.suggest(space)).collect()
    }

    /// Feeds back a whole batch of measurements **in suggestion order**.
    /// The default delegates to [`observe`] per element.
    ///
    /// [`observe`]: Optimizer::observe
    fn observe_batch(&mut self, batch: &[(u64, EvalResult)]) {
        for (index, result) in batch {
            self.observe(*index, result);
        }
    }

    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// Offers a feasible evaluation to both archives (latency/resources and
/// latency/energy) — shared by the serial and parallel study drivers.
pub(crate) fn record_result<P: Copy>(
    archive: &mut ParetoArchive<P>,
    energy_archive: &mut ParetoArchive<P>,
    point: P,
    result: &EvalResult,
) {
    if result.fits && result.latency != u64::MAX {
        archive.offer(ParetoPoint {
            point,
            resources: u64::from(result.resources.logic_cells()),
            latency: result.latency,
        });
        if result.energy_uj.is_finite() && result.energy_uj > 0.0 {
            energy_archive.offer(ParetoPoint {
                point,
                resources: (result.energy_uj * 1000.0) as u64, // nJ
                latency: result.latency,
            });
        }
    }
}

/// Uniform random search — Vizier's baseline strategy and a surprisingly
/// strong one on cheap evaluations.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    state: u64,
}

impl RandomSearch {
    /// Creates the searcher with a seed.
    pub fn new(seed: u64) -> Self {
        RandomSearch { state: seed | 1 }
    }
}

impl<S: SearchSpace> Optimizer<S> for RandomSearch {
    fn suggest(&mut self, space: &S) -> u64 {
        space.random_index(xorshift(&mut self.state))
    }

    fn observe(&mut self, _index: u64, _result: &EvalResult) {}

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Strided grid coverage of the space.
#[derive(Debug, Clone)]
pub struct GridSearch {
    cursor: u64,
    stride: u64,
}

impl GridSearch {
    /// Creates a grid that will visit `budget` points spread evenly.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new<S: SearchSpace>(space: &S, budget: u64) -> Self {
        assert!(budget > 0, "budget must be positive");
        let size = space.size();
        // Start at the even-coverage stride and walk to the next value
        // truly coprime with the size: any shared factor g confines the
        // walk to a coset of size/g indices, silently revisiting them
        // instead of covering the space.
        let mut stride = (size / budget).max(1);
        while gcd(stride, size) != 1 {
            stride += 1;
        }
        GridSearch { cursor: 0, stride }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl<S: SearchSpace> Optimizer<S> for GridSearch {
    fn suggest(&mut self, space: &S) -> u64 {
        let idx = self.cursor % space.size();
        self.cursor = self.cursor.wrapping_add(self.stride);
        idx
    }

    fn observe(&mut self, _index: u64, _result: &EvalResult) {}

    fn name(&self) -> &'static str {
        "grid"
    }
}

/// Regularized evolution (aging evolution): keep a sliding population,
/// sample a tournament, mutate the winner. The scalar objective is the
/// latency·resources product, a crude hypervolume proxy that pressures
/// both axes so the Pareto archive fills out.
#[derive(Debug, Clone)]
pub struct RegularizedEvolution {
    population: VecDeque<(u64, u128)>,
    population_size: usize,
    tournament: usize,
    state: u64,
    warmup_left: usize,
}

impl RegularizedEvolution {
    /// Creates the optimizer with the given population/tournament sizes.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes.
    pub fn new(seed: u64, population_size: usize, tournament: usize) -> Self {
        assert!(population_size > 0 && tournament > 0);
        RegularizedEvolution {
            population: VecDeque::new(),
            population_size,
            tournament,
            state: seed | 1,
            warmup_left: population_size,
        }
    }
}

impl<S: SearchSpace> Optimizer<S> for RegularizedEvolution {
    fn suggest(&mut self, space: &S) -> u64 {
        if self.warmup_left > 0 || self.population.is_empty() {
            return space.random_index(xorshift(&mut self.state));
        }
        // Tournament selection.
        let mut best: Option<(u64, u128)> = None;
        for _ in 0..self.tournament {
            let pick = (xorshift(&mut self.state) as usize) % self.population.len();
            let cand = self.population[pick];
            if best.is_none_or(|(_, score)| cand.1 < score) {
                best = Some(cand);
            }
        }
        // `tournament > 0` and the population is non-empty here, so the
        // loop always filled `best`; fall back to a fresh random point
        // rather than asserting.
        match best {
            Some((parent, _)) => space.mutate_index(parent, xorshift(&mut self.state)),
            None => space.random_index(xorshift(&mut self.state)),
        }
    }

    fn observe(&mut self, index: u64, result: &EvalResult) {
        self.warmup_left = self.warmup_left.saturating_sub(1);
        let score = if result.fits {
            u128::from(result.latency) * u128::from(result.resources.logic_cells().max(1))
        } else {
            u128::MAX // infeasible: immediately selected against
        };
        self.population.push_back((index, score));
        while self.population.len() > self.population_size {
            self.population.pop_front(); // aging: oldest dies
        }
    }

    fn name(&self) -> &'static str {
        "regularized-evolution"
    }
}

/// A Vizier-style study: drives an optimizer against an evaluator and
/// maintains the Pareto archive of feasible designs.
///
/// This is the *serial* driver: no memo cache, no fault domain, no
/// worker pool. The figures run [`crate::ParallelStudy`], which fans the
/// same batch schedule out over workers; this driver stays as the
/// independent reference the thread-invariance tests compare it with.
/// Both produce archives through identical bookkeeping.
///
/// # Example
///
/// ```
/// use cfu_dse::{DesignSpace, RandomSearch, ResourceEvaluator, Study};
///
/// let mut study = Study::new(DesignSpace::small(), RandomSearch::new(7));
/// let mut eval = ResourceEvaluator::new(1_000_000);
/// study.run(&mut eval, 64);
/// // Every archived point is feasible and non-dominated.
/// let front = study.archive().front();
/// assert!(!front.is_empty());
/// assert!(front.windows(2).all(|w| w[0].resources <= w[1].resources));
/// ```
#[derive(Debug)]
pub struct Study<O, S: SearchSpace = DesignSpace> {
    space: S,
    optimizer: O,
    archive: ParetoArchive<S::Point>,
    energy_archive: ParetoArchive<S::Point>,
}

impl<S: SearchSpace, O: Optimizer<S>> Study<O, S> {
    /// Creates a study over `space` using `optimizer`.
    pub fn new(space: S, optimizer: O) -> Self {
        Study {
            space,
            optimizer,
            archive: ParetoArchive::new(),
            energy_archive: ParetoArchive::new(),
        }
    }

    /// The design space.
    pub fn space(&self) -> &S {
        &self.space
    }

    /// The feasible Pareto archive accumulated so far.
    pub fn archive(&self) -> &ParetoArchive<S::Point> {
        &self.archive
    }

    /// The (energy, latency) Pareto archive — the power-aware view the
    /// paper leaves to future work. Energy is archived in nanojoules.
    pub fn energy_archive(&self) -> &ParetoArchive<S::Point> {
        &self.energy_archive
    }

    /// Runs `trials` suggest→evaluate→observe rounds in batches of
    /// [`SUGGEST_BATCH`] (the tail batch may be shorter).
    ///
    /// The batch schedule — not the evaluation order within a batch — is
    /// what the optimizer observes, so this serial driver and
    /// [`crate::ParallelStudy`] produce bit-identical archives for the
    /// same optimizer, seed and trial count.
    pub fn run(&mut self, evaluator: &mut dyn Evaluator<S::Point>, trials: u64) {
        let mut remaining = trials;
        while remaining > 0 {
            let n = remaining.min(SUGGEST_BATCH as u64) as usize;
            let indices = self.optimizer.suggest_batch(&self.space, n);
            if indices.is_empty() {
                break;
            }
            let batch: Vec<(u64, EvalResult)> = indices
                .into_iter()
                .map(|index| (index, evaluator.evaluate(&self.space.point(index))))
                .collect();
            self.optimizer.observe_batch(&batch);
            for (index, result) in &batch {
                record_result(
                    &mut self.archive,
                    &mut self.energy_archive,
                    self.space.point(*index),
                    result,
                );
            }
            remaining -= batch.len() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::ResourceEvaluator;

    #[test]
    fn random_search_fills_archive() {
        let space = DesignSpace::small();
        let mut study = Study::new(space, RandomSearch::new(3));
        let mut eval = ResourceEvaluator::new(1_000_000);
        study.run(&mut eval, 200);
        assert!(study.archive().front().len() >= 2);
        assert_eq!(study.archive().evaluated(), 200);
    }

    #[test]
    fn grid_covers_small_space_exactly() {
        let space = DesignSpace::small();
        let n = space.size();
        let mut grid = GridSearch::new(&space, n);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            seen.insert(grid.suggest(&space));
        }
        // stride 1 over the whole space: full coverage.
        assert_eq!(seen.len() as u64, n);
    }

    #[test]
    fn grid_stride_coprime_with_composite_space() {
        let space = DesignSpace::small(); // 96 points — plenty of shared factors
        let n = space.size();
        assert_eq!(n % 3, 0, "test needs a composite space size");
        // The old stride (96/32)|1 = 3 shared a factor with 96 and cycled
        // after 32 points; the gcd walk must cover the whole space.
        let mut grid = GridSearch::new(&space, 32);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            seen.insert(grid.suggest(&space));
        }
        assert_eq!(seen.len() as u64, n, "stride must be coprime with the space size");
    }

    #[test]
    fn default_batch_methods_match_scalar_sequence() {
        let space = DesignSpace::small();
        let mut batched = RegularizedEvolution::new(77, 8, 3);
        let mut scalar = RegularizedEvolution::new(77, 8, 3);
        let batch = batched.suggest_batch(&space, 5);
        let singles: Vec<u64> = (0..5).map(|_| scalar.suggest(&space)).collect();
        assert_eq!(batch, singles);
        let mut eval = ResourceEvaluator::new(1_000_000);
        let results: Vec<(u64, EvalResult)> =
            batch.iter().map(|&i| (i, eval.evaluate(&space.point(i)))).collect();
        Optimizer::<DesignSpace>::observe_batch(&mut batched, &results);
        for (i, r) in &results {
            Optimizer::<DesignSpace>::observe(&mut scalar, *i, r);
        }
        // Both reach the same state: next suggestions agree.
        assert_eq!(batched.suggest(&space), scalar.suggest(&space));
    }

    #[test]
    fn evolution_converges_to_good_points() {
        let space = DesignSpace::paper_scale();
        let mut evo = Study::new(space.clone(), RegularizedEvolution::new(9, 24, 6));
        let mut rnd = Study::new(space, RandomSearch::new(9));
        let mut eval = ResourceEvaluator::new(1_000_000);
        evo.run(&mut eval, 400);
        rnd.run(&mut eval, 400);
        let best_evo = evo.archive().fastest().unwrap().latency;
        let best_rnd = rnd.archive().fastest().unwrap().latency;
        // Evolution should at least roughly match random search.
        assert!(best_evo <= best_rnd.saturating_mul(2), "evo {best_evo} rnd {best_rnd}");
    }

    #[test]
    fn energy_archive_tracks_energy_latency_tradeoff() {
        let space = DesignSpace::small();
        let mut study = Study::new(space, RandomSearch::new(21));
        let mut eval = ResourceEvaluator::new(1_000_000);
        study.run(&mut eval, 150);
        let front = study.energy_archive().front();
        assert!(!front.is_empty());
        // Front is non-dominated in (energy, latency).
        for a in &front {
            for b in &front {
                if a != b {
                    assert!(!a.dominates(b), "{a:?} dominates {b:?}");
                }
            }
        }
    }

    #[test]
    fn infeasible_points_never_archived() {
        let space = DesignSpace::small();
        let mut study = Study::new(space, RandomSearch::new(5));
        let mut eval = ResourceEvaluator::new(1); // nothing fits
        study.run(&mut eval, 50);
        assert!(study.archive().front().is_empty());
    }

    #[test]
    fn optimizer_names() {
        let space = DesignSpace::small();
        assert_eq!(Optimizer::<DesignSpace>::name(&RandomSearch::new(1)), "random");
        assert_eq!(Optimizer::<DesignSpace>::name(&GridSearch::new(&space, 10)), "grid");
        assert_eq!(
            Optimizer::<DesignSpace>::name(&RegularizedEvolution::new(1, 4, 2)),
            "regularized-evolution"
        );
    }
}
