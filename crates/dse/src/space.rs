//! The design space: every knob Vizier gets to turn.

use cfu_core::{Cfu, Resources};
use cfu_sim::{BranchPredictor, CpuConfig, Divider, Multiplier, Shifter};

/// An enumerable, index-addressable space of candidate configurations.
///
/// The whole DSE engine — [`Study`](crate::Study),
/// [`ParallelStudy`](crate::ParallelStudy) and every
/// [`Optimizer`](crate::Optimizer) — is generic over this trait:
/// anything that can number its candidates `0..size()` and decode an
/// index into a concrete point can be explored. The ~86 000-point
/// CPU+CFU [`DesignSpace`] is the paper-scale instance; the
/// Figure-4/Figure-6 optimization ladders in `cfu-bench` are degenerate
/// one-axis instances (the axis is the ladder step), which is what lets
/// the ladder harnesses run through the same parallel evaluator pool as
/// the Figure-7 exploration.
///
/// # Example: a degenerate one-axis space
///
/// ```
/// use cfu_dse::{Optimizer, GridSearch, SearchSpace};
///
/// /// Three ROM sizes to sweep.
/// #[derive(Debug, Clone)]
/// struct RomLadder;
///
/// impl SearchSpace for RomLadder {
///     type Point = u32; // ROM bytes
///     fn size(&self) -> u64 {
///         3
///     }
///     fn point(&self, index: u64) -> u32 {
///         [1024, 2048, 4096][index as usize]
///     }
/// }
///
/// let ladder = RomLadder;
/// let mut grid = GridSearch::new(&ladder, ladder.size());
/// let steps: Vec<u32> = (0..3).map(|_| ladder.point(grid.suggest(&ladder))).collect();
/// assert_eq!(steps, vec![1024, 2048, 4096]);
/// ```
pub trait SearchSpace {
    /// The concrete configuration decoded from an index.
    type Point: Copy + Eq + std::hash::Hash + Send + Sync + std::fmt::Debug;

    /// Number of points in the space.
    fn size(&self) -> u64;

    /// Decodes point `index`.
    ///
    /// # Panics
    ///
    /// May panic if `index >= size()`.
    fn point(&self, index: u64) -> Self::Point;

    /// Maps a caller-supplied uniform `u64` to an index.
    ///
    /// The default uses the widening multiply (`raw * size >> 64`)
    /// rather than `raw % size`: the modulo skews toward low indices
    /// whenever the space size does not divide 2^64, while the multiply
    /// spreads the bias evenly across the whole range (Lemire's
    /// reduction).
    fn random_index(&self, raw: u64) -> u64 {
        ((u128::from(raw) * u128::from(self.size())) >> 64) as u64
    }

    /// Returns a neighbour of `index` for local-search optimizers
    /// (regularized evolution). `raw` supplies randomness.
    ///
    /// The default resamples uniformly — correct for any space, but
    /// structured spaces should override it with a single-parameter
    /// mutation so local search actually exploits locality (as
    /// [`DesignSpace`] does).
    fn mutate_index(&self, index: u64, raw: u64) -> u64 {
        let _ = index;
        self.random_index(raw)
    }
}

/// Which CFU (if any) is attached — the three Pareto curves of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CfuChoice {
    /// CPU alone (the green curve).
    #[default]
    None,
    /// The large MobileNetV2 CFU (blue curve).
    Cfu1,
    /// The small KWS CFU (red curve).
    Cfu2,
}

impl CfuChoice {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CfuChoice::None => "CPU alone",
            CfuChoice::Cfu1 => "CPU + CFU1",
            CfuChoice::Cfu2 => "CPU + CFU2",
        }
    }

    /// Resource bill of the chosen CFU.
    pub fn resources(self) -> Resources {
        match self {
            CfuChoice::None => Resources::ZERO,
            CfuChoice::Cfu1 => cfu_core::cfu1::Cfu1::full().resources(),
            CfuChoice::Cfu2 => cfu_core::cfu2::Cfu2::new().resources(),
        }
    }
}

/// One candidate configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// The CPU knobs.
    pub cpu: CpuConfig,
    /// The attached CFU.
    pub cfu: CfuChoice,
}

impl DesignPoint {
    /// Total FPGA resources (CPU + CFU; SoC fabric is constant per board
    /// and added by the evaluator).
    pub fn resources(&self) -> Resources {
        self.cpu.resources() + self.cfu.resources()
    }
}

/// An enumerable cartesian design space.
///
/// Points are addressable by index (mixed-radix decoding), so uniform
/// sampling and strided grids need no materialized list.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// I-cache sizes in bytes (0 = none).
    pub icache_sizes: Vec<u32>,
    /// D-cache sizes in bytes (0 = none).
    pub dcache_sizes: Vec<u32>,
    /// Branch predictors.
    pub predictors: Vec<BranchPredictor>,
    /// Multipliers.
    pub multipliers: Vec<Multiplier>,
    /// Dividers.
    pub dividers: Vec<Divider>,
    /// Shifters.
    pub shifters: Vec<Shifter>,
    /// Bypassing options.
    pub bypassing: Vec<bool>,
    /// Pipeline depths.
    pub pipeline_depths: Vec<u32>,
    /// Hardware error checking options.
    pub error_checking: Vec<bool>,
    /// CFU choices.
    pub cfus: Vec<CfuChoice>,
}

impl DesignSpace {
    /// The paper-scale space: ≈ 86 000 design points ("approximately
    /// 93,000 different design points, considering various architectural
    /// parameters" — the exact factorization is not given, this matches
    /// its order of magnitude).
    pub fn paper_scale() -> Self {
        DesignSpace {
            icache_sizes: vec![0, 1024, 2048, 4096, 8192],
            dcache_sizes: vec![0, 1024, 2048, 4096, 8192],
            predictors: vec![
                BranchPredictor::None,
                BranchPredictor::Static,
                BranchPredictor::Dynamic { entries: 64 },
                BranchPredictor::Dynamic { entries: 256 },
                BranchPredictor::DynamicTarget { entries: 64 },
                BranchPredictor::DynamicTarget { entries: 256 },
            ],
            multipliers: vec![
                Multiplier::None,
                Multiplier::Iterative,
                Multiplier::SingleCycleDsp,
                Multiplier::SingleCycleLut,
            ],
            dividers: vec![Divider::None, Divider::Iterative],
            shifters: vec![Shifter::Iterative, Shifter::Barrel],
            bypassing: vec![false, true],
            pipeline_depths: vec![2, 3, 5],
            error_checking: vec![false, true],
            cfus: vec![CfuChoice::None, CfuChoice::Cfu1, CfuChoice::Cfu2],
        }
    }

    /// A small space for tests and examples (~100 points).
    pub fn small() -> Self {
        DesignSpace {
            icache_sizes: vec![0, 2048],
            dcache_sizes: vec![0, 2048],
            predictors: vec![BranchPredictor::None, BranchPredictor::Dynamic { entries: 64 }],
            multipliers: vec![Multiplier::Iterative, Multiplier::SingleCycleDsp],
            dividers: vec![Divider::None],
            shifters: vec![Shifter::Barrel],
            bypassing: vec![true],
            pipeline_depths: vec![2, 5],
            error_checking: vec![false],
            cfus: vec![CfuChoice::None, CfuChoice::Cfu1, CfuChoice::Cfu2],
        }
    }

    fn radices(&self) -> [usize; 10] {
        [
            self.icache_sizes.len(),
            self.dcache_sizes.len(),
            self.predictors.len(),
            self.multipliers.len(),
            self.dividers.len(),
            self.shifters.len(),
            self.bypassing.len(),
            self.pipeline_depths.len(),
            self.error_checking.len(),
            self.cfus.len(),
        ]
    }

    /// Number of points in the space.
    pub fn size(&self) -> u64 {
        self.radices().iter().map(|&r| r as u64).product()
    }

    /// Decodes point `index` (mixed radix).
    ///
    /// # Panics
    ///
    /// Panics if `index >= size()`.
    pub fn point(&self, index: u64) -> DesignPoint {
        assert!(index < self.size(), "index {index} out of space of {}", self.size());
        let radices = self.radices();
        let mut digits = [0usize; 10];
        let mut rest = index;
        for (d, &r) in digits.iter_mut().zip(&radices) {
            *d = (rest % r as u64) as usize;
            rest /= r as u64;
        }
        let cpu = CpuConfig::fomu_minimal()
            .with_icache_bytes(self.icache_sizes[digits[0]])
            .with_dcache_bytes(self.dcache_sizes[digits[1]])
            .with_branch_predictor(self.predictors[digits[2]])
            .with_multiplier(self.multipliers[digits[3]]);
        let cpu = CpuConfig {
            divider: self.dividers[digits[4]],
            shifter: self.shifters[digits[5]],
            bypassing: self.bypassing[digits[6]],
            pipeline_depth: self.pipeline_depths[digits[7]],
            hw_error_checking: self.error_checking[digits[8]],
            ..cpu
        };
        DesignPoint { cpu, cfu: self.cfus[digits[9]] }
    }

    /// A uniformly random point index from a caller-supplied generator
    /// value.
    ///
    /// Maps via widening multiply (`raw * size >> 64`) rather than
    /// `raw % size`: the modulo skews toward low indices whenever the
    /// space size does not divide 2^64, while the multiply spreads the
    /// bias evenly across the whole range (Lemire's reduction).
    pub fn random_index(&self, raw: u64) -> u64 {
        ((u128::from(raw) * u128::from(self.size())) >> 64) as u64
    }

    /// Mutates one randomly-chosen parameter of `index` (for evolutionary
    /// search). `raw` supplies randomness.
    pub fn mutate_index(&self, index: u64, raw: u64) -> u64 {
        let radices = self.radices();
        let param = (raw % 10) as usize;
        let new_digit = (raw >> 8) as usize % radices[param];
        // Re-encode with the chosen digit replaced.
        let mut digits = [0usize; 10];
        let mut rest = index;
        for (d, &r) in digits.iter_mut().zip(&radices) {
            *d = (rest % r as u64) as usize;
            rest /= r as u64;
        }
        digits[param] = new_digit;
        let mut out = 0u64;
        let mut mult = 1u64;
        for (d, &r) in digits.iter().zip(&radices) {
            out += *d as u64 * mult;
            mult *= r as u64;
        }
        out
    }
}

impl SearchSpace for DesignSpace {
    type Point = DesignPoint;

    fn size(&self) -> u64 {
        DesignSpace::size(self)
    }

    fn point(&self, index: u64) -> DesignPoint {
        DesignSpace::point(self, index)
    }

    fn random_index(&self, raw: u64) -> u64 {
        DesignSpace::random_index(self, raw)
    }

    fn mutate_index(&self, index: u64, raw: u64) -> u64 {
        DesignSpace::mutate_index(self, index, raw)
    }
}

/// A [`DesignSpace`] restricted to a single [`CfuChoice`] — one of the
/// three Pareto curves of Figure 7 as a first-class [`SearchSpace`].
///
/// Index decoding delegates to the restricted base space, so the
/// index→point mapping (and therefore every optimizer trajectory) is
/// identical to exploring a `DesignSpace` whose `cfus` list holds only
/// `choice` — which is what keeps curve sweeps reproducible across the
/// serial and parallel drivers.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7CurveSpace {
    inner: DesignSpace,
    choice: CfuChoice,
}

impl Fig7CurveSpace {
    /// The paper-scale space restricted to `choice` (~29 000 points, a
    /// third of the full ~86 000-point space).
    pub fn new(choice: CfuChoice) -> Self {
        Fig7CurveSpace::restrict(DesignSpace::paper_scale(), choice)
    }

    /// Restricts an arbitrary base space to `choice`.
    pub fn restrict(mut base: DesignSpace, choice: CfuChoice) -> Self {
        base.cfus = vec![choice];
        Fig7CurveSpace { inner: base, choice }
    }

    /// The CFU this curve attaches to every candidate.
    pub fn choice(&self) -> CfuChoice {
        self.choice
    }

    /// The restricted base space (its `cfus` list holds only
    /// [`choice`](Fig7CurveSpace::choice)).
    pub fn base(&self) -> &DesignSpace {
        &self.inner
    }
}

impl SearchSpace for Fig7CurveSpace {
    type Point = DesignPoint;

    fn size(&self) -> u64 {
        self.inner.size()
    }

    fn point(&self, index: u64) -> DesignPoint {
        self.inner.point(index)
    }

    fn random_index(&self, raw: u64) -> u64 {
        self.inner.random_index(raw)
    }

    fn mutate_index(&self, index: u64, raw: u64) -> u64 {
        self.inner.mutate_index(index, raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_size_matches_order_of_magnitude() {
        let size = DesignSpace::paper_scale().size();
        assert!((50_000..150_000).contains(&size), "{size}");
    }

    #[test]
    fn point_decoding_covers_space() {
        let space = DesignSpace::small();
        let n = space.size();
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            let p = space.point(i);
            p.cpu.validate().unwrap();
            seen.insert(format!("{p:?}"));
        }
        assert_eq!(seen.len() as u64, n, "every index is a distinct point");
    }

    #[test]
    #[should_panic(expected = "out of space")]
    fn out_of_range_index_panics() {
        let space = DesignSpace::small();
        let _ = space.point(space.size());
    }

    #[test]
    fn mutation_changes_at_most_one_param() {
        let space = DesignSpace::paper_scale();
        let base = 12345u64;
        for raw in 0..200u64 {
            let mutated = space.mutate_index(base, raw.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            assert!(mutated < space.size());
            // Same index is allowed (mutating to the same digit).
        }
    }

    #[test]
    fn random_index_uniform_over_paper_scale_buckets() {
        // Property: bucketing the mapped indices into 16 equal ranges of
        // the paper-scale space, a uniform u64 stream lands in each bucket
        // within ±10% of the expected share. The old `raw % size` mapping
        // fails this near divisor boundaries; the widening multiply must
        // also hit both extremes of the range.
        let space = DesignSpace::paper_scale();
        let size = space.size();
        let mut state = 0x1234_5678_9abc_def1u64;
        let mut xorshift = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        const DRAWS: u64 = 160_000;
        let mut buckets = [0u64; 16];
        let mut min_seen = u64::MAX;
        let mut max_seen = 0u64;
        for _ in 0..DRAWS {
            let idx = space.random_index(xorshift());
            assert!(idx < size, "index {idx} out of space of {size}");
            min_seen = min_seen.min(idx);
            max_seen = max_seen.max(idx);
            buckets[(u128::from(idx) * 16 / u128::from(size)) as usize] += 1;
        }
        let expected = DRAWS / 16;
        for (i, &count) in buckets.iter().enumerate() {
            assert!(
                count > expected * 9 / 10 && count < expected * 11 / 10,
                "bucket {i} holds {count}, expected ~{expected}"
            );
        }
        assert!(min_seen < size / 100, "low extreme unreached: {min_seen}");
        assert!(max_seen > size - size / 100, "high extreme unreached: {max_seen}");
    }

    #[test]
    fn fig7_curve_space_matches_restricted_design_space() {
        for choice in [CfuChoice::None, CfuChoice::Cfu1, CfuChoice::Cfu2] {
            let curve = Fig7CurveSpace::new(choice);
            let mut restricted = DesignSpace::paper_scale();
            restricted.cfus = vec![choice];
            assert_eq!(SearchSpace::size(&curve), restricted.size());
            assert_eq!(curve.choice(), choice);
            // Identical index→point mapping, and every point carries the
            // curve's CFU.
            let step = restricted.size() / 97;
            for k in 0..97u64 {
                let idx = k * step;
                let p = SearchSpace::point(&curve, idx);
                assert_eq!(p, restricted.point(idx));
                assert_eq!(p.cfu, choice);
            }
            // Randomness and mutation also delegate to the base space.
            assert_eq!(curve.random_index(u64::MAX / 3), restricted.random_index(u64::MAX / 3));
            assert_eq!(
                curve.mutate_index(42, 0xDEAD_BEEF),
                restricted.mutate_index(42, 0xDEAD_BEEF)
            );
        }
    }

    #[test]
    fn cfu_choice_resources() {
        assert_eq!(CfuChoice::None.resources(), Resources::ZERO);
        assert!(CfuChoice::Cfu1.resources().luts > CfuChoice::Cfu2.resources().luts);
        assert_eq!(CfuChoice::Cfu2.resources().dsps, 4);
    }
}
