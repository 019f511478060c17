//! CPU configuration: the VexRiscv feature knobs.
//!
//! VexRiscv is "highly configurable, providing the ability to easily
//! plugin or remove many different features for performance and
//! functionality such as pipelining stages, caches, and floating point
//! units" — and that configurability is exactly what the paper's
//! design-space exploration searches over. Every knob here is one of the
//! DSE parameters listed in §II-F (branch predictor types, I- and D-cache
//! sizes, multipliers, dividers, shifters) plus the ones the KWS case
//! study toggles (hardware error checking, bypassing, pipeline depth).

use cfu_core::Resources;
use cfu_mem::CacheConfig;

/// Branch prediction strategy (the paper's DSE lists "static, dynamic,
/// dynamic target").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BranchPredictor {
    /// No prediction: every taken control transfer refills the pipeline.
    #[default]
    None,
    /// Static backward-taken/forward-not-taken (BTFN).
    Static,
    /// Dynamic: a table of 2-bit saturating counters indexed by PC.
    Dynamic {
        /// Number of counters (power of two).
        entries: u32,
    },
    /// Dynamic with a branch target buffer: correctly-predicted taken
    /// branches also avoid the redirect bubble.
    DynamicTarget {
        /// Number of counters / BTB entries (power of two).
        entries: u32,
    },
}

/// Hardware multiplier choice.
///
/// The Fomu ladder's `Fast Mult` step replaces the iterative multiplier
/// with a single-cycle DSP-backed one ("this used four of Fomu's eight
/// DSP tiles").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Multiplier {
    /// No `M` multiply hardware: `mul` traps to a ~140-cycle software
    /// routine (GCC's `__mulsi3`).
    None,
    /// Iterative shift-add multiplier, ~1 bit per cycle.
    #[default]
    Iterative,
    /// Single-cycle multiplier built from 4 DSP tiles.
    SingleCycleDsp,
    /// Single-cycle multiplier built from fabric LUTs (for boards with no
    /// DSPs to spare; large).
    SingleCycleLut,
}

/// Hardware divider choice. The Fomu configuration omits the divider and
/// lets software emulation handle division.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Divider {
    /// No divide hardware: ~350-cycle software routine.
    None,
    /// Iterative restoring divider, 1 bit per cycle (32-36 cycles).
    #[default]
    Iterative,
}

/// Shifter implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Shifter {
    /// One bit per cycle.
    Iterative,
    /// Full barrel shifter, single cycle.
    #[default]
    Barrel,
}

/// A complete soft-CPU configuration.
///
/// Use the presets ([`CpuConfig::arty_default`], [`CpuConfig::fomu_minimal`],
/// ...) as starting points and the builder-style `with_*` methods to vary
/// single knobs, which is how the design-space explorer enumerates
/// configurations.
///
/// # Example
///
/// ```
/// use cfu_sim::CpuConfig;
/// let cfg = CpuConfig::arty_default().with_icache_bytes(8192);
/// assert!(cfg.resources().luts > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuConfig {
    /// Pipeline stages (2..=7). Deeper pipelines clock faster on real
    /// silicon but pay larger refill penalties; the simulator charges the
    /// refill.
    pub pipeline_depth: u32,
    /// Operand bypassing/forwarding network. Without it, load-use and
    /// back-to-back dependent ops stall.
    pub bypassing: bool,
    /// Branch prediction strategy.
    pub branch_predictor: BranchPredictor,
    /// Multiplier implementation.
    pub multiplier: Multiplier,
    /// Divider implementation.
    pub divider: Divider,
    /// Shifter implementation.
    pub shifter: Shifter,
    /// Instruction cache geometry, if present.
    pub icache: Option<CacheConfig>,
    /// Data cache geometry, if present.
    pub dcache: Option<CacheConfig>,
    /// Hardware error checking (misaligned-address traps etc.). The KWS
    /// case study removes it to reclaim logic cells.
    pub hw_error_checking: bool,
    /// RV32C compressed-instruction support: 16-bit parcels roughly
    /// halve hot-loop fetch bandwidth (critical on XIP flash) at the
    /// cost of an expander in the decode stage.
    pub compressed: bool,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig::arty_default()
    }
}

impl CpuConfig {
    /// The Arty A7-35T default: 5-stage, bypassed, 4 KiB caches, dynamic
    /// branch prediction, single-cycle multiply — the configuration the
    /// MobileNetV2 case study starts from.
    pub fn arty_default() -> Self {
        CpuConfig {
            pipeline_depth: 5,
            bypassing: true,
            branch_predictor: BranchPredictor::Dynamic { entries: 64 },
            multiplier: Multiplier::SingleCycleDsp,
            divider: Divider::Iterative,
            shifter: Shifter::Barrel,
            icache: Some(CacheConfig { size_bytes: 4096, ways: 1, line_bytes: 32 }),
            dcache: Some(CacheConfig { size_bytes: 4096, ways: 1, line_bytes: 32 }),
            hw_error_checking: true,
            compressed: false,
        }
    }

    /// The configuration that *almost* fits Fomu: minimal VexRiscv with
    /// hardware error checking still present. The paper: "the minimal
    /// VexRiscv configuration (without caches, hardware multiplication,
    /// branch prediction, or bypassing) does not fit on Fomu".
    pub fn fomu_minimal() -> Self {
        CpuConfig {
            pipeline_depth: 2,
            bypassing: false,
            branch_predictor: BranchPredictor::None,
            multiplier: Multiplier::None,
            divider: Divider::None,
            shifter: Shifter::Iterative,
            icache: None,
            dcache: None,
            hw_error_checking: true,
            compressed: false,
        }
    }

    /// The trimmed Fomu baseline that actually fits: error checking
    /// removed, iterative multiplier added (the paper's starting point
    /// for the KWS ladder).
    pub fn fomu_baseline() -> Self {
        CpuConfig {
            multiplier: Multiplier::Iterative,
            hw_error_checking: false,
            ..CpuConfig::fomu_minimal()
        }
    }

    /// Fomu after the `Larger Icache` ladder step: a 2 KiB I-cache paid
    /// for by removed SoC features.
    pub fn fomu_with_icache(icache_bytes: u32) -> Self {
        CpuConfig {
            icache: Some(CacheConfig { size_bytes: icache_bytes, ways: 1, line_bytes: 32 }),
            ..CpuConfig::fomu_baseline()
        }
    }

    /// Replaces the I-cache size (keeping 1-way 32-byte lines); 0 removes
    /// the cache.
    pub fn with_icache_bytes(mut self, bytes: u32) -> Self {
        self.icache =
            (bytes > 0).then_some(CacheConfig { size_bytes: bytes, ways: 1, line_bytes: 32 });
        self
    }

    /// Replaces the D-cache size (keeping 1-way 32-byte lines); 0 removes
    /// the cache.
    pub fn with_dcache_bytes(mut self, bytes: u32) -> Self {
        self.dcache =
            (bytes > 0).then_some(CacheConfig { size_bytes: bytes, ways: 1, line_bytes: 32 });
        self
    }

    /// Replaces the multiplier.
    pub fn with_multiplier(mut self, multiplier: Multiplier) -> Self {
        self.multiplier = multiplier;
        self
    }

    /// Replaces the branch predictor.
    pub fn with_branch_predictor(mut self, bp: BranchPredictor) -> Self {
        self.branch_predictor = bp;
        self
    }

    /// Enables or disables RV32C support.
    pub fn with_compressed(mut self, compressed: bool) -> Self {
        self.compressed = compressed;
        self
    }

    /// Pipeline refill penalty in cycles after a mispredicted or
    /// unpredicted control transfer.
    pub fn refill_penalty(&self) -> u64 {
        u64::from(self.pipeline_depth.saturating_sub(1).max(1))
    }

    /// Cycles for one `mul` (the returning-result latency the pipeline
    /// observes).
    pub fn mul_cycles(&self) -> u64 {
        match self.multiplier {
            Multiplier::None => 140, // software __mulsi3 average
            Multiplier::Iterative => 34,
            Multiplier::SingleCycleDsp | Multiplier::SingleCycleLut => 1,
        }
    }

    /// Cycles for one `div`/`rem`.
    pub fn div_cycles(&self) -> u64 {
        match self.divider {
            Divider::None => 360, // software __divsi3 average
            Divider::Iterative => 34,
        }
    }

    /// Cycles for a shift by `shamt`.
    pub fn shift_cycles(&self, shamt: u32) -> u64 {
        match self.shifter {
            Shifter::Iterative => 1 + u64::from(shamt),
            Shifter::Barrel => 1,
        }
    }

    /// FPGA resources of this CPU (the VexRiscv core only; SoC fabric is
    /// accounted by `cfu-soc`). Constants are calibrated to public
    /// VexRiscv synthesis results: ~750 LUTs minimal, ~2.4k LUTs for the
    /// full-featured Arty configuration.
    pub fn resources(&self) -> Resources {
        let mut r = Resources::new(800, 620, 0, 0); // 2-stage base core
        r += Resources::new(90, 70, 0, 0) * self.pipeline_depth.saturating_sub(2);
        if self.bypassing {
            r += Resources::luts(210);
        }
        r += match self.branch_predictor {
            BranchPredictor::None => Resources::ZERO,
            BranchPredictor::Static => Resources::luts(60),
            BranchPredictor::Dynamic { entries } => {
                Resources { luts: 140, ffs: 40, brams: (entries / 2048).max(1), dsps: 0 }
            }
            BranchPredictor::DynamicTarget { entries } => {
                Resources { luts: 320, ffs: 90, brams: (entries / 1024).max(1), dsps: 0 }
            }
        };
        r += match self.multiplier {
            Multiplier::None => Resources::ZERO,
            Multiplier::Iterative => Resources { luts: 160, ffs: 70, brams: 0, dsps: 0 },
            Multiplier::SingleCycleDsp => Resources { luts: 90, ffs: 60, brams: 0, dsps: 4 },
            Multiplier::SingleCycleLut => Resources { luts: 1150, ffs: 60, brams: 0, dsps: 0 },
        };
        r += match self.divider {
            Divider::None => Resources::ZERO,
            Divider::Iterative => Resources { luts: 190, ffs: 80, brams: 0, dsps: 0 },
        };
        r += match self.shifter {
            Shifter::Iterative => Resources::luts(70),
            Shifter::Barrel => Resources::luts(260),
        };
        for cache in [self.icache, self.dcache].into_iter().flatten() {
            // Control logic + tag/data BRAMs (0.5 KiB units).
            let data_brams = cache.size_bytes.div_ceil(512);
            let tag_brams = (cache.sets() * cache.ways * 4).div_ceil(512);
            r += Resources { luts: 380, ffs: 160, brams: data_brams + tag_brams, dsps: 0 };
        }
        if self.hw_error_checking {
            r += Resources { luts: 300, ffs: 110, brams: 0, dsps: 0 };
        }
        if self.compressed {
            // The RVC expander in the decode stage.
            r += Resources { luts: 150, ffs: 40, brams: 0, dsps: 0 };
        }
        r
    }

    /// Validates cache geometries and field ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=7).contains(&self.pipeline_depth) {
            return Err(format!("pipeline depth {} out of range 2..=7", self.pipeline_depth));
        }
        match self.branch_predictor {
            BranchPredictor::Dynamic { entries } | BranchPredictor::DynamicTarget { entries }
                if !entries.is_power_of_two() =>
            {
                return Err(format!("predictor entries {entries} must be a power of two"));
            }
            _ => {}
        }
        for cache in [self.icache, self.dcache].into_iter().flatten() {
            cache.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            CpuConfig::arty_default(),
            CpuConfig::fomu_minimal(),
            CpuConfig::fomu_baseline(),
            CpuConfig::fomu_with_icache(2048),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn fomu_minimal_is_smaller_than_arty() {
        let fomu = CpuConfig::fomu_minimal().resources();
        let arty = CpuConfig::arty_default().resources();
        assert!(fomu.luts < arty.luts);
        assert!(fomu.brams < arty.brams);
    }

    #[test]
    fn error_checking_costs_lut() {
        let with = CpuConfig::fomu_minimal();
        let without = CpuConfig { hw_error_checking: false, ..with };
        assert_eq!(with.resources().luts - without.resources().luts, 300);
    }

    #[test]
    fn single_cycle_multiplier_uses_dsps() {
        assert_eq!(CpuConfig::arty_default().resources().dsps, 4);
        assert_eq!(CpuConfig::fomu_baseline().resources().dsps, 0);
        assert_eq!(
            CpuConfig::fomu_baseline().with_multiplier(Multiplier::SingleCycleDsp).resources().dsps,
            4
        );
    }

    #[test]
    fn latency_knobs() {
        let cfg = CpuConfig::fomu_baseline();
        assert_eq!(cfg.mul_cycles(), 34);
        assert_eq!(cfg.with_multiplier(Multiplier::SingleCycleDsp).mul_cycles(), 1);
        assert_eq!(cfg.div_cycles(), 360); // no divider → software
        assert_eq!(cfg.shift_cycles(31), 32); // iterative
        assert_eq!(CpuConfig::arty_default().shift_cycles(31), 1); // barrel
        assert_eq!(CpuConfig::arty_default().refill_penalty(), 4);
    }

    #[test]
    fn builder_knobs() {
        let cfg = CpuConfig::arty_default().with_icache_bytes(0).with_dcache_bytes(16384);
        assert!(cfg.icache.is_none());
        assert_eq!(cfg.dcache.unwrap().size_bytes, 16384);
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = CpuConfig { pipeline_depth: 9, ..CpuConfig::arty_default() };
        assert!(bad.validate().is_err());
        let bad = CpuConfig {
            branch_predictor: BranchPredictor::Dynamic { entries: 100 },
            ..CpuConfig::arty_default()
        };
        assert!(bad.validate().is_err());
        // entries: 0 is not a power of two either — a zero-size table
        // would otherwise mask indices against `0 - 1`.
        let bad = CpuConfig {
            branch_predictor: BranchPredictor::DynamicTarget { entries: 0 },
            ..CpuConfig::arty_default()
        };
        assert!(bad.validate().is_err());
    }
}
