//! CFU Playground, reproduced in Rust: a full-stack *simulated*
//! hardware-software co-design framework for TinyML acceleration.
//!
//! This facade crate re-exports the whole stack:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `cfu-core` | the CFU interface, building blocks, CFU1/CFU2, software-emulation verification, resource model |
//! | [`isa`] | `cfu-isa` | RV32IM + custom-0 encoder/decoder, assembler, disassembler |
//! | [`mem`] | `cfu-mem` | SPI/QSPI XIP flash, SRAM, DDR3, caches, bus |
//! | [`sim`] | `cfu-sim` | the VexRiscv-like CPU: ISS + transaction-level core |
//! | [`tflm`] | `cfu-tflm` | int8 inference runtime, kernels, model zoo, profiler |
//! | [`soc`] | `cfu-soc` | boards, SoC builder, fit checking |
//! | [`dse`] | `cfu-dse` | design-space exploration (the Vizier stand-in) |
//!
//! # The deploy → profile → optimize loop in one example
//!
//! ```
//! use cfu_playground::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Deploy: a small conv net on the Arty A7-35T, generic kernels.
//! let board = Board::arty_a7_35t();
//! let model = models::tiny_test_net(1);
//! let input = models::synthetic_input(&model, 42);
//! let cfg = DeployConfig::new(CpuConfig::arty_default(), "main_ram", "main_ram", "main_ram");
//! let mut dep = Deployment::new(model, board.build_bus(None), Box::new(NullCfu), &cfg)?;
//!
//! // Profile: where do the cycles go?
//! let (_, profile) = dep.run(&input)?;
//! assert!(profile.total_cycles() > 0);
//!
//! // Optimize: attach a CFU and swap in an optimized kernel — see
//! // `examples/image_classification.rs` for the full ladder.
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cfu_core as core;
pub use cfu_dse as dse;
pub use cfu_isa as isa;
pub use cfu_mem as mem;
pub use cfu_sim as sim;
pub use cfu_soc as soc;
pub use cfu_tflm as tflm;

/// The most commonly used items, one `use` away.
pub mod prelude {
    pub use cfu_core::{
        cfu1::{Cfu1, Cfu1Stage},
        cfu2::Cfu2,
        emu::SwCfu,
        trace::TracedCfu,
        verify::{equivalence_check, OpStream},
        Cfu, CfuOp, CfuResponse, NullCfu, Resources,
    };
    pub use cfu_dse::{
        CfuChoice, DesignSpace, Evaluator, EvaluatorFactory, Fig7CurveSpace, InferenceEvaluator,
        InferenceEvaluatorFactory, ParallelStudy, ParetoArchive, RandomSearch,
        RegularizedEvolution, SearchSpace, Study,
    };
    pub use cfu_isa::{cfu_op_word, Assembler, Inst, Reg};
    pub use cfu_mem::{Bus, Cache, CacheConfig, Ddr3, SpiFlash, SpiWidth, Sram};
    pub use cfu_sim::{BranchPredictor, Cpu, CpuConfig, Multiplier, StopReason, TimedCore};
    pub use cfu_soc::{Board, SocBuilder, SocFeatures};
    pub use cfu_tflm::deploy::{ConvKernel, DeployConfig, Deployment, DwKernel, KernelRegistry};
    pub use cfu_tflm::golden::GoldenSuite;
    pub use cfu_tflm::kernels::conv1x1::Conv1x1Variant;
    pub use cfu_tflm::models;
    pub use cfu_tflm::tensor::{QuantParams, Shape, Tensor};
}
