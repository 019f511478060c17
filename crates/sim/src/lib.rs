//! A configurable VexRiscv-like soft-CPU simulator with a CFU port.
//!
//! Two execution paths share one timing model:
//!
//! * [`Cpu`] — an RV32IM instruction-set simulator that runs real encoded
//!   programs (the Renode-equivalent path; §II-E of the paper). It is one
//!   fetch → decode → execute interpreter. Custom-0 instructions dispatch
//!   to the attached [`cfu_core::Cfu`].
//! * [`TimedCore`] — a transaction-level model that TFLite-Micro-style
//!   kernels drive op by op, for whole-model inference cycle counts. The
//!   paper's figures run on it, never on [`Cpu`]. Figure 7 scores its
//!   timing siblings by [`TraceReplayer`] replays of in-memory [`Trace`]s
//!   captured from it.
//!
//! Both respect every [`CpuConfig`] knob: pipeline depth, bypassing,
//! branch predictors ([`BranchPredictor`]), multiplier/divider/shifter
//! implementations, and I/D cache geometry — the exact design-space
//! parameters §II-F exposes to Vizier.
//!
//! # Example
//!
//! ```
//! use cfu_isa::Assembler;
//! use cfu_mem::{Bus, Sram};
//! use cfu_sim::{Cpu, CpuConfig, StopReason};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut bus = Bus::new();
//! bus.map("sram", 0, Sram::new(4096));
//! let program = Assembler::new(0).assemble("li a0, 7\nli a7, 93\necall")?;
//! let mut cpu = Cpu::new(CpuConfig::arty_default(), bus);
//! cpu.load_program(&program)?;
//! assert_eq!(cpu.run(100)?, StopReason::Exit(7));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panics are reserved for internal invariants, each with a scoped allow
// that names it.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod bpred;
mod config;
mod cpu;
pub mod energy;
#[cfg(test)]
mod fetch_batching;
#[cfg(test)]
mod mac_loop;
mod retime;
pub mod span;
mod timed_core;

pub use bpred::{Prediction, PredictorState};
pub use config::{BranchPredictor, CpuConfig, Divider, Multiplier, Shifter};
pub use cpu::{syscall, Cpu, CpuStats, SimError, StopReason, UNCACHED_BASE};
pub use retime::{
    BranchProfile, CoreProfile, MemoryProfile, ReplayError, ReplaySummary, Trace, TraceReplayer,
};
pub use timed_core::{MacLoop, TimedCore, TlmStats};
