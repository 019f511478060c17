//! Deployed kernels: TFLM-style operator implementations that run against
//! the transaction-level CPU model.
//!
//! Each kernel reads tensors and weights from *simulated memory* through a
//! [`TimedCore`], charging every fetch, load, store, multiply, branch and
//! CFU op — so kernel cycle counts respond to cache geometry, memory
//! placement, SPI width, multiplier choice and CFU design exactly like
//! the paper's on-board measurements. Every kernel must produce output
//! bytes identical to the [`crate::reference`] kernels; the equivalence
//! is enforced by unit and property tests.
//!
//! The module layout mirrors the paper's two case studies:
//!
//! * [`generic`] — faithful ports of the TFLite-Micro *reference* kernels
//!   including their per-element offset recomputation overhead (the
//!   unaccelerated baseline),
//! * [`conv1x1`] — the MobileNetV2 pointwise-convolution ladder (Figure
//!   4), one variant per optimization step,
//! * [`kws`] — the Keyword-Spotting conv/depthwise kernels (Figure 6),
//!   software-specialized and CFU2-accelerated variants.

pub mod conv1x1;
pub mod generic;
pub mod kws;

use std::fmt;

use cfu_core::CfuError;
use cfu_mem::MemError;
use cfu_sim::TimedCore;

use crate::model::{ConvParams, DepthwiseParams, FullyConnectedParams};
use crate::reference::ChannelQuant;
use crate::tensor::{QuantParams, Shape};

/// Error from a deployed kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A simulated memory access faulted.
    Mem(MemError),
    /// The CFU rejected an op (wrong CFU attached for this kernel?).
    Cfu(CfuError),
    /// The kernel cannot handle this layer configuration.
    Unsupported(String),
    /// The run exceeded the deployment's guest cycle budget — the
    /// watchdog for runaway configurations in long sweeps (see
    /// [`DeployConfig::cycle_budget`](crate::deploy::DeployConfig)).
    BudgetExhausted {
        /// Cycles consumed when the watchdog fired.
        cycles: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Mem(e) => write!(f, "memory fault in kernel: {e}"),
            KernelError::Cfu(e) => write!(f, "CFU fault in kernel: {e}"),
            KernelError::Unsupported(why) => write!(f, "kernel cannot run this layer: {why}"),
            KernelError::BudgetExhausted { cycles, budget } => {
                write!(f, "guest cycle budget exhausted: {cycles} cycles > {budget} budget")
            }
        }
    }
}

impl std::error::Error for KernelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KernelError::Mem(e) => Some(e),
            KernelError::Cfu(e) => Some(e),
            KernelError::Unsupported(_) | KernelError::BudgetExhausted { .. } => None,
        }
    }
}

impl From<MemError> for KernelError {
    fn from(e: MemError) -> Self {
        KernelError::Mem(e)
    }
}

impl From<CfuError> for KernelError {
    fn from(e: CfuError) -> Self {
        KernelError::Cfu(e)
    }
}

/// A tensor living in simulated memory.
#[derive(Debug, Clone, Copy)]
pub struct MemTensor {
    /// Base address of the NHWC int8 data.
    pub addr: u32,
    /// Shape.
    pub shape: Shape,
    /// Quantization parameters.
    pub quant: QuantParams,
}

impl MemTensor {
    /// Address of element `(y, x, c)`.
    pub fn element_addr(&self, y: usize, x: usize, c: usize) -> u32 {
        self.addr + self.shape.index(y, x, c) as u32
    }
}

/// Where a kernel's code and a layer's constant data live in simulated
/// memory — the deployment plan's per-layer slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerData {
    /// Filter weights (OHWI int8).
    pub filter_addr: u32,
    /// Per-channel int32 biases.
    pub bias_addr: u32,
    /// Per-channel Q31 multipliers (int32), precomputed at Prepare time.
    pub mult_addr: u32,
    /// Per-channel shifts (int32).
    pub shift_addr: u32,
    /// Base of the kernel's machine code (instruction fetch region).
    pub code_base: u32,
    /// Size of the kernel's code footprint in bytes.
    pub code_len: u32,
}

/// A conv-layer job: everything a conv kernel needs.
pub struct ConvJob<'a> {
    /// Input activations in simulated memory.
    pub input: MemTensor,
    /// Output activations in simulated memory.
    pub output: MemTensor,
    /// Host-side parameters (shapes, quantization, weights for host-side
    /// staging into CFU buffers).
    pub params: &'a ConvParams,
    /// Precomputed per-channel requantization parameters.
    pub cq: &'a ChannelQuant,
    /// Addresses of the layer's constants.
    pub data: LayerData,
}

/// A depthwise-conv job.
pub struct DwJob<'a> {
    /// Input activations.
    pub input: MemTensor,
    /// Output activations.
    pub output: MemTensor,
    /// Host-side parameters.
    pub params: &'a DepthwiseParams,
    /// Per-channel requantization.
    pub cq: &'a ChannelQuant,
    /// Constant-data addresses.
    pub data: LayerData,
}

/// A fully-connected job.
pub struct FcJob<'a> {
    /// Input activations (flattened).
    pub input: MemTensor,
    /// Output activations.
    pub output: MemTensor,
    /// Host-side parameters.
    pub params: &'a FullyConnectedParams,
    /// Per-channel requantization.
    pub cq: &'a ChannelQuant,
    /// Constant-data addresses.
    pub data: LayerData,
}

/// Charges the cycles of TFLM's software
/// `MultiplyByQuantizedMultiplier` and clamp path: on a 32-bit RV32IM
/// core the 64-bit saturating-doubling high multiply costs four 32×32
/// multiplies plus carry bookkeeping, then the rounding shift and two
/// clamp branches.
pub fn charge_software_requant(core: &mut TimedCore) {
    for _ in 0..4 {
        core.mul();
    }
    core.alu(18); // 64-bit adds/carries, nudge, pack
    core.shift(8); // rounding divide-by-POT
    core.alu(3);
    core.branch(1001, false, false); // clamp low
    core.branch(1002, false, false); // clamp high
}

/// Loads the per-channel bias/multiplier/shift for `channel`, charging
/// three int32 loads.
///
/// # Errors
///
/// Bus faults.
pub fn load_channel_params(
    core: &mut TimedCore,
    data: &LayerData,
    channel: usize,
) -> Result<(i32, i32, i32), MemError> {
    let bias = core.load_i32(data.bias_addr + 4 * channel as u32)?;
    let mult = core.load_i32(data.mult_addr + 4 * channel as u32)?;
    let shift = core.load_i32(data.shift_addr + 4 * channel as u32)?;
    Ok((bias, mult, shift))
}
