//! A TensorFlow-Lite-Micro-like int8 inference runtime for the simulated
//! CFU Playground stack.
//!
//! * [`tensor`] / [`model`] — quantized tensors and model graphs,
//! * [`mod@reference`] — golden TFLM-exact kernels (pure functions),
//! * [`kernels`] — *deployed* kernels that run against the
//!   transaction-level CPU model, charging every memory access and custom
//!   instruction; includes the paper's Figure-4 MobileNetV2 ladder and
//!   Figure-6 KWS kernels,
//! * [`deploy`] — placement of weights/arena/code into simulated memory
//!   and the inference driver,
//! * [`memo`] — converged-layer fast-forward for deployments that share
//!   layers (the Figure 4 ladder's rungs),
//! * [`profiler`] — per-operator cycle attribution (the "profile" step),
//! * [`models`] — the MLPerf-Tiny-style model zoo with deterministic
//!   synthetic weights.
//!
//! # Example: profile a tiny model on a simulated SoC
//!
//! ```
//! use cfu_mem::{Bus, Sram};
//! use cfu_sim::CpuConfig;
//! use cfu_tflm::deploy::{DeployConfig, Deployment};
//! use cfu_tflm::models;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut bus = Bus::new();
//! bus.map("ram", 0x1000_0000, Sram::new(4 << 20));
//! let model = models::tiny_test_net(1);
//! let cfg = DeployConfig::new(CpuConfig::arty_default(), "ram", "ram", "ram");
//! let mut dep = Deployment::new(model.clone(), bus, Box::new(cfu_core::NullCfu), &cfg)?;
//! let input = models::synthetic_input(&model, 42);
//! let (output, profile) = dep.run(&input)?;
//! assert_eq!(output.shape.elements(), 4);
//! assert!(profile.total_cycles() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod golden;
pub mod kernels;
pub mod memo;
pub mod model;
pub mod models;
pub mod profiler;
pub mod reference;
pub mod tensor;
