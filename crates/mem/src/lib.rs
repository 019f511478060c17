//! Memory-system models for the simulated CFU Playground SoC.
//!
//! The original framework runs on LiteX SoCs whose performance is dominated
//! by the memory system: execute-in-place (XIP) SPI flash, small on-chip
//! SRAM, external DDR3 behind LiteDRAM, and the VexRiscv I/D caches. The
//! Keyword-Spotting case study in the paper gets most of its 75× speedup
//! from memory-system changes (Quad-SPI upgrade, moving hot code and model
//! weights to SRAM, enlarging the I-cache) — so this crate models those
//! devices with *first-word latency + sequential bandwidth* fidelity:
//!
//! * [`SpiFlash`] — XIP flash with configurable [`SpiWidth`] (the paper's
//!   `QuadSPI` ladder step is exactly a `SpiWidth::Single → Quad` change),
//! * [`Sram`] — single-cycle on-chip block RAM,
//! * [`Ddr3`] — external DRAM with an open-row model (Arty A7's 256 MB),
//! * [`Cache`] — set-associative write-through caches with LRU and stats,
//! * [`Bus`] — an address map routing accesses to devices and accumulating
//!   per-device traffic statistics.
//!
//! # Example
//!
//! ```
//! use cfu_mem::{Bus, Sram, SpiFlash, SpiWidth};
//!
//! # fn main() -> Result<(), cfu_mem::MemError> {
//! let mut bus = Bus::new();
//! bus.map("rom", 0x0000_0000, SpiFlash::new(2 << 20, SpiWidth::Quad));
//! bus.map("sram", 0x1000_0000, Sram::new(128 << 10));
//!
//! bus.write_u32(0x1000_0000, 0xdead_beef)?;
//! assert_eq!(bus.read_u32(0x1000_0000)?.value, 0xdead_beef);
//! // ROM reads work; ROM writes are rejected.
//! assert!(bus.write_u32(0x0000_0000, 1).is_err());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panics are reserved for internal invariants, each with a scoped allow
// that names it.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod bus;
mod cache;
mod device;
mod dram;
mod error;
mod flash;
mod sram;

pub use bus::{Bus, DeviceStats, RegionId, RegionInfo};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use device::{BusDevice, ReadResult};
pub use dram::{Ddr3, Ddr3Timing};
pub use error::MemError;
pub use flash::{SpiFlash, SpiWidth};
pub use sram::Sram;
