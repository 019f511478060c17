//! CFU operation tracing — the Renode flow's waveform capture.
//!
//! "The Renode emulator also allows us to capture the waveforms from the
//! CFU operation, which is extremely useful for tracking down errors in
//! the hardware design of the user-defined CFU." [`TracedCfu`] wraps any
//! [`Cfu`] and records every operation (selector, operands, result or
//! error, response latency); the trace can be inspected programmatically
//! or dumped as a VCD file for a waveform viewer.

use std::fmt::Write as _;

use crate::interface::{Cfu, CfuError, CfuOp, CfuResponse};
use crate::resources::Resources;

/// One recorded CFU transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Transaction sequence number (also its start time in the VCD,
    /// which is transaction-indexed).
    pub seq: u64,
    /// The op selector.
    pub op: CfuOp,
    /// First operand.
    pub rs1: u32,
    /// Second operand.
    pub rs2: u32,
    /// Result value, or the error text.
    pub result: Result<u32, String>,
    /// Response latency in cycles (0 for errors).
    pub latency: u32,
}

/// A [`Cfu`] wrapper that records every transaction.
///
/// # Example
///
/// ```
/// use cfu_core::{Cfu, CfuOp};
/// use cfu_core::templates::SimdAddCfu;
/// use cfu_core::trace::TracedCfu;
///
/// let mut cfu = TracedCfu::new(SimdAddCfu::new());
/// cfu.execute(CfuOp::new(0, 0), 1, 2).unwrap();
/// assert_eq!(cfu.trace().len(), 1);
/// assert!(cfu.to_vcd().contains("$var"));
/// ```
#[derive(Debug)]
pub struct TracedCfu<C> {
    inner: C,
    trace: Vec<TraceEntry>,
    limit: usize,
}

impl<C: Cfu> TracedCfu<C> {
    /// Wraps `inner` with an unbounded-ish trace (1M entries).
    pub fn new(inner: C) -> Self {
        TracedCfu { inner, trace: Vec::new(), limit: 1_000_000 }
    }

    /// Wraps with an explicit entry limit (oldest entries are dropped).
    pub fn with_limit(inner: C, limit: usize) -> Self {
        TracedCfu { inner, trace: Vec::new(), limit: limit.max(1) }
    }

    /// The recorded transactions, oldest first.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// The wrapped CFU.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Renders the trace as a VCD (value-change dump) with one timestep
    /// per transaction — loadable in GTKWave and friends.
    pub fn to_vcd(&self) -> String {
        let mut out = String::new();
        out.push_str("$date simulated $end\n");
        out.push_str("$timescale 1ns $end\n");
        out.push_str(&format!("$scope module {} $end\n", self.inner.name().replace(' ', "_")));
        out.push_str("$var wire 7 ! funct7 $end\n");
        out.push_str("$var wire 3 \" funct3 $end\n");
        out.push_str("$var wire 32 # rs1 $end\n");
        out.push_str("$var wire 32 $ rs2 $end\n");
        out.push_str("$var wire 32 % result $end\n");
        out.push_str("$var wire 1 & error $end\n");
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        for e in &self.trace {
            let _ = writeln!(out, "#{}", e.seq);
            let _ = writeln!(out, "b{:07b} !", e.op.funct7());
            let _ = writeln!(out, "b{:03b} \"", e.op.funct3());
            let _ = writeln!(out, "b{:032b} #", e.rs1);
            let _ = writeln!(out, "b{:032b} $", e.rs2);
            match &e.result {
                Ok(v) => {
                    let _ = writeln!(out, "b{v:032b} %");
                    let _ = writeln!(out, "0&");
                }
                Err(_) => {
                    let _ = writeln!(out, "bx %");
                    let _ = writeln!(out, "1&");
                }
            }
        }
        out
    }
}

impl<C: Cfu> Cfu for TracedCfu<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, op: CfuOp, rs1: u32, rs2: u32) -> Result<CfuResponse, CfuError> {
        let result = self.inner.execute(op, rs1, rs2);
        let entry = TraceEntry {
            seq: self.trace.len() as u64,
            op,
            rs1,
            rs2,
            result: result.as_ref().map(|r| r.value).map_err(|e| e.to_string()),
            latency: result.as_ref().map_or(0, |r| r.latency),
        };
        if self.trace.len() >= self.limit {
            self.trace.remove(0);
        }
        self.trace.push(entry);
        result
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn resources(&self) -> Resources {
        self.inner.resources()
    }

    fn supports(&self, op: CfuOp) -> bool {
        self.inner.supports(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::{MacCfu, SimdAddCfu};

    #[test]
    fn records_operations_in_order() {
        let mut cfu = TracedCfu::new(SimdAddCfu::new());
        cfu.execute(CfuOp::new(0, 0), 1, 2).unwrap();
        cfu.execute(CfuOp::new(1, 0), 3, 4).unwrap();
        let t = cfu.trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].rs1, 1);
        assert_eq!(t[1].op, CfuOp::new(1, 0));
        assert_eq!(t[0].result, Ok(3));
    }

    #[test]
    fn records_errors_and_stays_transparent() {
        let mut cfu = TracedCfu::new(SimdAddCfu::new());
        assert!(cfu.execute(CfuOp::new(99, 0), 0, 0).is_err());
        assert!(cfu.trace()[0].result.is_err());
        // Behaviour is unchanged relative to the bare CFU.
        assert_eq!(cfu.execute(CfuOp::new(0, 0), 5, 6).unwrap().value, 11);
    }

    #[test]
    fn limit_drops_oldest() {
        let mut cfu = TracedCfu::with_limit(MacCfu::new(), 3);
        for i in 0..5u32 {
            cfu.execute(CfuOp::new(0, 0), i, 1).unwrap();
        }
        assert_eq!(cfu.trace().len(), 3);
        assert_eq!(cfu.trace()[0].rs1, 2); // entries 0 and 1 dropped
    }

    #[test]
    fn vcd_is_parseable_shape() {
        let mut cfu = TracedCfu::new(SimdAddCfu::new());
        cfu.execute(CfuOp::new(0, 0), 0xFF, 0x01).unwrap();
        let vcd = cfu.to_vcd();
        assert!(vcd.starts_with("$date"));
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("#0"));
        assert!(vcd.contains("b00000000000000000000000011111111 #"));
    }

    #[test]
    fn state_passes_through() {
        let mut cfu = TracedCfu::new(MacCfu::new());
        cfu.execute(CfuOp::new(0, 0), 6, 7).unwrap();
        assert_eq!(cfu.execute(CfuOp::new(1, 0), 0, 0).unwrap().value, 42);
        cfu.reset();
        assert_eq!(cfu.execute(CfuOp::new(1, 0), 0, 0).unwrap().value, 0);
        assert_eq!(cfu.trace().len(), 3);
    }
}
