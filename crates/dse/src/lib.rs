//! Automated design-space exploration of CPU + CFU configurations — the
//! open-source-Vizier integration of CFU Playground (§II-F, Figure 7).
//!
//! "The DSE parameters could include branch predictor types (static,
//! dynamic, dynamic target), custom functional units (SIMD, MAC, etc.),
//! I- and D-cache sizes, multipliers, dividers, shifters etc. These
//! parameters are made available to Vizier, and the service returns
//! different configurations to explore based on what the user would like
//! to optimize (e.g., resources or latency)."
//!
//! * [`DesignSpace`] — the enumerable parameter space (~90 000 points in
//!   the paper-scale configuration),
//! * [`Evaluator`] — maps a [`DesignPoint`] to `(latency, resources)`:
//!   resources via the yosys-stand-in model, latency via simulated
//!   inference (the Verilator-in-the-cloud stand-in),
//! * [`ParallelStudy`] — the Vizier-style suggest/observe loop that
//!   every figure runs: pluggable [`Optimizer`] strategies (random,
//!   grid, regularized evolution), each suggestion batch fanned out over
//!   a worker pool behind one [`MemoCache`], with per-point fault
//!   domains; fronts are bit-identical at any thread count,
//! * [`Study`] — the same loop, serial, with no memo, fault domain or
//!   worker pool: the reference the thread-invariance tests compare
//!   [`ParallelStudy`] against,
//! * [`ParetoArchive`] — non-dominated (resources, latency) front
//!   extraction for the Figure 7 curves,
//! * [`ResultStore`] — an on-disk, append-only, content-addressed
//!   corpus of evaluated points keyed by `(point, workload,
//!   sim-version)`; attach a [`StudyStore`] to a [`ParallelStudy`] to
//!   persist fresh evaluations and resume interrupted sweeps with zero
//!   re-simulation.
//!
//! The engine is generic over [`SearchSpace`], so degenerate spaces
//! (e.g. the Figure-4/Figure-6 ladder sweeps in `cfu-bench`) run
//! through the same drivers, caches and archives as the paper-scale
//! [`DesignSpace`].
//!
//! # Example
//!
//! ```
//! use cfu_dse::{DesignSpace, ParallelStudy, RegularizedEvolution, ResourceEvaluator};
//!
//! // Latency here is a toy stand-in; see `InferenceEvaluatorFactory` for
//! // the real workload-driven evaluator that `fig7_dse_pareto` pools.
//! let mut study = ParallelStudy::new(DesignSpace::small(), RegularizedEvolution::new(7, 8, 3), 2);
//! study.run(&|| ResourceEvaluator::new(5280), 50);
//! assert!(!study.archive().front().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A panic inside the study engine used to abort (or silently poison)
// a whole multi-hour sweep; panics are now reserved for caller bugs and
// internal invariants, each with a scoped, justified allow.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod eval;
mod fault;
mod optimizer;
mod parallel;
mod pareto;
mod space;
mod store;

pub use eval::{EvalResult, Evaluator, InferenceEvaluator, ResourceEvaluator, TraceStore};
pub use fault::{
    fault_key, EvalFailure, FailureClass, FaultKind, FaultPlan, FaultyEvaluator, FaultyFactory,
    GuestFaultKind, RetryPolicy, StudyReport,
};
pub use optimizer::{
    GridSearch, Optimizer, RandomSearch, RegularizedEvolution, Study, SUGGEST_BATCH,
};
pub use parallel::{EvaluatorFactory, InferenceEvaluatorFactory, MemoCache, ParallelStudy};
pub use pareto::{ParetoArchive, ParetoPoint};
pub use space::{CfuChoice, DesignPoint, DesignSpace, Fig7CurveSpace, SearchSpace};
pub use store::{key_fingerprint, ResultStore, StoreContext, StoreKey, StudyStore, SIM_VERSION};
