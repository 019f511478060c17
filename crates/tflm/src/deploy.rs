//! Deployment: placing a model into simulated memory and running it
//! through the timed kernels — the "deploy" step of the loop.

use std::fmt;
use std::sync::Arc;

use cfu_core::Cfu;
use cfu_mem::Bus;
use cfu_sim::{CpuConfig, TimedCore};

use crate::kernels::conv1x1::{conv1x1, Conv1x1Variant};
use crate::kernels::{generic, kws, ConvJob, DwJob, FcJob, KernelError, LayerData, MemTensor};
use crate::memo::{write_reference, LayerKey, LayerMemo, MemoKernel, MemoScope};
use crate::model::{Model, Op};
use crate::profiler::{LayerProfile, Profile};
use crate::reference::{self, ChannelQuant};
use crate::tensor::Tensor;

/// Which kernel implements standard convolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConvKernel {
    /// TFLM reference kernel.
    #[default]
    Generic,
    /// CFU2 4-way SIMD MAC.
    Cfu2 {
        /// Post-process accumulators in the CFU.
        postproc: bool,
        /// Compiler-specialized loop bodies (constant filter shape).
        specialized: bool,
    },
}

/// Which kernel implements depthwise convolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DwKernel {
    /// TFLM reference kernel.
    #[default]
    Generic,
    /// One lane of CFU2's MAC array.
    Cfu2 {
        /// Post-process accumulators in the CFU.
        postproc: bool,
        /// Compiler-specialized loop bodies.
        specialized: bool,
    },
}

/// Kernel selection for a deployment — the "user must provide an
/// optimized kernel that uses the new custom instructions".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelRegistry {
    /// Ladder variant for pointwise convolutions (`None`: treat them as
    /// ordinary convolutions).
    pub conv1x1: Option<Conv1x1Variant>,
    /// Standard-convolution kernel.
    pub conv: ConvKernel,
    /// Depthwise-convolution kernel.
    pub dwconv: DwKernel,
}

/// Memory/placement plan for a deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployConfig {
    /// CPU configuration.
    pub cpu: CpuConfig,
    /// Kernel selection.
    pub registry: KernelRegistry,
    /// Bus region holding weights, biases and requantization tables
    /// (`.rodata` — flash on small boards).
    pub weights_region: String,
    /// Bus region holding activations (the TFLM tensor arena).
    pub arena_region: String,
    /// Bus region holding kernel code (`.text`).
    pub code_region: String,
    /// Optional distinct region for the *hot* kernels (conv/depthwise) —
    /// the KWS `SRAM Ops` step moves exactly these.
    pub hot_code_region: Option<String>,
    /// Optional region for hot-kernel weights — `SRAM Model` moves the
    /// model weights of the bottleneck ops.
    pub hot_weights_region: Option<String>,
    /// Code footprint of the hot (conv/depthwise) kernels, bytes.
    pub kernel_code_len: u32,
    /// Code footprint of the remaining kernels (pool/add/softmax/fc are
    /// much smaller loops), bytes.
    pub cold_kernel_code_len: u32,
    /// Guest cycle watchdog: a run whose core cycle count exceeds this
    /// budget fails with [`KernelError::BudgetExhausted`] at the next
    /// layer boundary instead of grinding on. `None` (the default)
    /// disables the watchdog. Layer-boundary granularity keeps the check
    /// off the per-operation hot path; kernels are bounded loops, so a
    /// "runaway" point is an absurdly slow configuration, not a true
    /// hang, and one layer of overshoot is an acceptable bound.
    pub cycle_budget: Option<u64>,
}

impl DeployConfig {
    /// A plan with everything in the given regions and generic kernels.
    pub fn new(cpu: CpuConfig, weights: &str, arena: &str, code: &str) -> Self {
        DeployConfig {
            cpu,
            registry: KernelRegistry::default(),
            weights_region: weights.to_owned(),
            arena_region: arena.to_owned(),
            code_region: code.to_owned(),
            hot_code_region: None,
            hot_weights_region: None,
            kernel_code_len: 3072,
            cold_kernel_code_len: 1536,
            cycle_budget: None,
        }
    }
}

/// Deployment errors (planning time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The model failed validation.
    BadModel(String),
    /// A named region is not on the bus.
    MissingRegion(String),
    /// A region is too small for what the plan places there — the Fomu
    /// "binary image would not fit in 128 kB" problem.
    RegionFull {
        /// Region name.
        region: String,
        /// Bytes the plan needed.
        needed: u32,
        /// Bytes the region has.
        available: u32,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::BadModel(why) => write!(f, "invalid model: {why}"),
            DeployError::MissingRegion(name) => write!(f, "bus has no region named `{name}`"),
            DeployError::RegionFull { region, needed, available } => {
                write!(f, "region `{region}` too small: need {needed} bytes, have {available}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// A simple bump allocator over one bus region. Addresses are `u64`: a
/// region may end at 4 GiB.
#[derive(Debug)]
struct RegionAlloc {
    name: String,
    base: u64,
    end: u64,
    cursor: u64,
}

impl RegionAlloc {
    fn new(bus: &Bus, name: &str) -> Result<Self, DeployError> {
        let (_, info) =
            bus.region_by_name(name).ok_or_else(|| DeployError::MissingRegion(name.to_owned()))?;
        let base = u64::from(info.base);
        Ok(RegionAlloc { name: name.to_owned(), base, end: info.end(), cursor: base })
    }

    fn alloc(&mut self, bytes: u32) -> Result<u32, DeployError> {
        let aligned = (u64::from(bytes) + 3) & !3;
        if self.cursor + aligned > self.end {
            let clamp = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
            return Err(DeployError::RegionFull {
                region: self.name.clone(),
                needed: clamp(self.cursor - self.base + aligned),
                available: clamp(self.end - self.base),
            });
        }
        let addr = self.cursor as u32;
        self.cursor += aligned;
        Ok(addr)
    }
}

struct LayerPlan {
    data: LayerData,
    cq: Option<ChannelQuant>,
}

/// A model installed in simulated memory, ready to run.
///
/// Dropping and rebuilding a `Deployment` is cheap; the figure harnesses
/// build one per ladder step. The model is held behind an [`Arc`], so
/// deploying the same network thousands of times (the Figure-7 DSE sweep)
/// never copies the weights — pass `Arc<Model>` (or share one via
/// [`Arc::clone`]) to get the zero-copy path; passing a bare [`Model`]
/// still works and wraps it once.
///
/// # Example
///
/// Deploy a small test network with everything (weights, arena, code)
/// in one RAM region and run one inference:
///
/// ```
/// use cfu_core::NullCfu;
/// use cfu_mem::{Bus, Sram};
/// use cfu_sim::CpuConfig;
/// use cfu_tflm::deploy::{DeployConfig, Deployment};
/// use cfu_tflm::models;
///
/// let model = models::tiny_test_net(1);
/// let input = models::synthetic_input(&model, 2);
/// let mut bus = Bus::new();
/// bus.map("main_ram", 0, Sram::new(1 << 20));
/// let cfg = DeployConfig::new(CpuConfig::arty_default(), "main_ram", "main_ram", "main_ram");
/// let mut dep = Deployment::new(model, bus, Box::new(NullCfu), &cfg).unwrap();
/// let (output, profile) = dep.run(&input).unwrap();
/// assert!(!output.data.is_empty());
/// assert!(profile.total_cycles() > 0);
/// ```
pub struct Deployment {
    core: TimedCore,
    model: Arc<Model>,
    plans: Vec<LayerPlan>,
    slot_addrs: Vec<u32>,
    registry: KernelRegistry,
    cycle_budget: Option<u64>,
    memo: Option<Arc<LayerMemo>>,
}

impl fmt::Debug for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deployment")
            .field("model", &self.model.name)
            .field("registry", &self.registry)
            .finish_non_exhaustive()
    }
}

impl Deployment {
    /// Plans and installs `model` on `bus` with `cfu` attached.
    ///
    /// # Errors
    ///
    /// [`DeployError`] when the model is invalid or a region is missing
    /// or too small (the Fomu fit failure mode).
    pub fn new(
        model: impl Into<Arc<Model>>,
        mut bus: Bus,
        cfu: Box<dyn Cfu>,
        cfg: &DeployConfig,
    ) -> Result<Self, DeployError> {
        let model = model.into();
        model.validate().map_err(DeployError::BadModel)?;
        // One allocator per *distinct* region: several roles may share a
        // region (everything-in-DRAM on Arty) and must not overlap.
        let mut allocs: std::collections::BTreeMap<String, RegionAlloc> =
            std::collections::BTreeMap::new();
        let hot_code_name = cfg.hot_code_region.clone().unwrap_or_else(|| cfg.code_region.clone());
        let hot_weights_name =
            cfg.hot_weights_region.clone().unwrap_or_else(|| cfg.weights_region.clone());
        for name in [
            &cfg.weights_region,
            &cfg.arena_region,
            &cfg.code_region,
            &hot_code_name,
            &hot_weights_name,
        ] {
            if !allocs.contains_key(name) {
                allocs.insert(name.clone(), RegionAlloc::new(&bus, name)?);
            }
        }
        macro_rules! alloc {
            ($name:expr, $bytes:expr) => {
                allocs.get_mut($name).expect("region registered above").alloc($bytes)?
            };
        }

        // Activation slots first (the TFLM arena).
        let mut slot_addrs = Vec::with_capacity(model.slots.len());
        for slot in &model.slots {
            slot_addrs.push(alloc!(&cfg.arena_region, slot.shape.elements() as u32));
        }

        // One code footprint per operator kind actually used.
        let mut kind_code: std::collections::BTreeMap<crate::model::OpKind, (u32, u32)> =
            std::collections::BTreeMap::new();
        for layer in &model.layers {
            let kind = layer.op.kind();
            if kind_code.contains_key(&kind) {
                continue;
            }
            let hot = matches!(
                kind,
                crate::model::OpKind::Conv2d1x1
                    | crate::model::OpKind::Conv2d
                    | crate::model::OpKind::DepthwiseConv2d
            );
            let region = if hot { &hot_code_name } else { &cfg.code_region };
            let len = if hot { cfg.kernel_code_len } else { cfg.cold_kernel_code_len };
            let base = alloc!(region, len);
            kind_code.insert(kind, (base, len));
        }

        // Weights, biases and precomputed requantization tables.
        let mut plans = Vec::with_capacity(model.layers.len());
        for layer in &model.layers {
            let (code_base, code_len) = kind_code[&layer.op.kind()];
            let (filter, bias, scales, out_quant) = match &layer.op {
                Op::Conv2d(p) => (&p.filter, &p.bias, &p.filter.scales, p.out_quant),
                Op::DepthwiseConv2d(p) => (&p.filter, &p.bias, &p.filter.scales, p.out_quant),
                Op::FullyConnected(p) => (&p.filter, &p.bias, &p.filter.scales, p.out_quant),
                _ => {
                    plans.push(LayerPlan {
                        data: LayerData {
                            filter_addr: 0,
                            bias_addr: 0,
                            mult_addr: 0,
                            shift_addr: 0,
                            code_base,
                            code_len,
                        },
                        cq: None,
                    });
                    continue;
                }
            };
            let hot = matches!(
                layer.op.kind(),
                crate::model::OpKind::Conv2d1x1
                    | crate::model::OpKind::Conv2d
                    | crate::model::OpKind::DepthwiseConv2d
            );
            let wregion = if hot { &hot_weights_name } else { &cfg.weights_region };
            let in_quant = model.slots[layer.inputs[0]].quant;
            let cq = ChannelQuant::compute(in_quant, scales, out_quant);
            let n = bias.data.len() as u32;
            let filter_addr = alloc!(wregion, filter.data.len() as u32);
            let bias_addr = alloc!(wregion, 4 * n);
            let mult_addr = alloc!(wregion, 4 * n);
            let shift_addr = alloc!(wregion, 4 * n);
            let filter_bytes: Vec<u8> = filter.data.iter().map(|&v| v as u8).collect();
            bus.load_image(filter_addr, &filter_bytes).expect("planned allocation");
            let le = |v: &[i32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
            bus.load_image(bias_addr, &le(&bias.data)).expect("planned allocation");
            bus.load_image(mult_addr, &le(&cq.multipliers)).expect("planned allocation");
            bus.load_image(shift_addr, &le(&cq.shifts)).expect("planned allocation");
            plans.push(LayerPlan {
                data: LayerData {
                    filter_addr,
                    bias_addr,
                    mult_addr,
                    shift_addr,
                    code_base,
                    code_len,
                },
                cq: Some(cq),
            });
        }

        let core = TimedCore::with_cfu(cfg.cpu, bus, cfu);
        Ok(Deployment {
            core,
            model,
            plans,
            slot_addrs,
            registry: cfg.registry,
            cycle_budget: cfg.cycle_budget,
            memo: None,
        })
    }

    /// Shares `memo` with this deployment: its generic CONV_2D and
    /// DEPTHWISE_CONV_2D layers record into the memo, or fast-forward
    /// from it once their timing state converges (see [`crate::memo`]).
    /// Every result stays exactly what a run without the memo produces.
    /// Returns `false`, and leaves the deployment without a memo, when
    /// the memo is bound to another CPU configuration or memory plan.
    ///
    /// Deployments sharing a memo must build their buses from the same
    /// board: the plan check compares the region map, not device timing
    /// parameters.
    pub fn share_layers(&mut self, memo: Arc<LayerMemo>) -> bool {
        let scope = MemoScope {
            cpu: *self.core.config(),
            regions: self.core.bus().regions().map(|(_, info)| info.clone()).collect(),
            slot_addrs: self.slot_addrs.clone(),
            layers: self.plans.iter().map(|p| p.data).collect(),
        };
        let admitted = memo.admit(scope);
        self.memo = admitted.then_some(memo);
        admitted
    }

    /// The model being served.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The shared handle to the model being served. `Arc::ptr_eq` against
    /// the caller's handle proves the deployment did not copy the weights.
    pub fn model_arc(&self) -> &Arc<Model> {
        &self.model
    }

    /// The underlying timed core (cycle counts, cache stats).
    pub fn core(&self) -> &TimedCore {
        &self.core
    }

    fn mem_tensor(&self, slot: usize) -> MemTensor {
        MemTensor {
            addr: self.slot_addrs[slot],
            shape: self.model.slots[slot].shape,
            quant: self.model.slots[slot].quant,
        }
    }

    /// Runs one inference, returning the output tensor and a per-layer
    /// profile. Statistics are reset at entry so each call measures one
    /// inference (with warm caches from previous runs cleared too).
    ///
    /// # Errors
    ///
    /// Kernel errors (memory faults, CFU protocol errors, unsupported
    /// layer shapes without a generic fallback).
    ///
    /// # Panics
    ///
    /// Panics if `input`'s shape does not match the model input slot.
    pub fn run(&mut self, input: &Tensor) -> Result<(Tensor, Profile), KernelError> {
        let (out, profile, _) = self.run_inner(input, false)?;
        Ok((out, profile))
    }

    /// Runs one inference exactly like [`Deployment::run`] while
    /// capturing the committed operation stream into a
    /// [`cfu_sim::Trace`]. Capture is passive — the returned profile and
    /// the core's statistics are identical to an uncaptured run — and
    /// layer boundaries are recorded as begin/end mark pairs so a
    /// replayed trace reproduces the per-layer cycle profile
    /// (`ReplaySummary::layer_cycles`).
    ///
    /// # Errors
    ///
    /// As [`Deployment::run`].
    ///
    /// # Panics
    ///
    /// Panics if `input`'s shape does not match the model input slot.
    pub fn run_captured(
        &mut self,
        input: &Tensor,
    ) -> Result<(Tensor, Profile, cfu_sim::Trace), KernelError> {
        let (out, profile, trace) = self.run_inner(input, true)?;
        Ok((out, profile, trace.expect("capture requested")))
    }

    fn run_inner(
        &mut self,
        input: &Tensor,
        capture: bool,
    ) -> Result<(Tensor, Profile, Option<cfu_sim::Trace>), KernelError> {
        let in_slot = self.model.input_slot;
        assert_eq!(
            input.shape, self.model.slots[in_slot].shape,
            "input shape mismatch for {}",
            self.model.name
        );
        self.core.reset_stats();
        if capture {
            self.core.start_recording();
        }
        let bytes: Vec<u8> = input.data.iter().map(|&v| v as u8).collect();
        let addr = self.slot_addrs[in_slot];
        self.core.bus_mut().load_image(addr, &bytes)?;

        let mut profile = Profile::new();
        for li in 0..self.model.layers.len() {
            let before = self.core.cycles();
            if capture {
                self.core.mark_layer();
            }
            // Fetch charges settle only where a kernel's timing can
            // observe them, and all of them before `cycles()` is read.
            self.core.defer_fetches(true);
            let dispatched = self.dispatch(li);
            self.core.defer_fetches(false);
            dispatched?;
            if capture {
                self.core.mark_layer();
            }
            if let Some(budget) = self.cycle_budget {
                let cycles = self.core.cycles();
                if cycles > budget {
                    return Err(KernelError::BudgetExhausted { cycles, budget });
                }
            }
            let layer = &self.model.layers[li];
            let macs = match &layer.op {
                Op::Conv2d(p) => p.macs(self.model.slots[layer.inputs[0]].shape),
                Op::DepthwiseConv2d(p) => p.macs(self.model.slots[layer.inputs[0]].shape),
                Op::FullyConnected(p) => (p.filter.out_ch * p.filter.in_ch) as u64,
                _ => 0,
            };
            profile.push(LayerProfile {
                name: layer.name.clone(),
                kind: layer.op.kind(),
                cycles: self.core.cycles() - before,
                macs,
            });
        }

        let out = self.read_slot(self.model.output_slot)?;
        let trace = if capture { self.core.finish_recording() } else { None };
        Ok((out, profile, trace))
    }

    /// Reads a tensor slot back from simulated memory (timing-free).
    ///
    /// # Errors
    ///
    /// Bus faults.
    pub fn read_slot(&mut self, slot: usize) -> Result<Tensor, KernelError> {
        let info = self.model.slots[slot].clone();
        let mut bytes = vec![0u8; info.shape.elements()];
        self.core.bus_mut().peek(self.slot_addrs[slot], &mut bytes)?;
        Ok(Tensor::from_data(info.shape, bytes.into_iter().map(|b| b as i8).collect(), info.quant))
    }

    fn dispatch(&mut self, li: usize) -> Result<(), KernelError> {
        // Split borrows: the model is behind an `Arc`, so a cheap handle
        // clone lets layer parameters (filter weights included) be
        // borrowed while the core is driven mutably — no per-dispatch
        // weight or requant-table copies.
        let model = Arc::clone(&self.model);
        let layer = &model.layers[li];
        let data = self.plans[li].data;
        let input = self.mem_tensor(layer.inputs[0]);
        let output = self.mem_tensor(layer.output);
        let code = (data.code_base, data.code_len);
        match &layer.op {
            Op::Conv2d(p) => {
                let cq = self.plans[li].cq.as_ref().expect("conv has cq");
                let job = ConvJob { input, output, params: p, cq, data };
                if p.is_pointwise() {
                    if let Some(variant) = self.registry.conv1x1 {
                        match conv1x1(&mut self.core, &job, variant) {
                            Err(KernelError::Unsupported(_)) => {}
                            other => return other,
                        }
                    }
                }
                let memo = self.memo.as_deref();
                match self.registry.conv {
                    ConvKernel::Cfu2 { postproc, specialized } => {
                        match kws::conv2d_cfu2(&mut self.core, &job, postproc, specialized) {
                            Err(KernelError::Unsupported(_)) => {
                                generic_conv(&mut self.core, memo, li, &job)
                            }
                            other => other,
                        }
                    }
                    ConvKernel::Generic => generic_conv(&mut self.core, memo, li, &job),
                }
            }
            Op::DepthwiseConv2d(p) => {
                let cq = self.plans[li].cq.as_ref().expect("dwconv has cq");
                let job = DwJob { input, output, params: p, cq, data };
                let memo = self.memo.as_deref();
                match self.registry.dwconv {
                    DwKernel::Cfu2 { postproc, specialized } => {
                        match kws::depthwise_cfu2(&mut self.core, &job, postproc, specialized) {
                            Err(KernelError::Unsupported(_)) => {
                                generic_depthwise(&mut self.core, memo, li, &job)
                            }
                            other => other,
                        }
                    }
                    DwKernel::Generic => generic_depthwise(&mut self.core, memo, li, &job),
                }
            }
            Op::FullyConnected(p) => {
                let cq = self.plans[li].cq.as_ref().expect("fc has cq");
                let job = FcJob { input, output, params: p, cq, data };
                generic::fully_connected(&mut self.core, &job)
            }
            Op::AvgPool(p) => generic::avg_pool(&mut self.core, input, output, p, code),
            Op::MaxPool(p) => generic::max_pool(&mut self.core, input, output, p, code),
            Op::Add { out_quant } => {
                let b = self.mem_tensor(layer.inputs[1]);
                generic::add(&mut self.core, input, b, output, *out_quant, code)
            }
            Op::Softmax => generic::softmax(&mut self.core, input, output, code),
            Op::Reshape { .. } => generic::reshape(&mut self.core, input, output, code),
            Op::Pad { top, left, .. } => {
                generic::pad(&mut self.core, input, output, *top, *left, code)
            }
        }
    }
}

/// The generic CONV_2D kernel, through `memo` when the deployment shares
/// one.
fn generic_conv(
    core: &mut TimedCore,
    memo: Option<&LayerMemo>,
    layer: usize,
    job: &ConvJob<'_>,
) -> Result<(), KernelError> {
    let Some(memo) = memo else { return generic::conv2d(core, job) };
    let p = job.params;
    let tensors = (&job.input, &job.output);
    let key = LayerKey::new(layer, MemoKernel::Conv, tensors, &p.filter, p.stride, p.padding);
    memo.run_layer(
        core,
        key,
        job.output.shape.h,
        |core| generic::conv2d_prologue(core, job),
        |core, rows| generic::conv2d_rows(core, job, rows),
        |core| write_reference(core, job.input, job.output, |x| reference::conv2d(x, p)),
    )
}

/// The generic DEPTHWISE_CONV_2D kernel, through `memo` when the
/// deployment shares one.
fn generic_depthwise(
    core: &mut TimedCore,
    memo: Option<&LayerMemo>,
    layer: usize,
    job: &DwJob<'_>,
) -> Result<(), KernelError> {
    let Some(memo) = memo else { return generic::depthwise_conv2d(core, job) };
    let p = job.params;
    let tensors = (&job.input, &job.output);
    let key = LayerKey::new(layer, MemoKernel::Depthwise, tensors, &p.filter, p.stride, p.padding);
    memo.run_layer(
        core,
        key,
        job.output.shape.h,
        |core| generic::depthwise_conv2d_prologue(core, job),
        |core, rows| generic::depthwise_conv2d_rows(core, job, rows),
        |core| write_reference(core, job.input, job.output, |x| reference::depthwise_conv2d(x, p)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfu_core::NullCfu;
    use cfu_mem::Sram;

    #[test]
    fn a_region_ending_at_4_gib_is_usable_to_its_last_byte() {
        let model = crate::models::tiny_test_net(1);
        let mut bus = Bus::new();
        bus.map("top", 0xFFF0_0000, Sram::new(1 << 20));
        let cfg = DeployConfig::new(CpuConfig::arty_default(), "top", "top", "top");
        let mut dep = Deployment::new(model.clone(), bus, Box::new(NullCfu), &cfg).unwrap();
        let input = crate::models::synthetic_input(&model, 2);
        let (out, _) = dep.run(&input).unwrap();
        assert_eq!(out, crate::reference::run_model(&model, &input));

        // Filling the region to its last byte still allocates; one more
        // word is `RegionFull`, not an overflow.
        let mut bus = Bus::new();
        bus.map("top", 0xFFFF_FF00, Sram::new(256));
        let mut alloc = RegionAlloc::new(&bus, "top").unwrap();
        assert_eq!(alloc.alloc(252).unwrap(), 0xFFFF_FF00);
        assert_eq!(alloc.alloc(4).unwrap(), 0xFFFF_FFFC);
        assert_eq!(
            alloc.alloc(1),
            Err(DeployError::RegionFull { region: "top".into(), needed: 260, available: 256 })
        );
    }
}
