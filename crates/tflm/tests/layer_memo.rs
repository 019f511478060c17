//! The property the layer memo relies on, and the layers it keeps out.
//!
//! A recorded layer can stand in for a later run of the same layer only
//! if the layer's op stream does not depend on its data. The generic
//! CONV_2D and DEPTHWISE_CONV_2D kernels have that property for every
//! shape, stride and padding; MAX_POOL does not, so it never enters the
//! memo. Memos are bound to one CPU configuration and memory plan.

use std::sync::Arc;

use cfu_core::NullCfu;
use cfu_mem::{Bus, Ddr3, Sram};
use cfu_sim::CpuConfig;
use cfu_tflm::deploy::{DeployConfig, Deployment};
use cfu_tflm::memo::LayerMemo;
use cfu_tflm::model::{Activation, Model, Padding};
use cfu_tflm::models::{self, ModelBuilder};
use cfu_tflm::tensor::{QuantParams, Shape, Tensor};
use proptest::prelude::*;

fn ddr_bus() -> Bus {
    let mut bus = Bus::new();
    bus.map("ram", 0x4000_0000, Ddr3::new(1 << 20));
    bus
}

fn deploy(model: &Model, bus: Bus, cpu: CpuConfig) -> Deployment {
    let cfg = DeployConfig::new(cpu, "ram", "ram", "ram");
    Deployment::new(model.clone(), bus, Box::new(NullCfu), &cfg).expect("deploys")
}

/// The op streams of one run of `model` on each of two inputs.
fn traces(model: &Model, seeds: (u64, u64)) -> (cfu_sim::Trace, cfu_sim::Trace) {
    let mut dep = deploy(model, ddr_bus(), CpuConfig::arty_default());
    let a = models::synthetic_input(model, seeds.0);
    let b = models::synthetic_input(model, seeds.1);
    assert_ne!(a, b, "the two inputs must differ");
    let (_, _, ta) = dep.run_captured(&a).expect("runs");
    let (_, _, tb) = dep.run_captured(&b).expect("runs");
    (ta, tb)
}

fn one_layer(
    hw: (usize, usize),
    ch: usize,
    seed: u64,
    layer: impl FnOnce(&mut ModelBuilder),
) -> Model {
    let mut b =
        ModelBuilder::new("memo_prop", Shape::new(hw.0, hw.1, ch), QuantParams::new(0.05, 3), seed);
    layer(&mut b);
    b.build()
}

fn padding(same: bool) -> Padding {
    if same {
        Padding::Same
    } else {
        Padding::Valid
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generic CONV_2D issues the same op stream for any two inputs.
    #[test]
    fn generic_conv_op_stream_is_data_independent(
        h in 1usize..7,
        w in 1usize..7,
        in_ch in 1usize..5,
        out_ch in 1usize..5,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in 1usize..3,
        same in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (kh, kw) = if same { (kh, kw) } else { (kh.min(h), kw.min(w)) };
        let model = one_layer((h, w), in_ch, seed, |b| {
            b.conv("conv", out_ch, (kh, kw), stride, padding(same), Activation::Relu6);
        });
        let (a, b) = traces(&model, (seed, seed ^ 0x5EED));
        prop_assert_eq!(a, b);
    }

    /// Generic DEPTHWISE_CONV_2D issues the same op stream for any two
    /// inputs.
    #[test]
    fn generic_depthwise_op_stream_is_data_independent(
        h in 1usize..7,
        w in 1usize..7,
        ch in 1usize..6,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in 1usize..3,
        same in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (kh, kw) = if same { (kh, kw) } else { (kh.min(h), kw.min(w)) };
        let model = one_layer((h, w), ch, seed, |b| {
            b.dwconv("dw", (kh, kw), stride, padding(same), Activation::Relu6);
        });
        let (a, b) = traces(&model, (seed, seed ^ 0x5EED));
        prop_assert_eq!(a, b);
    }
}

#[test]
fn max_pool_op_stream_depends_on_data() {
    // MAX_POOL's `v > best` branch follows the data: two inputs give two
    // op streams, so a recorded run could not stand in for another.
    let model = one_layer((4, 4), 2, 1, |b| {
        b.max_pool("pool", 2, 2);
    });
    let mut dep = deploy(&model, ddr_bus(), CpuConfig::arty_default());
    let shape = model.slots[model.input_slot].shape;
    let quant = model.slots[model.input_slot].quant;
    let rising = Tensor::from_data(shape, (0..32).map(|v| v as i8).collect(), quant);
    let falling = Tensor::from_data(shape, (0..32).map(|v| -(v as i8)).collect(), quant);
    let (_, _, a) = dep.run_captured(&rising).unwrap();
    let (_, _, b) = dep.run_captured(&falling).unwrap();
    assert_ne!(a, b);
}

/// A stem convolution, a max pool and a depthwise convolution.
fn mixed_model() -> Model {
    one_layer((8, 8), 3, 7, |b| {
        b.conv("conv", 4, (3, 3), 1, Padding::Same, Activation::Relu6);
        b.max_pool("pool", 2, 2);
        b.dwconv("dw", (3, 3), 1, Padding::Same, Activation::Relu6);
    })
}

#[test]
fn only_generic_conv_and_depthwise_layers_enter_the_memo() {
    let model = mixed_model();
    let input = models::synthetic_input(&model, 3);
    let memo = Arc::new(LayerMemo::new());
    let mut outputs = Vec::new();
    for _ in 0..3 {
        let mut dep = deploy(&model, ddr_bus(), CpuConfig::arty_default());
        assert!(dep.share_layers(Arc::clone(&memo)));
        outputs.push(dep.run(&input).unwrap());
    }
    assert_eq!(memo.recorded_layers(), 2, "the max pool is never recorded");
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    let mut live = deploy(&model, ddr_bus(), CpuConfig::arty_default());
    assert_eq!(live.run(&input).unwrap(), outputs[0]);
    // Trace capture needs every op: a capturing run never fast-forwards.
    let fast_forwards = memo.fast_forwards();
    let mut captured = deploy(&model, ddr_bus(), CpuConfig::arty_default());
    assert!(captured.share_layers(Arc::clone(&memo)));
    let with_memo = captured.run_captured(&input).unwrap();
    let mut fresh = deploy(&model, ddr_bus(), CpuConfig::arty_default());
    assert_eq!(with_memo, fresh.run_captured(&input).unwrap());
    assert_eq!(memo.fast_forwards(), fast_forwards);
}

#[test]
fn a_memo_refuses_another_cpu_config_or_memory_plan() {
    let model = mixed_model();
    let memo = Arc::new(LayerMemo::new());
    let arty = CpuConfig::arty_default();
    assert!(deploy(&model, ddr_bus(), arty).share_layers(Arc::clone(&memo)));
    assert!(deploy(&model, ddr_bus(), arty).share_layers(Arc::clone(&memo)));
    // Another CPU configuration.
    let no_icache = CpuConfig { icache: None, ..arty };
    assert!(!deploy(&model, ddr_bus(), no_icache).share_layers(Arc::clone(&memo)));
    // Another memory plan: the same model placed in another region.
    let mut sram = Bus::new();
    sram.map("ram", 0x1000_0000, Sram::new(1 << 20));
    assert!(!deploy(&model, sram, arty).share_layers(Arc::clone(&memo)));
    // Another model: its slots and layers land elsewhere.
    let other = one_layer((8, 8), 3, 7, |b| {
        b.dwconv("dw", (3, 3), 1, Padding::Same, Activation::Relu6);
    });
    assert!(!deploy(&other, ddr_bus(), arty).share_layers(memo));
}
