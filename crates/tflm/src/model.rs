//! Model graphs: layers, operators and their parameters.

use crate::tensor::{Bias, Filter, QuantParams, Shape};

/// Spatial padding mode (TFLite semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// Output is `ceil(in / stride)`; input is padded as needed.
    Same,
    /// No padding; output is `floor((in - k) / stride) + 1`.
    Valid,
}

impl Padding {
    /// `(out_extent, pad_before)` for one spatial dimension.
    pub fn output_and_pad(self, input: usize, kernel: usize, stride: usize) -> (usize, usize) {
        match self {
            Padding::Same => {
                let out = input.div_ceil(stride);
                let needed = ((out - 1) * stride + kernel).saturating_sub(input);
                (out, needed / 2)
            }
            Padding::Valid => ((input.saturating_sub(kernel)) / stride + 1, 0),
        }
    }
}

/// Fused activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Clamp to the int8 range only.
    #[default]
    None,
    /// ReLU: clamp at the output zero point.
    Relu,
    /// ReLU6: clamp to \[zp, quantize(6.0)\].
    Relu6,
}

impl Activation {
    /// `(min, max)` clamp bounds in the quantized domain.
    pub fn range(self, out: QuantParams) -> (i32, i32) {
        match self {
            Activation::None => (-128, 127),
            Activation::Relu => (out.zero_point.max(-128), 127),
            Activation::Relu6 => {
                let hi = (f64::from(6) / out.scale).round() as i32 + out.zero_point;
                (out.zero_point.max(-128), hi.min(127))
            }
        }
    }
}

/// Parameters of a standard convolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvParams {
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Padding mode.
    pub padding: Padding,
    /// OHWI filter with per-channel scales.
    pub filter: Filter,
    /// Per-channel int32 biases.
    pub bias: Bias,
    /// Fused activation.
    pub activation: Activation,
    /// Output quantization.
    pub out_quant: QuantParams,
}

impl ConvParams {
    /// `true` for the pointwise (1x1, stride 1) case the MobileNetV2 case
    /// study specializes.
    pub fn is_pointwise(&self) -> bool {
        self.filter.kh == 1 && self.filter.kw == 1 && self.stride == 1
    }

    /// Output shape for `input` (H×W×C).
    pub fn output_shape(&self, input: Shape) -> Shape {
        let (oh, _) = self.padding.output_and_pad(input.h, self.filter.kh, self.stride);
        let (ow, _) = self.padding.output_and_pad(input.w, self.filter.kw, self.stride);
        Shape::new(oh, ow, self.filter.out_ch)
    }

    /// Multiply-accumulate count for `input`.
    pub fn macs(&self, input: Shape) -> u64 {
        let out = self.output_shape(input);
        (out.elements() * self.filter.kh * self.filter.kw * self.filter.in_ch) as u64
    }
}

/// Parameters of a depthwise convolution (depth multiplier 1; the filter's
/// `in_ch` field is 1 and `out_ch` equals the input channel count).
#[derive(Debug, Clone, PartialEq)]
pub struct DepthwiseParams {
    /// Stride.
    pub stride: usize,
    /// Padding mode.
    pub padding: Padding,
    /// Filter with `out_ch = channels`, `in_ch = 1`.
    pub filter: Filter,
    /// Per-channel biases.
    pub bias: Bias,
    /// Fused activation.
    pub activation: Activation,
    /// Output quantization.
    pub out_quant: QuantParams,
}

impl DepthwiseParams {
    /// Output shape for `input`.
    pub fn output_shape(&self, input: Shape) -> Shape {
        let (oh, _) = self.padding.output_and_pad(input.h, self.filter.kh, self.stride);
        let (ow, _) = self.padding.output_and_pad(input.w, self.filter.kw, self.stride);
        Shape::new(oh, ow, input.c)
    }

    /// Multiply-accumulate count for `input`.
    pub fn macs(&self, input: Shape) -> u64 {
        let out = self.output_shape(input);
        (out.elements() * self.filter.kh * self.filter.kw) as u64
    }
}

/// Parameters of a fully-connected layer.
#[derive(Debug, Clone, PartialEq)]
pub struct FullyConnectedParams {
    /// Filter with `kh = kw = 1`, `in_ch` = input length, `out_ch` = units.
    pub filter: Filter,
    /// Biases.
    pub bias: Bias,
    /// Fused activation.
    pub activation: Activation,
    /// Output quantization.
    pub out_quant: QuantParams,
}

/// Parameters of an average/max pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolParams {
    /// Pool window height.
    pub kh: usize,
    /// Pool window width.
    pub kw: usize,
    /// Stride.
    pub stride: usize,
    /// Padding mode.
    pub padding: Padding,
}

/// One operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Standard convolution.
    Conv2d(ConvParams),
    /// Depthwise convolution.
    DepthwiseConv2d(DepthwiseParams),
    /// Fully connected (dense).
    FullyConnected(FullyConnectedParams),
    /// Average pooling (quantization passes through).
    AvgPool(PoolParams),
    /// Max pooling.
    MaxPool(PoolParams),
    /// Elementwise residual add of two inputs (TFLM int8 ADD).
    Add {
        /// Output quantization.
        out_quant: QuantParams,
    },
    /// Softmax (output fixed at scale 1/256, zero point -128).
    Softmax,
    /// Shape change only.
    Reshape {
        /// The new shape (same element count).
        new_shape: Shape,
    },
    /// Spatial zero-point padding (TFLite PAD: pads with the
    /// quantized zero point).
    Pad {
        /// Rows added above.
        top: usize,
        /// Rows added below.
        bottom: usize,
        /// Columns added left.
        left: usize,
        /// Columns added right.
        right: usize,
    },
}

impl Op {
    /// Coarse operator kind for profiling, separating 1x1 convolutions the
    /// way the paper's profile does.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Conv2d(p) if p.is_pointwise() => OpKind::Conv2d1x1,
            Op::Conv2d(_) => OpKind::Conv2d,
            Op::DepthwiseConv2d(_) => OpKind::DepthwiseConv2d,
            Op::FullyConnected(_) => OpKind::FullyConnected,
            Op::AvgPool(_) => OpKind::AvgPool,
            Op::MaxPool(_) => OpKind::MaxPool,
            Op::Add { .. } => OpKind::Add,
            Op::Softmax => OpKind::Softmax,
            Op::Reshape { .. } => OpKind::Reshape,
            Op::Pad { .. } => OpKind::Pad,
        }
    }
}

/// Operator category used in profiles (the paper's op-type breakdown:
/// "1x1 2D Convolution (63%), Depthwise Convolution (22.5%), 3x3 2D
/// Convolution (11%)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum OpKind {
    Conv2d1x1,
    Conv2d,
    DepthwiseConv2d,
    FullyConnected,
    AvgPool,
    MaxPool,
    Add,
    Softmax,
    Reshape,
    Pad,
}

impl OpKind {
    /// Human-readable TFLite-style name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Conv2d1x1 => "CONV_2D 1x1",
            OpKind::Conv2d => "CONV_2D",
            OpKind::DepthwiseConv2d => "DEPTHWISE_CONV_2D",
            OpKind::FullyConnected => "FULLY_CONNECTED",
            OpKind::AvgPool => "AVERAGE_POOL_2D",
            OpKind::MaxPool => "MAX_POOL_2D",
            OpKind::Add => "ADD",
            OpKind::Softmax => "SOFTMAX",
            OpKind::Reshape => "RESHAPE",
            OpKind::Pad => "PAD",
        }
    }
}

/// A layer: one op applied to input slots, producing an output slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Layer name for profiles (e.g. `"block3/expand"`).
    pub name: String,
    /// The operator.
    pub op: Op,
    /// Input tensor-slot indices (1 for most ops, 2 for Add).
    pub inputs: Vec<usize>,
    /// Output tensor-slot index.
    pub output: usize,
}

/// Shape/quantization of one tensor slot in the model's activation arena.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotInfo {
    /// Tensor shape.
    pub shape: Shape,
    /// Quantization parameters.
    pub quant: QuantParams,
}

/// A quantized model: a DAG of layers over numbered tensor slots.
///
/// Slot 0 is the model input by convention; [`Model::output_slot`] names
/// the result tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Model name (e.g. `"mobilenet_v2_0.35_96"`).
    pub name: String,
    /// Layers in execution order (topologically sorted).
    pub layers: Vec<Layer>,
    /// Tensor slots (activations only; weights live in the ops).
    pub slots: Vec<SlotInfo>,
    /// Slot index of the model input.
    pub input_slot: usize,
    /// Slot index of the model output.
    pub output_slot: usize,
}

impl Model {
    /// Total multiply-accumulate count of all conv/dense layers.
    pub fn total_macs(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| match &l.op {
                Op::Conv2d(p) => p.macs(self.slots[l.inputs[0]].shape),
                Op::DepthwiseConv2d(p) => p.macs(self.slots[l.inputs[0]].shape),
                Op::FullyConnected(p) => (p.filter.out_ch * p.filter.in_ch) as u64,
                _ => 0,
            })
            .sum()
    }

    /// Bytes of weights and biases (what must fit in ROM/flash).
    pub fn weight_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match &l.op {
                Op::Conv2d(p) => p.filter.len() + 4 * p.bias.data.len(),
                Op::DepthwiseConv2d(p) => p.filter.len() + 4 * p.bias.data.len(),
                Op::FullyConnected(p) => p.filter.len() + 4 * p.bias.data.len(),
                _ => 0,
            })
            .sum()
    }

    /// Validates slot indices, shapes and layer ordering.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.input_slot >= self.slots.len() || self.output_slot >= self.slots.len() {
            return Err("input/output slot out of range".to_owned());
        }
        let mut written = vec![false; self.slots.len()];
        written[self.input_slot] = true;
        for (i, layer) in self.layers.iter().enumerate() {
            for &inp in &layer.inputs {
                if inp >= self.slots.len() {
                    return Err(format!("layer {i} `{}` reads bad slot {inp}", layer.name));
                }
                if !written[inp] {
                    return Err(format!(
                        "layer {i} `{}` reads slot {inp} before it is written",
                        layer.name
                    ));
                }
            }
            if layer.output >= self.slots.len() {
                return Err(format!("layer {i} `{}` writes bad slot", layer.name));
            }
            let in_shape = self.slots[layer.inputs[0]].shape;
            let expect = match &layer.op {
                Op::Conv2d(p) => Some(p.output_shape(in_shape)),
                Op::DepthwiseConv2d(p) => Some(p.output_shape(in_shape)),
                Op::FullyConnected(p) => Some(Shape::vector(p.filter.out_ch)),
                Op::Reshape { new_shape } => {
                    if new_shape.elements() != in_shape.elements() {
                        return Err(format!("layer {i} `{}` reshape changes size", layer.name));
                    }
                    Some(*new_shape)
                }
                Op::Add { .. } => {
                    if layer.inputs.len() != 2 {
                        return Err(format!("layer {i} `{}` add needs 2 inputs", layer.name));
                    }
                    Some(in_shape)
                }
                Op::Pad { top, bottom, left, right } => Some(Shape::new(
                    in_shape.h + top + bottom,
                    in_shape.w + left + right,
                    in_shape.c,
                )),
                _ => None,
            };
            if let Some(shape) = expect {
                let got = self.slots[layer.output].shape;
                if got != shape {
                    return Err(format!(
                        "layer {i} `{}`: slot shape {got} != computed {shape}",
                        layer.name
                    ));
                }
            }
            written[layer.output] = true;
        }
        if !written[self.output_slot] {
            return Err("output slot never written".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_math_same() {
        // 5 wide, k=3, stride 1 → out 5, pad 1.
        assert_eq!(Padding::Same.output_and_pad(5, 3, 1), (5, 1));
        // 5 wide, k=3, stride 2 → out 3, pad: (2*2+3-5)/2 = 1.
        assert_eq!(Padding::Same.output_and_pad(5, 3, 2), (3, 1));
        // 1x1 stride 1: no padding.
        assert_eq!(Padding::Same.output_and_pad(7, 1, 1), (7, 0));
    }

    #[test]
    fn padding_math_valid() {
        assert_eq!(Padding::Valid.output_and_pad(5, 3, 1), (3, 0));
        assert_eq!(Padding::Valid.output_and_pad(5, 3, 2), (2, 0));
    }

    #[test]
    fn activation_ranges() {
        let q = QuantParams::new(0.1, -10);
        assert_eq!(Activation::None.range(q), (-128, 127));
        assert_eq!(Activation::Relu.range(q), (-10, 127));
        let (lo, hi) = Activation::Relu6.range(q);
        assert_eq!(lo, -10);
        assert_eq!(hi, 50); // 6/0.1 + (-10)
    }

    #[test]
    fn pointwise_detection() {
        let f = Filter::new(8, 1, 1, 4, vec![0; 32], vec![0.1; 8]);
        let p = ConvParams {
            stride: 1,
            padding: Padding::Same,
            filter: f,
            bias: Bias::zeros(8),
            activation: Activation::None,
            out_quant: QuantParams::default(),
        };
        assert!(p.is_pointwise());
        assert_eq!(p.output_shape(Shape::new(4, 4, 4)), Shape::new(4, 4, 8));
        assert_eq!(p.macs(Shape::new(4, 4, 4)), (4 * 4 * 8 * 4) as u64);
        assert_eq!(Op::Conv2d(p).kind(), OpKind::Conv2d1x1);
    }
}
