//! Faithful ports of the TFLite-Micro *reference* kernels, cost and all.
//!
//! The TFLM reference kernels recompute full 4-D `Offset()` expressions
//! (three multiplies and three adds) for every single input and filter
//! access, re-check padding bounds per filter tap, and run the 64-bit
//! requantization in software per output element. That is why the
//! unaccelerated MobileNetV2 baseline burns ~30 cycles per MAC — and why
//! there is so much room for the paper's ladder to claw back. The charges
//! below follow that structure op for op. The channel loops of CONV_2D
//! and FULLY_CONNECTED are one [`TimedCore::mac_loop`] each: the same ops,
//! with stretches whose cost is already fixed charged in bulk.

use std::ops::Range;

use cfu_core::arith;
use cfu_sim::{MacLoop, TimedCore};

use super::{
    charge_software_requant, load_channel_params, ConvJob, DwJob, FcJob, KernelError, MemTensor,
};
use crate::model::PoolParams;
use crate::reference;
use crate::tensor::QuantParams;

/// Branch-site ids (stable per loop so the dynamic predictor can learn).
mod site {
    pub const CONV_PAD: u32 = 10;
    pub const CONV_IC: u32 = 11;
    pub const CONV_TAP: u32 = 12;
    pub const CONV_OC: u32 = 13;
    pub const DW_PAD: u32 = 20;
    pub const DW_TAP: u32 = 21;
    pub const FC_IN: u32 = 30;
    pub const POOL_TAP: u32 = 40;
    pub const ADD_ELEM: u32 = 50;
    pub const SOFTMAX_ELEM: u32 = 60;
}

/// Charges one TFLM `Offset(shape, 0, y, x, c)` computation. The
/// compiler strength-reduces the stride multiplies of the hot dimensions
/// to adds/shifts, but the `RuntimeShape::Dims()` accessor chain and the
/// remaining index arithmetic are re-evaluated every single access.
fn charge_offset(core: &mut TimedCore) {
    core.alu(OFFSET_ALU);
}

/// ALU instructions of one [`charge_offset`].
const OFFSET_ALU: u32 = 9;

/// Per-inner-iteration bookkeeping of the reference kernels beyond the
/// offset math: loop-counter updates across four nesting levels, operand
/// staging, and the register spills a 31-register RV32 build of the
/// deeply-nested TFLM loop actually exhibits. Calibrated so the
/// unaccelerated width-0.35 96x96 MobileNetV2 lands near the paper's
/// ~900M-cycle baseline (~75 cycles per MAC on the Arty configuration).
const REF_INNER_TAX: u32 = 14;

/// The generic CONV_2D reference kernel.
///
/// # Errors
///
/// Memory faults, or [`KernelError::Unsupported`] never (this kernel
/// handles every configuration — that is its purpose and its cost).
pub fn conv2d(core: &mut TimedCore, job: &ConvJob<'_>) -> Result<(), KernelError> {
    conv2d_prologue(core, job)?;
    conv2d_rows(core, job, 0..job.output.shape.h)
}

/// The invocation of [`conv2d`] before its first output row. Running it
/// and then [`conv2d_rows`] over consecutive bands that cover every
/// output row issues exactly the op stream of [`conv2d`].
///
/// # Errors
///
/// Memory faults.
pub fn conv2d_prologue(core: &mut TimedCore, job: &ConvJob<'_>) -> Result<(), KernelError> {
    core.set_code_region(job.data.code_base, job.data.code_len)?;
    core.call(8); // kernel invocation overhead
    core.alu(24); // parameter unpacking, shape checks
    Ok(())
}

/// Output rows `rows` of [`conv2d`], after its
/// [prologue](conv2d_prologue).
///
/// # Errors
///
/// Memory faults.
pub fn conv2d_rows(
    core: &mut TimedCore,
    job: &ConvJob<'_>,
    rows: Range<usize>,
) -> Result<(), KernelError> {
    let p = job.params;
    let input = job.input;
    let out_shape = job.output.shape;
    let (_, pad_y) = p.padding.output_and_pad(input.shape.h, p.filter.kh, p.stride);
    let (_, pad_x) = p.padding.output_and_pad(input.shape.w, p.filter.kw, p.stride);
    let input_offset = -input.quant.zero_point;
    let (act_min, act_max) = p.activation.range(p.out_quant);
    for oy in rows {
        for ox in 0..out_shape.w {
            for oc in 0..out_shape.c {
                core.alu(4); // loop counters and output offset staging
                let mut acc = 0i32;
                for dy in 0..p.filter.kh {
                    for dx in 0..p.filter.kw {
                        let iy = (oy * p.stride + dy) as isize - pad_y as isize;
                        let ix = (ox * p.stride + dx) as isize - pad_x as isize;
                        let in_bounds = iy >= 0
                            && ix >= 0
                            && iy < input.shape.h as isize
                            && ix < input.shape.w as isize;
                        // The generic kernel evaluates the 4-way bounds
                        // check per tap.
                        core.alu(4);
                        core.branch(site::CONV_PAD, false, !in_bounds);
                        if !in_bounds {
                            continue;
                        }
                        // The channel loop recomputes Offset() for the input
                        // and the filter on every access; `post` is the
                        // offset add and the accumulate.
                        acc += core.mac_loop(&MacLoop {
                            x: input.element_addr(iy as usize, ix as usize, 0),
                            w: job.data.filter_addr + p.filter.offset(oc, dy, dx, 0) as u32,
                            n: input.shape.c as u32,
                            input_offset,
                            pre: REF_INNER_TAX + OFFSET_ALU,
                            mid: OFFSET_ALU,
                            post: 2,
                            site: site::CONV_IC,
                        })?;
                        core.branch(site::CONV_TAP, true, dx + 1 != p.filter.kw);
                    }
                }
                let (bias, mult, shift) = load_channel_params(core, &job.data, oc)?;
                debug_assert_eq!(bias, job.params.bias.data[oc]);
                acc += bias;
                charge_software_requant(core);
                let scaled = arith::multiply_by_quantized_multiplier(acc, mult, shift);
                let v = arith::clamp_activation(scaled + p.out_quant.zero_point, act_min, act_max);
                core.store_u8(job.output.element_addr(oy, ox, oc), v as i8 as u8)?;
                core.branch(site::CONV_OC, true, oc + 1 != out_shape.c);
            }
        }
    }
    Ok(())
}

/// The generic DEPTHWISE_CONV_2D reference kernel.
///
/// # Errors
///
/// Memory faults.
pub fn depthwise_conv2d(core: &mut TimedCore, job: &DwJob<'_>) -> Result<(), KernelError> {
    depthwise_conv2d_prologue(core, job)?;
    depthwise_conv2d_rows(core, job, 0..job.output.shape.h)
}

/// The invocation of [`depthwise_conv2d`] before its first output row;
/// see [`conv2d_prologue`].
///
/// # Errors
///
/// Memory faults.
pub fn depthwise_conv2d_prologue(core: &mut TimedCore, job: &DwJob<'_>) -> Result<(), KernelError> {
    core.set_code_region(job.data.code_base, job.data.code_len)?;
    core.call(8);
    core.alu(24);
    Ok(())
}

/// Output rows `rows` of [`depthwise_conv2d`], after its
/// [prologue](depthwise_conv2d_prologue).
///
/// # Errors
///
/// Memory faults.
pub fn depthwise_conv2d_rows(
    core: &mut TimedCore,
    job: &DwJob<'_>,
    rows: Range<usize>,
) -> Result<(), KernelError> {
    let p = job.params;
    let input = job.input;
    let out_shape = job.output.shape;
    let (_, pad_y) = p.padding.output_and_pad(input.shape.h, p.filter.kh, p.stride);
    let (_, pad_x) = p.padding.output_and_pad(input.shape.w, p.filter.kw, p.stride);
    let input_offset = -input.quant.zero_point;
    let (act_min, act_max) = p.activation.range(p.out_quant);
    for oy in rows {
        for ox in 0..out_shape.w {
            for c in 0..out_shape.c {
                core.alu(4);
                let mut acc = 0i32;
                for dy in 0..p.filter.kh {
                    for dx in 0..p.filter.kw {
                        let iy = (oy * p.stride + dy) as isize - pad_y as isize;
                        let ix = (ox * p.stride + dx) as isize - pad_x as isize;
                        let in_bounds = iy >= 0
                            && ix >= 0
                            && iy < input.shape.h as isize
                            && ix < input.shape.w as isize;
                        core.alu(4);
                        core.branch(site::DW_PAD, false, !in_bounds);
                        if !in_bounds {
                            continue;
                        }
                        core.alu(REF_INNER_TAX);
                        charge_offset(core);
                        let x = i32::from(core.load_i8(input.element_addr(
                            iy as usize,
                            ix as usize,
                            c,
                        ))?);
                        charge_offset(core);
                        let w = i32::from(core.load_i8(
                            job.data.filter_addr + p.filter.offset(c, dy, dx, 0) as u32,
                        )?);
                        core.mul();
                        core.alu(2);
                        core.branch(site::DW_TAP, true, dx + 1 != p.filter.kw);
                        acc += (x + input_offset) * w;
                    }
                }
                let (bias, mult, shift) = load_channel_params(core, &job.data, c)?;
                acc += bias;
                charge_software_requant(core);
                let scaled = arith::multiply_by_quantized_multiplier(acc, mult, shift);
                let v = arith::clamp_activation(scaled + p.out_quant.zero_point, act_min, act_max);
                core.store_u8(job.output.element_addr(oy, ox, c), v as i8 as u8)?;
            }
        }
    }
    Ok(())
}

/// The generic FULLY_CONNECTED reference kernel.
///
/// # Errors
///
/// Memory faults.
pub fn fully_connected(core: &mut TimedCore, job: &FcJob<'_>) -> Result<(), KernelError> {
    core.set_code_region(job.data.code_base, job.data.code_len)?;
    let p = job.params;
    let n = p.filter.in_ch;
    let input_offset = -job.input.quant.zero_point;
    let (act_min, act_max) = p.activation.range(p.out_quant);
    core.call(6);
    core.alu(16);
    for oc in 0..p.filter.out_ch {
        core.alu(3);
        // `post` is the pointer bumps and the accumulate.
        let mut acc = core.mac_loop(&MacLoop {
            x: job.input.addr,
            w: job.data.filter_addr + (oc * n) as u32,
            n: n as u32,
            input_offset,
            pre: REF_INNER_TAX,
            mid: 0,
            post: 3,
            site: site::FC_IN,
        })?;
        let (bias, mult, shift) = load_channel_params(core, &job.data, oc)?;
        acc += bias;
        charge_software_requant(core);
        let scaled = arith::multiply_by_quantized_multiplier(acc, mult, shift);
        let v = arith::clamp_activation(scaled + p.out_quant.zero_point, act_min, act_max);
        core.store_u8(job.output.addr + oc as u32, v as i8 as u8)?;
    }
    Ok(())
}

/// Average pool.
///
/// # Errors
///
/// Memory faults.
pub fn avg_pool(
    core: &mut TimedCore,
    input: MemTensor,
    output: MemTensor,
    p: &PoolParams,
    code: (u32, u32),
) -> Result<(), KernelError> {
    core.set_code_region(code.0, code.1)?;
    let (oh, pad_y) = p.padding.output_and_pad(input.shape.h, p.kh, p.stride);
    let (ow, pad_x) = p.padding.output_and_pad(input.shape.w, p.kw, p.stride);
    core.call(4);
    for oy in 0..oh {
        for ox in 0..ow {
            for c in 0..input.shape.c {
                let mut sum = 0i32;
                let mut count = 0i32;
                core.alu(3);
                for dy in 0..p.kh {
                    for dx in 0..p.kw {
                        let iy = (oy * p.stride + dy) as isize - pad_y as isize;
                        let ix = (ox * p.stride + dx) as isize - pad_x as isize;
                        let in_bounds = iy >= 0
                            && ix >= 0
                            && iy < input.shape.h as isize
                            && ix < input.shape.w as isize;
                        core.alu(4);
                        core.branch(site::POOL_TAP, false, !in_bounds);
                        if !in_bounds {
                            continue;
                        }
                        sum += i32::from(core.load_i8(input.element_addr(
                            iy as usize,
                            ix as usize,
                            c,
                        ))?);
                        count += 1;
                        core.alu(2);
                    }
                }
                core.div(); // the rounding divide
                core.alu(4);
                let v = if sum >= 0 {
                    (sum + count / 2) / count.max(1)
                } else {
                    (sum - count / 2) / count.max(1)
                };
                core.store_u8(output.element_addr(oy, ox, c), (v.clamp(-128, 127) as i8) as u8)?;
            }
        }
    }
    Ok(())
}

/// Max pool.
///
/// # Errors
///
/// Memory faults.
pub fn max_pool(
    core: &mut TimedCore,
    input: MemTensor,
    output: MemTensor,
    p: &PoolParams,
    code: (u32, u32),
) -> Result<(), KernelError> {
    core.set_code_region(code.0, code.1)?;
    let (oh, pad_y) = p.padding.output_and_pad(input.shape.h, p.kh, p.stride);
    let (ow, pad_x) = p.padding.output_and_pad(input.shape.w, p.kw, p.stride);
    core.call(4);
    for oy in 0..oh {
        for ox in 0..ow {
            for c in 0..input.shape.c {
                let mut best = i8::MIN;
                core.alu(2);
                for dy in 0..p.kh {
                    for dx in 0..p.kw {
                        let iy = (oy * p.stride + dy) as isize - pad_y as isize;
                        let ix = (ox * p.stride + dx) as isize - pad_x as isize;
                        let in_bounds = iy >= 0
                            && ix >= 0
                            && iy < input.shape.h as isize
                            && ix < input.shape.w as isize;
                        core.alu(4);
                        core.branch(site::POOL_TAP, false, !in_bounds);
                        if !in_bounds {
                            continue;
                        }
                        let v = core.load_i8(input.element_addr(iy as usize, ix as usize, c))?;
                        core.alu(1);
                        core.branch(site::POOL_TAP + 1, false, v > best);
                        best = best.max(v);
                    }
                }
                core.store_u8(output.element_addr(oy, ox, c), best as u8)?;
            }
        }
    }
    Ok(())
}

/// Elementwise int8 ADD (TFLM double-rescale).
///
/// # Errors
///
/// Memory faults.
pub fn add(
    core: &mut TimedCore,
    a: MemTensor,
    b: MemTensor,
    output: MemTensor,
    out_quant: QuantParams,
    code: (u32, u32),
) -> Result<(), KernelError> {
    core.set_code_region(code.0, code.1)?;
    use cfu_core::arith::quantize_multiplier;
    let twice_max = 2.0 * a.quant.scale.max(b.quant.scale);
    let (m1, s1) = quantize_multiplier(a.quant.scale / twice_max);
    let (m2, s2) = quantize_multiplier(b.quant.scale / twice_max);
    let (mo, so) = quantize_multiplier(twice_max / (f64::from(1u32 << 20) * out_quant.scale));
    core.call(6);
    core.alu(20);
    let n = a.shape.elements();
    for i in 0..n {
        let xa = i32::from(core.load_i8(a.addr + i as u32)?);
        let xb = i32::from(core.load_i8(b.addr + i as u32)?);
        // Three requantizations per element, in software.
        charge_software_requant(core);
        charge_software_requant(core);
        charge_software_requant(core);
        let sa = (xa - a.quant.zero_point) << 20;
        let sb = (xb - b.quant.zero_point) << 20;
        let ra = arith::multiply_by_quantized_multiplier(sa, m1, s1);
        let rb = arith::multiply_by_quantized_multiplier(sb, m2, s2);
        let v = arith::multiply_by_quantized_multiplier(ra + rb, mo, so) + out_quant.zero_point;
        core.store_u8(output.addr + i as u32, (v.clamp(-128, 127) as i8) as u8)?;
        core.branch(site::ADD_ELEM, true, i + 1 != n);
    }
    Ok(())
}

/// Softmax (fixed-point LUT cost structure; float-exact values).
///
/// # Errors
///
/// Memory faults.
pub fn softmax(
    core: &mut TimedCore,
    input: MemTensor,
    output: MemTensor,
    code: (u32, u32),
) -> Result<(), KernelError> {
    core.set_code_region(code.0, code.1)?;
    let n = input.shape.elements();
    core.call(6);
    // Pass 1: max; pass 2: exp-table lookups and sum; pass 3: divide.
    let mut data = Vec::with_capacity(n);
    for i in 0..n {
        let v = core.load_i8(input.addr + i as u32)?;
        core.alu(2);
        core.branch(site::SOFTMAX_ELEM, false, false);
        data.push(v);
    }
    for _ in 0..n {
        core.alu(6); // table index + interpolation
        core.load_u32(input.addr)?; // LUT access (charged at input region)
        core.mul();
    }
    let host_in = crate::tensor::Tensor::from_data(input.shape, data, input.quant);
    let result = reference::softmax(&host_in);
    for (i, &v) in result.data.iter().enumerate() {
        core.div(); // per-element normalization
        core.alu(3);
        core.store_u8(output.addr + i as u32, v as u8)?;
    }
    Ok(())
}

/// Spatial PAD: fill the output with the zero point, then copy rows.
///
/// # Errors
///
/// Memory faults.
#[allow(clippy::too_many_arguments)]
pub fn pad(
    core: &mut TimedCore,
    input: MemTensor,
    output: MemTensor,
    top: usize,
    left: usize,
    code: (u32, u32),
) -> Result<(), KernelError> {
    core.set_code_region(code.0, code.1)?;
    core.call(4);
    let zp = input.quant.zero_point.clamp(-128, 127) as i8;
    // memset-style fill.
    for i in 0..output.shape.elements() {
        core.store_u8(output.addr + i as u32, zp as u8)?;
    }
    core.alu(8);
    // Row-wise copy into the interior.
    for y in 0..input.shape.h {
        for x in 0..input.shape.w {
            core.alu(2);
            for c in 0..input.shape.c {
                let v = core.load_i8(input.element_addr(y, x, c))?;
                core.store_u8(output.element_addr(y + top, x + left, c), v as u8)?;
            }
        }
    }
    Ok(())
}

/// Reshape: a no-copy shape change (TFLM shares the buffer; we copy only
/// if the slots differ).
///
/// # Errors
///
/// Memory faults.
pub fn reshape(
    core: &mut TimedCore,
    input: MemTensor,
    output: MemTensor,
    code: (u32, u32),
) -> Result<(), KernelError> {
    core.set_code_region(code.0, code.1)?;
    core.call(2);
    if input.addr != output.addr {
        for i in 0..input.shape.elements() {
            let v = core.load_i8(input.addr + i as u32)?;
            core.store_u8(output.addr + i as u32, v as u8)?;
        }
    }
    Ok(())
}
