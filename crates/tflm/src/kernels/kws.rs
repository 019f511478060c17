//! Keyword-Spotting kernels for CFU2 (paper §III-B, Figure 6).
//!
//! The Fomu ladder's CFU steps: a 4-way SIMD multiply-accumulate used by
//! the convolution (`MAC Conv`), the same unit's single lane reused by
//! depthwise convolution (no resources were left for dedicated depthwise
//! gateware), and accumulator post-processing in the CFU (`Post Proc`).
//! The final `SW specialize` step informs the compiler about constant
//! filter shapes, shrinking per-tap branch and index overhead.

use cfu_core::arith;
use cfu_core::cfu2::ops;
use cfu_sim::TimedCore;

use super::{charge_software_requant, load_channel_params, ConvJob, DwJob, KernelError};

mod site {
    pub const TAP: u32 = 210;
    pub const IC: u32 = 211;
    pub const PIX: u32 = 212;
    pub const EDGE: u32 = 213;
}

/// Sets CFU2's per-channel post-processing registers (three loads + three
/// custom instructions).
fn set_channel_regs(
    core: &mut TimedCore,
    data: &super::LayerData,
    oc: usize,
) -> Result<(i32, i32, i32), KernelError> {
    let (bias, mult, shift) = load_channel_params(core, data, oc)?;
    core.cfu(ops::SET_BIAS, bias as u32, 0)?;
    core.cfu(ops::SET_MULTIPLIER, mult as u32, 0)?;
    core.cfu(ops::SET_SHIFT, shift as u32, 0)?;
    Ok((bias, mult, shift))
}

/// Convolution using CFU2's 4-way MAC.
///
/// Vectorizes over input channels for pointwise-style layers
/// (`in_ch % 4 == 0`) or over the filter width for single-channel inputs
/// with `kw % 4 == 0` (the DS-CNN front conv); anything else is
/// unsupported and the caller falls back.
///
/// # Errors
///
/// [`KernelError::Unsupported`] for shapes the SIMD unit cannot cover;
/// memory/CFU faults otherwise.
pub fn conv2d_cfu2(
    core: &mut TimedCore,
    job: &ConvJob<'_>,
    cfu_postproc: bool,
    specialized: bool,
) -> Result<(), KernelError> {
    let p = job.params;
    let vector_ic = p.filter.in_ch.is_multiple_of(4);
    let vector_kw = p.filter.in_ch == 1 && p.filter.kw.is_multiple_of(4);
    if !vector_ic && !vector_kw {
        return Err(KernelError::Unsupported(format!(
            "conv {}x{}x{} not SIMD-friendly",
            p.filter.kh, p.filter.kw, p.filter.in_ch
        )));
    }
    core.set_code_region(job.data.code_base, job.data.code_len)?;
    core.call(8);
    core.alu(if specialized { 10 } else { 24 });
    let input = job.input;
    let out_shape = job.output.shape;
    let (_, pad_y) = p.padding.output_and_pad(input.shape.h, p.filter.kh, p.stride);
    let (_, pad_x) = p.padding.output_and_pad(input.shape.w, p.filter.kw, p.stride);
    let input_offset = -input.quant.zero_point;
    let (act_min, act_max) = p.activation.range(p.out_quant);
    core.cfu(ops::RESET, 0, 0)?;
    core.cfu(ops::SET_INPUT_OFFSET, input_offset as u32, 0)?;
    if cfu_postproc {
        core.cfu(ops::SET_OUTPUT_OFFSET, p.out_quant.zero_point as u32, 0)?;
        core.cfu(ops::SET_ACTIVATION, act_min as u32, act_max as u32)?;
    }
    // Channel-outer loop so the post-processing registers are programmed
    // once per output channel.
    for oc in 0..out_shape.c {
        let (bias, mult, shift) = if cfu_postproc {
            set_channel_regs(core, &job.data, oc)?
        } else {
            load_channel_params(core, &job.data, oc)?
        };
        for oy in 0..out_shape.h {
            for ox in 0..out_shape.w {
                if !specialized {
                    core.alu(4);
                }
                core.alu(2);
                for dy in 0..p.filter.kh {
                    let iy = (oy * p.stride + dy) as isize - pad_y as isize;
                    let row_ok = iy >= 0 && iy < input.shape.h as isize;
                    core.alu(2);
                    core.branch(site::EDGE, false, !row_ok);
                    if !row_ok {
                        continue;
                    }
                    let iy = iy as usize;
                    if vector_ic {
                        for dx in 0..p.filter.kw {
                            let ix = (ox * p.stride + dx) as isize - pad_x as isize;
                            let col_ok = ix >= 0 && ix < input.shape.w as isize;
                            if !specialized {
                                core.alu(2);
                                core.branch(site::EDGE + 1, false, !col_ok);
                            }
                            if !col_ok {
                                continue;
                            }
                            let ix = ix as usize;
                            for w in 0..p.filter.in_ch / 4 {
                                // Until `SW specialize`, the custom
                                // instructions sit inside the reference
                                // kernel's loop structure: full Offset()
                                // recomputation for both streams plus the
                                // word packing glue (~40 instructions per
                                // 4-lane group). Specialization strength-
                                // reduces that to pointer bumps (~16).
                                core.alu(if specialized { 16 } else { 40 });
                                let inp = core.load_u32(input.element_addr(iy, ix, 4 * w))?;
                                let filt = core.load_u32(
                                    job.data.filter_addr
                                        + p.filter.offset(oc, dy, dx, 4 * w) as u32,
                                )?;
                                core.cfu(ops::MAC4, inp, filt)?;
                                core.branch(site::IC, true, w + 1 != p.filter.in_ch / 4);
                            }
                        }
                    } else {
                        // vector_kw: 4 taps across the filter row at once.
                        let mut dx = 0;
                        while dx < p.filter.kw {
                            let ix = (ox * p.stride + dx) as isize - pad_x as isize;
                            let all_ok = ix >= 0 && ix + 4 <= input.shape.w as isize;
                            core.alu(if specialized { 16 } else { 40 });
                            core.branch(site::EDGE + 2, false, !all_ok);
                            if all_ok {
                                let inp = core.load_u32(input.element_addr(iy, ix as usize, 0))?;
                                let filt = core.load_u32(
                                    job.data.filter_addr + p.filter.offset(oc, dy, dx, 0) as u32,
                                )?;
                                core.cfu(ops::MAC4, inp, filt)?;
                            } else {
                                // Edge taps one by one through lane 0.
                                for k in 0..4 {
                                    let ixk = ix + k as isize;
                                    if ixk < 0 || ixk >= input.shape.w as isize {
                                        continue;
                                    }
                                    let x =
                                        core.load_i8(input.element_addr(iy, ixk as usize, 0))?;
                                    let f = core.load_i8(
                                        job.data.filter_addr
                                            + p.filter.offset(oc, dy, dx + k, 0) as u32,
                                    )?;
                                    core.cfu(ops::MAC1, x as i32 as u32, f as i32 as u32)?;
                                }
                            }
                            dx += 4;
                        }
                    }
                    core.branch(site::TAP, true, dy + 1 != p.filter.kh);
                }
                let v = if cfu_postproc {
                    // Read-and-postprocess in one fused custom instruction.
                    core.cfu(ops::MAC4_TAKE_POSTPROC, 0, 0)? as i32
                } else {
                    let acc = core.cfu(ops::TAKE_ACC, 0, 0)? as i32;
                    charge_software_requant(core);
                    let scaled = arith::multiply_by_quantized_multiplier(acc + bias, mult, shift);
                    arith::clamp_activation(scaled + p.out_quant.zero_point, act_min, act_max)
                };
                core.store_u8(job.output.element_addr(oy, ox, oc), v as i8 as u8)?;
                core.branch(site::PIX, true, true);
            }
        }
    }
    Ok(())
}

/// Depthwise convolution through a single lane of CFU2's MAC array.
///
/// # Errors
///
/// Memory/CFU faults.
pub fn depthwise_cfu2(
    core: &mut TimedCore,
    job: &DwJob<'_>,
    cfu_postproc: bool,
    specialized: bool,
) -> Result<(), KernelError> {
    let p = job.params;
    core.set_code_region(job.data.code_base, job.data.code_len)?;
    core.call(8);
    core.alu(if specialized { 10 } else { 24 });
    let input = job.input;
    let out_shape = job.output.shape;
    let (_, pad_y) = p.padding.output_and_pad(input.shape.h, p.filter.kh, p.stride);
    let (_, pad_x) = p.padding.output_and_pad(input.shape.w, p.filter.kw, p.stride);
    let input_offset = -input.quant.zero_point;
    let (act_min, act_max) = p.activation.range(p.out_quant);
    core.cfu(ops::RESET, 0, 0)?;
    core.cfu(ops::SET_INPUT_OFFSET, input_offset as u32, 0)?;
    if cfu_postproc {
        core.cfu(ops::SET_OUTPUT_OFFSET, p.out_quant.zero_point as u32, 0)?;
        core.cfu(ops::SET_ACTIVATION, act_min as u32, act_max as u32)?;
    }
    for c in 0..out_shape.c {
        let (bias, mult, shift) = if cfu_postproc {
            set_channel_regs(core, &job.data, c)?
        } else {
            load_channel_params(core, &job.data, c)?
        };
        for oy in 0..out_shape.h {
            for ox in 0..out_shape.w {
                core.alu(2);
                for dy in 0..p.filter.kh {
                    for dx in 0..p.filter.kw {
                        let iy = (oy * p.stride + dy) as isize - pad_y as isize;
                        let ix = (ox * p.stride + dx) as isize - pad_x as isize;
                        let ok = iy >= 0
                            && ix >= 0
                            && iy < input.shape.h as isize
                            && ix < input.shape.w as isize;
                        core.alu(if specialized { 5 } else { 14 });
                        core.branch(site::EDGE, false, !ok);
                        if !ok {
                            continue;
                        }
                        let x = core.load_i8(input.element_addr(iy as usize, ix as usize, c))?;
                        let f = core
                            .load_i8(job.data.filter_addr + p.filter.offset(c, dy, dx, 0) as u32)?;
                        // One lane of the 4-way MAC replaces mul+add.
                        core.cfu(ops::MAC1, x as i32 as u32, f as i32 as u32)?;
                        core.branch(site::TAP, true, dx + 1 != p.filter.kw);
                    }
                }
                let v = if cfu_postproc {
                    let acc = core.cfu(ops::TAKE_ACC, 0, 0)? as i32;
                    core.cfu(ops::POSTPROC, acc as u32, 0)? as i32
                } else {
                    let acc = core.cfu(ops::TAKE_ACC, 0, 0)? as i32;
                    charge_software_requant(core);
                    let scaled = arith::multiply_by_quantized_multiplier(acc + bias, mult, shift);
                    arith::clamp_activation(scaled + p.out_quant.zero_point, act_min, act_max)
                };
                core.store_u8(job.output.element_addr(oy, ox, c), v as i8 as u8)?;
                core.branch(site::PIX, true, true);
            }
        }
    }
    Ok(())
}
