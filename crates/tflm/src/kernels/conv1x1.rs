//! The MobileNetV2 pointwise-convolution ladder (paper §III-A, Figure 4).
//!
//! One kernel variant per optimization step, from the generic TFLM
//! reference kernel to the fully-integrated, pipelined CFU1 design. All
//! variants produce bit-identical outputs; only the work distribution
//! between CPU and CFU changes. The two software MAC steps (*SW*, *CFU
//! postproc*) run their input-channel loop as one [`TimedCore::mac_loop`].

use cfu_core::cfu1::{ops, Cfu1Stage, FILTER_WORDS, INPUT_WORDS};
use cfu_sim::{MacLoop, TimedCore};

use super::{charge_software_requant, generic, load_channel_params, ConvJob, KernelError};
use cfu_core::arith;

/// Branch-site ids for this kernel family.
mod site {
    pub const IC: u32 = 110;
    pub const OC: u32 = 111;
    pub const PIXEL: u32 = 112;
    pub const TILE: u32 = 113;
}

/// One step of the Figure 4 ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Conv1x1Variant {
    /// The unmodified generic reference kernel (baseline).
    Generic,
    /// Software-specialized 1x1 kernel: two loop levels and the padding
    /// check removed, incremental pointers (*SW*, ~2×).
    SwSpecialized,
    /// Post-processing (bias/multiplier/shift/clamp) moved into the CFU
    /// (*CFU postproc*).
    CfuPostproc,
    /// Filter words parked in a CFU scratchpad (*CFU hold filt*).
    CfuHoldFilter,
    /// Input words parked too; CPU pays unpacking shifts (*CFU hold inp*).
    CfuHoldInput,
    /// 4-lane MAC on packed words from the CFU buffers (*CFU MAC4*).
    CfuMac4,
    /// Whole inner accumulation loop inside the CFU (*MAC4Run1*).
    CfuMac4Run1,
    /// Accumulator feeds post-processing directly (*Incl postproc*).
    CfuInclPostproc,
    /// Four packed int8 outputs per response (*Macc4Run4*).
    CfuMac4Run4,
    /// Input loading overlapped with computation (*Overlap input*).
    CfuOverlapInput,
}

impl Conv1x1Variant {
    /// The full ladder in paper order (Figure 4's x-axis, with `Generic`
    /// prepended as the 1× baseline).
    pub const LADDER: [Conv1x1Variant; 10] = [
        Conv1x1Variant::Generic,
        Conv1x1Variant::SwSpecialized,
        Conv1x1Variant::CfuPostproc,
        Conv1x1Variant::CfuHoldFilter,
        Conv1x1Variant::CfuHoldInput,
        Conv1x1Variant::CfuMac4,
        Conv1x1Variant::CfuMac4Run1,
        Conv1x1Variant::CfuInclPostproc,
        Conv1x1Variant::CfuMac4Run4,
        Conv1x1Variant::CfuOverlapInput,
    ];

    /// The Figure 4 label.
    pub fn label(self) -> &'static str {
        match self {
            Conv1x1Variant::Generic => "Baseline",
            Conv1x1Variant::SwSpecialized => "SW",
            Conv1x1Variant::CfuPostproc => "CFU postproc",
            Conv1x1Variant::CfuHoldFilter => "CFU hold filt",
            Conv1x1Variant::CfuHoldInput => "CFU hold inp",
            Conv1x1Variant::CfuMac4 => "CFU MAC4",
            Conv1x1Variant::CfuMac4Run1 => "MAC4Run1",
            Conv1x1Variant::CfuInclPostproc => "Incl postproc",
            Conv1x1Variant::CfuMac4Run4 => "Macc4Run4",
            Conv1x1Variant::CfuOverlapInput => "Overlap input",
        }
    }

    /// The CFU1 growth stage this variant's custom instructions require
    /// (`None` for the pure-software steps).
    pub fn required_stage(self) -> Option<Cfu1Stage> {
        match self {
            Conv1x1Variant::Generic | Conv1x1Variant::SwSpecialized => None,
            Conv1x1Variant::CfuPostproc => Some(Cfu1Stage::PostProc),
            Conv1x1Variant::CfuHoldFilter => Some(Cfu1Stage::HoldFilter),
            Conv1x1Variant::CfuHoldInput => Some(Cfu1Stage::HoldInput),
            Conv1x1Variant::CfuMac4 => Some(Cfu1Stage::Mac4),
            Conv1x1Variant::CfuMac4Run1 => Some(Cfu1Stage::Mac4Run1),
            Conv1x1Variant::CfuInclPostproc => Some(Cfu1Stage::InclPostproc),
            Conv1x1Variant::CfuMac4Run4 => Some(Cfu1Stage::Mac4Run4),
            Conv1x1Variant::CfuOverlapInput => Some(Cfu1Stage::OverlapInput),
        }
    }
}

/// Runs the 1x1-specialized convolution at the given ladder step.
///
/// # Errors
///
/// [`KernelError::Unsupported`] when the layer is not a pointwise conv
/// with channel counts divisible by four (callers fall back to the
/// generic kernel), or memory/CFU faults.
pub fn conv1x1(
    core: &mut TimedCore,
    job: &ConvJob<'_>,
    variant: Conv1x1Variant,
) -> Result<(), KernelError> {
    if variant == Conv1x1Variant::Generic {
        return generic::conv2d(core, job);
    }
    let p = job.params;
    if !p.is_pointwise() {
        return Err(KernelError::Unsupported("not a 1x1/stride-1 convolution".into()));
    }
    let in_ch = p.filter.in_ch;
    let out_ch = p.filter.out_ch;
    if !in_ch.is_multiple_of(4) || !out_ch.is_multiple_of(4) {
        return Err(KernelError::Unsupported(format!(
            "channels {in_ch}->{out_ch} not divisible by 4"
        )));
    }
    if in_ch / 4 > INPUT_WORDS && variant >= Conv1x1Variant::CfuHoldInput {
        return Err(KernelError::Unsupported(format!("input depth {in_ch} exceeds CFU buffer")));
    }
    core.set_code_region(job.data.code_base, job.data.code_len)?;
    core.call(8);
    core.alu(16); // specialized setup (no filter-shape branching)
    match variant {
        Conv1x1Variant::SwSpecialized => sw_specialized(core, job),
        Conv1x1Variant::CfuPostproc => cfu_postproc(core, job),
        Conv1x1Variant::CfuHoldFilter | Conv1x1Variant::CfuHoldInput | Conv1x1Variant::CfuMac4 => {
            cfu_buffered(core, job, variant)
        }
        _ => cfu_run(core, job, variant),
    }
}

/// Per-pixel iteration order shared by the variants: NHWC pixels.
fn pixels(job: &ConvJob<'_>) -> impl Iterator<Item = (usize, usize)> {
    let h = job.input.shape.h;
    let w = job.input.shape.w;
    (0..h).flat_map(move |y| (0..w).map(move |x| (y, x)))
}

/// The input-channel loop of output channel `oc` at pixel `(y, x)` in
/// the software MAC steps (*SW* and *CFU postproc*). Specialization
/// removes the Offset() recomputation and padding checks, but the
/// compiled loop still carries per-element index staging and
/// quantized-operand widening (`pre`, ~8 instructions beyond the loads
/// and the multiply), then the pointer bumps and the accumulate
/// (`post`).
fn software_mac(job: &ConvJob<'_>, y: usize, x: usize, oc: usize) -> MacLoop {
    let in_ch = job.params.filter.in_ch;
    MacLoop {
        x: job.input.element_addr(y, x, 0),
        w: job.data.filter_addr + (oc * in_ch) as u32,
        n: in_ch as u32,
        input_offset: -job.input.quant.zero_point,
        pre: 8,
        mid: 0,
        post: 2,
        site: site::IC,
    }
}

/// Software-only specialization: filter_width = filter_height = 1 is
/// propagated, two loop levels and the padding check disappear, pointers
/// advance incrementally.
fn sw_specialized(core: &mut TimedCore, job: &ConvJob<'_>) -> Result<(), KernelError> {
    let p = job.params;
    let (act_min, act_max) = p.activation.range(p.out_quant);
    for (y, x) in pixels(job) {
        core.alu(3); // pixel pointer bump
        for oc in 0..p.filter.out_ch {
            core.alu(2);
            let mut acc = core.mac_loop(&software_mac(job, y, x, oc))?;
            let (bias, mult, shift) = load_channel_params(core, &job.data, oc)?;
            acc += bias;
            charge_software_requant(core);
            let scaled = arith::multiply_by_quantized_multiplier(acc, mult, shift);
            let v = arith::clamp_activation(scaled + p.out_quant.zero_point, act_min, act_max);
            core.store_u8(job.output.element_addr(y, x, oc), v as i8 as u8)?;
            core.branch(site::OC, true, oc + 1 != p.filter.out_ch);
        }
        core.branch(site::PIXEL, true, true);
    }
    Ok(())
}

/// Loads the whole layer's per-channel parameters into the CFU (bias,
/// multiplier, shift for each output channel in `range`), charging the
/// loads + custom instructions.
fn push_params(
    core: &mut TimedCore,
    job: &ConvJob<'_>,
    range: std::ops::Range<usize>,
) -> Result<(), KernelError> {
    let p = job.params;
    core.cfu(ops::SET_INPUT_OFFSET, (-job.input.quant.zero_point) as u32, 0)?;
    core.cfu(ops::SET_OUTPUT_OFFSET, p.out_quant.zero_point as u32, 0)?;
    let (act_min, act_max) = p.activation.range(p.out_quant);
    core.cfu(ops::SET_ACTIVATION, act_min as u32, act_max as u32)?;
    for oc in range {
        let (bias, mult, shift) = load_channel_params(core, &job.data, oc)?;
        core.cfu(ops::PUSH_BIAS, bias as u32, 0)?;
        core.cfu(ops::PUSH_MULTIPLIER, mult as u32, 0)?;
        core.cfu(ops::PUSH_SHIFT, shift as u32, 0)?;
    }
    Ok(())
}

/// *CFU postproc*: software MAC loop, hardware requantization.
fn cfu_postproc(core: &mut TimedCore, job: &ConvJob<'_>) -> Result<(), KernelError> {
    let p = job.params;
    core.cfu(ops::RESET, 0, 0)?;
    push_params(core, job, 0..p.filter.out_ch)?;
    let cq = job.cq;
    let (act_min, act_max) = p.activation.range(p.out_quant);
    for (y, x) in pixels(job) {
        core.alu(3);
        for oc in 0..p.filter.out_ch {
            core.alu(2);
            let acc = core.mac_loop(&software_mac(job, y, x, oc))?;
            // One custom instruction replaces the whole software
            // requantization path (the ~55 saved cycles of the paper).
            let v = core.cfu(ops::POSTPROC, acc as u32, 0)? as i32;
            debug_assert_eq!(
                v,
                arith::clamp_activation(
                    arith::multiply_by_quantized_multiplier(
                        acc + p.bias.data[oc],
                        cq.multipliers[oc],
                        cq.shifts[oc],
                    ) + p.out_quant.zero_point,
                    act_min,
                    act_max,
                ),
            );
            core.store_u8(job.output.element_addr(y, x, oc), v as i8 as u8)?;
            core.branch(site::OC, true, oc + 1 != p.filter.out_ch);
        }
        core.branch(site::PIXEL, true, true);
    }
    Ok(())
}

/// Largest output-channel tile (multiple of 4) whose filter rows fit the
/// CFU filter scratchpad.
fn tile_channels(in_words: usize, out_ch: usize) -> usize {
    let max_tile = (FILTER_WORDS / in_words.max(1)).max(4) & !3;
    max_tile.min(out_ch)
}

/// *CFU hold filt* / *CFU hold inp* / *CFU MAC4*: data parked in CFU
/// scratchpads; the MAC either stays on the CPU (with unpack shifts) or
/// moves to the CFU's 4-lane array.
fn cfu_buffered(
    core: &mut TimedCore,
    job: &ConvJob<'_>,
    variant: Conv1x1Variant,
) -> Result<(), KernelError> {
    let p = job.params;
    let in_ch = p.filter.in_ch;
    let in_words = in_ch / 4;
    let out_ch = p.filter.out_ch;
    let tile = tile_channels(in_words, out_ch);
    let input_offset = -job.input.quant.zero_point;
    let hold_input = variant >= Conv1x1Variant::CfuHoldInput;
    let cfu_mac = variant == Conv1x1Variant::CfuMac4;

    let mut tile_start = 0;
    while tile_start < out_ch {
        let tile_end = (tile_start + tile).min(out_ch);
        core.cfu(ops::RESET, 0, 0)?;
        core.cfu(ops::SET_DEPTH_WORDS, in_words as u32, 0)?;
        push_params(core, job, tile_start..tile_end)?;
        // Park the tile's filter rows in the CFU once.
        for oc in tile_start..tile_end {
            for w in 0..in_words {
                let word = core.load_u32(job.data.filter_addr + (oc * in_ch + 4 * w) as u32)?;
                core.cfu(ops::WRITE_FILTER, word, 0)?;
                core.branch(site::TILE, true, w + 1 != in_words);
            }
        }
        for (y, x) in pixels(job) {
            core.alu(3);
            // Rewind the input write pointer and post-processing cursor
            // for the new pixel.
            core.cfu(ops::REWIND, 0, 0)?;
            if hold_input {
                for w in 0..in_words {
                    let word = core.load_u32(job.input.element_addr(y, x, 4 * w))?;
                    core.cfu(ops::WRITE_INPUT, word, 0)?;
                }
            }
            for oc in tile_start..tile_end {
                core.alu(2);
                let mut acc = 0i32;
                for w in 0..in_words {
                    let filt_word =
                        core.cfu(ops::READ_FILTER, ((oc - tile_start) * in_words + w) as u32, 0)?;
                    let inp_word = if hold_input {
                        core.cfu(ops::READ_INPUT, w as u32, 0)?
                    } else {
                        core.load_u32(job.input.element_addr(y, x, 4 * w))?
                    };
                    if cfu_mac {
                        // MAC4 on the packed words (accumulator in CFU).
                        core.cfu(ops::MAC4, inp_word, filt_word)?;
                    } else {
                        // CPU unpacks lanes: shifts + sign extensions.
                        core.shift(8);
                        core.shift(8);
                        core.alu(6);
                        for lane in 0..4 {
                            core.mul();
                            core.alu(1);
                            let xv = i32::from(arith::unpack_i8x4(inp_word)[lane]);
                            let wv = i32::from(arith::unpack_i8x4(filt_word)[lane]);
                            acc += (xv + input_offset) * wv;
                        }
                    }
                    core.branch(site::IC, true, w + 1 != in_words);
                }
                if cfu_mac {
                    acc = core.cfu(ops::TAKE_ACC, 0, 0)? as i32;
                }
                let v = core.cfu(ops::POSTPROC, acc as u32, 0)? as i32;
                core.store_u8(job.output.element_addr(y, x, oc), v as i8 as u8)?;
                core.branch(site::OC, true, oc + 1 != tile_end);
            }
            core.branch(site::PIXEL, true, true);
        }
        tile_start = tile_end;
    }
    Ok(())
}

/// *MAC4Run1* through *Overlap input*: the inner loop (and eventually the
/// post-processing and output packing) live in the CFU.
fn cfu_run(
    core: &mut TimedCore,
    job: &ConvJob<'_>,
    variant: Conv1x1Variant,
) -> Result<(), KernelError> {
    let p = job.params;
    let in_ch = p.filter.in_ch;
    let in_words = in_ch / 4;
    let out_ch = p.filter.out_ch;
    let tile = tile_channels(in_words, out_ch);
    let fused_postproc = variant >= Conv1x1Variant::CfuInclPostproc;
    let run4 = variant >= Conv1x1Variant::CfuMac4Run4;
    // At the overlap stage, input loading for pixel n+1 happens while the
    // CFU computes pixel n (double-buffered input bank); the RUN latency
    // of a pixel far exceeds the loading time, so from the second pixel
    // on the loads are fully hidden.
    let overlap = variant >= Conv1x1Variant::CfuOverlapInput;

    let mut tile_start = 0;
    while tile_start < out_ch {
        let tile_end = (tile_start + tile).min(out_ch);
        core.cfu(ops::RESET, 0, 0)?;
        core.cfu(ops::SET_DEPTH_WORDS, in_words as u32, 0)?;
        push_params(core, job, tile_start..tile_end)?;
        for oc in tile_start..tile_end {
            for w in 0..in_words {
                let word = core.load_u32(job.data.filter_addr + (oc * in_ch + 4 * w) as u32)?;
                core.cfu(ops::WRITE_FILTER, word, 0)?;
                core.branch(site::TILE, true, w + 1 != in_words);
            }
        }
        let mut first_pixel = true;
        for (y, x) in pixels(job) {
            core.alu(3);
            core.cfu(ops::REWIND, 0, 0)?;
            if overlap && !first_pixel {
                // Hidden under the previous pixel's RUN latency.
                for w in 0..in_words {
                    let word = core.peek_u32(job.input.element_addr(y, x, 4 * w))?;
                    core.cfu_hidden(ops::WRITE_INPUT, word, 0)?;
                }
            } else {
                for w in 0..in_words {
                    let word = core.load_u32(job.input.element_addr(y, x, 4 * w))?;
                    core.cfu(ops::WRITE_INPUT, word, 0)?;
                }
            }
            first_pixel = false;
            if run4 {
                let mut oc = tile_start;
                while oc < tile_end {
                    let packed = core.cfu(ops::RUN4, 0, 0)?;
                    core.store_u32(job.output.element_addr(y, x, oc), packed)?;
                    core.branch(site::OC, true, oc + 4 < tile_end);
                    oc += 4;
                }
            } else {
                for oc in tile_start..tile_end {
                    let value = core.cfu(ops::RUN1, 0, 0)?;
                    let v = if fused_postproc {
                        value as i32
                    } else {
                        core.cfu(ops::POSTPROC, value, 0)? as i32
                    };
                    core.store_u8(job.output.element_addr(y, x, oc), v as i8 as u8)?;
                    core.branch(site::OC, true, oc + 1 != tile_end);
                }
            }
            core.branch(site::PIXEL, true, true);
        }
        tile_start = tile_end;
    }
    Ok(())
}
