//! CFU1: the MobileNetV2 1x1-convolution accelerator (paper §III-A).
//!
//! The image-classification case study grows this CFU incrementally, one
//! ladder step per optimization, reaching 55× on the 1x1 `CONV_2D`
//! operator. [`Cfu1Stage`] reproduces those steps: each stage enables a
//! superset of the previous stage's ops and changes the resource
//! footprint the way Figure 4 reports (usage peaks midway, then *drops*
//! as processing integrates into the CFU and CPU↔CFU data paths are
//! removed).
//!
//! The op map (all on `funct3 = 0`):
//!
//! | funct7 | op | stage | meaning |
//! |-------:|----|-------|---------|
//! | 0  | `RESET`            | PostProc    | clear all state |
//! | 1  | `SET_DEPTH_WORDS`  | PostProc    | input-vector length in words (`in_ch/4`) |
//! | 2  | `PUSH_BIAS`        | PostProc    | append per-channel bias |
//! | 3  | `PUSH_MULTIPLIER`  | PostProc    | append per-channel Q31 multiplier |
//! | 4  | `PUSH_SHIFT`       | PostProc    | append per-channel shift |
//! | 5  | `SET_OUTPUT_OFFSET`| PostProc    | output zero point |
//! | 6  | `SET_ACTIVATION`   | PostProc    | rs1 = min, rs2 = max |
//! | 7  | `SET_INPUT_OFFSET` | PostProc    | activation offset for MACs |
//! | 8  | `POSTPROC`         | PostProc    | rs1 = accumulator → clamped int8 |
//! | 16 | `WRITE_FILTER`     | HoldFilter  | append packed filter word |
//! | 17 | `READ_FILTER`      | HoldFilter  | rs1 = index → filter word |
//! | 18 | `WRITE_INPUT`      | HoldInput   | append packed input word |
//! | 19 | `READ_INPUT`       | HoldInput   | rs1 = index → input word |
//! | 20 | `MAC4`             | Mac4        | acc += dot4(rs1 inputs, rs2 filters) |
//! | 21 | `TAKE_ACC`         | Mac4        | read accumulator and clear |
//! | 22 | `REWIND`           | Mac4        | rewind input/channel cursors (new pixel) |
//! | 24 | `RUN1`             | Mac4Run1    | full dot product for one output channel |
//! | 25 | `RUN4`             | Mac4Run4    | four output channels, packed int8 result |
//!
//! At stage `InclPostproc` and beyond, `RUN1` returns the *post-processed*
//! int8 value instead of the raw accumulator.

use crate::blocks::{ChannelParams, MacArray, PostProcessor, Scratchpad};
use crate::interface::{Cfu, CfuError, CfuOp, CfuResponse};
use crate::resources::Resources;

/// Ladder steps of the MobileNetV2 CFU, in the order Figure 4 applies
/// them. (The first Figure-4 step, *SW*, is a pure software optimization
/// and has no CFU.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cfu1Stage {
    /// `CFU postproc`: per-channel bias/multiplier/shift tables and the
    /// requantize+clamp pipeline live in the CFU (~55 cycles saved per
    /// output element).
    PostProc,
    /// `CFU hold filt`: filter words parked in a CFU scratchpad.
    HoldFilter,
    /// `CFU hold inp`: input words parked too (a wash on its own — the
    /// CPU pays shifts/sign-extensions to use word-packed values).
    HoldInput,
    /// `CFU MAC4`: 4-lane SIMD multiply-accumulate on packed operands.
    Mac4,
    /// `MAC4Run1`: the whole inner accumulation loop runs inside the CFU.
    Mac4Run1,
    /// `Incl postproc`: accumulation result feeds post-processing
    /// directly, no CPU intervention.
    InclPostproc,
    /// `Macc4Run4`: four int8 outputs packed into one 32-bit word per
    /// response, quadrupling write-back efficiency.
    Mac4Run4,
    /// `Overlap input`: input loading is double-buffered and overlaps
    /// computation.
    OverlapInput,
}

impl Cfu1Stage {
    /// All stages in ladder order.
    pub const ALL: [Cfu1Stage; 8] = [
        Cfu1Stage::PostProc,
        Cfu1Stage::HoldFilter,
        Cfu1Stage::HoldInput,
        Cfu1Stage::Mac4,
        Cfu1Stage::Mac4Run1,
        Cfu1Stage::InclPostproc,
        Cfu1Stage::Mac4Run4,
        Cfu1Stage::OverlapInput,
    ];

    /// The label Figure 4 uses for this step.
    pub fn label(self) -> &'static str {
        match self {
            Cfu1Stage::PostProc => "CFU postproc",
            Cfu1Stage::HoldFilter => "CFU hold filt",
            Cfu1Stage::HoldInput => "CFU hold inp",
            Cfu1Stage::Mac4 => "CFU MAC4",
            Cfu1Stage::Mac4Run1 => "MAC4Run1",
            Cfu1Stage::InclPostproc => "Incl postproc",
            Cfu1Stage::Mac4Run4 => "Macc4Run4",
            Cfu1Stage::OverlapInput => "Overlap input",
        }
    }
}

/// Capacity of the filter scratchpad in words. Sized for the largest
/// MobileNetV2 1x1 layer tile the kernels stream (filter rows for 4
/// output channels are resident at once, plus headroom for `HoldFilter`
/// stages that park whole layers).
pub const FILTER_WORDS: usize = 4096;
/// Capacity of the input scratchpad in words (one input column of up to
/// 1024 channels, double-buffered at the `OverlapInput` stage).
pub const INPUT_WORDS: usize = 256;

const OP_RESET: u8 = 0;
const OP_SET_DEPTH_WORDS: u8 = 1;
const OP_PUSH_BIAS: u8 = 2;
const OP_PUSH_MULTIPLIER: u8 = 3;
const OP_PUSH_SHIFT: u8 = 4;
const OP_SET_OUTPUT_OFFSET: u8 = 5;
const OP_SET_ACTIVATION: u8 = 6;
const OP_SET_INPUT_OFFSET: u8 = 7;
const OP_POSTPROC: u8 = 8;
const OP_WRITE_FILTER: u8 = 16;
const OP_READ_FILTER: u8 = 17;
const OP_WRITE_INPUT: u8 = 18;
const OP_READ_INPUT: u8 = 19;
const OP_MAC4: u8 = 20;
const OP_TAKE_ACC: u8 = 21;
const OP_REWIND: u8 = 22;
const OP_RUN1: u8 = 24;
const OP_RUN4: u8 = 25;

/// Typed op constructors so kernels don't hand-roll funct7 numbers.
pub mod ops {
    use super::*;

    /// Clear all CFU state.
    pub const RESET: CfuOp = op(OP_RESET);
    /// Set input-vector length in 4-byte words.
    pub const SET_DEPTH_WORDS: CfuOp = op(OP_SET_DEPTH_WORDS);
    /// Append a per-channel bias.
    pub const PUSH_BIAS: CfuOp = op(OP_PUSH_BIAS);
    /// Append a per-channel Q31 multiplier.
    pub const PUSH_MULTIPLIER: CfuOp = op(OP_PUSH_MULTIPLIER);
    /// Append a per-channel shift.
    pub const PUSH_SHIFT: CfuOp = op(OP_PUSH_SHIFT);
    /// Set the output zero point.
    pub const SET_OUTPUT_OFFSET: CfuOp = op(OP_SET_OUTPUT_OFFSET);
    /// Set the activation clamp range (rs1 = min, rs2 = max).
    pub const SET_ACTIVATION: CfuOp = op(OP_SET_ACTIVATION);
    /// Set the input offset added to activation lanes.
    pub const SET_INPUT_OFFSET: CfuOp = op(OP_SET_INPUT_OFFSET);
    /// Post-process one accumulator (rs1).
    pub const POSTPROC: CfuOp = op(OP_POSTPROC);
    /// Append a packed filter word.
    pub const WRITE_FILTER: CfuOp = op(OP_WRITE_FILTER);
    /// Read filter word rs1.
    pub const READ_FILTER: CfuOp = op(OP_READ_FILTER);
    /// Append a packed input word.
    pub const WRITE_INPUT: CfuOp = op(OP_WRITE_INPUT);
    /// Read input word rs1.
    pub const READ_INPUT: CfuOp = op(OP_READ_INPUT);
    /// Explicit 4-lane MAC of rs1 (inputs) and rs2 (filters).
    pub const MAC4: CfuOp = op(OP_MAC4);
    /// Read and clear the accumulator.
    pub const TAKE_ACC: CfuOp = op(OP_TAKE_ACC);
    /// Rewind input/filter/channel cursors for a new output pixel.
    pub const REWIND: CfuOp = op(OP_REWIND);
    /// Dot product of the input buffer with the next filter row.
    pub const RUN1: CfuOp = op(OP_RUN1);
    /// Four `RUN1`s with packed int8 results.
    pub const RUN4: CfuOp = op(OP_RUN4);

    const fn op(funct7: u8) -> CfuOp {
        CfuOp::from_parts(funct7, 0)
    }
}

/// The MobileNetV2 1x1-convolution CFU at a chosen ladder stage.
#[derive(Debug, Clone)]
pub struct Cfu1 {
    stage: Cfu1Stage,
    depth_words: u32,
    filters: Scratchpad,
    inputs: Scratchpad,
    mac: MacArray,
    post: PostProcessor,
    /// Index of the next filter row `RUN1`/`RUN4` consumes.
    run_channel: usize,
    /// Per-channel parameter staging (biases arrive before multipliers).
    staged_bias: Vec<i32>,
    staged_mult: Vec<i32>,
    staged_shift: Vec<i32>,
}

impl Cfu1 {
    /// Creates the CFU at `stage`.
    pub fn new(stage: Cfu1Stage) -> Self {
        Cfu1 {
            stage,
            depth_words: 0,
            filters: Scratchpad::new(FILTER_WORDS),
            inputs: Scratchpad::new(INPUT_WORDS),
            mac: MacArray::new(4),
            post: PostProcessor::new(),
            run_channel: 0,
            staged_bias: Vec::new(),
            staged_mult: Vec::new(),
            staged_shift: Vec::new(),
        }
    }

    /// The fully-grown design (`Overlap input`) the paper calls **CFU1**
    /// in the design-space exploration.
    pub fn full() -> Self {
        Cfu1::new(Cfu1Stage::OverlapInput)
    }

    /// The configured ladder stage.
    pub fn stage(&self) -> Cfu1Stage {
        self.stage
    }

    fn require(&self, op: CfuOp, needed: Cfu1Stage) -> Result<(), CfuError> {
        if self.stage >= needed {
            Ok(())
        } else {
            Err(CfuError::UnsupportedOp { op, cfu: format!("cfu1[{}]", self.stage.label()) })
        }
    }

    /// Appends the channels whose bias, multiplier and shift have all
    /// been staged since the last push, and rewinds the channel cursor.
    fn extend_post_table(&mut self) {
        let n = self.staged_bias.len().min(self.staged_mult.len()).min(self.staged_shift.len());
        for i in self.post.channels()..n {
            self.post.push_channel(ChannelParams {
                bias: self.staged_bias[i],
                multiplier: self.staged_mult[i],
                shift: self.staged_shift[i],
            });
        }
        self.post.rewind();
    }

    /// One full dot product of the input buffer against filter row
    /// `self.run_channel`. Returns (raw accumulator, cycles).
    fn run_one(&mut self) -> (i32, u32) {
        let words = self.depth_words as usize;
        let base = self.run_channel * words;
        let mut acc = self.mac.take();
        for w in 0..words {
            let inp = self.inputs.read(w % INPUT_WORDS.max(1));
            let filt = self.filters.read((base + w) % FILTER_WORDS);
            self.mac.set_acc(acc);
            acc = self.mac.mac(inp, filt);
        }
        self.mac.take();
        self.run_channel += 1;
        // The filter and input scratchpads are single-ported BRAMs, so
        // the sequencer alternates filter/input reads: one MAC4 every two
        // cycles — 0.5 cycles per MAC, the paper's "less than one cycle
        // per MAC". Start-up is charged once per response by the RUN ops.
        (acc, 2 * words as u32)
    }

    fn postproc_value(&mut self, acc: i32) -> i32 {
        self.post.process(acc)
    }
}

impl Cfu for Cfu1 {
    fn name(&self) -> &str {
        "cfu1-mnv2"
    }

    fn execute(&mut self, op: CfuOp, rs1: u32, rs2: u32) -> Result<CfuResponse, CfuError> {
        use Cfu1Stage as S;
        if op.funct3() != 0 {
            return Err(CfuError::UnsupportedOp { op, cfu: self.name().to_owned() });
        }
        match op.funct7() {
            OP_RESET => {
                self.reset_state();
                Ok(CfuResponse::single(0))
            }
            OP_SET_DEPTH_WORDS => {
                if rs1 as usize > INPUT_WORDS {
                    return Err(CfuError::Protocol {
                        op,
                        reason: format!("depth {rs1} words exceeds input buffer ({INPUT_WORDS})"),
                    });
                }
                self.depth_words = rs1;
                Ok(CfuResponse::single(0))
            }
            OP_PUSH_BIAS => {
                self.staged_bias.push(rs1 as i32);
                self.extend_post_table();
                Ok(CfuResponse::single(0))
            }
            OP_PUSH_MULTIPLIER => {
                self.staged_mult.push(rs1 as i32);
                self.extend_post_table();
                Ok(CfuResponse::single(0))
            }
            OP_PUSH_SHIFT => {
                self.staged_shift.push(rs1 as i32);
                self.extend_post_table();
                Ok(CfuResponse::single(0))
            }
            OP_SET_OUTPUT_OFFSET => {
                self.post.set_output_offset(rs1 as i32);
                Ok(CfuResponse::single(0))
            }
            OP_SET_ACTIVATION => {
                self.post.set_activation_range(rs1 as i32, rs2 as i32);
                Ok(CfuResponse::single(0))
            }
            OP_SET_INPUT_OFFSET => {
                self.mac.set_input_offset(rs1 as i32);
                Ok(CfuResponse::single(0))
            }
            OP_POSTPROC => {
                if self.post.channels() == 0 {
                    return Err(CfuError::Protocol {
                        op,
                        reason: "no channel parameters loaded".into(),
                    });
                }
                let v = self.postproc_value(rs1 as i32);
                Ok(CfuResponse::single(v as u32))
            }
            OP_WRITE_FILTER => {
                self.require(op, S::HoldFilter)?;
                self.filters.push(rs1);
                Ok(CfuResponse::single(0))
            }
            OP_READ_FILTER => {
                self.require(op, S::HoldFilter)?;
                Ok(CfuResponse::single(self.filters.read(rs1 as usize % FILTER_WORDS)))
            }
            OP_WRITE_INPUT => {
                self.require(op, S::HoldInput)?;
                self.inputs.push(rs1);
                Ok(CfuResponse::single(0))
            }
            OP_READ_INPUT => {
                self.require(op, S::HoldInput)?;
                Ok(CfuResponse::single(self.inputs.read(rs1 as usize % INPUT_WORDS)))
            }
            OP_MAC4 => {
                self.require(op, S::Mac4)?;
                Ok(CfuResponse::single(self.mac.mac(rs1, rs2) as u32))
            }
            OP_TAKE_ACC => {
                self.require(op, S::Mac4)?;
                Ok(CfuResponse::single(self.mac.take() as u32))
            }
            OP_REWIND => {
                // Rewinding cursors is cheap control logic, available as
                // soon as the CFU exists at all.
                self.require(op, S::PostProc)?;
                self.inputs.rewind();
                self.run_channel = 0;
                self.post.rewind();
                self.mac.take();
                Ok(CfuResponse::single(0))
            }
            OP_RUN1 => {
                self.require(op, S::Mac4Run1)?;
                let (acc, cycles) = self.run_one();
                let cycles = cycles + 2; // sequencer start-up + drain
                let value = if self.stage >= S::InclPostproc {
                    if self.post.channels() == 0 {
                        return Err(CfuError::Protocol {
                            op,
                            reason: "no channel parameters loaded".into(),
                        });
                    }
                    self.postproc_value(acc) as u32
                } else {
                    acc as u32
                };
                Ok(CfuResponse::multi(value, cycles))
            }
            OP_RUN4 => {
                self.require(op, S::Mac4Run4)?;
                if self.post.channels() == 0 {
                    return Err(CfuError::Protocol {
                        op,
                        reason: "no channel parameters loaded".into(),
                    });
                }
                let mut packed = [0u8; 4];
                let mut cycles = 2; // one sequencer start-up for all four
                for out in &mut packed {
                    let (acc, c) = self.run_one();
                    cycles += c;
                    *out = (self.postproc_value(acc) as i8) as u8;
                }
                // At the OverlapInput stage the *input loading* for the
                // next pixel hides under this latency (double-buffered
                // input bank); the hiding is modelled where the loads are
                // issued, in the kernel.
                let _ = rs2;
                Ok(CfuResponse::multi(u32::from_le_bytes(packed), cycles))
            }
            _ => Err(CfuError::UnsupportedOp { op, cfu: self.name().to_owned() }),
        }
    }

    fn reset(&mut self) {
        self.reset_state();
    }

    fn resources(&self) -> Resources {
        use Cfu1Stage as S;
        // Interface shim (decode, result mux) present at every stage.
        let mut r = Resources { luts: 140, ffs: 110, brams: 0, dsps: 0 };
        r += self.post.resources();
        if self.stage >= S::HoldFilter {
            r += self.filters.resources();
        }
        if self.stage >= S::HoldInput {
            r += self.inputs.resources();
            // CPU-facing unpack/read mux (removed again later).
            if self.stage < S::InclPostproc {
                r += Resources::luts(180);
            }
        }
        if self.stage >= S::Mac4 {
            r += self.mac.resources();
        }
        if self.stage >= S::Mac4Run1 {
            r += Resources { luts: 210, ffs: 140, brams: 0, dsps: 0 }; // sequencer
        }
        if self.stage >= S::InclPostproc {
            // Integration removes the accumulator read-back path.
            r = r.saturating_sub(&Resources::luts(120));
        }
        if self.stage >= S::Mac4Run4 {
            r += Resources { luts: 90, ffs: 48, brams: 0, dsps: 0 }; // output packer
        }
        if self.stage >= S::OverlapInput {
            r += Resources { luts: 70, ffs: 40, brams: 2, dsps: 0 }; // 2nd input bank
        }
        r
    }

    fn supports(&self, op: CfuOp) -> bool {
        use Cfu1Stage as S;
        if op.funct3() != 0 {
            return false;
        }
        let needed = match op.funct7() {
            OP_RESET..=OP_POSTPROC | OP_REWIND => S::PostProc,
            OP_WRITE_FILTER | OP_READ_FILTER => S::HoldFilter,
            OP_WRITE_INPUT | OP_READ_INPUT => S::HoldInput,
            OP_MAC4 | OP_TAKE_ACC => S::Mac4,
            OP_RUN1 => S::Mac4Run1,
            OP_RUN4 => S::Mac4Run4,
            _ => return false,
        };
        self.stage >= needed
    }
}

impl Cfu1 {
    fn reset_state(&mut self) {
        self.depth_words = 0;
        self.filters.reset();
        self.inputs.reset();
        self.mac.reset();
        self.post.reset();
        self.run_channel = 0;
        self.staged_bias.clear();
        self.staged_mult.clear();
        self.staged_shift.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{self, pack_i8x4};

    fn exec(cfu: &mut Cfu1, op: CfuOp, rs1: u32, rs2: u32) -> u32 {
        cfu.execute(op, rs1, rs2).unwrap().value
    }

    /// Loads a 2-channel, 8-input-deep layer and checks RUN4-free paths.
    fn load_layer(cfu: &mut Cfu1, scale: f64) {
        let (m, s) = arith::quantize_multiplier(scale);
        exec(cfu, ops::SET_DEPTH_WORDS, 2, 0); // 8 input channels
        for _ in 0..4 {
            exec(cfu, ops::PUSH_BIAS, 100u32, 0);
            exec(cfu, ops::PUSH_MULTIPLIER, m as u32, 0);
            exec(cfu, ops::PUSH_SHIFT, s as u32, 0);
        }
        exec(cfu, ops::SET_OUTPUT_OFFSET, 0, 0);
        exec(cfu, ops::SET_ACTIVATION, (-128i32) as u32, 127);
        exec(cfu, ops::SET_INPUT_OFFSET, 0, 0);
    }

    #[test]
    fn post_table_matches_a_rebuild_from_scratch() {
        // The reference rebuilds the table from every staged channel on
        // each push, as the CFU once did.
        #[derive(Default)]
        struct Rebuilt {
            staged: [Vec<i32>; 3],
            post: PostProcessor,
        }
        impl Rebuilt {
            fn push(&mut self, which: usize, v: i32) {
                self.staged[which].push(v);
                self.post.clear();
                let [b, m, s] = &self.staged;
                for ((&bias, &multiplier), &shift) in b.iter().zip(m).zip(s) {
                    self.post.push_channel(ChannelParams { bias, multiplier, shift });
                }
            }
        }
        let push = [ops::PUSH_BIAS, ops::PUSH_MULTIPLIER, ops::PUSH_SHIFT];
        let mut seed = 0x2545_f491_u32;
        for _ in 0..20 {
            let mut cfu = Cfu1::full();
            let mut reference = Rebuilt::default();
            for _ in 0..400 {
                seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let v = seed.rotate_left(13) as i32 >> (seed & 15);
                let (op, expected) = match seed >> 28 {
                    0..=8 => {
                        let which = (seed >> 28) as usize % 3;
                        reference.push(which, v);
                        (push[which], Some(0))
                    }
                    9..=12 => {
                        let expected = (reference.post.channels() > 0)
                            .then(|| reference.post.process(v) as u32);
                        (ops::POSTPROC, expected)
                    }
                    13 | 14 => {
                        reference.post.rewind();
                        (ops::REWIND, Some(0))
                    }
                    _ => {
                        reference = Rebuilt::default();
                        (ops::RESET, Some(0))
                    }
                };
                let got = cfu.execute(op, v as u32, 0).ok().map(|r| r.value);
                assert_eq!(got, expected, "{op:?} {v}");
                assert_eq!(cfu.post.channels(), reference.post.channels());
            }
        }
    }

    #[test]
    fn postproc_matches_blocks_pipeline() {
        let mut cfu = Cfu1::new(Cfu1Stage::PostProc);
        load_layer(&mut cfu, 0.5);
        // (100 + 100) * 0.5 = 100
        assert_eq!(exec(&mut cfu, ops::POSTPROC, 100, 0) as i32, 100);
    }

    #[test]
    fn stage_gating_rejects_future_ops() {
        let mut cfu = Cfu1::new(Cfu1Stage::PostProc);
        assert!(matches!(
            cfu.execute(ops::WRITE_FILTER, 0, 0),
            Err(CfuError::UnsupportedOp { .. })
        ));
        assert!(!cfu.supports(ops::RUN4));
        assert!(cfu.supports(ops::POSTPROC));
        let full = Cfu1::full();
        assert!(full.supports(ops::RUN4));
    }

    #[test]
    fn mac4_accumulates_with_offset() {
        let mut cfu = Cfu1::new(Cfu1Stage::Mac4);
        exec(&mut cfu, ops::SET_INPUT_OFFSET, 128, 0);
        let a = pack_i8x4([-128, 0, 1, 2]);
        let f = pack_i8x4([1, 2, 3, 4]);
        let r = exec(&mut cfu, ops::MAC4, a, f) as i32;
        assert_eq!(r, arith::dot4_offset(a, f, 128));
        let taken = exec(&mut cfu, ops::TAKE_ACC, 0, 0) as i32;
        assert_eq!(taken, r);
        assert_eq!(exec(&mut cfu, ops::TAKE_ACC, 0, 0), 0);
    }

    #[test]
    fn run1_equals_explicit_mac_loop() {
        let mut cfu = Cfu1::new(Cfu1Stage::Mac4Run1);
        load_layer(&mut cfu, 1.0);
        let inputs = [pack_i8x4([1, 2, 3, 4]), pack_i8x4([5, 6, 7, 8])];
        let filt_c0 = [pack_i8x4([1, 1, 1, 1]), pack_i8x4([2, 2, 2, 2])];
        let filt_c1 = [pack_i8x4([-1, -1, -1, -1]), pack_i8x4([1, 0, 0, 0])];
        for w in filt_c0.iter().chain(&filt_c1) {
            exec(&mut cfu, ops::WRITE_FILTER, *w, 0);
        }
        for w in inputs {
            exec(&mut cfu, ops::WRITE_INPUT, w, 0);
        }
        let r0 = exec(&mut cfu, ops::RUN1, 0, 0) as i32;
        let expect0 = arith::dot4(inputs[0], filt_c0[0]) + arith::dot4(inputs[1], filt_c0[1]);
        assert_eq!(r0, expect0);
        let r1 = exec(&mut cfu, ops::RUN1, 0, 0) as i32;
        let expect1 = arith::dot4(inputs[0], filt_c1[0]) + arith::dot4(inputs[1], filt_c1[1]);
        assert_eq!(r1, expect1);
    }

    #[test]
    fn run1_latency_tracks_depth() {
        let mut cfu = Cfu1::new(Cfu1Stage::Mac4Run1);
        load_layer(&mut cfu, 1.0);
        for _ in 0..2 {
            exec(&mut cfu, ops::WRITE_INPUT, 0, 0);
            exec(&mut cfu, ops::WRITE_FILTER, 0, 0);
        }
        let resp = cfu.execute(ops::RUN1, 0, 0).unwrap();
        assert_eq!(resp.latency, 2 * 2 + 2);
    }

    #[test]
    fn incl_postproc_returns_processed_value() {
        let mut raw = Cfu1::new(Cfu1Stage::Mac4Run1);
        let mut fused = Cfu1::new(Cfu1Stage::InclPostproc);
        for cfu in [&mut raw, &mut fused] {
            load_layer(cfu, 0.5);
            exec(cfu, ops::WRITE_INPUT, pack_i8x4([10, 10, 10, 10]), 0);
            exec(cfu, ops::WRITE_INPUT, pack_i8x4([10, 10, 10, 10]), 0);
            for _ in 0..2 {
                exec(cfu, ops::WRITE_FILTER, pack_i8x4([1, 1, 1, 1]), 0);
            }
        }
        let acc = exec(&mut raw, ops::RUN1, 0, 0) as i32;
        assert_eq!(acc, 80);
        let processed = exec(&mut fused, ops::RUN1, 0, 0) as i32;
        assert_eq!(processed, (80 + 100) / 2); // (acc + bias) * 0.5
    }

    #[test]
    fn run4_packs_four_channels() {
        let mut cfu = Cfu1::new(Cfu1Stage::Mac4Run4);
        load_layer(&mut cfu, 1.0);
        exec(&mut cfu, ops::WRITE_INPUT, pack_i8x4([1, 0, 0, 0]), 0);
        exec(&mut cfu, ops::WRITE_INPUT, pack_i8x4([0, 0, 0, 0]), 0);
        // Four filter rows picking out multiples of the first input lane.
        for c in 0..4i8 {
            exec(&mut cfu, ops::WRITE_FILTER, pack_i8x4([c, 0, 0, 0]), 0);
            exec(&mut cfu, ops::WRITE_FILTER, 0, 0);
        }
        // bias=100, scale 1.0 → clamp(c*1 + 100) = 100..103
        let packed = exec(&mut cfu, ops::RUN4, 0, 0);
        assert_eq!(arith::unpack_i8x4(packed), [100, 101, 102, 103]);
    }

    #[test]
    fn run4_latency_streams_channels() {
        // Four channels back to back: 4 * depth_words + one start-up.
        let mut cfu = Cfu1::new(Cfu1Stage::Mac4Run4);
        load_layer(&mut cfu, 1.0);
        for _ in 0..2 {
            exec(&mut cfu, ops::WRITE_INPUT, 0, 0);
        }
        for _ in 0..8 {
            exec(&mut cfu, ops::WRITE_FILTER, 0, 0);
        }
        let latency = cfu.execute(ops::RUN4, 0, 0).unwrap().latency;
        assert_eq!(latency, 4 * (2 * 2) + 2);
        // The overlap stage has the same response latency; the win is the
        // hidden input loading, modelled in the kernels.
        let mut overlap = Cfu1::new(Cfu1Stage::OverlapInput);
        load_layer(&mut overlap, 1.0);
        for _ in 0..2 {
            exec(&mut overlap, ops::WRITE_INPUT, 0, 0);
        }
        for _ in 0..8 {
            exec(&mut overlap, ops::WRITE_FILTER, 0, 0);
        }
        assert_eq!(overlap.execute(ops::RUN4, 0, 0).unwrap().latency, latency);
    }

    #[test]
    fn rewind_restarts_pixel() {
        let mut cfu = Cfu1::new(Cfu1Stage::Mac4Run1);
        load_layer(&mut cfu, 1.0);
        exec(&mut cfu, ops::WRITE_INPUT, pack_i8x4([1, 1, 1, 1]), 0);
        exec(&mut cfu, ops::WRITE_INPUT, pack_i8x4([1, 1, 1, 1]), 0);
        for _ in 0..2 {
            exec(&mut cfu, ops::WRITE_FILTER, pack_i8x4([3, 3, 3, 3]), 0);
        }
        let first = exec(&mut cfu, ops::RUN1, 0, 0);
        exec(&mut cfu, ops::REWIND, 0, 0);
        let again = exec(&mut cfu, ops::RUN1, 0, 0);
        assert_eq!(first, again);
    }

    #[test]
    fn resource_ladder_peaks_midway_and_descends() {
        let usage: Vec<u32> =
            Cfu1Stage::ALL.iter().map(|&s| Cfu1::new(s).resources().luts).collect();
        let peak_idx = usage.iter().enumerate().max_by_key(|(_, v)| **v).unwrap().0;
        assert!((2..=5).contains(&peak_idx), "peak at step {peak_idx}: {usage:?}");
        // Resource usage must dip after integration (InclPostproc < peak).
        assert!(usage[5] < usage[peak_idx] || usage[6] < usage[4], "{usage:?}");
        // DSPs appear exactly when the MAC array does.
        assert_eq!(Cfu1::new(Cfu1Stage::HoldInput).resources().dsps, 0);
        assert_eq!(Cfu1::new(Cfu1Stage::Mac4).resources().dsps, 4);
    }

    #[test]
    fn depth_overflow_is_protocol_error() {
        let mut cfu = Cfu1::full();
        let err = cfu.execute(ops::SET_DEPTH_WORDS, INPUT_WORDS as u32 + 1, 0).unwrap_err();
        assert!(matches!(err, CfuError::Protocol { .. }));
    }

    #[test]
    fn reset_clears_everything() {
        let mut cfu = Cfu1::full();
        load_layer(&mut cfu, 1.0);
        exec(&mut cfu, ops::WRITE_INPUT, 7, 0);
        cfu.reset();
        assert!(cfu.execute(ops::POSTPROC, 0, 0).is_err()); // params gone
    }
}
