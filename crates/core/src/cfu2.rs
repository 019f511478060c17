//! CFU2: the Keyword-Spotting SIMD MAC + post-processing CFU (§III-B).
//!
//! Fomu's iCE40UP5k leaves almost no headroom — the KWS CFU is therefore
//! deliberately small: a 4-way multiply-accumulate using the four DSP
//! tiles left after the CPU took the other four for single-cycle
//! multiplication, a single-lane mode reused by depthwise convolution
//! ("there were no remaining resources to extend the CFU" with separate
//! depthwise gateware), and a register-based accumulator post-processing
//! unit built from leftover logic cells (the `Post Proc` step, "14×
//! faster" than the software requantization).
//!
//! Unlike [`Cfu1`](crate::cfu1::Cfu1) there are no buffers or parameter
//! tables: the CPU streams operands every cycle and re-programs the
//! post-processing registers per output channel.
//!
//! Op map (all on `funct3 = 0`):
//!
//! | funct7 | op | meaning |
//! |-------:|----|---------|
//! | 0 | `RESET`             | clear accumulator and registers |
//! | 1 | `SET_INPUT_OFFSET`  | activation offset for MAC lanes |
//! | 2 | `MAC4`              | acc += Σ (in\[i\]+off) · filt\[i\], 4 lanes |
//! | 3 | `MAC1`              | acc += (rs1+off) · rs2, one lane (depthwise) |
//! | 4 | `TAKE_ACC`          | read accumulator and clear |
//! | 5 | `SET_BIAS`          | post-processing bias register |
//! | 6 | `SET_MULTIPLIER`    | post-processing Q31 multiplier register |
//! | 7 | `SET_SHIFT`         | post-processing shift register |
//! | 8 | `SET_OUTPUT_OFFSET` | output zero point |
//! | 9 | `SET_ACTIVATION`    | clamp range (rs1 = min, rs2 = max) |
//! | 10 | `POSTPROC`         | requantize + clamp rs1 |
//! | 11 | `MAC4_TAKE_POSTPROC` | acc += MAC4, then return postprocessed acc and clear |

use crate::arith;
use crate::blocks::{ChannelParams, MacArray, PostProcessor};
use crate::interface::{Cfu, CfuError, CfuOp, CfuResponse};
use crate::resources::Resources;

const OP_RESET: u8 = 0;
const OP_SET_INPUT_OFFSET: u8 = 1;
const OP_MAC4: u8 = 2;
const OP_MAC1: u8 = 3;
const OP_TAKE_ACC: u8 = 4;
const OP_SET_BIAS: u8 = 5;
const OP_SET_MULTIPLIER: u8 = 6;
const OP_SET_SHIFT: u8 = 7;
const OP_SET_OUTPUT_OFFSET: u8 = 8;
const OP_SET_ACTIVATION: u8 = 9;
const OP_POSTPROC: u8 = 10;
const OP_MAC4_TAKE_POSTPROC: u8 = 11;

/// Typed op constructors for the KWS CFU.
pub mod ops {
    use super::*;

    /// Clear accumulator and all registers.
    pub const RESET: CfuOp = CfuOp::from_parts(OP_RESET, 0);
    /// Set the activation offset added to each input lane.
    pub const SET_INPUT_OFFSET: CfuOp = CfuOp::from_parts(OP_SET_INPUT_OFFSET, 0);
    /// 4-lane multiply accumulate of packed rs1 (inputs) and rs2 (filters).
    pub const MAC4: CfuOp = CfuOp::from_parts(OP_MAC4, 0);
    /// Single-lane multiply accumulate (depthwise fallback).
    pub const MAC1: CfuOp = CfuOp::from_parts(OP_MAC1, 0);
    /// Read and clear the accumulator.
    pub const TAKE_ACC: CfuOp = CfuOp::from_parts(OP_TAKE_ACC, 0);
    /// Set the post-processing bias register.
    pub const SET_BIAS: CfuOp = CfuOp::from_parts(OP_SET_BIAS, 0);
    /// Set the post-processing Q31 multiplier register.
    pub const SET_MULTIPLIER: CfuOp = CfuOp::from_parts(OP_SET_MULTIPLIER, 0);
    /// Set the post-processing shift register.
    pub const SET_SHIFT: CfuOp = CfuOp::from_parts(OP_SET_SHIFT, 0);
    /// Set the output zero point.
    pub const SET_OUTPUT_OFFSET: CfuOp = CfuOp::from_parts(OP_SET_OUTPUT_OFFSET, 0);
    /// Set the activation clamp range (rs1 = min, rs2 = max).
    pub const SET_ACTIVATION: CfuOp = CfuOp::from_parts(OP_SET_ACTIVATION, 0);
    /// Requantize and clamp rs1 with the current registers.
    pub const POSTPROC: CfuOp = CfuOp::from_parts(OP_POSTPROC, 0);
    /// Fused final MAC4 + postprocess + accumulator clear.
    pub const MAC4_TAKE_POSTPROC: CfuOp = CfuOp::from_parts(OP_MAC4_TAKE_POSTPROC, 0);
}

/// The Keyword-Spotting CFU: 4-way SIMD MAC plus register-based
/// accumulator post-processing.
#[derive(Debug, Clone)]
pub struct Cfu2 {
    mac: MacArray,
    post: PostProcessor,
    params: ChannelParams,
    /// Whether the post-processing extension is built (it is optional:
    /// the `MAC Conv` ladder step predates it).
    with_postproc: bool,
}

impl Default for Cfu2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Cfu2 {
    /// The full design: SIMD MAC and post-processing.
    pub fn new() -> Self {
        Cfu2 {
            mac: MacArray::new(4),
            post: PostProcessor::new(),
            params: ChannelParams::default(),
            with_postproc: true,
        }
    }

    /// The intermediate `MAC Conv` design without the post-processing
    /// extension (post-processing ops report `UnsupportedOp`).
    pub fn mac_only() -> Self {
        Cfu2 { with_postproc: false, ..Cfu2::new() }
    }

    fn postproc(&self, acc: i32) -> i32 {
        self.post.process_with(acc, self.params)
    }

    fn require_postproc(&self, op: CfuOp) -> Result<(), CfuError> {
        if self.with_postproc {
            Ok(())
        } else {
            Err(CfuError::UnsupportedOp { op, cfu: "cfu2[mac-only]".to_owned() })
        }
    }
}

impl Cfu for Cfu2 {
    fn name(&self) -> &str {
        "cfu2-kws"
    }

    fn execute(&mut self, op: CfuOp, rs1: u32, rs2: u32) -> Result<CfuResponse, CfuError> {
        if op.funct3() != 0 {
            return Err(CfuError::UnsupportedOp { op, cfu: self.name().to_owned() });
        }
        match op.funct7() {
            OP_RESET => {
                self.reset();
                Ok(CfuResponse::single(0))
            }
            OP_SET_INPUT_OFFSET => {
                self.mac.set_input_offset(rs1 as i32);
                Ok(CfuResponse::single(0))
            }
            OP_MAC4 => Ok(CfuResponse::single(self.mac.mac(rs1, rs2) as u32)),
            OP_MAC1 => Ok(CfuResponse::single(self.mac.mac_single(rs1 as i32, rs2 as i32) as u32)),
            OP_TAKE_ACC => Ok(CfuResponse::single(self.mac.take() as u32)),
            OP_SET_BIAS => {
                self.require_postproc(op)?;
                self.params.bias = rs1 as i32;
                Ok(CfuResponse::single(0))
            }
            OP_SET_MULTIPLIER => {
                self.require_postproc(op)?;
                self.params.multiplier = rs1 as i32;
                Ok(CfuResponse::single(0))
            }
            OP_SET_SHIFT => {
                self.require_postproc(op)?;
                self.params.shift = rs1 as i32;
                Ok(CfuResponse::single(0))
            }
            OP_SET_OUTPUT_OFFSET => {
                self.require_postproc(op)?;
                self.post.set_output_offset(rs1 as i32);
                Ok(CfuResponse::single(0))
            }
            OP_SET_ACTIVATION => {
                self.require_postproc(op)?;
                self.post.set_activation_range(rs1 as i32, rs2 as i32);
                Ok(CfuResponse::single(0))
            }
            OP_POSTPROC => {
                self.require_postproc(op)?;
                Ok(CfuResponse::single(self.postproc(rs1 as i32) as u32))
            }
            OP_MAC4_TAKE_POSTPROC => {
                self.require_postproc(op)?;
                self.mac.mac(rs1, rs2);
                let acc = self.mac.take();
                Ok(CfuResponse::single(self.postproc(acc) as u32))
            }
            _ => Err(CfuError::UnsupportedOp { op, cfu: self.name().to_owned() }),
        }
    }

    fn reset(&mut self) {
        self.mac.reset();
        self.post.reset();
        self.params = ChannelParams::default();
    }

    fn resources(&self) -> Resources {
        // Interface shim + 4 DSP MAC; postproc is register-based (no BRAM):
        // requantizer datapath only.
        let mut r = Resources { luts: 90, ffs: 70, brams: 0, dsps: 0 };
        r += self.mac.resources();
        if self.with_postproc {
            r += Resources { luts: 340, ffs: 128, brams: 0, dsps: 0 };
        }
        r
    }

    fn supports(&self, op: CfuOp) -> bool {
        if op.funct3() != 0 {
            return false;
        }
        match op.funct7() {
            OP_RESET..=OP_TAKE_ACC => true,
            OP_SET_BIAS..=OP_MAC4_TAKE_POSTPROC => self.with_postproc,
            _ => false,
        }
    }
}

/// Builds the reference software emulation of CFU2, for the
/// [`emu`](crate::emu) comparison flow. Functionally identical by
/// construction of shared arithmetic, but maintained as independent code
/// so divergence tests mean something.
pub fn software_emulation() -> impl Cfu {
    #[derive(Debug, Default)]
    struct State {
        acc: i64,
        input_offset: i32,
        bias: i32,
        multiplier: i32,
        shift: i32,
        output_offset: i32,
        act_min: i32,
        act_max: i32,
    }
    let mut st = State { act_min: -128, act_max: 127, ..State::default() };
    crate::emu::SwCfuFallible::new("cfu2-emu", move |op: CfuOp, rs1: u32, rs2: u32| {
        let post = |st: &State, acc: i32| -> i32 {
            let scaled = arith::multiply_by_quantized_multiplier(
                acc.wrapping_add(st.bias),
                st.multiplier,
                st.shift,
            );
            arith::clamp_activation(scaled.wrapping_add(st.output_offset), st.act_min, st.act_max)
        };
        Ok(match op.funct7() {
            OP_RESET => {
                st = State { act_min: -128, act_max: 127, ..State::default() };
                0
            }
            OP_SET_INPUT_OFFSET => {
                st.input_offset = rs1 as i32;
                0
            }
            OP_MAC4 => {
                st.acc =
                    st.acc.wrapping_add(i64::from(arith::dot4_offset(rs1, rs2, st.input_offset)));
                st.acc as u32
            }
            OP_MAC1 => {
                st.acc = st.acc.wrapping_add(i64::from(
                    (rs1 as i32).wrapping_add(st.input_offset).wrapping_mul(rs2 as i32),
                ));
                st.acc as u32
            }
            OP_TAKE_ACC => {
                let v = st.acc as u32;
                st.acc = 0;
                v
            }
            OP_SET_BIAS => {
                st.bias = rs1 as i32;
                0
            }
            OP_SET_MULTIPLIER => {
                st.multiplier = rs1 as i32;
                0
            }
            OP_SET_SHIFT => {
                st.shift = rs1 as i32;
                0
            }
            OP_SET_OUTPUT_OFFSET => {
                st.output_offset = rs1 as i32;
                0
            }
            OP_SET_ACTIVATION => {
                st.act_min = rs1 as i32;
                st.act_max = rs2 as i32;
                0
            }
            OP_POSTPROC => post(&st, rs1 as i32) as u32,
            OP_MAC4_TAKE_POSTPROC => {
                st.acc =
                    st.acc.wrapping_add(i64::from(arith::dot4_offset(rs1, rs2, st.input_offset)));
                let acc = st.acc as i32;
                st.acc = 0;
                post(&st, acc) as u32
            }
            other => {
                return Err(CfuError::UnsupportedOp {
                    op: CfuOp::from_parts(other, op.funct3()),
                    cfu: "cfu2-emu".to_owned(),
                })
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{pack_i8x4, quantize_multiplier};
    use crate::verify::{equivalence_check, OpStream};

    fn exec(cfu: &mut Cfu2, op: CfuOp, rs1: u32, rs2: u32) -> u32 {
        cfu.execute(op, rs1, rs2).unwrap().value
    }

    #[test]
    fn mac4_and_take() {
        let mut cfu = Cfu2::new();
        exec(&mut cfu, ops::SET_INPUT_OFFSET, 128, 0);
        let a = pack_i8x4([-128, -1, 0, 1]);
        let f = pack_i8x4([2, 2, 2, 2]);
        let r = exec(&mut cfu, ops::MAC4, a, f) as i32;
        assert_eq!(r, arith::dot4_offset(a, f, 128));
        assert_eq!(exec(&mut cfu, ops::TAKE_ACC, 0, 0) as i32, r);
        assert_eq!(exec(&mut cfu, ops::TAKE_ACC, 0, 0), 0);
    }

    #[test]
    fn single_lane_for_depthwise() {
        let mut cfu = Cfu2::new();
        exec(&mut cfu, ops::SET_INPUT_OFFSET, 10, 0);
        let r = exec(&mut cfu, ops::MAC1, 5, (-3i32) as u32) as i32;
        assert_eq!(r, (5 + 10) * -3);
    }

    #[test]
    fn postproc_matches_reference_arith() {
        let mut cfu = Cfu2::new();
        let (m, s) = quantize_multiplier(0.25);
        exec(&mut cfu, ops::SET_BIAS, 20, 0);
        exec(&mut cfu, ops::SET_MULTIPLIER, m as u32, 0);
        exec(&mut cfu, ops::SET_SHIFT, s as u32, 0);
        exec(&mut cfu, ops::SET_OUTPUT_OFFSET, (-5i32) as u32, 0);
        exec(&mut cfu, ops::SET_ACTIVATION, (-128i32) as u32, 127);
        // (100 + 20) * 0.25 - 5 = 25
        assert_eq!(exec(&mut cfu, ops::POSTPROC, 100, 0) as i32, 25);
    }

    #[test]
    fn fused_mac_postproc() {
        let mut cfu = Cfu2::new();
        let (m, s) = quantize_multiplier(1.0);
        exec(&mut cfu, ops::SET_MULTIPLIER, m as u32, 0);
        exec(&mut cfu, ops::SET_SHIFT, s as u32, 0);
        exec(&mut cfu, ops::SET_ACTIVATION, (-128i32) as u32, 127);
        let a = pack_i8x4([1, 2, 3, 4]);
        let f = pack_i8x4([1, 1, 1, 1]);
        let v = exec(&mut cfu, ops::MAC4_TAKE_POSTPROC, a, f) as i32;
        assert_eq!(v, 10);
        // Accumulator was cleared by the fused op.
        assert_eq!(exec(&mut cfu, ops::TAKE_ACC, 0, 0), 0);
    }

    #[test]
    fn mac_only_variant_rejects_postproc() {
        let mut cfu = Cfu2::mac_only();
        assert!(cfu.execute(ops::POSTPROC, 0, 0).is_err());
        assert!(cfu.execute(ops::MAC4, 0, 0).is_ok());
        assert!(!cfu.supports(ops::SET_BIAS));
        assert!(cfu.supports(ops::MAC1));
    }

    #[test]
    fn resources_fit_fomu_budget() {
        // Fomu: 5280 LCs, 8 DSPs total; the CPU's fast multiplier takes 4.
        let r = Cfu2::new().resources();
        assert_eq!(r.dsps, 4);
        assert!(r.luts < 800, "CFU2 must stay small: {r}");
        assert_eq!(r.brams, 0, "no BRAM headroom on Fomu");
        let mac_only = Cfu2::mac_only().resources();
        assert!(mac_only.luts < r.luts);
    }

    #[test]
    fn hardware_model_matches_software_emulation() {
        // The paper's §II-E random CFU-level test, end to end.
        let mut hw = Cfu2::new();
        let mut emu = software_emulation();
        let all_ops: Vec<CfuOp> = (0u8..=11).map(|f| CfuOp::from_parts(f, 0)).collect();
        let stream = OpStream::random(2024, 3000, &all_ops);
        // Multiplier garbage can differ? No: both use the same arithmetic
        // on whatever registers hold. They must agree bit-for-bit.
        equivalence_check(&mut hw, &mut emu, &stream).unwrap();
    }

    #[test]
    fn reset_clears_state() {
        let mut cfu = Cfu2::new();
        exec(&mut cfu, ops::MAC1, 100, 100);
        cfu.reset();
        assert_eq!(exec(&mut cfu, ops::TAKE_ACC, 0, 0), 0);
    }
}
