//! RV32C: the compressed (16-bit) instruction extension.
//!
//! VexRiscv supports RVC and CFU Playground firmware is routinely built
//! with it — on an XIP-flash board, 16-bit parcels nearly halve the
//! fetch bandwidth of hot loops. This module decodes every RV32C
//! instruction into its 32-bit [`Inst`] expansion and compresses the
//! compressible subset back, so the simulator can execute mixed 16/32-bit
//! streams.
//!
//! A 16-bit parcel is compressed iff its low two bits are not `0b11`
//! ([`is_compressed`]).

// Binary literals below group digits by instruction *field* (funct3,
// rd/rs, opcode), mirroring the RVC encoding tables, not by nibble.
#![allow(clippy::unusual_byte_groupings)]

use crate::decode::DecodeError;
use crate::inst::Inst;
use crate::reg::Reg;

/// `true` when the parcel starting with `low16` is a 16-bit (compressed)
/// instruction rather than the start of a 32-bit one.
pub fn is_compressed(low16: u16) -> bool {
    low16 & 0b11 != 0b11
}

/// The "prime" register set `x8..x15` addressed by 3-bit fields.
fn prime(field: u16) -> Reg {
    Reg::from_field(8 + u32::from(field & 0x7))
}

fn full(field: u16) -> Reg {
    Reg::from_field(u32::from(field) & 0x1F)
}

fn bit(v: u16, i: u32) -> i32 {
    i32::from((v >> i) & 1)
}

fn bits(v: u16, hi: u32, lo: u32) -> i32 {
    i32::from((v >> lo) & ((1 << (hi - lo + 1)) - 1))
}

/// Decodes a 16-bit compressed parcel into its 32-bit expansion.
///
/// # Errors
///
/// Returns [`DecodeError`] for reserved/illegal encodings (including the
/// all-zero parcel, which the spec defines as illegal).
///
/// # Example
///
/// ```
/// use cfu_isa::compressed::{decode_compressed, is_compressed};
/// use cfu_isa::{Inst, Reg};
/// // C.ADDI x10, 1  =>  0x0505
/// assert!(is_compressed(0x0505));
/// assert_eq!(
///     decode_compressed(0x0505).unwrap(),
///     Inst::Addi { rd: Reg::A0, rs1: Reg::A0, imm: 1 },
/// );
/// ```
pub fn decode_compressed(parcel: u16) -> Result<Inst, DecodeError> {
    let err = Err(DecodeError::for_word(u32::from(parcel)));
    if parcel == 0 {
        return err; // defined illegal
    }
    let op = parcel & 0b11;
    let funct3 = (parcel >> 13) & 0b111;
    match (op, funct3) {
        // ---- Quadrant 0 ----
        (0b00, 0b000) => {
            // C.ADDI4SPN: addi rd', x2, nzuimm
            let imm = (bits(parcel, 10, 7) << 6)
                | (bits(parcel, 12, 11) << 4)
                | (bit(parcel, 5) << 3)
                | (bit(parcel, 6) << 2);
            if imm == 0 {
                return err;
            }
            Ok(Inst::Addi { rd: prime(parcel >> 2), rs1: Reg::SP, imm })
        }
        (0b00, 0b010) => {
            // C.LW: lw rd', uimm(rs1')
            let imm = (bit(parcel, 5) << 6) | (bits(parcel, 12, 10) << 3) | (bit(parcel, 6) << 2);
            Ok(Inst::Lw { rd: prime(parcel >> 2), rs1: prime(parcel >> 7), imm })
        }
        (0b00, 0b110) => {
            // C.SW: sw rs2', uimm(rs1')
            let imm = (bit(parcel, 5) << 6) | (bits(parcel, 12, 10) << 3) | (bit(parcel, 6) << 2);
            Ok(Inst::Sw { rs1: prime(parcel >> 7), rs2: prime(parcel >> 2), imm })
        }
        // ---- Quadrant 1 ----
        (0b01, 0b000) => {
            // C.ADDI / C.NOP
            let rd = full(parcel >> 7);
            let imm = sext6(parcel);
            Ok(Inst::Addi { rd, rs1: rd, imm })
        }
        (0b01, 0b001) => Ok(Inst::Jal { rd: Reg::RA, imm: cj_imm(parcel) }),
        (0b01, 0b010) => {
            // C.LI: addi rd, x0, imm
            Ok(Inst::Addi { rd: full(parcel >> 7), rs1: Reg::ZERO, imm: sext6(parcel) })
        }
        (0b01, 0b011) => {
            let rd = full(parcel >> 7);
            if rd == Reg::SP {
                // C.ADDI16SP
                let imm = (bit(parcel, 12) << 9)
                    | (bits(parcel, 4, 3) << 7)
                    | (bit(parcel, 5) << 6)
                    | (bit(parcel, 2) << 5)
                    | (bit(parcel, 6) << 4);
                let imm = (imm << 22) >> 22; // sign-extend from bit 9
                if imm == 0 {
                    return err;
                }
                Ok(Inst::Addi { rd: Reg::SP, rs1: Reg::SP, imm })
            } else {
                // C.LUI
                let imm = sext6(parcel) << 12;
                if imm == 0 {
                    return err;
                }
                Ok(Inst::Lui { rd, imm })
            }
        }
        (0b01, 0b100) => {
            let rd = prime(parcel >> 7);
            match (parcel >> 10) & 0b11 {
                0b00 => {
                    let shamt = shamt6(parcel)?;
                    Ok(Inst::Srli { rd, rs1: rd, shamt })
                }
                0b01 => {
                    let shamt = shamt6(parcel)?;
                    Ok(Inst::Srai { rd, rs1: rd, shamt })
                }
                0b10 => Ok(Inst::Andi { rd, rs1: rd, imm: sext6(parcel) }),
                _ => {
                    if bit(parcel, 12) != 0 {
                        return err; // RV64 C.SUBW/C.ADDW
                    }
                    let rs2 = prime(parcel >> 2);
                    match (parcel >> 5) & 0b11 {
                        0b00 => Ok(Inst::Sub { rd, rs1: rd, rs2 }),
                        0b01 => Ok(Inst::Xor { rd, rs1: rd, rs2 }),
                        0b10 => Ok(Inst::Or { rd, rs1: rd, rs2 }),
                        _ => Ok(Inst::And { rd, rs1: rd, rs2 }),
                    }
                }
            }
        }
        (0b01, 0b101) => Ok(Inst::Jal { rd: Reg::ZERO, imm: cj_imm(parcel) }),
        (0b01, 0b110) => {
            Ok(Inst::Beq { rs1: prime(parcel >> 7), rs2: Reg::ZERO, imm: cb_imm(parcel) })
        }
        (0b01, 0b111) => {
            Ok(Inst::Bne { rs1: prime(parcel >> 7), rs2: Reg::ZERO, imm: cb_imm(parcel) })
        }
        // ---- Quadrant 2 ----
        (0b10, 0b000) => {
            let rd = full(parcel >> 7);
            let shamt = shamt6(parcel)?;
            Ok(Inst::Slli { rd, rs1: rd, shamt })
        }
        (0b10, 0b010) => {
            // C.LWSP
            let rd = full(parcel >> 7);
            if rd.is_zero() {
                return err;
            }
            let imm =
                (bits(parcel, 3, 2) << 6) | (bit(parcel, 12) << 5) | (bits(parcel, 6, 4) << 2);
            Ok(Inst::Lw { rd, rs1: Reg::SP, imm })
        }
        (0b10, 0b100) => {
            let rd = full(parcel >> 7);
            let rs2 = full(parcel >> 2);
            match (bit(parcel, 12), rd.is_zero(), rs2.is_zero()) {
                (0, false, true) => Ok(Inst::Jalr { rd: Reg::ZERO, rs1: rd, imm: 0 }), // C.JR
                (0, _, false) => Ok(Inst::Add { rd, rs1: Reg::ZERO, rs2 }),            // C.MV
                (1, true, true) => Ok(Inst::Ebreak),
                (1, false, true) => Ok(Inst::Jalr { rd: Reg::RA, rs1: rd, imm: 0 }), // C.JALR
                (1, _, false) => Ok(Inst::Add { rd, rs1: rd, rs2 }),                 // C.ADD
                _ => err,
            }
        }
        (0b10, 0b110) => {
            // C.SWSP
            let imm = (bits(parcel, 8, 7) << 6) | (bits(parcel, 12, 9) << 2);
            Ok(Inst::Sw { rs1: Reg::SP, rs2: full(parcel >> 2), imm })
        }
        _ => err,
    }
}

/// 6-bit sign-extended immediate: bit 12 | bits 6:2.
fn sext6(parcel: u16) -> i32 {
    let v = (bit(parcel, 12) << 5) | bits(parcel, 6, 2);
    (v << 26) >> 26
}

/// 6-bit shift amount; RV32 requires bit 5 (parcel bit 12) to be zero.
fn shamt6(parcel: u16) -> Result<u8, DecodeError> {
    if bit(parcel, 12) != 0 {
        return Err(DecodeError::for_word(u32::from(parcel)));
    }
    Ok(bits(parcel, 6, 2) as u8)
}

/// C.J / C.JAL immediate (11 bits, scrambled per the spec).
fn cj_imm(parcel: u16) -> i32 {
    let v = (bit(parcel, 12) << 11)
        | (bit(parcel, 8) << 10)
        | (bits(parcel, 10, 9) << 8)
        | (bit(parcel, 6) << 7)
        | (bit(parcel, 7) << 6)
        | (bit(parcel, 2) << 5)
        | (bit(parcel, 11) << 4)
        | (bits(parcel, 5, 3) << 1);
    (v << 20) >> 20
}

/// C.BEQZ / C.BNEZ immediate (8 bits, scrambled).
fn cb_imm(parcel: u16) -> i32 {
    let v = (bit(parcel, 12) << 8)
        | (bits(parcel, 6, 5) << 6)
        | (bit(parcel, 2) << 5)
        | (bits(parcel, 11, 10) << 3)
        | (bits(parcel, 4, 3) << 1);
    (v << 23) >> 23
}

fn is_prime(r: Reg) -> bool {
    (8..16).contains(&r.index())
}

fn prime_field(r: Reg) -> u16 {
    (r.index() as u16 - 8) & 0x7
}

fn full_field(r: Reg) -> u16 {
    r.index() as u16 & 0x1F
}

/// Compresses a 32-bit instruction into its 16-bit form, when one
/// exists. This is what a linker relaxation pass does; the simulator's
/// code-density modelling and the round-trip tests use it.
///
/// Returns `None` for instructions with no RVC encoding (or whose
/// operands/immediates don't fit the compressed fields).
pub fn compress(inst: &Inst) -> Option<u16> {
    let fits6 = |imm: i32| (-32..=31).contains(&imm);
    match *inst {
        Inst::Addi { rd, rs1, imm } => {
            if rd == Reg::SP
                && rs1 == Reg::SP
                && imm != 0
                && imm % 16 == 0
                && (-512..=496).contains(&imm)
            {
                // C.ADDI16SP
                let v = imm;
                let parcel = 0b011_0_00010_00000_01
                    | (((v >> 9) & 1) as u16) << 12
                    | (((v >> 4) & 1) as u16) << 6
                    | (((v >> 6) & 1) as u16) << 5
                    | (((v >> 7) & 3) as u16) << 3
                    | (((v >> 5) & 1) as u16) << 2;
                return Some(parcel);
            }
            if rs1 == Reg::ZERO && !rd.is_zero() && fits6(imm) {
                // C.LI
                return Some(ci(0b010, 0b01, rd, imm));
            }
            if rd == rs1 && !rd.is_zero() && imm != 0 && fits6(imm) {
                // C.ADDI
                return Some(ci(0b000, 0b01, rd, imm));
            }
            if rd == rs1 && rd.is_zero() && imm == 0 {
                return Some(0x0001); // C.NOP
            }
            if rs1 == Reg::SP && is_prime(rd) && imm > 0 && imm % 4 == 0 && imm < 1024 {
                // C.ADDI4SPN
                let v = imm as u16;
                return Some(
                    (((v >> 4) & 0x3) << 11)
                        | (((v >> 6) & 0xF) << 7)
                        | (((v >> 2) & 1) << 6)
                        | (((v >> 3) & 1) << 5)
                        | (prime_field(rd) << 2),
                );
            }
            None
        }
        Inst::Lui { rd, imm } => {
            if rd.is_zero() || rd == Reg::SP {
                return None;
            }
            let hi = imm >> 12;
            if hi != 0 && fits6(hi) && imm & 0xFFF == 0 {
                return Some(ci(0b011, 0b01, rd, hi));
            }
            None
        }
        Inst::Lw { rd, rs1, imm } => {
            if rs1 == Reg::SP && !rd.is_zero() && imm >= 0 && imm % 4 == 0 && imm < 256 {
                // C.LWSP
                let v = imm as u16;
                return Some(
                    0b010_0_00000_00000_10
                        | (((v >> 5) & 1) << 12)
                        | (full_field(rd) << 7)
                        | (((v >> 2) & 0x7) << 4)
                        | (((v >> 6) & 0x3) << 2),
                );
            }
            if is_prime(rd) && is_prime(rs1) && imm >= 0 && imm % 4 == 0 && imm < 128 {
                // C.LW
                let v = imm as u16;
                return Some(
                    0b010_000_000_00_000_00
                        | (((v >> 3) & 0x7) << 10)
                        | (prime_field(rs1) << 7)
                        | (((v >> 2) & 1) << 6)
                        | (((v >> 6) & 1) << 5)
                        | (prime_field(rd) << 2),
                );
            }
            None
        }
        Inst::Sw { rs1, rs2, imm } => {
            if rs1 == Reg::SP && imm >= 0 && imm % 4 == 0 && imm < 256 {
                // C.SWSP
                let v = imm as u16;
                return Some(
                    0b110_000000_00000_10
                        | (((v >> 2) & 0xF) << 9)
                        | (((v >> 6) & 0x3) << 7)
                        | (full_field(rs2) << 2),
                );
            }
            if is_prime(rs1) && is_prime(rs2) && imm >= 0 && imm % 4 == 0 && imm < 128 {
                // C.SW
                let v = imm as u16;
                return Some(
                    0b110_000_000_00_000_00
                        | (((v >> 3) & 0x7) << 10)
                        | (prime_field(rs1) << 7)
                        | (((v >> 2) & 1) << 6)
                        | (((v >> 6) & 1) << 5)
                        | (prime_field(rs2) << 2),
                );
            }
            None
        }
        Inst::Add { rd, rs1, rs2 } => {
            if rs1 == Reg::ZERO && !rd.is_zero() && !rs2.is_zero() {
                // C.MV
                return Some(
                    0b100_0_00000_00000_10 | (full_field(rd) << 7) | (full_field(rs2) << 2),
                );
            }
            if rd == rs1 && !rd.is_zero() && !rs2.is_zero() {
                // C.ADD
                return Some(
                    0b100_1_00000_00000_10 | (full_field(rd) << 7) | (full_field(rs2) << 2),
                );
            }
            None
        }
        Inst::Sub { rd, rs1, rs2 } if rd == rs1 && is_prime(rd) && is_prime(rs2) => {
            Some(ca(0b00, rd, rs2))
        }
        Inst::Xor { rd, rs1, rs2 } if rd == rs1 && is_prime(rd) && is_prime(rs2) => {
            Some(ca(0b01, rd, rs2))
        }
        Inst::Or { rd, rs1, rs2 } if rd == rs1 && is_prime(rd) && is_prime(rs2) => {
            Some(ca(0b10, rd, rs2))
        }
        Inst::And { rd, rs1, rs2 } if rd == rs1 && is_prime(rd) && is_prime(rs2) => {
            Some(ca(0b11, rd, rs2))
        }
        Inst::Andi { rd, rs1, imm } if rd == rs1 && is_prime(rd) && fits6(imm) => {
            Some(cb_alu(0b10, rd, imm))
        }
        Inst::Srli { rd, rs1, shamt } if rd == rs1 && is_prime(rd) && shamt != 0 => {
            Some(cb_alu(0b00, rd, i32::from(shamt)))
        }
        Inst::Srai { rd, rs1, shamt } if rd == rs1 && is_prime(rd) && shamt != 0 => {
            Some(cb_alu(0b01, rd, i32::from(shamt)))
        }
        Inst::Slli { rd, rs1, shamt } if rd == rs1 && !rd.is_zero() && shamt != 0 => {
            Some(ci(0b000, 0b10, rd, i32::from(shamt)))
        }
        Inst::Jal { rd, imm } if imm % 2 == 0 && (-2048..=2046).contains(&imm) => match rd {
            Reg::ZERO => Some(cj(0b101, imm)),
            Reg::RA => Some(cj(0b001, imm)),
            _ => None,
        },
        Inst::Jalr { rd, rs1, imm } if imm == 0 && !rs1.is_zero() => match rd {
            Reg::ZERO => Some(0b100_0_00000_00000_10 | (full_field(rs1) << 7)),
            Reg::RA => Some(0b100_1_00000_00000_10 | (full_field(rs1) << 7)),
            _ => None,
        },
        Inst::Beq { rs1, rs2, imm }
            if rs2.is_zero() && is_prime(rs1) && imm % 2 == 0 && (-256..=254).contains(&imm) =>
        {
            Some(cbranch(0b110, rs1, imm))
        }
        Inst::Bne { rs1, rs2, imm }
            if rs2.is_zero() && is_prime(rs1) && imm % 2 == 0 && (-256..=254).contains(&imm) =>
        {
            Some(cbranch(0b111, rs1, imm))
        }
        Inst::Ebreak => Some(0b100_1_00000_00000_10),
        _ => None,
    }
}

/// CI-format: funct3 | imm[5] | rd | imm[4:0] | op.
fn ci(funct3: u16, op: u16, rd: Reg, imm: i32) -> u16 {
    (funct3 << 13)
        | ((((imm >> 5) & 1) as u16) << 12)
        | (full_field(rd) << 7)
        | (((imm & 0x1F) as u16) << 2)
        | op
}

/// CA-format register ALU ops in quadrant 1.
fn ca(funct2: u16, rd: Reg, rs2: Reg) -> u16 {
    0b100_0_11_000_00_000_01 | (prime_field(rd) << 7) | (funct2 << 5) | (prime_field(rs2) << 2)
}

/// CB-format ALU (srli/srai/andi).
fn cb_alu(funct2: u16, rd: Reg, imm: i32) -> u16 {
    0b100_0_00_000_00000_01
        | ((((imm >> 5) & 1) as u16) << 12)
        | (funct2 << 10)
        | (prime_field(rd) << 7)
        | (((imm & 0x1F) as u16) << 2)
}

/// CJ-format jump immediate scrambling.
fn cj(funct3: u16, imm: i32) -> u16 {
    let b = |i: u32| ((imm >> i) & 1) as u16;
    (funct3 << 13)
        | (b(11) << 12)
        | (b(4) << 11)
        | (((imm >> 8) & 3) as u16) << 9
        | (b(10) << 8)
        | (b(6) << 7)
        | (b(7) << 6)
        | (((imm >> 1) & 7) as u16) << 3
        | (b(5) << 2)
        | 0b01
}

/// CB-format branch immediate scrambling.
fn cbranch(funct3: u16, rs1: Reg, imm: i32) -> u16 {
    let b = |i: u32| ((imm >> i) & 1) as u16;
    (funct3 << 13)
        | (b(8) << 12)
        | (((imm >> 3) & 3) as u16) << 10
        | (prime_field(rs1) << 7)
        | (((imm >> 6) & 3) as u16) << 5
        | (b(5) << 2)
        | (((imm >> 1) & 3) as u16) << 3
        | 0b01
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_examples_decode() {
        // Cross-checked against the RISC-V spec / GNU assembler output.
        // c.addi a0, 1 = 0x0505
        assert_eq!(
            decode_compressed(0x0505).unwrap(),
            Inst::Addi { rd: Reg::A0, rs1: Reg::A0, imm: 1 }
        );
        // c.li a0, -1 = 0x557d
        assert_eq!(
            decode_compressed(0x557D).unwrap(),
            Inst::Addi { rd: Reg::A0, rs1: Reg::ZERO, imm: -1 }
        );
        // c.mv a0, a1 = 0x852e
        assert_eq!(
            decode_compressed(0x852E).unwrap(),
            Inst::Add { rd: Reg::A0, rs1: Reg::ZERO, rs2: Reg::A1 }
        );
        // c.add a0, a1 = 0x952e
        assert_eq!(
            decode_compressed(0x952E).unwrap(),
            Inst::Add { rd: Reg::A0, rs1: Reg::A0, rs2: Reg::A1 }
        );
        // c.lw a2, 0(a0) = 0x4110
        assert_eq!(
            decode_compressed(0x4110).unwrap(),
            Inst::Lw { rd: Reg::A2, rs1: Reg::A0, imm: 0 }
        );
        // c.sw a2, 0(a0) = 0xc110
        assert_eq!(
            decode_compressed(0xC110).unwrap(),
            Inst::Sw { rs1: Reg::A0, rs2: Reg::A2, imm: 0 }
        );
        // c.jr ra = 0x8082 (the canonical `ret`)
        assert_eq!(
            decode_compressed(0x8082).unwrap(),
            Inst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, imm: 0 }
        );
        // c.ebreak = 0x9002
        assert_eq!(decode_compressed(0x9002).unwrap(), Inst::Ebreak);
        // c.nop = 0x0001
        assert_eq!(
            decode_compressed(0x0001).unwrap(),
            Inst::Addi { rd: Reg::ZERO, rs1: Reg::ZERO, imm: 0 }
        );
    }

    #[test]
    fn illegal_parcels_rejected() {
        assert!(decode_compressed(0x0000).is_err()); // defined illegal
                                                     // Reserved: C.ADDI4SPN with zero immediate.
        assert!(decode_compressed(0x0004 & !0b11).is_err());
        // RV64-only funct bits.
        assert!(decode_compressed(0b100_1_11_000_00_000_01).is_err()); // c.subw
    }

    #[test]
    fn compress_decode_roundtrip_for_known_cases() {
        let cases = [
            Inst::Addi { rd: Reg::A0, rs1: Reg::A0, imm: 1 },
            Inst::Addi { rd: Reg::A3, rs1: Reg::ZERO, imm: -17 },
            Inst::Addi { rd: Reg::SP, rs1: Reg::SP, imm: -64 },
            Inst::Addi { rd: Reg::A2, rs1: Reg::SP, imm: 16 },
            Inst::Lui { rd: Reg::A5, imm: 3 << 12 },
            Inst::Lw { rd: Reg::A0, rs1: Reg::SP, imm: 12 },
            Inst::Lw { rd: Reg::A2, rs1: Reg::A0, imm: 4 },
            Inst::Sw { rs1: Reg::SP, rs2: Reg::A1, imm: 8 },
            Inst::Sw { rs1: Reg::A0, rs2: Reg::A2, imm: 64 },
            Inst::Add { rd: Reg::A0, rs1: Reg::ZERO, rs2: Reg::A1 },
            Inst::Add { rd: Reg::T0, rs1: Reg::T0, rs2: Reg::A4 },
            Inst::Sub { rd: Reg::A0, rs1: Reg::A0, rs2: Reg::A1 },
            Inst::Xor { rd: Reg::S0, rs1: Reg::S0, rs2: Reg::S1 },
            Inst::Or { rd: Reg::A4, rs1: Reg::A4, rs2: Reg::A5 },
            Inst::And { rd: Reg::A1, rs1: Reg::A1, rs2: Reg::A0 },
            Inst::Andi { rd: Reg::A0, rs1: Reg::A0, imm: 15 },
            Inst::Slli { rd: Reg::A0, rs1: Reg::A0, shamt: 4 },
            Inst::Srli { rd: Reg::A0, rs1: Reg::A0, shamt: 3 },
            Inst::Srai { rd: Reg::A1, rs1: Reg::A1, shamt: 7 },
            Inst::Jal { rd: Reg::ZERO, imm: 64 },
            Inst::Jal { rd: Reg::RA, imm: -128 },
            Inst::Jalr { rd: Reg::ZERO, rs1: Reg::RA, imm: 0 },
            Inst::Jalr { rd: Reg::RA, rs1: Reg::A5, imm: 0 },
            Inst::Beq { rs1: Reg::A0, rs2: Reg::ZERO, imm: -32 },
            Inst::Bne { rs1: Reg::A3, rs2: Reg::ZERO, imm: 100 },
            Inst::Ebreak,
        ];
        for inst in cases {
            let parcel = compress(&inst).unwrap_or_else(|| panic!("{inst:?} should compress"));
            assert!(is_compressed(parcel));
            assert_eq!(decode_compressed(parcel).unwrap(), inst, "parcel {parcel:#06x}");
        }
    }

    #[test]
    fn incompressible_cases_return_none() {
        // Different rd/rs1 on ALU ops.
        assert!(compress(&Inst::Sub { rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 }).is_none());
        // Out-of-range immediates.
        assert!(compress(&Inst::Addi { rd: Reg::A0, rs1: Reg::A0, imm: 100 }).is_none());
        // Non-prime registers for prime-only forms.
        assert!(compress(&Inst::Xor { rd: Reg::T5, rs1: Reg::T5, rs2: Reg::T6 }).is_none());
        // lw with unaligned offset.
        assert!(compress(&Inst::Lw { rd: Reg::A0, rs1: Reg::A1, imm: 3 }).is_none());
        // CFU instructions have no compressed form.
        assert!(compress(&Inst::Cfu {
            funct7: 0,
            funct3: 0,
            rd: Reg::A0,
            rs1: Reg::A0,
            rs2: Reg::A0
        })
        .is_none());
    }

    #[test]
    fn parcel_classification() {
        assert!(is_compressed(0x0505));
        assert!(!is_compressed(0x0513)); // low bits 0b11: 32-bit addi
    }
}
