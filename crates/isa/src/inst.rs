//! Instruction definitions and encoding.

use std::fmt;

use crate::decode::{self, DecodeError};
use crate::reg::Reg;

/// Major opcode for `custom-0` — the opcode CFU Playground's `cfu_op()`
/// macro emits (RISC-V reserved custom space, `0001011`).
pub const OPCODE_CUSTOM0: u32 = 0b000_1011;
/// Major opcode for `custom-1` (`0101011`), available for a second CFU.
pub const OPCODE_CUSTOM1: u32 = 0b010_1011;

/// Control-and-status registers understood by the simulator.
///
/// VexRiscv exposes the standard machine counters; CFU Playground software
/// reads `mcycle` around kernels to profile them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Csr {
    /// `mcycle` (0xB00): cycles since reset, low 32 bits.
    Mcycle,
    /// `mcycleh` (0xB80): cycles since reset, high 32 bits.
    Mcycleh,
    /// `minstret` (0xB02): instructions retired, low 32 bits.
    Minstret,
    /// `minstreth` (0xB82): instructions retired, high 32 bits.
    Minstreth,
    /// Any other CSR address, kept raw.
    Other(u16),
}

impl Csr {
    /// The 12-bit CSR address.
    pub fn address(self) -> u16 {
        match self {
            Csr::Mcycle => 0xB00,
            Csr::Mcycleh => 0xB80,
            Csr::Minstret => 0xB02,
            Csr::Minstreth => 0xB82,
            Csr::Other(a) => a & 0xFFF,
        }
    }

    /// Builds a `Csr` from a 12-bit address, canonicalizing known ones.
    pub fn from_address(addr: u16) -> Csr {
        match addr & 0xFFF {
            0xB00 => Csr::Mcycle,
            0xB80 => Csr::Mcycleh,
            0xB02 => Csr::Minstret,
            0xB82 => Csr::Minstreth,
            other => Csr::Other(other),
        }
    }
}

impl fmt::Display for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Csr::Mcycle => f.write_str("mcycle"),
            Csr::Mcycleh => f.write_str("mcycleh"),
            Csr::Minstret => f.write_str("minstret"),
            Csr::Minstreth => f.write_str("minstreth"),
            Csr::Other(a) => write!(f, "0x{a:03x}"),
        }
    }
}

/// A decoded RV32IM (+ custom CFU) instruction.
///
/// Immediates are stored *sign-extended as used by the semantics*, i.e.
/// `imm` on `Beq` is the byte offset from the branch instruction, and
/// `imm` on `Lui` is the full 32-bit value with the low 12 bits zero.
///
/// # Example
///
/// ```
/// use cfu_isa::{Inst, Reg};
/// let i = Inst::Addi { rd: Reg::A0, rs1: Reg::ZERO, imm: -5 };
/// assert_eq!(Inst::decode(i.encode()).unwrap(), i);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings follow the RISC-V spec uniformly
pub enum Inst {
    // ----- RV32I: upper immediates & jumps -----
    Lui {
        rd: Reg,
        imm: i32,
    },
    Auipc {
        rd: Reg,
        imm: i32,
    },
    Jal {
        rd: Reg,
        imm: i32,
    },
    Jalr {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    // ----- RV32I: branches -----
    Beq {
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    Bne {
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    Blt {
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    Bge {
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    Bltu {
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    Bgeu {
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    // ----- RV32I: loads/stores -----
    Lb {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Lh {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Lw {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Lbu {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Lhu {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Sb {
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    Sh {
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    Sw {
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    // ----- RV32I: ALU immediate -----
    Addi {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Slti {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Sltiu {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Xori {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Ori {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Andi {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Slli {
        rd: Reg,
        rs1: Reg,
        shamt: u8,
    },
    Srli {
        rd: Reg,
        rs1: Reg,
        shamt: u8,
    },
    Srai {
        rd: Reg,
        rs1: Reg,
        shamt: u8,
    },
    // ----- RV32I: ALU register -----
    Add {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sub {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sll {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Slt {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sltu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Xor {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Srl {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sra {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Or {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    And {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    // ----- RV32I: system -----
    Fence,
    Ecall,
    Ebreak,
    Csrrw {
        rd: Reg,
        rs1: Reg,
        csr: Csr,
    },
    Csrrs {
        rd: Reg,
        rs1: Reg,
        csr: Csr,
    },
    Csrrc {
        rd: Reg,
        rs1: Reg,
        csr: Csr,
    },
    Csrrwi {
        rd: Reg,
        uimm: u8,
        csr: Csr,
    },
    Csrrsi {
        rd: Reg,
        uimm: u8,
        csr: Csr,
    },
    Csrrci {
        rd: Reg,
        uimm: u8,
        csr: Csr,
    },
    // ----- RV32M -----
    Mul {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Mulh {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Mulhsu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Mulhu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Div {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Divu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Rem {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Remu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    // ----- CFU custom instructions -----
    /// R-format instruction on `custom-0`: the CFU Playground custom
    /// instruction. `funct7`/`funct3` select the CFU operation.
    Cfu {
        funct7: u8,
        funct3: u8,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// R-format instruction on `custom-1` (second CFU slot).
    Cfu1 {
        funct7: u8,
        funct3: u8,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
}

fn r_type(opcode: u32, funct3: u32, funct7: u32, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
    opcode
        | (rd.field() << 7)
        | (funct3 << 12)
        | (rs1.field() << 15)
        | (rs2.field() << 20)
        | (funct7 << 25)
}

fn i_type(opcode: u32, funct3: u32, rd: Reg, rs1: Reg, imm: i32) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "I-immediate out of range: {imm}");
    opcode
        | (rd.field() << 7)
        | (funct3 << 12)
        | (rs1.field() << 15)
        | (((imm as u32) & 0xFFF) << 20)
}

fn s_type(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "S-immediate out of range: {imm}");
    let imm = imm as u32;
    opcode
        | ((imm & 0x1F) << 7)
        | (funct3 << 12)
        | (rs1.field() << 15)
        | (rs2.field() << 20)
        | (((imm >> 5) & 0x7F) << 25)
}

fn b_type(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    debug_assert!(
        (-4096..=4094).contains(&imm) && imm % 2 == 0,
        "B-immediate out of range or odd: {imm}"
    );
    let imm = imm as u32;
    opcode
        | (((imm >> 11) & 1) << 7)
        | (((imm >> 1) & 0xF) << 8)
        | (funct3 << 12)
        | (rs1.field() << 15)
        | (rs2.field() << 20)
        | (((imm >> 5) & 0x3F) << 25)
        | (((imm >> 12) & 1) << 31)
}

fn u_type(opcode: u32, rd: Reg, imm: i32) -> u32 {
    debug_assert!(imm as u32 & 0xFFF == 0, "U-immediate has nonzero low bits: {imm:#x}");
    opcode | (rd.field() << 7) | (imm as u32)
}

fn j_type(opcode: u32, rd: Reg, imm: i32) -> u32 {
    debug_assert!(
        (-(1 << 20)..(1 << 20)).contains(&imm) && imm % 2 == 0,
        "J-immediate out of range or odd: {imm}"
    );
    let imm = imm as u32;
    opcode
        | (rd.field() << 7)
        | (((imm >> 12) & 0xFF) << 12)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 1) & 0x3FF) << 21)
        | (((imm >> 20) & 1) << 31)
}

fn csr_type(funct3: u32, rd: Reg, rs1_field: u32, csr: Csr) -> u32 {
    0b111_0011
        | (rd.field() << 7)
        | (funct3 << 12)
        | (rs1_field << 15)
        | (u32::from(csr.address()) << 20)
}

impl Inst {
    /// Encodes this instruction to its 32-bit machine word.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if an immediate does not fit its field
    /// (release builds truncate, matching what a raw `.word` would do).
    pub fn encode(&self) -> u32 {
        use Inst::*;
        const OP: u32 = 0b011_0011;
        const OP_IMM: u32 = 0b001_0011;
        const LOAD: u32 = 0b000_0011;
        const STORE: u32 = 0b010_0011;
        const BRANCH: u32 = 0b110_0011;
        match *self {
            Lui { rd, imm } => u_type(0b011_0111, rd, imm),
            Auipc { rd, imm } => u_type(0b001_0111, rd, imm),
            Jal { rd, imm } => j_type(0b110_1111, rd, imm),
            Jalr { rd, rs1, imm } => i_type(0b110_0111, 0, rd, rs1, imm),
            Beq { rs1, rs2, imm } => b_type(BRANCH, 0b000, rs1, rs2, imm),
            Bne { rs1, rs2, imm } => b_type(BRANCH, 0b001, rs1, rs2, imm),
            Blt { rs1, rs2, imm } => b_type(BRANCH, 0b100, rs1, rs2, imm),
            Bge { rs1, rs2, imm } => b_type(BRANCH, 0b101, rs1, rs2, imm),
            Bltu { rs1, rs2, imm } => b_type(BRANCH, 0b110, rs1, rs2, imm),
            Bgeu { rs1, rs2, imm } => b_type(BRANCH, 0b111, rs1, rs2, imm),
            Lb { rd, rs1, imm } => i_type(LOAD, 0b000, rd, rs1, imm),
            Lh { rd, rs1, imm } => i_type(LOAD, 0b001, rd, rs1, imm),
            Lw { rd, rs1, imm } => i_type(LOAD, 0b010, rd, rs1, imm),
            Lbu { rd, rs1, imm } => i_type(LOAD, 0b100, rd, rs1, imm),
            Lhu { rd, rs1, imm } => i_type(LOAD, 0b101, rd, rs1, imm),
            Sb { rs1, rs2, imm } => s_type(STORE, 0b000, rs1, rs2, imm),
            Sh { rs1, rs2, imm } => s_type(STORE, 0b001, rs1, rs2, imm),
            Sw { rs1, rs2, imm } => s_type(STORE, 0b010, rs1, rs2, imm),
            Addi { rd, rs1, imm } => i_type(OP_IMM, 0b000, rd, rs1, imm),
            Slti { rd, rs1, imm } => i_type(OP_IMM, 0b010, rd, rs1, imm),
            Sltiu { rd, rs1, imm } => i_type(OP_IMM, 0b011, rd, rs1, imm),
            Xori { rd, rs1, imm } => i_type(OP_IMM, 0b100, rd, rs1, imm),
            Ori { rd, rs1, imm } => i_type(OP_IMM, 0b110, rd, rs1, imm),
            Andi { rd, rs1, imm } => i_type(OP_IMM, 0b111, rd, rs1, imm),
            Slli { rd, rs1, shamt } => i_type(OP_IMM, 0b001, rd, rs1, i32::from(shamt & 0x1F)),
            Srli { rd, rs1, shamt } => i_type(OP_IMM, 0b101, rd, rs1, i32::from(shamt & 0x1F)),
            Srai { rd, rs1, shamt } => {
                i_type(OP_IMM, 0b101, rd, rs1, i32::from(shamt & 0x1F) | 0x400)
            }
            Add { rd, rs1, rs2 } => r_type(OP, 0b000, 0, rd, rs1, rs2),
            Sub { rd, rs1, rs2 } => r_type(OP, 0b000, 0b010_0000, rd, rs1, rs2),
            Sll { rd, rs1, rs2 } => r_type(OP, 0b001, 0, rd, rs1, rs2),
            Slt { rd, rs1, rs2 } => r_type(OP, 0b010, 0, rd, rs1, rs2),
            Sltu { rd, rs1, rs2 } => r_type(OP, 0b011, 0, rd, rs1, rs2),
            Xor { rd, rs1, rs2 } => r_type(OP, 0b100, 0, rd, rs1, rs2),
            Srl { rd, rs1, rs2 } => r_type(OP, 0b101, 0, rd, rs1, rs2),
            Sra { rd, rs1, rs2 } => r_type(OP, 0b101, 0b010_0000, rd, rs1, rs2),
            Or { rd, rs1, rs2 } => r_type(OP, 0b110, 0, rd, rs1, rs2),
            And { rd, rs1, rs2 } => r_type(OP, 0b111, 0, rd, rs1, rs2),
            Fence => 0b000_1111,
            Ecall => 0b111_0011,
            Ebreak => 0b111_0011 | (1 << 20),
            Csrrw { rd, rs1, csr } => csr_type(0b001, rd, rs1.field(), csr),
            Csrrs { rd, rs1, csr } => csr_type(0b010, rd, rs1.field(), csr),
            Csrrc { rd, rs1, csr } => csr_type(0b011, rd, rs1.field(), csr),
            Csrrwi { rd, uimm, csr } => csr_type(0b101, rd, u32::from(uimm & 0x1F), csr),
            Csrrsi { rd, uimm, csr } => csr_type(0b110, rd, u32::from(uimm & 0x1F), csr),
            Csrrci { rd, uimm, csr } => csr_type(0b111, rd, u32::from(uimm & 0x1F), csr),
            Mul { rd, rs1, rs2 } => r_type(OP, 0b000, 1, rd, rs1, rs2),
            Mulh { rd, rs1, rs2 } => r_type(OP, 0b001, 1, rd, rs1, rs2),
            Mulhsu { rd, rs1, rs2 } => r_type(OP, 0b010, 1, rd, rs1, rs2),
            Mulhu { rd, rs1, rs2 } => r_type(OP, 0b011, 1, rd, rs1, rs2),
            Div { rd, rs1, rs2 } => r_type(OP, 0b100, 1, rd, rs1, rs2),
            Divu { rd, rs1, rs2 } => r_type(OP, 0b101, 1, rd, rs1, rs2),
            Rem { rd, rs1, rs2 } => r_type(OP, 0b110, 1, rd, rs1, rs2),
            Remu { rd, rs1, rs2 } => r_type(OP, 0b111, 1, rd, rs1, rs2),
            Cfu { funct7, funct3, rd, rs1, rs2 } => {
                assert!(funct7 < 128, "cfu funct7 must fit 7 bits");
                assert!(funct3 < 8, "cfu funct3 must fit 3 bits");
                r_type(OPCODE_CUSTOM0, u32::from(funct3), u32::from(funct7), rd, rs1, rs2)
            }
            Cfu1 { funct7, funct3, rd, rs1, rs2 } => {
                assert!(funct7 < 128, "cfu funct7 must fit 7 bits");
                assert!(funct3 < 8, "cfu funct3 must fit 3 bits");
                r_type(OPCODE_CUSTOM1, u32::from(funct3), u32::from(funct7), rd, rs1, rs2)
            }
        }
    }

    /// Decodes a 32-bit machine word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the word is not a valid RV32IM or
    /// custom-0/1 instruction.
    pub fn decode(word: u32) -> Result<Inst, DecodeError> {
        decode::decode(word)
    }

    /// The destination register written by this instruction, if any.
    pub fn rd(&self) -> Option<Reg> {
        use Inst::*;
        match *self {
            Lui { rd, .. }
            | Auipc { rd, .. }
            | Jal { rd, .. }
            | Jalr { rd, .. }
            | Lb { rd, .. }
            | Lh { rd, .. }
            | Lw { rd, .. }
            | Lbu { rd, .. }
            | Lhu { rd, .. }
            | Addi { rd, .. }
            | Slti { rd, .. }
            | Sltiu { rd, .. }
            | Xori { rd, .. }
            | Ori { rd, .. }
            | Andi { rd, .. }
            | Slli { rd, .. }
            | Srli { rd, .. }
            | Srai { rd, .. }
            | Add { rd, .. }
            | Sub { rd, .. }
            | Sll { rd, .. }
            | Slt { rd, .. }
            | Sltu { rd, .. }
            | Xor { rd, .. }
            | Srl { rd, .. }
            | Sra { rd, .. }
            | Or { rd, .. }
            | And { rd, .. }
            | Csrrw { rd, .. }
            | Csrrs { rd, .. }
            | Csrrc { rd, .. }
            | Csrrwi { rd, .. }
            | Csrrsi { rd, .. }
            | Csrrci { rd, .. }
            | Mul { rd, .. }
            | Mulh { rd, .. }
            | Mulhsu { rd, .. }
            | Mulhu { rd, .. }
            | Div { rd, .. }
            | Divu { rd, .. }
            | Rem { rd, .. }
            | Remu { rd, .. }
            | Cfu { rd, .. }
            | Cfu1 { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// `true` for conditional branches (B-type).
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Inst::Beq { .. }
                | Inst::Bne { .. }
                | Inst::Blt { .. }
                | Inst::Bge { .. }
                | Inst::Bltu { .. }
                | Inst::Bgeu { .. }
        )
    }

    /// `true` for memory loads.
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            Inst::Lb { .. }
                | Inst::Lh { .. }
                | Inst::Lw { .. }
                | Inst::Lbu { .. }
                | Inst::Lhu { .. }
        )
    }

    /// `true` for memory stores.
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Sb { .. } | Inst::Sh { .. } | Inst::Sw { .. })
    }

    /// Source registers `(rs1, rs2)` read by this instruction, if any —
    /// the operand fields a pipeline model needs for hazard detection.
    /// Instructions with only immediate/CSR operands return `(None, None)`.
    pub fn sources(&self) -> (Option<Reg>, Option<Reg>) {
        use Inst::*;
        match *self {
            Jalr { rs1, .. }
            | Lb { rs1, .. }
            | Lh { rs1, .. }
            | Lw { rs1, .. }
            | Lbu { rs1, .. }
            | Lhu { rs1, .. }
            | Addi { rs1, .. }
            | Slti { rs1, .. }
            | Sltiu { rs1, .. }
            | Xori { rs1, .. }
            | Ori { rs1, .. }
            | Andi { rs1, .. }
            | Slli { rs1, .. }
            | Srli { rs1, .. }
            | Srai { rs1, .. }
            | Csrrw { rs1, .. }
            | Csrrs { rs1, .. }
            | Csrrc { rs1, .. } => (Some(rs1), None),
            Beq { rs1, rs2, .. }
            | Bne { rs1, rs2, .. }
            | Blt { rs1, rs2, .. }
            | Bge { rs1, rs2, .. }
            | Bltu { rs1, rs2, .. }
            | Bgeu { rs1, rs2, .. }
            | Sb { rs1, rs2, .. }
            | Sh { rs1, rs2, .. }
            | Sw { rs1, rs2, .. }
            | Add { rs1, rs2, .. }
            | Sub { rs1, rs2, .. }
            | Sll { rs1, rs2, .. }
            | Slt { rs1, rs2, .. }
            | Sltu { rs1, rs2, .. }
            | Xor { rs1, rs2, .. }
            | Srl { rs1, rs2, .. }
            | Sra { rs1, rs2, .. }
            | Or { rs1, rs2, .. }
            | And { rs1, rs2, .. }
            | Mul { rs1, rs2, .. }
            | Mulh { rs1, rs2, .. }
            | Mulhsu { rs1, rs2, .. }
            | Mulhu { rs1, rs2, .. }
            | Div { rs1, rs2, .. }
            | Divu { rs1, rs2, .. }
            | Rem { rs1, rs2, .. }
            | Remu { rs1, rs2, .. }
            | Cfu { rs1, rs2, .. }
            | Cfu1 { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            _ => (None, None),
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::disasm::disassemble(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_encodings() {
        // Cross-checked against `riscv64-unknown-elf-as` output.
        assert_eq!(Inst::Addi { rd: Reg::A0, rs1: Reg::ZERO, imm: 1 }.encode(), 0x0010_0513);
        assert_eq!(Inst::Add { rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 }.encode(), 0x00c5_8533);
        assert_eq!(Inst::Lui { rd: Reg::T0, imm: 0x12345 << 12 }.encode(), 0x1234_52b7);
        assert_eq!(Inst::Lw { rd: Reg::A5, rs1: Reg::SP, imm: 12 }.encode(), 0x00c1_2783);
        assert_eq!(Inst::Sw { rs1: Reg::SP, rs2: Reg::A5, imm: 12 }.encode(), 0x00f1_2623);
        assert_eq!(Inst::Jal { rd: Reg::RA, imm: 8 }.encode(), 0x0080_00ef);
        assert_eq!(Inst::Ecall.encode(), 0x0000_0073);
        assert_eq!(Inst::Ebreak.encode(), 0x0010_0073);
        assert_eq!(Inst::Mul { rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 }.encode(), 0x02c5_8533);
    }

    #[test]
    fn branch_negative_offset() {
        // beq a0, a1, -4
        let w = Inst::Beq { rs1: Reg::A0, rs2: Reg::A1, imm: -4 }.encode();
        assert_eq!(Inst::decode(w).unwrap(), Inst::Beq { rs1: Reg::A0, rs2: Reg::A1, imm: -4 });
    }

    #[test]
    fn cfu_encoding_uses_custom0() {
        let w =
            Inst::Cfu { funct7: 0x7F, funct3: 7, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 }.encode();
        assert_eq!(w & 0x7F, OPCODE_CUSTOM0);
        assert_eq!((w >> 25) & 0x7F, 0x7F);
        assert_eq!((w >> 12) & 0x7, 7);
    }

    #[test]
    #[should_panic(expected = "funct7")]
    fn cfu_funct7_range_checked() {
        let _ =
            Inst::Cfu { funct7: 128, funct3: 0, rd: Reg::A0, rs1: Reg::A0, rs2: Reg::A0 }.encode();
    }

    #[test]
    fn srai_vs_srli_disambiguated() {
        let srai = Inst::Srai { rd: Reg::A0, rs1: Reg::A1, shamt: 3 }.encode();
        let srli = Inst::Srli { rd: Reg::A0, rs1: Reg::A1, shamt: 3 }.encode();
        assert_ne!(srai, srli);
        assert_eq!(Inst::decode(srai).unwrap(), Inst::Srai { rd: Reg::A0, rs1: Reg::A1, shamt: 3 });
        assert_eq!(Inst::decode(srli).unwrap(), Inst::Srli { rd: Reg::A0, rs1: Reg::A1, shamt: 3 });
    }

    #[test]
    fn csr_roundtrip() {
        let i = Inst::Csrrs { rd: Reg::A0, rs1: Reg::ZERO, csr: Csr::Mcycle };
        assert_eq!(Inst::decode(i.encode()).unwrap(), i);
        assert_eq!(Csr::from_address(0xB00), Csr::Mcycle);
        assert_eq!(Csr::from_address(0x342), Csr::Other(0x342));
    }
}
