//! RV32IM instruction-set support for CFU Playground.
//!
//! This crate is the Rust stand-in for the parts of the original CFU
//! Playground that live in the GNU toolchain: it knows how to *encode*,
//! *decode*, *assemble* and *disassemble* the RV32IM instruction set plus
//! the `custom-0`/`custom-1` opcodes that carry Custom Function Unit (CFU)
//! instructions.
//!
//! The paper invokes CFU instructions from C through a `cfu_op(funct7,
//! funct3, a, b)` macro that expands to hand-encoded `.word` directives so
//! that "not even the assembler needs modification". The equivalent entry
//! point here is [`cfu_op_word`], which produces the same 32-bit encoding.
//!
//! # Example
//!
//! ```
//! use cfu_isa::{Assembler, Inst, Reg, cfu_op_word};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Encode a single instruction.
//! let add = Inst::Add { rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 };
//! let word = add.encode();
//! assert_eq!(Inst::decode(word)?, add);
//!
//! // Assemble a tiny program that uses a CFU instruction.
//! let program = Assembler::new(0x4000_0000).assemble(
//!     r#"
//!     start:
//!         li   a0, 42
//!         li   a1, 100
//!         cfu  1, 3, a2, a0, a1   # simd_add-style custom instruction
//!         ret
//!     "#,
//! )?;
//! assert_eq!(program.words.len(), 4);
//! assert_eq!(program.words[2], cfu_op_word(1, 3, Reg::A2, Reg::A0, Reg::A1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panics are reserved for internal invariants, each with a scoped allow
// that names it.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod asm;
pub mod compressed;
mod decode;
mod disasm;
mod inst;
mod reg;

pub use asm::{AsmError, Assembler, Program, SymbolTable};
pub use decode::DecodeError;
pub use disasm::{disassemble, disassemble_program};
pub use inst::{Csr, Inst, OPCODE_CUSTOM0, OPCODE_CUSTOM1};
pub use reg::{ParseRegError, Reg};

/// Encodes a CFU custom instruction exactly like the paper's `cfu_op()`
/// C macro: an R-format instruction on the `custom-0` opcode.
///
/// `funct7` (7 bits) and `funct3` (3 bits) select which of the CFU's
/// operations to perform; `rs1`/`rs2` supply the two operands from the
/// register file and the result is written to `rd`.
///
/// # Panics
///
/// Panics if `funct7 >= 128` or `funct3 >= 8`; the paper requires both to
/// be compile-time constants that fit their fields.
///
/// # Example
///
/// ```
/// use cfu_isa::{cfu_op_word, Inst, Reg};
/// let w = cfu_op_word(1, 3, Reg::A0, Reg::A1, Reg::A2);
/// assert_eq!(
///     Inst::decode(w).unwrap(),
///     Inst::Cfu { funct7: 1, funct3: 3, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 },
/// );
/// ```
pub fn cfu_op_word(funct7: u8, funct3: u8, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
    Inst::Cfu { funct7, funct3, rd, rs1, rs2 }.encode()
}
