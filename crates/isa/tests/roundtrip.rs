//! Property tests: encode/decode and asm/disasm round-trips.

use cfu_isa::{Assembler, Inst, Reg};
use proptest::prelude::*;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).unwrap())
}

fn arb_i12() -> impl Strategy<Value = i32> {
    -2048i32..=2047
}

fn arb_b_imm() -> impl Strategy<Value = i32> {
    (-2048i32..=2047).prop_map(|v| v * 2)
}

fn arb_j_imm() -> impl Strategy<Value = i32> {
    ((-(1 << 19))..(1 << 19)).prop_map(|v: i32| v * 2)
}

fn arb_u_imm() -> impl Strategy<Value = i32> {
    (0u32..(1 << 20)).prop_map(|v| (v << 12) as i32)
}

fn arb_inst() -> impl Strategy<Value = Inst> {
    let r = arb_reg;
    prop_oneof![
        (r(), arb_u_imm()).prop_map(|(rd, imm)| Inst::Lui { rd, imm }),
        (r(), arb_u_imm()).prop_map(|(rd, imm)| Inst::Auipc { rd, imm }),
        (r(), arb_j_imm()).prop_map(|(rd, imm)| Inst::Jal { rd, imm }),
        (r(), r(), arb_i12()).prop_map(|(rd, rs1, imm)| Inst::Jalr { rd, rs1, imm }),
        (r(), r(), arb_b_imm()).prop_map(|(rs1, rs2, imm)| Inst::Beq { rs1, rs2, imm }),
        (r(), r(), arb_b_imm()).prop_map(|(rs1, rs2, imm)| Inst::Bne { rs1, rs2, imm }),
        (r(), r(), arb_b_imm()).prop_map(|(rs1, rs2, imm)| Inst::Blt { rs1, rs2, imm }),
        (r(), r(), arb_b_imm()).prop_map(|(rs1, rs2, imm)| Inst::Bgeu { rs1, rs2, imm }),
        (r(), r(), arb_i12()).prop_map(|(rd, rs1, imm)| Inst::Lw { rd, rs1, imm }),
        (r(), r(), arb_i12()).prop_map(|(rd, rs1, imm)| Inst::Lbu { rd, rs1, imm }),
        (r(), r(), arb_i12()).prop_map(|(rs1, rs2, imm)| Inst::Sw { rs1, rs2, imm }),
        (r(), r(), arb_i12()).prop_map(|(rs1, rs2, imm)| Inst::Sb { rs1, rs2, imm }),
        (r(), r(), arb_i12()).prop_map(|(rd, rs1, imm)| Inst::Addi { rd, rs1, imm }),
        (r(), r(), arb_i12()).prop_map(|(rd, rs1, imm)| Inst::Andi { rd, rs1, imm }),
        (r(), r(), 0u8..32).prop_map(|(rd, rs1, shamt)| Inst::Slli { rd, rs1, shamt }),
        (r(), r(), 0u8..32).prop_map(|(rd, rs1, shamt)| Inst::Srai { rd, rs1, shamt }),
        (r(), r(), r()).prop_map(|(rd, rs1, rs2)| Inst::Add { rd, rs1, rs2 }),
        (r(), r(), r()).prop_map(|(rd, rs1, rs2)| Inst::Sub { rd, rs1, rs2 }),
        (r(), r(), r()).prop_map(|(rd, rs1, rs2)| Inst::Xor { rd, rs1, rs2 }),
        (r(), r(), r()).prop_map(|(rd, rs1, rs2)| Inst::Sltu { rd, rs1, rs2 }),
        (r(), r(), r()).prop_map(|(rd, rs1, rs2)| Inst::Mul { rd, rs1, rs2 }),
        (r(), r(), r()).prop_map(|(rd, rs1, rs2)| Inst::Mulhu { rd, rs1, rs2 }),
        (r(), r(), r()).prop_map(|(rd, rs1, rs2)| Inst::Div { rd, rs1, rs2 }),
        (r(), r(), r()).prop_map(|(rd, rs1, rs2)| Inst::Remu { rd, rs1, rs2 }),
        (0u8..128, 0u8..8, r(), r(), r()).prop_map(|(funct7, funct3, rd, rs1, rs2)| Inst::Cfu {
            funct7,
            funct3,
            rd,
            rs1,
            rs2
        }),
        (0u8..128, 0u8..8, r(), r(), r()).prop_map(|(funct7, funct3, rd, rs1, rs2)| Inst::Cfu1 {
            funct7,
            funct3,
            rd,
            rs1,
            rs2
        }),
        Just(Inst::Ecall),
        Just(Inst::Ebreak),
        Just(Inst::Fence),
    ]
}

proptest! {
    /// decode(encode(i)) == i for every instruction we can construct.
    #[test]
    fn encode_decode_roundtrip(inst in arb_inst()) {
        let word = inst.encode();
        prop_assert_eq!(Inst::decode(word).unwrap(), inst);
    }

    /// Disassembled text re-assembles to the identical machine word.
    /// (Branches/jumps are relative, so assemble at pc=0 where the
    /// disassembled offset is the absolute target.)
    #[test]
    fn disasm_asm_roundtrip(inst in arb_inst()) {
        // Negative branch offsets would need a label before address 0; skip them.
        let text = cfu_isa::disassemble(&inst);
        let skip = match inst {
            Inst::Jal { imm, .. } | Inst::Beq { imm, .. } | Inst::Bne { imm, .. }
            | Inst::Blt { imm, .. } | Inst::Bgeu { imm, .. } => imm < 0,
            _ => false,
        };
        if !skip {
            let program = Assembler::new(0).assemble(&text).unwrap();
            prop_assert_eq!(program.words.len(), 1, "text: {}", text);
            prop_assert_eq!(program.words[0], inst.encode(), "text: {}", text);
        }
    }

    /// Random words either decode to something that re-encodes to the same
    /// word, or they are rejected — never mangled.
    #[test]
    fn decode_is_faithful(word in any::<u32>()) {
        if let Ok(inst) = Inst::decode(word) {
            // Fence and CSR instructions legitimately drop don't-care bits;
            // everything else must round-trip exactly.
            match inst {
                Inst::Fence | Inst::Ecall | Inst::Ebreak => {}
                _ => prop_assert_eq!(inst.encode(), word),
            }
        }
    }
}

#[test]
fn assembler_handles_large_program() {
    // 1000 instructions with interleaved labels all assemble and resolve.
    let mut src = String::new();
    for i in 0..1000 {
        src.push_str(&format!("l{i}: addi a0, a0, 1\n"));
    }
    src.push_str("j l0\n");
    let p = Assembler::new(0x100).assemble(&src).unwrap();
    assert_eq!(p.words.len(), 1001);
    assert_eq!(p.symbol("l999"), Some(0x100 + 999 * 4));
}
