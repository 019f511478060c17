//! RV32C on the ISS: mixed 16/32-bit instruction streams execute
//! correctly and compressed code really does fetch less.

use cfu_isa::compressed::{compress, decode_compressed};
use cfu_isa::{Inst, Reg};
use cfu_mem::{Bus, SpiFlash, SpiWidth, Sram};
use cfu_sim::{Cpu, CpuConfig, StopReason, TimedCore};
use proptest::prelude::*;

fn sram_bus() -> Bus {
    let mut bus = Bus::new();
    bus.map("sram", 0, Sram::new(64 << 10));
    bus
}

/// Runs a compressed-mode image and returns the CPU with its stop
/// reason.
fn run_image(parts: &[Encoding], budget: u64) -> (Cpu, StopReason) {
    let config = CpuConfig::arty_default().with_compressed(true);
    let mut cpu = Cpu::new(config, sram_bus());
    cpu.bus_mut().load_image(0, &image(parts)).unwrap();
    let stop = cpu.run(budget).unwrap();
    (cpu, stop)
}

/// Builds a byte image from a mix of 16-bit and 32-bit encodings.
fn image(parts: &[Encoding]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for p in parts {
        match p {
            Encoding::C(parcel) => bytes.extend_from_slice(&parcel.to_le_bytes()),
            Encoding::Full(inst) => bytes.extend_from_slice(&inst.encode().to_le_bytes()),
        }
    }
    bytes
}

enum Encoding {
    C(u16),
    Full(Inst),
}

fn c(inst: Inst) -> Encoding {
    Encoding::C(compress(&inst).unwrap_or_else(|| panic!("{inst:?} must compress")))
}

#[test]
fn mixed_compressed_program_runs() {
    use Encoding::Full;
    // sum = 0; for i in 5..0 { sum += i }  with compressed inner ops.
    let parts = [
        c(Inst::Addi { rd: Reg::A0, rs1: Reg::ZERO, imm: 0 }), // c.li a0, 0
        c(Inst::Addi { rd: Reg::A1, rs1: Reg::ZERO, imm: 5 }), // c.li a1, 5
        // loop: (pc = 4)
        c(Inst::Add { rd: Reg::A0, rs1: Reg::A0, rs2: Reg::A1 }), // c.add
        c(Inst::Addi { rd: Reg::A1, rs1: Reg::A1, imm: -1 }),     // c.addi
        c(Inst::Bne { rs1: Reg::A1, rs2: Reg::ZERO, imm: -4 }),   // c.bnez loop
        Full(Inst::Addi { rd: Reg::A7, rs1: Reg::ZERO, imm: 93 }),
        Full(Inst::Ecall),
    ];
    let (_, stop) = run_image(&parts, 1000);
    assert_eq!(stop, StopReason::Exit(15)); // 5+4+3+2+1
}

#[test]
fn compressed_jal_links_pc_plus_2() {
    use Encoding::Full;
    // c.jal over one compressed instruction; ra must be pc+2.
    let parts = [
        c(Inst::Jal { rd: Reg::RA, imm: 4 }), // at pc=0, skip next parcel
        c(Inst::Addi { rd: Reg::A0, rs1: Reg::ZERO, imm: 9 }), // skipped
        Full(Inst::Addi { rd: Reg::A7, rs1: Reg::ZERO, imm: 93 }),
        Full(Inst::Ecall),
    ];
    let (cpu, _) = run_image(&parts, 100);
    assert_eq!(cpu.reg(Reg::RA), 2, "link register must be pc+2 for c.jal");
    assert_eq!(cpu.reg(Reg::A0), 0, "skipped instruction must not run");
}

#[test]
fn compressed_stack_ops() {
    use Encoding::Full;
    let parts = [
        Full(Inst::Addi { rd: Reg::SP, rs1: Reg::ZERO, imm: 1024 }),
        c(Inst::Addi { rd: Reg::SP, rs1: Reg::SP, imm: -32 }), // c.addi16sp
        c(Inst::Addi { rd: Reg::A0, rs1: Reg::ZERO, imm: 21 }),
        c(Inst::Sw { rs1: Reg::SP, rs2: Reg::A0, imm: 12 }), // c.swsp
        c(Inst::Lw { rd: Reg::A1, rs1: Reg::SP, imm: 12 }),  // c.lwsp
        c(Inst::Add { rd: Reg::A0, rs1: Reg::A0, rs2: Reg::A1 }),
        Full(Inst::Addi { rd: Reg::A7, rs1: Reg::ZERO, imm: 93 }),
        Full(Inst::Ecall),
    ];
    let (cpu, stop) = run_image(&parts, 100);
    assert_eq!(stop, StopReason::Exit(42));
    assert_eq!(cpu.reg(Reg::SP), 1024 - 32);
}

#[test]
fn xip_fetch_is_cheaper_with_compressed_code() {
    // The TLM density model: same instruction count from single-SPI
    // flash, with and without RVC.
    let mk = |compressed: bool| {
        let mut bus = Bus::new();
        bus.map("flash", 0, SpiFlash::new(1 << 20, SpiWidth::Single));
        bus.map("sram", 0x1000_0000, Sram::new(4096));
        let cfg = CpuConfig::fomu_baseline().with_compressed(compressed);
        let mut core = TimedCore::new(cfg, bus);
        core.set_code_region(0, 4096).unwrap();
        core.alu(5000);
        core.cycles()
    };
    let full = mk(false);
    let rvc = mk(true);
    assert!((rvc as f64) < 0.85 * full as f64, "RVC {rvc} should cut XIP fetch vs {full}");
}

#[test]
fn rvc_expander_costs_resources() {
    let base = CpuConfig::fomu_baseline().resources().luts;
    let rvc = CpuConfig::fomu_baseline().with_compressed(true).resources().luts;
    assert_eq!(rvc - base, 150);
}

proptest! {
    /// Anything `compress` produces decodes back to the original
    /// instruction, for randomly-generated compressible candidates.
    #[test]
    fn compress_roundtrip(
        rd_i in 0u8..32,
        rs2_i in 0u8..32,
        imm in -32i32..32,
        kind in 0usize..8,
    ) {
        let rd = Reg::new(rd_i).unwrap();
        let rs2 = Reg::new(rs2_i).unwrap();
        let cand = match kind {
            0 => Inst::Addi { rd, rs1: rd, imm },
            1 => Inst::Addi { rd, rs1: Reg::ZERO, imm },
            2 => Inst::Add { rd, rs1: rd, rs2 },
            3 => Inst::Add { rd, rs1: Reg::ZERO, rs2 },
            4 => Inst::Sub { rd, rs1: rd, rs2 },
            5 => Inst::Andi { rd, rs1: rd, imm },
            6 => Inst::Lw { rd, rs1: rs2, imm: (imm.unsigned_abs() as i32 & !3) % 128 },
            _ => Inst::Sw { rs1: rd, rs2, imm: (imm.unsigned_abs() as i32 & !3) % 128 },
        };
        if let Some(parcel) = compress(&cand) {
            prop_assert_eq!(decode_compressed(parcel).unwrap(), cand, "parcel {:#06x}", parcel);
        }
    }

    /// Every 16-bit parcel either decodes to an instruction whose
    /// recompression round-trips, or is rejected — never mangled.
    #[test]
    fn decode_is_stable(parcel in any::<u16>()) {
        if cfu_isa::compressed::is_compressed(parcel) {
            if let Ok(inst) = decode_compressed(parcel) {
                // If it decodes AND compresses, the semantic must match.
                if let Some(p2) = compress(&inst) {
                    prop_assert_eq!(
                        decode_compressed(p2).unwrap(),
                        inst,
                        "original {:#06x} recompressed {:#06x}",
                        parcel,
                        p2
                    );
                }
            }
        }
    }
}
