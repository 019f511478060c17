//! ISS validation: hand-written RISC-V programs and property tests of
//! instruction semantics against Rust's own arithmetic.

use cfu_isa::{Assembler, Inst, Reg};
use cfu_mem::{Bus, Sram};
use cfu_sim::{BranchPredictor, Cpu, CpuConfig, StopReason, UNCACHED_BASE};
use proptest::prelude::*;

fn sram_bus() -> Bus {
    let mut bus = Bus::new();
    bus.map("sram", 0, Sram::new(64 << 10));
    bus
}

/// Assembles `src` at `base`, runs it under `config` (with a second SRAM
/// at `base` when it lies in the uncached window) and returns the CPU.
fn run_at(config: CpuConfig, base: u32, src: &str) -> Cpu {
    let program = Assembler::new(base).assemble(src).expect("assembles");
    let mut bus = sram_bus();
    if base >= UNCACHED_BASE {
        bus.map("uncached_sram", base, Sram::new(64 << 10));
    }
    let mut cpu = Cpu::new(config, bus);
    cpu.load_program(&program).expect("loads");
    cpu.run(2_000_000).expect("runs");
    cpu
}

/// Runs `src` from address 0 on the Arty default configuration.
fn run(src: &str) -> Cpu {
    run_at(CpuConfig::arty_default(), 0, src)
}

#[test]
fn recursive_fibonacci_with_stack() {
    // fib(12) = 144, computed with a real call stack.
    let cpu = run(r#"
        main:
            li sp, 0x8000
            li a0, 12
            call fib
            li a7, 93
            ecall
        fib:
            li t0, 2
            bltu a0, t0, base
            addi sp, sp, -12
            sw ra, 0(sp)
            sw s0, 4(sp)
            sw s1, 8(sp)
            mv s0, a0
            addi a0, s0, -1
            call fib
            mv s1, a0
            addi a0, s0, -2
            call fib
            add a0, a0, s1
            lw ra, 0(sp)
            lw s0, 4(sp)
            lw s1, 8(sp)
            addi sp, sp, 12
            ret
        base:
            ret
    "#);
    assert_eq!(cpu.reg(Reg::A0), 144);
}

#[test]
fn memcpy_and_strlen() {
    let cpu = run(r#"
        main:
            la a0, dst
            la a1, src
        copy:
            lbu t0, 0(a1)
            sb t0, 0(a0)
            addi a0, a0, 1
            addi a1, a1, 1
            bnez t0, copy
            # strlen(dst)
            la a0, dst
            li a1, 0
        len:
            lbu t0, 0(a0)
            beqz t0, done
            addi a0, a0, 1
            addi a1, a1, 1
            j len
        done:
            mv a0, a1
            li a7, 93
            ecall
        src: .asciz "cfu-playground"
        .align 2
        dst: .zero 32
    "#);
    assert_eq!(cpu.reg(Reg::A0), 14);
}

#[test]
fn bubble_sort_in_memory() {
    let cpu = run(r#"
        main:
            la s0, data
            li s1, 8          # n
        outer:
            li t0, 0          # swapped flag
            mv t1, s0
            addi t2, s1, -1
        inner:
            lw t3, 0(t1)
            lw t4, 4(t1)
            ble t3, t4, no_swap
            sw t4, 0(t1)
            sw t3, 4(t1)
            li t0, 1
        no_swap:
            addi t1, t1, 4
            addi t2, t2, -1
            bnez t2, inner
            bnez t0, outer
            # return data[0]*1000 + data[7]
            lw a0, 0(s0)
            li t5, 1000
            mul a0, a0, t5
            lw t6, 28(s0)
            add a0, a0, t6
            li a7, 93
            ecall
        .align 2
        data: .word 42, 7, 99, 1, 65, 23, 88, 14
    "#);
    // Sorted: data[0] = 1, data[7] = 99.
    assert_eq!(cpu.reg(Reg::A0), 1000 + 99);
}

#[test]
fn software_multiply_matches_hardware() {
    // Shift-add multiply in software vs the mul instruction.
    let cpu = run(r#"
        main:
            li a1, 0xBEEF
            li a2, 0x1234
            mv t0, a1
            mv t1, a2
            li a0, 0
        loop:
            andi t2, t1, 1
            beqz t2, skip
            add a0, a0, t0
        skip:
            slli t0, t0, 1
            srli t1, t1, 1
            bnez t1, loop
            mul t3, a1, a2
            sub a0, a0, t3   # should be zero
            li a7, 93
            ecall
    "#);
    assert_eq!(cpu.reg(Reg::A0), 0);
}

#[test]
fn csr_cycle_counter_is_monotone() {
    let cpu = run(r#"
        rdcycle s0
        rdinstret s1
        li t0, 100
    spin:
        addi t0, t0, -1
        bnez t0, spin
        rdcycle s2
        rdinstret s3
        sub a0, s2, s0
        sub a1, s3, s1
        li a7, 93
        ecall
    "#);
    let dcycles = cpu.reg(Reg::A0);
    let dinstr = cpu.reg(Reg::A1);
    assert!(dcycles >= 200, "cycles {dcycles}");
    assert!((200..=220).contains(&dinstr), "instret {dinstr}");
}

proptest! {
    /// Register-register ALU instructions match Rust semantics.
    #[test]
    fn alu_semantics(a in any::<u32>(), b in any::<u32>(), op_idx in 0usize..14) {
        use Inst::*;
        let (rd, rs1, rs2) = (Reg::A0, Reg::A1, Reg::A2);
        let (inst, want): (Inst, u32) = match op_idx {
            0 => (Add { rd, rs1, rs2 }, a.wrapping_add(b)),
            1 => (Sub { rd, rs1, rs2 }, a.wrapping_sub(b)),
            2 => (Xor { rd, rs1, rs2 }, a ^ b),
            3 => (Or { rd, rs1, rs2 }, a | b),
            4 => (And { rd, rs1, rs2 }, a & b),
            5 => (Sll { rd, rs1, rs2 }, a << (b & 31)),
            6 => (Srl { rd, rs1, rs2 }, a >> (b & 31)),
            7 => (Sra { rd, rs1, rs2 }, ((a as i32) >> (b & 31)) as u32),
            8 => (Slt { rd, rs1, rs2 }, u32::from((a as i32) < (b as i32))),
            9 => (Sltu { rd, rs1, rs2 }, u32::from(a < b)),
            10 => (Mul { rd, rs1, rs2 }, a.wrapping_mul(b)),
            11 => (Mulhu { rd, rs1, rs2 }, ((u64::from(a) * u64::from(b)) >> 32) as u32),
            12 => (
                Divu { rd, rs1, rs2 },
                a.checked_div(b).unwrap_or(u32::MAX),
            ),
            _ => (
                Remu { rd, rs1, rs2 },
                if b == 0 { a } else { a % b },
            ),
        };
        let mut cpu = Cpu::new(CpuConfig::arty_default(), sram_bus());
        cpu.bus_mut().load_image(0, &inst.encode().to_le_bytes()).unwrap();
        cpu.set_reg(rs1, a);
        cpu.set_reg(rs2, b);
        cpu.step().unwrap();
        prop_assert_eq!(cpu.reg(rd), want, "{:?}", inst);
    }

    /// Signed div/rem match Rust's semantics including the RISC-V
    /// special cases.
    #[test]
    fn div_rem_semantics(a in any::<i32>(), b in any::<i32>()) {
        let mut cpu = Cpu::new(CpuConfig::arty_default(), sram_bus());
        let div = Inst::Div { rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 };
        let rem = Inst::Rem { rd: Reg::A3, rs1: Reg::A1, rs2: Reg::A2 };
        let mut image = div.encode().to_le_bytes().to_vec();
        image.extend_from_slice(&rem.encode().to_le_bytes());
        cpu.bus_mut().load_image(0, &image).unwrap();
        cpu.set_reg(Reg::A1, a as u32);
        cpu.set_reg(Reg::A2, b as u32);
        cpu.step().unwrap();
        cpu.step().unwrap();
        let want_div = if b == 0 { -1 } else if a == i32::MIN && b == -1 { a } else { a / b };
        let want_rem = if b == 0 { a } else if a == i32::MIN && b == -1 { 0 } else { a % b };
        prop_assert_eq!(cpu.reg(Reg::A0) as i32, want_div);
        prop_assert_eq!(cpu.reg(Reg::A3) as i32, want_rem);
    }

    /// Loads sign/zero-extend correctly for every byte/halfword value.
    #[test]
    fn load_extension_semantics(val in any::<u32>(), addr in (0x100u32..0x1000).prop_map(|a| a & !3)) {
        let mut cpu = Cpu::new(CpuConfig::arty_default(), sram_bus());
        let prog: Vec<u8> = [
            Inst::Lb { rd: Reg::A0, rs1: Reg::S0, imm: 0 },
            Inst::Lbu { rd: Reg::A1, rs1: Reg::S0, imm: 0 },
            Inst::Lh { rd: Reg::A2, rs1: Reg::S0, imm: 0 },
            Inst::Lhu { rd: Reg::A3, rs1: Reg::S0, imm: 0 },
            Inst::Lw { rd: Reg::A4, rs1: Reg::S0, imm: 0 },
        ]
        .iter()
        .flat_map(|i| i.encode().to_le_bytes())
        .collect();
        cpu.bus_mut().load_image(0, &prog).unwrap();
        cpu.bus_mut().load_image(addr, &val.to_le_bytes()).unwrap();
        cpu.set_reg(Reg::S0, addr);
        for _ in 0..5 {
            cpu.step().unwrap();
        }
        prop_assert_eq!(cpu.reg(Reg::A0), (val as u8 as i8) as i32 as u32);
        prop_assert_eq!(cpu.reg(Reg::A1), val & 0xFF);
        prop_assert_eq!(cpu.reg(Reg::A2), (val as u16 as i16) as i32 as u32);
        prop_assert_eq!(cpu.reg(Reg::A3), val & 0xFFFF);
        prop_assert_eq!(cpu.reg(Reg::A4), val);
    }

    /// Store-then-load round-trips through the memory hierarchy.
    #[test]
    fn store_load_roundtrip(val in any::<u32>(), addr in (0x2000u32..0x8000).prop_map(|a| a & !3)) {
        let src = format!(
            "li a0, {val}
             li a1, {addr}
             sw a0, 0(a1)
             lw a2, 0(a1)
             li a7, 93
             ecall"
        );
        let program = Assembler::new(0).assemble(&src).unwrap();
        let mut cpu = Cpu::new(CpuConfig::arty_default(), sram_bus());
        cpu.load_program(&program).unwrap();
        cpu.run(100).unwrap();
        prop_assert_eq!(cpu.reg(Reg::A2), val);
    }
}

#[test]
fn zero_register_is_immutable() {
    let cpu = run("addi zero, zero, 42\nmv a0, zero\nli a7, 93\necall");
    assert_eq!(cpu.reg(Reg::A0), 0);
    assert_eq!(cpu.reg(Reg::ZERO), 0);
}

#[test]
fn budget_exhaustion_is_not_an_error() {
    let program = Assembler::new(0).assemble("loop: j loop").unwrap();
    let mut cpu = Cpu::new(CpuConfig::arty_default(), sram_bus());
    cpu.load_program(&program).unwrap();
    assert_eq!(cpu.run(1000).unwrap(), StopReason::BudgetExhausted);
    assert!(cpu.stats().instructions >= 1000);
}

#[test]
fn patching_an_already_executed_instruction_takes_effect() {
    // Pass 1 executes `addi a0, a0, 1` at `site`, then patches the site
    // to `addi a0, a0, 2` and loops. Pass 2 must run the patched
    // instruction: a0 = 1 + 2 = 3, whether driven by `run` or `step`.
    let patched = Inst::Addi { rd: Reg::A0, rs1: Reg::A0, imm: 2 }.encode();
    let src = format!(
        r#"
        main:
            li s0, 0
            la s1, site
            la s2, newinst
            lw s2, 0(s2)
        pass:
        site:
            addi a0, a0, 1
            addi s0, s0, 1
            li t0, 2
            blt s0, t0, patch
            li a7, 93
            ecall
        patch:
            sw s2, 0(s1)
            j pass
        .align 2
        newinst: .word {patched}
        "#
    );
    let ran = run(&src);
    assert_eq!(ran.reg(Reg::A0), 3, "patched instruction must execute on the second pass");
    let program = Assembler::new(0).assemble(&src).expect("assembles");
    let mut stepped = Cpu::new(CpuConfig::arty_default(), sram_bus());
    stepped.load_program(&program).expect("loads");
    while stepped.stop_reason().is_none() {
        stepped.step().expect("steps");
    }
    assert_eq!(stepped.reg(Reg::A0), 3);
    assert_eq!(stepped.stats(), ran.stats(), "stepping and running retire the same stream");
}

#[test]
fn store_patching_a_later_instruction_in_the_same_run_takes_effect() {
    // The store patches `site`, two instructions ahead in the same
    // straight-line run, with a different `addi` each pass. Pass 1 must
    // execute imm=9, pass 2 imm=13 → a0 = 22.
    let nine = Inst::Addi { rd: Reg::A0, rs1: Reg::A0, imm: 9 }.encode();
    let thirteen = Inst::Addi { rd: Reg::A0, rs1: Reg::A0, imm: 13 }.encode();
    let src = format!(
        r#"
        main:
            li s0, 0
        pass:
            slli t1, s0, 2
            la t2, table
            add t2, t2, t1
            lw s2, 0(t2)
            la s1, site
            sw s2, 0(s1)
            nop
        site:
            addi a0, a0, 5
            addi s0, s0, 1
            li t0, 2
            blt s0, t0, pass
            li a7, 93
            ecall
        .align 2
        table: .word {nine}, {thirteen}
        "#
    );
    let cpu = run(&src);
    assert_eq!(cpu.reg(Reg::A0), 9 + 13, "each pass must run that pass's patch");
}

#[test]
fn external_image_mutation_between_runs_is_picked_up() {
    // `load_image` through `bus_mut()` bypasses the core's store path.
    let add_one = Inst::Addi { rd: Reg::A0, rs1: Reg::A0, imm: 1 };
    let jump_back = Inst::Jal { rd: Reg::ZERO, imm: -4 };
    let mut image = add_one.encode().to_le_bytes().to_vec();
    image.extend_from_slice(&jump_back.encode().to_le_bytes());
    let mut cpu = Cpu::new(CpuConfig::arty_default(), sram_bus());
    cpu.bus_mut().load_image(0, &image).unwrap();
    // Ten instructions: five (addi, jal) pairs — a0 = 5.
    assert_eq!(cpu.run(10).unwrap(), StopReason::BudgetExhausted);
    assert_eq!(cpu.reg(Reg::A0), 5);
    // Hot-patch the addi externally: now each pass adds 100.
    let patched = Inst::Addi { rd: Reg::A0, rs1: Reg::A0, imm: 100 };
    cpu.bus_mut().load_image(0, &patched.encode().to_le_bytes()).unwrap();
    assert_eq!(cpu.run(4).unwrap(), StopReason::BudgetExhausted);
    assert_eq!(cpu.reg(Reg::A0), 5 + 200, "both patched passes must use the new encoding");
}

#[test]
fn uncached_execution_fetches_from_the_device() {
    // Above UNCACHED_BASE every fetch pays the device, I-cache or not.
    let src = "
        li a0, 0
        li t0, 50
    loop:
        addi a0, a0, 3
        addi t0, t0, -1
        bnez t0, loop
        li a7, 93
        ecall
    ";
    let cpu = run_at(CpuConfig::arty_default(), UNCACHED_BASE, src);
    assert_eq!(cpu.reg(Reg::A0), 150);
    assert_eq!(cpu.icache_stats().expect("arty has an I-cache").accesses(), 0);
    let (id, _) = cpu.bus().region_by_name("uncached_sram").expect("mapped");
    assert_eq!(cpu.bus().stats(id).reads, cpu.stats().instructions);
}

#[test]
fn no_icache_config_runs() {
    // fomu_baseline has no I-cache: fetches charge the raw bus even
    // below UNCACHED_BASE.
    let src = "
        li a0, 0
        li t0, 20
    loop:
        addi a0, a0, 7
        addi t0, t0, -1
        bnez t0, loop
        li a7, 93
        ecall
    ";
    let cpu = run_at(CpuConfig::fomu_baseline(), 0, src);
    assert_eq!(cpu.reg(Reg::A0), 140);
    let (id, _) = cpu.bus().region_by_name("sram").expect("mapped");
    assert_eq!(cpu.bus().stats(id).reads, cpu.stats().instructions);
}

#[test]
fn static_predictor_mispredicts_and_charges_refill() {
    // A loop closed by a *forward taken* branch: BTFN predicts
    // not-taken, so every looping iteration mispredicts.
    let src = "
        li a0, 0
        li t0, 40
    top:
        addi a0, a0, 1
        addi t0, t0, -1
        bnez t0, again
        li a7, 93
        ecall
    again:
        j top
    ";
    let config =
        CpuConfig { branch_predictor: BranchPredictor::Static, ..CpuConfig::arty_default() };
    let deep = run_at(config, 0, src);
    assert!(
        deep.stats().mispredicts >= 39,
        "forward-taken loop branch must mispredict under BTFN: {:?}",
        deep.stats()
    );
    // The refill penalty really lands per mispredict: the only
    // pipeline-depth-sensitive cost in this program is the branch
    // refill, so cycles differ by exactly mispredicts x Δpenalty.
    let shallow_config = CpuConfig { pipeline_depth: 2, ..config };
    let shallow = run_at(shallow_config, 0, src);
    assert_eq!(shallow.stats().mispredicts, deep.stats().mispredicts);
    let delta = config.refill_penalty() - shallow_config.refill_penalty();
    assert_eq!(
        deep.stats().cycles - shallow.stats().cycles,
        deep.stats().mispredicts * delta,
        "every mispredict must charge the refill penalty"
    );
}

#[test]
fn nested_loops_retire_every_branch_under_every_predictor() {
    // Nested loops with both branch directions and a jump: every
    // bundled predictor, with and without an I-cache, must retire all
    // 66 branches and compute the same result.
    let src = "
        li a0, 0
        li t0, 6          # outer counter
    outer:
        li t1, 5          # inner counter
    inner:
        addi a0, a0, 1
        andi t2, a0, 1
        beqz t2, skip     # forward, data-dependent direction
        addi a0, a0, 2
    skip:
        addi t1, t1, -1
        bnez t1, inner    # backward taken
        addi t0, t0, -1
        bnez t0, outer    # backward taken
        li a7, 93
        ecall
    ";
    for predictor in [
        BranchPredictor::None,
        BranchPredictor::Static,
        BranchPredictor::Dynamic { entries: 16 },
        BranchPredictor::DynamicTarget { entries: 16 },
    ] {
        for base in [CpuConfig::arty_default(), CpuConfig::fomu_baseline()] {
            let cpu = run_at(CpuConfig { branch_predictor: predictor, ..base }, 0, src);
            // 30 inner passes x (beqz + bnez) + 6 outer bnez = 66.
            assert_eq!(cpu.stats().branches, 66, "all three branches retire every pass");
            assert_eq!(cpu.reg(Reg::A0), 60);
        }
    }
}
