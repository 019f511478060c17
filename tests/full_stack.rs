//! Cross-crate integration tests: the whole stack working together.

use cfu_playground::prelude::*;
use cfu_playground::tflm::reference;

/// ISS and TLM paths share one timing model: the same micro-workload
/// (N iterations of load-mul-store plus a loop branch) must cost about
/// the same cycles on both.
#[test]
fn iss_and_tlm_agree_on_microkernel() {
    const N: u32 = 500;
    let mk_bus = || {
        let mut bus = Bus::new();
        bus.map("sram", 0, Sram::new(64 << 10));
        bus
    };
    let config = CpuConfig::arty_default();

    // ISS: the kernel in real RISC-V assembly.
    let program = Assembler::new(0)
        .assemble(&format!(
            "li t0, {N}
             li t1, 0x2000     # data pointer
            loop:
             lw t2, 0(t1)
             mul t2, t2, t0
             sw t2, 0(t1)
             addi t1, t1, 4
             addi t0, t0, -1
             bnez t0, loop
             li a7, 93
             ecall"
        ))
        .unwrap();
    let mut cpu = Cpu::new(config, mk_bus());
    cpu.load_program(&program).unwrap();
    let warm_start = cpu.cycles();
    cpu.run(100_000).unwrap();
    let iss_cycles = cpu.cycles() - warm_start;

    // TLM: the same abstract operations.
    let mut core = TimedCore::new(config, mk_bus());
    core.set_code_region(0, 9 * 4).unwrap();
    core.alu(2); // the two li's
    for i in 0..N {
        let addr = 0x2000 + 4 * i;
        let v = core.load_u32(addr).unwrap();
        core.mul();
        core.store_u32(addr, v.wrapping_mul(N - i)).unwrap();
        core.alu(2); // pointer/counter bumps
        core.branch(1, true, i + 1 != N);
    }
    let tlm_cycles = core.cycles();

    let ratio = iss_cycles as f64 / tlm_cycles as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "ISS {iss_cycles} vs TLM {tlm_cycles} (ratio {ratio:.2})"
    );
}

/// Golden full-inference tests (§II-E) for the whole MLPerf-Tiny zoo,
/// deployed on a real board bus.
#[test]
fn golden_inference_all_models_on_arty() {
    let board = Board::arty_a7_35t();
    for model in [
        models::mobilenet_v2(16, 2, 11),
        models::ds_cnn_kws(12),
        models::resnet8(13),
        models::fc_autoencoder(14),
    ] {
        let input = models::synthetic_input(&model, 20);
        let golden = reference::run_model(&model, &input);
        let cfg = DeployConfig::new(CpuConfig::arty_default(), "main_ram", "main_ram", "main_ram");
        let mut dep =
            Deployment::new(model.clone(), board.build_bus(None), Box::new(NullCfu), &cfg)
                .expect("deploys");
        let (out, profile) = dep.run(&input).expect("runs");
        assert_eq!(out.data, golden.data, "{} diverged from reference", model.name);
        assert!(profile.total_cycles() > 0);
    }
}

/// The CFU1-accelerated model produces bit-identical outputs on the real
/// Arty bus (DDR3 + caches), not just on a plain SRAM test bus.
#[test]
fn cfu1_accelerated_inference_is_bit_exact_on_arty() {
    let board = Board::arty_a7_35t();
    let model = models::mobilenet_v2(16, 2, 3);
    let input = models::synthetic_input(&model, 9);
    let golden = reference::run_model(&model, &input);
    let mut cfg = DeployConfig::new(CpuConfig::arty_default(), "main_ram", "main_ram", "main_ram");
    cfg.registry =
        KernelRegistry { conv1x1: Some(Conv1x1Variant::CfuOverlapInput), ..Default::default() };
    let mut dep = Deployment::new(
        model,
        board.build_bus(None),
        Box::new(Cfu1::new(Cfu1Stage::OverlapInput)),
        &cfg,
    )
    .expect("deploys");
    let (out, _) = dep.run(&input).expect("runs");
    assert_eq!(out.data, golden.data);
}

/// Running the same deployment twice gives identical cycles — the
/// simulator is deterministic (a property Renode/Verilator flows rely on).
#[test]
fn simulation_is_deterministic() {
    let model = models::tiny_test_net(5);
    let input = models::synthetic_input(&model, 6);
    let run = || {
        let board = Board::fomu();
        let cfg = DeployConfig::new(CpuConfig::fomu_baseline(), "spiflash", "sram", "spiflash");
        let mut dep =
            Deployment::new(model.clone(), board.build_bus(None), Box::new(NullCfu), &cfg)
                .expect("deploys");
        let (_, profile) = dep.run(&input).expect("runs");
        profile.total_cycles()
    };
    assert_eq!(run(), run());
}

/// The paper's on-board CFU unit test, §II-E: "random or directed
/// CFU-level unit tests running on the FPGA board can feed the same
/// sequence of inputs to both the real CFU and to the software
/// emulation, and expect to see the same sequence of outputs."
///
/// Here the "board" is the ISS: a RISC-V program walks a table of random
/// operand pairs, issues the custom instruction on each, and stores the
/// results; the host then compares against the software emulation.
#[test]
fn on_board_random_cfu_unit_test() {
    use cfu_playground::core::templates::SimdAddCfu;

    const N: u32 = 64;
    const TABLE: u32 = 0x4000; // operand pairs
    const RESULTS: u32 = 0x6000;

    let program = Assembler::new(0)
        .assemble(&format!(
            "li s0, {TABLE}
             li s1, {RESULTS}
             li s2, {N}
            loop:
             lw a0, 0(s0)
             lw a1, 4(s0)
             cfu 0, 0, a2, a0, a1
             sw a2, 0(s1)
             addi s0, s0, 8
             addi s1, s1, 4
             addi s2, s2, -1
             bnez s2, loop
             li a7, 93
             li a0, 0
             ecall"
        ))
        .unwrap();

    let mut bus = Bus::new();
    bus.map("sram", 0, Sram::new(64 << 10));
    let mut cpu = Cpu::with_cfu(CpuConfig::arty_default(), bus, SimdAddCfu::new());
    cpu.load_program(&program).unwrap();

    // Deterministic pseudo-random operand table.
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut operands = Vec::new();
    for i in 0..N {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let a = (state >> 8) as u32;
        let b = state as u32;
        operands.push((a, b));
        cpu.bus_mut().load_image(TABLE + 8 * i, &a.to_le_bytes()).unwrap();
        cpu.bus_mut().load_image(TABLE + 8 * i + 4, &b.to_le_bytes()).unwrap();
    }

    assert_eq!(cpu.run(10_000).unwrap(), StopReason::Exit(0));

    // Software emulation of simd_add, compared element by element.
    let emulate = |a: u32, b: u32| {
        let mut out = 0u32;
        for lane in 0..4 {
            let s = ((a >> (8 * lane)) as u8).wrapping_add((b >> (8 * lane)) as u8);
            out |= u32::from(s) << (8 * lane);
        }
        out
    };
    for (i, &(a, b)) in operands.iter().enumerate() {
        let mut buf = [0u8; 4];
        cpu.bus_mut().peek(RESULTS + 4 * i as u32, &mut buf).unwrap();
        assert_eq!(
            u32::from_le_bytes(buf),
            emulate(a, b),
            "mismatch at table entry {i} (rs1={a:#x} rs2={b:#x})"
        );
    }
}

/// The CFU interface round-trips through real machine code: encode a
/// custom instruction, run it on the ISS, get the CFU's answer.
#[test]
fn custom_instruction_roundtrip_through_machine_code() {
    let word = cfu_op_word(0, 0, Reg::A0, Reg::A1, Reg::A2);
    assert_eq!(
        Inst::decode(word).unwrap(),
        Inst::Cfu { funct7: 0, funct3: 0, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 }
    );
    let mut bus = Bus::new();
    bus.map("sram", 0, Sram::new(4096));
    let mut cpu = Cpu::with_cfu(
        CpuConfig::arty_default(),
        bus,
        cfu_playground::core::templates::BitOpsCfu::new(),
    );
    // popcount(0xF0F0F0F0) = 16
    let program = Assembler::new(0)
        .assemble("li a1, 0xF0F0F0F0\ncfu 0, 0, a0, a1, zero\nli a7, 93\necall")
        .unwrap();
    cpu.load_program(&program).unwrap();
    assert_eq!(cpu.run(100).unwrap(), StopReason::Exit(16));
}
