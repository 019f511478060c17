//! Trace replay is no run mode: Figure 7 always replays and every other
//! artifact always executes, so the retime flags are unknown flags on
//! every binary — refused by the parser and answered with exit status 2.
//! So is an `--input-hw` above MobileNetV2's largest resolution.

use std::process::Command;

use cfu_bench::cli::{self, CliError};
use cfu_tflm::kernels::conv1x1::Conv1x1Variant;

const RETIME_FLAGS: [&str; 2] = ["--retime", "--no-retime"];

#[test]
fn retime_flags_are_unknown_to_the_parser() {
    for svg in [false, true] {
        let cmd = cli::Command { usage: "figure", svg, tombstones: false };
        for flag in RETIME_FLAGS {
            let parsed = cli::parse(&cmd, [flag.to_owned()], |_, _| Ok(false));
            assert_eq!(parsed.err(), Some(CliError::UnknownFlag(flag.into())), "{flag}");
        }
    }
}

#[test]
fn retime_flags_exit_2_on_every_binary() {
    let binaries = [
        env!("CARGO_BIN_EXE_fig4_mnv2_ladder"),
        env!("CARGO_BIN_EXE_fig6_kws_ladder"),
        env!("CARGO_BIN_EXE_fig7_dse_pareto"),
        env!("CARGO_BIN_EXE_table_energy_ladder"),
        env!("CARGO_BIN_EXE_profile_mnv2"),
        env!("CARGO_BIN_EXE_table_mlperf_models"),
    ];
    for binary in binaries {
        for flag in RETIME_FLAGS {
            let out = Command::new(binary).arg(flag).output().expect("binary runs");
            assert_eq!(out.status.code(), Some(2), "{binary} {flag}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.starts_with(&format!("unknown flag {flag}\n")), "{binary}: {stderr}");
        }
    }
}

#[test]
fn input_resolutions_above_224_exit_2() {
    let binaries = [
        env!("CARGO_BIN_EXE_fig4_mnv2_ladder"),
        env!("CARGO_BIN_EXE_fig7_dse_pareto"),
        env!("CARGO_BIN_EXE_profile_mnv2"),
    ];
    for binary in binaries {
        for value in ["232", "8192", "1048576", "4294967288"] {
            let out =
                Command::new(binary).args(["--input-hw", value]).output().expect("binary runs");
            assert_eq!(out.status.code(), Some(2), "{binary} --input-hw {value}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("\nusage: "), "{binary}: {stderr}");
        }
    }
}

#[test]
fn the_largest_input_resolution_deploys_on_arty() {
    // Width-1.0 MobileNetV2 at 224x224, the largest `--input-hw`, fits the
    // Arty memory map.
    let cpu = cfu_sim::CpuConfig::arty_default();
    let (dep, input, _) =
        cfu_bench::fig4::deploy_rung(cpu, cli::MAX_INPUT_HW, true, Conv1x1Variant::Generic);
    assert_eq!(input.shape.h, cli::MAX_INPUT_HW);
    assert!(dep.model().layers.len() > 50);
}
