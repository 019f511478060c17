//! Regenerates Figure 4: the MobileNetV2 1x1 CONV_2D ladder on Arty.
//!
//! Usage: `fig4_mnv2_ladder [--input-hw N] [--full-width] [--csv PATH]
//! [--svg PATH] [--threads N] [--store PATH] [--resume]` (default input
//! 96, the paper's resolution; any positive multiple of 8 up to 224, e.g.
//! 32 or 48 for a quick look). The ladder runs through the DSE engine on
//! `--threads` workers (default: one per available core; rows are
//! byte-identical for every value); under `--threads` a live step
//! counter prints to stderr.
//!
//! The rungs share their generic layers through a layer memo: the
//! baseline rung runs alone first and records them, then the other
//! rungs fan out. Stderr ends with a `layer memo:` line counting the
//! fast-forwarded layer runs and the guest instructions they skipped,
//! identical at every `--threads` value.
//!
//! `--store PATH` persists every freshly simulated ladder step to an
//! append-only result store at PATH; `--resume` additionally hydrates
//! prior results from it, so a warm re-run performs zero simulations
//! while printing byte-identical rows.

use cfu_bench::cli::{self, Command};

const CMD: Command = Command {
    usage: "fig4_mnv2_ladder [--input-hw N] [--full-width] [--csv PATH] [--svg PATH] [--threads N] [--store PATH] [--resume]",
    svg: true,
    tombstones: false,
};

fn main() {
    let (mut input_hw, mut full_width) = (96, false);
    let args = cli::parse_or_exit(&CMD, |flag, value| {
        match flag {
            "--input-hw" => input_hw = value.input_hw()?,
            "--full-width" => full_width = true,
            _ => return Ok(false),
        }
        Ok(true)
    });
    let width = if full_width { "1.0" } else { "0.35" };
    println!("Figure 4 — MobileNetV2 (width {width}) 1x1 CONV_2D ladder (Arty A7-35T, {input_hw}x{input_hw} input)");
    println!("paper reference speedups: SW 2.0x, CFU postproc 2.3x, CFU MAC4 9.8x,");
    println!("MAC4Run1 26x, Incl postproc 31.1x, Overlap input 55x; overall MNV2 3x\n");
    let run = cfu_bench::fig4::run(&args.spec, input_hw, full_width);
    CMD.print_store(&args, &run);
    eprintln!(
        "layer memo: {} fast-forwarded layer run(s), {} guest instruction(s) skipped",
        run.fast_forwards, run.skipped_instructions
    );
    let rows = run.rows;
    print!("{}", cfu_bench::fig4::render(&rows));
    if let Some(path) = args.csv {
        std::fs::write(&path, cfu_bench::fig4::to_csv(&rows)).expect("write csv");
        println!("\nwrote {path}");
    }
    if let Some(path) = args.svg {
        let bars: Vec<(String, f64)> =
            rows.iter().map(|r| (r.label.to_owned(), r.operator_speedup)).collect();
        let svg = cfu_bench::svg::bar_chart(
            "Figure 4: MobileNetV2 1x1 CONV_2D speedup",
            "speedup (log)",
            &bars,
        );
        std::fs::write(&path, svg).expect("write svg");
        println!("wrote {path}");
    }
}
