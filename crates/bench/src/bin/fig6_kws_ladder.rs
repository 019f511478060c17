//! Regenerates Figure 6: the Keyword-Spotting ladder on Fomu.
//!
//! Usage: `fig6_kws_ladder [--csv PATH] [--svg PATH] [--threads N]
//! [--store PATH] [--resume]`. The ladder runs through the DSE engine on
//! `--threads` workers (default: one per available core; rows and store
//! files are byte-identical for every value); under `--threads` a live
//! step counter prints to stderr.
//! Every step executes the
//! guest: this is the no-replay counterpart of `table_energy_ladder`.
//! `--store PATH` persists every freshly simulated step to an
//! append-only result store; `--resume` additionally hydrates prior
//! results from it, so a warm re-run performs zero simulations while
//! printing byte-identical rows.

use cfu_bench::cli::{self, Command};

const CMD: Command = Command {
    usage: "fig6_kws_ladder [--csv PATH] [--svg PATH] [--threads N] [--store PATH] [--resume]",
    svg: true,
    tombstones: false,
};

fn main() {
    let args = cli::parse_or_exit(&CMD, |_, _| Ok(false));
    println!("Figure 6 — MLPerf Tiny KWS (DS-CNN) ladder on Fomu (iCE40UP5k, 12 MHz)");
    println!("paper reference: QuadSPI 3.04x, SRAM Ops+Model 7.84x, Larger Icache 8.3x,");
    println!("Fast Mult 15.35x, MAC Conv 32.10x, Post Proc 37.64x, final 75x");
    println!("(baseline 2.5 min -> <2 s; only ~3x of the 75x from the CFU itself)\n");
    let run = cfu_bench::fig6::run(&args.spec);
    CMD.print_store(&args, &run);
    let rows = run.rows;
    print!("{}", cfu_bench::fig6::render(&rows));
    if let Some(path) = &args.csv {
        std::fs::write(path, cfu_bench::fig6::to_csv(&rows)).expect("write csv");
        println!("wrote {path}");
    }
    if let Some(path) = &args.svg {
        let bars: Vec<(String, f64)> =
            rows.iter().map(|r| (r.label.to_owned(), r.speedup)).collect();
        let svg = cfu_bench::svg::bar_chart(
            "Figure 6: KWS speedup on Fomu",
            "cumulative speedup (log)",
            &bars,
        );
        std::fs::write(path, svg).expect("write svg");
        println!("wrote {path}");
    }
    // Attribution: CFU-only contribution (E5) — the `MAC Conv` and
    // `Post Proc` steps; everything else is CPU/memory/software.
    if let (Some(fast_mult), Some(post_proc), Some(last)) = (
        rows.iter().find(|r| r.label == "Fast Mult"),
        rows.iter().find(|r| r.label == "Post Proc"),
        rows.last(),
    ) {
        println!(
            "\nCFU-attributable speedup: {:.2}x of the total {:.2}x (paper: ~3x of 75x)",
            fast_mult.cycles as f64 / post_proc.cycles as f64,
            last.speedup
        );
    }
}
