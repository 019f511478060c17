//! Extension table (paper §V future work): energy and energy-delay
//! product for every Figure 6 ladder step on Fomu.
//!
//! Usage: `table_energy_ladder [--threads N] [--csv PATH] [--store PATH]
//! [--resume]`. The ladder runs through the DSE engine on `--threads`
//! workers (default: one per available core; the table is
//! byte-identical for every value; under `--threads` a live step
//! counter prints to stderr), and each
//! step is executed exactly once, as `fig6_kws_ladder` executes it.
//!
//! The paper stops at performance; this regenerates the KWS ladder with
//! the iCE40-class energy model to show the co-design's *energy* story:
//! memory-system and CFU optimizations cut energy about as hard as they
//! cut time, because idle cycles leak.
//!
//! `--store PATH` persists every freshly simulated step to an
//! append-only result store; `--resume` additionally hydrates prior
//! results from it, so a warm re-run performs zero simulations while
//! printing a byte-identical table.

use cfu_bench::cli::{self, Command};

const CMD: Command = Command {
    usage: "table_energy_ladder [--threads N] [--csv PATH] [--store PATH] [--resume]",
    svg: false,
    tombstones: false,
};

fn main() {
    let args = cli::parse_or_exit(&CMD, |_, _| Ok(false));
    println!("Energy across the Figure 6 KWS ladder (Fomu, iCE40 energy model)\n");
    let run = cfu_bench::fig6::run_energy(&args.spec);
    CMD.print_store(&args, &run);
    print!("{}", cfu_bench::fig6::render_energy(&run.rows));
    if let Some(path) = &args.csv {
        std::fs::write(path, cfu_bench::fig6::energy_to_csv(&run.rows)).expect("write csv");
        println!("wrote {path}");
    }
}
