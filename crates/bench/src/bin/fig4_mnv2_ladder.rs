//! Regenerates Figure 4: the MobileNetV2 1x1 CONV_2D ladder on Arty.
//!
//! Usage: `fig4_mnv2_ladder [--input-hw N] [--threads N]` (default
//! input 96, the paper's resolution; use 32 or 48 for a quick look).
//! With `--threads N` the ladder runs through the parallel DSE engine
//! (byte-identical rows, steps evaluated on N workers, a live step
//! counter on stderr).
//!
//! `--store PATH` persists every freshly simulated ladder step to an
//! append-only result store at PATH; `--resume` additionally hydrates
//! prior results from it, so a warm re-run performs zero simulations
//! while printing byte-identical rows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cfu_dse::{ResultStore, StudyStore};
use cfu_sim::CpuConfig;

fn main() {
    let mut input_hw = 96;
    let mut full_width = false;
    let mut csv_path: Option<String> = None;
    let mut svg_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut store_path: Option<String> = None;
    let mut resume = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--input-hw" => {
                input_hw =
                    args.next().and_then(|v| v.parse().ok()).expect("--input-hw needs an integer");
            }
            "--full-width" => full_width = true,
            "--csv" => {
                csv_path = Some(args.next().expect("--csv needs a path"));
            }
            "--svg" => {
                svg_path = Some(args.next().expect("--svg needs a path"));
            }
            "--threads" => {
                threads = Some(
                    args.next().and_then(|v| v.parse().ok()).expect("--threads needs an integer"),
                );
            }
            "--store" => {
                store_path = Some(args.next().expect("--store needs a path"));
            }
            "--resume" => resume = true,
            other => {
                eprintln!("unknown flag {other}; supported: --input-hw N --full-width --csv PATH --svg PATH --threads N --store PATH --resume");
                std::process::exit(2);
            }
        }
    }
    if resume && store_path.is_none() {
        eprintln!("--resume requires --store PATH");
        std::process::exit(2);
    }
    let cpu = CpuConfig::arty_default();
    let store = store_path.as_deref().map(|path| {
        let file = ResultStore::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open result store {path}: {e}");
            std::process::exit(2);
        });
        let ctx = cfu_bench::fig4::store_context(cpu, input_hw, full_width);
        Arc::new(StudyStore::new(Arc::new(file), ctx).with_resume(resume))
    });
    let width = if full_width { "1.0" } else { "0.35" };
    println!("Figure 4 — MobileNetV2 (width {width}) 1x1 CONV_2D ladder (Arty A7-35T, {input_hw}x{input_hw} input)");
    println!("paper reference speedups: SW 2.0x, CFU postproc 2.3x, CFU MAC4 9.8x,");
    println!("MAC4Run1 26x, Incl postproc 31.1x, Overlap input 55x; overall MNV2 3x\n");
    let rows = match (threads, &store) {
        (Some(n), _) => {
            // Live step counter on stderr (stdout stays byte-identical
            // to the serial driver); quick runs finish before a tick.
            let total = cfu_bench::fig4::ladder_len();
            let progress = Arc::new(AtomicU64::new(0));
            let watched = Arc::clone(&progress);
            cfu_bench::with_progress(
                move || watched.load(Ordering::Relaxed),
                |snap| format!("{snap}/{total} ladder steps"),
                || {
                    cfu_bench::fig4::run_ladder_parallel_stored(
                        cpu,
                        input_hw,
                        full_width,
                        n,
                        Some(progress),
                        store.clone(),
                    )
                },
            )
        }
        // A store without --threads still routes through the engine
        // (one worker): the engine and serial drivers are pinned
        // byte-identical, and only the engine records into the store.
        (None, Some(_)) => cfu_bench::fig4::run_ladder_parallel_stored(
            cpu,
            input_hw,
            full_width,
            1,
            None,
            store.clone(),
        ),
        (None, None) => cfu_bench::fig4::run_ladder_configured(cpu, input_hw, full_width),
    };
    if let (Some(path), Some(handle)) = (&store_path, &store) {
        eprintln!(
            "store: {path}: {} prior result(s) loaded, {} new result(s) appended",
            handle.hydrated(),
            handle.appended()
        );
    }
    print!("{}", cfu_bench::fig4::render(&rows));
    if let Some(path) = csv_path {
        std::fs::write(&path, cfu_bench::fig4::to_csv(&rows)).expect("write csv");
        println!("\nwrote {path}");
    }
    if let Some(path) = svg_path {
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
