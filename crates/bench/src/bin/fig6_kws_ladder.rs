//! Regenerates Figure 6: the Keyword-Spotting ladder on Fomu.
//!
//! Usage: `fig6_kws_ladder [--csv PATH] [--svg PATH] [--threads N]
//! [--store PATH] [--resume]`. With `--threads N` the ladder runs
//! through the parallel DSE engine (byte-identical rows, steps
//! evaluated on N workers, a live step counter on stderr). `--store
//! PATH` persists every freshly simulated step to an append-only
//! result store; `--resume` additionally hydrates prior results from
//! it, so a warm re-run performs zero simulations while printing
//! byte-identical rows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cfu_dse::{ResultStore, StudyStore};

fn main() {
    let (csv_path, svg_path, threads, store_path, resume) = {
        let mut args = std::env::args().skip(1);
        let (mut csv, mut svg, mut threads) = (None, None, None);
        let (mut store, mut resume) = (None, false);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--csv" => csv = args.next(),
                "--svg" => svg = args.next(),
                "--threads" => {
                    threads = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--threads needs an integer"),
                    );
                }
                "--store" => store = Some(args.next().expect("--store needs a path")),
                "--resume" => resume = true,
                _ => {}
            }
        }
        (csv, svg, threads, store, resume)
    };
    if resume && store_path.is_none() {
        eprintln!("--resume requires --store PATH");
        std::process::exit(2);
    }
    let store = store_path.as_deref().map(|path| {
        let file = ResultStore::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open result store {path}: {e}");
            std::process::exit(2);
        });
        let ctx = cfu_bench::fig6::store_context();
        Arc::new(StudyStore::new(Arc::new(file), ctx).with_resume(resume))
    });
    println!("Figure 6 — MLPerf Tiny KWS (DS-CNN) ladder on Fomu (iCE40UP5k, 12 MHz)");
    println!("paper reference: QuadSPI 3.04x, SRAM Ops+Model 7.84x, Larger Icache 8.3x,");
    println!("Fast Mult 15.35x, MAC Conv 32.10x, Post Proc 37.64x, final 75x");
    println!("(baseline 2.5 min -> <2 s; only ~3x of the 75x from the CFU itself)\n");
    let rows = match (threads, &store) {
        (Some(n), _) => {
            // Live step counter on stderr (stdout stays byte-identical
            // to the serial driver); quick runs finish before a tick.
            let total = cfu_bench::fig6::ladder_len();
            let progress = Arc::new(AtomicU64::new(0));
            let watched = Arc::clone(&progress);
            cfu_bench::with_progress(
                move || watched.load(Ordering::Relaxed),
                |snap| format!("{snap}/{total} ladder steps"),
                || cfu_bench::fig6::run_ladder_parallel_stored(n, Some(progress), store.clone()),
            )
        }
        // A store without --threads still routes through the engine
        // (one worker): the engine and serial drivers are pinned
        // byte-identical, and only the engine records into the store.
        (None, Some(_)) => cfu_bench::fig6::run_ladder_parallel_stored(1, None, store.clone()),
        (None, None) => cfu_bench::fig6::run_ladder(),
    };
    if let (Some(path), Some(handle)) = (&store_path, &store) {
        eprintln!(
            "store: {path}: {} prior result(s) loaded, {} new result(s) appended",
            handle.hydrated(),
            handle.appended()
        );
    }
    print!("{}", cfu_bench::fig6::render(&rows));
    if let Some(path) = &csv_path {
        std::fs::write(path, cfu_bench::fig6::to_csv(&rows)).expect("write csv");
        println!("wrote {path}");
    }
    if let Some(path) = &svg_path {
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
