//! Golden-fixture check for the figure CSVs.
//!
//! `tests/golden/` pins what the figure binaries write:
//! `fig4_mnv2_ladder --input-hw 16 --csv`,
//! `fig7_dse_pareto --trials 8 --input-hw 8 --csv`, plus the default
//! `fig6_kws_ladder --csv`, `table_energy_ladder --csv` and
//! `fig7_dse_pareto --csv`. Simulator speedups must leave every published
//! number unchanged, so the two small ones are regenerated here and
//! byte-compared; the slower defaults are diffed against the release
//! binaries in CI.

use cfu_bench::{fig4, fig7};

#[test]
fn fig4_16x16_ladder_matches_golden_csv() {
    let csv = fig4::to_csv(&fig4::run_ladder(16, false));
    assert_eq!(csv, include_str!("golden/fig4_mnv2_ladder_hw16.csv"));
}

#[test]
fn fig7_small_sweep_matches_golden_csv() {
    let cfg = fig7::Fig7Config { trials: 8, input_hw: 8, ..fig7::Fig7Config::default() };
    let csv = fig7::to_csv(&fig7::run_all(&cfg));
    assert_eq!(csv, include_str!("golden/fig7_dse_pareto_trials8_hw8.csv"));
}
