//! Golden-fixture check for the figure CSVs.
//!
//! `tests/golden/` pins what the figure binaries write:
//! `fig4_mnv2_ladder --input-hw 16 --csv`, plus the default
//! `fig6_kws_ladder --csv` and `table_energy_ladder --csv`. Simulator
//! speedups must leave every published number unchanged, so the fig4
//! ladder is regenerated here and byte-compared; the two slower ones are
//! diffed against the release binaries in CI.

use cfu_bench::fig4;

#[test]
fn fig4_16x16_ladder_matches_golden_csv() {
    let csv = fig4::to_csv(&fig4::run_ladder(16, false));
    assert_eq!(csv, include_str!("golden/fig4_mnv2_ladder_hw16.csv"));
}
