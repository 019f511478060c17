//! The four workloads: one paper-artifact binary each, at default
//! settings, with the output checks and fidelity metrics of its CSV.

use cfu_bench::fig6::Fig6Step;
use cfu_dse::{CfuChoice, Fig7CurveSpace, SearchSpace};
use cfu_tflm::kernels::conv1x1::Conv1x1Variant;

use crate::fidelity::{hypervolume, logerr, Table};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig4Mnv2,
    Fig6Kws,
    EnergyKws,
    Fig7Dse,
}

/// Figure 7's curves, in the order the binary writes them.
pub const CURVES: [CfuChoice; 3] = [CfuChoice::None, CfuChoice::Cfu1, CfuChoice::Cfu2];

/// Fig. 4 operator speedups the paper reports, by ladder step.
const FIG4_PAPER: [(&str, f64); 6] = [
    ("SW", 2.0),
    ("CFU postproc", 2.3),
    ("CFU MAC4", 9.8),
    ("MAC4Run1", 26.0),
    ("Incl postproc", 31.1),
    ("Overlap input", 55.0),
];

/// The paper's overall MobileNetV2 speedup with only the 1x1 operator
/// accelerated, compared against the last ladder row.
const FIG4_PAPER_OVERALL: f64 = 3.0;

/// Fig. 6 cumulative speedups the paper reports, by ladder step.
const FIG6_PAPER: [(&str, f64); 7] = [
    ("QuadSPI", 3.04),
    ("SRAM Ops and Model", 7.84),
    ("Larger Icache", 8.3),
    ("Fast Mult", 15.35),
    ("MAC Conv", 32.10),
    ("Post Proc", 37.64),
    ("SW specialize", 75.0),
];

/// The only number the paper gives for Fig. 7: its design space holds
/// about 93,000 points.
const FIG7_PAPER_SPACE: f64 = 93_000.0;

/// What one artifact CSV says about fidelity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Mean |ln(measured / paper)| over the paper's reported values.
    pub paper_logerr: f64,
    /// Hypervolume dominated by the artifact's designs in the (cost,
    /// log10 cycles) plane.
    pub front_hv: f64,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Fig4Mnv2, Workload::Fig6Kws, Workload::EnergyKws, Workload::Fig7Dse];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Mnv2 => "fig4-mnv2",
            Workload::Fig6Kws => "fig6-kws",
            Workload::EnergyKws => "energy-kws",
            Workload::Fig7Dse => "fig7-dse",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The figure binary the workload runs.
    pub fn binary(self) -> &'static str {
        match self {
            Workload::Fig4Mnv2 => "fig4_mnv2_ladder",
            Workload::Fig6Kws => "fig6_kws_ladder",
            Workload::EnergyKws => "table_energy_ladder",
            Workload::Fig7Dse => "fig7_dse_pareto",
        }
    }

    /// Checks the CSV's header and rows and derives its fidelity
    /// metrics.
    pub fn check(self, csv: &str) -> Result<Fidelity, String> {
        match self {
            Workload::Fig4Mnv2 => fig4(csv),
            Workload::Fig6Kws => fig6(csv),
            Workload::EnergyKws => energy(csv),
            Workload::Fig7Dse => fig7(csv),
        }
    }
}

fn log10_all(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| v.log10()).collect()
}

/// Pairs each paper value with the measured value of the same step.
fn pair(table: &Table, measured: &[f64], paper: &[(&str, f64)]) -> Vec<(f64, f64)> {
    let labels = table.labels();
    paper
        .iter()
        .filter_map(|&(step, p)| labels.iter().position(|&l| l == step).map(|i| (measured[i], p)))
        .collect()
}

fn fig4(csv: &str) -> Result<Fidelity, String> {
    let table = Table::parse(
        csv,
        "step,conv1x1_cycles,operator_speedup,total_cycles,overall_speedup,cfu_luts,cfu_dsps",
    )?;
    let labels: Vec<&str> = Conv1x1Variant::LADDER.iter().map(|v| v.label()).collect();
    table.expect_labels(&labels)?;
    let mut pairs = pair(&table, &table.numbers("operator_speedup")?, &FIG4_PAPER);
    let overall = table.numbers("overall_speedup")?;
    pairs.push((overall[overall.len() - 1], FIG4_PAPER_OVERALL));
    let cycles = log10_all(&table.numbers("total_cycles")?);
    let cells = table.numbers("cfu_luts")?;
    let points: Vec<(f64, f64)> = cells.into_iter().zip(cycles).collect();
    Ok(Fidelity { paper_logerr: logerr(&pairs)?, front_hv: hypervolume(&points, (6000.0, 9.0)) })
}

fn fig6_labels() -> Vec<&'static str> {
    Fig6Step::LADDER.iter().map(|s| s.label()).collect()
}

fn fig6(csv: &str) -> Result<Fidelity, String> {
    let table = Table::parse(csv, "step,cycles,seconds,speedup,luts,dsps,fits")?;
    table.expect_labels(&fig6_labels())?;
    let pairs = pair(&table, &table.numbers("speedup")?, &FIG6_PAPER);
    let cycles = log10_all(&table.numbers("cycles")?);
    let points: Vec<(f64, f64)> = table.numbers("luts")?.into_iter().zip(cycles).collect();
    Ok(Fidelity { paper_logerr: logerr(&pairs)?, front_hv: hypervolume(&points, (6000.0, 10.0)) })
}

fn energy(csv: &str) -> Result<Fidelity, String> {
    let table = Table::parse(csv, "step,cycles,total_uj,dynamic_uj,avg_mw,edp_ujs")?;
    table.expect_labels(&fig6_labels())?;
    // The energy table runs the Figure 6 ladder, so its cycle column
    // answers to the same paper speedups.
    let cycles = table.numbers("cycles")?;
    let speedups: Vec<f64> = cycles.iter().map(|c| cycles[0] / c).collect();
    let pairs = pair(&table, &speedups, &FIG6_PAPER);
    let energy = log10_all(&table.numbers("total_uj")?);
    let points: Vec<(f64, f64)> = energy.into_iter().zip(log10_all(&cycles)).collect();
    Ok(Fidelity { paper_logerr: logerr(&pairs)?, front_hv: hypervolume(&points, (5.0, 10.0)) })
}

fn fig7(csv: &str) -> Result<Fidelity, String> {
    let table = Table::parse(csv, "curve,logic_cells,cycles")?;
    let mut curve = 0;
    for label in table.labels() {
        while CURVES.get(curve).is_some_and(|c| c.label() != label) {
            curve += 1;
        }
        if curve == CURVES.len() {
            return Err(format!("unexpected or out-of-order curve {label:?}"));
        }
    }
    for c in CURVES {
        if !table.labels().contains(&c.label()) {
            return Err(format!("curve {:?} has no point", c.label()));
        }
    }
    let cycles = log10_all(&table.numbers("cycles")?);
    let points: Vec<(f64, f64)> = table.numbers("logic_cells")?.into_iter().zip(cycles).collect();
    let space: u64 = CURVES.iter().map(|&c| Fig7CurveSpace::new(c).size()).sum();
    Ok(Fidelity {
        paper_logerr: logerr(&[(space as f64, FIG7_PAPER_SPACE)])?,
        front_hv: hypervolume(&points, (6000.0, 9.0)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // CSVs written by the figure binaries at default settings.
    const FIG4_CSV: &str = "\
step,conv1x1_cycles,operator_speedup,total_cycles,overall_speedup,cfu_luts,cfu_dsps
Baseline,330849968,1.0000,449787374,1.0000,0,0
SW,134483740,2.4601,253421146,1.7749,0,0
CFU postproc,123466506,2.6797,242404057,1.8555,460,0
CFU hold filt,42209491,7.8383,161147042,2.7912,490,0
CFU hold inp,42325419,7.8168,161262970,2.7892,700,0
CFU MAC4,12343443,26.8037,131280994,3.4261,804,4
MAC4Run1,6740567,49.0834,125678118,3.5789,1014,4
Incl postproc,6428975,51.4623,125366526,3.5878,714,4
Macc4Run4,5500599,60.1480,124438150,3.6145,804,4
Overlap input,5167829,64.0211,124105529,3.6242,874,4
";

    const FIG6_CSV: &str = "\
step,cycles,seconds,speedup,luts,dsps,fits
Baseline,3817351815,318.1127,1.0000,4350,0,true
QuadSPI,1186237527,98.8531,3.2180,4410,0,true
SRAM Ops and Model,304949235,25.4124,12.5180,4410,0,true
Larger Icache,209663071,17.4719,18.2071,4790,0,true
Fast Mult,115596835,9.6331,33.0230,4720,4,true
MAC Conv,38907534,3.2423,98.1134,4914,8,true
Post Proc,36178752,3.0149,105.5136,5254,8,true
SW specialize,17781674,1.4818,214.6790,5254,8,true
";

    #[test]
    fn paper_logerr_on_the_default_figure_csvs() {
        let fig4 = Workload::Fig4Mnv2.check(FIG4_CSV).expect("valid fig4 CSV");
        assert!((fig4.paper_logerr - 0.4066).abs() < 5e-5, "fig4 {}", fig4.paper_logerr);
        let fig6 = Workload::Fig6Kws.check(FIG6_CSV).expect("valid fig6 CSV");
        assert!((fig6.paper_logerr - 0.7537).abs() < 5e-5, "fig6 {}", fig6.paper_logerr);
    }

    #[test]
    fn checks_reject_wrong_steps_and_empty_curves() {
        let reordered = FIG6_CSV.replace("QuadSPI", "Quad SPI");
        assert!(Workload::Fig6Kws.check(&reordered).is_err());
        let truncated: String = FIG4_CSV.lines().take(5).map(|l| format!("{l}\n")).collect();
        assert!(Workload::Fig4Mnv2.check(&truncated).is_err());
        let no_cfu2 =
            "curve,logic_cells,cycles\nCPU alone,3240,229361441\nCPU + CFU1,4114,35557991\n";
        assert!(Workload::Fig7Dse.check(no_cfu2).is_err());
        let out_of_order =
            "curve,logic_cells,cycles\nCPU + CFU1,4114,3\nCPU alone,3240,2\nCPU + CFU2,3774,3\n";
        assert!(Workload::Fig7Dse.check(out_of_order).is_err());
        let ok = "curve,logic_cells,cycles\nCPU alone,3240,229361441\nCPU + CFU1,4114,35557991\nCPU + CFU2,3774,37486243\n";
        assert!(Workload::Fig7Dse.check(ok).is_ok());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("fig5"), None);
    }
}
