//! Smoke tests pinning the paper's qualitative claims (the figure
//! harnesses regenerate the full numbers; these keep the *shape* from
//! regressing).

use cfu_bench::{fig4, fig6, fig7, RunSpec};
use cfu_dse::CfuChoice;

/// Figure 4 shape at reduced scale: every CFU step at least holds the
/// line (the hold-inp step is allowed to be a wash), the MAC4 step is a
/// big jump, and the final step is a large multiple of the baseline.
#[test]
fn fig4_ladder_shape_holds_at_small_scale() {
    let rows = fig4::run(&RunSpec::default(), 16, false).rows;
    assert_eq!(rows.len(), 10);
    assert!((rows[0].operator_speedup - 1.0).abs() < 1e-9);
    // SW specialization ≈ 2x (paper 2.0x).
    assert!(rows[1].operator_speedup > 1.5, "SW step: {:?}", rows[1]);
    // Monotone within 25% slack (hold-inp may regress slightly).
    for w in rows.windows(2) {
        assert!(
            w[1].conv1x1_cycles < w[0].conv1x1_cycles + w[0].conv1x1_cycles / 4,
            "{} regressed vs {}",
            w[1].label,
            w[0].label
        );
    }
    // The MAC4 step is the largest single jump among the CFU steps,
    // mirroring the paper's 4.01x -> 9.8x leap.
    let mac4_gain = rows[5].operator_speedup / rows[4].operator_speedup;
    assert!(mac4_gain > 1.8, "MAC4 gain {mac4_gain}");
    // Final step is a large multiple of baseline even at tiny scale.
    let final_speedup = rows.last().unwrap().operator_speedup;
    assert!(final_speedup > 8.0, "final {final_speedup}");
    // Resource curve: peaks midway, dips after integration (Figure 4's
    // second axis).
    let luts: Vec<u32> = rows.iter().map(|r| r.cfu_resources.luts).collect();
    let peak = luts.iter().copied().max().unwrap();
    assert!(luts[7] < peak, "Incl postproc must be below the peak: {luts:?}");
}

/// Figure 6 shape on the real DS-CNN (slow-ish; run in release for
/// comfort): QuadSPI ≈ 3x, memory+CPU steps stack, the CFU contributes a
/// small multiple, and the final design is hundreds of times faster with
/// everything still fitting Fomu.
#[test]
fn fig6_ladder_shape_holds() {
    let rows = fig6::run(&RunSpec::default()).rows;
    assert_eq!(rows.len(), 8);
    // QuadSPI ~3x (paper 3.04x).
    assert!((2.0..5.0).contains(&rows[1].speedup), "QuadSPI {:?}", rows[1].speedup);
    // Every step fits the board.
    for r in &rows {
        assert!(r.fits, "{} does not fit", r.label);
    }
    // Cumulative speedup is large and the final inference is < 2 s, the
    // paper's headline.
    let last = rows.last().unwrap();
    assert!(last.speedup > 50.0);
    assert!(last.seconds < 2.0, "final inference {}s", last.seconds);
    // The CFU-only contribution (MAC Conv + Post Proc vs Fast Mult) is a
    // small multiple (~3x in the paper), not the bulk of the win.
    let fast_mult = rows.iter().find(|r| r.label == "Fast Mult").unwrap();
    let post_proc = rows.iter().find(|r| r.label == "Post Proc").unwrap();
    let cfu_gain = fast_mult.cycles as f64 / post_proc.cycles as f64;
    assert!((1.5..8.0).contains(&cfu_gain), "CFU-attributable {cfu_gain}");
    // DSPs: none before Fast Mult, all 8 from MAC Conv on.
    assert_eq!(rows[2].dsps, 0);
    assert_eq!(rows.last().unwrap().dsps, 8);
}

/// Figure 7 shape: the CFU curves extend the Pareto front to latencies
/// the CPU-alone curve cannot reach, and the overall optima include CFU
/// points ("CFU designs can create a richer design space").
#[test]
fn fig7_cfu_curves_extend_the_front() {
    let cfg = fig7::Fig7Config {
        input_hw: 16,
        trials: 30,
        evolutionary: false,
        seed: 3,
        ..fig7::Fig7Config::default()
    };
    let spec = RunSpec { threads: Some(2), ..RunSpec::default() };
    let curves = fig7::run(&spec, &cfg).rows;
    assert_eq!(curves.len(), 3);
    let best = |choice: CfuChoice| {
        curves
            .iter()
            .find(|c| c.choice == choice)
            .and_then(|c| c.front.iter().map(|p| p.latency).min())
            .expect("curve has points")
    };
    let cpu_alone = best(CfuChoice::None);
    let cfu1 = best(CfuChoice::Cfu1);
    let cfu2 = best(CfuChoice::Cfu2);
    assert!(cfu1 * 2 < cpu_alone, "CFU1 {cfu1} vs CPU {cpu_alone}");
    assert!(cfu2 < cpu_alone, "CFU2 {cfu2} vs CPU {cpu_alone}");
    // Overall optima span more than one curve.
    let optima = fig7::overall_optima(&curves);
    let labels: std::collections::BTreeSet<_> = optima.iter().map(|(l, _)| *l).collect();
    assert!(labels.len() >= 2, "optima all from one curve: {labels:?}");
}

/// E1: the convolution op types dominate the baseline profile.
#[test]
fn profile_is_convolution_dominated() {
    use cfu_bench::tables;
    use cfu_playground::tflm::model::OpKind;
    let profile = tables::profile_mnv2_baseline(24);
    let conv_share = profile.share_of(OpKind::Conv2d1x1)
        + profile.share_of(OpKind::Conv2d)
        + profile.share_of(OpKind::DepthwiseConv2d);
    assert!(conv_share > 0.9, "conv share {conv_share}");
    // 1x1 is the single largest op type, as in the paper.
    let by_kind = profile.by_kind();
    assert_eq!(by_kind[0].0, OpKind::Conv2d1x1, "{by_kind:?}");
}
