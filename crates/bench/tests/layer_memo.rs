//! Converged-layer fast-forward is exact: every Figure 4 rung run with a
//! shared `LayerMemo` reports exactly what the same rung reports without
//! one, on every counter a figure or profile reads.

use std::sync::Arc;

use cfu_bench::fig4;
use cfu_mem::{CacheConfig, CacheStats, DeviceStats};
use cfu_sim::{CpuConfig, TlmStats};
use cfu_tflm::kernels::conv1x1::Conv1x1Variant;
use cfu_tflm::memo::LayerMemo;
use cfu_tflm::profiler::Profile;
use cfu_tflm::tensor::Tensor;

/// Everything one inference reports.
#[derive(Debug, PartialEq)]
struct Outcome {
    output: Tensor,
    profile: Profile,
    stats: TlmStats,
    icache: Option<CacheStats>,
    dcache: Option<CacheStats>,
    devices: Vec<(String, DeviceStats)>,
}

/// Runs one 16×16 width-0.35 rung under `cpu`, sharing `memo` if given;
/// returns the outcome and whether the memo admitted the deployment.
fn rung(cpu: CpuConfig, variant: Conv1x1Variant, memo: Option<&Arc<LayerMemo>>) -> (Outcome, bool) {
    let (mut dep, input, _) = fig4::deploy_rung(cpu, 16, false, variant);
    let admitted = memo.is_some_and(|m| dep.share_layers(Arc::clone(m)));
    let (output, profile) = dep.run(&input).expect("rung inference");
    let core = dep.core();
    let bus = core.bus();
    let outcome = Outcome {
        output,
        profile,
        stats: core.stats(),
        icache: core.icache_stats(),
        dcache: core.dcache_stats(),
        devices: bus.regions().map(|(id, info)| (info.name.clone(), bus.stats(id))).collect(),
    };
    (outcome, admitted)
}

/// Runs the ladder in order with one memo and checks every rung against
/// a memo-free run; returns the memo.
fn check_ladder(cpu: CpuConfig) -> Arc<LayerMemo> {
    let memo = Arc::new(LayerMemo::new());
    for variant in Conv1x1Variant::LADDER {
        let (live, _) = rung(cpu, variant, None);
        let (memoized, admitted) = rung(cpu, variant, Some(&memo));
        assert!(admitted, "{variant:?}");
        assert_eq!(memoized, live, "{variant:?} under {cpu:?}");
    }
    assert!(memo.fast_forwards() > 0, "the memo must fast-forward something under {cpu:?}");
    memo
}

#[test]
fn every_rung_matches_its_memo_free_run() {
    check_ladder(CpuConfig::arty_default());
}

#[test]
fn every_rung_matches_under_two_way_lru_caches() {
    let two_way = Some(CacheConfig { size_bytes: 4096, ways: 2, line_bytes: 32 });
    check_ladder(CpuConfig { icache: two_way, dcache: two_way, ..CpuConfig::arty_default() });
}

#[test]
fn every_rung_matches_without_an_icache() {
    // Every fetch reaches the timing-stateful DDR3. Each checkpoint must
    // settle the deferred fetches before it reads the core: then the
    // memo converges exactly where it does on a core that fetches op by
    // op, which these counts are. Here an unsettled backlog leaves the
    // walk behind the recorded one, so the state does not match and a
    // dropped settle shows as fewer fast-forwards.
    let memo = check_ladder(CpuConfig { icache: None, ..CpuConfig::arty_default() });
    assert_eq!((memo.fast_forwards(), memo.skipped_instructions()), (68, 18_957_456));
}

#[test]
fn a_memo_from_another_cpu_config_is_refused_and_changes_nothing() {
    let memo = check_ladder(CpuConfig::arty_default());
    let (before, skipped) = (memo.fast_forwards(), memo.skipped_instructions());
    let small = Some(CacheConfig { size_bytes: 2048, ways: 1, line_bytes: 32 });
    let other = CpuConfig { dcache: small, ..CpuConfig::arty_default() };
    for variant in [Conv1x1Variant::SwSpecialized, Conv1x1Variant::CfuMac4] {
        let (live, _) = rung(other, variant, None);
        let (refused, admitted) = rung(other, variant, Some(&memo));
        assert!(!admitted, "{variant:?}");
        assert_eq!(refused, live, "{variant:?}");
    }
    assert_eq!((memo.fast_forwards(), memo.skipped_instructions()), (before, skipped));
}

#[test]
fn cfu_rungs_record_only_their_generic_layers() {
    // The MAC4 rung runs its 1x1 layers on the CFU: only the stem
    // convolution and the depthwise layers (all generic) are recorded.
    let memo = Arc::new(LayerMemo::new());
    let (dep, _, _) =
        fig4::deploy_rung(CpuConfig::arty_default(), 16, false, Conv1x1Variant::CfuMac4);
    let generic = dep
        .model()
        .layers
        .iter()
        .filter(|l| match &l.op {
            cfu_tflm::model::Op::Conv2d(p) => !p.is_pointwise(),
            cfu_tflm::model::Op::DepthwiseConv2d(_) => true,
            _ => false,
        })
        .count();
    rung(CpuConfig::arty_default(), Conv1x1Variant::CfuMac4, Some(&memo));
    assert_eq!(memo.recorded_layers(), generic);
    assert_eq!(memo.fast_forwards(), 0, "a first run only records");
}
