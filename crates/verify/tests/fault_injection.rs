//! Checker *soundness*: every injected fault must be caught, and each
//! fault kind must trip the checker it was designed for. Compiled only
//! with `--features fault-inject`.
#![cfg(feature = "fault-inject")]

use proptest::prelude::*;
use pst_verify::{
    compute_artifacts_for_cfg, inject, verify_artifacts, FaultKind, FaultPlan, VerifyConfig,
};
use pst_workloads::random_cfg;

/// A CFG rich enough that every fault kind applies: nested loops and
/// branches give multi-edge cycle-equivalence classes, several PST
/// regions, multiple control regions, and φ sites.
fn rich_cfg() -> pst_cfg::Cfg {
    pst_cfg::parse_edge_list(
        "0->1 1->2 2->3 2->4 3->5 4->5 5->6 6->7 7->6 6->8 8->9 8->10 9->11 10->11 11->8 8->12 12->13",
    )
    .unwrap()
}

/// Each fault kind, applied to the rich CFG, trips its intended checker.
#[test]
fn every_fault_kind_trips_its_intended_checker() {
    for kind in FaultKind::ALL {
        let mut hit = false;
        // A handful of seeds: some picks may corrupt in ways that other
        // checkers also notice, but the intended one must fire for each.
        for seed in 0..8u64 {
            let mut artifacts = compute_artifacts_for_cfg(&rich_cfg());
            let plan = FaultPlan { kind, seed };
            let Some(what) = inject(&mut artifacts, &plan) else {
                panic!("{kind} must apply to the rich CFG (seed {seed})");
            };
            let report = verify_artifacts(&artifacts, &VerifyConfig::default());
            assert!(
                !report.is_clean(),
                "{kind} (seed {seed}, {what}) went undetected"
            );
            assert!(
                report.failing_checkers().contains(&kind.intended_checker()),
                "{kind} (seed {seed}, {what}) was caught by {:?}, not its intended checker {}",
                report.failing_checkers(),
                kind.intended_checker(),
            );
            hit = true;
        }
        assert!(hit);
    }
}

/// Fault names round-trip (the CLI parses them back from `--inject-fault`).
#[test]
fn fault_names_round_trip() {
    for kind in FaultKind::ALL {
        assert_eq!(FaultKind::from_name(kind.name()), Some(kind));
    }
    assert_eq!(FaultKind::from_name("no-such-fault"), None);
}

/// Inapplicable faults leave the artifacts untouched and clean.
#[test]
fn inapplicable_faults_do_not_corrupt() {
    // A single-edge CFG: one cycle-equivalence class of interest, no
    // canonical regions to reparent, no φ sites, one control region.
    let cfg = pst_cfg::parse_edge_list("0->1").unwrap();
    for kind in [
        FaultKind::ReparentRegion,
        FaultKind::DropPhiSite,
        FaultKind::MergeControlRegions,
    ] {
        let mut artifacts = compute_artifacts_for_cfg(&cfg);
        let applied = inject(&mut artifacts, &FaultPlan { kind, seed: 0 });
        assert!(applied.is_none(), "{kind} cannot apply to a single edge");
        let report = verify_artifacts(&artifacts, &VerifyConfig::default());
        assert!(
            report.is_clean(),
            "inapplicable {kind} corrupted state:\n{report}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On arbitrary valid CFGs, any fault that applies is detected by at
    /// least one checker — and the intended checker is among them.
    #[test]
    fn injected_faults_never_go_undetected(
        n in 4usize..20,
        extra in 2usize..14,
        cfg_seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        kind_index in 0usize..FaultKind::ALL.len(),
    ) {
        let kind = FaultKind::ALL[kind_index];
        let cfg = random_cfg(n, extra, cfg_seed).expect("random_cfg repairs to validity");
        let mut artifacts = compute_artifacts_for_cfg(&cfg);
        let plan = FaultPlan { kind, seed: fault_seed };
        if let Some(what) = inject(&mut artifacts, &plan) {
            let report = verify_artifacts(&artifacts, &VerifyConfig::default());
            prop_assert!(
                !report.is_clean(),
                "{} ({}) went undetected on random_cfg({}, {}, {})",
                kind, what, n, extra, cfg_seed
            );
            prop_assert!(
                report.failing_checkers().contains(&kind.intended_checker()),
                "{} ({}) missed by its intended checker {} on random_cfg({}, {}, {}); caught by {:?}",
                kind, what, kind.intended_checker(), n, extra, cfg_seed,
                report.failing_checkers()
            );
        }
    }
}
