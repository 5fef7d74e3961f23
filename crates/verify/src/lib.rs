//! # pst-verify — certifying checks for the PST pipeline
//!
//! The paper's claims are structural: SESE regions satisfy dominance,
//! postdominance, and cycle equivalence (Definition, Theorem 2);
//! canonical regions nest into a tree (Theorem 1); control regions
//! coincide with node cycle equivalence (Theorem 7); PST-driven
//! φ-placement equals the classical one (Theorem 9). This crate makes
//! those claims *checkable at runtime*: each stage gets an independent
//! checker that re-derives the invariant via a slow oracle or a baseline
//! algorithm and reports violations as data ([`ViolationReport`]) rather
//! than panics.
//!
//! The `fault-inject` feature adds seeded artifact corruptions
//! (`FaultPlan`) whose sole purpose is to prove in tests that every
//! checker actually fires — a checker that cannot be tripped is a
//! tautology, not a check.
//!
//! ```
//! use pst_cfg::parse_edge_list;
//! use pst_verify::{compute_artifacts_for_cfg, verify_artifacts, VerifyConfig};
//! let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
//! let artifacts = compute_artifacts_for_cfg(&cfg);
//! let report = verify_artifacts(&artifacts, &VerifyConfig::default());
//! assert!(report.is_clean(), "{report}");
//! ```

mod checkers;
#[cfg(feature = "fault-inject")]
mod fault;
mod pipeline;
mod report;
mod strong_oracle;

pub use checkers::{
    check_control_regions, check_cycle_equiv, check_dod, check_ntscd, check_phi, check_pst,
    check_sese,
};
#[cfg(feature = "fault-inject")]
pub use fault::{inject, FaultKind, FaultPlan};
pub use pipeline::{
    compute_artifacts, compute_artifacts_for_cfg, synthetic_function, verify_artifacts,
    verify_strong_on_digraph, PipelineArtifacts, VerifyConfig, DEFAULT_ORACLE_BUDGET,
};
pub use report::{CheckerId, VerifyReport, ViolationReport, MAX_RECORDED_VIOLATIONS};

#[cfg(test)]
mod tests {
    use super::*;
    use pst_cfg::parse_edge_list;

    #[test]
    fn paper_figure_pipeline_is_clean() {
        let cfg = parse_edge_list(
            "0->1 1->2 2->3 2->4 3->5 4->5 5->6 6->7 7->6 6->8 8->9 8->10 9->11 10->11 11->8 8->12 12->13",
        )
        .unwrap();
        let artifacts = compute_artifacts_for_cfg(&cfg);
        let report = verify_artifacts(&artifacts, &VerifyConfig::default());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.reports.len(), CheckerId::ALL.len());
    }

    #[test]
    fn tiny_budget_is_inconclusive_not_failed() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let artifacts = compute_artifacts_for_cfg(&cfg);
        let config = VerifyConfig {
            budget: pst_cfg::Budget::steps(1),
        };
        let report = verify_artifacts(&artifacts, &config);
        assert!(report.is_clean(), "{report}");
        assert_eq!(
            report.exhausted_checkers(),
            vec![CheckerId::CycleEquiv, CheckerId::Ntscd, CheckerId::Dod]
        );
    }

    #[test]
    fn degenerate_single_edge_cfg_is_clean() {
        let cfg = parse_edge_list("0->1").unwrap();
        let artifacts = compute_artifacts_for_cfg(&cfg);
        let report = verify_artifacts(&artifacts, &VerifyConfig::default());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn hand_corrupted_phi_is_caught_without_fault_feature() {
        use pst_ssa::PhiPlacement;
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
        let mut artifacts = compute_artifacts_for_cfg(&cfg);
        // The diamond join at node 3 needs φs; erase them all.
        let empty: Vec<Vec<pst_cfg::NodeId>> = vec![Vec::new(); artifacts.function.var_count()];
        artifacts.phi = PhiPlacement::from_lists(empty);
        let report = verify_artifacts(&artifacts, &VerifyConfig::default());
        assert!(!report.is_clean());
        assert!(report.failing_checkers().contains(&CheckerId::Phi));
    }
}
