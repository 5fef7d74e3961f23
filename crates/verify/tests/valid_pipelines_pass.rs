//! Checker completeness on *correct* pipelines: no checker may ever flag
//! an unfaulted run, across random valid CFGs and the structured corpus.

use proptest::prelude::*;
use pst_verify::{
    compute_artifacts_for_cfg, verify_artifacts, verify_strong_on_digraph, VerifyConfig,
};
use pst_workloads::{
    diamond_ladder, irreducible_mesh, linear_chain, nested_repeat_until, nested_while_loops,
    random_cfg, random_digraph, DigraphConfig,
};

fn assert_clean(cfg: &pst_cfg::Cfg, what: &str) {
    let artifacts = compute_artifacts_for_cfg(cfg);
    let report = verify_artifacts(&artifacts, &VerifyConfig::default());
    assert!(
        report.is_clean(),
        "{what}: checkers flagged a correct pipeline:\n{report}"
    );
    assert!(
        report.exhausted_checkers().is_empty(),
        "{what}: default budget must cover test-sized graphs"
    );
}

#[test]
fn structured_corpus_passes_all_checkers() {
    assert_clean(&linear_chain(12), "linear_chain(12)");
    assert_clean(&diamond_ladder(5), "diamond_ladder(5)");
    assert_clean(&nested_while_loops(4), "nested_while_loops(4)");
    assert_clean(&nested_repeat_until(4), "nested_repeat_until(4)");
    assert_clean(&irreducible_mesh(3), "irreducible_mesh(3)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every valid random CFG passes every checker.
    #[test]
    fn random_valid_cfgs_pass_all_checkers(
        n in 3usize..24,
        extra in 0usize..16,
        seed in 0u64..1_000_000,
    ) {
        let cfg = random_cfg(n, extra, seed).expect("random_cfg repairs to validity");
        assert_clean(&cfg, &format!("random_cfg({n}, {extra}, {seed})"));
    }

    /// The NTSCD/DOD oracles agree with the fast algorithms on raw,
    /// non-canonicalized digraphs — unreachable nodes, inescapable
    /// loops, multiple exits, and self-loops all left in place. This is
    /// exactly the input class where strong control dependence differs
    /// from the classic relation.
    #[test]
    fn strong_checkers_pass_on_raw_digraphs(
        n in 2usize..20,
        extra in 0usize..24,
        seed in 0u64..1_000_000,
        degenerate in 0u8..16,
    ) {
        let config = DigraphConfig {
            nodes: n,
            edges: n + extra,
            force_entry_predecessor: degenerate & 1 != 0,
            force_unreachable: degenerate & 2 != 0,
            force_infinite_loop: degenerate & 4 != 0,
            force_multiple_exits: degenerate & 8 != 0,
            force_self_loop: degenerate & 1 != 0,
        };
        let (graph, entry) = random_digraph(&config, seed);
        let canonical = pst_cfg::canonicalize(&graph, entry, &Default::default()).unwrap();
        let analysis = pst_analysis::Analysis::of_graph(&graph, &canonical);
        let report = verify_strong_on_digraph(&analysis, &VerifyConfig::default());
        prop_assert!(report.is_clean(), "digraph({n}, {extra}, {seed}, {degenerate}):\n{report}");
        prop_assert!(report.exhausted_checkers().is_empty());
    }
}
