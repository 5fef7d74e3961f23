//! Property tests for the strong-control-dependence subsystem.
//!
//! The headline theorem: NTSCD collapses to classic control dependence
//! exactly on the guaranteed-termination class of CFGs. On a valid
//! Definition-1 CFG every node reaches the exit, so "every maximal
//! path reaches exit" is equivalent to *acyclicity* — any cycle can be
//! pumped into an infinite maximal path (see docs/CONTROLDEP.md). We
//! therefore canonicalize random DAGs (canonicalization only adds
//! entry/exit plumbing edges, never a cycle) and assert the relations
//! coincide node-for-node. On general CFGs we assert the documented
//! containments instead: classic deps that postdominance grants are a
//! projection NTSCD can disagree with only around loops, and DOD is
//! empty on every valid CFG.

use proptest::prelude::*;
use pst_cfg::{canonicalize, CanonicalizeOptions, Graph};
use pst_controldep::{Dod, StrongControlDeps};

/// Deterministic LCG so the DAG generator needs no rand dependency.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A random DAG: nodes `0..n`, edges only forward (`i -> j`, `i < j`),
/// so every maximal path is finite.
fn random_dag(n: usize, extra: usize, seed: u64) -> Graph {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut g = Graph::new();
    let nodes = g.add_nodes(n);
    // A spine keeps most of the graph reachable.
    for i in 0..n - 1 {
        if !next(&mut state).is_multiple_of(4) {
            g.add_edge(nodes[i], nodes[i + 1]);
        }
    }
    for _ in 0..extra {
        let i = (next(&mut state) as usize) % (n - 1);
        let j = i + 1 + (next(&mut state) as usize) % (n - i - 1);
        g.add_edge(nodes[i], nodes[j]);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// On canonicalized acyclic CFGs — the class where every maximal
    /// path reaches the exit — NTSCD and classic control dependence
    /// are the same relation, so the strong subsystem degrades
    /// gracefully to the paper's weak one.
    #[test]
    fn ntscd_equals_classic_on_guaranteed_termination_cfgs(
        n in 2usize..20,
        extra in 0usize..30,
        seed in 0u64..10_000,
    ) {
        let dag = random_dag(n, extra, seed);
        let entry = dag.nodes().next().expect("nonempty");
        let canon = canonicalize(&dag, entry, &CanonicalizeOptions::default())
            .expect("DAGs always canonicalize");
        let cfg = &canon.cfg;
        let strong = StrongControlDeps::of_cfg(cfg);
        let classic = strong.classic().expect("CFG input has classic deps");
        for node in cfg.graph().nodes() {
            prop_assert_eq!(
                strong.ntscd().deps_of(node),
                classic.deps_of(node),
                "node {:?}", node
            );
        }
        prop_assert!(strong.dod().is_empty());
    }

    /// On arbitrary valid CFGs (loops included) DOD has no witnesses:
    /// a witness pins both orders of a pair inside one SCC, which the
    /// always-reachable exit makes impossible.
    #[test]
    fn dod_is_empty_on_valid_cfgs(n in 3usize..24, extra in 0usize..24, seed in 0u64..10_000) {
        let cfg = pst_workloads::random_cfg(n, extra, seed).unwrap();
        let dod = Dod::compute(cfg.graph());
        prop_assert!(dod.is_complete());
        prop_assert!(dod.is_empty(), "witnesses: {:?}", dod.witnesses());
    }

    /// The strong-region partition groups nodes by identical NTSCD
    /// sets — re-derive it definitionally on random CFGs.
    #[test]
    fn strong_regions_match_ntscd_sets(n in 3usize..20, extra in 0usize..20, seed in 0u64..5_000) {
        let cfg = pst_workloads::random_cfg(n, extra, seed).unwrap();
        let strong = StrongControlDeps::of_cfg(&cfg);
        for a in cfg.graph().nodes() {
            for b in cfg.graph().nodes() {
                let same_sets = strong.ntscd().deps_of(a) == strong.ntscd().deps_of(b);
                prop_assert_eq!(strong.regions().same_region(a, b), same_sets);
            }
        }
    }
}
