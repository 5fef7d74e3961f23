//! Property tests for the dominator crate against definitional oracles.

use proptest::prelude::*;
use pst_cfg::NodeId;
use pst_dominators::{
    dominance_frontiers, dominator_tree, dominator_tree_in, iterative_dominator_tree, Direction,
    LoopForest,
};
use pst_workloads::random_cfg;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// `a dom b` iff removing `a` makes `b` unreachable from the entry —
    /// the path-based definition, checked by brute force.
    #[test]
    fn dominance_matches_path_definition(n in 3usize..16, extra in 0usize..16, seed in 0u64..10_000) {
        let cfg = random_cfg(n, extra, seed).unwrap();
        let g = cfg.graph();
        let dt = dominator_tree(g, cfg.entry());
        for a in g.nodes() {
            // Reachability avoiding node `a`: BFS that refuses to enter a.
            let mut seen = vec![false; g.node_count()];
            if a != cfg.entry() {
                seen[cfg.entry().index()] = true;
                let mut stack = vec![cfg.entry()];
                while let Some(v) = stack.pop() {
                    for s in g.successors(v) {
                        if s != a && !seen[s.index()] {
                            seen[s.index()] = true;
                            stack.push(s);
                        }
                    }
                }
            }
            for b in g.nodes() {
                // A node dominates itself, and the entry dominates
                // everything in a valid CFG.
                let dominated = a == b || a == cfg.entry() || !seen[b.index()];
                prop_assert_eq!(dt.dominates(a, b), dominated, "{:?} dom {:?}", a, b);
            }
        }
    }

    /// `v` is in the natural loop of `h` iff `h` dominates `v` and `v`
    /// reaches a latch of `h` (a predecessor `h` dominates) without
    /// passing through `h`, checked by a forward search per node; a loop's
    /// parent is the smallest strictly larger loop holding its header.
    #[test]
    fn loop_bodies_match_the_definition(n in 3usize..24, extra in 0usize..24, seed in 0u64..10_000) {
        let cfg = random_cfg(n, extra, seed).unwrap();
        let g = cfg.graph();
        let dt = dominator_tree(g, cfg.entry());
        let forest = LoopForest::compute(&cfg);
        let is_header = |h: NodeId| g.predecessors(h).any(|u| dt.dominates(h, u));
        prop_assert_eq!(forest.loops().len(), g.nodes().filter(|&h| is_header(h)).count());
        for l in forest.loops() {
            let h = l.header;
            prop_assert!(is_header(h));
            let reaches_latch_avoiding_h = |v: NodeId| {
                let mut seen = vec![false; g.node_count()];
                seen[v.index()] = true;
                let mut stack = vec![v];
                while let Some(x) = stack.pop() {
                    if g.successors(x).any(|s| s == h) && dt.dominates(h, x) {
                        return true;
                    }
                    for s in g.successors(x) {
                        if s != h && !seen[s.index()] {
                            seen[s.index()] = true;
                            stack.push(s);
                        }
                    }
                }
                false
            };
            for v in g.nodes() {
                let member = v == h || (dt.dominates(h, v) && reaches_latch_avoiding_h(v));
                prop_assert_eq!(l.contains(v), member, "{:?} in the loop of {:?}", v, h);
            }
            let parent = (0..forest.loops().len())
                .filter(|&j| {
                    let outer = &forest.loops()[j];
                    outer.body.len() > l.body.len() && outer.contains(h)
                })
                .min_by_key(|&j| forest.loops()[j].body.len());
            prop_assert_eq!(l.parent, parent);
        }
    }

    /// LT and CHK agree in both directions on random CFGs (wider coverage
    /// than the unit tests).
    #[test]
    fn lt_and_chk_agree(n in 3usize..40, extra in 0usize..50, seed in 0u64..50_000) {
        let cfg = random_cfg(n, extra, seed).unwrap();
        for (root, dir) in [
            (cfg.entry(), Direction::Forward),
            (cfg.exit(), Direction::Backward),
        ] {
            let lt = dominator_tree_in(cfg.graph(), root, dir);
            let it = iterative_dominator_tree(cfg.graph(), root, dir);
            for v in cfg.graph().nodes() {
                prop_assert_eq!(lt.idom(v), it.idom(v));
            }
        }
    }

    /// Dominance frontier membership matches its definition:
    /// `m ∈ DF(d)` iff `d` dominates some predecessor of `m` but does not
    /// strictly dominate `m`.
    #[test]
    fn frontier_matches_definition(n in 3usize..14, extra in 0usize..14, seed in 0u64..10_000) {
        let cfg = random_cfg(n, extra, seed).unwrap();
        let g = cfg.graph();
        let dt = dominator_tree(g, cfg.entry());
        let df = dominance_frontiers(g, &dt, Direction::Forward);
        for d in g.nodes() {
            for m in g.nodes() {
                let expected = g.predecessors(m).any(|p| dt.dominates(d, p))
                    && !dt.strictly_dominates(d, m);
                prop_assert_eq!(
                    df[d.index()].contains(&m),
                    expected,
                    "DF({:?}) vs {:?}", d, m
                );
            }
        }
    }

    /// The dominator tree's O(1) interval queries agree with idom-chain
    /// walks.
    #[test]
    fn interval_queries_match_chain_walks(n in 3usize..20, extra in 0usize..20, seed in 0u64..10_000) {
        let cfg = random_cfg(n, extra, seed).unwrap();
        let dt = dominator_tree(cfg.graph(), cfg.entry());
        for a in cfg.graph().nodes() {
            for b in cfg.graph().nodes() {
                let mut cur = Some(b);
                let mut chain = false;
                while let Some(v) = cur {
                    if v == a {
                        chain = true;
                        break;
                    }
                    cur = dt.idom(v);
                }
                prop_assert_eq!(dt.dominates(a, b), chain);
            }
        }
        let _ = NodeId::from_index(0);
    }
}
