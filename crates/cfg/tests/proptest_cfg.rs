//! Property tests for the graph substrate itself: DFS invariants, SCC
//! consistency with reachability, reducibility vs dominator backedges,
//! and edge-split correspondence.

use proptest::prelude::*;
use pst_cfg::{
    is_reducible, is_strongly_connected, reducibility, Dfs, DirectedEdgeKind, EdgeId, EdgeSplit,
    Graph, NodeId, Sccs, UndirectedDfs, UndirectedEdgeKind,
};

/// Arbitrary directed multigraph (possibly disconnected).
fn graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Graph> {
    (1..max_nodes)
        .prop_flat_map(move |n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), 0..max_edges),
            )
        })
        .prop_map(|(n, pairs)| {
            let mut g = Graph::new();
            let nodes = g.add_nodes(n);
            for (a, b) in pairs {
                g.add_edge(nodes[a], nodes[b]);
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// Directed DFS: preorder/postorder are consistent permutations of the
    /// reachable nodes, tree edges form a spanning tree, and back edges
    /// point into the open interval.
    #[test]
    fn dfs_invariants(g in graph(20, 40)) {
        let root = NodeId::from_index(0);
        let dfs = Dfs::new(&g, root);
        let reach = g.reachable_from(root);
        let reached = reach.iter().filter(|&&r| r).count();
        prop_assert_eq!(dfs.reached_count(), reached);
        prop_assert_eq!(dfs.preorder_nodes().len(), reached);
        prop_assert_eq!(dfs.postorder_nodes().len(), reached);
        // Every reachable non-root node has exactly one tree parent.
        let tree_edges = g
            .edges()
            .filter(|&e| dfs.edge_kind(e) == Some(DirectedEdgeKind::Tree))
            .count();
        prop_assert_eq!(tree_edges, reached - 1);
        // Back edges go to ancestors: target preorder <= source preorder
        // and target postorder >= source postorder.
        for e in g.edges() {
            if dfs.edge_kind(e) == Some(DirectedEdgeKind::Back) {
                let (s, t) = g.endpoints(e);
                prop_assert!(dfs.preorder_number(t) <= dfs.preorder_number(s));
                prop_assert!(dfs.postorder_number(t) >= dfs.postorder_number(s));
            }
        }
        // Every reachable edge is examined exactly once.
        let examined = dfs.edges_in_examination_order().len();
        let expected = g
            .edges()
            .filter(|&e| reach[g.source(e).index()])
            .count();
        prop_assert_eq!(examined, expected);
    }

    /// SCC component equality agrees with mutual reachability.
    #[test]
    fn scc_matches_mutual_reachability(g in graph(14, 28)) {
        let sccs = Sccs::new(&g);
        let reach: Vec<Vec<bool>> = g.nodes().map(|n| g.reachable_from(n)).collect();
        for a in g.nodes() {
            for b in g.nodes() {
                let mutual = reach[a.index()][b.index()] && reach[b.index()][a.index()];
                prop_assert_eq!(
                    sccs.component(a) == sccs.component(b),
                    mutual,
                    "{:?} vs {:?}", a, b
                );
            }
        }
        prop_assert_eq!(sccs.is_strongly_connected(), is_strongly_connected(&g));
    }

    /// Undirected DFS: tree edges form a spanning tree of each component;
    /// every non-tree, non-self-loop edge connects ancestor/descendant.
    #[test]
    fn undirected_dfs_invariants(g in graph(16, 32)) {
        let dfs = UndirectedDfs::new(&g, NodeId::from_index(0));
        let reached = dfs.nodes_by_dfsnum().len();
        let tree = g
            .edges()
            .filter(|&e| dfs.edge_kind(e) == UndirectedEdgeKind::Tree)
            .count();
        prop_assert_eq!(tree, reached - 1);
        for e in g.edges() {
            if dfs.edge_kind(e) == UndirectedEdgeKind::Back {
                let upper = dfs.back_upper(&g, e);
                let lower = dfs.back_lower(&g, e);
                // upper is an ancestor of lower in the DFS tree.
                let mut cur = Some(lower);
                let mut found = false;
                while let Some(v) = cur {
                    if v == upper {
                        found = true;
                        break;
                    }
                    cur = dfs.parent(v);
                }
                prop_assert!(found, "backedge endpoints not ancestor-related");
            }
        }
    }

    /// The reducibility witness is exactly the set of `Dfs` back edges
    /// whose target Lengauer–Tarjan does not find dominating their
    /// source, on random CFGs and on generated functions with gotos. (A
    /// graph is reducible iff every retreating edge's target dominates
    /// its source, so the boolean answers agree too.)
    #[test]
    fn reducibility_matches_dominator_criterion(n in 3usize..20, extra in 0usize..20, seed in 0u64..10_000) {
        let random = pst_workloads::random_cfg(n, extra, seed).unwrap();
        let config = pst_workloads::ProgramGenConfig {
            target_stmts: 60,
            goto_prob: 0.12,
            ..Default::default()
        };
        let function = pst_workloads::generate_function("p", &config, seed);
        let lowered = pst_lang::lower_function(&function).unwrap();
        for cfg in [&random, &lowered.cfg] {
            let g = cfg.graph();
            let dfs = Dfs::new(g, cfg.entry());
            let dt = pst_dominators::dominator_tree(g, cfg.entry());
            let refuted: Vec<EdgeId> = g
                .edges()
                .filter(|&e| {
                    let (s, t) = g.endpoints(e);
                    dfs.edge_kind(e) == Some(DirectedEdgeKind::Back) && !dt.dominates(t, s)
                })
                .collect();
            let r = reducibility(g, cfg.entry());
            prop_assert_eq!(r.irreducible_edges(), &refuted[..]);
            prop_assert_eq!(is_reducible(g, cfg.entry()), refuted.is_empty());
        }
    }

    /// Edge splitting preserves node dominance among original nodes.
    #[test]
    fn edge_split_preserves_dominance(n in 3usize..16, extra in 0usize..16, seed in 0u64..5_000) {
        let cfg = pst_workloads::random_cfg(n, extra, seed).unwrap();
        let dt = pst_dominators::dominator_tree(cfg.graph(), cfg.entry());
        let split = EdgeSplit::of_cfg(&cfg);
        let dt_split = pst_dominators::dominator_tree(split.graph(), cfg.entry());
        for a in cfg.graph().nodes() {
            for b in cfg.graph().nodes() {
                prop_assert_eq!(dt.dominates(a, b), dt_split.dominates(a, b));
            }
        }
    }
}
