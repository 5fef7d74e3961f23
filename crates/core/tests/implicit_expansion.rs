//! Oracles for the flat cycle-equivalence engine and its implicit inputs.
//!
//! `ControlRegions::compute` and `canonical_regions` hand the engine
//! `T(S)` and `S = G + (exit→entry)` as endpoint functions instead of
//! graphs. These tests rebuild both graphs explicitly — `T(S)` with
//! [`node_expand`], the explicit transform of Definition 9 that used to be
//! the production path — and check the implicit results against
//! `CycleEquiv::compute` on them, against the `O(EN)` baselines in
//! `pst-controldep`, and the engine itself against the quadratic
//! undirected oracle on adversarial multigraphs.

use proptest::prelude::*;
use pst_cfg::{Cfg, EdgeId, Graph, NodeId};
use pst_controldep::{cfs_control_regions, fow_control_regions};
use pst_core::{
    canonical_regions, cycle_equiv_slow_undirected, ControlRegions, CycleEquiv, CycleEquivError,
};

/// The node-expanding transformation `T` of Definition 9.
///
/// Returns the expanded graph and, per original node, the id of its
/// representative edge. Expanded node `2n` is `nᵢ`, `2n + 1` is `nₒ`;
/// representative edges are created first so their ids equal the original
/// node ids.
fn node_expand(graph: &Graph) -> (Graph, Vec<EdgeId>) {
    let n = graph.node_count();
    let mut t = Graph::with_capacity(2 * n, n + graph.edge_count());
    t.add_nodes(2 * n);
    let mut representative = Vec::with_capacity(n);
    for node in graph.nodes() {
        let ni = NodeId::from_index(2 * node.index());
        let no = NodeId::from_index(2 * node.index() + 1);
        representative.push(t.add_edge(ni, no));
    }
    for e in graph.edges() {
        let (u, v) = graph.endpoints(e);
        t.add_edge(
            NodeId::from_index(2 * u.index() + 1),
            NodeId::from_index(2 * v.index()),
        );
    }
    (t, representative)
}

/// Control regions the explicit way: cycle equivalence of the
/// representative edges of `node_expand(S)`.
fn explicit_control_regions(cfg: &Cfg) -> ControlRegions {
    let (s, _) = cfg.to_strongly_connected();
    let (t, representative) = node_expand(&s);
    let entry_in = NodeId::from_index(2 * cfg.entry().index());
    let ce = CycleEquiv::compute(&t, entry_in).expect("T(S) is connected");
    ControlRegions::from_classes(representative.iter().map(|&e| ce.class(e)).collect())
}

#[test]
fn node_expand_shape() {
    let cfg = pst_cfg::parse_edge_list("0->1 1->2").unwrap();
    let (t, rep) = node_expand(cfg.graph());
    assert_eq!(t.node_count(), 6);
    assert_eq!(t.edge_count(), 3 + 2);
    for node in cfg.graph().nodes() {
        let e = rep[node.index()];
        assert_eq!(t.source(e).index(), 2 * node.index());
        assert_eq!(t.target(e).index(), 2 * node.index() + 1);
    }
}

/// Random connected multigraph built to contain every shape the undirected
/// search must tell apart: a random spanning tree (whose edges stay bridges
/// unless a later edge closes a cycle over them), self-loops, parallel and
/// anti-parallel copies of existing edges, and free random edges.
fn adversarial_multigraph() -> impl Strategy<Value = Graph> {
    (2usize..16)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0usize..1_000_000, n - 1),
                proptest::collection::vec((0u8..4, 0usize..1_000_000, 0usize..1_000_000), 0..14),
            )
        })
        .prop_map(|(n, parents, extras)| {
            let mut g = Graph::new();
            let nodes = g.add_nodes(n);
            for i in 1..n {
                let p = parents[i - 1] % i;
                // Alternate directions so the tree is not an arborescence.
                if parents[i - 1] % 2 == 0 {
                    g.add_edge(nodes[p], nodes[i]);
                } else {
                    g.add_edge(nodes[i], nodes[p]);
                }
            }
            for (kind, a, b) in extras {
                let e = EdgeId::from_index(a % g.edge_count().max(1));
                match kind {
                    0 => {
                        g.add_edge(nodes[a % n], nodes[a % n]);
                    }
                    1 if g.edge_count() > 0 => {
                        let (s, t) = g.endpoints(e);
                        g.add_edge(s, t);
                    }
                    2 if g.edge_count() > 0 => {
                        let (s, t) = g.endpoints(e);
                        g.add_edge(t, s);
                    }
                    _ => {
                        g.add_edge(nodes[a % n], nodes[b % n]);
                    }
                }
            }
            g
        })
}

/// The lowest node not undirected-reachable from `root`, by a plain
/// search over incident edges.
fn lowest_unreached(g: &Graph, root: NodeId) -> Option<NodeId> {
    let mut seen = vec![false; g.node_count()];
    let mut stack = vec![root];
    seen[root.index()] = true;
    while let Some(v) = stack.pop() {
        for e in g.incident_edges(v) {
            let w = g.other_endpoint(e, v);
            if !seen[w.index()] {
                seen[w.index()] = true;
                stack.push(w);
            }
        }
    }
    seen.iter().position(|&s| !s).map(NodeId::from_index)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Implicit `T(S)` gives the same partition as the explicit expansion
    /// and as both `O(EN)` baselines.
    #[test]
    fn implicit_control_regions_match_explicit_and_baselines(
        n in 3usize..28,
        extra in 0usize..28,
        seed in 0u64..100_000,
    ) {
        let cfg = pst_workloads::random_cfg(n, extra, seed).unwrap();
        let implicit = ControlRegions::compute(&cfg);
        prop_assert_eq!(&implicit, &explicit_control_regions(&cfg));
        prop_assert_eq!(&implicit, &cfs_control_regions(&cfg));
        prop_assert_eq!(&implicit, &fow_control_regions(&cfg));
    }

    /// Implicit `S` gives the same classes as `CycleEquiv::compute` on the
    /// explicit closure, with the virtual edge at id `m`.
    #[test]
    fn implicit_closure_matches_explicit(
        n in 3usize..28,
        extra in 0usize..28,
        seed in 0u64..100_000,
    ) {
        let cfg = pst_workloads::random_cfg(n, extra, seed).unwrap();
        let (s, virtual_edge) = cfg.to_strongly_connected();
        prop_assert_eq!(virtual_edge.index(), cfg.edge_count());
        let explicit = CycleEquiv::compute(&s, cfg.entry()).unwrap();
        prop_assert_eq!(&canonical_regions(&cfg).cycle_equiv, &explicit);
    }

    /// The engine computes undirected cycle equivalence on arbitrary
    /// connected multigraphs from any root: bridges share one class, each
    /// self-loop is its own.
    #[test]
    fn fast_matches_undirected_oracle_on_adversarial_multigraphs(
        g in adversarial_multigraph(),
        root in 0usize..1_000_000,
    ) {
        let root = NodeId::from_index(root % g.node_count());
        let fast = CycleEquiv::compute(&g, root).unwrap();
        prop_assert_eq!(&fast, &cycle_equiv_slow_undirected(&g, None).unwrap());
    }

    /// A disconnected graph is refused, naming the lowest node the search
    /// from the root cannot reach.
    #[test]
    fn disconnected_names_the_lowest_unreached_node(
        g in adversarial_multigraph(),
        islands in 1usize..4,
        root in 0usize..1_000_000,
        wire in proptest::collection::vec((0usize..1_000_000, 0usize..1_000_000), 0..4),
    ) {
        // Islands are fresh nodes, some wired among themselves (never to
        // the original component), so the graph has several components.
        let mut g = g;
        let base = g.node_count();
        let fresh = g.add_nodes(islands);
        for (a, b) in wire {
            g.add_edge(fresh[a % islands], fresh[b % islands]);
        }
        let root = NodeId::from_index(root % g.node_count());
        let unreached = lowest_unreached(&g, root).expect("islands are unreachable");
        prop_assert!(unreached.index() >= base || root.index() >= base);
        prop_assert_eq!(
            CycleEquiv::compute(&g, root),
            Err(CycleEquivError::Disconnected { root, unreached })
        );
    }
}
