//! Region collapsing: each SESE region as a small CFG of its own.
//!
//! The paper's divide-and-conquer applications (§6) all view a region
//! through the same lens: its *interior* nodes plus its immediately nested
//! regions contracted to single statements. [`collapse_all`] materializes
//! that view for every region of a PST in linear time: one counting pass
//! numbers every mini node, and one pass over the CFG's edges hands each
//! edge to the region that owns it. An edge leaves at most one canonical
//! region (it is that region's exit edge) and enters at most one (its
//! entry edge), so finding its owner and the mini nodes of its endpoints
//! climbs at most one level of the tree per endpoint: `O(N + E + R)`.
//! Both the region classifier and the PST-based SSA construction consume
//! the result.

use pst_cfg::{Cfg, Graph, NodeId};

use crate::{ProgramStructureTree, RegionId};

/// What a node of a collapsed region graph stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollapsedNode {
    /// An interior CFG node of the region.
    Interior(NodeId),
    /// An immediately nested region contracted to one statement.
    Child(RegionId),
}

/// One region's collapsed control flow graph.
///
/// Mini-graph node `i` stands for `members[i]`. `head` is the
/// representative of the region's first node (the target of its entry
/// edge; the CFG entry for the root region); `tail` is the representative
/// of the exit edge's source (the CFG exit for the root).
#[derive(Clone, Debug)]
pub struct CollapsedRegion {
    /// The mini multigraph.
    pub graph: Graph,
    /// Meaning of each mini node.
    pub members: Vec<CollapsedNode>,
    /// Mini node the region is entered at.
    pub head: NodeId,
    /// Mini node the region is left from.
    pub tail: NodeId,
}

/// Collapses every region of `pst` (indexed by [`RegionId`]).
///
/// # Examples
///
/// ```
/// use pst_cfg::parse_edge_list;
/// use pst_core::{collapse_all, ProgramStructureTree};
/// let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
/// let pst = ProgramStructureTree::build(&cfg);
/// let collapsed = collapse_all(&cfg, &pst);
/// // Root region: interior nodes 0 and 3, one child (the loop region).
/// let root = &collapsed[pst.root().index()];
/// assert_eq!(root.graph.node_count(), 3);
/// ```
pub fn collapse_all(cfg: &Cfg, pst: &ProgramStructureTree) -> Vec<CollapsedRegion> {
    let graph = cfg.graph();
    let regions = pst.region_count();

    // Mini node ids, in one counting pass: a CFG node's slot in its
    // innermost region (interior nodes in ascending order), then a
    // region's slot in its parent (after the parent's interior nodes,
    // in PST child order).
    let mut size = vec![0u32; regions];
    let node_slot: Vec<u32> = graph
        .nodes()
        .map(|n| {
            let count = &mut size[pst.region_of_node(n).index()];
            *count += 1;
            *count - 1
        })
        .collect();
    let mut child_slot = vec![0u32; regions];
    for r in pst.regions() {
        for &c in pst.children(r) {
            child_slot[c.index()] = size[r.index()];
            size[r.index()] += 1;
        }
    }

    // Mini node standing for `node` in `region`: the node itself when
    // interior, else the child of `region` it lies in.
    let rep_in = |region: RegionId, node: NodeId| -> NodeId {
        let mut r = pst.region_of_node(node);
        if r == region {
            return NodeId::from_index(node_slot[node.index()] as usize);
        }
        while let Some(p) = pst.parent(r) {
            if p == region {
                return NodeId::from_index(child_slot[r.index()] as usize);
            }
            r = p;
        }
        panic!("node is inside the region");
    };

    // Lowest common ancestor of two regions (owner of a crossing edge).
    let lca = |a: RegionId, b: RegionId| -> RegionId {
        let (mut x, mut y) = (a, b);
        while pst.depth(x) > pst.depth(y) {
            x = pst.parent(x).expect("non-root has parent");
        }
        while pst.depth(y) > pst.depth(x) {
            y = pst.parent(y).expect("non-root has parent");
        }
        while x != y {
            x = pst.parent(x).expect("non-root has parent");
            y = pst.parent(y).expect("non-root has parent");
        }
        x
    };

    // Every CFG edge goes to the region that owns it, between the mini
    // nodes of its endpoints there. Both endpoints of an edge lie in its
    // owner, and never in one child of it, so they stand for distinct
    // members unless the edge is an interior self-loop.
    let mut edge_count = vec![0u32; regions];
    let owned: Vec<(RegionId, NodeId, NodeId)> = graph
        .edges()
        .map(|e| {
            let (u, v) = graph.endpoints(e);
            let owner = lca(pst.region_of_node(u), pst.region_of_node(v));
            edge_count[owner.index()] += 1;
            (owner, rep_in(owner, u), rep_in(owner, v))
        })
        .collect();

    let mut collapsed: Vec<CollapsedRegion> = pst
        .regions()
        .map(|r| {
            let mut mini = Graph::with_capacity(0, edge_count[r.index()] as usize);
            for _ in 0..size[r.index()] {
                mini.add_node();
            }
            let head_node = match pst.entry_edge(r) {
                Some(e) => graph.target(e),
                None => cfg.entry(),
            };
            let tail_node = match pst.exit_edge(r) {
                Some(e) => graph.source(e),
                None => cfg.exit(),
            };
            CollapsedRegion {
                graph: mini,
                members: Vec::with_capacity(size[r.index()] as usize),
                head: rep_in(r, head_node),
                tail: rep_in(r, tail_node),
            }
        })
        .collect();
    for n in graph.nodes() {
        collapsed[pst.region_of_node(n).index()]
            .members
            .push(CollapsedNode::Interior(n));
    }
    for r in pst.regions() {
        let members = &mut collapsed[r.index()].members;
        members.extend(pst.children(r).iter().map(|&c| CollapsedNode::Child(c)));
    }
    for (owner, a, b) in owned {
        collapsed[owner.index()].graph.add_edge(a, b);
    }
    collapsed
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;
    use pst_cfg::parse_edge_list;

    use super::*;

    /// The quadratic collapse the linear one replaced: per region, an
    /// `O(N)` scan for its interior nodes and a hash map from member to
    /// mini node. The oracle for [`collapse_all`].
    fn collapse_all_oracle(cfg: &Cfg, pst: &ProgramStructureTree) -> Vec<CollapsedRegion> {
        let graph = cfg.graph();

        // Representative of `node` as seen from `region`.
        let rep_in = |region: RegionId, node: NodeId| -> CollapsedNode {
            if pst.region_of_node(node) == region {
                CollapsedNode::Interior(node)
            } else {
                CollapsedNode::Child(
                    pst.child_containing(region, node)
                        .expect("node is inside the region"),
                )
            }
        };

        // Lowest common ancestor of two regions (owner of a crossing edge).
        let lca = |a: RegionId, b: RegionId| -> RegionId {
            let (mut x, mut y) = (a, b);
            while pst.depth(x) > pst.depth(y) {
                x = pst.parent(x).expect("non-root has parent");
            }
            while pst.depth(y) > pst.depth(x) {
                y = pst.parent(y).expect("non-root has parent");
            }
            while x != y {
                x = pst.parent(x).expect("non-root has parent");
                y = pst.parent(y).expect("non-root has parent");
            }
            x
        };

        // Seed every region with its members so mini node ids are stable:
        // interior nodes first (ascending), then children (PST order).
        let mut regions: Vec<(Graph, Vec<CollapsedNode>, HashMap<CollapsedNode, NodeId>)> = pst
            .regions()
            .map(|r| {
                let mut g = Graph::new();
                let mut members = Vec::new();
                let mut index = HashMap::new();
                for n in pst.interior_nodes(r) {
                    let m = CollapsedNode::Interior(n);
                    index.insert(m, g.add_node());
                    members.push(m);
                }
                for &c in pst.children(r) {
                    let m = CollapsedNode::Child(c);
                    index.insert(m, g.add_node());
                    members.push(m);
                }
                (g, members, index)
            })
            .collect();

        // Distribute every CFG edge to its owning region's mini graph.
        for e in graph.edges() {
            let (u, v) = graph.endpoints(e);
            let owner = lca(pst.region_of_node(u), pst.region_of_node(v));
            let ru = rep_in(owner, u);
            let rv = rep_in(owner, v);
            if ru == rv {
                if let CollapsedNode::Child(_) = ru {
                    continue; // fully internal to a child; owned deeper (defensive)
                }
            }
            let (g, _, index) = &mut regions[owner.index()];
            let a = index[&ru];
            let b = index[&rv];
            g.add_edge(a, b);
        }

        // Assemble with head/tail.
        pst.regions()
            .zip(regions)
            .map(|(r, (graph_r, members, index))| {
                let head_node = match pst.entry_edge(r) {
                    Some(e) => graph.target(e),
                    None => cfg.entry(),
                };
                let tail_node = match pst.exit_edge(r) {
                    Some(e) => graph.source(e),
                    None => cfg.exit(),
                };
                let head = index[&rep_in(r, head_node)];
                let tail = index[&rep_in(r, tail_node)];
                CollapsedRegion {
                    graph: graph_r,
                    members,
                    head,
                    tail,
                }
            })
            .collect()
    }

    /// Where two collapses of the same PST first differ, if anywhere.
    fn first_difference(got: &[CollapsedRegion], want: &[CollapsedRegion]) -> Option<String> {
        if got.len() != want.len() {
            return Some(format!("{} regions, want {}", got.len(), want.len()));
        }
        for (r, (g, w)) in got.iter().zip(want).enumerate() {
            if g.members != w.members {
                return Some(format!(
                    "region {r}: members {:?}, want {:?}",
                    g.members, w.members
                ));
            }
            if g.graph != w.graph {
                return Some(format!(
                    "region {r}: graph {:?}, want {:?}",
                    g.graph, w.graph
                ));
            }
            if (g.head, g.tail) != (w.head, w.tail) {
                return Some(format!(
                    "region {r}: head/tail {:?}, want {:?}",
                    (g.head, g.tail),
                    (w.head, w.tail)
                ));
            }
        }
        None
    }

    fn agrees_with_oracle(cfg: &Cfg) -> Option<String> {
        let pst = ProgramStructureTree::build(cfg);
        first_difference(&collapse_all(cfg, &pst), &collapse_all_oracle(cfg, &pst))
    }

    fn lowered(seed: u64, goto_prob: f64) -> Cfg {
        let config = pst_workloads::ProgramGenConfig {
            target_stmts: 60,
            goto_prob,
            ..Default::default()
        };
        let f = pst_workloads::generate_function("p", &config, seed);
        pst_lang::lower_function(&f).unwrap().cfg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn collapse_matches_oracle_on_mini_functions(seed in 0u64..100_000, goto in 0usize..2) {
            let cfg = lowered(seed, if goto == 1 { 0.12 } else { 0.0 });
            prop_assert_eq!(agrees_with_oracle(&cfg), None);
        }

        #[test]
        fn collapse_matches_oracle_on_random_cfgs(
            n in 3usize..60,
            extra in 0usize..60,
            seed in 0u64..100_000,
        ) {
            let cfg = pst_workloads::random_cfg(n, extra, seed).unwrap();
            prop_assert_eq!(agrees_with_oracle(&cfg), None);
        }
    }

    #[test]
    fn swapped_children_fail_the_oracle_comparison() {
        // The root of a chain of two diamonds has two children.
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3 3->4 3->5 4->6 5->6").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let want = collapse_all_oracle(&cfg, &pst);
        let mut got = collapse_all(&cfg, &pst);
        assert_eq!(first_difference(&got, &want), None);
        let root = &mut got[pst.root().index()];
        let children: Vec<usize> = (0..root.members.len())
            .filter(|&i| matches!(root.members[i], CollapsedNode::Child(_)))
            .collect();
        assert!(children.len() >= 2, "{:?}", root.members);
        root.members.swap(children[0], children[1]);
        assert!(first_difference(&got, &want).is_some());
    }

    #[test]
    fn chain_root_is_a_chain_of_children() {
        let cfg = parse_edge_list("0->1 1->2 2->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let c = collapse_all(&cfg, &pst);
        let root = &c[pst.root().index()];
        // interior: 0 and 3; children: the two chain regions.
        assert_eq!(root.graph.node_count(), 4);
        assert_eq!(root.graph.edge_count(), 3);
        // head is node 0's rep, tail node 3's rep.
        assert_eq!(
            root.members[root.head.index()],
            CollapsedNode::Interior(cfg.entry())
        );
        assert_eq!(
            root.members[root.tail.index()],
            CollapsedNode::Interior(cfg.exit())
        );
    }

    #[test]
    fn loop_region_collapse() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let c = collapse_all(&cfg, &pst);
        let outer = pst.region_of_node(NodeId::from_index(1));
        let mini = &c[outer.index()];
        // Interior: header node 1. Child: the body region. Edges: 1->body,
        // body->1 (the backedge).
        assert_eq!(mini.graph.node_count(), 2);
        assert_eq!(mini.graph.edge_count(), 2);
        assert_eq!(mini.head, mini.tail); // entered and left at the header
    }

    #[test]
    fn edge_counts_partition_cfg_edges() {
        let cfg = parse_edge_list(
            "0->1 1->2 2->3 2->4 3->5 4->5 5->6 6->7 7->6 6->8 8->9 8->10 9->11 10->11 11->8 8->12 12->13",
        )
        .unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let c = collapse_all(&cfg, &pst);
        let total_mini_edges: usize = c.iter().map(|m| m.graph.edge_count()).sum();
        assert_eq!(total_mini_edges, cfg.edge_count());
        let total_mini_nodes: usize = c.iter().map(|m| m.graph.node_count()).sum();
        // Every CFG node appears exactly once as Interior, every region
        // exactly once as Child.
        assert_eq!(
            total_mini_nodes,
            cfg.node_count() + pst.canonical_region_count()
        );
    }

    #[test]
    fn mini_of_finds_members() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let c = collapse_all(&cfg, &pst);
        let outer = pst.region_of_node(NodeId::from_index(1));
        let mini = &c[outer.index()];
        let interior = |i| CollapsedNode::Interior(NodeId::from_index(i));
        assert!(mini.members.contains(&interior(1)));
        assert!(!mini.members.contains(&interior(3)));
    }
}
