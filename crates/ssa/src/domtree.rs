//! Divide-and-conquer dominator computation over the PST (paper §6.3).
//!
//! "It is not difficult to design such an algorithm for computing the
//! dominator tree of a control flow graph: first, build the dominator tree
//! of each SESE region, and then piece together the local trees using
//! global structure (nesting) information in the PST."
//!
//! The local trees are the ones φ-placement already keeps in its flat
//! per-region table ([`RegionFrontiers`]); nothing here clones a region
//! graph or runs a second dominator algorithm.

use pst_cfg::{Cfg, NodeId};
use pst_core::{CollapsedNode, CollapsedRegion, ProgramStructureTree, RegionId};
use pst_dominators::DomTree;

use crate::pst_phi::RegionFrontiers;

/// Computes the dominator tree of `cfg` region by region over the PST
/// (paper §6.3).
///
/// `collapsed` must come from [`pst_core::collapse_all`] on the same
/// CFG/PST pair. Each region's local dominators come from the flat table
/// that φ-placement uses; a node `n` interior to region `R` then takes
/// its global immediate dominator from its local one:
///
/// * another interior node `m` of `R`: `m`;
/// * a collapsed child region `c`: every path to `n` runs through all of
///   `c`, and the last node common to those paths is the source of `c`'s
///   exit edge;
/// * the synthetic entry (only for `R`'s head): the source of `R`'s entry
///   edge, in the parent region (the CFG entry has none).
///
/// The result equals the Lengauer–Tarjan tree; the tests check that on
/// random CFGs and generated functions.
///
/// # Panics
///
/// Panics if an interior node is unreachable in its collapsed region,
/// which happens only when `collapsed` does not belong to `cfg` and `pst`.
///
/// # Examples
///
/// ```
/// use pst_cfg::parse_edge_list;
/// use pst_core::{collapse_all, ProgramStructureTree};
/// use pst_dominators::dominator_tree;
/// use pst_ssa::dominator_tree_via_pst;
/// let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
/// let pst = ProgramStructureTree::build(&cfg);
/// let collapsed = collapse_all(&cfg, &pst);
/// let ours = dominator_tree_via_pst(&cfg, &pst, &collapsed);
/// let lt = dominator_tree(cfg.graph(), cfg.entry());
/// for n in cfg.graph().nodes() {
///     assert_eq!(ours.idom(n), lt.idom(n));
/// }
/// ```
pub fn dominator_tree_via_pst(
    cfg: &Cfg,
    pst: &ProgramStructureTree,
    collapsed: &[CollapsedRegion],
) -> DomTree {
    let graph = cfg.graph();
    splice(cfg, pst, collapsed, |c| {
        graph.source(pst.exit_edge(c).expect("canonical region has an exit"))
    })
}

/// [`dominator_tree_via_pst`] with the node every path through a child
/// region passes last given by `last_node_of`.
fn splice(
    cfg: &Cfg,
    pst: &ProgramStructureTree,
    collapsed: &[CollapsedRegion],
    last_node_of: impl Fn(RegionId) -> NodeId,
) -> DomTree {
    let graph = cfg.graph();
    let table = RegionFrontiers::build(collapsed);
    let mut idom: Vec<Option<NodeId>> = vec![None; graph.node_count()];
    for (region, mini) in pst.regions().zip(collapsed) {
        let base = table.base[region.index()];
        let synthetic_entry = table.base[region.index() + 1] - 1;
        for (i, &member) in mini.members.iter().enumerate() {
            let CollapsedNode::Interior(node) = member else {
                continue; // children are resolved in their own region
            };
            let up = table
                .idom_of(base + i as u32)
                .expect("interior nodes are dominated by the synthetic entry");
            idom[node.index()] = if up == synthetic_entry {
                pst.entry_edge(region).map(|e| graph.source(e))
            } else {
                Some(match mini.members[(up - base) as usize] {
                    CollapsedNode::Interior(m) => m,
                    CollapsedNode::Child(c) => last_node_of(c),
                })
            };
        }
    }
    DomTree::from_immediate_dominators(cfg.entry(), idom, vec![true; graph.node_count()])
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use pst_core::collapse_all;
    use pst_dominators::dominator_tree;
    use pst_workloads::random_cfg;

    use super::*;
    use crate::pst_phi::tests::generated;

    /// Where the spliced dominator tree of `cfg` first disagrees with
    /// Lengauer–Tarjan. `mutated` breaks the child rule: a collapsed child
    /// maps to its entry edge's target instead of its exit edge's source.
    fn splice_difference(cfg: &Cfg, mutated: bool) -> Option<String> {
        let pst = ProgramStructureTree::build(cfg);
        let collapsed = collapse_all(cfg, &pst);
        let graph = cfg.graph();
        let ours = if mutated {
            splice(cfg, &pst, &collapsed, |c| {
                graph.target(pst.entry_edge(c).unwrap())
            })
        } else {
            dominator_tree_via_pst(cfg, &pst, &collapsed)
        };
        let lt = dominator_tree(graph, cfg.entry());
        graph
            .nodes()
            .find(|&n| ours.idom(n) != lt.idom(n))
            .map(|n| format!("idom of {n}: {:?}, want {:?}", ours.idom(n), lt.idom(n)))
    }

    /// Checks every edge-list graph of `table` against Lengauer–Tarjan.
    fn check(table: &[&str]) {
        for edges in table {
            let cfg = pst_cfg::parse_edge_list(edges).unwrap();
            assert_eq!(splice_difference(&cfg, false), None, "{edges}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn spliced_dominators_match_lengauer_tarjan(
            n in 3usize..30,
            extra in 0usize..30,
            seed in 0u64..100_000,
            goto in 0usize..2,
        ) {
            let cfg = random_cfg(n, extra, seed).unwrap();
            prop_assert_eq!(splice_difference(&cfg, false), None);
            prop_assert_eq!(splice_difference(&generated(seed, goto == 1).cfg, false), None);
        }
    }

    #[test]
    fn matches_lt_on_chains_and_diamonds() {
        check(&[
            "0->1 1->2 2->3",
            "0->1 0->2 1->3 2->3",
            "0->1 1->2 1->3 2->4 3->4 4->5",
        ]);
    }

    #[test]
    fn matches_lt_on_loops() {
        check(&[
            "0->1 1->2 2->1 1->3",
            "0->1 1->2 2->1 2->3",
            "0->1 1->2 2->3 3->2 3->1 1->4",
            "0->1 1->1 1->2",
        ]);
    }

    #[test]
    fn matches_lt_on_irreducible_graphs() {
        check(&[
            "0->1 0->2 1->2 2->1 1->3 2->3",
            "0->1 0->3 1->2 2->3 3->4 4->1 2->5 4->5",
        ]);
    }

    #[test]
    fn matches_lt_on_figure1_like_graph() {
        check(&[
            "0->1 1->2 2->3 2->4 3->5 4->5 5->6 6->7 7->6 6->8 8->9 8->10 9->11 10->11 \
                 11->8 8->12 12->13",
        ]);
    }

    #[test]
    fn dominance_queries_work_on_spliced_tree() {
        let cfg = pst_cfg::parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let collapsed = collapse_all(&cfg, &pst);
        let dt = dominator_tree_via_pst(&cfg, &pst, &collapsed);
        let n = NodeId::from_index;
        assert!(dt.dominates(n(1), n(2)));
        assert!(!dt.dominates(n(2), n(3)));
        assert_eq!(dt.depth(n(3)), 2);
    }

    #[test]
    fn an_entry_target_child_rule_fails_the_lengauer_tarjan_comparison() {
        let caught = (0..20u64)
            .any(|seed| splice_difference(&generated(seed, seed % 2 == 1).cfg, true).is_some());
        assert!(
            caught,
            "mapping a child to its entry edge's target went unnoticed"
        );
    }
}
