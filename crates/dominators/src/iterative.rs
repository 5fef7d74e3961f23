//! Iterative (data-flow) dominator computation, after Cooper, Harvey &
//! Kennedy's *"A Simple, Fast Dominance Algorithm"*.
//!
//! Asymptotically worse than Lengauer–Tarjan but very fast in practice; we
//! keep it both as an independent oracle for the LT implementation and as a
//! second baseline for the paper's timing comparison. The routine itself is
//! the workspace's one iterative dominator kernel, [`pst_cfg::Dominators`];
//! this module wraps its answer in a [`DomTree`].

use pst_cfg::{Dominators, Graph, NodeId};

use crate::{Direction, DomTree};

/// Computes the dominator tree of `graph` from `root` following `dir`
/// using the Cooper–Harvey–Kennedy iterative algorithm.
///
/// Produces exactly the same tree as
/// [`dominator_tree_in`](crate::dominator_tree_in); the two implementations
/// cross-validate each other in the property tests.
///
/// # Examples
///
/// ```
/// use pst_cfg::parse_edge_list;
/// use pst_dominators::{dominator_tree, iterative_dominator_tree, Direction};
/// let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
/// let a = dominator_tree(cfg.graph(), cfg.entry());
/// let b = iterative_dominator_tree(cfg.graph(), cfg.entry(), Direction::Forward);
/// for n in cfg.graph().nodes() {
///     assert_eq!(a.idom(n), b.idom(n));
/// }
/// ```
pub fn iterative_dominator_tree(graph: &Graph, root: NodeId, dir: Direction) -> DomTree {
    let n = graph.node_count();
    let node = NodeId::from_index;
    let succ = |v| graph.successors(node(v)).map(NodeId::index);
    let pred = |v| graph.predecessors(node(v)).map(NodeId::index);
    let dom = match dir {
        Direction::Forward => Dominators::new(n, [root.index()], succ, pred),
        Direction::Backward => Dominators::new(n, [root.index()], pred, succ),
    };
    let idom = (0..n).map(|v| dom.idom(v).map(node)).collect();
    let reachable = (0..n).map(|v| dom.order().number(v).is_some()).collect();
    DomTree::from_idoms(root, idom, reachable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominator_tree_in;
    use pst_cfg::parse_edge_list;

    fn agree(desc: &str) {
        let cfg = parse_edge_list(desc).unwrap();
        for dir in [Direction::Forward, Direction::Backward] {
            let root = match dir {
                Direction::Forward => cfg.entry(),
                Direction::Backward => cfg.exit(),
            };
            let lt = dominator_tree_in(cfg.graph(), root, dir);
            let it = iterative_dominator_tree(cfg.graph(), root, dir);
            for node in cfg.graph().nodes() {
                assert_eq!(lt.idom(node), it.idom(node), "{desc} {dir:?} {node:?}");
            }
        }
    }

    #[test]
    fn agrees_with_lt_on_small_graphs() {
        agree("0->1 1->2");
        agree("0->1 0->2 1->3 2->3");
        agree("0->1 1->2 2->1 1->3");
        agree("0->1 0->2 1->2 2->1 1->3 2->3");
        agree("0->1 0->2 1->3 2->3 3->4 4->5 4->6 5->7 6->7 7->4 7->8");
        agree("0->1 1->1 1->2");
        agree("0->1 0->1 1->2");
    }

    #[test]
    fn root_has_no_idom() {
        let cfg = parse_edge_list("0->1 1->2").unwrap();
        let dt = iterative_dominator_tree(cfg.graph(), cfg.entry(), Direction::Forward);
        assert_eq!(dt.idom(cfg.entry()), None);
        assert_eq!(dt.root(), cfg.entry());
    }

    #[test]
    fn handles_unreachable_nodes() {
        let mut g = Graph::new();
        let nodes = g.add_nodes(4);
        g.add_edge(nodes[0], nodes[1]);
        g.add_edge(nodes[2], nodes[3]); // island
        let dt = iterative_dominator_tree(&g, nodes[0], Direction::Forward);
        assert!(!dt.is_reachable(nodes[2]));
        assert!(!dt.is_reachable(nodes[3]));
        assert_eq!(dt.idom(nodes[1]), Some(nodes[0]));
    }
}
