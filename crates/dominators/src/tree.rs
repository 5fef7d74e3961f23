//! Dominator trees with constant-time ancestry queries.

use pst_cfg::{Graph, NodeId};

/// Traversal direction for dominance computations.
///
/// `Forward` from a CFG's entry yields classical dominators; `Backward`
/// from the exit yields postdominators. Using a direction flag (instead of
/// materializing a reversed graph) keeps node and edge ids stable across
/// both analyses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow edges source → target (dominators).
    Forward,
    /// Follow edges target → source (postdominators).
    Backward,
}

impl Direction {
    /// Flow successors of `node` under this direction.
    pub fn successors<'g>(
        self,
        graph: &'g Graph,
        node: NodeId,
    ) -> Box<dyn Iterator<Item = NodeId> + 'g> {
        match self {
            Direction::Forward => Box::new(graph.successors(node)),
            Direction::Backward => Box::new(graph.predecessors(node)),
        }
    }

    /// Flow predecessors of `node` under this direction.
    pub fn predecessors<'g>(
        self,
        graph: &'g Graph,
        node: NodeId,
    ) -> Box<dyn Iterator<Item = NodeId> + 'g> {
        match self {
            Direction::Forward => Box::new(graph.predecessors(node)),
            Direction::Backward => Box::new(graph.successors(node)),
        }
    }
}

/// An immediate-dominator tree over the nodes of a [`Graph`].
///
/// Produced by [`dominator_tree`](crate::dominator_tree) (Lengauer–Tarjan)
/// or [`iterative_dominator_tree`](crate::iterative_dominator_tree)
/// (Cooper–Harvey–Kennedy); both yield identical trees and are
/// cross-checked in tests. Ancestry queries are answered in O(1) via
/// pre/post intervals of the tree.
///
/// # Examples
///
/// ```
/// use pst_cfg::parse_edge_list;
/// use pst_dominators::dominator_tree;
/// let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
/// let dt = dominator_tree(cfg.graph(), cfg.entry());
/// let n = |i| pst_cfg::NodeId::from_index(i);
/// assert_eq!(dt.idom(n(3)), Some(n(0)));   // neither branch dominates the join
/// assert!(dt.dominates(n(0), n(3)));
/// assert!(!dt.dominates(n(1), n(3)));
/// ```
#[derive(Clone, Debug)]
pub struct DomTree {
    root: NodeId,
    idom: Vec<Option<NodeId>>,
    reachable: Vec<bool>,
    children: Vec<Vec<NodeId>>,
    pre: Vec<u32>,
    post: Vec<u32>,
    depth: Vec<u32>,
}

impl DomTree {
    /// Builds a tree from a caller-supplied immediate-dominator array.
    ///
    /// `idom[n]` must be `None` exactly for the root and for unreachable
    /// nodes, and the parent links must form a tree rooted at `root`
    /// (e.g. the output of a divide-and-conquer computation such as
    /// `pst_ssa::dominator_tree_via_pst`).
    ///
    /// # Panics
    ///
    /// May loop or index out of bounds if the links do not form a tree.
    pub fn from_immediate_dominators(
        root: NodeId,
        idom: Vec<Option<NodeId>>,
        reachable: Vec<bool>,
    ) -> Self {
        Self::from_idoms(root, idom, reachable)
    }

    /// Builds the derived structures from an immediate-dominator array.
    ///
    /// `idom[n]` must be `None` exactly for the root and for unreachable
    /// nodes; `reachable` flags which nodes were reached.
    pub(crate) fn from_idoms(
        root: NodeId,
        idom: Vec<Option<NodeId>>,
        reachable: Vec<bool>,
    ) -> Self {
        let n = idom.len();
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, d) in idom.iter().enumerate() {
            if let Some(p) = d {
                children[p.index()].push(NodeId::from_index(i));
            }
        }
        let mut pre = vec![0u32; n];
        let mut post = vec![0u32; n];
        let mut depth = vec![0u32; n];
        let mut clock = 0u32;
        let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
        pre[root.index()] = 0;
        clock += 1;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < children[v.index()].len() {
                let c = children[v.index()][*next];
                *next += 1;
                pre[c.index()] = clock;
                clock += 1;
                depth[c.index()] = depth[v.index()] + 1;
                stack.push((c, 0));
            } else {
                post[v.index()] = clock;
                clock += 1;
                stack.pop();
            }
        }
        DomTree {
            root,
            idom,
            reachable,
            children,
            pre,
            post,
            depth,
        }
    }

    /// The root of the tree (CFG entry for dominators, exit for
    /// postdominators).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Immediate dominator of `node` (`None` for the root and for
    /// unreachable nodes).
    pub fn idom(&self, node: NodeId) -> Option<NodeId> {
        self.idom[node.index()]
    }

    /// Whether `node` was reachable from the root in the flow direction the
    /// tree was computed for.
    pub fn is_reachable(&self, node: NodeId) -> bool {
        self.reachable[node.index()]
    }

    /// Children of `node` in the dominator tree.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Depth of `node` below the root (root has depth 0).
    pub fn depth(&self, node: NodeId) -> usize {
        self.depth[node.index()] as usize
    }

    /// Whether `a` dominates `b` (reflexively). O(1).
    ///
    /// Returns `false` if either node is unreachable.
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        if !self.reachable[a.index()] || !self.reachable[b.index()] {
            return false;
        }
        self.pre[a.index()] <= self.pre[b.index()] && self.post[b.index()] <= self.post[a.index()]
    }

    /// Whether `a` dominates `b` and `a != b`. O(1).
    pub fn strictly_dominates(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Number of nodes the tree was computed over (reachable or not).
    pub fn node_count(&self) -> usize {
        self.idom.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominator_tree;
    use pst_cfg::parse_edge_list;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn chain_depths() {
        let cfg = parse_edge_list("0->1 1->2 2->3").unwrap();
        let dt = dominator_tree(cfg.graph(), cfg.entry());
        for i in 0..4 {
            assert_eq!(dt.depth(n(i)), i);
        }
        assert!(dt.dominates(n(1), n(3)));
        assert!(!dt.dominates(n(3), n(1)));
        assert!(dt.strictly_dominates(n(0), n(1)));
        assert!(!dt.strictly_dominates(n(1), n(1)));
    }

    #[test]
    fn dominated_by_collects_subtree() {
        let cfg = parse_edge_list("0->1 1->2 1->3 2->4 3->4").unwrap();
        let dt = dominator_tree(cfg.graph(), cfg.entry());
        let sub: Vec<usize> = (0..5).filter(|&v| dt.dominates(n(1), n(v))).collect();
        assert_eq!(sub, vec![1, 2, 3, 4]);
    }

    #[test]
    fn direction_swaps_adjacency() {
        let cfg = parse_edge_list("0->1 1->2").unwrap();
        let g = cfg.graph();
        let fwd: Vec<_> = Direction::Forward.successors(g, n(1)).collect();
        let bwd: Vec<_> = Direction::Backward.successors(g, n(1)).collect();
        assert_eq!(fwd, vec![n(2)]);
        assert_eq!(bwd, vec![n(0)]);
    }
}
