//! Directed depth-first search with edge classification.
//!
//! [`Dfs`] performs an iterative (stack-safe) depth-first traversal from a
//! root, visiting out-edges in insertion order — the same order a recursive
//! implementation would use. It records pre/post numbering, the spanning
//! tree, the classification of every examined edge (tree, back, forward,
//! cross), and the order in which edges were first examined. The examination
//! order is what the PST construction relies on: the paper observes that any
//! directed DFS of a CFG meets the edges of one cycle-equivalence class in
//! dominance order.

use crate::{EdgeId, Graph, NodeId};

/// Classification of a directed edge with respect to a DFS spanning tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DirectedEdgeKind {
    /// First edge along which the target was discovered.
    Tree,
    /// Edge to an ancestor that is still open (includes self-loops).
    Back,
    /// Edge to an already-finished proper descendant.
    Forward,
    /// Edge to an already-finished non-descendant.
    Cross,
}

/// Result of a directed depth-first search from a root node.
///
/// Nodes not reachable from the root have no numbers and their incident
/// edges may be unclassified.
///
/// # Examples
///
/// ```
/// use pst_cfg::{parse_edge_list, Dfs, DirectedEdgeKind};
/// let cfg = parse_edge_list("0->1 1->2 2->1 1->3 2->3").unwrap();
/// let dfs = Dfs::new(cfg.graph(), cfg.entry());
/// // 2 -> 1 closes a loop: it must be a back edge.
/// let back = cfg.graph().edges().find(|&e| {
///     cfg.graph().source(e).index() == 2 && cfg.graph().target(e).index() == 1
/// }).unwrap();
/// assert_eq!(dfs.edge_kind(back), Some(DirectedEdgeKind::Back));
/// ```
#[derive(Clone, Debug)]
pub struct Dfs {
    root: NodeId,
    preorder: Vec<Option<u32>>,
    postorder: Vec<Option<u32>>,
    parent_edge: Vec<Option<EdgeId>>,
    preorder_nodes: Vec<NodeId>,
    postorder_nodes: Vec<NodeId>,
    edge_kind: Vec<Option<DirectedEdgeKind>>,
    edge_exam_order: Vec<EdgeId>,
}

impl Dfs {
    /// Runs a depth-first search over `graph` starting at `root`.
    pub fn new(graph: &Graph, root: NodeId) -> Self {
        let n = graph.node_count();
        let mut dfs = Dfs {
            root,
            preorder: vec![None; n],
            postorder: vec![None; n],
            parent_edge: vec![None; n],
            preorder_nodes: Vec::with_capacity(n),
            postorder_nodes: Vec::with_capacity(n),
            edge_kind: vec![None; graph.edge_count()],
            edge_exam_order: Vec::with_capacity(graph.edge_count()),
        };
        // `open[v]` is true while v is on the DFS stack (discovered, not
        // finished); used to distinguish back edges from cross/forward edges.
        let mut open = vec![false; n];
        let mut stack: Vec<(NodeId, usize)> = Vec::new();

        dfs.discover(root, None, &mut open, &mut stack);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let out = graph.out_edges(node);
            if *next < out.len() {
                let edge = out[*next];
                *next += 1;
                dfs.edge_exam_order.push(edge);
                let target = graph.target(edge);
                let kind = if dfs.preorder[target.index()].is_none() {
                    dfs.discover(target, Some(edge), &mut open, &mut stack);
                    DirectedEdgeKind::Tree
                } else if open[target.index()] {
                    DirectedEdgeKind::Back
                } else if dfs.preorder[node.index()] < dfs.preorder[target.index()] {
                    DirectedEdgeKind::Forward
                } else {
                    DirectedEdgeKind::Cross
                };
                dfs.edge_kind[edge.index()] = Some(kind);
            } else {
                open[node.index()] = false;
                dfs.postorder[node.index()] = Some(dfs.postorder_nodes.len() as u32);
                dfs.postorder_nodes.push(node);
                stack.pop();
            }
        }
        dfs
    }

    fn discover(
        &mut self,
        node: NodeId,
        via: Option<EdgeId>,
        open: &mut [bool],
        stack: &mut Vec<(NodeId, usize)>,
    ) {
        self.preorder[node.index()] = Some(self.preorder_nodes.len() as u32);
        self.preorder_nodes.push(node);
        self.parent_edge[node.index()] = via;
        open[node.index()] = true;
        stack.push((node, 0));
    }

    /// The root the search started from.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Preorder (discovery) number of `node`, or `None` if unreachable.
    pub fn preorder_number(&self, node: NodeId) -> Option<usize> {
        self.preorder[node.index()].map(|x| x as usize)
    }

    /// Postorder (finish) number of `node`, or `None` if unreachable.
    pub fn postorder_number(&self, node: NodeId) -> Option<usize> {
        self.postorder[node.index()].map(|x| x as usize)
    }

    /// The tree edge through which `node` was discovered (`None` for the
    /// root and unreachable nodes).
    pub fn parent_edge(&self, node: NodeId) -> Option<EdgeId> {
        self.parent_edge[node.index()]
    }

    /// Nodes in discovery (pre-) order.
    pub fn preorder_nodes(&self) -> &[NodeId] {
        &self.preorder_nodes
    }

    /// Nodes in finish (post-) order.
    pub fn postorder_nodes(&self) -> &[NodeId] {
        &self.postorder_nodes
    }

    /// Classification of `edge`, or `None` if its source was unreachable.
    pub fn edge_kind(&self, edge: EdgeId) -> Option<DirectedEdgeKind> {
        self.edge_kind[edge.index()]
    }

    /// Every examined edge, in first-examination order.
    pub fn edges_in_examination_order(&self) -> &[EdgeId] {
        &self.edge_exam_order
    }

    /// Number of nodes reached from the root.
    pub fn reached_count(&self) -> usize {
        self.preorder_nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_edge_list;

    fn kind_of(dfs: &Dfs, g: &Graph, s: usize, t: usize) -> DirectedEdgeKind {
        let e = g
            .edges()
            .find(|&e| g.source(e).index() == s && g.target(e).index() == t)
            .unwrap();
        dfs.edge_kind(e).unwrap()
    }

    #[test]
    fn straight_line_numbers() {
        let cfg = parse_edge_list("0->1 1->2").unwrap();
        let dfs = Dfs::new(cfg.graph(), cfg.entry());
        assert_eq!(dfs.preorder_number(cfg.entry()), Some(0));
        assert_eq!(dfs.postorder_number(cfg.entry()), Some(2));
        assert_eq!(dfs.reached_count(), 3);
        assert_eq!(
            dfs.postorder_nodes()
                .iter()
                .map(|n| n.index())
                .collect::<Vec<_>>(),
            vec![2, 1, 0]
        );
    }

    #[test]
    fn classifies_all_four_kinds() {
        // 0->1 (tree), 1->2 (tree), 2->1 (back), 1->3 (tree), 0->3 (cross or
        // forward depending on order), 0->2 (forward).
        let cfg = parse_edge_list("0->1 1->2 2->1 2->3 1->3 0->3").unwrap();
        let g = cfg.graph();
        let dfs = Dfs::new(g, cfg.entry());
        assert_eq!(kind_of(&dfs, g, 0, 1), DirectedEdgeKind::Tree);
        assert_eq!(kind_of(&dfs, g, 1, 2), DirectedEdgeKind::Tree);
        assert_eq!(kind_of(&dfs, g, 2, 1), DirectedEdgeKind::Back);
        assert_eq!(kind_of(&dfs, g, 2, 3), DirectedEdgeKind::Tree);
        assert_eq!(kind_of(&dfs, g, 1, 3), DirectedEdgeKind::Forward);
        assert_eq!(kind_of(&dfs, g, 0, 3), DirectedEdgeKind::Forward);
    }

    #[test]
    fn classifies_cross_edge() {
        let cfg = parse_edge_list("0->1 1->3 0->2 2->3 2->1").unwrap();
        let g = cfg.graph();
        let dfs = Dfs::new(g, cfg.entry());
        // 0->1 explored first, so subtree {1,3} finishes before 2 starts.
        assert_eq!(kind_of(&dfs, g, 2, 1), DirectedEdgeKind::Cross);
        assert_eq!(kind_of(&dfs, g, 2, 3), DirectedEdgeKind::Cross);
    }

    #[test]
    fn self_loop_is_back_edge() {
        let cfg = parse_edge_list("0->1 1->1 1->2").unwrap();
        let g = cfg.graph();
        let dfs = Dfs::new(g, cfg.entry());
        assert_eq!(kind_of(&dfs, g, 1, 1), DirectedEdgeKind::Back);
    }

    #[test]
    fn examination_order_matches_recursive_semantics() {
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
        let g = cfg.graph();
        let dfs = Dfs::new(g, cfg.entry());
        let order: Vec<(usize, usize)> = dfs
            .edges_in_examination_order()
            .iter()
            .map(|&e| (g.source(e).index(), g.target(e).index()))
            .collect();
        // Recursive DFS: 0->1 first, fully explore (1->3), return, then 0->2.
        assert_eq!(order, vec![(0, 1), (1, 3), (0, 2), (2, 3)]);
        assert_eq!(order.len(), g.edge_count());
    }

    #[test]
    fn unreachable_nodes_have_no_numbers() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[2], n[1]);
        let dfs = Dfs::new(&g, n[0]);
        assert_eq!(dfs.preorder_number(n[2]), None);
        assert_eq!(dfs.postorder_number(n[2]), None);
        assert_eq!(dfs.reached_count(), 2);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 50_000-node chain: a recursive DFS would blow the stack.
        let mut g = Graph::new();
        let nodes = g.add_nodes(50_000);
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let dfs = Dfs::new(&g, nodes[0]);
        assert_eq!(dfs.reached_count(), 50_000);
        assert_eq!(dfs.postorder_number(nodes[0]), Some(49_999));
    }

    #[test]
    fn parallel_edges_second_is_forward() {
        let cfg = parse_edge_list("0->1 0->1 1->2").unwrap();
        let g = cfg.graph();
        let dfs = Dfs::new(g, cfg.entry());
        let kinds: Vec<_> = g
            .out_edges(cfg.entry())
            .iter()
            .map(|&e| dfs.edge_kind(e).unwrap())
            .collect();
        assert_eq!(
            kinds,
            vec![DirectedEdgeKind::Tree, DirectedEdgeKind::Forward]
        );
    }
}
