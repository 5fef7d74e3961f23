//! An arena-based directed multigraph.
//!
//! [`Graph`] is the storage substrate shared by every analysis in this
//! workspace. It supports parallel edges and self-loops (both occur in real
//! control flow graphs: a two-armed conditional whose arms are empty produces
//! parallel edges, and a one-block spin loop produces a self-loop), and it
//! hands out dense [`NodeId`]/[`EdgeId`] indices so that analyses can store
//! their results in plain vectors.

use crate::{EdgeId, NodeId};

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct NodeData {
    out_edges: Vec<EdgeId>,
    in_edges: Vec<EdgeId>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EdgeData {
    source: NodeId,
    target: NodeId,
}

/// A directed multigraph with dense node and edge ids.
///
/// Nodes and edges can only be added, never removed; analyses that need to
/// "delete" parts of a graph (e.g. the T1/T2 reducibility test) maintain
/// their own alive-sets instead. This keeps ids stable and side tables cheap.
///
/// # Examples
///
/// ```
/// use pst_cfg::Graph;
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let e = g.add_edge(a, b);
/// assert_eq!(g.source(e), a);
/// assert_eq!(g.target(e), b);
/// assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Graph {
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty graph with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeData::default());
        id
    }

    /// Adds `count` fresh nodes and returns their ids in order.
    pub fn add_nodes(&mut self, count: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.add_node()).collect()
    }

    /// Adds a directed edge from `source` to `target` and returns its id.
    ///
    /// Parallel edges and self-loops are permitted.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, source: NodeId, target: NodeId) -> EdgeId {
        assert!(source.index() < self.nodes.len(), "unknown source node");
        assert!(target.index() < self.nodes.len(), "unknown target node");
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(EdgeData { source, target });
        self.nodes[source.index()].out_edges.push(id);
        self.nodes[target.index()].in_edges.push(id);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over all node ids in index order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterates over all edge ids in index order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// The source node of `edge`.
    #[inline]
    pub fn source(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.index()].source
    }

    /// The target node of `edge`.
    #[inline]
    pub fn target(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.index()].target
    }

    /// Both endpoints of `edge` as `(source, target)`.
    #[inline]
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let d = self.edges[edge.index()];
        (d.source, d.target)
    }

    /// Given one endpoint of `edge`, returns the other endpoint.
    ///
    /// For a self-loop the "other" endpoint is the node itself.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of `edge`.
    #[inline]
    pub fn other_endpoint(&self, edge: EdgeId, node: NodeId) -> NodeId {
        let d = self.edges[edge.index()];
        if d.source == node {
            d.target
        } else if d.target == node {
            d.source
        } else {
            panic!("{node:?} is not an endpoint of {edge:?}");
        }
    }

    /// Whether `edge` is a self-loop.
    #[inline]
    pub fn is_self_loop(&self, edge: EdgeId) -> bool {
        let d = self.edges[edge.index()];
        d.source == d.target
    }

    /// Outgoing edges of `node` in insertion order.
    #[inline]
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.nodes[node.index()].out_edges
    }

    /// Incoming edges of `node` in insertion order.
    #[inline]
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.nodes[node.index()].in_edges
    }

    /// Successor nodes of `node` (with multiplicity, in insertion order).
    pub fn successors(&self, node: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.out_edges(node).iter().map(|&e| self.target(e))
    }

    /// Predecessor nodes of `node` (with multiplicity, in insertion order).
    pub fn predecessors(&self, node: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.in_edges(node).iter().map(|&e| self.source(e))
    }

    /// Out-degree of `node` (counting parallel edges).
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges(node).len()
    }

    /// In-degree of `node` (counting parallel edges).
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_edges(node).len()
    }

    /// All edges incident to `node`, outgoing first then incoming.
    ///
    /// A self-loop on `node` appears twice (once per direction), which is the
    /// convention undirected traversals expect.
    pub fn incident_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        let d = &self.nodes[node.index()];
        d.out_edges.iter().chain(d.in_edges.iter()).copied()
    }

    /// Returns a new graph with every edge reversed.
    ///
    /// Node ids are preserved; edge ids are preserved too (edge `e` of the
    /// reverse graph connects `target(e) -> source(e)` of this graph).
    pub fn reversed(&self) -> Graph {
        let mut g = Graph::with_capacity(self.node_count(), self.edge_count());
        g.add_nodes(self.node_count());
        for e in self.edges() {
            let (s, t) = self.endpoints(e);
            g.add_edge(t, s);
        }
        g
    }

    /// Returns the set of nodes reachable from `start` following directed
    /// edges, as a boolean side table indexed by node.
    pub fn reachable_from(&self, start: NodeId) -> Vec<bool> {
        self.reachable_from_avoiding(start, None)
    }

    /// The set of nodes from which `target` is reachable following directed
    /// edges: a backward search over in-edges, so no reversed copy of the
    /// graph is built.
    pub fn reaching(&self, target: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![target];
        seen[target.index()] = true;
        while let Some(n) = stack.pop() {
            for &e in self.in_edges(n) {
                let s = self.source(e);
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Reachability from `start`, optionally refusing to traverse `avoid`.
    ///
    /// This is the primitive behind the slow cycle-equivalence oracle: a
    /// cycle through edge `a` avoiding edge `b` exists iff `source(a)` is
    /// reachable from `target(a)` without crossing `b`.
    pub fn reachable_from_avoiding(&self, start: NodeId, avoid: Option<EdgeId>) -> Vec<bool> {
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        while let Some(n) = stack.pop() {
            for &e in self.out_edges(n) {
                if Some(e) == avoid {
                    continue;
                }
                let t = self.target(e);
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    stack.push(t);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, Vec<NodeId>, Vec<EdgeId>) {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        let e = vec![
            g.add_edge(n[0], n[1]),
            g.add_edge(n[0], n[2]),
            g.add_edge(n[1], n[3]),
            g.add_edge(n[2], n[3]),
        ];
        (g, n, e)
    }

    #[test]
    fn counts_and_iteration() {
        let (g, n, e) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(!g.is_empty());
        assert_eq!(g.nodes().collect::<Vec<_>>(), n);
        assert_eq!(g.edges().collect::<Vec<_>>(), e);
    }

    #[test]
    fn endpoints_and_adjacency() {
        let (g, n, e) = diamond();
        assert_eq!(g.endpoints(e[1]), (n[0], n[2]));
        assert_eq!(g.successors(n[0]).collect::<Vec<_>>(), vec![n[1], n[2]]);
        assert_eq!(g.predecessors(n[3]).collect::<Vec<_>>(), vec![n[1], n[2]]);
        assert_eq!(g.out_degree(n[0]), 2);
        assert_eq!(g.in_degree(n[3]), 2);
        assert_eq!(g.other_endpoint(e[0], n[0]), n[1]);
        assert_eq!(g.other_endpoint(e[0], n[1]), n[0]);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_endpoint_rejects_foreign_node() {
        let (g, n, e) = diamond();
        let _ = g.other_endpoint(e[0], n[3]);
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let e1 = g.add_edge(a, b);
        let e2 = g.add_edge(a, b);
        assert_ne!(e1, e2);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b, b]);
    }

    #[test]
    fn self_loops() {
        let mut g = Graph::new();
        let a = g.add_node();
        let e = g.add_edge(a, a);
        assert!(g.is_self_loop(e));
        assert_eq!(g.other_endpoint(e, a), a);
        // A self-loop contributes to both degree counts.
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.incident_edges(a).count(), 2);
    }

    #[test]
    fn reversed_preserves_ids() {
        let (g, n, e) = diamond();
        let r = g.reversed();
        assert_eq!(r.node_count(), g.node_count());
        assert_eq!(r.edge_count(), g.edge_count());
        for &edge in &e {
            assert_eq!(r.source(edge), g.target(edge));
            assert_eq!(r.target(edge), g.source(edge));
        }
        assert_eq!(r.successors(n[3]).collect::<Vec<_>>(), vec![n[1], n[2]]);
    }

    #[test]
    fn reachability() {
        let (g, n, _) = diamond();
        let seen = g.reachable_from(n[1]);
        assert_eq!(seen, vec![false, true, false, true]);
    }

    #[test]
    fn reaching_matches_reversed_reachability() {
        let (g, n, _) = diamond();
        for &node in &n {
            assert_eq!(g.reaching(node), g.reversed().reachable_from(node));
        }
        assert_eq!(g.reaching(n[3]), vec![true, true, true, true]);
        assert_eq!(g.reaching(n[1]), vec![true, true, false, false]);
    }

    #[test]
    fn reachability_avoiding_edge() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        let _a = g.add_edge(n[0], n[1]);
        let b = g.add_edge(n[1], n[2]);
        let seen = g.reachable_from_avoiding(n[0], Some(b));
        assert_eq!(seen, vec![true, true, false]);
    }

    #[test]
    #[should_panic(expected = "unknown source node")]
    fn add_edge_validates_endpoints() {
        let mut g = Graph::new();
        let a = g.add_node();
        let ghost = NodeId::from_index(7);
        let _ = g.add_edge(ghost, a);
    }
}
