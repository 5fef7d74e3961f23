//! Undirected depth-first search over a directed multigraph.
//!
//! The paper's Theorem 3 shows that cycle equivalence in a strongly
//! connected directed graph is preserved when edge directions are dropped,
//! and its fast algorithm runs on the resulting undirected multigraph.
//! [`UndirectedDfs`] provides exactly the traversal state that algorithm
//! needs: depth-first numbers, the spanning tree, and — because an
//! undirected DFS produces only tree edges and backedges — a partition of
//! the non-tree edges into *backedges* recorded at both endpoints
//! (descendant side and ancestor side). Self-loops are reported separately;
//! they form singleton cycle-equivalence classes and the main algorithm
//! skips them.

use crate::{EdgeId, Graph, NodeId};

/// Classification of an edge with respect to an undirected DFS tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UndirectedEdgeKind {
    /// Spanning-tree edge.
    Tree,
    /// Non-tree edge; in an undirected DFS it always connects a node to one
    /// of its tree ancestors.
    Back,
    /// Edge whose two endpoints coincide.
    SelfLoop,
    /// Edge in an unreached component (only when the graph is disconnected).
    Unreached,
}

/// Undirected depth-first search state over a directed [`Graph`].
///
/// Edge directions are ignored during traversal, so parallel and
/// anti-parallel edges are handled uniformly: the first edge between a pair
/// of nodes can become a tree edge, and every further edge between them
/// becomes a backedge.
///
/// # Examples
///
/// ```
/// use pst_cfg::{Graph, UndirectedDfs, UndirectedEdgeKind};
/// let mut g = Graph::new();
/// let n = g.add_nodes(3);
/// let e01 = g.add_edge(n[0], n[1]);
/// let e12 = g.add_edge(n[1], n[2]);
/// let e20 = g.add_edge(n[2], n[0]); // closes an (undirected) cycle
/// let dfs = UndirectedDfs::new(&g, n[0]);
/// assert!(dfs.is_connected());
/// assert_eq!(dfs.edge_kind(e01), UndirectedEdgeKind::Tree);
/// assert_eq!(dfs.edge_kind(e12), UndirectedEdgeKind::Tree);
/// assert_eq!(dfs.edge_kind(e20), UndirectedEdgeKind::Back);
/// ```
#[derive(Clone, Debug)]
pub struct UndirectedDfs {
    root: NodeId,
    node_count: usize,
    dfsnum: Vec<u32>,
    visited: Vec<bool>,
    nodes_by_dfsnum: Vec<NodeId>,
    parent: Vec<Option<NodeId>>,
    parent_edge: Vec<Option<EdgeId>>,
    children: Vec<Vec<NodeId>>,
    edge_kind: Vec<UndirectedEdgeKind>,
    /// Backedges whose descendant (lower) endpoint is this node.
    backedges_up: Vec<Vec<EdgeId>>,
    /// Backedges whose ancestor (upper) endpoint is this node.
    backedges_down: Vec<Vec<EdgeId>>,
    self_loops: Vec<EdgeId>,
}

impl UndirectedDfs {
    /// Runs an undirected DFS over `graph` from `root`.
    ///
    /// The search is iterative and therefore safe on arbitrarily deep
    /// graphs. If the graph is not connected (viewed undirected), nodes of
    /// other components keep `UndirectedEdgeKind::Unreached` edges and
    /// [`UndirectedDfs::is_connected`] returns `false`.
    pub fn new(graph: &Graph, root: NodeId) -> Self {
        let _span = pst_obs::Span::enter("undirected_dfs");
        pst_obs::counter!("dfs_edges_examined", graph.edge_count());
        let n = graph.node_count();
        let mut st = UndirectedDfs {
            root,
            node_count: n,
            dfsnum: vec![0; n],
            visited: vec![false; n],
            nodes_by_dfsnum: Vec::with_capacity(n),
            parent: vec![None; n],
            parent_edge: vec![None; n],
            children: vec![Vec::new(); n],
            edge_kind: vec![UndirectedEdgeKind::Unreached; graph.edge_count()],
            backedges_up: vec![Vec::new(); n],
            backedges_down: vec![Vec::new(); n],
            self_loops: Vec::new(),
        };
        // Per-node iterator state over incident edges (out then in).
        let mut stack: Vec<(NodeId, usize)> = Vec::new();
        let mut edge_seen = vec![false; graph.edge_count()];

        st.discover(root, None, None, &mut stack);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let out_deg = graph.out_degree(node);
            let total = out_deg + graph.in_degree(node);
            if *next >= total {
                stack.pop();
                continue;
            }
            let edge = if *next < out_deg {
                graph.out_edges(node)[*next]
            } else {
                graph.in_edges(node)[*next - out_deg]
            };
            *next += 1;
            if edge_seen[edge.index()] {
                continue;
            }
            edge_seen[edge.index()] = true;
            if graph.is_self_loop(edge) {
                st.edge_kind[edge.index()] = UndirectedEdgeKind::SelfLoop;
                st.self_loops.push(edge);
                continue;
            }
            let other = graph.other_endpoint(edge, node);
            if !st.visited[other.index()] {
                st.edge_kind[edge.index()] = UndirectedEdgeKind::Tree;
                st.discover(other, Some(node), Some(edge), &mut stack);
            } else {
                // In an undirected DFS every non-tree edge from the node
                // being expanded leads to an ancestor (still on the stack):
                // a finished node would imply a cross edge, which undirected
                // DFS cannot produce.
                st.edge_kind[edge.index()] = UndirectedEdgeKind::Back;
                st.backedges_up[node.index()].push(edge);
                st.backedges_down[other.index()].push(edge);
            }
        }
        st
    }

    fn discover(
        &mut self,
        node: NodeId,
        parent: Option<NodeId>,
        via: Option<EdgeId>,
        stack: &mut Vec<(NodeId, usize)>,
    ) {
        self.visited[node.index()] = true;
        self.dfsnum[node.index()] = self.nodes_by_dfsnum.len() as u32;
        self.nodes_by_dfsnum.push(node);
        self.parent[node.index()] = parent;
        self.parent_edge[node.index()] = via;
        if let Some(p) = parent {
            self.children[p.index()].push(node);
        }
        stack.push((node, 0));
    }

    /// The root of the search.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Whether the whole graph was reached (undirected connectivity).
    pub fn is_connected(&self) -> bool {
        self.nodes_by_dfsnum.len() == self.node_count
    }

    /// The lowest-numbered node the search did not reach, if any.
    pub fn first_unreached(&self) -> Option<NodeId> {
        self.visited
            .iter()
            .position(|&v| !v)
            .map(NodeId::from_index)
    }

    /// Depth-first (discovery) number of `node`.
    ///
    /// # Panics
    ///
    /// Meaningless (returns 0) for unreached nodes; check
    /// [`UndirectedDfs::is_connected`] first when the graph may be
    /// disconnected.
    #[inline]
    pub fn dfsnum(&self, node: NodeId) -> usize {
        self.dfsnum[node.index()] as usize
    }

    /// Nodes in discovery order (index = dfsnum).
    pub fn nodes_by_dfsnum(&self) -> &[NodeId] {
        &self.nodes_by_dfsnum
    }

    /// Tree parent of `node` (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// Tree edge connecting `node` to its parent (`None` for the root).
    pub fn parent_edge(&self, node: NodeId) -> Option<EdgeId> {
        self.parent_edge[node.index()]
    }

    /// Tree children of `node`, in discovery order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Classification of `edge`.
    pub fn edge_kind(&self, edge: EdgeId) -> UndirectedEdgeKind {
        self.edge_kind[edge.index()]
    }

    /// Backedges whose lower (descendant) endpoint is `node` — the ones the
    /// cycle-equivalence sweep *pushes* at `node`.
    pub fn backedges_up(&self, node: NodeId) -> &[EdgeId] {
        &self.backedges_up[node.index()]
    }

    /// Backedges whose upper (ancestor) endpoint is `node` — the ones the
    /// cycle-equivalence sweep *deletes* at `node`.
    pub fn backedges_down(&self, node: NodeId) -> &[EdgeId] {
        &self.backedges_down[node.index()]
    }

    /// All self-loop edges found during the traversal.
    pub fn self_loops(&self) -> &[EdgeId] {
        &self.self_loops
    }

    /// For a backedge, its upper (ancestor) endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not a backedge of this traversal.
    pub fn back_upper(&self, graph: &Graph, edge: EdgeId) -> NodeId {
        assert_eq!(
            self.edge_kind[edge.index()],
            UndirectedEdgeKind::Back,
            "{edge:?} is not a backedge"
        );
        let (s, t) = graph.endpoints(edge);
        if self.dfsnum(s) < self.dfsnum(t) {
            s
        } else {
            t
        }
    }

    /// For a backedge, its lower (descendant) endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not a backedge of this traversal.
    pub fn back_lower(&self, graph: &Graph, edge: EdgeId) -> NodeId {
        assert_eq!(
            self.edge_kind[edge.index()],
            UndirectedEdgeKind::Back,
            "{edge:?} is not a backedge"
        );
        let (s, t) = graph.endpoints(edge);
        if self.dfsnum(s) < self.dfsnum(t) {
            t
        } else {
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_plus_backedges_cover_everything() {
        // Directed triangle with an extra chord, traversed undirected.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        let edges = [
            g.add_edge(n[0], n[1]),
            g.add_edge(n[1], n[2]),
            g.add_edge(n[2], n[3]),
            g.add_edge(n[3], n[0]),
            g.add_edge(n[2], n[0]),
        ];
        let dfs = UndirectedDfs::new(&g, n[0]);
        assert!(dfs.is_connected());
        let trees = edges
            .iter()
            .filter(|&&e| dfs.edge_kind(e) == UndirectedEdgeKind::Tree)
            .count();
        let backs = edges
            .iter()
            .filter(|&&e| dfs.edge_kind(e) == UndirectedEdgeKind::Back)
            .count();
        assert_eq!(trees, 3); // spanning tree of 4 nodes
        assert_eq!(backs, 2);
    }

    #[test]
    fn backedge_endpoints_are_ancestor_related() {
        let mut g = Graph::new();
        let n = g.add_nodes(5);
        for w in n.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let back = g.add_edge(n[4], n[1]);
        let dfs = UndirectedDfs::new(&g, n[0]);
        assert_eq!(dfs.edge_kind(back), UndirectedEdgeKind::Back);
        assert_eq!(dfs.back_upper(&g, back), n[1]);
        assert_eq!(dfs.back_lower(&g, back), n[4]);
        assert_eq!(dfs.backedges_up(n[4]), &[back]);
        assert_eq!(dfs.backedges_down(n[1]), &[back]);
    }

    #[test]
    fn anti_parallel_pair_gives_tree_plus_back() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        let e1 = g.add_edge(n[0], n[1]);
        let e2 = g.add_edge(n[1], n[0]);
        let dfs = UndirectedDfs::new(&g, n[0]);
        assert_eq!(dfs.edge_kind(e1), UndirectedEdgeKind::Tree);
        assert_eq!(dfs.edge_kind(e2), UndirectedEdgeKind::Back);
        assert_eq!(dfs.back_upper(&g, e2), n[0]);
    }

    #[test]
    fn parallel_pair_gives_tree_plus_back() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        let e1 = g.add_edge(n[0], n[1]);
        let e2 = g.add_edge(n[0], n[1]);
        let dfs = UndirectedDfs::new(&g, n[0]);
        assert_eq!(dfs.edge_kind(e1), UndirectedEdgeKind::Tree);
        assert_eq!(dfs.edge_kind(e2), UndirectedEdgeKind::Back);
    }

    #[test]
    fn self_loops_are_separated() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        let l = g.add_edge(n[0], n[0]);
        let t = g.add_edge(n[0], n[1]);
        let dfs = UndirectedDfs::new(&g, n[0]);
        assert_eq!(dfs.edge_kind(l), UndirectedEdgeKind::SelfLoop);
        assert_eq!(dfs.self_loops(), &[l]);
        assert_eq!(dfs.edge_kind(t), UndirectedEdgeKind::Tree);
        assert!(dfs.backedges_up(n[0]).is_empty());
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        let _ = g.add_edge(n[0], n[1]);
        let dfs = UndirectedDfs::new(&g, n[0]);
        assert!(!dfs.is_connected());
        assert_eq!(dfs.nodes_by_dfsnum().len(), 2);
    }

    #[test]
    fn children_in_discovery_order() {
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[0], n[2]);
        g.add_edge(n[0], n[3]);
        let dfs = UndirectedDfs::new(&g, n[0]);
        assert_eq!(dfs.children(n[0]), &[n[1], n[2], n[3]]);
        assert_eq!(dfs.parent(n[2]), Some(n[0]));
    }

    #[test]
    fn deep_chain_is_stack_safe() {
        let mut g = Graph::new();
        let nodes = g.add_nodes(50_000);
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let dfs = UndirectedDfs::new(&g, nodes[0]);
        assert!(dfs.is_connected());
        assert_eq!(dfs.dfsnum(nodes[49_999]), 49_999);
    }

    #[test]
    fn incoming_edges_are_traversed_undirected() {
        // Edge points 1 -> 0 but DFS starts at 0 and must still reach 1.
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        let e = g.add_edge(n[1], n[0]);
        let dfs = UndirectedDfs::new(&g, n[0]);
        assert!(dfs.is_connected());
        assert_eq!(dfs.edge_kind(e), UndirectedEdgeKind::Tree);
        assert_eq!(dfs.parent(n[1]), Some(n[0]));
    }
}
