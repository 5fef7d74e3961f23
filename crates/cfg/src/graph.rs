//! A directed multigraph: a flat edge array with compressed-row adjacency.
//!
//! [`Graph`] is the storage substrate shared by every analysis in this
//! workspace. It supports parallel edges and self-loops (both occur in real
//! control flow graphs: a two-armed conditional whose arms are empty produces
//! parallel edges, and a one-block spin loop produces a self-loop), and it
//! hands out dense [`NodeId`]/[`EdgeId`] indices so that analyses can store
//! their results in plain vectors.
//!
//! # Storage
//!
//! A graph is its node count plus one flat array of `(source, target)`
//! pairs indexed by [`EdgeId`]; a node has no storage of its own, so
//! building a graph allocates nothing per node or edge beyond that array.
//! Adjacency queries read two compressed-row (CSR) indexes, one over
//! out-edges and one over in-edges: node `v`'s row is
//! `list[start[v]..start[v + 1]]` and holds its edges in edge-id order,
//! which is insertion order. An index is built on the first query that
//! needs it, by one counting pass and one filling pass over the edges
//! ([`group_rows`](crate::group_rows)), and every mutation drops both.
//! Queries that read only endpoints ([`Graph::source`],
//! [`Graph::endpoints`], ...) never build one.
//!
//! The contract this asks of callers: mutate in phases. Add the nodes and
//! edges, then query. A mutation after a query costs an `O(N + E)`
//! rebuild at the next query, so a loop that alternates the two is
//! quadratic. Every builder in this workspace mutates in a constant number
//! of phases; the `graph_adjacency_builds` counter counts the builds.

use std::fmt;
use std::sync::OnceLock;

use crate::{group_rows, EdgeId, NodeId};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EdgeData {
    source: NodeId,
    target: NodeId,
}

/// One direction's adjacency in compressed rows: the edges of node `v`
/// are `list[start[v]..start[v + 1]]`, in edge-id order.
struct Adjacency {
    start: Vec<u32>,
    list: Vec<EdgeId>,
}

impl Adjacency {
    /// Groups `edges` by the endpoint `key` picks out of each.
    fn build(node_count: usize, edges: &[EdgeData], key: fn(&EdgeData) -> NodeId) -> Self {
        pst_obs::counter!("graph_adjacency_builds");
        let (start, list) = group_rows(node_count, EdgeId::from_index(0), || {
            edges
                .iter()
                .enumerate()
                .map(|(i, d)| (key(d).index(), EdgeId::from_index(i)))
        });
        Adjacency { start, list }
    }

    #[inline]
    fn row(&self, node: NodeId) -> &[EdgeId] {
        let v = node.index();
        &self.list[self.start[v] as usize..self.start[v + 1] as usize]
    }

    /// The row length, read from the offsets without forming the row.
    #[inline]
    fn degree(&self, node: NodeId) -> usize {
        let v = node.index();
        (self.start[v + 1] - self.start[v]) as usize
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only mutation: `add_edge` keeps a built index, so the oracle
    /// comparison can be shown to fail.
    static KEEP_STALE_INDEX: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A directed multigraph with dense node and edge ids.
///
/// Nodes and edges can only be added, never removed; analyses that need to
/// "delete" parts of a graph (e.g. the T1/T2 reducibility test) maintain
/// their own alive-sets instead. This keeps ids stable and side tables cheap.
///
/// Edges live in one flat array; the adjacency of every node lives in two
/// compressed-row indexes, out-edges and in-edges, each built by the first
/// query that needs it and dropped by any `add_node`/`add_edge`. Queries
/// that read only endpoints never build one. Build a graph in phases, all
/// mutations before the queries that follow them: a mutation after a
/// query costs an `O(N + E)` rebuild at the next query.
///
/// Equality compares the node count and the edges, never the indexes,
/// and a clone copies only those: every clone in this workspace is
/// mutated next, which would drop copied indexes anyway.
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
#[derive(Default)]
pub struct Graph {
    node_count: usize,
    edges: Vec<EdgeData>,
    out_index: OnceLock<Adjacency>,
    in_index: OnceLock<Adjacency>,
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        self.clone_reserving(0)
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.node_count == other.node_count && self.edges == other.edges
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("node_count", &self.node_count)
            .field("edges", &self.edges)
            .finish()
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty graph with preallocated capacity.
    ///
    /// Nodes take no storage until an adjacency index is built, so only
    /// the edge capacity is reserved.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        let _ = nodes;
        Graph {
            edges: Vec::with_capacity(edges),
            ..Graph::default()
        }
    }

    /// A clone with room for `extra_edges` more edges.
    pub(crate) fn clone_reserving(&self, extra_edges: usize) -> Graph {
        let mut edges = Vec::with_capacity(self.edges.len() + extra_edges);
        edges.extend_from_slice(&self.edges);
        Graph {
            node_count: self.node_count,
            edges,
            ..Graph::default()
        }
    }

    /// Adds a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.node_count);
        self.node_count += 1;
        self.drop_indexes();
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
        assert!(source.index() < self.node_count, "unknown source node");
        assert!(target.index() < self.node_count, "unknown target node");
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(EdgeData { source, target });
        #[cfg(test)]
        if KEEP_STALE_INDEX.with(std::cell::Cell::get) {
            return id;
        }
        self.drop_indexes();
        id
    }

    fn drop_indexes(&mut self) {
        self.out_index.take();
        self.in_index.take();
    }

    #[inline]
    fn out_index(&self) -> &Adjacency {
        self.out_index
            .get_or_init(|| Adjacency::build(self.node_count, &self.edges, |d| d.source))
    }

    #[inline]
    fn in_index(&self) -> &Adjacency {
        self.in_index
            .get_or_init(|| Adjacency::build(self.node_count, &self.edges, |d| d.target))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_count == 0
    }

    /// Iterates over all node ids in index order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count).map(NodeId::from_index)
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
        self.out_index().row(node)
    }

    /// Incoming edges of `node` in insertion order.
    #[inline]
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        self.in_index().row(node)
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
        self.out_index().degree(node)
    }

    /// In-degree of `node` (counting parallel edges).
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_index().degree(node)
    }

    /// All edges incident to `node`, outgoing first then incoming.
    ///
    /// A self-loop on `node` appears twice (once per direction), which is the
    /// convention undirected traversals expect.
    pub fn incident_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_edges(node)
            .iter()
            .chain(self.in_edges(node))
            .copied()
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
    use proptest::prelude::*;

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

    /// The per-node `Vec` adjacency that the CSR indexes replaced, kept as
    /// their oracle: it is updated on every mutation, so it is never
    /// stale.
    #[derive(Default)]
    struct VecAdjacency {
        out_edges: Vec<Vec<EdgeId>>,
        in_edges: Vec<Vec<EdgeId>>,
        targets: Vec<NodeId>,
        sources: Vec<NodeId>,
    }

    impl VecAdjacency {
        fn add_node(&mut self) {
            self.out_edges.push(Vec::new());
            self.in_edges.push(Vec::new());
        }

        fn add_edge(&mut self, source: NodeId, target: NodeId) {
            let id = EdgeId::from_index(self.targets.len());
            self.out_edges[source.index()].push(id);
            self.in_edges[target.index()].push(id);
            self.sources.push(source);
            self.targets.push(target);
        }
    }

    /// Every adjacency query of `g` against the oracle, node by node.
    fn agrees(g: &Graph, oracle: &VecAdjacency) -> Result<(), String> {
        if g.node_count() != oracle.out_edges.len() || g.edge_count() != oracle.targets.len() {
            return Err("node or edge count differs".to_string());
        }
        for v in g.nodes() {
            let (outs, ins) = (&oracle.out_edges[v.index()], &oracle.in_edges[v.index()]);
            let succs: Vec<NodeId> = outs.iter().map(|e| oracle.targets[e.index()]).collect();
            let preds: Vec<NodeId> = ins.iter().map(|e| oracle.sources[e.index()]).collect();
            let incident: Vec<EdgeId> = outs.iter().chain(ins).copied().collect();
            let checks = [
                g.out_edges(v) == outs.as_slice(),
                g.in_edges(v) == ins.as_slice(),
                g.successors(v).collect::<Vec<_>>() == succs,
                g.predecessors(v).collect::<Vec<_>>() == preds,
                g.incident_edges(v).collect::<Vec<_>>() == incident,
                g.out_degree(v) == outs.len(),
                g.in_degree(v) == ins.len(),
            ];
            if let Some(i) = checks.iter().position(|ok| !ok) {
                return Err(format!("query {i} disagrees at {v:?}"));
            }
        }
        Ok(())
    }

    #[derive(Clone, Debug)]
    enum Step {
        AddNode,
        AddNodes(usize),
        /// Endpoints as picks modulo the node count; with few nodes this
        /// makes self-loops and parallel edges common.
        AddEdge(usize, usize),
        /// One query that builds only the out-edge index.
        OutDegree(usize),
    }

    /// Steps with edges four times as likely as each other kind.
    fn step() -> impl Strategy<Value = Step> {
        let edge = || (0usize..64, 0usize..64).prop_map(|(a, b)| Step::AddEdge(a, b));
        prop_oneof![
            Just(Step::AddNode),
            (0usize..4).prop_map(Step::AddNodes),
            edge(),
            edge(),
            edge(),
            edge(),
            (0usize..64).prop_map(Step::OutDegree),
        ]
    }

    /// Applies `step` to both graphs; an edge step on a graph without
    /// nodes does nothing.
    fn apply(g: &mut Graph, oracle: &mut VecAdjacency, step: &Step) {
        let pick = |i: usize, g: &Graph| NodeId::from_index(i % g.node_count());
        match *step {
            Step::AddNode => {
                g.add_node();
                oracle.add_node();
            }
            Step::AddNodes(k) => {
                g.add_nodes(k);
                (0..k).for_each(|_| oracle.add_node());
            }
            Step::AddEdge(a, b) if !g.is_empty() => {
                let (s, t) = (pick(a, g), pick(b, g));
                g.add_edge(s, t);
                oracle.add_edge(s, t);
            }
            Step::OutDegree(a) if !g.is_empty() => {
                let _ = g.out_degree(pick(a, g));
            }
            Step::AddEdge(..) | Step::OutDegree(_) => {}
        }
    }

    /// Runs `steps`, comparing every query with the oracle after each.
    fn run(steps: &[Step]) -> Result<(), String> {
        let (mut g, mut oracle) = (Graph::new(), VecAdjacency::default());
        for (i, step) in steps.iter().enumerate() {
            apply(&mut g, &mut oracle, step);
            agrees(&g, &oracle).map_err(|e| format!("after step {i} ({step:?}): {e}"))?;
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn csr_index_matches_vec_adjacency(steps in proptest::collection::vec(step(), 0..60)) {
            prop_assert_eq!(run(&steps), Ok(()));
        }
    }

    #[test]
    fn a_stale_index_is_caught_by_the_oracle() {
        let steps = [
            Step::AddNodes(2),
            Step::AddEdge(0, 1),
            Step::AddEdge(1, 1),
            Step::AddEdge(0, 1),
        ];
        assert_eq!(run(&steps), Ok(()));
        KEEP_STALE_INDEX.with(|m| m.set(true));
        let mutated = run(&steps);
        KEEP_STALE_INDEX.with(|m| m.set(false));
        assert!(mutated.is_err(), "the oracle missed a stale index");
    }

    #[test]
    fn equality_and_clones_ignore_the_indexes() {
        let (g, n, _) = diamond();
        let fresh = g.clone();
        let _ = g.out_degree(n[0]);
        assert_eq!(g, fresh);
        assert_eq!(format!("{g:?}"), format!("{fresh:?}"));
        let copy = g.clone();
        assert_eq!(copy.successors(n[0]).collect::<Vec<_>>(), vec![n[1], n[2]]);
    }
}
