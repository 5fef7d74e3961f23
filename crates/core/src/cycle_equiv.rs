//! Cycle equivalence of edges — the paper's core algorithmic contribution.
//!
//! Two edges of a strongly connected graph are *cycle equivalent* iff every
//! cycle contains both or neither (Definition 4). Theorem 3 lets the
//! computation run on the **undirected** multigraph, where one depth-first
//! search suffices: every non-tree edge is a backedge, a tree edge's cycle
//! class is named by its set of *brackets* (Theorem 5), and bracket sets
//! get compact `<top bracket, size>` names maintained with O(1)
//! [`BracketList`](crate::bracket::BracketList) operations and *capping
//! backedges* at branch points (§3.4–3.5, Figure 4).
//!
//! [`CycleEquiv::compute`] implements the linear-time algorithm;
//! [`cycle_equiv_slow_directed`] and [`cycle_equiv_slow_undirected`] are the
//! quadratic reachability-based oracles used to validate it.
//!
//! # Flat layout
//!
//! The fast path never builds a [`Graph`]. Its input is a node count, an
//! edge count and an *endpoint function* `e ↦ (u, v)`, so callers can hand
//! it `S = G + (exit→entry)` or the node expansion `T(S)` without
//! materializing either (see [`canonical_regions`](crate::canonical_regions)
//! and [`ControlRegions`](crate::ControlRegions)). Every array is `u32`,
//! with [`NONE`] as the missing value:
//!
//! * **Incidence CSR.** One counting pass over the endpoint function sizes
//!   each node's slice of `(edge, other endpoint)` pairs; a second pass
//!   fills them. Self-loops stay out, and get their singleton classes last.
//! * **DFS.** An iterative search over the CSR records only each node's
//!   `dfsnum`, and, per dfsnum, the node and the tree edge into it.
//! * **Sweep.** Nodes are visited in reverse preorder. A node's children
//!   and backedges are found by scanning its incidence slice: a neighbour
//!   whose tree edge is this edge is a child; any other neighbour is an
//!   ancestor (backedge up) or a descendant (backedge down), as the
//!   `dfsnum` comparison says. Per-dfsnum slots hold `hi`, the bracket
//!   list and the head of the capping chain; no per-node `Vec` exists.
//! * **Brackets.** A backedge's bracket id is its edge id, and its class is
//!   written straight into the result. A capping backedge created at node
//!   `v` borrows the id of `v`'s tree edge, whose arena cell no backedge
//!   uses; capping brackets with one destination are chained through the
//!   cells' spare link. The arena is therefore exactly one cell per edge.
//!
//! Operation counts (`brackets_pushed` and friends) are kept in locals and
//! flushed to `pst-obs` once per call.

use std::error::Error;
use std::fmt;

use pst_cfg::{group_rows, Budget, EdgeId, Exhausted, Graph, NodeId};

use crate::bracket::{BracketArena, BracketId, BracketList, NONE};

/// Why cycle equivalence could not be computed for an input graph.
///
/// Machine-generated graphs routinely violate the algorithm's
/// connectivity precondition; these are answers, not crashes. See also
/// `pst_cfg::canonicalize`, which repairs such inputs up front.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CycleEquivError {
    /// The graph has no nodes, so there is no root to search from.
    EmptyGraph,
    /// The root is not a node of the graph.
    UnknownRoot(NodeId),
    /// The graph is not connected when viewed undirected: `unreached` was
    /// not discovered by the search from `root`.
    Disconnected {
        /// The search root.
        root: NodeId,
        /// The lowest-numbered node the search never reached.
        unreached: NodeId,
    },
}

impl fmt::Display for CycleEquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleEquivError::EmptyGraph => write!(f, "graph has no nodes"),
            CycleEquivError::UnknownRoot(n) => {
                write!(f, "root {n} is not a node of the graph")
            }
            CycleEquivError::Disconnected { root, unreached } => write!(
                f,
                "graph is not undirected-connected: {unreached} is unreachable from root {root}"
            ),
        }
    }
}

impl Error for CycleEquivError {}

/// A partition of a graph's edges into cycle-equivalence classes.
///
/// Class ids are dense (`0..num_classes()`), renumbered in edge-id order so
/// that results are deterministic and easy to compare across algorithms.
///
/// # Examples
///
/// In a simple cycle, all edges are equivalent; a chord splits them:
///
/// ```
/// use pst_cfg::Graph;
/// use pst_core::CycleEquiv;
/// let mut g = Graph::new();
/// let n = g.add_nodes(3);
/// let e01 = g.add_edge(n[0], n[1]);
/// let e12 = g.add_edge(n[1], n[2]);
/// let e20 = g.add_edge(n[2], n[0]);
/// let ce = CycleEquiv::compute(&g, n[0]).unwrap();
/// assert_eq!(ce.class(e01), ce.class(e12));
/// assert_eq!(ce.class(e12), ce.class(e20));
/// assert_eq!(ce.num_classes(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleEquiv {
    class_of: Vec<u32>,
    num_classes: u32,
}

impl CycleEquiv {
    /// Runs the linear-time cycle-equivalence algorithm (paper Figure 4)
    /// over `graph`, starting the undirected DFS at `root`.
    ///
    /// `graph` must be *connected* when viewed as an undirected multigraph
    /// (a strongly connected directed graph always is). For strongly
    /// connected inputs the result equals directed cycle equivalence
    /// (Theorem 3); for merely connected inputs it is the undirected
    /// notion: bridges (edges on no cycle) share one vacuous class and each
    /// self-loop is a singleton class.
    ///
    /// # Errors
    ///
    /// Returns a [`CycleEquivError`] when the graph is empty, the root is
    /// not a node, or the graph is not undirected-connected. Callers that
    /// have already established connectivity (e.g. via the `G + (exit →
    /// entry)` closure of a valid CFG) can use
    /// [`CycleEquiv::compute_unchecked`] instead.
    pub fn compute(graph: &Graph, root: NodeId) -> Result<Self, CycleEquivError> {
        if graph.is_empty() {
            return Err(CycleEquivError::EmptyGraph);
        }
        if root.index() >= graph.node_count() {
            return Err(CycleEquivError::UnknownRoot(root));
        }
        let raw =
            graph_classes(graph, root).map_err(|unreached| CycleEquivError::Disconnected {
                root,
                unreached: NodeId::from_index(unreached),
            })?;
        Ok(Self::from_classes(raw))
    }

    /// [`CycleEquiv::compute`] for graphs the caller already knows to be
    /// connected, returning the classes without a `Result`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a node of `graph` or the graph is not
    /// undirected-connected; use [`CycleEquiv::compute`] whenever the input
    /// is not under the caller's control.
    pub fn compute_unchecked(graph: &Graph, root: NodeId) -> Self {
        assert!(
            root.index() < graph.node_count(),
            "root {root} is not a node"
        );
        let raw = graph_classes(graph, root)
            .expect("cycle equivalence requires an undirected-connected graph");
        Self::from_classes(raw)
    }

    /// Builds a `CycleEquiv` directly from a class array (used by the slow
    /// oracles and tests); labels are renumbered densely.
    pub fn from_classes(mut raw: Vec<u32>) -> Self {
        let num_classes = renumber(&mut raw);
        CycleEquiv {
            class_of: raw,
            num_classes,
        }
    }

    /// The class of `edge`.
    pub fn class(&self, edge: EdgeId) -> u32 {
        self.class_of[edge.index()]
    }

    /// Number of distinct classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes as usize
    }

    /// Whether two edges are cycle equivalent.
    pub fn same_class(&self, a: EdgeId, b: EdgeId) -> bool {
        self.class(a) == self.class(b)
    }

    /// The classes as a slice indexed by edge.
    pub fn classes(&self) -> &[u32] {
        &self.class_of
    }

    /// Groups edge ids by class: `groups()[c]` lists the edges of class
    /// `c` in edge-id order.
    pub fn groups(&self) -> Vec<Vec<EdgeId>> {
        let mut out = vec![Vec::new(); self.num_classes()];
        for (i, &c) in self.class_of.iter().enumerate() {
            out[c as usize].push(EdgeId::from_index(i));
        }
        out
    }
}

/// Raw label shared by all bridge edges before renumbering.
const BRIDGE_SENTINEL: u32 = u32::MAX - 1;

/// Renumbers labels in place, densely in first-occurrence order, and
/// returns how many distinct labels there were.
pub(crate) fn renumber(labels: &mut [u32]) -> u32 {
    // Labels from the fast path are a counter's values (bounded by the
    // edge count) or the bridge sentinel, so a dense side table beats
    // hashing. Sparse labels from elsewhere are ranked into that range
    // first.
    let mut bound = labels
        .iter()
        .filter(|&&l| l != BRIDGE_SENTINEL)
        .max()
        .map_or(0, |&l| l as usize + 1);
    if bound > 2 * labels.len() {
        let mut keys = labels.to_vec();
        keys.sort_unstable();
        keys.dedup();
        for l in labels.iter_mut().filter(|l| **l != BRIDGE_SENTINEL) {
            *l = keys.binary_search(l).expect("every label is a key") as u32;
        }
        bound = keys.len();
    }
    let mut map = vec![NONE; bound];
    let mut bridge_class = NONE;
    let mut next = 0u32;
    for label in labels {
        let slot = if *label == BRIDGE_SENTINEL {
            &mut bridge_class
        } else {
            &mut map[*label as usize]
        };
        if *slot == NONE {
            *slot = next;
            next += 1;
        }
        *label = *slot;
    }
    next
}

/// [`raw_classes`] of a materialized graph.
fn graph_classes(graph: &Graph, root: NodeId) -> Result<Vec<u32>, usize> {
    raw_classes(graph.node_count(), graph.edge_count(), root.index(), |e| {
        let (s, t) = graph.endpoints(EdgeId::from_index(e));
        (s.index(), t.index())
    })
}

/// Node-to-edge incidence in compressed rows: the pairs `(edge, other
/// endpoint)` of node `v` are `adj[off[v]..off[v + 1]]`, in edge-id order.
struct Incidence {
    off: Vec<u32>,
    adj: Vec<(u32, u32)>,
}

impl Incidence {
    /// Builds the incidence of `m` edges over `n` nodes. Self-loops are
    /// left out: they bound no cycle but their own.
    fn build(n: usize, m: usize, endpoints: &impl Fn(usize) -> (usize, usize)) -> Self {
        let (off, adj) = group_rows(n, (NONE, NONE), || {
            (0..m).flat_map(|e| {
                let (u, v) = endpoints(e);
                let sides = if u == v { 0 } else { 2 };
                let e = e as u32;
                [(u, (e, v as u32)), (v, (e, u as u32))]
                    .into_iter()
                    .take(sides)
            })
        });
        Incidence { off, adj }
    }

    #[inline]
    fn of(&self, v: u32) -> &[(u32, u32)] {
        let v = v as usize;
        &self.adj[self.off[v] as usize..self.off[v + 1] as usize]
    }
}

/// One depth-first number's state in the sweep.
#[derive(Clone, Copy)]
struct Slot {
    /// The node with this dfsnum.
    node: u32,
    /// The tree edge into `node` ([`NONE`] at the root).
    parent_edge: u32,
    /// `hi` of Figure 4: the least dfsnum any backedge from `node`'s
    /// subtree reaches, once `node` is swept.
    hi: u32,
    /// Head of the chain of capping brackets that end at `node`.
    caps: u32,
    /// Brackets of the tree edge into `node`, once `node` is swept.
    list: BracketList,
}

/// Iterative undirected DFS over `inc` from `root`: returns each node's
/// dfsnum ([`NONE`] if unreached) and, per dfsnum, its [`Slot`].
fn search(inc: &Incidence, n: usize, root: usize) -> (Vec<u32>, Vec<Slot>) {
    let mut dfsnum = vec![NONE; n];
    let mut slots = Vec::with_capacity(n);
    let visit = |v: u32, parent_edge: u32, slots: &mut Vec<Slot>, dfsnum: &mut [u32]| {
        dfsnum[v as usize] = slots.len() as u32;
        slots.push(Slot {
            node: v,
            parent_edge,
            hi: NONE,
            caps: NONE,
            list: BracketList::new(),
        });
        (inc.off[v as usize], inc.off[v as usize + 1])
    };
    // The stack holds each open node's (next, end) cursor into `adj`.
    let mut stack = vec![visit(root as u32, NONE, &mut slots, &mut dfsnum)];
    while let Some(cursor) = stack.last_mut() {
        if cursor.0 == cursor.1 {
            stack.pop();
            continue;
        }
        let (e, w) = inc.adj[cursor.0 as usize];
        cursor.0 += 1;
        if dfsnum[w as usize] == NONE {
            stack.push(visit(w, e, &mut slots, &mut dfsnum));
        }
    }
    (dfsnum, slots)
}

/// Cycle-equivalence labels of the undirected multigraph with nodes
/// `0..n` and edges `0..m`, edge `e` joining `endpoints(e)`, searched from
/// `root < n`: edges are equivalent iff their labels are equal, and every
/// bridge carries [`BRIDGE_SENTINEL`]. Labels are not dense; see
/// [`renumber`].
///
/// # Errors
///
/// `Err(v)` names the lowest node the search did not reach.
pub(crate) fn raw_classes(
    n: usize,
    m: usize,
    root: usize,
    endpoints: impl Fn(usize) -> (usize, usize),
) -> Result<Vec<u32>, usize> {
    let _span = pst_obs::Span::enter("cycle_equiv");
    pst_obs::gauge!("cycle_equiv_nodes", n);
    pst_obs::gauge!("cycle_equiv_edges", m);
    // Ids, dfsnums and incidence offsets (two per edge) are all u32.
    assert!(
        n < NONE as usize && m < BRIDGE_SENTINEL as usize / 2,
        "graph too large for u32 ids"
    );
    let mut class = vec![NONE; m];
    let mut next_class = 0u32;
    let (inc, dfsnum, mut slots) = {
        let _span = pst_obs::Span::enter("undirected_dfs");
        pst_obs::counter!("dfs_edges_examined", m);
        let inc = Incidence::build(n, m, &endpoints);
        let (dfsnum, slots) = search(&inc, n, root);
        (inc, dfsnum, slots)
    };
    if slots.len() < n {
        let unreached = dfsnum.iter().position(|&d| d == NONE);
        return Err(unreached.expect("fewer slots than nodes"));
    }

    let mut arena = BracketArena::with_brackets(m);
    let (mut pushed, mut popped, mut capped, mut recomputed) = (0u64, 0u64, 0u64, 0u64);
    // Reverse preorder: every node is swept after all of its descendants.
    for i in (0..n).rev() {
        let num = i as u32;
        let Slot {
            node,
            parent_edge,
            caps,
            ..
        } = slots[i];
        let incident = inc.of(node);

        // hi0: least dfsnum reached by a backedge up from this node;
        // hi1/hi2: best and second-best `hi` among the children, whose
        // bracket lists merge here (child lists on top, in scan order; the
        // order is arbitrary per the paper).
        let (mut hi0, mut hi1, mut hi2) = (NONE, NONE, NONE);
        let mut list = BracketList::new();
        for &(e, w) in incident {
            let d = dfsnum[w as usize];
            if d < num {
                if e != parent_edge {
                    hi0 = hi0.min(d);
                }
            } else if slots[d as usize].parent_edge == e {
                let child = slots[d as usize];
                if child.hi < hi1 {
                    hi2 = hi1;
                    hi1 = child.hi;
                } else if child.hi < hi2 {
                    hi2 = child.hi;
                }
                list = arena.concat(child.list, list);
            }
        }
        // Delete the capping brackets that end here.
        let mut cap = caps;
        while cap != NONE {
            let b = BracketId::new(cap);
            cap = arena.chain(b);
            arena.delete(&mut list, b);
            popped += 1;
        }
        // Delete backedges from descendants that end here (one that never
        // became a compact name gets a fresh class) and push backedges to
        // ancestors. Pushes after all merges keep them on top.
        for &(e, w) in incident {
            let d = dfsnum[w as usize];
            if d < num {
                if e != parent_edge {
                    arena.push(&mut list, BracketId::new(e));
                    pushed += 1;
                }
            } else if slots[d as usize].parent_edge != e {
                arena.delete(&mut list, BracketId::new(e));
                popped += 1;
                let c = &mut class[e as usize];
                if *c == NONE {
                    *c = next_class;
                    next_class += 1;
                }
            }
        }
        // Capping backedge: needed when brackets of two different subtrees
        // survive past this node and no own backedge already tops them
        // both. (`hi2 < num` guards the degenerate case where the second
        // subtree's backedges all end at or below this node — the paper's
        // Figure 4 elides that guard.) It implies a non-root node, whose
        // tree edge lends the capping bracket its id.
        if hi2 < hi0 && hi2 < num {
            let b = BracketId::new(parent_edge);
            let dest = &mut slots[hi2 as usize].caps;
            arena.set_chain(b, *dest);
            *dest = parent_edge;
            arena.push(&mut list, b);
            pushed += 1;
            capped += 1;
        }

        // Determine the class of the tree edge from the parent.
        if parent_edge != NONE {
            class[parent_edge as usize] = match arena.top(&list) {
                Some(b) => {
                    if arena.recent_size(b) != list.size() {
                        arena.set_recent(b, list.size(), next_class);
                        next_class += 1;
                        recomputed += 1;
                    }
                    let c = arena.recent_class(b);
                    // A tree edge with exactly one bracket is cycle
                    // equivalent to that backedge (Theorem 4). That one
                    // bracket is never a cap (a cap lies over brackets of
                    // two subtrees that outlive it), and a backedge named
                    // before was named with this same class.
                    let top = &mut class[b.index() as usize];
                    if list.size() == 1 && *top == NONE {
                        *top = c;
                    }
                    c
                }
                // Bridge: on no cycle at all. All bridges are vacuously
                // cycle equivalent to each other.
                None => BRIDGE_SENTINEL,
            };
        }
        let slot = &mut slots[i];
        slot.hi = hi0.min(hi1);
        slot.list = list;
    }
    // One registry update per counter and call; a count of zero stays
    // absent from the report, as an operation that never happened.
    if pushed > 0 {
        pst_obs::counter!("brackets_pushed", pushed);
    }
    if popped > 0 {
        pst_obs::counter!("brackets_popped", popped);
    }
    if capped > 0 {
        pst_obs::counter!("brackets_capped", capped);
    }
    if recomputed > 0 {
        pst_obs::counter!("recent_size_recomputed", recomputed);
    }
    // The sweep classified every edge of the connected incidence; what is
    // left are the self-loops, each a singleton class.
    for c in class.iter_mut().filter(|c| **c == NONE) {
        *c = next_class;
        next_class += 1;
    }
    Ok(class)
}

/// Quadratic oracle for **directed** cycle equivalence.
///
/// Edges `a`, `b` are inequivalent iff some directed cycle contains exactly
/// one of them; a cycle through `a` avoiding `b` exists iff `target(a)`
/// reaches `source(a)` in the graph without `b`. Intended for testing on
/// small graphs (O(E²·(N+E)) time).
///
/// On a strongly connected graph this agrees with [`CycleEquiv::compute`]
/// (Theorem 3); the property tests check exactly that.
///
/// # Errors
///
/// The quadratic oracles exist for cross-checking; `budget` (node-plus-edge
/// traversal steps, or `None` for unlimited) keeps one from stalling its
/// caller on a large graph: a call that would exceed it returns
/// [`Exhausted`] instead of running long.
pub fn cycle_equiv_slow_directed(
    graph: &Graph,
    budget: impl Into<Budget>,
) -> Result<CycleEquiv, Exhausted> {
    let m = graph.edge_count();
    let mut budget = budget.into();
    // Each reachability probe walks at most every node and edge once.
    let probe_cost = (graph.node_count() + m) as u64 + 1;
    // on_cycle_avoiding[a][b] = exists directed cycle through a avoiding b.
    let mut next_label = 0u32;
    let mut labels = vec![NONE; m];
    let in_cycle_avoiding = |a: EdgeId, b: Option<EdgeId>| -> bool {
        if Some(a) == b {
            return false;
        }
        let reach = graph.reachable_from_avoiding(graph.target(a), b);
        reach[graph.source(a).index()]
    };
    for i in 0..m {
        if labels[i] != NONE {
            continue;
        }
        let a = EdgeId::from_index(i);
        labels[i] = next_label;
        for (j, label) in labels.iter_mut().enumerate().skip(i + 1) {
            if *label != NONE {
                continue;
            }
            budget.spend(2 * probe_cost)?;
            let b = EdgeId::from_index(j);
            let cyc_a_not_b = in_cycle_avoiding(a, Some(b));
            let cyc_b_not_a = in_cycle_avoiding(b, Some(a));
            if !cyc_a_not_b && !cyc_b_not_a {
                *label = next_label;
            }
        }
        next_label += 1;
    }
    Ok(CycleEquiv::from_classes(labels))
}

/// Quadratic oracle for **undirected** cycle equivalence (the notion the
/// fast algorithm computes on arbitrary connected graphs).
///
/// An undirected cycle through edge `a` avoiding edge `b` exists iff, in
/// the multigraph without `b`, `a` is a self-loop or a non-bridge. Bridge
/// detection is done per removed edge with a DFS, giving O(E²) total.
///
/// # Errors
///
/// The quadratic oracles exist for cross-checking; `budget` (node-plus-edge
/// traversal steps, or `None` for unlimited) keeps one from stalling its
/// caller on a large graph: a call that would exceed it returns
/// [`Exhausted`] instead of running long.
pub fn cycle_equiv_slow_undirected(
    graph: &Graph,
    budget: impl Into<Budget>,
) -> Result<CycleEquiv, Exhausted> {
    let m = graph.edge_count();
    let mut budget = budget.into();
    let sweep_cost = (graph.node_count() + m) as u64 + 1;
    let mut labels = vec![NONE; m];
    let mut next_label = 0u32;

    // in_cycle_without[b.index()][a.index()] = a lies on an undirected
    // cycle of G - {b}. Precompute per removed edge.
    let mut in_cycle_without: Vec<Vec<bool>> = Vec::with_capacity(m);
    for i in 0..m {
        budget.spend(sweep_cost)?;
        in_cycle_without.push(edges_on_cycles(graph, Some(EdgeId::from_index(i))));
    }

    for i in 0..m {
        if labels[i] != NONE {
            continue;
        }
        let a = EdgeId::from_index(i);
        labels[i] = next_label;
        for j in (i + 1)..m {
            if labels[j] != NONE {
                continue;
            }
            budget.spend(1)?;
            let b = EdgeId::from_index(j);
            let cyc_a_not_b = in_cycle_without[j][a.index()];
            let cyc_b_not_a = in_cycle_without[i][b.index()];
            if !cyc_a_not_b && !cyc_b_not_a {
                labels[j] = next_label;
            }
        }
        next_label += 1;
    }
    Ok(CycleEquiv::from_classes(labels))
}

/// For each edge: does it lie on some undirected cycle of `graph` minus
/// `removed`? Self-loops always do; other edges do iff they are not
/// bridges of their component.
fn edges_on_cycles(graph: &Graph, removed: Option<EdgeId>) -> Vec<bool> {
    let n = graph.node_count();
    let m = graph.edge_count();
    let mut result = vec![false; m];
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut clock = 0usize;

    // Self-loops are one-edge cycles.
    for e in graph.edges() {
        if Some(e) != removed && graph.is_self_loop(e) {
            result[e.index()] = true;
        }
    }

    let incident = |v: NodeId| -> Vec<EdgeId> {
        graph
            .incident_edges(v)
            .filter(|&e| Some(e) != removed && !graph.is_self_loop(e))
            .collect()
    };

    // Iterative undirected DFS computing bridges via low-links. `via` is
    // the exact edge id used to enter a node: a second, parallel edge to
    // the parent is a genuine backedge and correctly prevents bridge-hood.
    for start in graph.nodes() {
        if disc[start.index()] != usize::MAX {
            continue;
        }
        let mut stack: Vec<(NodeId, Option<EdgeId>, Vec<EdgeId>, usize)> = Vec::new();
        disc[start.index()] = clock;
        low[start.index()] = clock;
        clock += 1;
        stack.push((start, None, incident(start), 0));
        while let Some(&mut (v, via, ref inc, ref mut idx)) = stack.last_mut() {
            if *idx < inc.len() {
                let e = inc[*idx];
                *idx += 1;
                if Some(e) == via {
                    continue; // the tree edge we came through (appears once here)
                }
                let w = graph.other_endpoint(e, v);
                if disc[w.index()] == usize::MAX {
                    disc[w.index()] = clock;
                    low[w.index()] = clock;
                    clock += 1;
                    let next_inc = incident(w);
                    stack.push((w, Some(e), next_inc, 0));
                } else {
                    // Non-tree edge: it closes a cycle, and its other
                    // endpoint bounds our low-link.
                    result[e.index()] = true;
                    low[v.index()] = low[v.index()].min(disc[w.index()]);
                }
            } else {
                let (child, entering) = (v, via);
                stack.pop();
                if let Some(&mut (p, _, _, _)) = stack.last_mut() {
                    low[p.index()] = low[p.index()].min(low[child.index()]);
                    if let Some(te) = entering {
                        // Tree edge (p, child): on a cycle iff not a bridge.
                        if low[child.index()] <= disc[p.index()] {
                            result[te.index()] = true;
                        }
                    }
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pst_cfg::parse_edge_list;

    /// Checks the fast algorithm against both oracles on a strongly
    /// connected closure of a CFG description.
    fn check(desc: &str) {
        let cfg = parse_edge_list(desc).unwrap();
        let (s, _) = cfg.to_strongly_connected();
        let fast = CycleEquiv::compute(&s, cfg.entry()).unwrap();
        let slow_d = cycle_equiv_slow_directed(&s, None).unwrap();
        let slow_u = cycle_equiv_slow_undirected(&s, None).unwrap();
        assert_eq!(fast, slow_d, "fast vs directed oracle on {desc}");
        assert_eq!(fast, slow_u, "fast vs undirected oracle on {desc}");
    }

    #[test]
    fn straight_line() {
        check("0->1 1->2 2->3");
    }

    #[test]
    fn diamond() {
        check("0->1 0->2 1->3 2->3");
    }

    #[test]
    fn while_loop() {
        check("0->1 1->2 2->1 1->3");
    }

    #[test]
    fn repeat_loop() {
        check("0->1 1->2 2->1 2->3");
    }

    #[test]
    fn nested_loops() {
        check("0->1 1->2 2->3 3->2 3->1 1->4");
    }

    #[test]
    fn irreducible() {
        check("0->1 0->2 1->2 2->1 1->3 2->3");
    }

    #[test]
    fn self_loop() {
        check("0->1 1->1 1->2");
    }

    #[test]
    fn parallel_edges() {
        check("0->1 0->1 1->2");
    }

    #[test]
    fn overlapping_loops_unstructured() {
        // Figure 3(b)-style: backedges not properly nested.
        check("0->1 1->2 2->3 3->4 4->5 3->1 5->2 5->6");
    }

    #[test]
    fn branchy_graph_with_caps() {
        // Figure 3(c)-style: a node with multiple children whose bracket
        // sets must be merged with a capping backedge.
        check("0->1 1->2 1->3 2->4 3->4 2->2 3->5 4->5 2->5");
    }

    #[test]
    fn straight_line_classes_chain() {
        let cfg = parse_edge_list("0->1 1->2 2->3").unwrap();
        let (s, back) = cfg.to_strongly_connected();
        let ce = CycleEquiv::compute(&s, cfg.entry()).unwrap();
        // All four CFG edges plus the virtual backedge lie on the single
        // cycle: one class.
        assert_eq!(ce.num_classes(), 1);
        assert_eq!(ce.class(back), 0);
    }

    #[test]
    fn diamond_classes() {
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
        let (s, back) = cfg.to_strongly_connected();
        let g = cfg.graph();
        let ce = CycleEquiv::compute(&s, cfg.entry()).unwrap();
        let e = |a: usize, b: usize| {
            g.edges()
                .find(|&e| g.source(e).index() == a && g.target(e).index() == b)
                .unwrap()
        };
        // The two arm pairs are equivalent within themselves.
        assert!(ce.same_class(e(0, 1), e(1, 3)));
        assert!(ce.same_class(e(0, 2), e(2, 3)));
        assert!(!ce.same_class(e(0, 1), e(0, 2)));
        // The virtual backedge is in its own class here (every cycle
        // through it uses one arm or the other).
        assert!(!ce.same_class(back, e(0, 1)));
    }

    #[test]
    fn two_self_loops_are_distinct_singletons() {
        let cfg = parse_edge_list("0->1 1->1 1->2 2->2 2->3").unwrap();
        let (s, _) = cfg.to_strongly_connected();
        let g = cfg.graph();
        let ce = CycleEquiv::compute(&s, cfg.entry()).unwrap();
        let loops: Vec<EdgeId> = g.edges().filter(|&e| g.is_self_loop(e)).collect();
        assert_eq!(loops.len(), 2);
        assert!(!ce.same_class(loops[0], loops[1]));
        check("0->1 1->1 1->2 2->2 2->3");
    }

    #[test]
    fn bridges_share_a_vacuous_class() {
        // A bare tree (undirected) has only bridges.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        let e1 = g.add_edge(n[0], n[1]);
        let e2 = g.add_edge(n[0], n[2]);
        let e3 = g.add_edge(n[2], n[3]);
        let ce = CycleEquiv::compute(&g, n[0]).unwrap();
        assert_eq!(ce.num_classes(), 1);
        assert!(ce.same_class(e1, e2) && ce.same_class(e2, e3));
        let slow = cycle_equiv_slow_undirected(&g, None).unwrap();
        assert_eq!(ce, slow);
    }

    #[test]
    fn mixed_bridges_and_cycles() {
        // bridge into a cycle: undirected semantics.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        let bridge = g.add_edge(n[0], n[1]);
        let c1 = g.add_edge(n[1], n[2]);
        let c2 = g.add_edge(n[2], n[3]);
        let c3 = g.add_edge(n[3], n[1]);
        let ce = CycleEquiv::compute(&g, n[0]).unwrap();
        let slow = cycle_equiv_slow_undirected(&g, None).unwrap();
        assert_eq!(ce, slow);
        assert!(ce.same_class(c1, c2) && ce.same_class(c2, c3));
        assert!(!ce.same_class(bridge, c1));
    }

    #[test]
    fn oracle_budgets_degrade_gracefully() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3 0->3 3->4").unwrap();
        let (s, _) = cfg.to_strongly_connected();
        // A one-step budget cannot even finish the precompute.
        assert_eq!(
            cycle_equiv_slow_undirected(&s, Some(1)).unwrap_err(),
            Exhausted::Steps { budget: 1 }
        );
        assert_eq!(
            cycle_equiv_slow_directed(&s, Some(1)).unwrap_err(),
            Exhausted::Steps { budget: 1 }
        );
        let err = cycle_equiv_slow_directed(&s, Some(1)).unwrap_err();
        assert!(err.to_string().contains("step budget of 1"));
        // A generous budget returns the same partition as unlimited.
        let unlimited = cycle_equiv_slow_undirected(&s, None).unwrap();
        let budgeted = cycle_equiv_slow_undirected(&s, Some(1_000_000)).unwrap();
        assert_eq!(unlimited, budgeted);
        assert_eq!(
            cycle_equiv_slow_directed(&s, Some(1_000_000)).unwrap(),
            cycle_equiv_slow_directed(&s, None).unwrap()
        );
    }

    #[test]
    fn disconnected_graph_errors() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_edge(n[0], n[1]);
        let err = CycleEquiv::compute(&g, n[0]).unwrap_err();
        assert_eq!(
            err,
            CycleEquivError::Disconnected {
                root: n[0],
                unreached: n[2],
            }
        );
        assert!(err.to_string().contains("n2 is unreachable from root n0"));
    }

    #[test]
    fn empty_and_unknown_root_error() {
        let g = Graph::new();
        assert_eq!(
            CycleEquiv::compute(&g, NodeId::from_index(0)).unwrap_err(),
            CycleEquivError::EmptyGraph
        );
        let mut g = Graph::new();
        g.add_node();
        let ghost = NodeId::from_index(5);
        assert_eq!(
            CycleEquiv::compute(&g, ghost).unwrap_err(),
            CycleEquivError::UnknownRoot(ghost)
        );
    }

    #[test]
    fn groups_partition_edges() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let (s, _) = cfg.to_strongly_connected();
        let ce = CycleEquiv::compute(&s, cfg.entry()).unwrap();
        let groups = ce.groups();
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, s.edge_count());
        for (c, group) in groups.iter().enumerate() {
            for &e in group {
                assert_eq!(ce.class(e) as usize, c);
            }
        }
    }

    #[test]
    fn figure1_paper_graph() {
        // An approximation of the paper's Figure 1 control flow graph:
        // start -> a-chain with nested conditional and a loop region.
        check("0->1 1->2 2->3 2->4 3->5 4->5 5->6 6->7 7->6 6->8 8->9 8->10 9->11 10->11 11->8 8->12 12->13");
    }
}
