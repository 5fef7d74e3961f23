//! Non-termination-sensitive control dependence (NTSCD).
//!
//! Classic Ferrante–Ottenstein–Warren control dependence is computed
//! from postdominators, which only talk about paths that *reach the
//! exit*. A loop that may spin forever is invisible to it: the code
//! after the loop is classically unconditional even though it executes
//! only if the loop terminates. NTSCD (Ranganath et al.) repairs this by
//! quantifying over **maximal paths** — paths that are infinite or end
//! in a node with no successors:
//!
//! > `n` is NTSCD-dependent on a branch `p` iff `p` has a successor
//! > `s₁` such that every maximal path from `s₁` contains `n`, and a
//! > successor `s₂` with some maximal path avoiding `n`.
//!
//! This module implements the iterative counter-propagation algorithm
//! in the style of Chalupa et al., "Fast Computation of Strong Control
//! Dependencies" (see PAPERS.md): for each target node `w`, the set
//! `{x : every maximal path from x contains w}` is the least fixed
//! point of *"`w` is in; a node is in when it has at least one
//! successor and all of them are in"*, computed in `O(N + E)` by
//! backward propagation with out-degree counters. Scanning the branch
//! nodes against each target's set yields the full relation in
//! `O(N·(N + E))` time and `O(N)` working memory — no maximal path is
//! ever materialized. The naive path-enumeration oracle lives in
//! `pst-verify`, which re-derives this relation independently on fuzzed
//! digraphs.
//!
//! NTSCD is defined on **arbitrary digraphs** — unlike the classic
//! relation it needs no exit node and is exactly what makes it able to
//! describe non-terminating control flow.

use pst_cfg::{Budget, Exhausted, Graph, NodeId};

/// The non-termination-sensitive control-dependence relation of a
/// digraph: for every node, the sorted list of branch nodes it depends
/// on.
///
/// # Examples
///
/// A `while` loop: the exit node is NTSCD-dependent on the loop header
/// (it executes only if the loop terminates), which classic control
/// dependence cannot express.
///
/// ```
/// use pst_cfg::{Budget, Exhausted, Graph, NodeId};
/// use pst_controldep::Ntscd;
/// let mut g = Graph::new();
/// let n = g.add_nodes(4); // 0=entry, 1=header, 2=body, 3=exit
/// g.add_edge(n[0], n[1]);
/// g.add_edge(n[1], n[2]);
/// g.add_edge(n[2], n[1]);
/// g.add_edge(n[1], n[3]);
/// let ntscd = Ntscd::compute(&g);
/// assert!(ntscd.depends_on(n[3], n[1])); // exit depends on the header
/// assert!(ntscd.depends_on(n[1], n[1])); // the header on itself
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ntscd {
    /// `deps[n]` = branch nodes `n` is NTSCD-dependent on, sorted.
    deps: Vec<Vec<NodeId>>,
}

impl Ntscd {
    /// Computes the NTSCD relation of `graph` in `O(N·(N + E))`.
    pub fn compute(graph: &Graph) -> Ntscd {
        Ntscd::within(graph, Budget::UNLIMITED).expect("an unlimited budget never runs out")
    }

    /// [`Ntscd::compute`], spending `N + E + 1` steps of `budget` per
    /// target node.
    pub(crate) fn within(graph: &Graph, mut budget: Budget) -> Result<Ntscd, Exhausted> {
        let _span = pst_obs::Span::enter("ntscd");
        let n = graph.node_count();
        let prop_cost = (n + graph.edge_count() + 1) as u64;
        let branches = branch_nodes(graph);
        let mut branch_of = vec![NO_BRANCH; n];
        for (k, (p, _)) in branches.iter().enumerate() {
            branch_of[p.index()] = k as u32;
        }
        let mut deps: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut inevitable = vec![false; n];
        let mut propagation = Inevitability::new(graph);
        // Branches with an inevitable successor, found from the marked
        // set: only they can depend on the target, so the scan costs the
        // in-edges of the marked set rather than every branch.
        let mut candidates: Vec<u32> = Vec::new();
        let mut seen_for = vec![NO_BRANCH; branches.len()];
        let mut deps_total = 0u64;
        for w in graph.nodes() {
            budget.spend(prop_cost)?;
            propagation.fill(w, None, &mut inevitable);
            candidates.clear();
            for &x in propagation.marked() {
                for p in graph.predecessors(x) {
                    let k = branch_of[p.index()];
                    if k != NO_BRANCH && seen_for[k as usize] != w.index() as u32 {
                        seen_for[k as usize] = w.index() as u32;
                        candidates.push(k);
                    }
                }
            }
            // Branch order is ascending, so `deps[w]` comes out sorted.
            candidates.sort_unstable();
            for &k in &candidates {
                let (p, succs) = &branches[k as usize];
                if succs.iter().any(|s| !inevitable[s.index()]) {
                    deps[w.index()].push(*p);
                    deps_total += 1;
                }
            }
        }
        // One registry update per counter and call; a count of zero stays
        // absent from the report, as an operation that never happened.
        if n > 0 {
            pst_obs::counter!("ntscd_targets", n);
        }
        if deps_total > 0 {
            pst_obs::counter!("ntscd_deps_total", deps_total);
        }
        Ok(Ntscd { deps })
    }

    /// Wraps a precomputed relation (each inner list must be sorted).
    /// Used by tests and by `pst-verify`'s fault injection.
    pub fn from_raw(deps: Vec<Vec<NodeId>>) -> Ntscd {
        Ntscd { deps }
    }

    /// The branch nodes `node` is NTSCD-dependent on, sorted ascending.
    pub fn deps_of(&self, node: NodeId) -> &[NodeId] {
        &self.deps[node.index()]
    }

    /// Whether `node` is NTSCD-dependent on `branch`.
    pub fn depends_on(&self, node: NodeId, branch: NodeId) -> bool {
        self.deps[node.index()].binary_search(&branch).is_ok()
    }

    /// Number of nodes the relation is defined over.
    pub fn node_count(&self) -> usize {
        self.deps.len()
    }

    /// Total number of `(node, branch)` pairs in the relation.
    pub fn relation_size(&self) -> usize {
        self.deps.iter().map(Vec::len).sum()
    }

    /// Consumes the relation into its per-node dependence lists.
    pub fn into_raw(self) -> Vec<Vec<NodeId>> {
        self.deps
    }
}

/// No branch (in a node → branch-index table).
pub(crate) const NO_BRANCH: u32 = u32::MAX;

/// Branch nodes of `graph` with their *distinct* successors, in
/// ascending node order. Parallel edges to one target cannot split
/// control, so they do not make a node a predicate.
pub(crate) fn branch_nodes(graph: &Graph) -> Vec<(NodeId, Vec<NodeId>)> {
    let mut branches: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    for p in graph.nodes() {
        let mut succs: Vec<NodeId> = graph.successors(p).collect();
        succs.sort_unstable();
        succs.dedup();
        if succs.len() >= 2 {
            branches.push((p, succs));
        }
    }
    branches
}

/// Backward counter propagation over one graph, with the scratch every
/// propagation reuses. The out-degrees the counters start from are read
/// once here, so a propagation costs only the edges it consumes plus one
/// copy of the counters.
pub(crate) struct Inevitability<'g> {
    graph: &'g Graph,
    out_degrees: Vec<u32>,
    needed: Vec<u32>,
    /// The nodes the last [`Inevitability::fill`] marked, in marking
    /// order; also its worklist.
    marked: Vec<NodeId>,
}

impl<'g> Inevitability<'g> {
    pub(crate) fn new(graph: &'g Graph) -> Self {
        let out_degrees: Vec<u32> = graph.nodes().map(|x| graph.out_degree(x) as u32).collect();
        Inevitability {
            graph,
            needed: vec![0; out_degrees.len()],
            out_degrees,
            marked: Vec::with_capacity(graph.node_count()),
        }
    }

    /// The nodes the last [`Inevitability::fill`] set in `inevitable`.
    pub(crate) fn marked(&self) -> &[NodeId] {
        &self.marked
    }

    /// Fills `inevitable` with the set `{x : every maximal path from x
    /// contains w}`. When `blocked` is set, that node is treated as a
    /// sink (its out-edges ignored, never marked) — this turns the
    /// predicate into *"every maximal path from x reaches w before
    /// touching `blocked`"*, the primitive the DOD first-occurrence-order
    /// test is built from.
    pub(crate) fn fill(&mut self, w: NodeId, blocked: Option<NodeId>, inevitable: &mut [bool]) {
        debug_assert_ne!(Some(w), blocked);
        let (graph, needed, marked) = (self.graph, &mut self.needed, &mut self.marked);
        inevitable.fill(false);
        needed.copy_from_slice(&self.out_degrees);
        marked.clear();
        inevitable[w.index()] = true;
        marked.push(w);
        let mut next = 0;
        while let Some(&x) = marked.get(next) {
            next += 1;
            for &e in graph.in_edges(x) {
                let p = graph.source(e);
                if inevitable[p.index()] || Some(p) == blocked {
                    continue;
                }
                // Each in-edge into the marked set is consumed exactly
                // once, so the counter reaches zero iff *all* out-edges of
                // `p` lead to marked nodes.
                needed[p.index()] -= 1;
                if needed[p.index()] == 0 {
                    inevitable[p.index()] = true;
                    marked.push(p);
                }
            }
        }
        // A sink other than `w` starts with counter 0 but is never pushed:
        // its one maximal path is itself, which avoids `w`. Marking happens
        // only via edge consumption, so sinks (and the blocked node) stay
        // out.
    }
}

/// Standalone convenience for tests: the inevitability set of one
/// target as a boolean side table.
#[cfg(test)]
pub(crate) fn inevitable_to(graph: &Graph, w: NodeId) -> Vec<bool> {
    let mut inevitable = vec![false; graph.node_count()];
    Inevitability::new(graph).fill(w, None, &mut inevitable);
    inevitable
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use pst_workloads::{random_digraph, DigraphConfig};

    use super::*;

    /// The relation by scanning every branch against every target's
    /// inevitability set, the loop [`Ntscd::compute`] narrows to the
    /// branches with an inevitable successor. Its oracle.
    fn ntscd_by_scanning_every_branch(graph: &Graph) -> Vec<Vec<NodeId>> {
        let branches = branch_nodes(graph);
        let mut propagation = Inevitability::new(graph);
        let mut inevitable = vec![false; graph.node_count()];
        graph
            .nodes()
            .map(|w| {
                propagation.fill(w, None, &mut inevitable);
                branches
                    .iter()
                    .filter(|(_, succs)| {
                        succs.iter().any(|s| inevitable[s.index()])
                            && succs.iter().any(|s| !inevitable[s.index()])
                    })
                    .map(|&(p, _)| p)
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Raw digraphs of up to a few hundred nodes, with the shapes the
        /// canonicalizer repairs left in place.
        #[test]
        fn narrowed_branch_scan_matches_the_full_scan(
            n in 1usize..300,
            extra in 0usize..300,
            seed in 0u64..1_000_000,
            degenerate in 0u8..16,
        ) {
            let config = DigraphConfig {
                nodes: n,
                edges: n + extra,
                force_entry_predecessor: degenerate & 1 != 0,
                force_unreachable: degenerate & 2 != 0,
                force_infinite_loop: degenerate & 4 != 0,
                force_multiple_exits: degenerate & 8 != 0,
                force_self_loop: degenerate & 1 != 0,
            };
            let (graph, _) = random_digraph(&config, seed);
            prop_assert_eq!(Ntscd::compute(&graph).into_raw(), ntscd_by_scanning_every_branch(&graph));
        }
    }

    fn graph(node_count: usize, edges: &[(usize, usize)]) -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let n = g.add_nodes(node_count);
        for &(a, b) in edges {
            g.add_edge(n[a], n[b]);
        }
        (g, n)
    }

    #[test]
    fn inevitability_on_a_while_loop() {
        // 0 -> 1(header) -> 2(body) -> 1, 1 -> 3(exit)
        let (g, n) = graph(4, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        let to_header = inevitable_to(&g, n[1]);
        // Entry and body always reach the header; the exit never does.
        assert_eq!(to_header, vec![true, true, true, false]);
        let to_exit = inevitable_to(&g, n[3]);
        // The loop can spin forever, so nothing is inevitable but the
        // exit itself.
        assert_eq!(to_exit, vec![false, false, false, true]);
    }

    #[test]
    fn while_loop_ntscd() {
        let (g, n) = graph(4, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        let ntscd = Ntscd::compute(&g);
        // Header, body, and exit all depend on the header; 0 on nothing.
        assert_eq!(ntscd.deps_of(n[0]), &[]);
        assert_eq!(ntscd.deps_of(n[1]), &[n[1]]);
        assert_eq!(ntscd.deps_of(n[2]), &[n[1]]);
        assert_eq!(ntscd.deps_of(n[3]), &[n[1]]);
        assert_eq!(ntscd.relation_size(), 3);
    }

    #[test]
    fn acyclic_diamond_matches_classic_intuition() {
        let (g, n) = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let ntscd = Ntscd::compute(&g);
        assert_eq!(ntscd.deps_of(n[1]), &[n[0]]);
        assert_eq!(ntscd.deps_of(n[2]), &[n[0]]);
        // The join postdominates the branch: no dependence.
        assert_eq!(ntscd.deps_of(n[3]), &[]);
        assert_eq!(ntscd.deps_of(n[0]), &[]);
    }

    #[test]
    fn terminal_cycle_traps_dependence() {
        // Branch 0 chooses between a terminal 2-cycle {1,2} and exit 3.
        let (g, n) = graph(4, &[(0, 1), (1, 2), (2, 1), (0, 3)]);
        let ntscd = Ntscd::compute(&g);
        // Every non-entry node depends on the branch at 0 — including
        // the cycle members, which only execute on the left arm.
        assert_eq!(ntscd.deps_of(n[1]), &[n[0]]);
        assert_eq!(ntscd.deps_of(n[2]), &[n[0]]);
        assert_eq!(ntscd.deps_of(n[3]), &[n[0]]);
    }

    #[test]
    fn parallel_edges_are_not_a_predicate() {
        let (g, n) = graph(3, &[(0, 1), (0, 1), (1, 2)]);
        let ntscd = Ntscd::compute(&g);
        assert_eq!(ntscd.relation_size(), 0);
        assert!(!ntscd.depends_on(n[1], n[0]));
    }

    #[test]
    fn self_loop_predicate() {
        // 0 -> 1, 1 -> 1, 1 -> 2: node 1 is a branch between itself and 2.
        let (g, n) = graph(3, &[(0, 1), (1, 1), (1, 2)]);
        let ntscd = Ntscd::compute(&g);
        // 2 depends on 1 (the self-loop may spin forever); 1 on itself.
        assert!(ntscd.depends_on(n[2], n[1]));
        assert!(ntscd.depends_on(n[1], n[1]));
    }

    #[test]
    fn raw_round_trip() {
        let (g, _) = graph(4, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        let ntscd = Ntscd::compute(&g);
        let raw = ntscd.clone().into_raw();
        assert_eq!(Ntscd::from_raw(raw), ntscd);
    }
}
