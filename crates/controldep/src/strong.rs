//! The `StrongControlDeps` artifact: NTSCD + DOD + classic node-level
//! control dependence + a strong-region partition.
//!
//! The paper's Theorem 7 partitions nodes into *control regions* —
//! classes with identical **classic** (termination-insensitive)
//! control-dependence sets — in linear time via cycle equivalence.
//! This module builds the strong analogue: nodes grouped by identical
//! **NTSCD** sets. On acyclic graphs the two partitions coincide; on
//! graphs with loops the strong partition refines the program by
//! termination behaviour (code after a possibly-diverging loop lands
//! in a different strong region than code before it, because it
//! strongly depends on the loop header).
//!
//! [`StrongControlDeps`] is the artifact the rest of the workspace
//! consumes: `pst-analysis` mines it for the `PST-C1xx` lint family,
//! `pst serve` ships it as the `controldep` method, `pst-verify`
//! re-derives every piece through naive path oracles, and `pstbench`
//! times it on the serve-mix workload (`controldep.strong.ms.p99`).

use std::collections::HashMap;

use pst_cfg::{Budget, Cfg, Exhausted, Graph, NodeId};
use pst_core::ControlRegions;
use pst_dominators::{dominator_tree_in, Direction};

use crate::dod::{Dod, DEFAULT_DOD_BUDGET};
use crate::ntscd::Ntscd;

/// Classic Ferrante–Ottenstein–Warren control dependence at node
/// granularity: `n` depends on branch `p` iff some successor of `p`
/// is postdominated by `n` while `p` itself is not *strictly*
/// postdominated by `n`. Unlike [`crate::ControlDependence`] (the
/// edge-level Theorem-7 baseline over the strongly connected closure)
/// this is the textbook relation on the plain graph — the weak
/// counterpart the `PST-C1xx` lints compare NTSCD against.
///
/// # Examples
///
/// ```
/// use pst_cfg::{parse_edge_list, NodeId};
/// use pst_controldep::ClassicControlDeps;
/// let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
/// let classic = ClassicControlDeps::compute(&cfg);
/// let n = |i| NodeId::from_index(i);
/// assert_eq!(classic.deps_of(n(2)), &[n(1)]); // loop body
/// assert_eq!(classic.deps_of(n(1)), &[n(1)]); // header, on itself
/// assert_eq!(classic.deps_of(n(3)), &[]);     // exit: weakly unconditional
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassicControlDeps {
    /// `deps[n]` = branch nodes `n` is classically dependent on, sorted.
    deps: Vec<Vec<NodeId>>,
}

impl ClassicControlDeps {
    /// Computes the relation from the postdominator tree of `cfg`
    /// (root = exit, no closure edge) via the standard runner walk:
    /// for each edge `(u, v)`, every node on the pdom-tree path from
    /// `v` up to, excluding, `ipdom(u)` depends on `u`.
    pub fn compute(cfg: &Cfg) -> ClassicControlDeps {
        let _span = pst_obs::Span::enter("classic_cd");
        let graph = cfg.graph();
        let pdom = dominator_tree_in(graph, cfg.exit(), Direction::Backward);
        let mut deps: Vec<Vec<NodeId>> = vec![Vec::new(); graph.node_count()];
        for e in graph.edges() {
            let (u, v) = graph.endpoints(e);
            if !pdom.is_reachable(u) || !pdom.is_reachable(v) {
                continue;
            }
            let stop = pdom.idom(u);
            let mut runner = Some(v);
            while let Some(r) = runner {
                if Some(r) == stop {
                    break;
                }
                deps[r.index()].push(u);
                if Some(r) == pdom.idom(r) {
                    break; // defensive: cannot happen in a well-formed tree
                }
                runner = pdom.idom(r);
            }
        }
        for d in &mut deps {
            d.sort_unstable();
            d.dedup();
        }
        ClassicControlDeps { deps }
    }

    /// The branch nodes `node` classically depends on, sorted ascending.
    pub fn deps_of(&self, node: NodeId) -> &[NodeId] {
        &self.deps[node.index()]
    }

    /// Whether `node` is classically control dependent on `branch`.
    pub fn depends_on(&self, node: NodeId, branch: NodeId) -> bool {
        self.deps[node.index()].binary_search(&branch).is_ok()
    }

    /// Total number of `(node, branch)` pairs in the relation.
    pub fn relation_size(&self) -> usize {
        self.deps.iter().map(Vec::len).sum()
    }
}

/// The complete strong-control-dependence artifact of one graph.
///
/// # Examples
///
/// On a `while` loop the exit is strongly — but not weakly — dependent
/// on the header, and the strong regions separate it from the entry:
///
/// ```
/// use pst_cfg::{parse_edge_list, NodeId};
/// use pst_controldep::StrongControlDeps;
/// let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
/// let strong = StrongControlDeps::of_cfg(&cfg);
/// let n = |i| NodeId::from_index(i);
/// assert!(strong.ntscd().depends_on(n(3), n(1)));
/// assert!(!strong.classic().unwrap().depends_on(n(3), n(1)));
/// assert!(!strong.regions().same_region(n(0), n(3)));
/// assert!(strong.dod().is_empty()); // valid CFGs never have DOD
/// ```
#[derive(Clone, Debug)]
pub struct StrongControlDeps {
    ntscd: Ntscd,
    dod: Dod,
    /// Present only when the input had an exit node (CFG inputs);
    /// raw digraphs have no postdominance to compute it from.
    classic: Option<ClassicControlDeps>,
    /// Strong regions: nodes grouped by identical NTSCD sets — the
    /// non-termination-sensitive analogue of the paper's Theorem 7.
    regions: ControlRegions,
}

impl StrongControlDeps {
    /// Builds the artifact for a valid CFG: NTSCD on its graph, plus
    /// the classic relation from its postdominator tree.
    ///
    /// The DOD is empty and complete without a search: every node of a
    /// valid CFG reaches the exit, and then no witness exists (the
    /// module documentation of [`Dod`] gives the argument, and a property
    /// test checks it through [`Dod::compute`]). `pst-verify`'s DOD
    /// checker still
    /// compares it with the exhaustive oracle under `--paranoid` and in
    /// fuzz runs.
    pub fn of_cfg(cfg: &Cfg) -> StrongControlDeps {
        let classic = Some(ClassicControlDeps::compute(cfg));
        StrongControlDeps::compute_within(cfg.graph(), classic, None, Budget::UNLIMITED)
            .expect("an unlimited budget never runs out")
    }

    /// Builds the artifact for an arbitrary digraph (no exit, so no
    /// classic relation) — the form `pst fuzz` and graph lints use.
    pub fn of_graph(graph: &Graph) -> StrongControlDeps {
        StrongControlDeps::compute_within(graph, None, None, Budget::UNLIMITED)
            .expect("an unlimited budget never runs out")
    }

    /// Builds the artifact under `budget` around the `classic` relation
    /// of a valid CFG, if `graph` is one, and a `dod` the caller already
    /// computed (a lint that ran first, say). Without a `dod`, a valid
    /// CFG's is empty (see [`StrongControlDeps::of_cfg`]) and a digraph's
    /// is computed under [`DEFAULT_DOD_BUDGET`] and `budget`.
    pub fn compute_within(
        graph: &Graph,
        classic: Option<ClassicControlDeps>,
        dod: Option<Dod>,
        budget: Budget,
    ) -> Result<StrongControlDeps, Exhausted> {
        let _span = pst_obs::Span::enter("strong_controldep");
        let dod = match (dod, &classic) {
            (Some(dod), _) => dod,
            (None, Some(_)) => Dod::from_raw(Vec::new(), true),
            (None, None) => Dod::compute_within(graph, DEFAULT_DOD_BUDGET, budget)?,
        };
        let ntscd = Ntscd::within(graph, budget)?;
        let regions = strong_regions(&ntscd);
        pst_obs::counter!("strong_regions_built");
        pst_obs::gauge!("strong_region_classes", regions.num_classes() as u64);
        for node in graph.nodes() {
            pst_obs::histogram!("ntscd_dep_set_size", ntscd.deps_of(node).len() as u64);
        }
        Ok(StrongControlDeps {
            ntscd,
            dod,
            classic,
            regions,
        })
    }

    /// Rebuilds from parts — `pst-verify`'s fault injection swaps one
    /// field and re-wraps. The regions are recomputed from `ntscd` so
    /// the pair can never disagree.
    pub fn from_parts(ntscd: Ntscd, dod: Dod, classic: Option<ClassicControlDeps>) -> Self {
        let regions = strong_regions(&ntscd);
        StrongControlDeps {
            ntscd,
            dod,
            classic,
            regions,
        }
    }

    /// The NTSCD relation.
    pub fn ntscd(&self) -> &Ntscd {
        &self.ntscd
    }

    /// The DOD witness set.
    pub fn dod(&self) -> &Dod {
        &self.dod
    }

    /// The classic node-level relation, when the input was a CFG.
    pub fn classic(&self) -> Option<&ClassicControlDeps> {
        self.classic.as_ref()
    }

    /// The strong-region partition (identical NTSCD sets).
    pub fn regions(&self) -> &ControlRegions {
        &self.regions
    }

    /// Nodes strongly dependent on `branch` that are **not** weakly
    /// dependent on it — code whose execution hinges on `branch`'s
    /// loop terminating. Empty (for every branch) on acyclic graphs,
    /// and always empty when the classic relation is absent.
    pub fn termination_sensitive_deps(&self, branch: NodeId) -> Vec<NodeId> {
        let Some(classic) = &self.classic else {
            return Vec::new();
        };
        (0..self.ntscd.node_count())
            .map(NodeId::from_index)
            .filter(|&n| self.ntscd.depends_on(n, branch) && !classic.depends_on(n, branch))
            .collect()
    }
}

/// Groups nodes with identical NTSCD dependence sets into regions.
fn strong_regions(ntscd: &Ntscd) -> ControlRegions {
    let mut interner: HashMap<&[NodeId], u32> = HashMap::new();
    let mut classes = Vec::with_capacity(ntscd.node_count());
    for i in 0..ntscd.node_count() {
        let set = ntscd.deps_of(NodeId::from_index(i));
        let next = interner.len() as u32;
        classes.push(*interner.entry(set).or_insert(next));
    }
    ControlRegions::from_classes(classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pst_cfg::parse_edge_list;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn classic_on_a_diamond() {
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
        let classic = ClassicControlDeps::compute(&cfg);
        assert_eq!(classic.deps_of(n(1)), &[n(0)]);
        assert_eq!(classic.deps_of(n(2)), &[n(0)]);
        assert_eq!(classic.deps_of(n(0)), &[]);
        assert_eq!(classic.deps_of(n(3)), &[]);
        assert_eq!(classic.relation_size(), 2);
    }

    #[test]
    fn classic_loop_header_depends_on_itself_but_exit_does_not() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let classic = ClassicControlDeps::compute(&cfg);
        assert_eq!(classic.deps_of(n(1)), &[n(1)]);
        assert_eq!(classic.deps_of(n(2)), &[n(1)]);
        assert_eq!(classic.deps_of(n(3)), &[]);
    }

    #[test]
    fn strong_artifact_on_a_while_loop() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let strong = StrongControlDeps::of_cfg(&cfg);
        // The exit is exactly the termination-sensitive dependent of
        // the header: strongly dependent, weakly unconditional.
        assert_eq!(strong.termination_sensitive_deps(n(1)), vec![n(3)]);
        // Strong regions: 1, 2, 3 share the NTSCD set {1}; the entry
        // has the empty set and sits alone.
        assert!(strong.regions().same_region(n(1), n(3)));
        assert!(!strong.regions().same_region(n(0), n(3)));
        assert!(strong.dod().is_empty());
    }

    #[test]
    fn acyclic_graphs_have_equal_strong_and_weak_relations() {
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3 3->4 3->5 4->6 5->6").unwrap();
        let strong = StrongControlDeps::of_cfg(&cfg);
        let classic = strong.classic().unwrap();
        for i in 0..cfg.node_count() {
            assert_eq!(
                strong.ntscd().deps_of(n(i)),
                classic.deps_of(n(i)),
                "node {i}"
            );
            assert!(strong.termination_sensitive_deps(n(i)).is_empty());
        }
    }

    #[test]
    fn graph_form_has_no_classic_relation() {
        let mut g = Graph::new();
        let nodes = g.add_nodes(3);
        g.add_edge(nodes[0], nodes[1]);
        g.add_edge(nodes[1], nodes[2]);
        g.add_edge(nodes[2], nodes[1]);
        let strong = StrongControlDeps::of_graph(&g);
        assert!(strong.classic().is_none());
        assert!(strong.termination_sensitive_deps(nodes[1]).is_empty());
        // The inescapable loop {1,2} strongly separates from the entry:
        // 1 and 2 have empty NTSCD sets (no branches at all), so all
        // three nodes actually share the empty set here.
        assert_eq!(strong.regions().num_classes(), 1);
    }

    #[test]
    fn from_parts_recomputes_regions() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let strong = StrongControlDeps::of_cfg(&cfg);
        let rebuilt = StrongControlDeps::from_parts(
            strong.ntscd().clone(),
            strong.dod().clone(),
            strong.classic().cloned(),
        );
        assert_eq!(
            crate::partition_signature(rebuilt.regions(), 4),
            crate::partition_signature(strong.regions(), 4),
        );
    }
}
