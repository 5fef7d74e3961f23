//! Edge-based control dependence over the strongly connected closure.
//!
//! Node `n` is control dependent on edge `e = (u, v)` iff `n`
//! postdominates `v` and does not *strictly* postdominate `u` — the edge
//! formulation of the paper's Definition 8. For the paper's Theorem 7 to
//! hold ("same set of control dependences ⇔ node cycle equivalence in
//! `S`"), the relation must be computed over **`S = G + (end → start)`**
//! itself, with postdominance taken in `S`:
//!
//! * the added edge makes unconditionally-executed nodes (`start`, `end`,
//!   straight-line code between them) compare equal through their shared
//!   dependence on the virtual edge, and
//! * a loop *header* keeps its dependence on the virtual edge while the
//!   loop *body* does not, separating them exactly as cycle equivalence
//!   does.
//!
//! (The classic FOW `ENTRY → EXIT` augmentation produces a different — and
//! for Theorem 7, wrong — partition; the doc-tests below pin the corner
//! cases.)
//!
//! The full relation has `O(N·E)` size in the worst case; this module
//! materializes it, which is exactly why it is a *baseline* rather than
//! the linear-time algorithm of `pst-core`.

use pst_cfg::{Cfg, EdgeId, Graph, NodeId};
use pst_dominators::{dominator_tree_in, Direction, DomTree};

/// The control-dependence relation of a CFG, taken over the strongly
/// connected closure `S`.
///
/// # Examples
///
/// ```
/// use pst_cfg::{parse_edge_list, NodeId};
/// use pst_controldep::ControlDependence;
/// let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
/// let cd = ControlDependence::compute(&cfg);
/// let n = |i| NodeId::from_index(i);
/// // The arms depend on their branch edges; entry and exit share a sole
/// // dependence on the virtual end→start edge.
/// assert_eq!(cd.deps_of(n(1)).len(), 1);
/// assert_eq!(cd.deps_of(n(0)), &[cd.virtual_edge()]);
/// assert_eq!(cd.deps_of(n(0)), cd.deps_of(n(3)));
/// ```
#[derive(Clone, Debug)]
pub struct ControlDependence {
    /// `deps[n]` = sorted edge ids `n` is control dependent on. Edge ids
    /// refer to `S`: original ids plus the virtual `end → start` edge with
    /// id `cfg.edge_count()`.
    deps: Vec<Vec<EdgeId>>,
    closure: Graph,
    virtual_edge: EdgeId,
}

impl ControlDependence {
    /// Computes the relation for `cfg`.
    pub fn compute(cfg: &Cfg) -> Self {
        let _span = pst_obs::Span::enter("control_dependence");
        let (closure, virtual_edge) = cfg.to_strongly_connected();
        let pdom = dominator_tree_in(&closure, cfg.exit(), Direction::Backward);
        let deps = dependence_sets(&closure, &pdom);
        ControlDependence {
            deps,
            closure,
            virtual_edge,
        }
    }

    /// Sorted control-dependence set of `node` (edge ids in `S`).
    pub fn deps_of(&self, node: NodeId) -> &[EdgeId] {
        &self.deps[node.index()]
    }

    /// Whether `node` is control dependent on `edge`.
    pub fn depends_on(&self, node: NodeId, edge: EdgeId) -> bool {
        self.deps[node.index()].binary_search(&edge).is_ok()
    }

    /// Id of the virtual `end → start` edge.
    pub fn virtual_edge(&self) -> EdgeId {
        self.virtual_edge
    }

    /// Total size of the relation (Σ |CD(n)|).
    pub fn relation_size(&self) -> usize {
        self.deps.iter().map(|d| d.len()).sum()
    }

    /// For each edge of `S`, the list of nodes control dependent on it
    /// (the transposed relation, used by the CFS refinement baseline).
    pub fn dependents_by_edge(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.closure.edge_count()];
        for (n, deps) in self.deps.iter().enumerate() {
            for &e in deps {
                out[e.index()].push(NodeId::from_index(n));
            }
        }
        out
    }
}

/// CD sets via the postdominator-tree runner walk: for edge `(u, v)`,
/// every node on the pdom-tree path from `v` up to (excluding) `ipdom(u)`
/// is control dependent on the edge.
fn dependence_sets(graph: &Graph, pdom: &DomTree) -> Vec<Vec<EdgeId>> {
    let mut deps: Vec<Vec<EdgeId>> = vec![Vec::new(); graph.node_count()];
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
            deps[r.index()].push(e);
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
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use pst_cfg::parse_edge_list;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn cd(desc: &str) -> ControlDependence {
        ControlDependence::compute(&parse_edge_list(desc).unwrap())
    }

    #[test]
    fn straight_line_all_share_virtual_dependence() {
        let c = cd("0->1 1->2 2->3");
        for i in 0..4 {
            assert_eq!(c.deps_of(n(i)), &[c.virtual_edge()], "node {i}");
        }
        assert_eq!(c.relation_size(), 4);
    }

    #[test]
    fn diamond_arms_depend_on_branch_edges() {
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
        let c = ControlDependence::compute(&cfg);
        let g = cfg.graph();
        let e01 = g.edges().find(|&e| g.target(e) == n(1)).unwrap();
        let e02 = g.edges().find(|&e| g.target(e) == n(2)).unwrap();
        assert_eq!(c.deps_of(n(1)), &[e01]);
        assert_eq!(c.deps_of(n(2)), &[e02]);
        assert_eq!(c.deps_of(n(0)), &[c.virtual_edge()]);
        assert_eq!(c.deps_of(n(0)), c.deps_of(n(3)));
    }

    #[test]
    fn loop_header_and_body_have_different_sets() {
        // The crucial Theorem-7 corner: under S-closure postdominance, the
        // header keeps its virtual-edge dependence, the body does not.
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let c = ControlDependence::compute(&cfg);
        let g = cfg.graph();
        let e12 = g
            .edges()
            .find(|&e| g.source(e) == n(1) && g.target(e) == n(2))
            .unwrap();
        assert_eq!(c.deps_of(n(2)), &[e12]);
        assert_eq!(c.deps_of(n(1)), &[e12, c.virtual_edge()]);
        assert_ne!(c.deps_of(n(1)), c.deps_of(n(2)));
        assert_eq!(c.deps_of(n(0)), c.deps_of(n(3)));
    }

    #[test]
    fn self_loop_depends_on_itself() {
        let cfg = parse_edge_list("0->1 1->1 1->2").unwrap();
        let c = ControlDependence::compute(&cfg);
        let g = cfg.graph();
        let loop_edge = g.edges().find(|&e| g.is_self_loop(e)).unwrap();
        assert_eq!(c.deps_of(n(1)), &[loop_edge, c.virtual_edge()]);
        assert_eq!(c.deps_of(n(0)), c.deps_of(n(2)));
    }

    #[test]
    fn depends_on_matches_sets() {
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
        let c = ControlDependence::compute(&cfg);
        for node in cfg.graph().nodes() {
            // The edges of `S`: the CFG's, then the virtual one.
            for e in cfg.graph().edges().chain([c.virtual_edge()]) {
                assert_eq!(c.depends_on(node, e), c.deps_of(node).contains(&e));
            }
        }
    }

    #[test]
    fn transposed_relation_is_consistent() {
        let c = cd("0->1 1->2 2->1 1->3");
        let by_edge = c.dependents_by_edge();
        let total: usize = by_edge.iter().map(|d| d.len()).sum();
        assert_eq!(total, c.relation_size());
    }
}
