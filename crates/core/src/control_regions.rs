//! Control regions in linear time (paper §5).
//!
//! Two nodes are in the same *control region* when they have the same set
//! of control dependences. Theorem 7 reduces this to **node** cycle
//! equivalence in `S = G + (end→start)`, and Theorem 8 reduces node cycle
//! equivalence to **edge** cycle equivalence of *representative edges* in
//! the node-expanded graph `T(S)`: every node `n` becomes a pair
//! `nᵢ → nₒ` joined by its representative edge, and every original edge
//! `n → m` becomes `nₒ → mᵢ`.
//!
//! The expansion is implicit here: the cycle-equivalence engine takes an
//! endpoint function, so `T(S)` is described by index arithmetic and never
//! built (the paper notes this as a constant-factor optimization). `T(S)`
//! has `2N` nodes and `N + E + 1` edges, preserving the `O(E)` bound. The
//! explicit transform survives as a test oracle in
//! `crates/core/tests/implicit_expansion.rs`. Previous algorithms for this
//! problem were `O(EN)` (Cytron–Ferrante–Sarkar) or restricted to reducible
//! graphs (Ball) — both are implemented in `pst-controldep` as baselines,
//! and the three are cross-validated in the integration tests.

use pst_cfg::{Cfg, EdgeId, NodeId};

use crate::cycle_equiv::{raw_classes, renumber};

/// Partition of a CFG's nodes into control regions (control-dependence
/// equivalence classes).
///
/// Class ids are dense and renumbered in node-id order.
///
/// # Examples
///
/// In a diamond, the two arms are separate control regions while entry and
/// exit share one (both execute unconditionally):
///
/// ```
/// use pst_cfg::{parse_edge_list, NodeId};
/// use pst_core::ControlRegions;
/// let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
/// let cr = ControlRegions::compute(&cfg);
/// let n = |i| NodeId::from_index(i);
/// assert_eq!(cr.class(n(0)), cr.class(n(3)));
/// assert_ne!(cr.class(n(1)), cr.class(n(2)));
/// assert_eq!(cr.num_classes(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControlRegions {
    class_of: Vec<u32>,
    num_classes: u32,
}

impl ControlRegions {
    /// Computes control regions of `cfg` in `O(E)` time via node-expanded
    /// cycle equivalence.
    pub fn compute(cfg: &Cfg) -> Self {
        let _span = pst_obs::Span::enter("control_regions");
        let g = cfg.graph();
        let (n, m) = (g.node_count(), g.edge_count());
        let (entry, exit) = (cfg.entry().index(), cfg.exit().index());
        // T(S) by index arithmetic: node v of S becomes vᵢ = 2v and
        // vₒ = 2v + 1. Edge v < n is v's representative edge vᵢ → vₒ; edge
        // n + e is G's edge u → v as uₒ → vᵢ; edge n + m is S's virtual
        // edge exitₒ → entryᵢ. T(S) of a valid CFG is strongly connected.
        let mut raw = raw_classes(2 * n, n + m + 1, 2 * entry, |e| {
            if e < n {
                (2 * e, 2 * e + 1)
            } else if e < n + m {
                let (u, v) = g.endpoints(EdgeId::from_index(e - n));
                (2 * u.index() + 1, 2 * v.index())
            } else {
                (2 * exit + 1, 2 * entry)
            }
        })
        .expect("T(S) of a valid CFG is connected");
        // The representative edges' classes are the nodes' classes.
        raw.truncate(n);
        raw.shrink_to_fit();
        Self::from_classes(raw)
    }

    /// Builds directly from raw per-node labels (used by the baseline
    /// algorithms in `pst-controldep` so results compare with `==`).
    /// Labels are renumbered densely in node-id order.
    pub fn from_classes(mut raw: Vec<u32>) -> Self {
        let num_classes = renumber(&mut raw);
        ControlRegions {
            class_of: raw,
            num_classes,
        }
    }

    /// Control-region class of `node`.
    pub fn class(&self, node: NodeId) -> u32 {
        self.class_of[node.index()]
    }

    /// Number of distinct control regions.
    pub fn num_classes(&self) -> usize {
        self.num_classes as usize
    }

    /// Whether two nodes share all their control dependences.
    pub fn same_region(&self, a: NodeId, b: NodeId) -> bool {
        self.class(a) == self.class(b)
    }

    /// The classes as a slice indexed by node.
    pub fn classes(&self) -> &[u32] {
        &self.class_of
    }

    /// Groups node ids by class.
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.num_classes()];
        for (i, &c) in self.class_of.iter().enumerate() {
            out[c as usize].push(NodeId::from_index(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pst_cfg::parse_edge_list;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn classes(desc: &str) -> ControlRegions {
        ControlRegions::compute(&parse_edge_list(desc).unwrap())
    }

    #[test]
    fn straight_line_is_one_region() {
        let cr = classes("0->1 1->2 2->3");
        assert_eq!(cr.num_classes(), 1);
    }

    #[test]
    fn diamond_three_regions() {
        let cr = classes("0->1 0->2 1->3 2->3");
        assert_eq!(cr.num_classes(), 3);
        assert!(cr.same_region(n(0), n(3)));
        assert!(!cr.same_region(n(1), n(2)));
        assert!(!cr.same_region(n(0), n(1)));
    }

    #[test]
    fn if_then_two_regions() {
        let cr = classes("0->1 0->2 1->2");
        assert_eq!(cr.num_classes(), 2);
        assert!(cr.same_region(n(0), n(2)));
        assert!(!cr.same_region(n(0), n(1)));
    }

    #[test]
    fn while_loop_three_regions() {
        // Header is conditionally re-executed, body more so, entry/exit
        // unconditional.
        let cr = classes("0->1 1->2 2->1 1->3");
        assert_eq!(cr.num_classes(), 3);
        assert!(cr.same_region(n(0), n(3)));
        assert!(!cr.same_region(n(1), n(2)));
        assert!(!cr.same_region(n(0), n(1)));
    }

    #[test]
    fn same_branch_nodes_share_region() {
        // Two nodes in sequence on the same branch arm.
        let cr = classes("0->1 1->2 0->3 2->3");
        assert!(cr.same_region(n(1), n(2)));
        assert!(cr.same_region(n(0), n(3)));
        assert_eq!(cr.num_classes(), 2);
    }

    #[test]
    fn nested_conditionals() {
        // if (a) { if (b) {x} } : x deeper than the outer arm.
        let cr = classes("0->1 0->4 1->2 1->3 2->3 3->4");
        // 0 and 4 unconditional; 1 and 3 in the outer arm; 2 innermost.
        assert!(cr.same_region(n(0), n(4)));
        assert!(cr.same_region(n(1), n(3)));
        assert!(!cr.same_region(n(1), n(2)));
        assert_eq!(cr.num_classes(), 3);
    }

    #[test]
    fn irreducible_graph_is_handled() {
        let cr = classes("0->1 0->2 1->2 2->1 1->3 2->3");
        // No restriction to reducible graphs (unlike Ball's algorithm).
        assert!(cr.same_region(n(0), n(3)));
        assert!(!cr.same_region(n(1), n(2)));
    }

    #[test]
    fn self_loop_node_is_its_own_region() {
        let cr = classes("0->1 1->1 1->2");
        assert!(cr.same_region(n(0), n(2)));
        assert!(!cr.same_region(n(0), n(1)));
        assert_eq!(cr.num_classes(), 2);
    }
}
