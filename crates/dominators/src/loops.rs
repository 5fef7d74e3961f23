//! Natural loops and the loop nesting forest.
//!
//! A *natural loop* is the classic dominator-based notion: a backedge
//! `u → h` with `h dom u` defines the loop of all nodes that reach `u`
//! without passing through `h`. Loops with the same header are merged.
//! This is independent machinery from the paper's SESE regions — the
//! integration tests cross-check the two views (every natural loop of a
//! reducible CFG sits inside the SESE region classified as a `Loop`).

use pst_cfg::{Cfg, NodeId};

use crate::{dominator_tree, DomTree};

/// One natural loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (target of the defining backedges).
    pub header: NodeId,
    /// All nodes of the loop (header included), sorted.
    pub body: Vec<NodeId>,
    /// Index of the innermost enclosing loop in
    /// [`LoopForest::loops`], if any.
    pub parent: Option<usize>,
}

impl NaturalLoop {
    /// Whether `node` belongs to this loop.
    pub fn contains(&self, node: NodeId) -> bool {
        self.body.binary_search(&node).is_ok()
    }
}

/// The loop nesting forest of a CFG.
///
/// Only *dominator* backedges define loops, so irreducible cycles (whose
/// retreating edges are not dominator backedges) produce no entry here —
/// matching the classical definition.
///
/// # Examples
///
/// ```
/// use pst_cfg::parse_edge_list;
/// use pst_dominators::LoopForest;
/// let cfg = parse_edge_list("0->1 1->2 2->3 3->2 3->1 1->4").unwrap();
/// let forest = LoopForest::compute(&cfg);
/// assert_eq!(forest.loops().len(), 2);
/// // The inner loop (header 2) nests in the outer loop (header 1).
/// let inner = forest.loops().iter().position(|l| l.header.index() == 2).unwrap();
/// let outer = forest.loops().iter().position(|l| l.header.index() == 1).unwrap();
/// assert_eq!(forest.loops()[inner].parent, Some(outer));
/// ```
#[derive(Clone, Debug)]
pub struct LoopForest {
    loops: Vec<NaturalLoop>,
    /// Innermost loop per node, if any.
    innermost: Vec<Option<usize>>,
}

impl LoopForest {
    /// Computes the forest for `cfg`.
    pub fn compute(cfg: &Cfg) -> Self {
        let dt: DomTree = dominator_tree(cfg.graph(), cfg.entry());
        Self::compute_with(cfg, &dt)
    }

    /// Computes the forest reusing an existing dominator tree.
    pub fn compute_with(cfg: &Cfg, dt: &DomTree) -> Self {
        let graph = cfg.graph();
        let n = graph.node_count();

        // Collect backedge sources per header.
        let mut latches_of: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut headers: Vec<NodeId> = Vec::new();
        for e in graph.edges() {
            let (u, h) = graph.endpoints(e);
            if dt.dominates(h, u) {
                if latches_of[h.index()].is_empty() {
                    headers.push(h);
                }
                latches_of[h.index()].push(u);
            }
        }

        // Grow each loop body by backwards reachability stopping at the
        // header. `seen` holds the index of the last loop that reached a
        // node, so one array serves every walk.
        let mut seen = vec![usize::MAX; n];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut loops: Vec<NaturalLoop> = Vec::with_capacity(headers.len());
        for (i, &h) in headers.iter().enumerate() {
            seen[h.index()] = i;
            let mut body = vec![h];
            stack.extend(&latches_of[h.index()]);
            while let Some(v) = stack.pop() {
                if seen[v.index()] != i {
                    seen[v.index()] = i;
                    body.push(v);
                    stack.extend(graph.predecessors(v));
                }
            }
            body.sort_unstable();
            loops.push(NaturalLoop {
                header: h,
                body,
                parent: None,
            });
        }

        // Paint loops onto their nodes largest first, so the innermost loop
        // of a node paints it last. Two natural loops that share a node
        // nest, the outer one strictly larger, so the loop painted on a
        // header when its own loop comes up is the smallest strictly larger
        // loop containing it: the parent.
        let mut order: Vec<usize> = (0..loops.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(loops[i].body.len()));
        let mut innermost: Vec<Option<usize>> = vec![None; n];
        for i in order {
            loops[i].parent = innermost[loops[i].header.index()];
            for v in &loops[i].body {
                innermost[v.index()] = Some(i);
            }
        }

        LoopForest { loops, innermost }
    }

    /// All loops, unordered (use [`NaturalLoop::parent`] for nesting).
    pub fn loops(&self) -> &[NaturalLoop] {
        &self.loops
    }

    /// Innermost loop containing `node`, if any.
    pub fn innermost(&self, node: NodeId) -> Option<&NaturalLoop> {
        self.innermost[node.index()].map(|i| &self.loops[i])
    }

    /// Nesting depth of `node` (0 = not in any loop).
    pub fn depth(&self, node: NodeId) -> usize {
        let mut d = 0;
        let mut cur = self.innermost[node.index()];
        while let Some(i) = cur {
            d += 1;
            cur = self.loops[i].parent;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pst_cfg::parse_edge_list;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn acyclic_graph_has_no_loops() {
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
        let forest = LoopForest::compute(&cfg);
        assert!(forest.loops().is_empty());
        assert_eq!(forest.depth(n(1)), 0);
    }

    #[test]
    fn while_loop_body() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let forest = LoopForest::compute(&cfg);
        assert_eq!(forest.loops().len(), 1);
        let l = &forest.loops()[0];
        assert_eq!(l.header, n(1));
        assert_eq!(l.body, vec![n(1), n(2)]);
        assert_eq!(forest.depth(n(2)), 1);
        assert_eq!(forest.depth(n(3)), 0);
    }

    #[test]
    fn nested_loops_nest() {
        let cfg = parse_edge_list("0->1 1->2 2->3 3->2 3->1 1->4").unwrap();
        let forest = LoopForest::compute(&cfg);
        assert_eq!(forest.loops().len(), 2);
        assert_eq!(forest.depth(n(3)), 2);
        assert_eq!(forest.depth(n(1)), 1);
        let inner = forest.innermost(n(3)).unwrap();
        assert_eq!(inner.header, n(2));
    }

    #[test]
    fn self_loop_is_a_loop() {
        let cfg = parse_edge_list("0->1 1->1 1->2").unwrap();
        let forest = LoopForest::compute(&cfg);
        assert_eq!(forest.loops().len(), 1);
        assert_eq!(forest.loops()[0].body, vec![n(1)]);
    }

    #[test]
    fn two_backedges_one_header_merge() {
        let cfg = parse_edge_list("0->1 1->2 1->3 2->1 3->1 1->4").unwrap();
        let forest = LoopForest::compute(&cfg);
        assert_eq!(forest.loops().len(), 1);
        assert_eq!(forest.loops()[0].body.len(), 3);
    }

    #[test]
    fn irreducible_cycle_defines_no_natural_loop() {
        let cfg = parse_edge_list("0->1 0->2 1->2 2->1 1->3 2->3").unwrap();
        let forest = LoopForest::compute(&cfg);
        assert!(forest.loops().is_empty());
    }

    #[test]
    fn disjoint_loops_are_siblings() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3 3->4 4->3 3->5").unwrap();
        let forest = LoopForest::compute(&cfg);
        assert_eq!(forest.loops().len(), 2);
        assert!(forest.loops().iter().all(|l| l.parent.is_none()));
    }
}
