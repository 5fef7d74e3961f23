//! Edge-splitting transformation.
//!
//! [`EdgeSplit`] inserts a fresh *midpoint* node on every edge. Because the
//! original node ids are preserved, statements about **edge** dominance
//! reduce to statements about **node** dominance in the split graph:
//! edge `a` dominates node `n` in `G` iff `midpoint(a)` dominates `n` in
//! `split(G)`. The test suites use this as the definitional oracle for the
//! paper's SESE conditions (edge `a` dominates edge `b`, edge `b`
//! postdominates edge `a`, region membership of nodes).

use crate::{Cfg, EdgeId, Graph, NodeId};

/// A graph in which every original edge has been subdivided by a midpoint
/// node.
///
/// # Examples
///
/// ```
/// use pst_cfg::{parse_edge_list, EdgeSplit};
/// let cfg = parse_edge_list("0->1 1->2").unwrap();
/// let split = EdgeSplit::new(cfg.graph());
/// // 3 original nodes + 2 midpoints; each edge became two edges.
/// assert_eq!(split.graph().node_count(), 5);
/// assert_eq!(split.graph().edge_count(), 4);
/// let m = split.midpoint(cfg.graph().edges().next().unwrap());
/// assert_eq!(split.graph().in_degree(m), 1);
/// assert_eq!(split.graph().out_degree(m), 1);
/// ```
#[derive(Clone, Debug)]
pub struct EdgeSplit {
    graph: Graph,
    midpoint: Vec<NodeId>,
}

impl EdgeSplit {
    /// Splits every edge of `original`.
    ///
    /// The returned graph contains the original nodes with identical ids,
    /// followed by one midpoint node per original edge (in edge-id order).
    pub fn new(original: &Graph) -> Self {
        let mut graph = Graph::with_capacity(
            original.node_count() + original.edge_count(),
            2 * original.edge_count(),
        );
        graph.add_nodes(original.node_count());
        let mut midpoint = Vec::with_capacity(original.edge_count());
        for e in original.edges() {
            let (s, t) = original.endpoints(e);
            let m = graph.add_node();
            graph.add_edge(s, m);
            graph.add_edge(m, t);
            midpoint.push(m);
        }
        EdgeSplit { graph, midpoint }
    }

    /// Splits every edge of a [`Cfg`]; entry/exit carry over unchanged.
    pub fn of_cfg(cfg: &Cfg) -> Self {
        EdgeSplit::new(cfg.graph())
    }

    /// The split graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Midpoint node introduced for the original edge `edge`.
    pub fn midpoint(&self, edge: EdgeId) -> NodeId {
        self.midpoint[edge.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_edge_list;

    #[test]
    fn preserves_original_node_ids() {
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
        let split = EdgeSplit::of_cfg(&cfg);
        for e in cfg.graph().edges() {
            assert!(split.midpoint(e).index() >= cfg.node_count());
        }
        assert_eq!(
            split.graph().node_count(),
            cfg.node_count() + cfg.edge_count()
        );
    }

    #[test]
    fn midpoints_have_degree_one_each_way() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let split = EdgeSplit::of_cfg(&cfg);
        for e in cfg.graph().edges() {
            let m = split.midpoint(e);
            assert!(m.index() >= cfg.node_count());
            assert_eq!(split.graph().in_degree(m), 1);
            assert_eq!(split.graph().out_degree(m), 1);
            let (s, t) = cfg.graph().endpoints(e);
            assert_eq!(split.graph().predecessors(m).next(), Some(s));
            assert_eq!(split.graph().successors(m).next(), Some(t));
        }
    }

    #[test]
    fn self_loop_midpoint() {
        let cfg = parse_edge_list("0->1 1->1 1->2").unwrap();
        let split = EdgeSplit::of_cfg(&cfg);
        let loop_edge = cfg
            .graph()
            .edges()
            .find(|&e| cfg.graph().is_self_loop(e))
            .unwrap();
        let m = split.midpoint(loop_edge);
        let n1 = cfg.graph().source(loop_edge);
        assert_eq!(split.graph().predecessors(m).next(), Some(n1));
        assert_eq!(split.graph().successors(m).next(), Some(n1));
    }
}
