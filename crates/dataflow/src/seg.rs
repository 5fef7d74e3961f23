//! Sparse evaluation graphs (Choi, Cytron & Ferrante, POPL 1991).
//!
//! The paper's §6.3 compares its quick propagation graphs against SEGs:
//! "these graphs also bypass uninteresting regions of the control flow
//! graph and in general will be smaller than our quick propagation graphs.
//! However, they are more costly to build and it is unclear how to exploit
//! both sparsity and structure using SEGs, since their edges cross
//! interval (or SESE region) boundaries in an ad hoc manner."
//!
//! Implementing SEGs makes that trade-off measurable. A SEG for one
//! forward problem instance contains the entry, every node with a
//! non-identity transfer, and *meet nodes* at the iterated dominance
//! frontier of those; edges connect each SEG node to the SEG node whose
//! value reaches it (found with an SSA-renaming-style dominator-tree
//! walk). Values at all other CFG nodes are recovered by the same walk.

use pst_cfg::{Cfg, NodeId};
use pst_dominators::{
    dominance_frontiers, dominator_tree, iterated_dominance_frontier, Direction, DomTree,
};

use crate::{Confluence, DataflowProblem, Flow, Solution, SolverError};

/// A sparse evaluation graph for one forward problem instance.
#[derive(Clone, Debug)]
pub struct Seg {
    /// The SEG nodes (CFG node ids), sorted: entry + non-transparent
    /// nodes + meet nodes.
    nodes: Vec<NodeId>,
    /// SEG edges as `(from, to)` positions into `nodes`. A non-meet node
    /// has exactly one incoming edge (except the entry, which has none).
    edges: Vec<(usize, usize)>,
    /// For every CFG node, the SEG node whose *out*-value holds at the
    /// node's entry (usize::MAX only before construction finishes).
    covering: Vec<usize>,
    /// Position of the CFG entry in `nodes` (the entry is always a SEG
    /// node), stored at build time so [`Seg::solve`] is infallible.
    entry_pos: usize,
}

impl Seg {
    /// Builds the SEG of `problem` over `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::BackwardUnsupported`] on backward problems
    /// (the construction is symmetric; only the forward direction is
    /// provided, matching the QPG evaluation) and
    /// [`SolverError::Internal`] if the dominator-tree walk loses track of
    /// a covering SEG node — possible only for inputs violating the CFG
    /// contract.
    pub fn build(cfg: &Cfg, problem: &impl DataflowProblem) -> Result<Self, SolverError> {
        if problem.flow() != Flow::Forward {
            return Err(SolverError::BackwardUnsupported("SEG construction"));
        }
        let graph = cfg.graph();
        let dt: DomTree = dominator_tree(graph, cfg.entry());
        let df = dominance_frontiers(graph, &dt, Direction::Forward);

        // Interesting nodes: entry + non-identity transfers.
        let mut interesting: Vec<NodeId> = graph
            .nodes()
            .filter(|&n| !problem.is_transparent(n))
            .collect();
        if !interesting.contains(&cfg.entry()) {
            interesting.push(cfg.entry());
        }
        let meets = iterated_dominance_frontier(&df, &interesting);

        let mut in_seg = vec![false; graph.node_count()];
        let mut meet_flag = vec![false; graph.node_count()];
        for &n in &interesting {
            in_seg[n.index()] = true;
        }
        for &m in &meets {
            in_seg[m.index()] = true;
            meet_flag[m.index()] = true;
        }
        let nodes: Vec<NodeId> = graph.nodes().filter(|&n| in_seg[n.index()]).collect();
        let mut pos = vec![usize::MAX; graph.node_count()];
        for (i, &n) in nodes.iter().enumerate() {
            pos[n.index()] = i;
        }

        // Dominator-tree walk with a "current SEG node" stack, exactly
        // like single-variable SSA renaming.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut covering = vec![usize::MAX; graph.node_count()];
        enum Action {
            Visit(NodeId),
            Pop,
        }
        let mut stack: Vec<usize> = Vec::new(); // current SEG node positions
        let mut work = vec![Action::Visit(cfg.entry())];
        while let Some(action) = work.pop() {
            match action {
                Action::Pop => {
                    stack.pop();
                }
                Action::Visit(node) => {
                    let ni = node.index();
                    let mut pushed = false;
                    if in_seg[ni] {
                        // A non-meet, non-entry SEG node is fed by the
                        // current SEG node.
                        if !meet_flag[ni] && node != cfg.entry() {
                            let from = *stack
                                .last()
                                .ok_or(SolverError::Internal("entry dominates everything"))?;
                            edges.push((from, pos[ni]));
                        }
                        stack.push(pos[ni]);
                        pushed = true;
                    }
                    covering[ni] = *stack
                        .last()
                        .ok_or(SolverError::Internal("entry is a SEG node"))?;
                    // Meet nodes among CFG successors receive an edge from
                    // the SEG node current at this point (per CFG edge, so
                    // a meet joining k edges gets k inputs).
                    for s in graph.successors(node) {
                        if meet_flag[s.index()] {
                            let from = *stack
                                .last()
                                .ok_or(SolverError::Internal("covering stack is non-empty"))?;
                            edges.push((from, pos[s.index()]));
                        }
                    }
                    if pushed {
                        work.push(Action::Pop);
                    }
                    for &c in dt.children(node) {
                        work.push(Action::Visit(c));
                    }
                }
            }
        }
        // `covering[n]` = SEG node whose OUT holds at n's entry: for a SEG
        // node itself the stack top includes it, which is what we want for
        // projecting its own in… adjust: a SEG node's in-value is solved
        // directly, so covering only matters for non-SEG nodes; for them
        // the stack top is the nearest dominating SEG node. For SEG nodes
        // we instead record their own position (projection handles both).
        let entry_pos = pos[cfg.entry().index()];
        Ok(Seg {
            nodes,
            edges,
            covering,
            entry_pos,
        })
    }

    /// Number of SEG nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of SEG edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The CFG nodes participating in the SEG.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Solves the instance on the SEG and projects the full solution.
    ///
    /// Equal to [`solve_iterative`](crate::solve_iterative) on the whole
    /// CFG — asserted by the property tests.
    pub fn solve<P: DataflowProblem>(&self, cfg: &Cfg, problem: &P) -> Solution {
        let k = self.nodes.len();
        let mut inp: Vec<_> = (0..k).map(|_| problem.top()).collect();
        let mut out: Vec<_> = (0..k).map(|_| problem.top()).collect();
        // In-edges per SEG node.
        let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &(_, to)) in self.edges.iter().enumerate() {
            in_edges[to].push(i);
        }
        let entry_pos = self.entry_pos;

        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..k {
                let mut meet = if i == entry_pos {
                    problem.boundary()
                } else {
                    problem.top()
                };
                for &ei in &in_edges[i] {
                    let (from, _) = self.edges[ei];
                    match problem.confluence() {
                        Confluence::Union => {
                            meet.union(&out[from]);
                        }
                        Confluence::Intersection => {
                            meet.intersect(&out[from]);
                        }
                    }
                }
                if meet != inp[i] {
                    inp[i] = meet.clone();
                    changed = true;
                }
                problem.transfer(self.nodes[i]).apply(&mut meet);
                if meet != out[i] {
                    out[i] = meet;
                    changed = true;
                }
            }
        }

        // Projection: a SEG node keeps its solved values; any other node's
        // in and out both equal the out of its covering SEG node.
        let n = cfg.node_count();
        let mut full_in: Vec<_> = (0..n).map(|_| problem.top()).collect();
        let mut full_out: Vec<_> = (0..n).map(|_| problem.top()).collect();
        let mut seg_pos = vec![usize::MAX; n];
        for (i, &node) in self.nodes.iter().enumerate() {
            seg_pos[node.index()] = i;
        }
        for node in cfg.graph().nodes() {
            let ni = node.index();
            if seg_pos[ni] != usize::MAX {
                full_in[ni] = inp[seg_pos[ni]].clone();
                full_out[ni] = out[seg_pos[ni]].clone();
            } else {
                let c = self.covering[ni];
                full_in[ni] = out[c].clone();
                full_out[ni] = out[c].clone();
            }
        }
        Solution {
            inp: full_in,
            out: full_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_iterative, SingleVariableReachingDefs};
    use pst_lang::{lower_function, parse_function_body, VarId};

    fn check_all_vars(src: &str) {
        let l = lower_function(&parse_function_body(src).unwrap()).unwrap();
        for v in 0..l.var_count() {
            let var = VarId::from_index(v);
            let p = SingleVariableReachingDefs::new(&l, var);
            let seg = Seg::build(&l.cfg, &p).unwrap();
            assert_eq!(
                seg.solve(&l.cfg, &p),
                solve_iterative(&l.cfg, &p),
                "{src} variable {}",
                l.var_name(var)
            );
            assert!(seg.node_count() <= l.cfg.node_count());
        }
    }

    #[test]
    fn straight_line_and_branches() {
        check_all_vars("x = 1; y = x + 1; return y;");
        check_all_vars("if (c) { x = 1; } else { x = 2; } z = x; return z;");
        check_all_vars("if (c) { x = 1; } z = x; return z;");
    }

    #[test]
    fn loops_need_meet_nodes_at_headers() {
        check_all_vars("s = 0; while (n > 0) { s = s + n; n = n - 1; } return s;");
        check_all_vars("do { n = n - 1; } while (n > 0); return n;");
        check_all_vars("while (a) { if (b) { x = 1; } else { x = 2; } s = s + x; } return s;");
    }

    #[test]
    fn unstructured_flow() {
        check_all_vars(
            "if (c) { goto b; } a: x = x + 1; goto c; b: x = x - 1; c: if (x > 0) { goto a; } return x;",
        );
    }

    #[test]
    fn rejects_backward_problems() {
        let l = lower_function(&parse_function_body("x = 1; return x;").unwrap()).unwrap();
        let lv = crate::LiveVariables::new(&l);
        assert!(matches!(
            Seg::build(&l.cfg, &lv),
            Err(crate::SolverError::BackwardUnsupported(_))
        ));
    }

    #[test]
    fn seg_is_smaller_than_cfg_for_sparse_instances() {
        let l = lower_function(
            &parse_function_body(
                "x = 1; while (a) { y = y + 1; } while (b) { z = z + 1; } x = x + 2; return x;",
            )
            .unwrap(),
        )
        .unwrap();
        let x = l.var_id("x").unwrap();
        let p = SingleVariableReachingDefs::new(&l, x);
        let seg = Seg::build(&l.cfg, &p).unwrap();
        assert!(
            seg.node_count() * 2 < l.cfg.node_count(),
            "{} of {}",
            seg.node_count(),
            l.cfg.node_count()
        );
    }
}
