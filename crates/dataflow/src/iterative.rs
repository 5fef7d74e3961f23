//! The classical worklist (iterative) solver.

use pst_cfg::{Cfg, NodeId, Postorder};

use crate::{Confluence, DataflowProblem, Flow, Solution};

/// Solves `problem` over `cfg` by worklist iteration to the least (union)
/// or greatest (intersection) fixed point.
///
/// Nodes are seeded in reverse postorder of the flow direction, the order
/// that minimizes iteration count on reducible graphs.
///
/// # Examples
///
/// ```
/// use pst_lang::{parse_program, lower_function};
/// use pst_dataflow::{solve_iterative, ReachingDefinitions};
/// let p = parse_program("fn f(n) { x = 1; if (n) { x = 2; } return x; }").unwrap();
/// let l = lower_function(&p.functions[0]).unwrap();
/// let rd = ReachingDefinitions::new(&l);
/// let sol = solve_iterative(&l.cfg, &rd);
/// // Both definitions of x reach the exit block's entry.
/// let x = l.var_id("x").unwrap();
/// let reaching = rd.reaching_defs_of_var(sol.value_in(l.cfg.exit()), x);
/// assert_eq!(reaching.len(), 2);
/// ```
pub fn solve_iterative(cfg: &Cfg, problem: &impl DataflowProblem) -> Solution {
    let _span = pst_obs::Span::enter("dataflow_iterative");
    let graph = cfg.graph();
    let n = graph.node_count();
    let node = NodeId::from_index;
    let succ = |v| graph.successors(node(v)).map(NodeId::index);
    let pred = |v| graph.predecessors(node(v)).map(NodeId::index);
    match problem.flow() {
        Flow::Forward => {
            let root = cfg.entry().index();
            fixed_point(problem, root, &Postorder::new(n, [root], succ), pred)
        }
        Flow::Backward => {
            let root = cfg.exit().index();
            fixed_point(problem, root, &Postorder::new(n, [root], pred), succ)
        }
    }
}

/// Round-robin iteration to the fixed point over the nodes `0..n` that
/// `order` numbers: `root` holds the boundary value, `flow_preds(v)`
/// lists the nodes whose `out` meets into `v`'s `in`. Nodes are visited
/// in reverse `order`, or in index order when some node is unreached, so
/// that every node is still visited. One scratch set carries every meet,
/// and values are overwritten in place, so a visit allocates nothing.
pub(crate) fn fixed_point<P, I>(
    problem: &P,
    root: usize,
    order: &Postorder,
    flow_preds: impl Fn(usize) -> I,
) -> Solution
where
    P: DataflowProblem,
    I: Iterator<Item = usize>,
{
    let n = order.node_count();
    let reached = order.nodes();
    let visit = |i: usize| {
        if reached.len() == n {
            reached[n - 1 - i] as usize
        } else {
            i
        }
    };
    let top = problem.top();
    let mut inp = vec![top.clone(); n];
    let mut out = vec![top.clone(); n];
    inp[root] = problem.boundary();
    out[root] = problem.boundary();
    problem
        .transfer(NodeId::from_index(root))
        .apply(&mut out[root]);

    let confluence = problem.confluence();
    let mut meet = top.clone();
    let mut visits = 0u64;
    let mut changed = true;
    while changed {
        changed = false;
        for node in (0..n).map(visit) {
            if node == root {
                continue;
            }
            visits += 1;
            match confluence {
                Confluence::Union => {
                    meet.clear();
                    for p in flow_preds(node) {
                        meet.union(&out[p]);
                    }
                }
                Confluence::Intersection => {
                    meet.clone_from(&top);
                    for p in flow_preds(node) {
                        meet.intersect(&out[p]);
                    }
                }
            }
            if meet != inp[node] {
                inp[node].clone_from(&meet);
                changed = true;
            }
            problem.transfer(NodeId::from_index(node)).apply(&mut meet);
            if meet != out[node] {
                out[node].clone_from(&meet);
                changed = true;
            }
        }
    }
    if visits > 0 {
        pst_obs::counter!("dataflow_node_visits", visits);
    }
    Solution { inp, out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitSet, GenKill};
    use pst_cfg::parse_edge_list;

    /// A toy forward union problem with explicit transfer table.
    struct Toy {
        transfers: Vec<GenKill>,
        universe: usize,
        flow: Flow,
        confluence: Confluence,
        boundary: BitSet,
    }

    impl DataflowProblem for Toy {
        fn flow(&self) -> Flow {
            self.flow
        }
        fn confluence(&self) -> Confluence {
            self.confluence
        }
        fn universe(&self) -> usize {
            self.universe
        }
        fn boundary(&self) -> BitSet {
            self.boundary.clone()
        }
        fn transfer(&self, node: NodeId) -> &GenKill {
            &self.transfers[node.index()]
        }
    }

    fn toy(
        cfg_desc: &str,
        gens: &[(usize, usize)],
        kills: &[(usize, usize)],
    ) -> (pst_cfg::Cfg, Toy) {
        let cfg = parse_edge_list(cfg_desc).unwrap();
        let u = 8;
        let mut transfers: Vec<GenKill> = (0..cfg.node_count())
            .map(|_| GenKill::identity(u))
            .collect();
        for &(n, b) in gens {
            transfers[n].gen.insert(b);
        }
        for &(n, b) in kills {
            transfers[n].kill.insert(b);
        }
        let toy = Toy {
            transfers,
            universe: u,
            flow: Flow::Forward,
            confluence: Confluence::Union,
            boundary: BitSet::new(u),
        };
        (cfg, toy)
    }

    #[test]
    fn facts_flow_down_a_chain() {
        let (cfg, p) = toy("0->1 1->2", &[(0, 3)], &[]);
        let sol = solve_iterative(&cfg, &p);
        assert!(sol.value_in(NodeId::from_index(2)).contains(3));
    }

    #[test]
    fn kill_stops_a_fact() {
        let (cfg, p) = toy("0->1 1->2", &[(0, 3)], &[(1, 3)]);
        let sol = solve_iterative(&cfg, &p);
        assert!(sol.value_in(NodeId::from_index(1)).contains(3));
        assert!(!sol.value_in(NodeId::from_index(2)).contains(3));
    }

    #[test]
    fn union_merges_branches() {
        let (cfg, p) = toy("0->1 0->2 1->3 2->3", &[(1, 1), (2, 2)], &[]);
        let sol = solve_iterative(&cfg, &p);
        let at3 = sol.value_in(NodeId::from_index(3));
        assert!(at3.contains(1) && at3.contains(2));
    }

    #[test]
    fn intersection_requires_both_branches() {
        let (cfg, mut p) = toy(
            "0->1 0->2 1->3 2->3",
            &[(1, 1), (2, 2), (1, 5), (2, 5)],
            &[],
        );
        p.confluence = Confluence::Intersection;
        let sol = solve_iterative(&cfg, &p);
        let at3 = sol.value_in(NodeId::from_index(3));
        assert!(!at3.contains(1) && !at3.contains(2));
        assert!(at3.contains(5));
    }

    #[test]
    fn loop_reaches_fixed_point() {
        let (cfg, p) = toy("0->1 1->2 2->1 1->3", &[(2, 7)], &[]);
        let sol = solve_iterative(&cfg, &p);
        // The fact generated in the loop body reaches the header and exit.
        assert!(sol.value_in(NodeId::from_index(1)).contains(7));
        assert!(sol.value_in(NodeId::from_index(3)).contains(7));
        assert!(!sol.value_in(NodeId::from_index(0)).contains(7));
    }

    #[test]
    fn backward_flow() {
        let (cfg, mut p) = toy("0->1 1->2", &[(2, 4)], &[]);
        p.flow = Flow::Backward;
        let sol = solve_iterative(&cfg, &p);
        // Backward: the fact generated at node 2 flows toward node 0.
        assert!(sol.value_in(NodeId::from_index(0)).contains(4));
    }
}
