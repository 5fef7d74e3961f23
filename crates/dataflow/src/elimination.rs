//! PST-based elimination solving (paper §6.2, "exploiting global and
//! local structure").
//!
//! Two phases over the program structure tree:
//!
//! 1. **Bottom-up**: each region's collapsed graph is summarized into a
//!    single transfer function from its entry edge to its exit edge.
//!    Bit-vector transfer functions are closed under composition and both
//!    confluences, so the summary is again a gen/kill pair, recovered from
//!    two local solves as `gen = f(∅)` and `kill = U ∖ f(U)`.
//! 2. **Top-down**: the boundary value enters the root; each region's
//!    local solution assigns values to its interior nodes and entry values
//!    to its children.
//!
//! Only forward problems are supported (the paper's examples are forward;
//! backward elimination is symmetric). Results equal
//! [`solve_iterative`](crate::solve_iterative) — asserted by property
//! tests on generated programs.

use pst_cfg::{Cfg, Graph};
use pst_core::{CollapsedNode, CollapsedRegion, ProgramStructureTree};

use crate::{BitSet, Confluence, DataflowProblem, Flow, GenKill, Solution, SolverError};

/// Solves a forward problem by elimination over the PST.
///
/// # Errors
///
/// Returns [`SolverError::BackwardUnsupported`] if `problem` is a backward
/// problem.
///
/// # Examples
///
/// ```
/// use pst_lang::{parse_program, lower_function};
/// use pst_core::{collapse_all, ProgramStructureTree};
/// use pst_dataflow::{solve_elimination, solve_iterative, ReachingDefinitions};
/// let p = parse_program(
///     "fn f(n) { x = 1; while (n > 0) { x = x + 1; n = n - 1; } return x; }"
/// ).unwrap();
/// let l = lower_function(&p.functions[0]).unwrap();
/// let pst = ProgramStructureTree::build(&l.cfg);
/// let collapsed = collapse_all(&l.cfg, &pst);
/// let rd = ReachingDefinitions::new(&l);
/// assert_eq!(
///     solve_elimination(&l.cfg, &pst, &collapsed, &rd).unwrap(),
///     solve_iterative(&l.cfg, &rd),
/// );
/// ```
pub fn solve_elimination(
    cfg: &Cfg,
    pst: &ProgramStructureTree,
    collapsed: &[CollapsedRegion],
    problem: &impl DataflowProblem,
) -> Result<Solution, SolverError> {
    if problem.flow() != Flow::Forward {
        return Err(SolverError::BackwardUnsupported("elimination solver"));
    }
    let universe = problem.universe();
    let nregions = pst.region_count();

    // Regions in bottom-up order (children before parents): sort by depth
    // descending.
    let mut order: Vec<usize> = (0..nregions).collect();
    order.sort_by_key(|&r| std::cmp::Reverse(pst.depth(pst_core::RegionId::from_index(r))));

    // Phase 1: per-region transfer tables and entry→exit summaries.
    let mut tables: Vec<Vec<GenKill>> = vec![Vec::new(); nregions];
    let mut summaries: Vec<GenKill> = vec![GenKill::identity(universe); nregions];
    for &ri in &order {
        let region = pst_core::RegionId::from_index(ri);
        let mini = &collapsed[region.index()];
        let table: Vec<GenKill> = mini
            .members
            .iter()
            .map(|&m| match m {
                CollapsedNode::Interior(n) => problem.transfer(n).clone(),
                CollapsedNode::Child(c) => summaries[c.index()].clone(),
            })
            .collect();
        let empty = BitSet::new(universe);
        let full = BitSet::full(universe);
        let f_empty = local_exit_value(mini, &table, problem.confluence(), &empty);
        let f_full = local_exit_value(mini, &table, problem.confluence(), &full);
        let mut kill = BitSet::full(universe);
        kill.subtract(&f_full);
        summaries[ri] = GenKill { gen: f_empty, kill };
        tables[ri] = table;
    }

    // Phase 2: propagate entry values top-down.
    let n = cfg.node_count();
    let mut inp: Vec<_> = (0..n).map(|_| problem.top()).collect();
    let mut out: Vec<_> = (0..n).map(|_| problem.top()).collect();
    let mut work: Vec<(usize, BitSet)> = vec![(pst.root().index(), problem.boundary())];
    while let Some((ri, entry_value)) = work.pop() {
        let region = pst_core::RegionId::from_index(ri);
        let mini = &collapsed[ri];
        let (lin, lout) = local_solve(mini, &tables[ri], problem.confluence(), &entry_value);
        for (mi, &member) in mini.members.iter().enumerate() {
            match member {
                CollapsedNode::Interior(node) => {
                    inp[node.index()] = lin[mi].clone();
                    out[node.index()] = lout[mi].clone();
                }
                CollapsedNode::Child(c) => {
                    work.push((c.index(), lin[mi].clone()));
                }
            }
        }
        let _ = region;
    }
    Ok(Solution { inp, out })
}

/// Solves a region's collapsed graph for a concrete entry value; returns
/// per-mini-node in/out values.
fn local_solve(
    mini: &CollapsedRegion,
    table: &[GenKill],
    confluence: Confluence,
    entry_value: &BitSet,
) -> (Vec<BitSet>, Vec<BitSet>) {
    let g: &Graph = &mini.graph;
    let n = g.node_count();
    let universe = entry_value.universe();
    let top = || match confluence {
        Confluence::Union => BitSet::new(universe),
        Confluence::Intersection => BitSet::full(universe),
    };
    let mut inp: Vec<BitSet> = (0..n).map(|_| top()).collect();
    let mut out: Vec<BitSet> = (0..n).map(|_| top()).collect();
    if n == 0 {
        return (inp, out);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for v in g.nodes() {
            let mut meet = if v == mini.head {
                entry_value.clone()
            } else {
                top()
            };
            for p in g.predecessors(v) {
                match confluence {
                    Confluence::Union => {
                        meet.union(&out[p.index()]);
                    }
                    Confluence::Intersection => {
                        meet.intersect(&out[p.index()]);
                    }
                }
            }
            if meet != inp[v.index()] {
                inp[v.index()] = meet.clone();
                changed = true;
            }
            table[v.index()].apply(&mut meet);
            if meet != out[v.index()] {
                out[v.index()] = meet;
                changed = true;
            }
        }
    }
    (inp, out)
}

/// The value leaving a region's tail for a given entry value.
fn local_exit_value(
    mini: &CollapsedRegion,
    table: &[GenKill],
    confluence: Confluence,
    entry_value: &BitSet,
) -> BitSet {
    if mini.graph.node_count() == 0 {
        return entry_value.clone();
    }
    let (_, out) = local_solve(mini, table, confluence, entry_value);
    out[mini.tail.index()].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_iterative, DefiniteAssignment, ReachingDefinitions};
    use pst_core::collapse_all;
    use pst_lang::{lower_function, parse_function_body};

    fn check(src: &str) {
        let l = lower_function(&parse_function_body(src).unwrap()).unwrap();
        let pst = ProgramStructureTree::build(&l.cfg);
        let collapsed = collapse_all(&l.cfg, &pst);
        let rd = ReachingDefinitions::new(&l);
        assert_eq!(
            solve_elimination(&l.cfg, &pst, &collapsed, &rd).unwrap(),
            solve_iterative(&l.cfg, &rd),
            "reaching defs on {src}"
        );
        let da = DefiniteAssignment::new(&l);
        assert_eq!(
            solve_elimination(&l.cfg, &pst, &collapsed, &da).unwrap(),
            solve_iterative(&l.cfg, &da),
            "definite assignment on {src}"
        );
    }

    #[test]
    fn straight_line() {
        check("x = 1; y = x + 1; return y;");
    }

    #[test]
    fn conditionals() {
        check("if (c) { x = 1; } else { x = 2; } return x;");
        check("if (c) { x = 1; } y = x; return y;");
    }

    #[test]
    fn loops() {
        check("s = 0; while (n > 0) { s = s + n; n = n - 1; } return s;");
        check("do { n = n - 1; } while (n > 0); return n;");
        check("for (i = 0; i < 9; i = i + 1) { s = s + i; } return s;");
    }

    #[test]
    fn nesting_and_switch() {
        check("while (a) { if (b) { x = 1; } else { x = 2; } s = s + x; } return s;");
        check("switch (x) { case 0: { y = 1; } case 1: { y = 2; } default: { } } return y;");
    }

    #[test]
    fn unstructured() {
        check("top: x = x + 1; if (x < 3) { goto top; } return x;");
        check(
            "if (c) { goto b; } a: x = x + 1; goto c; b: x = x - 1; c: if (x > 0) { goto a; } return x;",
        );
    }

    #[test]
    fn backward_problems_are_rejected() {
        let l = lower_function(&parse_function_body("x = 1; return x;").unwrap()).unwrap();
        let pst = ProgramStructureTree::build(&l.cfg);
        let collapsed = collapse_all(&l.cfg, &pst);
        let lv = crate::LiveVariables::new(&l);
        assert_eq!(
            solve_elimination(&l.cfg, &pst, &collapsed, &lv),
            Err(crate::SolverError::BackwardUnsupported(
                "elimination solver"
            )),
        );
    }
}
