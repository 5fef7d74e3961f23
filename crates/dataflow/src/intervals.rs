//! Allen–Cocke interval analysis (paper §6.2's "classic approach to
//! elimination algorithms uses an interval decomposition").
//!
//! An *interval* `I(h)` with header `h` is the maximal single-entry
//! subgraph built by repeatedly absorbing nodes all of whose predecessors
//! already lie in the interval. Collapsing every interval to one node
//! yields the *derived graph*; iterating produces the derived sequence,
//! which ends in a single node exactly when the graph is reducible.
//!
//! [`solve_intervals`] runs the classical two-phase elimination over the
//! derived sequence for forward bit-vector problems. Precision note: the
//! algorithm carries **per-edge** transfer functions (value transported
//! from the source interval's *entry* to the edge target) rather than one
//! summary per collapsed node — merging exits into a single node function
//! would conflate paths and over-approximate may-analyses.
//!
//! The PST elimination solver subsumes this machinery (Theorem 10: SESE
//! regions of reducible graphs are reducible); the tests check that the
//! interval, PST and iterative solvers all agree.

use pst_cfg::Cfg;

use crate::{BitSet, Confluence, DataflowProblem, Flow, GenKill, Solution, SolverError};

/// One level of the derived sequence, as a graph with per-edge transfer
/// functions.
#[derive(Clone, Debug)]
struct Level {
    node_count: usize,
    entry: usize,
    /// `(source, target, F)`: the contribution to `target`'s in-value is
    /// `F(entry-value of source's interval)`. At level 0, `F` is simply
    /// the source node's transfer.
    edges: Vec<(usize, usize, GenKill)>,
    in_edges: Vec<Vec<usize>>,
    /// Interval id per node.
    interval_of: Vec<usize>,
    /// Members per interval, header first.
    intervals: Vec<Vec<usize>>,
}

/// Public view of the derived sequence (for tests and the curious).
#[derive(Clone, Debug)]
pub struct DerivedSequence {
    /// Interval count at each level, from the CFG upward.
    pub interval_counts: Vec<usize>,
    /// Whether the sequence collapsed to one node (⇔ the graph is
    /// reducible).
    pub reducible: bool,
}

/// Computes the derived sequence of `cfg` (structure only).
///
/// # Examples
///
/// ```
/// use pst_cfg::parse_edge_list;
/// use pst_dataflow::derived_sequence;
/// let reducible = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
/// assert!(derived_sequence(&reducible).reducible);
/// let irreducible = parse_edge_list("0->1 0->2 1->2 2->1 1->3 2->3").unwrap();
/// assert!(!derived_sequence(&irreducible).reducible);
/// ```
pub fn derived_sequence(cfg: &Cfg) -> DerivedSequence {
    let dummy_universe = 0;
    let mut level = level_zero(cfg, &|_| GenKill::identity(dummy_universe));
    let mut interval_counts = Vec::new();
    loop {
        partition(&mut level);
        let k = level.intervals.len();
        interval_counts.push(k);
        if k == 1 {
            return DerivedSequence {
                interval_counts,
                reducible: true,
            };
        }
        if k == level.node_count {
            return DerivedSequence {
                interval_counts,
                reducible: false,
            };
        }
        level = derive(&level, Confluence::Union, dummy_universe);
    }
}

fn level_zero(cfg: &Cfg, transfer: &dyn Fn(pst_cfg::NodeId) -> GenKill) -> Level {
    let g = cfg.graph();
    let n = g.node_count();
    let mut edges = Vec::with_capacity(g.edge_count());
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        in_edges[v.index()].push(edges.len());
        edges.push((u.index(), v.index(), transfer(u)));
    }
    Level {
        node_count: n,
        entry: cfg.entry().index(),
        edges,
        in_edges,
        interval_of: Vec::new(),
        intervals: Vec::new(),
    }
}

/// Fills `interval_of` / `intervals` with the Allen–Cocke partition.
fn partition(level: &mut Level) {
    const NONE: usize = usize::MAX;
    let n = level.node_count;
    let mut interval_of = vec![NONE; n];
    let mut intervals: Vec<Vec<usize>> = Vec::new();
    let mut header_queue: Vec<usize> = vec![level.entry];
    let mut queued = vec![false; n];
    queued[level.entry] = true;

    while let Some(h) = header_queue.pop() {
        if interval_of[h] != NONE {
            continue;
        }
        let id = intervals.len();
        interval_of[h] = id;
        let mut members = vec![h];
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..n {
                if interval_of[v] != NONE || v == level.entry || level.in_edges[v].is_empty() {
                    continue;
                }
                if level.in_edges[v]
                    .iter()
                    .all(|&e| interval_of[level.edges[e].0] == id)
                {
                    interval_of[v] = id;
                    members.push(v);
                    changed = true;
                }
            }
        }
        intervals.push(members);
        for v in 0..n {
            if interval_of[v] == NONE
                && !queued[v]
                && level.in_edges[v]
                    .iter()
                    .any(|&e| interval_of[level.edges[e].0] != NONE)
            {
                queued[v] = true;
                header_queue.push(v);
            }
        }
    }
    level.interval_of = interval_of;
    level.intervals = intervals;
}

/// In-values of an interval's members for a concrete entry value.
/// Iterates to the local fixed point (internal backedges reach only the
/// header).
fn interval_solve(
    level: &Level,
    interval: usize,
    entry_value: &BitSet,
    confluence: Confluence,
) -> Vec<BitSet> {
    let universe = entry_value.universe();
    let top = || match confluence {
        Confluence::Union => BitSet::new(universe),
        Confluence::Intersection => BitSet::full(universe),
    };
    let members = &level.intervals[interval];
    let header = members[0];
    // Dense position within the interval.
    let mut pos = std::collections::HashMap::new();
    for (i, &m) in members.iter().enumerate() {
        pos.insert(m, i);
    }
    let mut inp: Vec<BitSet> = members.iter().map(|_| top()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (i, &m) in members.iter().enumerate() {
            let mut meet = if m == header {
                entry_value.clone()
            } else {
                top()
            };
            for &ei in &level.in_edges[m] {
                let (src, _, f) = &level.edges[ei];
                let Some(&si) = pos.get(src) else {
                    continue; // external edge: only feeds the header via `entry_value`
                };
                let mut v = inp[si].clone();
                f.apply(&mut v);
                match confluence {
                    Confluence::Union => {
                        meet.union(&v);
                    }
                    Confluence::Intersection => {
                        meet.intersect(&v);
                    }
                }
            }
            if inp[i] != meet {
                inp[i] = meet;
                changed = true;
            }
        }
    }
    inp
}

/// Per-member transfer functions from the interval entry, via two solves.
fn member_functions(
    level: &Level,
    interval: usize,
    confluence: Confluence,
    universe: usize,
) -> Vec<GenKill> {
    let at_empty = interval_solve(level, interval, &BitSet::new(universe), confluence);
    let at_full = interval_solve(level, interval, &BitSet::full(universe), confluence);
    at_empty
        .into_iter()
        .zip(at_full)
        .map(|(gen, full)| {
            let mut kill = BitSet::full(universe);
            kill.subtract(&full);
            GenKill { gen, kill }
        })
        .collect()
}

/// Builds the next level: nodes = intervals; each crossing edge keeps its
/// own function, composed with the source member's entry→member function.
fn derive(level: &Level, confluence: Confluence, universe: usize) -> Level {
    let k = level.intervals.len();
    // Member functions per interval (indexed in member order).
    let fns: Vec<Vec<GenKill>> = (0..k)
        .map(|i| member_functions(level, i, confluence, universe))
        .collect();
    let mut member_pos: Vec<(usize, usize)> = vec![(0, 0); level.node_count];
    for (i, members) in level.intervals.iter().enumerate() {
        for (j, &m) in members.iter().enumerate() {
            member_pos[m] = (i, j);
        }
    }
    let mut edges = Vec::new();
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (src, dst, f) in &level.edges {
        let (si, sj) = member_pos[*src];
        let (di, _) = member_pos[*dst];
        if si == di {
            continue;
        }
        // entry(I_si) --g--> in(src) --f--> contribution to dst's header.
        let composed = f.compose_after(&fns[si][sj]);
        in_edges[di].push(edges.len());
        edges.push((si, di, composed));
    }
    Level {
        node_count: k,
        entry: member_pos[level.entry].0,
        edges,
        in_edges,
        interval_of: Vec::new(),
        intervals: Vec::new(),
    }
}

/// Solves a forward problem by interval elimination over the derived
/// sequence.
///
/// # Errors
///
/// Returns [`SolverError::BackwardUnsupported`] if `problem` is a backward
/// problem and [`SolverError::Irreducible`] if `cfg` is irreducible (the
/// classical method's precondition; the paper handles residual irreducible
/// regions by falling back to iteration — callers here can do the same
/// with [`solve_iterative`](crate::solve_iterative)).
///
/// # Examples
///
/// ```
/// use pst_lang::{parse_program, lower_function};
/// use pst_dataflow::{solve_intervals, solve_iterative, ReachingDefinitions};
/// let p = parse_program(
///     "fn f(n) { x = 1; while (n > 0) { x = x + 1; n = n - 1; } return x; }"
/// ).unwrap();
/// let l = lower_function(&p.functions[0]).unwrap();
/// let rd = ReachingDefinitions::new(&l);
/// assert_eq!(solve_intervals(&l.cfg, &rd).unwrap(), solve_iterative(&l.cfg, &rd));
/// ```
pub fn solve_intervals(cfg: &Cfg, problem: &impl DataflowProblem) -> Result<Solution, SolverError> {
    if problem.flow() != Flow::Forward {
        return Err(SolverError::BackwardUnsupported("interval elimination"));
    }
    let universe = problem.universe();
    let confluence = problem.confluence();

    // Phase 1: build and partition every level.
    let mut levels: Vec<Level> = Vec::new();
    let mut level = level_zero(cfg, &|n| problem.transfer(n).clone());
    loop {
        partition(&mut level);
        let k = level.intervals.len();
        let single = k == 1;
        let stuck = k == level.node_count && !single;
        if stuck {
            return Err(SolverError::Irreducible);
        }
        let next = if single {
            None
        } else {
            Some(derive(&level, confluence, universe))
        };
        levels.push(level);
        match next {
            Some(l) => level = l,
            None => break,
        }
    }

    // Phase 2: entry values top-down. At the top level there is a single
    // interval whose entry value is the boundary.
    let mut entries: Vec<BitSet> = vec![problem.boundary()];
    let mut node_values: Vec<BitSet> = Vec::new();
    for level in levels.iter().rev() {
        let mut values: Vec<BitSet> = vec![problem.top(); level.node_count];
        for (ii, members) in level.intervals.iter().enumerate() {
            let inp = interval_solve(level, ii, &entries[ii], confluence);
            for (&m, v) in members.iter().zip(inp) {
                values[m] = v;
            }
        }
        node_values = values.clone();
        // Node j of this level is interval j of the level below.
        entries = values;
    }

    // node_values now holds level-0 in-values.
    let inp: Vec<BitSet> = node_values;
    let out: Vec<BitSet> = cfg
        .graph()
        .nodes()
        .map(|v| {
            let mut x = inp[v.index()].clone();
            problem.transfer(v).apply(&mut x);
            x
        })
        .collect();
    Ok(Solution { inp, out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_iterative, AvailableExpressions, DefiniteAssignment, ReachingDefinitions};
    use pst_lang::{lower_function, parse_function_body};

    fn check(src: &str) {
        let l = lower_function(&parse_function_body(src).unwrap()).unwrap();
        let rd = ReachingDefinitions::new(&l);
        assert_eq!(
            solve_intervals(&l.cfg, &rd).unwrap(),
            solve_iterative(&l.cfg, &rd),
            "reaching defs on {src}"
        );
        let da = DefiniteAssignment::new(&l);
        assert_eq!(
            solve_intervals(&l.cfg, &da).unwrap(),
            solve_iterative(&l.cfg, &da),
            "definite assignment on {src}"
        );
        let avail = AvailableExpressions::new(&l);
        assert_eq!(
            solve_intervals(&l.cfg, &avail).unwrap(),
            solve_iterative(&l.cfg, &avail),
            "available expressions on {src}"
        );
    }

    #[test]
    fn derived_sequence_of_chain_is_one_level() {
        let cfg = pst_cfg::parse_edge_list("0->1 1->2 2->3").unwrap();
        let seq = derived_sequence(&cfg);
        assert!(seq.reducible);
        assert_eq!(seq.interval_counts, vec![1]);
    }

    #[test]
    fn derived_sequence_of_loop_collapses_in_steps() {
        let cfg = pst_cfg::parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let seq = derived_sequence(&cfg);
        assert!(seq.reducible);
        assert!(seq.interval_counts.len() >= 2, "{:?}", seq.interval_counts);
    }

    #[test]
    fn irreducible_graph_detected() {
        let cfg = pst_cfg::parse_edge_list("0->1 0->2 1->2 2->1 1->3 2->3").unwrap();
        assert!(!derived_sequence(&cfg).reducible);
    }

    #[test]
    fn matches_iterative_on_structured_programs() {
        check("x = 1; y = x + 1; return y;");
        check("if (c) { x = 1; } else { x = 2; } return x;");
        check("s = 0; while (n > 0) { s = s + n; n = n - 1; } return s;");
        check("for (i = 0; i < 9; i = i + 1) { if (i % 2 == 0) { s = s + i; } } return s;");
        check("do { n = n - 1; } while (n > 0); return n;");
        check("while (a) { while (b) { x = x + 1; } y = y + x; } return y;");
        check("switch (x) { case 0: { y = 1; } case 1: { y = 2; } default: { } } return y;");
    }

    #[test]
    fn distinct_exit_edges_stay_precise() {
        // Two different facts leave the first interval along different
        // edges; a single per-node summary would conflate them.
        check(
            "if (c) { a = 1; goto x; } b = 2;
             x:
             if (c) { z = a; } else { z = b; }
             return z;",
        );
    }

    #[test]
    fn rejects_irreducible_graphs() {
        let l = lower_function(
            &parse_function_body(
                "if (c) { goto b; } a: x = x + 1; goto c; b: x = x - 1; c: if (x > 0) { goto a; } return x;",
            )
            .unwrap(),
        )
        .unwrap();
        let rd = ReachingDefinitions::new(&l);
        assert_eq!(
            solve_intervals(&l.cfg, &rd),
            Err(crate::SolverError::Irreducible)
        );
    }

    #[test]
    fn rejects_backward_problems() {
        let l = lower_function(&parse_function_body("x = 1; return x;").unwrap()).unwrap();
        let lv = crate::LiveVariables::new(&l);
        assert_eq!(
            solve_intervals(&l.cfg, &lv),
            Err(crate::SolverError::BackwardUnsupported(
                "interval elimination"
            ))
        );
    }
}
