//! Allen–Cocke interval analysis (paper §6.2's "classic approach to
//! elimination algorithms uses an interval decomposition").
//!
//! An *interval* `I(h)` with header `h` is the maximal single-entry
//! subgraph built by repeatedly absorbing nodes all of whose predecessors
//! already lie in the interval. Collapsing every interval to one node
//! yields the *derived graph*; iterating produces the derived sequence,
//! which ends in a single node exactly when the graph is reducible.
//!
//! Classic elimination solves over this sequence and so gets stuck on
//! irreducible graphs; the PST elimination solver
//! ([`solve_elimination`](crate::solve_elimination)) does not. Only the
//! structure is computed here: `pst intervals` prints it.

use pst_cfg::{group_rows, Cfg};

/// One level of the derived sequence: a graph whose nodes are the
/// intervals of the level below.
struct Level {
    node_count: usize,
    entry: usize,
    /// `(source, target)` per edge.
    edges: Vec<(usize, usize)>,
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

/// Computes the derived sequence of `cfg`, in time linear in the size of
/// each level.
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
    let g = cfg.graph();
    let mut level = Level {
        node_count: g.node_count(),
        entry: cfg.entry().index(),
        edges: g
            .edges()
            .map(|e| {
                let (u, v) = g.endpoints(e);
                (u.index(), v.index())
            })
            .collect(),
    };
    let mut interval_counts = Vec::new();
    loop {
        let (interval_of, k) = partition(&level);
        interval_counts.push(k);
        // With one interval per node the derived graph differs from this
        // one only by its dropped self-loops; without any, it is stuck.
        let stuck = k == level.node_count && level.edges.iter().all(|(u, v)| u != v);
        if k == 1 || stuck {
            return DerivedSequence {
                interval_counts,
                reducible: k == 1,
            };
        }
        level = Level {
            node_count: k,
            entry: interval_of[level.entry],
            edges: level
                .edges
                .iter()
                .map(|&(u, v)| (interval_of[u], interval_of[v]))
                .filter(|(u, v)| u != v)
                .collect(),
        };
    }
}

/// The Allen–Cocke partition of `level`: each node's interval, and the
/// interval count. A node joins the interval being grown once that
/// interval's members own all its in-edges, counted under the interval's
/// stamp; a successor left outside is queued as a header. A queued node
/// has a predecessor in an earlier interval, so no later interval can
/// absorb it, and every edge is looked at twice per level.
fn partition(level: &Level) -> (Vec<usize>, usize) {
    const NONE: usize = usize::MAX;
    let n = level.node_count;
    let (start, succ) = group_rows(n, 0, || level.edges.iter().copied());
    let succs = |m: usize| &succ[start[m] as usize..start[m + 1] as usize];
    let mut in_degree = vec![0; n];
    for &(_, v) in &level.edges {
        in_degree[v] += 1;
    }

    let mut interval_of = vec![NONE; n];
    let mut stamp = vec![NONE; n];
    let mut owned = vec![0; n];
    let mut queued = vec![false; n];
    let mut headers = vec![level.entry];
    queued[level.entry] = true;
    let mut members = Vec::new();
    let mut count = 0;
    while let Some(h) = headers.pop() {
        let id = count;
        count += 1;
        interval_of[h] = id;
        members.clear();
        members.push(h);
        let mut i = 0;
        while let Some(&m) = members.get(i) {
            i += 1;
            for &s in succs(m) {
                if interval_of[s] != NONE {
                    continue;
                }
                if stamp[s] != id {
                    stamp[s] = id;
                    owned[s] = 0;
                }
                owned[s] += 1;
                if owned[s] == in_degree[s] {
                    interval_of[s] = id;
                    members.push(s);
                }
            }
        }
        for &m in &members {
            for &s in succs(m) {
                if interval_of[s] == NONE && !queued[s] {
                    queued[s] = true;
                    headers.push(s);
                }
            }
        }
    }
    (interval_of, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_elimination, solve_iterative, ReachingDefinitions};
    use pst_core::{collapse_all, ProgramStructureTree};
    use pst_lang::{lower_function, parse_function_body};

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
    fn self_loops_do_not_stall_the_sequence() {
        // Nodes 1 and 2 carry self-loops, so each is its own interval.
        let cfg = pst_cfg::parse_edge_list("0->1 1->1 1->2 2->2 2->3 1->3").unwrap();
        let seq = derived_sequence(&cfg);
        assert!(seq.reducible);
        assert_eq!(seq.interval_counts, vec![4, 1]);
    }

    #[test]
    fn irreducible_graph_detected() {
        let cfg = pst_cfg::parse_edge_list("0->1 0->2 1->2 2->1 1->3 2->3").unwrap();
        assert!(!derived_sequence(&cfg).reducible);
    }

    /// §6.2: the derived sequence gets stuck on a two-entry loop, and PST
    /// elimination still solves it.
    #[test]
    fn pst_elimination_solves_what_intervals_cannot() {
        let l = lower_function(
            &parse_function_body(
                "if (c) { goto b; } a: x = x + 1; goto c; b: x = x - 1; c: if (x > 0) { goto a; } return x;",
            )
            .unwrap(),
        )
        .unwrap();
        assert!(!derived_sequence(&l.cfg).reducible);
        let pst = ProgramStructureTree::build(&l.cfg);
        let collapsed = collapse_all(&l.cfg, &pst);
        let rd = ReachingDefinitions::new(&l);
        assert_eq!(
            solve_elimination(&l.cfg, &pst, &collapsed, &rd).unwrap(),
            solve_iterative(&l.cfg, &rd)
        );
    }
}
