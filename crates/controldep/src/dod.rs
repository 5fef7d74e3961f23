//! Decisive order dependence (DOD).
//!
//! NTSCD captures *whether* a node executes under a branch, but not
//! the cases where a branch decides only the **order** in which two
//! nodes (that both inevitably execute) are reached. Those are the
//! order-dependence cases slicing must keep:
//!
//! > `(p; a, b)` is a DOD witness iff every maximal path from `p`
//! > contains both `a` and `b`, some successor of `p` starts only
//! > maximal paths that reach `a` before `b`, and some successor
//! > starts only maximal paths that reach `b` before `a`.
//!
//! Two structural facts (Chalupa et al., PAPERS.md) shrink the search:
//! a witness forces `a` to reach `b` *and* `b` to reach `a` (take one
//! path of each order), so `{a, b}` must lie in one nontrivial SCC —
//! and on a valid Definition-1 CFG, where every node reaches the exit,
//! no witness exists at all. DOD is therefore interesting precisely on
//! raw digraphs with nontrivial terminal SCCs, the inputs the
//! canonicalizer repairs with virtual loop exits.
//!
//! The order test reuses the NTSCD propagation primitive: *"all
//! maximal paths from `s` reach `a` before `b`"* is exactly *"`a` is
//! inevitable from `s` once `b` is treated as a sink"* — every maximal
//! path in the `b`-blocked graph is a maximal path of the original
//! truncated at its first visit to `b`, so inevitability in the
//! blocked graph is first-occurrence order in the original. Each
//! candidate pair costs two `O(N + E)` propagations; a work budget
//! bounds the quadratic pair enumeration on adversarial graphs and is
//! reported via [`Dod::is_complete`].

use pst_cfg::{Budget, Exhausted, Graph, NodeId, Sccs};

use crate::ntscd::{branch_nodes, Inevitability, NO_BRANCH};

/// Default step cap of [`Dod::compute`] (node-plus-edge steps, one
/// propagation costing `N + E + 1`). Generous for every graph the test
/// and bench suites use; adversarial SCC-heavy graphs truncate instead
/// of stalling.
pub const DEFAULT_DOD_BUDGET: u64 = 50_000_000;

/// Whether `steps` more fit in `budget`: running out of steps truncates
/// the search, and only a deadline errs.
fn fits(budget: &mut Budget, steps: u64) -> Result<bool, Exhausted> {
    match budget.spend(steps) {
        Ok(()) => Ok(true),
        Err(Exhausted::Steps { .. }) => Ok(false),
        Err(deadline) => Err(deadline),
    }
}

/// One decisive order dependence: `branch` decides whether `first` or
/// `second` is reached first, even though both always execute.
/// Normalized so `first < second` by node id (the relation itself is
/// symmetric in the pair).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DodWitness {
    /// The deciding branch node `p`.
    pub branch: NodeId,
    /// Smaller node of the order-dependent pair.
    pub first: NodeId,
    /// Larger node of the order-dependent pair.
    pub second: NodeId,
}

/// The decisive-order-dependence relation of a digraph: all witnesses
/// `(p; a, b)`, sorted and deduplicated.
///
/// # Examples
///
/// The canonical witness needs a nontrivial terminal SCC entered at
/// two points:
///
/// ```
/// use pst_cfg::Graph;
/// use pst_controldep::Dod;
/// let mut g = Graph::new();
/// let n = g.add_nodes(3); // 0 branches into the 2-cycle {1, 2}
/// g.add_edge(n[0], n[1]);
/// g.add_edge(n[0], n[2]);
/// g.add_edge(n[1], n[2]);
/// g.add_edge(n[2], n[1]);
/// let dod = Dod::compute(&g);
/// let w = dod.witnesses();
/// assert_eq!(w.len(), 1);
/// assert_eq!((w[0].branch, w[0].first, w[0].second), (n[0], n[1], n[2]));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dod {
    witnesses: Vec<DodWitness>,
    complete: bool,
}

impl Dod {
    /// Computes all DOD witnesses under [`DEFAULT_DOD_BUDGET`].
    pub fn compute(graph: &Graph) -> Dod {
        Dod::compute_budgeted(graph, DEFAULT_DOD_BUDGET)
    }

    /// Computes DOD witnesses under a cap of `budget` steps (at least 16
    /// propagations, so a tiny graph always finishes). When the cap runs
    /// out the result is truncated and [`Dod::is_complete`] returns
    /// `false`.
    pub fn compute_budgeted(graph: &Graph, budget: u64) -> Dod {
        Dod::compute_within(graph, budget, Budget::UNLIMITED)
            .expect("an unlimited budget has no deadline")
    }

    /// [`Dod::compute_budgeted`] with a cap of `cap` steps, under `budget`
    /// as well, spent per propagation. Running out of steps truncates; a
    /// deadline that passes returns [`Exhausted::Deadline`] and nothing
    /// else (see [`Budget`]'s policy).
    pub fn compute_within(graph: &Graph, cap: u64, budget: Budget) -> Result<Dod, Exhausted> {
        let _span = pst_obs::Span::enter("dod");
        let n = graph.node_count();
        let prop_cost = (n + graph.edge_count() + 1) as u64;
        let mut budget = budget.capped(cap.max(16 * prop_cost));

        let sccs = Sccs::new(graph);
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); sccs.count()];
        for v in graph.nodes() {
            members[sccs.component(v)].push(v);
        }
        let branches = branch_nodes(graph);
        let mut branch_of = vec![NO_BRANCH; n];
        for (k, (p, _)) in branches.iter().enumerate() {
            branch_of[p.index()] = k as u32;
        }

        let mut witnesses: Vec<DodWitness> = Vec::new();
        let mut complete = true;
        // Scratch shared by every propagation.
        let mut propagation = Inevitability::new(graph);
        let mut ord_ab = vec![false; n];
        let mut ord_ba = vec![false; n];
        let mut inevitable = vec![false; n];
        let mut pairs_checked = 0u64;
        let mut witnesses_found = 0u64;

        'outer: for comp in &members {
            // Only nontrivial SCCs can hold an order-dependent pair.
            if comp.len() < 2 || branches.is_empty() {
                continue;
            }
            // Inevitability rows for every member, over the branches:
            // bit k of row i holds when every maximal path from branch
            // k contains comp[i]. Packed 64 branches per word, so a
            // pair's candidate branches are one AND per word.
            let words = branches.len().div_ceil(64);
            let mut rows: Vec<u64> = vec![0; comp.len() * words];
            for (row, &w) in rows.chunks_exact_mut(words).zip(comp) {
                if !fits(&mut budget, prop_cost)? {
                    complete = false;
                    break 'outer;
                }
                propagation.fill(w, None, &mut inevitable);
                for &x in propagation.marked() {
                    let k = branch_of[x.index()] as usize;
                    if k != NO_BRANCH as usize {
                        row[k / 64] |= 1 << (k % 64);
                    }
                }
            }
            let row = |i: usize| &rows[i * words..(i + 1) * words];
            for i in 0..comp.len() {
                for j in (i + 1)..comp.len() {
                    let (a, b) = (comp[i], comp[j]);
                    // Branches from which both a and b are inevitable.
                    let both = || row(i).iter().zip(row(j)).map(|(x, y)| x & y);
                    if both().all(|w| w == 0) {
                        continue;
                    }
                    if !fits(&mut budget, 2 * prop_cost)? {
                        complete = false;
                        break 'outer;
                    }
                    pairs_checked += 1;
                    propagation.fill(a, Some(b), &mut ord_ab);
                    propagation.fill(b, Some(a), &mut ord_ba);
                    for (wi, mut bits) in both().enumerate() {
                        while bits != 0 {
                            let (p, succs) = &branches[wi * 64 + bits.trailing_zeros() as usize];
                            bits &= bits - 1;
                            let a_first = succs.iter().any(|s| ord_ab[s.index()]);
                            let b_first = succs.iter().any(|s| ord_ba[s.index()]);
                            if a_first && b_first {
                                witnesses_found += 1;
                                witnesses.push(DodWitness {
                                    branch: *p,
                                    first: a,
                                    second: b,
                                });
                            }
                        }
                    }
                }
            }
        }
        // One registry update per counter and call; a count of zero stays
        // absent from the report, as an operation that never happened.
        if pairs_checked > 0 {
            pst_obs::counter!("dod_pairs_checked", pairs_checked);
        }
        if witnesses_found > 0 {
            pst_obs::counter!("dod_witnesses", witnesses_found);
        }
        witnesses.sort_unstable();
        witnesses.dedup();
        Ok(Dod {
            witnesses,
            complete,
        })
    }

    /// Wraps a precomputed witness list (must be sorted, `first <
    /// second`). Used by tests and by `pst-verify`'s fault injection.
    pub fn from_raw(witnesses: Vec<DodWitness>, complete: bool) -> Dod {
        Dod {
            witnesses,
            complete,
        }
    }

    /// All witnesses, sorted by `(branch, first, second)`.
    pub fn witnesses(&self) -> &[DodWitness] {
        &self.witnesses
    }

    /// Whether the relation has no witnesses.
    pub fn is_empty(&self) -> bool {
        self.witnesses.is_empty()
    }

    /// `false` when the work budget truncated the pair enumeration —
    /// the witnesses present are sound, but more may exist.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Consumes the relation into its witness list.
    pub fn into_raw(self) -> Vec<DodWitness> {
        self.witnesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(node_count: usize, edges: &[(usize, usize)]) -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let n = g.add_nodes(node_count);
        for &(a, b) in edges {
            g.add_edge(n[a], n[b]);
        }
        (g, n)
    }

    #[test]
    fn canonical_two_entry_cycle_witness() {
        let (g, n) = graph(3, &[(0, 1), (0, 2), (1, 2), (2, 1)]);
        let dod = Dod::compute(&g);
        assert!(dod.is_complete());
        assert_eq!(
            dod.witnesses(),
            &[DodWitness {
                branch: n[0],
                first: n[1],
                second: n[2],
            }]
        );
    }

    #[test]
    fn while_loop_has_no_witness() {
        // Valid CFG shape: branch can escape the cycle, so the body is
        // not inevitable and no order is decided.
        let (g, _) = graph(4, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        let dod = Dod::compute(&g);
        assert!(dod.is_complete());
        assert!(dod.is_empty());
    }

    #[test]
    fn acyclic_graphs_are_witness_free() {
        let (g, _) = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let dod = Dod::compute(&g);
        assert!(dod.is_complete());
        assert!(dod.is_empty());
    }

    #[test]
    fn single_entry_terminal_cycle_has_no_witness() {
        // 0 -> 1, cycle {1, 2}: both orders start at 1, nothing decided.
        let (g, _) = graph(3, &[(0, 1), (1, 2), (2, 1)]);
        let dod = Dod::compute(&g);
        assert!(dod.is_complete());
        assert!(dod.is_empty());
    }

    #[test]
    fn branches_past_the_first_word_are_candidates_too() {
        // A 2-cycle {0, 1} entered from 150 branches. Even-numbered
        // branches enter it at both nodes, so each decides which of 0
        // and 1 comes first; odd ones may leave for the sink 2 instead,
        // so neither node is inevitable from them. The branches span
        // three words of the packed candidate rows.
        let k: usize = 150;
        let mut edges = vec![(0, 1), (1, 0)];
        for b in 0..k {
            let p = 3 + b;
            edges.push((p, 0));
            edges.push((p, if b.is_multiple_of(2) { 1 } else { 2 }));
        }
        let (g, n) = graph(3 + k, &edges);
        let dod = Dod::compute(&g);
        assert!(dod.is_complete());
        let expected: Vec<DodWitness> = (0..k)
            .step_by(2)
            .map(|b| DodWitness {
                branch: n[3 + b],
                first: n[0],
                second: n[1],
            })
            .collect();
        assert_eq!(dod.witnesses(), expected.as_slice());
    }

    #[test]
    fn larger_cycle_decides_multiple_pairs() {
        // 0 branches into a 3-cycle {1, 2, 3} at two distinct points.
        let (g, n) = graph(4, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 1)]);
        let dod = Dod::compute(&g);
        assert!(dod.is_complete());
        // Entering at 1 reaches 1 before 2 and before 3; entering at 2
        // reaches both 2 and 3 before 1. Order of (2, 3) is the same
        // either way, so exactly the pairs involving 1 are decided.
        assert_eq!(
            dod.witnesses(),
            &[
                DodWitness {
                    branch: n[0],
                    first: n[1],
                    second: n[2],
                },
                DodWitness {
                    branch: n[0],
                    first: n[1],
                    second: n[3],
                },
            ]
        );
    }

    #[test]
    fn budget_truncation_is_reported() {
        let (g, _) = graph(3, &[(0, 1), (0, 2), (1, 2), (2, 1)]);
        let dod = Dod::compute_budgeted(&g, 0);
        // The minimum floor still allows the tiny graph to finish; use
        // a graph big enough that 16 propagations cannot cover it.
        assert!(dod.is_complete());
        let mut big = Graph::new();
        let nodes = big.add_nodes(40);
        for i in 0..40 {
            big.add_edge(nodes[i], nodes[(i + 1) % 40]);
            big.add_edge(nodes[i], nodes[(i + 7) % 40]);
        }
        let truncated = Dod::compute_budgeted(&big, 0);
        assert!(!truncated.is_complete());
    }

    #[test]
    fn raw_round_trip() {
        let (g, _) = graph(3, &[(0, 1), (0, 2), (1, 2), (2, 1)]);
        let dod = Dod::compute(&g);
        let complete = dod.is_complete();
        let raw = dod.clone().into_raw();
        assert_eq!(Dod::from_raw(raw, complete), dod);
    }
}
