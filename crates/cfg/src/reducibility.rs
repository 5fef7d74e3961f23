//! Reducibility testing with irreducibility witnesses.
//!
//! A flow graph is *reducible* when repeated application of
//! * **T1** — remove a self-loop, and
//! * **T2** — merge a node that has a unique predecessor into that
//!   predecessor,
//!
//! collapses it to a single node. An equivalent characterization (Hecht &
//! Ullman): the graph is reducible iff every *retreating* edge of a
//! depth-first search — an edge whose target is on the tree path to its
//! source — is a *back* edge in the dominator sense, i.e. its target
//! dominates its source. [`reducibility`] uses the second formulation so
//! that, when the answer is "no", it can hand back the offending
//! retreating edges as a witness; [`is_reducible`] is the thin boolean
//! wrapper kept for existing callers. One search gives both halves:
//! [`Dominators`] numbers the graph in depth-first postorder, where an
//! edge is retreating exactly when its target's number is at least its
//! source's, and computes the dominators over that numbering. The T1/T2
//! reducer survives as an independent oracle of the dominator-based
//! answer (`debug_assert`ed on every call).
//!
//! The paper's Theorem 10 states that every SESE region of a reducible
//! graph is itself reducible; the classifier in `pst-core` uses this test
//! to separate "dag"/"loop" regions from truly unstructured cyclic ones,
//! and the lint engine in `pst-analysis` reports the witness edges.

use std::collections::BTreeSet;

use crate::{Dominators, EdgeId, Graph, NodeId};

/// Result of a reducibility test: either the graph is reducible, or the
/// retreating edges that break reducibility witness why it is not.
///
/// # Examples
///
/// ```
/// use pst_cfg::{parse_edge_list, reducibility};
/// // 0 branches to both 1 and 2, which form a cycle: irreducible, and
/// // the offending retreating edge closes the two-entry cycle.
/// let cfg = parse_edge_list("0->1 0->2 1->2 2->1 1->3 2->3").unwrap();
/// let r = reducibility(cfg.graph(), cfg.entry());
/// assert!(!r.is_reducible());
/// assert_eq!(r.irreducible_edges().len(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reducibility {
    irreducible_edges: Vec<EdgeId>,
}

impl Reducibility {
    /// Whether the tested graph is reducible.
    pub fn is_reducible(&self) -> bool {
        self.irreducible_edges.is_empty()
    }

    /// The witness set: retreating edges (w.r.t. the deterministic DFS
    /// used by the test) whose target does **not** dominate their source.
    /// Empty iff the graph is reducible. Sorted by edge id.
    pub fn irreducible_edges(&self) -> &[EdgeId] {
        &self.irreducible_edges
    }
}

/// Tests `graph` for reducibility when entered at `entry`, returning
/// irreducible retreating edges as a witness.
///
/// Nodes unreachable from `entry` are ignored — a region interior is
/// always reachable from its entry, so this matches the classifier's
/// needs while keeping the function total.
///
/// # Examples
///
/// A natural loop is reducible; the classic two-entry loop is not:
///
/// ```
/// use pst_cfg::{parse_edge_list, reducibility};
/// let natural = parse_edge_list("0->1 1->2 2->1 2->3").unwrap();
/// assert!(reducibility(natural.graph(), natural.entry()).is_reducible());
///
/// let irr = parse_edge_list("0->1 0->2 1->2 2->1 1->3 2->3").unwrap();
/// let r = reducibility(irr.graph(), irr.entry());
/// assert!(!r.is_reducible());
/// assert!(!r.irreducible_edges().is_empty());
/// ```
pub fn reducibility(graph: &Graph, entry: NodeId) -> Reducibility {
    let node = NodeId::from_index;
    let dom = Dominators::new(
        graph.node_count(),
        [entry.index()],
        |v| graph.successors(node(v)).map(NodeId::index),
        |v| graph.predecessors(node(v)).map(NodeId::index),
    );
    // An edge from a reached node is retreating (its target is on the
    // search's tree path to its source, or is the source) exactly when
    // its target finishes no earlier than its source.
    let number = |x: NodeId| dom.order().number(x.index());
    let irreducible_edges: Vec<EdgeId> = graph
        .edges()
        .filter(|&e| {
            let (u, v) = graph.endpoints(e);
            number(u).is_some() && number(v) >= number(u) && !dom.dominates(v.index(), u.index())
        })
        .collect();
    debug_assert_eq!(
        irreducible_edges.is_empty(),
        t1_t2_is_reducible(graph, entry),
        "dominator-based witness disagrees with the T1/T2 reducer"
    );
    Reducibility { irreducible_edges }
}

/// Whether `graph` is reducible when entered at `entry`.
///
/// Thin wrapper over [`reducibility`] kept for callers that only need the
/// boolean answer.
///
/// # Examples
///
/// ```
/// use pst_cfg::{parse_edge_list, is_reducible};
/// let natural = parse_edge_list("0->1 1->2 2->1 2->3").unwrap();
/// assert!(is_reducible(natural.graph(), natural.entry()));
///
/// // 0 branches to both 1 and 2, which form a cycle: irreducible.
/// let irr = parse_edge_list("0->1 0->2 1->2 2->1 1->3 2->3").unwrap();
/// assert!(!is_reducible(irr.graph(), irr.entry()));
/// ```
pub fn is_reducible(graph: &Graph, entry: NodeId) -> bool {
    reducibility(graph, entry).is_reducible()
}

/// The classic T1/T2 interval reducer, retained as an independent oracle
/// for the dominator-based test (`debug_assert`ed on every call and
/// cross-checked exhaustively by the tests).
fn t1_t2_is_reducible(graph: &Graph, entry: NodeId) -> bool {
    let n = graph.node_count();
    let reach = graph.reachable_from(entry);

    // Mutable successor/predecessor sets over representative nodes.
    // BTreeSet keeps iteration deterministic.
    let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut preds: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut live: Vec<bool> = vec![false; n];
    let mut live_count = 0usize;
    for v in graph.nodes() {
        if !reach[v.index()] {
            continue;
        }
        live[v.index()] = true;
        live_count += 1;
        for s in graph.successors(v) {
            if reach[s.index()] && s != v {
                succs[v.index()].insert(s.index());
                preds[s.index()].insert(v.index());
            }
            // Self-loops are dropped immediately (T1).
        }
    }
    if live_count <= 1 {
        return true;
    }

    // Worklist of candidate nodes for T2.
    let mut work: Vec<usize> = (0..n).filter(|&i| live[i]).collect();
    while let Some(v) = work.pop() {
        if !live[v] || v == entry.index() {
            continue;
        }
        if preds[v].len() != 1 {
            continue;
        }
        let Some(&p) = preds[v].iter().next() else {
            continue;
        };
        // T2: merge v into p.
        live[v] = false;
        live_count -= 1;
        preds[v].clear();
        succs[p].remove(&v);
        let v_succs: Vec<usize> = succs[v].iter().copied().collect();
        succs[v].clear();
        for s in v_succs {
            preds[s].remove(&v);
            if s == p {
                // Would form a self-loop p -> p: apply T1 immediately.
                continue;
            }
            succs[p].insert(s);
            let newly_single = preds[s].insert(p) && preds[s].len() == 1;
            if newly_single || preds[s].len() == 1 {
                work.push(s);
            }
        }
        // p's successor set changed; p's targets may have become mergeable.
        if preds[p].len() == 1 {
            work.push(p);
        }
        for &s in &succs[p] {
            if preds[s].len() == 1 {
                work.push(s);
            }
        }
    }
    live_count == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_edge_list;

    fn check(desc: &str) -> bool {
        let cfg = parse_edge_list(desc).unwrap();
        let r = reducibility(cfg.graph(), cfg.entry());
        assert_eq!(
            r.is_reducible(),
            t1_t2_is_reducible(cfg.graph(), cfg.entry()),
            "witness test and T1/T2 disagree on {desc}"
        );
        assert_eq!(
            r.is_reducible(),
            is_reducible(cfg.graph(), cfg.entry()),
            "bool wrapper must match on {desc}"
        );
        r.is_reducible()
    }

    #[test]
    fn straight_line_is_reducible() {
        assert!(check("0->1 1->2 2->3"));
    }

    #[test]
    fn diamond_is_reducible() {
        assert!(check("0->1 0->2 1->3 2->3"));
    }

    #[test]
    fn while_loop_is_reducible() {
        assert!(check("0->1 1->2 2->1 1->3"));
    }

    #[test]
    fn nested_loops_are_reducible() {
        assert!(check("0->1 1->2 2->3 3->2 3->1 1->4"));
    }

    #[test]
    fn self_loop_is_reducible() {
        assert!(check("0->1 1->1 1->2"));
    }

    #[test]
    fn classic_irreducible_triangle() {
        assert!(!check("0->1 0->2 1->2 2->1 1->3 2->3"));
    }

    #[test]
    fn bigger_irreducible() {
        // Two headers entered from outside the cycle.
        assert!(!check("0->1 0->3 1->2 2->3 3->4 4->1 2->5 4->5"));
    }

    /// Table-driven witness checks: for each input, the expected witness
    /// set as `source->target` endpoint pairs (edge ids depend on parse
    /// order, endpoints don't).
    #[test]
    fn witness_edges_are_exact() {
        let table: &[(&str, &[(usize, usize)])] = &[
            // Reducible graphs: no witnesses.
            ("0->1 1->2 2->3", &[]),
            ("0->1 1->2 2->1 1->3", &[]),
            ("0->1 1->1 1->2", &[]),
            // Classic two-entry triangle: the DFS reaches 1 then 2; the
            // retreating edge 2->1 has a 1-avoiding path (0->2), so it is
            // the witness.
            ("0->1 0->2 1->2 2->1 1->3 2->3", &[(2, 1)]),
            // Two-header four-cycle: the retreating edge closing the
            // cycle at the second header witnesses.
            ("0->1 0->3 1->2 2->3 3->4 4->1 2->5 4->5", &[(4, 1)]),
            // Two independent irreducible cycles: one witness each.
            (
                "0->1 0->2 1->2 2->1 1->5 0->3 0->4 3->4 4->3 3->5 4->5",
                &[(2, 1), (4, 3)],
            ),
            // A reducible loop nested inside an irreducible one: only the
            // irreducible retreating edge witnesses, not the natural
            // backedge 3->2.
            ("0->1 0->2 1->2 2->3 3->2 3->1 1->4 3->4", &[(3, 1)]),
        ];
        for (desc, expected) in table {
            let cfg = parse_edge_list(desc).unwrap();
            let r = reducibility(cfg.graph(), cfg.entry());
            let mut got: Vec<(usize, usize)> = r
                .irreducible_edges()
                .iter()
                .map(|&e| {
                    let (u, v) = cfg.graph().endpoints(e);
                    (u.index(), v.index())
                })
                .collect();
            got.sort_unstable();
            let mut want = expected.to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "witnesses for {desc}");
        }
    }

    #[test]
    fn witnesses_cross_check_t1_t2_on_dense_family() {
        // Every 4-node graph over a fixed edge pool: the witness-based
        // verdict must match the T1/T2 reducer on all of them.
        let pool = [
            (0usize, 1usize),
            (0, 2),
            (1, 2),
            (2, 1),
            (1, 3),
            (2, 3),
            (3, 1),
        ];
        for mask in 1u32..(1 << pool.len()) {
            let desc: Vec<String> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, (u, v))| format!("{u}->{v}"))
                .collect();
            // Ensure node 0 exists as the entry.
            let desc = format!("0->1 {}", desc.join(" "));
            let Ok(cfg) = parse_edge_list(&desc) else {
                continue;
            };
            let r = reducibility(cfg.graph(), cfg.entry());
            assert_eq!(
                r.is_reducible(),
                t1_t2_is_reducible(cfg.graph(), cfg.entry()),
                "disagreement on {desc}"
            );
        }
    }

    #[test]
    fn parallel_retreating_edges_both_witness() {
        // Parallel copies of the irreducible retreating edge: both ids
        // appear in the witness set.
        let cfg = parse_edge_list("0->1 0->2 1->2 2->1 2->1 1->3 2->3").unwrap();
        let r = reducibility(cfg.graph(), cfg.entry());
        assert_eq!(r.irreducible_edges().len(), 2);
        for &e in r.irreducible_edges() {
            assert_eq!(
                (cfg.graph().source(e).index(), cfg.graph().target(e).index()),
                (2, 1)
            );
        }
    }
}
