//! Naive maximal-path oracles for the strong control-dependence
//! checkers.
//!
//! `pst-controldep` computes NTSCD by backward counter propagation;
//! this module re-derives the same facts from first principles so the
//! two cannot share a bug. The key reformulation: a maximal path from
//! `x` that *avoids* `w` exists iff, in the graph with `w` deleted,
//! `x` can reach an original sink (the path ends there) or any node on
//! a cycle (the path pumps the cycle forever). So inevitability is
//! answered with one SCC pass and one backward reachability sweep —
//! a completely different algorithm from the checked one.

use pst_cfg::{Graph, NodeId, Sccs};

/// `result[x]` = every maximal path from `x` contains `w`.
///
/// Derivation: `x != w` can *avoid* `w` iff in `G ∖ {w}` it reaches a
/// node that is a sink of the original `G`, or a node lying on a cycle
/// of `G ∖ {w}` (a node whose only successors were `w` is a sink of
/// the deleted graph but not of `G` — its every real continuation goes
/// through `w`, so it is not an escape).
pub(crate) fn oracle_inevitable(graph: &Graph, w: NodeId) -> Vec<bool> {
    let n = graph.node_count();
    // G' = G with every edge incident to w removed.
    let mut pruned = Graph::new();
    let nodes = pruned.add_nodes(n);
    for e in graph.edges() {
        let (u, v) = graph.endpoints(e);
        if u != w && v != w {
            pruned.add_edge(nodes[u.index()], nodes[v.index()]);
        }
    }
    let sccs = Sccs::new(&pruned);
    let mut comp_size = vec![0usize; sccs.count()];
    for x in pruned.nodes() {
        comp_size[sccs.component(x)] += 1;
    }
    let mut escape = vec![false; n];
    for x in graph.nodes() {
        if x == w {
            continue;
        }
        // Sinks of the *original* graph end a maximal path right there.
        if graph.out_degree(x) == 0 {
            escape[x.index()] = true;
        }
        // Nodes on a cycle of G' start an infinite w-free path.
        if comp_size[sccs.component(x)] >= 2 || pruned.successors(x).any(|s| s == x) {
            escape[x.index()] = true;
        }
    }
    // Backward reachability to an escape within G'.
    let mut stack: Vec<NodeId> = graph.nodes().filter(|&x| escape[x.index()]).collect();
    while let Some(x) = stack.pop() {
        for p in pruned.predecessors(x) {
            if !escape[p.index()] && p != w {
                escape[p.index()] = true;
                stack.push(p);
            }
        }
    }
    (0..n)
        .map(|i| NodeId::from_index(i) == w || !escape[i])
        .collect()
}

/// Distinct successors of every node, for the branch scan. Local copy —
/// the oracle must not lean on `pst-controldep`'s helpers.
pub(crate) fn distinct_successors(graph: &Graph, p: NodeId) -> Vec<NodeId> {
    let mut succs: Vec<NodeId> = graph.successors(p).collect();
    succs.sort_unstable();
    succs.dedup();
    succs
}

/// The full NTSCD relation by the naive oracle: `deps[n]` = sorted
/// branches `n` depends on.
pub(crate) fn oracle_ntscd(graph: &Graph) -> Vec<Vec<NodeId>> {
    let n = graph.node_count();
    let branches: Vec<(NodeId, Vec<NodeId>)> = graph
        .nodes()
        .map(|p| (p, distinct_successors(graph, p)))
        .filter(|(_, s)| s.len() >= 2)
        .collect();
    let mut deps: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for w in graph.nodes() {
        let inevitable = oracle_inevitable(graph, w);
        for (p, succs) in &branches {
            let any_in = succs.iter().any(|s| inevitable[s.index()]);
            let any_out = succs.iter().any(|s| !inevitable[s.index()]);
            if any_in && any_out {
                deps[w.index()].push(*p);
            }
        }
    }
    deps
}

/// `result[x]` = every maximal path from `x` reaches `a` strictly
/// before any visit to `b` — inevitability of `a` once `b`'s out-edges
/// are cut (every maximal path of that graph is an original maximal
/// path truncated at its first visit to `b`).
pub(crate) fn oracle_ordered(graph: &Graph, a: NodeId, b: NodeId) -> Vec<bool> {
    let n = graph.node_count();
    let mut cut = Graph::new();
    let nodes = cut.add_nodes(n);
    for e in graph.edges() {
        let (u, v) = graph.endpoints(e);
        if u != b {
            cut.add_edge(nodes[u.index()], nodes[v.index()]);
        }
    }
    oracle_inevitable(&cut, a)
}

/// All DOD witnesses `(p, a, b)` with `a < b` by exhaustive
/// enumeration over branches × same-inevitability pairs. Quadratic in
/// nodes with an `O(N + E)` oracle call per pair — the checker budgets
/// how large a graph this is allowed to run on.
pub(crate) fn oracle_dod(graph: &Graph) -> Vec<(NodeId, NodeId, NodeId)> {
    let n = graph.node_count();
    let branches: Vec<(NodeId, Vec<NodeId>)> = graph
        .nodes()
        .map(|p| (p, distinct_successors(graph, p)))
        .filter(|(_, s)| s.len() >= 2)
        .collect();
    if branches.is_empty() {
        return Vec::new();
    }
    let inevitable: Vec<Vec<bool>> = graph.nodes().map(|w| oracle_inevitable(graph, w)).collect();
    let mut witnesses = Vec::new();
    for ai in 0..n {
        for bi in (ai + 1)..n {
            let (a, b) = (NodeId::from_index(ai), NodeId::from_index(bi));
            // Some branch must find both inevitable for the pair to
            // matter at all.
            if !branches
                .iter()
                .any(|(p, _)| inevitable[ai][p.index()] && inevitable[bi][p.index()])
            {
                continue;
            }
            let a_first = oracle_ordered(graph, a, b);
            let b_first = oracle_ordered(graph, b, a);
            for (p, succs) in &branches {
                if inevitable[ai][p.index()]
                    && inevitable[bi][p.index()]
                    && succs.iter().any(|s| a_first[s.index()])
                    && succs.iter().any(|s| b_first[s.index()])
                {
                    witnesses.push((*p, a, b));
                }
            }
        }
    }
    witnesses.sort_unstable();
    witnesses
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
    fn oracle_inevitability_on_a_while_loop() {
        let (g, n) = graph(4, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        assert_eq!(oracle_inevitable(&g, n[1]), vec![true, true, true, false]);
        // The loop may spin: the exit is not inevitable from anywhere
        // but itself.
        assert_eq!(oracle_inevitable(&g, n[3]), vec![false, false, false, true]);
    }

    #[test]
    fn oracle_ntscd_on_a_while_loop() {
        let (g, n) = graph(4, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        let deps = oracle_ntscd(&g);
        assert_eq!(deps[0], vec![]);
        assert_eq!(deps[1], vec![n[1]]);
        assert_eq!(deps[2], vec![n[1]]);
        assert_eq!(deps[3], vec![n[1]]);
    }

    #[test]
    fn oracle_dod_finds_the_canonical_witness() {
        let (g, n) = graph(3, &[(0, 1), (0, 2), (1, 2), (2, 1)]);
        assert_eq!(oracle_dod(&g), vec![(n[0], n[1], n[2])]);
    }

    #[test]
    fn oracle_dod_is_empty_on_an_escapable_loop() {
        let (g, _) = graph(4, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        assert_eq!(oracle_dod(&g), vec![]);
    }
}
