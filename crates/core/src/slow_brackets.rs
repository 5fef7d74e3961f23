//! The paper's §3.3 "slow" cycle-equivalence algorithm: explicit bracket
//! sets.
//!
//! During an undirected depth-first traversal, the bracket set of the tree
//! edge into a node is (children's sets ∪ backedges up from the node) minus
//! backedges ending at the node. Tree edges are cycle equivalent iff their
//! bracket sets are equal (Theorem 5); a backedge is equivalent to a tree
//! edge iff it is that edge's only bracket (Theorem 4); two backedges are
//! never equivalent. Building and hashing whole sets costs O(E²) in the
//! worst case — this implementation exists as an independently-derived
//! oracle and as the baseline for the ablation benchmark that motivates
//! the compact `<top, size>` names of §3.4.

use std::collections::HashMap;

use pst_cfg::{Graph, NodeId, UndirectedDfs, UndirectedEdgeKind};

use crate::{CycleEquiv, CycleEquivError};

/// Computes cycle-equivalence classes with explicit bracket sets.
///
/// Semantics are identical to [`CycleEquiv::compute`] (undirected cycle
/// equivalence of a connected multigraph); the two implementations
/// cross-validate each other in the property tests.
///
/// # Errors
///
/// Returns a [`CycleEquivError`] when the graph is empty, the root is not
/// a node, or the graph is not undirected-connected — the same contract as
/// [`CycleEquiv::compute`].
pub fn cycle_equiv_slow_brackets(
    graph: &Graph,
    root: NodeId,
) -> Result<CycleEquiv, CycleEquivError> {
    if graph.is_empty() {
        return Err(CycleEquivError::EmptyGraph);
    }
    if root.index() >= graph.node_count() {
        return Err(CycleEquivError::UnknownRoot(root));
    }
    let dfs = UndirectedDfs::new(graph, root);
    if let Some(unreached) = dfs.first_unreached() {
        return Err(CycleEquivError::Disconnected { root, unreached });
    }
    let n = graph.node_count();
    let m = graph.edge_count();

    // Bracket set (sorted vec of backedge ids) per node's subtree, i.e. for
    // the tree edge from parent(n) to n.
    let mut sets: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut raw = vec![u32::MAX; m];
    let mut next = 0u32;
    let mut new_class = || {
        let c = next;
        next += 1;
        c
    };

    // Class per bracket-set, and the sole-bracket edge of singleton sets so
    // backedges can join (Theorem 4).
    let mut class_of_set: HashMap<Vec<usize>, u32> = HashMap::new();
    let mut backedge_class: Vec<Option<u32>> = vec![None; m];

    for &node in dfs.nodes_by_dfsnum().iter().rev() {
        let mut set: Vec<usize> = Vec::new();
        for &c in dfs.children(node) {
            set.append(&mut sets[c.index()]);
        }
        for &e in dfs.backedges_up(node) {
            set.push(e.index());
        }
        set.sort_unstable();
        // Remove backedges that end at this node.
        let ends_here: Vec<usize> = dfs.backedges_down(node).iter().map(|e| e.index()).collect();
        set.retain(|e| !ends_here.contains(e));

        if let Some(tree_edge) = dfs.parent_edge(node) {
            let class = *class_of_set
                .entry(set.clone())
                .or_insert_with(&mut new_class);
            raw[tree_edge.index()] = class;
            if set.len() == 1 {
                backedge_class[set[0]] = Some(class);
            }
        }
        sets[node.index()] = set;
    }

    for e in graph.edges() {
        match dfs.edge_kind(e) {
            UndirectedEdgeKind::Back => {
                raw[e.index()] = match backedge_class[e.index()] {
                    Some(c) => c,
                    None => new_class(),
                };
            }
            UndirectedEdgeKind::SelfLoop => raw[e.index()] = new_class(),
            UndirectedEdgeKind::Tree => debug_assert_ne!(raw[e.index()], u32::MAX),
            UndirectedEdgeKind::Unreached => unreachable!("graph is connected"),
        }
    }
    Ok(CycleEquiv::from_classes(raw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cycle_equiv_slow_undirected, CycleEquiv};
    use pst_cfg::parse_edge_list;

    fn check(desc: &str) {
        let cfg = parse_edge_list(desc).unwrap();
        let (s, _) = cfg.to_strongly_connected();
        let brackets = cycle_equiv_slow_brackets(&s, cfg.entry()).unwrap();
        let fast = CycleEquiv::compute(&s, cfg.entry()).unwrap();
        let oracle = cycle_equiv_slow_undirected(&s, None).unwrap();
        assert_eq!(brackets, fast, "{desc}");
        assert_eq!(brackets, oracle, "{desc}");
    }

    #[test]
    fn agrees_on_structured_graphs() {
        check("0->1 1->2 2->3");
        check("0->1 0->2 1->3 2->3");
        check("0->1 1->2 2->1 1->3");
        check("0->1 1->2 2->3 3->2 3->1 1->4");
    }

    #[test]
    fn agrees_on_unstructured_graphs() {
        check("0->1 0->2 1->2 2->1 1->3 2->3");
        check("0->1 1->2 2->3 3->4 4->5 3->1 5->2 5->6");
        check("0->1 1->2 1->3 2->4 3->4 2->2 3->5 4->5 2->5");
    }

    #[test]
    fn agrees_with_self_loops_and_parallels() {
        check("0->1 1->1 1->2 2->2 2->3");
        check("0->1 0->1 1->2");
    }

    #[test]
    fn tree_only_graph_bridges() {
        let mut g = pst_cfg::Graph::new();
        let n = g.add_nodes(4);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[2]);
        g.add_edge(n[1], n[3]);
        let slow = cycle_equiv_slow_brackets(&g, n[0]).unwrap();
        assert_eq!(slow.num_classes(), 1);
    }

    #[test]
    fn disconnected_graph_errors() {
        let mut g = pst_cfg::Graph::new();
        let n = g.add_nodes(3);
        g.add_edge(n[0], n[1]);
        let err = cycle_equiv_slow_brackets(&g, n[0]).unwrap_err();
        assert_eq!(
            err,
            CycleEquivError::Disconnected {
                root: n[0],
                unreached: n[2],
            }
        );
    }
}
