//! Region-kind classification (paper §4, Figure 7).
//!
//! The paper runs "a simple pattern-matching pass" over each SESE region to
//! identify it as a basic block, a case construct, a loop, a dag, or a
//! cyclic unstructured region. We classify the *collapsed* graph of each
//! region — interior nodes plus immediately nested regions contracted to
//! single statements — which is also the granularity the paper's
//! region-size and φ-placement arguments use.

use pst_cfg::{is_reducible, Cfg, Graph, NodeId};

use crate::{ProgramStructureTree, RegionId};

/// Structural kind of one SESE region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Straight-line code: a single statement or a chain.
    Block,
    /// Two-way conditional (including one-armed `if-then`).
    IfThenElse,
    /// `k ≥ 3`-way conditional.
    Case,
    /// Cyclic but reducible: a natural loop (possibly with extra structure
    /// that still reduces).
    Loop,
    /// Acyclic but not a chain or simple conditional.
    Dag,
    /// Cyclic and irreducible.
    Unstructured,
}

impl RegionKind {
    /// Whether this kind corresponds to structured source-level control
    /// flow (used for the paper's "completely structured procedures"
    /// count).
    pub fn is_structured(self) -> bool {
        !matches!(self, RegionKind::Dag | RegionKind::Unstructured)
    }
}

impl std::fmt::Display for RegionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RegionKind::Block => "block",
            RegionKind::IfThenElse => "if-then-else",
            RegionKind::Case => "case",
            RegionKind::Loop => "loop",
            RegionKind::Dag => "dag",
            RegionKind::Unstructured => "unstructured",
        };
        f.write_str(s)
    }
}

/// Classification of every region of a PST (indexed by [`RegionId`]).
#[derive(Clone, Debug)]
pub struct RegionClassification {
    kinds: Vec<RegionKind>,
    weights: Vec<usize>,
}

impl RegionClassification {
    /// Kind of `region`.
    pub fn kind(&self, region: RegionId) -> RegionKind {
        self.kinds[region.index()]
    }

    /// The paper's Figure-7 weight of `region`: the number of immediately
    /// nested maximal regions, with blocks counting one.
    pub fn weight(&self, region: RegionId) -> usize {
        self.weights[region.index()]
    }

    /// All kinds, indexed by region.
    pub fn kinds(&self) -> &[RegionKind] {
        &self.kinds
    }

    /// Whether every region of the procedure is structured.
    pub fn is_completely_structured(&self) -> bool {
        self.kinds.iter().all(|k| k.is_structured())
    }

    /// Weighted share of each kind, as `(kind, weight_sum)` pairs in a
    /// fixed order (Figure 7's data).
    pub fn weighted_counts(&self) -> Vec<(RegionKind, usize)> {
        use RegionKind::*;
        [Block, IfThenElse, Case, Loop, Dag, Unstructured]
            .into_iter()
            .map(|kind| {
                let w = self
                    .kinds
                    .iter()
                    .zip(&self.weights)
                    .filter(|(k, _)| **k == kind)
                    .map(|(_, w)| w)
                    .sum();
                (kind, w)
            })
            .collect()
    }
}

/// Classifies every region of `pst`.
///
/// # Examples
///
/// ```
/// use pst_cfg::parse_edge_list;
/// use pst_core::{classify_regions, ProgramStructureTree, RegionKind};
/// let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
/// let pst = ProgramStructureTree::build(&cfg);
/// let classes = classify_regions(&cfg, &pst);
/// let kinds: Vec<RegionKind> = pst.regions().map(|r| classes.kind(r)).collect();
/// assert!(kinds.contains(&RegionKind::Loop));
/// ```
pub fn classify_regions(cfg: &Cfg, pst: &ProgramStructureTree) -> RegionClassification {
    let collapsed = crate::collapse_all(cfg, pst);
    let mut kinds = Vec::with_capacity(pst.region_count());
    let mut weights = Vec::with_capacity(pst.region_count());
    for region in pst.regions() {
        weights.push(pst.children(region).len().max(1));
        let mini = &collapsed[region.index()];
        kinds.push(classify_mini(&mini.graph, mini.head));
    }
    RegionClassification { kinds, weights }
}

/// Pattern-matches the collapsed graph of a region.
///
/// Before matching, maximal chains of sequentially composed statements are
/// contracted to single nodes — the paper groups sequential chains, so a
/// conditional arm consisting of several statements in a row still reads
/// as one arm.
fn classify_mini(mini: &Graph, head: NodeId) -> RegionKind {
    let n = mini.node_count();
    if n == 0 || (n == 1 && mini.edge_count() == 0) {
        return RegionKind::Block;
    }
    if has_cycle(mini) {
        return if is_reducible(mini, head) {
            RegionKind::Loop
        } else {
            RegionKind::Unstructured
        };
    }
    let (g, h) = contract_chains(mini, head);
    // Chain all the way through?
    if g.node_count() == 1 {
        return RegionKind::Block;
    }
    // Conditional pattern: head branches to arms that all rejoin at a
    // single tail; arms are single contracted statements (or empty).
    let tails: Vec<NodeId> = g.nodes().filter(|&v| g.out_degree(v) == 0).collect();
    if tails.len() == 1 && g.in_degree(h) == 0 {
        let t = tails[0];
        let arms = g.out_degree(h);
        let middle_ok = g.nodes().filter(|&v| v != h && v != t).all(|v| {
            g.in_degree(v) == 1
                && g.out_degree(v) == 1
                && g.predecessors(v).next() == Some(h)
                && g.successors(v).next() == Some(t)
        });
        if arms >= 2 && middle_ok {
            return if arms == 2 {
                RegionKind::IfThenElse
            } else {
                RegionKind::Case
            };
        }
    }
    RegionKind::Dag
}

/// Contracts every edge `(u, v)` with `out_degree(u) == 1` and
/// `in_degree(v) == 1` (unless that would collapse a cycle), returning the
/// quotient graph and the image of `head`.
fn contract_chains(g: &Graph, head: NodeId) -> (Graph, NodeId) {
    let n = g.node_count();
    // Union-find over nodes.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut contracted = vec![false; g.edge_count()];
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        if u != v && g.out_degree(u) == 1 && g.in_degree(v) == 1 {
            let (ru, rv) = (find(&mut parent, u.index()), find(&mut parent, v.index()));
            if ru != rv {
                parent[ru] = rv;
                contracted[e.index()] = true;
            }
        }
    }
    // Build the quotient.
    let mut dense: Vec<Option<NodeId>> = vec![None; n];
    let mut q = Graph::new();
    for i in 0..n {
        let r = find(&mut parent, i);
        if dense[r].is_none() {
            dense[r] = Some(q.add_node());
        }
    }
    let image = |parent: &mut [usize], dense: &[Option<NodeId>], x: NodeId| {
        dense[find(parent, x.index())].expect("group has a dense id")
    };
    for e in g.edges() {
        if contracted[e.index()] {
            continue;
        }
        let (u, v) = g.endpoints(e);
        let a = image(&mut parent, &dense, u);
        let b = image(&mut parent, &dense, v);
        q.add_edge(a, b);
    }
    let h = image(&mut parent, &dense, head);
    (q, h)
}

fn has_cycle(g: &Graph) -> bool {
    // Kahn's algorithm: cycle iff not all nodes can be peeled.
    let mut indeg: Vec<usize> = g.nodes().map(|v| g.in_degree(v)).collect();
    let mut stack: Vec<NodeId> = g.nodes().filter(|&v| indeg[v.index()] == 0).collect();
    let mut peeled = 0;
    while let Some(v) = stack.pop() {
        peeled += 1;
        for s in g.successors(v) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                stack.push(s);
            }
        }
    }
    peeled != g.node_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pst_cfg::parse_edge_list;

    fn kinds_of(desc: &str) -> Vec<RegionKind> {
        let cfg = parse_edge_list(desc).unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let c = classify_regions(&cfg, &pst);
        pst.regions().map(|r| c.kind(r)).collect()
    }

    #[test]
    fn straight_line_is_blocks() {
        let kinds = kinds_of("0->1 1->2 2->3");
        assert!(kinds.iter().all(|&k| k == RegionKind::Block), "{kinds:?}");
    }

    #[test]
    fn diamond_contains_conditional() {
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let c = classify_regions(&cfg, &pst);
        assert_eq!(c.kind(pst.root()), RegionKind::IfThenElse);
        assert!(c.is_completely_structured());
        // Weight of the root = its two arm regions.
        assert_eq!(c.weight(pst.root()), 2);
    }

    #[test]
    fn case_construct() {
        let kinds = kinds_of("0->1 0->2 0->3 1->4 2->4 3->4");
        assert!(kinds.contains(&RegionKind::Case), "{kinds:?}");
    }

    #[test]
    fn while_loop_detected() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let c = classify_regions(&cfg, &pst);
        let outer = pst.region_of_node(NodeId::from_index(1));
        assert_eq!(c.kind(outer), RegionKind::Loop);
        assert!(c.is_completely_structured());
    }

    #[test]
    fn irreducible_region_is_unstructured() {
        let cfg = parse_edge_list("0->1 0->2 1->2 2->1 1->3 2->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let c = classify_regions(&cfg, &pst);
        assert!(
            pst.regions().any(|r| c.kind(r) == RegionKind::Unstructured),
            "{:?}",
            c.kinds()
        );
        assert!(!c.is_completely_structured());
    }

    #[test]
    fn dag_region() {
        // Branch whose arms share a node before the join: not a simple
        // conditional.
        let kinds = kinds_of("0->1 0->2 1->2 1->3 2->3 3->4");
        assert!(kinds.contains(&RegionKind::Dag), "{kinds:?}");
    }

    #[test]
    fn weighted_counts_cover_all_regions() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let c = classify_regions(&cfg, &pst);
        let total: usize = c.weighted_counts().iter().map(|(_, w)| w).sum();
        let expect: usize = pst.regions().map(|r| c.weight(r)).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn if_then_one_arm() {
        // Entry block, then `if (c) { arm }`, then exit block: the
        // conditional gets its own region classified as a two-way
        // conditional with one empty arm.
        let cfg = parse_edge_list("0->1 1->2 1->3 2->3 3->4").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let c = classify_regions(&cfg, &pst);
        assert!(pst.regions().any(|r| c.kind(r) == RegionKind::IfThenElse));
        assert!(c.is_completely_structured());
    }

    #[test]
    fn self_loop_region_is_loop() {
        let cfg = parse_edge_list("0->1 1->1 1->2").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let c = classify_regions(&cfg, &pst);
        let r = pst.region_of_node(NodeId::from_index(1));
        assert_eq!(c.kind(r), RegionKind::Loop);
    }
}
