//! Canonical single-entry single-exit regions (paper §2.1, §3.6).
//!
//! A SESE region is an ordered edge pair `(a, b)` with `a dom b`,
//! `b pdom a`, and `a`, `b` cycle equivalent (Definition 3). By Theorem 2
//! this triple condition collapses to cycle equivalence in
//! `S = G + (end→start)`, so canonical regions fall out of the
//! cycle-equivalence classes: the edges of one class are totally ordered by
//! dominance, any directed DFS of `G` meets them in that order, and each
//! adjacent pair bounds a canonical region (Definition 5).

use pst_cfg::{group_rows, Cfg, Dfs, EdgeId};

use crate::cycle_equiv::raw_classes;
use crate::CycleEquiv;

/// One canonical SESE region, identified by its entry and exit edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SeseRegion {
    /// The region's entry edge (`a` of the pair): dominates every node in
    /// the region.
    pub entry: EdgeId,
    /// The region's exit edge (`b` of the pair): postdominates every node
    /// in the region.
    pub exit: EdgeId,
}

/// The result of SESE-region detection on a CFG.
#[derive(Clone, Debug)]
pub struct CanonicalRegions {
    /// Cycle-equivalence classes of the edges of `S = G + (end→start)`.
    /// Edge ids `0..G.edge_count()` are the CFG edges; the virtual backedge
    /// has id `G.edge_count()`.
    pub cycle_equiv: CycleEquiv,
    /// Canonical regions in DFS-discovery order of their entry edges.
    pub regions: Vec<SeseRegion>,
    /// For every cycle-equivalence class, the CFG edges of that class in
    /// dominance order (the virtual backedge is excluded).
    pub ordered_classes: OrderedClasses,
}

/// The CFG edges of every cycle-equivalence class in dominance order,
/// stored flat: class `c` is `edges[start[c]..start[c + 1]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderedClasses {
    start: Vec<u32>,
    edges: Vec<EdgeId>,
}

impl OrderedClasses {
    /// Number of classes (some may hold only the virtual backedge and so
    /// be empty here).
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Whether there are no classes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The CFG edges of class `c` in dominance order.
    pub fn class(&self, c: usize) -> &[EdgeId] {
        &self.edges[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// Every class's edges, in class order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[EdgeId]> + '_ {
        (0..self.len()).map(|c| self.class(c))
    }
}

/// Finds all canonical SESE regions of `cfg` in `O(E)` time.
///
/// # Examples
///
/// A while loop produces two nested canonical regions — the loop body and
/// the region around the whole loop:
///
/// ```
/// use pst_cfg::parse_edge_list;
/// use pst_core::canonical_regions;
/// let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
/// let found = canonical_regions(&cfg);
/// assert_eq!(found.regions.len(), 2);
/// ```
pub fn canonical_regions(cfg: &Cfg) -> CanonicalRegions {
    detect(cfg).0
}

/// [`canonical_regions`] plus the directed DFS of `G` it ran, which the
/// PST construction threads nodes and edges along.
pub(crate) fn detect(cfg: &Cfg) -> (CanonicalRegions, Dfs) {
    let _span = pst_obs::Span::enter("sese");
    let g = cfg.graph();
    let m = g.edge_count();
    let (entry, exit) = (cfg.entry().index(), cfg.exit().index());
    // S = G + (exit → entry) by its endpoint function, with the virtual
    // edge as id `m`. S of a valid CFG is strongly connected (Theorem 2),
    // so the connectivity precondition holds by construction.
    let raw = raw_classes(g.node_count(), m + 1, entry, |e| {
        if e < m {
            let (u, v) = g.endpoints(EdgeId::from_index(e));
            (u.index(), v.index())
        } else {
            (exit, entry)
        }
    })
    .expect("S of a valid CFG is connected");
    let cycle_equiv = CycleEquiv::from_classes(raw);

    // Directed DFS of G meets the edges of each class in dominance order.
    let dfs = Dfs::new(cfg.graph(), cfg.entry());
    let order = dfs.edges_in_examination_order();
    let class_of = |e: EdgeId| cycle_equiv.class(e) as usize;
    let (start, edges) = group_rows(cycle_equiv.num_classes(), EdgeId::from_index(0), || {
        order.iter().map(|&e| (class_of(e), e))
    });
    let mut pos_in_class: Vec<u32> = vec![0; cfg.edge_count()];
    for (i, &e) in edges.iter().enumerate() {
        pos_in_class[e.index()] = i as u32;
    }
    let ordered_classes = OrderedClasses { start, edges };

    // Regions are emitted at their entry edge so the output order is the
    // DFS-discovery order of region entries.
    let mut regions = Vec::new();
    for &e in order {
        let next = pos_in_class[e.index()] as usize + 1;
        if next < ordered_classes.start[class_of(e) + 1] as usize {
            regions.push(SeseRegion {
                entry: e,
                exit: ordered_classes.edges[next],
            });
        }
    }
    let found = CanonicalRegions {
        cycle_equiv,
        regions,
        ordered_classes,
    };
    (found, dfs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pst_cfg::{parse_edge_list, EdgeSplit, Graph, NodeId};
    use pst_dominators::{dominator_tree, dominator_tree_in, Direction, DomTree};

    /// Definitional check of the three SESE conditions via the edge-split
    /// dominator oracle, plus canonicity.
    fn assert_valid_sese(desc: &str) {
        let cfg = parse_edge_list(desc).unwrap();
        let found = canonical_regions(&cfg);
        let split = EdgeSplit::of_cfg(&cfg);
        let dom = dominator_tree(split.graph(), cfg.entry());
        let pdom = dominator_tree_in(split.graph(), cfg.exit(), Direction::Backward);
        let edge_dom = |a: EdgeId, b: EdgeId| dom.dominates(split.midpoint(a), split.midpoint(b));
        let edge_pdom = |a: EdgeId, b: EdgeId| pdom.dominates(split.midpoint(a), split.midpoint(b));

        for r in &found.regions {
            assert!(
                edge_dom(r.entry, r.exit),
                "{desc}: entry must dominate exit"
            );
            assert!(
                edge_pdom(r.exit, r.entry),
                "{desc}: exit must postdominate entry"
            );
            assert!(
                found.cycle_equiv.same_class(r.entry, r.exit),
                "{desc}: boundary edges must be cycle equivalent"
            );
        }
        // Canonicity: within a class ordered by dominance, regions pair
        // adjacent edges only.
        for class in found.ordered_classes.iter() {
            for w in class.windows(2) {
                assert!(
                    edge_dom(w[0], w[1]),
                    "{desc}: class must be dominance-ordered"
                );
                assert!(edge_pdom(w[1], w[0]), "{desc}: class must be pdom-ordered");
            }
        }
        // Completeness: every adjacent pair is reported exactly once.
        let expected: usize = found
            .ordered_classes
            .iter()
            .map(|c| c.len().saturating_sub(1))
            .sum();
        assert_eq!(found.regions.len(), expected, "{desc}");
    }

    #[test]
    fn straight_line_regions() {
        let cfg = parse_edge_list("0->1 1->2 2->3").unwrap();
        let found = canonical_regions(&cfg);
        // Edges 01,12,23 are one class: two canonical regions (01,12), (12,23).
        assert_eq!(found.regions.len(), 2);
        assert_valid_sese("0->1 1->2 2->3");
    }

    #[test]
    fn diamond_regions() {
        assert_valid_sese("0->1 0->2 1->3 2->3");
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
        let found = canonical_regions(&cfg);
        // Each arm is a canonical region.
        assert_eq!(found.regions.len(), 2);
    }

    #[test]
    fn loops_and_nests() {
        assert_valid_sese("0->1 1->2 2->1 1->3");
        assert_valid_sese("0->1 1->2 2->1 2->3");
        assert_valid_sese("0->1 1->2 2->3 3->2 3->1 1->4");
    }

    #[test]
    fn irreducible_graphs_still_work() {
        assert_valid_sese("0->1 0->2 1->2 2->1 1->3 2->3");
        assert_valid_sese("0->1 0->3 1->2 2->3 3->4 4->1 2->5 4->5");
    }

    #[test]
    fn unstructured_overlapping_loops() {
        assert_valid_sese("0->1 1->2 2->3 3->4 4->5 3->1 5->2 5->6");
    }

    #[test]
    fn self_loops_and_parallel_edges() {
        assert_valid_sese("0->1 1->1 1->2");
        assert_valid_sese("0->1 0->1 1->2");
    }

    #[test]
    fn figure1_like_graph() {
        assert_valid_sese(
            "0->1 1->2 2->3 2->4 3->5 4->5 5->6 6->7 7->6 6->8 8->9 8->10 9->11 10->11 11->8 8->12 12->13",
        );
    }

    #[test]
    fn region_entries_in_dfs_order() {
        let cfg = parse_edge_list("0->1 1->2 2->3").unwrap();
        let found = canonical_regions(&cfg);
        // Entry edges appear in discovery order.
        let entries: Vec<usize> = found.regions.iter().map(|r| r.entry.index()).collect();
        let mut sorted = entries.clone();
        sorted.sort_unstable();
        assert_eq!(entries, sorted);
    }

    /// Exhaustive membership oracle on a non-trivial graph: for every
    /// reported region, the membership predicate (entry dom n && exit pdom
    /// n) must hold for at least the nodes strictly "between" the edges.
    #[test]
    fn membership_oracle_consistency() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let found = canonical_regions(&cfg);
        let split = EdgeSplit::of_cfg(&cfg);
        let dom = dominator_tree(split.graph(), cfg.entry());
        let pdom = dominator_tree_in(split.graph(), cfg.exit(), Direction::Backward);
        let contains = |r: &SeseRegion, n: NodeId, dom: &DomTree, pdom: &DomTree| {
            dom.dominates(split.midpoint(r.entry), n) && pdom.dominates(split.midpoint(r.exit), n)
        };
        // The loop region (1->2, 2->1) contains node 2.
        let g: &Graph = cfg.graph();
        let loop_region = found
            .regions
            .iter()
            .find(|r| g.target(r.entry).index() == 2)
            .expect("loop body region");
        assert!(contains(loop_region, NodeId::from_index(2), &dom, &pdom));
        assert!(!contains(loop_region, NodeId::from_index(3), &dom, &pdom));
    }
}
