//! The Program Structure Tree (paper §2.2, §3.6).
//!
//! Canonical SESE regions never partially overlap (Theorem 1), so they nest
//! into a tree. [`ProgramStructureTree::build`] constructs the tree in
//! `O(E)`: cycle-equivalence classes give the canonical regions, and a
//! single walk over the DFS spanning tree of the CFG threads each node and
//! edge into its innermost region. A synthetic *root region* represents the
//! whole procedure, so every node/edge has an owning region even outside
//! any canonical SESE pair.

use pst_cfg::{group_rows, Cfg, Dfs, DirectedEdgeKind, EdgeId, NodeId};

use crate::sese::{detect, CanonicalRegions, SeseRegion};

/// Identifier of a region in a [`ProgramStructureTree`].
///
/// Region 0 is always the synthetic root; canonical regions follow in
/// DFS-discovery order of their entry edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(u32);

impl RegionId {
    /// Creates a region id from a dense index.
    pub fn from_index(index: usize) -> Self {
        RegionId(u32::try_from(index).expect("region index overflows u32"))
    }

    /// Dense index of this region.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct RegionData {
    bounds: Option<SeseRegion>,
    parent: Option<RegionId>,
    depth: u32,
    pre: u32,
    post: u32,
}

/// Every region's children, stored flat: region `r`'s are
/// `list[start[r]..start[r + 1]]`, in region-id order.
#[derive(Clone, Debug)]
struct Children {
    start: Vec<u32>,
    list: Vec<RegionId>,
}

impl Children {
    /// Groups every non-root region under its parent.
    fn of(regions: &[RegionData]) -> Self {
        let (start, list) = group_rows(regions.len(), RegionId(0), || {
            regions.iter().enumerate().skip(1).map(|(i, r)| {
                let parent = r.parent.expect("non-root region has a parent");
                (parent.index(), RegionId::from_index(i))
            })
        });
        Children { start, list }
    }

    fn of_region(&self, r: RegionId) -> &[RegionId] {
        &self.list[self.start[r.index()] as usize..self.start[r.index() + 1] as usize]
    }
}

/// The program structure tree of a control flow graph.
///
/// # Examples
///
/// ```
/// use pst_cfg::parse_edge_list;
/// use pst_core::ProgramStructureTree;
/// // while loop: the loop-body region nests inside the loop region.
/// let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
/// let pst = ProgramStructureTree::build(&cfg);
/// assert_eq!(pst.canonical_region_count(), 2);
/// let body = pst.region_of_node(pst_cfg::NodeId::from_index(2));
/// let outer = pst.parent(body).unwrap();
/// assert_eq!(pst.parent(outer), Some(pst.root()));
/// assert_eq!(pst.depth(body), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ProgramStructureTree {
    regions: Vec<RegionData>,
    children: Children,
    node_region: Vec<RegionId>,
    edge_region: Vec<RegionId>,
    detection: Option<CanonicalRegions>,
}

impl ProgramStructureTree {
    /// Builds the PST of `cfg` in linear time.
    ///
    /// # Panics
    ///
    /// Panics if internal stack discipline is violated — that would
    /// indicate a bug in the cycle-equivalence layer, not bad user input
    /// (any valid [`Cfg`] is acceptable, including irreducible ones).
    pub fn build(cfg: &Cfg) -> Self {
        let _span = pst_obs::Span::enter("pst");
        let (detection, dfs) = detect(cfg);
        Self::from_detection(cfg, detection, &dfs)
    }

    /// Threads `cfg`'s nodes and edges into the regions of `detection`
    /// along `dfs`, the directed DFS detection ran.
    fn from_detection(cfg: &Cfg, detection: CanonicalRegions, dfs: &Dfs) -> Self {
        let graph = cfg.graph();
        let m = graph.edge_count();

        // Region ids: 0 = root, then canonical regions in detection order.
        let mut regions: Vec<RegionData> = Vec::with_capacity(detection.regions.len() + 1);
        regions.push(RegionData {
            bounds: None,
            parent: None,
            depth: 0,
            pre: 0,
            post: 0,
        });
        let mut entry_of: Vec<Option<RegionId>> = vec![None; m];
        let mut exit_of: Vec<Option<RegionId>> = vec![None; m];
        for (i, &r) in detection.regions.iter().enumerate() {
            let id = RegionId::from_index(i + 1);
            regions.push(RegionData {
                bounds: Some(r),
                parent: None,
                depth: 0,
                pre: 0,
                post: 0,
            });
            entry_of[r.entry.index()] = Some(id);
            exit_of[r.exit.index()] = Some(id);
        }

        // Thread nodes and edges into their innermost regions along the DFS
        // spanning tree. The "current region" is a property of the node at
        // the tail of each edge (per-path state), not of global traversal
        // time: crossing an edge first closes the region it exits, then
        // opens the region it enters.
        let root = RegionId::from_index(0);
        let mut node_region: Vec<RegionId> = vec![root; graph.node_count()];
        let mut edge_region: Vec<RegionId> = vec![root; m];

        let region_after_crossing =
            |e: EdgeId, at_source: RegionId, regions: &[RegionData]| -> RegionId {
                let mut state = at_source;
                if let Some(r) = exit_of[e.index()] {
                    debug_assert_eq!(state, r, "exit edge {e:?} crossed while not in its region");
                    state = regions[r.index()].parent.unwrap_or(root);
                }
                if let Some(r) = entry_of[e.index()] {
                    state = r;
                }
                state
            };

        // First pass: tree edges in preorder assign node regions and region
        // parents (a region's entry edge is examined exactly once).
        for &v in dfs.preorder_nodes() {
            let Some(e) = dfs.parent_edge(v) else {
                node_region[v.index()] = root; // the entry node
                continue;
            };
            let u = graph.source(e);
            let mut state = node_region[u.index()];
            if let Some(r) = exit_of[e.index()] {
                debug_assert_eq!(state, r, "exit edge crossed while not in its region");
                state = regions[r.index()].parent.unwrap_or(root);
            }
            if let Some(r) = entry_of[e.index()] {
                regions[r.index()].parent = Some(state);
                state = r;
            }
            node_region[v.index()] = state;
            edge_region[e.index()] = state;
        }
        // Second pass: non-tree edges (their regions' parents are all set).
        for e in graph.edges() {
            if dfs.edge_kind(e) != Some(DirectedEdgeKind::Tree) {
                let u = graph.source(e);
                edge_region[e.index()] = region_after_crossing(e, node_region[u.index()], &regions);
            }
        }

        // Every canonical region's entry edge dominates the region's first
        // interior node and therefore lies on the DFS tree path to it — so
        // the first pass has set every parent link.
        for (i, r) in regions.iter().enumerate().skip(1) {
            assert!(
                r.parent.is_some(),
                "region {i} has a non-tree entry edge; SESE invariant violated"
            );
        }

        // Children, depths, and pre/post intervals.
        let children = Children::of(&regions);
        assign_depths_and_intervals(&mut regions, &children);

        // Telemetry: the shape of every build feeds two fleet-mergeable
        // histograms — nesting depth per canonical region, and innermost
        // size (nodes whose tightest enclosing region is this one).
        if pst_obs::enabled() {
            let mut innermost_size = vec![0u64; regions.len()];
            for r in &node_region {
                innermost_size[r.index()] += 1;
            }
            for (i, r) in regions.iter().enumerate().skip(1) {
                pst_obs::histogram!("pst_region_depth", r.depth as u64);
                pst_obs::histogram!("pst_region_size", innermost_size[i]);
            }
        }

        ProgramStructureTree {
            regions,
            children,
            node_region,
            edge_region,
            detection: Some(detection),
        }
    }

    /// The synthetic root region representing the whole procedure.
    pub fn root(&self) -> RegionId {
        RegionId::from_index(0)
    }

    /// Total number of regions, including the root.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Number of canonical SESE regions (excludes the synthetic root).
    pub fn canonical_region_count(&self) -> usize {
        self.regions.len() - 1
    }

    /// Iterates over all region ids (root first).
    pub fn regions(&self) -> impl ExactSizeIterator<Item = RegionId> {
        (0..self.regions.len()).map(RegionId::from_index)
    }

    /// The `(entry, exit)` edge pair of a canonical region, `None` for the
    /// root.
    pub fn bounds(&self, region: RegionId) -> Option<SeseRegion> {
        self.regions[region.index()].bounds
    }

    /// Entry edge of a canonical region (`None` for the root).
    pub fn entry_edge(&self, region: RegionId) -> Option<EdgeId> {
        self.bounds(region).map(|b| b.entry)
    }

    /// Exit edge of a canonical region (`None` for the root).
    pub fn exit_edge(&self, region: RegionId) -> Option<EdgeId> {
        self.bounds(region).map(|b| b.exit)
    }

    /// Parent region (`None` for the root).
    pub fn parent(&self, region: RegionId) -> Option<RegionId> {
        self.regions[region.index()].parent
    }

    /// Immediately nested regions, in entry-edge discovery order.
    pub fn children(&self, region: RegionId) -> &[RegionId] {
        self.children.of_region(region)
    }

    /// Nesting depth (root = 0, its children = 1, …).
    pub fn depth(&self, region: RegionId) -> usize {
        self.regions[region.index()].depth as usize
    }

    /// Innermost region containing `node`.
    ///
    /// A region's boundary nodes follow Definition 6: the target of the
    /// entry edge is *inside*, the target of the exit edge is *outside*.
    pub fn region_of_node(&self, node: NodeId) -> RegionId {
        self.node_region[node.index()]
    }

    /// Innermost region associated with `edge`. A region's entry edge is
    /// associated with the region itself; its exit edge with the parent.
    pub fn region_of_edge(&self, edge: EdgeId) -> RegionId {
        self.edge_region[edge.index()]
    }

    /// Whether region `outer` contains region `inner` (reflexively). O(1).
    pub fn region_contains(&self, outer: RegionId, inner: RegionId) -> bool {
        let o = &self.regions[outer.index()];
        let i = &self.regions[inner.index()];
        o.pre <= i.pre && i.post <= o.post
    }

    /// Whether `node` lies inside `region` (at any nesting depth). O(1).
    pub fn contains_node(&self, region: RegionId, node: NodeId) -> bool {
        self.region_contains(region, self.region_of_node(node))
    }

    /// Nodes whose *innermost* region is `region` (O(N) scan).
    pub fn interior_nodes(&self, region: RegionId) -> Vec<NodeId> {
        (0..self.node_region.len())
            .filter(|&i| self.node_region[i] == region)
            .map(NodeId::from_index)
            .collect()
    }

    /// The child of `region` that contains `node`, if `node` is in a
    /// proper sub-region; `None` if `node` is interior to `region` itself
    /// (or outside it entirely).
    pub fn child_containing(&self, region: RegionId, node: NodeId) -> Option<RegionId> {
        let mut r = self.region_of_node(node);
        if !self.region_contains(region, r) || r == region {
            return None;
        }
        while self.parent(r) != Some(region) {
            r = self.parent(r)?;
        }
        Some(r)
    }

    /// Number of CFG nodes the tree was built over.
    pub fn node_count(&self) -> usize {
        self.node_region.len()
    }

    /// The region-detection artifacts (cycle-equivalence classes and
    /// ordered class lists) the tree was built from. `None` for trees
    /// produced by incremental splicing
    /// ([`insert_edge`](crate::insert_edge)), which never runs the global
    /// cycle-equivalence pass.
    pub fn detection(&self) -> Option<&CanonicalRegions> {
        self.detection.as_ref()
    }

    /// A canonical, id-independent representation of the tree: regions
    /// keyed by their boundary edges, with parent bounds and per-node /
    /// per-edge innermost bounds. Two PSTs of the same CFG are structurally
    /// equal iff their signatures are equal — used to verify incremental
    /// maintenance against from-scratch rebuilds.
    pub fn signature(&self) -> PstSignature {
        let key = |r: RegionId| self.bounds(r).map(|b| (b.entry, b.exit));
        let mut regions: Vec<_> = self
            .regions()
            .map(|r| (key(r), self.parent(r).and_then(key)))
            .collect();
        regions.sort();
        PstSignature {
            regions,
            node_region: self.node_region.iter().map(|&r| key(r)).collect(),
            edge_region: self.edge_region.iter().map(|&r| key(r)).collect(),
        }
    }

    /// Detaches `region` from its parent and re-attaches it under
    /// `new_parent`, recomputing depths and containment intervals so the
    /// mutated tree is *internally* coherent — only a semantic check
    /// against the CFG (dominance / region membership) can tell it apart
    /// from a correct tree. Returns `false` (leaving the tree untouched)
    /// when the move is inapplicable: `region` is the root, the move is a
    /// no-op, or `new_parent` lies inside `region` (which would create a
    /// cycle).
    ///
    /// Deliberately corrupts the tree; only for testing that verification
    /// catches structural faults.
    #[cfg(feature = "fault-inject")]
    pub fn fault_reparent(&mut self, region: RegionId, new_parent: RegionId) -> bool {
        let Some(old_parent) = self.parent(region) else {
            return false; // the root cannot be reparented
        };
        if region == new_parent
            || old_parent == new_parent
            || self.region_contains(region, new_parent)
        {
            return false;
        }
        self.regions[region.index()].parent = Some(new_parent);
        self.children = Children::of(&self.regions);
        assign_depths_and_intervals(&mut self.regions, &self.children);
        true
    }

    /// Pretty-prints the nesting structure, one region per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut stack = vec![self.root()];
        while let Some(r) = stack.pop() {
            let indent = "  ".repeat(self.depth(r));
            match self.bounds(r) {
                Some(b) => {
                    out.push_str(&format!("{indent}{r}: entry {} exit {}\n", b.entry, b.exit))
                }
                None => out.push_str(&format!("{indent}{r}: <procedure>\n")),
            }
            for &c in self.children(r).iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

/// Recomputes `depth`, `pre`, and `post` for a region forest whose
/// `parent` links and `children` are already consistent and rooted at
/// region 0.
fn assign_depths_and_intervals(regions: &mut [RegionData], children: &Children) {
    let root = RegionId::from_index(0);
    let mut clock = 0u32;
    let mut stack: Vec<(RegionId, usize)> = vec![(root, 0)];
    regions[root.index()].pre = clock;
    regions[root.index()].depth = 0;
    clock += 1;
    while let Some(&mut (r, ref mut next)) = stack.last_mut() {
        if let Some(&c) = children.of_region(r).get(*next) {
            *next += 1;
            regions[c.index()].pre = clock;
            clock += 1;
            regions[c.index()].depth = regions[r.index()].depth + 1;
            stack.push((c, 0));
        } else {
            regions[r.index()].post = clock;
            clock += 1;
            stack.pop();
        }
    }
}

/// A region's identity inside a [`PstSignature`]: its (entry, exit) edge
/// pair, or `None` for the root pseudo-region.
type SignatureBounds = Option<(EdgeId, EdgeId)>;

/// Id-independent structural identity of a PST (see
/// [`ProgramStructureTree::signature`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PstSignature {
    regions: Vec<(SignatureBounds, SignatureBounds)>,
    node_region: Vec<SignatureBounds>,
    edge_region: Vec<SignatureBounds>,
}

/// Assembles a tree from explicit parts — the splice step of incremental
/// maintenance. `records[i] = (bounds, parent-index)`; record 0 must be
/// the root (no bounds, no parent). Depths and pre/post intervals are
/// recomputed; `detection` is absent.
pub(crate) fn rebuild_from_parts(
    records: Vec<(Option<SeseRegion>, Option<usize>)>,
    node_region: Vec<usize>,
    edge_region: Vec<usize>,
) -> ProgramStructureTree {
    assert!(
        records[0].0.is_none() && records[0].1.is_none(),
        "record 0 is the root"
    );
    let mut regions: Vec<RegionData> = records
        .iter()
        .map(|&(bounds, parent)| RegionData {
            bounds,
            parent: parent.map(RegionId::from_index),
            depth: 0,
            pre: 0,
            post: 0,
        })
        .collect();
    let children = Children::of(&regions);
    assign_depths_and_intervals(&mut regions, &children);
    ProgramStructureTree {
        regions,
        children,
        node_region: node_region.into_iter().map(RegionId::from_index).collect(),
        edge_region: edge_region.into_iter().map(RegionId::from_index).collect(),
        detection: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pst_cfg::parse_edge_list;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn straight_line_pst() {
        let cfg = parse_edge_list("0->1 1->2 2->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        // Regions (01,12) and (12,23) are sequentially composed siblings.
        assert_eq!(pst.canonical_region_count(), 2);
        let kids = pst.children(pst.root());
        assert_eq!(kids.len(), 2);
        assert_eq!(pst.depth(kids[0]), 1);
        assert_eq!(pst.region_of_node(n(1)), kids[0]);
        assert_eq!(pst.region_of_node(n(2)), kids[1]);
        assert_eq!(pst.region_of_node(n(0)), pst.root());
        assert_eq!(pst.region_of_node(n(3)), pst.root());
    }

    #[test]
    fn diamond_pst() {
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        assert_eq!(pst.canonical_region_count(), 2);
        let arm1 = pst.region_of_node(n(1));
        let arm2 = pst.region_of_node(n(2));
        assert_ne!(arm1, arm2);
        assert_eq!(pst.parent(arm1), Some(pst.root()));
        assert_eq!(pst.parent(arm2), Some(pst.root()));
    }

    #[test]
    fn while_loop_nesting() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let body = pst.region_of_node(n(2));
        let outer = pst.region_of_node(n(1));
        assert_eq!(pst.parent(body), Some(outer));
        assert_eq!(pst.parent(outer), Some(pst.root()));
        assert!(pst.region_contains(outer, body));
        assert!(!pst.region_contains(body, outer));
        assert!(pst.contains_node(outer, n(2)));
        assert!(!pst.contains_node(body, n(1)));
    }

    #[test]
    fn nested_loops_depths() {
        let cfg = parse_edge_list("0->1 1->2 2->3 3->2 3->1 1->4").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        // node 3: innermost loop body.
        let inner = pst.region_of_node(n(3));
        assert!(pst.depth(inner) >= 2);
        // Depth increases strictly along the parent chain to the root.
        let mut r = inner;
        let mut last = pst.depth(r);
        while let Some(p) = pst.parent(r) {
            assert!(pst.depth(p) < last);
            last = pst.depth(p);
            r = p;
        }
        assert_eq!(r, pst.root());
    }

    #[test]
    fn irreducible_graph_has_pst() {
        let cfg = parse_edge_list("0->1 0->2 1->2 2->1 1->3 2->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        // The irreducible core collapses into the root region; the edges
        // into/out of the procedure still delimit regions.
        assert!(pst.region_count() >= 1);
        for r in pst.regions() {
            if let Some(p) = pst.parent(r) {
                assert!(pst.region_contains(p, r));
            }
        }
    }

    #[test]
    fn child_containing_walks_to_immediate_child() {
        let cfg = parse_edge_list("0->1 1->2 2->3 3->2 3->1 1->4").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let innermost = pst.region_of_node(n(3));
        let top = pst.children(pst.root())[0];
        let c = pst.child_containing(top, n(3)).unwrap();
        assert_eq!(pst.parent(c), Some(top));
        assert!(pst.region_contains(c, innermost));
        // A node interior to the region itself yields None.
        assert_eq!(pst.child_containing(innermost, n(3)), None);
    }

    #[test]
    fn collapsed_sizes() {
        let cfg = parse_edge_list("0->1 1->2 2->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let kids = pst.children(pst.root());
        // A collapsed region has one node per interior node and per child.
        let minis = crate::collapse_all(&cfg, &pst);
        // Each chain region has exactly one interior node and no children.
        assert_eq!(minis[kids[0].index()].graph.node_count(), 1);
        // Root: interior nodes 0 and 3, two child regions.
        assert_eq!(minis[pst.root().index()].graph.node_count(), 4);
        assert_eq!(crate::PstStats::of(&pst).max_collapsed_size, 4);
    }

    #[test]
    fn render_shows_nesting() {
        let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let s = pst.render();
        assert!(s.contains("<procedure>"));
        assert!(s.lines().count() == pst.region_count());
    }

    #[test]
    fn every_region_reachable_from_root() {
        let cfg =
            parse_edge_list("0->1 1->2 2->3 2->4 3->5 4->5 5->6 6->7 7->6 6->8 8->9 8->10 9->11 10->11 11->8 8->12 12->13")
                .unwrap();
        let pst = ProgramStructureTree::build(&cfg);
        let mut seen = vec![false; pst.region_count()];
        let mut stack = vec![pst.root()];
        while let Some(r) = stack.pop() {
            seen[r.index()] = true;
            stack.extend(pst.children(r).iter().copied());
        }
        assert!(seen.into_iter().all(|s| s));
    }
}
