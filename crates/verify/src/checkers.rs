//! Independent invariant checkers for every pipeline stage.
//!
//! Each checker re-derives its invariant from first principles — slow
//! oracles, the edge-split dominance oracle, or an independent baseline
//! algorithm — and compares against the fast pipeline's output. None of
//! them share code with the computation they check, so a bug in the
//! linear-time algorithms cannot silently cancel out in the checker.
//!
//! | checker | paper claim | oracle |
//! |---|---|---|
//! | [`check_cycle_equiv`] | Definition 3 | `cycle_equiv_slow_undirected` |
//! | [`check_sese`] | Definition / Theorem 2 | edge-split dom + pdom trees |
//! | [`check_pst`] | Theorem 1 | dominance membership vs. tree containment |
//! | [`check_control_regions`] | Theorem 7 | `fow_control_regions` (CDG baseline) |
//! | [`check_phi`] | Theorem 9 | `place_phis_cytron` (IDF baseline) |
//! | [`check_ntscd`] | NTSCD (Chalupa et al.) | SCC + reachability maximal-path oracle |
//! | [`check_dod`] | DOD (Chalupa et al.) | exhaustive pair enumeration |
//!
//! Partition comparison is delegated to `pst_controldep::canonical_partition`
//! — the one canonical helper the whole workspace shares.

use pst_cfg::{Budget, Cfg, EdgeId, EdgeSplit, Graph, NodeId, Sccs};
use pst_controldep::{canonical_partition, fow_control_regions, StrongControlDeps};
use pst_core::{
    cycle_equiv_slow_undirected, CanonicalRegions, ControlRegions, ProgramStructureTree,
};
use pst_dominators::{dominator_tree, dominator_tree_in, Direction, DomTree};
use pst_lang::LoweredFunction;
use pst_ssa::{place_phis_cytron, PhiPlacement};

use crate::report::{CheckerId, ViolationReport};
use crate::strong_oracle::{
    distinct_successors, oracle_dod, oracle_inevitable, oracle_ntscd, oracle_ordered,
};

/// Checks the fast cycle-equivalence partition over `S = G + (end→start)`
/// against the slow undirected oracle (Definition 3), under `budget`
/// oracle steps (`None` = unlimited).
///
/// The partition being checked is the one region detection ran on —
/// [`CanonicalRegions::cycle_equiv`] — so a corrupted partition is caught
/// even when recomputing from the CFG would come back clean.
pub fn check_cycle_equiv(
    cfg: &Cfg,
    detection: &CanonicalRegions,
    budget: impl Into<Budget>,
) -> ViolationReport {
    let mut report = ViolationReport::new(CheckerId::CycleEquiv);
    let (s, _virtual_edge) = cfg.to_strongly_connected();
    if detection.cycle_equiv.classes().len() != s.edge_count() {
        report.push(format!(
            "partition covers {} edges but S has {}",
            detection.cycle_equiv.classes().len(),
            s.edge_count()
        ));
        return report;
    }
    let slow = match cycle_equiv_slow_undirected(&s, budget) {
        Ok(slow) => slow,
        Err(_) => {
            report.budget_exhausted = true;
            return report;
        }
    };
    let fast = canonical_partition(detection.cycle_equiv.classes());
    let oracle = canonical_partition(slow.classes());
    if fast == oracle {
        return report;
    }
    // Pin the mismatch to concrete edge pairs for the report.
    for i in 0..fast.len() {
        for j in i + 1..fast.len() {
            let fast_same = fast[i] == fast[j];
            if fast_same != (oracle[i] == oracle[j]) {
                report.push(format!(
                    "edges e{i} and e{j} are {} per the oracle but {} in the checked partition",
                    if fast_same {
                        "inequivalent"
                    } else {
                        "equivalent"
                    },
                    if fast_same {
                        "equivalent"
                    } else {
                        "inequivalent"
                    },
                ));
                if report.violations.len() == crate::report::MAX_RECORDED_VIOLATIONS {
                    return report;
                }
            }
        }
    }
    report
}

/// The dominance oracle every structural checker shares: dominator and
/// postdominator trees of the edge-split graph, where edge dominance
/// reduces to node dominance of midpoints.
pub(crate) struct DomOracle {
    split: EdgeSplit,
    dom: DomTree,
    pdom: DomTree,
}

impl DomOracle {
    pub(crate) fn new(cfg: &Cfg) -> Self {
        let split = EdgeSplit::of_cfg(cfg);
        let dom = dominator_tree(split.graph(), cfg.entry());
        let pdom = dominator_tree_in(split.graph(), cfg.exit(), Direction::Backward);
        DomOracle { split, dom, pdom }
    }

    fn edge_dom(&self, a: EdgeId, b: EdgeId) -> bool {
        self.dom
            .dominates(self.split.midpoint(a), self.split.midpoint(b))
    }

    fn edge_pdom(&self, a: EdgeId, b: EdgeId) -> bool {
        self.pdom
            .dominates(self.split.midpoint(a), self.split.midpoint(b))
    }

    /// Definition-6 membership: node `n` lies in region `(entry, exit)`
    /// iff the entry edge dominates it and the exit edge postdominates it.
    fn node_in_region(&self, entry: EdgeId, exit: EdgeId, n: NodeId) -> bool {
        self.dom.dominates(self.split.midpoint(entry), n)
            && self.pdom.dominates(self.split.midpoint(exit), n)
    }
}

/// Checks every canonical region against the definitional SESE triple —
/// entry dominates exit, exit postdominates entry, the two are cycle
/// equivalent — plus canonicity: each class's dominance order and the
/// adjacent-pair completeness count (Definition 5).
pub fn check_sese(cfg: &Cfg, detection: &CanonicalRegions) -> ViolationReport {
    let mut report = ViolationReport::new(CheckerId::Sese);
    let oracle = DomOracle::new(cfg);
    let m = cfg.edge_count();
    for r in &detection.regions {
        if r.entry.index() >= m || r.exit.index() >= m {
            report.push(format!(
                "region ({}, {}) references an edge outside the CFG",
                r.entry, r.exit
            ));
            continue;
        }
        if !oracle.edge_dom(r.entry, r.exit) {
            report.push(format!(
                "region ({}, {}): entry does not dominate exit",
                r.entry, r.exit
            ));
        }
        if !oracle.edge_pdom(r.exit, r.entry) {
            report.push(format!(
                "region ({}, {}): exit does not postdominate entry",
                r.entry, r.exit
            ));
        }
        if !detection.cycle_equiv.same_class(r.entry, r.exit) {
            report.push(format!(
                "region ({}, {}): boundary edges are not cycle equivalent",
                r.entry, r.exit
            ));
        }
    }
    for class in detection.ordered_classes.iter() {
        for w in class.windows(2) {
            if !oracle.edge_dom(w[0], w[1]) || !oracle.edge_pdom(w[1], w[0]) {
                report.push(format!(
                    "class edges {} and {} are not adjacent in dominance order",
                    w[0], w[1]
                ));
            }
        }
    }
    let expected: usize = detection
        .ordered_classes
        .iter()
        .map(|c| c.len().saturating_sub(1))
        .sum();
    if detection.regions.len() != expected {
        report.push(format!(
            "{} regions reported but the classes imply {}",
            detection.regions.len(),
            expected
        ));
    }
    report
}

/// Checks the PST against Theorem 1: tree coherence (parent/child/depth
/// links, every region reachable from the root), semantic membership
/// (tree containment of every node agrees with the dom/pdom membership
/// oracle — this is what catches a reparented region), and
/// `region_of_node`/`region_of_edge` consistency.
pub fn check_pst(cfg: &Cfg, pst: &ProgramStructureTree) -> ViolationReport {
    let mut report = ViolationReport::new(CheckerId::Pst);

    // --- Tree coherence (no CFG semantics involved). ---
    let root = pst.root();
    if pst.parent(root).is_some() {
        report.push("root region has a parent".to_string());
    }
    if pst.bounds(root).is_some() {
        report.push("root region has boundary edges".to_string());
    }
    let mut seen = vec![false; pst.region_count()];
    let mut stack = vec![root];
    seen[root.index()] = true;
    while let Some(r) = stack.pop() {
        for &c in pst.children(r) {
            if pst.parent(c) != Some(r) {
                report.push(format!(
                    "{c} is listed as a child of {r} but has another parent"
                ));
            }
            if pst.depth(c) != pst.depth(r) + 1 {
                report.push(format!("{c} has depth {} under {r}", pst.depth(c)));
            }
            if !pst.region_contains(r, c) {
                report.push(format!(
                    "containment intervals deny that {r} contains child {c}"
                ));
            }
            if seen[c.index()] {
                report.push(format!("{c} appears twice in the tree"));
                continue;
            }
            seen[c.index()] = true;
            stack.push(c);
        }
    }
    for (i, s) in seen.iter().enumerate() {
        if !s {
            report.push(format!("r{i} is unreachable from the root"));
        }
    }
    if !report.is_clean() {
        // The tree is not even well formed; semantic checks below would
        // only repeat the damage in less direct terms.
        return report;
    }

    // --- Semantic membership: tree containment must agree with the
    // dominance oracle for every (canonical region, node) pair. ---
    let oracle = DomOracle::new(cfg);
    let n_nodes = cfg.node_count();
    if pst.node_count() != n_nodes {
        report.push(format!(
            "PST indexes {} nodes but the CFG has {n_nodes}",
            pst.node_count()
        ));
        return report;
    }
    for r in pst.regions() {
        let Some(b) = pst.bounds(r) else { continue };
        for i in 0..n_nodes {
            let node = NodeId::from_index(i);
            let semantic = oracle.node_in_region(b.entry, b.exit, node);
            let tree = pst.contains_node(r, node);
            if semantic != tree {
                report.push(format!(
                    "node {i} is {} region {r} per dominance but {} per the tree",
                    if semantic { "inside" } else { "outside" },
                    if tree { "inside" } else { "outside" },
                ));
            }
        }
    }

    // --- region_of_edge threading: a region's entry edge belongs to the
    // region itself, its exit edge to the parent; any other edge belongs
    // to the innermost region containing its midpoint. ---
    let mut entry_of = vec![None; cfg.edge_count()];
    let mut exit_of = vec![None; cfg.edge_count()];
    for r in pst.regions() {
        if let Some(b) = pst.bounds(r) {
            entry_of[b.entry.index()] = Some(r);
            exit_of[b.exit.index()] = Some(r);
        }
    }
    for e in cfg.graph().edges() {
        let got = pst.region_of_edge(e);
        let expected = if let Some(r) = entry_of[e.index()] {
            Some(r)
        } else if let Some(r) = exit_of[e.index()] {
            pst.parent(r).or(Some(root))
        } else {
            // Innermost canonical region whose boundary pair semantically
            // contains both endpoints (the root when none does).
            let (u, v) = cfg.graph().endpoints(e);
            pst.regions()
                .filter(|&r| {
                    pst.bounds(r).is_some_and(|b| {
                        oracle.node_in_region(b.entry, b.exit, u)
                            && oracle.node_in_region(b.entry, b.exit, v)
                    })
                })
                .max_by_key(|&r| pst.depth(r))
                .or(Some(root))
        };
        if Some(got) != expected {
            report.push(format!(
                "edge {e} is threaded into {got} but belongs to {}",
                expected.expect("expected region is always set")
            ));
        }
    }
    report
}

/// Checks the linear-time control-region partition against the
/// Cytron–Ferrante–Sarkar CDG baseline (Theorem 7 says they coincide).
pub fn check_control_regions(cfg: &Cfg, control_regions: &ControlRegions) -> ViolationReport {
    let mut report = ViolationReport::new(CheckerId::ControlRegions);
    let n = cfg.node_count();
    if control_regions.classes().len() != n {
        report.push(format!(
            "partition covers {} nodes but the CFG has {n}",
            control_regions.classes().len()
        ));
        return report;
    }
    let baseline = fow_control_regions(cfg);
    if *control_regions == baseline {
        return report;
    }
    let got = canonical_partition(control_regions.classes());
    let want = canonical_partition(baseline.classes());
    for i in 0..n {
        for j in i + 1..n {
            let got_same = got[i] == got[j];
            if got_same != (want[i] == want[j]) {
                report.push(format!(
                    "nodes {i} and {j} are {} per the CDG baseline but {} in the checked partition",
                    if got_same {
                        "in different regions"
                    } else {
                        "in one region"
                    },
                    if got_same {
                        "in one region"
                    } else {
                        "in different regions"
                    },
                ));
                if report.violations.len() == crate::report::MAX_RECORDED_VIOLATIONS {
                    return report;
                }
            }
        }
    }
    report
}

/// Checks a PST-driven φ-placement against the Cytron iterated-
/// dominance-frontier baseline (Theorem 9 says they are equal).
pub fn check_phi(function: &LoweredFunction, placement: &PhiPlacement) -> ViolationReport {
    let mut report = ViolationReport::new(CheckerId::Phi);
    let baseline = place_phis_cytron(function);
    if *placement == baseline {
        return report;
    }
    if placement.var_count() != baseline.var_count() {
        report.push(format!(
            "placement covers {} variables but the function has {}",
            placement.var_count(),
            baseline.var_count()
        ));
        return report;
    }
    for (var, want) in baseline.iter() {
        let got = placement.phis_of(var);
        if got == want {
            continue;
        }
        let name = &function.vars[var.index()];
        for node in want {
            if !got.contains(node) {
                report.push(format!(
                    "variable `{name}` is missing a φ at node {}",
                    node.index()
                ));
            }
        }
        for node in got {
            if !want.contains(node) {
                report.push(format!(
                    "variable `{name}` has a spurious φ at node {}",
                    node.index()
                ));
            }
        }
    }
    report
}

/// Whether the graph is acyclic: every SCC trivial and no self-loops.
/// On a valid CFG this is exactly the guaranteed-termination class —
/// every node reaches the exit, so any cycle could be pumped into an
/// infinite maximal path (see docs/CONTROLDEP.md).
fn is_acyclic(graph: &Graph) -> bool {
    let sccs = Sccs::new(graph);
    let mut size = vec![0usize; sccs.count()];
    for x in graph.nodes() {
        size[sccs.component(x)] += 1;
    }
    size.iter().all(|&s| s <= 1) && !graph.nodes().any(|x| graph.successors(x).any(|s| s == x))
}

fn fmt_nodes(nodes: &[NodeId]) -> String {
    let items: Vec<String> = nodes.iter().map(|n| n.index().to_string()).collect();
    format!("{{{}}}", items.join(", "))
}

/// Checks the NTSCD relation against the naive maximal-path oracle
/// (`strong_oracle`), node by node, under `budget` oracle steps. When
/// the artifact carries a classic relation and the graph is acyclic
/// (every maximal path terminates), additionally asserts NTSCD ≡
/// classic control dependence — the theorem that the strong relation
/// degrades to the paper's weak one on the guaranteed-termination
/// class.
pub fn check_ntscd(
    graph: &Graph,
    strong: &StrongControlDeps,
    budget: impl Into<Budget>,
) -> ViolationReport {
    let mut report = ViolationReport::new(CheckerId::Ntscd);
    let n = graph.node_count();
    let ntscd = strong.ntscd();
    if ntscd.node_count() != n {
        report.push(format!(
            "relation covers {} nodes but the graph has {n}",
            ntscd.node_count()
        ));
        return report;
    }
    let cost = (n as u64) * (n as u64 + graph.edge_count() as u64 + 1);
    if budget.into().spend(cost).is_err() {
        report.budget_exhausted = true;
        return report;
    }
    let oracle = oracle_ntscd(graph);
    for (i, want) in oracle.iter().enumerate() {
        let node = NodeId::from_index(i);
        let got = ntscd.deps_of(node);
        if got != want.as_slice() {
            report.push(format!(
                "node {i}: NTSCD set {} but the maximal-path oracle derives {}",
                fmt_nodes(got),
                fmt_nodes(want),
            ));
            if report.violations.len() == crate::report::MAX_RECORDED_VIOLATIONS {
                return report;
            }
        }
    }
    if let Some(classic) = strong.classic() {
        if is_acyclic(graph) {
            for i in 0..n {
                let node = NodeId::from_index(i);
                if ntscd.deps_of(node) != classic.deps_of(node) {
                    report.push(format!(
                        "acyclic graph, node {i}: NTSCD {} differs from classic CD {}",
                        fmt_nodes(ntscd.deps_of(node)),
                        fmt_nodes(classic.deps_of(node)),
                    ));
                    if report.violations.len() == crate::report::MAX_RECORDED_VIOLATIONS {
                        return report;
                    }
                }
            }
        }
    }
    report
}

/// Checks the DOD witness set. Every reported witness is re-proved
/// from its definition via the maximal-path oracles (soundness); when
/// the artifact claims completeness and the budget allows, the
/// exhaustive enumeration is compared in full (no missing witnesses).
pub fn check_dod(
    graph: &Graph,
    strong: &StrongControlDeps,
    budget: impl Into<Budget>,
) -> ViolationReport {
    let mut report = ViolationReport::new(CheckerId::Dod);
    let mut budget = budget.into();
    let dod = strong.dod();
    let n = graph.node_count() as u64;
    let per_pass = n + graph.edge_count() as u64 + 1;
    let full_cost = n * n * per_pass;
    if dod.is_complete() && budget.spend(full_cost).is_ok() {
        // Exact comparison both ways.
        let got: Vec<(NodeId, NodeId, NodeId)> = dod
            .witnesses()
            .iter()
            .map(|w| (w.branch, w.first, w.second))
            .collect();
        let want = oracle_dod(graph);
        for w in &want {
            if !got.contains(w) {
                report.push(format!(
                    "missing witness: branch {} decides the order of ({}, {})",
                    w.0.index(),
                    w.1.index(),
                    w.2.index()
                ));
                if report.violations.len() == crate::report::MAX_RECORDED_VIOLATIONS {
                    return report;
                }
            }
        }
        for w in &got {
            if !want.contains(w) {
                report.push(format!(
                    "spurious witness: branch {} does not decide the order of ({}, {})",
                    w.0.index(),
                    w.1.index(),
                    w.2.index()
                ));
                if report.violations.len() == crate::report::MAX_RECORDED_VIOLATIONS {
                    return report;
                }
            }
        }
        return report;
    }
    // Budget (or declared truncation) forbids full enumeration: still
    // re-prove each reported witness individually.
    let witness_cost = (dod.witnesses().len() as u64) * 4 * per_pass;
    if budget.spend(witness_cost).is_err() {
        report.budget_exhausted = true;
        return report;
    }
    if dod.is_complete() {
        // We had the budget for the soundness pass but not the
        // completeness sweep: the check is partial.
        report.budget_exhausted = true;
    }
    for w in dod.witnesses() {
        let (p, a, b) = (w.branch, w.first, w.second);
        if a >= b {
            report.push(format!(
                "witness ({}, {}, {}) is not normalized (first < second)",
                p.index(),
                a.index(),
                b.index()
            ));
            continue;
        }
        let succs = distinct_successors(graph, p);
        let in_a = oracle_inevitable(graph, a);
        let in_b = oracle_inevitable(graph, b);
        let a_first = oracle_ordered(graph, a, b);
        let b_first = oracle_ordered(graph, b, a);
        let holds = in_a[p.index()]
            && in_b[p.index()]
            && succs.iter().any(|s| a_first[s.index()])
            && succs.iter().any(|s| b_first[s.index()]);
        if !holds {
            report.push(format!(
                "witness rejected by the oracle: branch {} does not decide the order of ({}, {})",
                p.index(),
                a.index(),
                b.index()
            ));
            if report.violations.len() == crate::report::MAX_RECORDED_VIOLATIONS {
                return report;
            }
        }
    }
    report
}
