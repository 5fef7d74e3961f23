//! Adversarial shapes for the flat cycle-equivalence engine, run through
//! both of its implicit inputs: `S = G + (exit→entry)` via
//! `canonical_regions` and `T(S)` via `ControlRegions::compute`.
//!
//! * a 10⁵-node chain: the deepest undirected and directed searches (any
//!   recursion would overflow the stack);
//! * a 10⁴-way switch, half of whose arms are empty (parallel edges): one
//!   node with 10⁴ incident edges and as many backedges ending at it;
//! * 2000 nested while loops: the longest-lived bracket lists.
//!
//! 4000 nested while loops also drive the QPG: its context lays the
//! nodes out once in PST preorder (the deepest region nesting makes any
//! per-region copy quadratic), and sparse solutions over it must equal
//! the iterative solver's.
//!
//! Each result is checked by the independent checkers of `pst-verify`
//! (dominator-based SESE triple; control regions against the CDG
//! baseline) and against `CycleEquiv::compute` on the explicit closure.
//! The quadratic slow oracles are out of budget at these sizes.

use pst_cfg::{Cfg, CfgBuilder, NodeId};
use pst_core::{canonical_regions, ControlRegions, CycleEquiv, ProgramStructureTree};
use pst_dataflow::{
    solve_iterative, BitSet, Confluence, DataflowProblem, Flow, GenKill, QpgContext,
};
use pst_verify::{check_control_regions, check_sese};
use pst_workloads::{linear_chain, nested_while_loops};

/// entry → switch → k arms → exit; even arms hold a block, odd arms are a
/// bare switch → exit edge.
fn wide_switch(k: usize) -> Cfg {
    let mut b = CfgBuilder::with_capacity(k / 2 + 3, 2 * k + 1);
    let entry = b.add_node();
    let switch = b.add_node();
    let exit = b.add_node();
    b.add_edge(entry, switch);
    for arm in 0..k {
        if arm % 2 == 0 {
            let block = b.add_node();
            b.add_edge(switch, block);
            b.add_edge(block, exit);
        } else {
            b.add_edge(switch, exit);
        }
    }
    b.finish(entry, exit).expect("switch is a valid CFG")
}

/// Runs both implicit paths on `cfg`, checks them, and returns the
/// canonical-region count and the control-region count.
fn analyse(cfg: &Cfg) -> (usize, usize) {
    let found = canonical_regions(cfg);
    let (s, _) = cfg.to_strongly_connected();
    let explicit = CycleEquiv::compute(&s, cfg.entry()).expect("S is connected");
    assert_eq!(
        found.cycle_equiv, explicit,
        "implicit S differs from explicit S"
    );
    let sese = check_sese(cfg, &found);
    assert!(sese.is_clean(), "{:?}", sese.violations);

    let cr = ControlRegions::compute(cfg);
    let checked = check_control_regions(cfg, &cr);
    assert!(checked.is_clean(), "{:?}", checked.violations);
    (found.regions.len(), cr.num_classes())
}

#[test]
fn chain_of_100k_nodes() {
    let cfg = linear_chain(100_000);
    let (regions, classes) = analyse(&cfg);
    // One cycle-equivalence class: E - 1 sequentially composed regions,
    // and every node executes unconditionally.
    assert_eq!(regions, cfg.edge_count() - 1);
    assert_eq!(classes, 1);
}

#[test]
fn switch_with_10k_arms() {
    let k = 10_000;
    let cfg = wide_switch(k);
    let (regions, classes) = analyse(&cfg);
    // Each arm with a block is the region (switch → block, block → exit);
    // entry → switch and the empty arms bound nothing.
    assert_eq!(regions, k / 2);
    // Entry, switch and exit share one region; each block is its own.
    assert_eq!(classes, 1 + k / 2);
}

#[test]
fn two_thousand_nested_while_loops() {
    let depth = 2000;
    let cfg = nested_while_loops(depth);
    let (regions, classes) = analyse(&cfg);
    assert!(regions >= depth, "{regions} regions for {depth} loops");
    // Entry, the outermost loop's exit block and exit share a region;
    // every header, the body and every inner loop's exit block (each runs
    // a different number of times) has its own.
    assert_eq!(classes, 1 + depth + 1 + (depth - 1));
}

/// Reaching definitions of one variable over a bare CFG: node `sites[i]`
/// generates fact `i` and kills the others.
struct Defs {
    transfers: Vec<GenKill>,
    universe: usize,
}

impl Defs {
    fn new(cfg: &Cfg, sites: &[NodeId]) -> Self {
        let universe = sites.len();
        let mut transfers: Vec<GenKill> = (0..cfg.node_count())
            .map(|_| GenKill::identity(universe))
            .collect();
        for (i, s) in sites.iter().enumerate() {
            let t = &mut transfers[s.index()];
            t.gen.insert(i);
            t.kill = BitSet::full(universe);
            t.kill.remove(i);
        }
        Defs {
            transfers,
            universe,
        }
    }
}

impl DataflowProblem for Defs {
    fn flow(&self) -> Flow {
        Flow::Forward
    }
    fn confluence(&self) -> Confluence {
        Confluence::Union
    }
    fn universe(&self) -> usize {
        self.universe
    }
    fn boundary(&self) -> BitSet {
        BitSet::new(self.universe)
    }
    fn transfer(&self, node: NodeId) -> &GenKill {
        &self.transfers[node.index()]
    }
}

#[test]
fn qpg_over_four_thousand_nested_while_loops() {
    let depth = 4000;
    let cfg = nested_while_loops(depth);
    let pst = ProgramStructureTree::build(&cfg);
    let ctx = QpgContext::new(&cfg, &pst).expect("PST matches its CFG");
    // One layout entry per CFG node: the root's slice holds every node
    // once, and every region's nodes are a slice of that same array.
    let all = ctx.region_nodes(pst.root());
    assert_eq!(all.len(), cfg.node_count());
    let mut seen = vec![false; cfg.node_count()];
    for n in all {
        assert!(!std::mem::replace(&mut seen[n.index()], true), "{n} twice");
    }
    // Each node sits in its own region's slice and in none of that
    // region's children's; each child's slice nests in its parent's.
    let within = |inner: &[NodeId], outer: &[NodeId]| {
        let (i, o) = (inner.as_ptr_range(), outer.as_ptr_range());
        o.start <= i.start && i.end <= o.end
    };
    for (p, &n) in all.iter().enumerate() {
        let own = pst.region_of_node(n);
        let slot = &all[p..=p];
        assert!(within(slot, ctx.region_nodes(own)), "{n} outside {own}");
        for &c in pst.children(own) {
            assert!(within(ctx.region_nodes(c), ctx.region_nodes(own)));
            assert!(!within(slot, ctx.region_nodes(c)), "{n} inside child {c}");
        }
    }
    // A definition before the nest bypasses all of it, and the sparse
    // solution projected over the nest's 8000-node slice is the full one.
    let sites = [cfg.entry()];
    let problem = Defs::new(&cfg, &sites);
    let qpg = ctx.build_from_sites(&sites).expect("PST matches its CFG");
    assert_eq!(qpg.node_count(), 2, "only the entry and the exit are kept");
    assert_eq!(
        ctx.solve(&qpg, &problem).expect("consistent QPG"),
        solve_iterative(&cfg, &problem)
    );
    // One in the innermost body marks every enclosing loop, so only the
    // transparent loop-exit blocks are bypassed: the entry, every header,
    // the body and the exit stay. (Solving it would take one round per
    // loop level.)
    let body = NodeId::from_index(depth + 1);
    let qpg = ctx
        .build_from_sites(&[cfg.entry(), body])
        .expect("PST matches its CFG");
    assert_eq!(qpg.node_count(), depth + 3);
}
