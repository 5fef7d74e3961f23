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
//! Each result is checked by the independent checkers of `pst-verify`
//! (dominator-based SESE triple; control regions against the CDG
//! baseline) and against `CycleEquiv::compute` on the explicit closure.
//! The quadratic slow oracles are out of budget at these sizes.

use pst_cfg::{Cfg, CfgBuilder};
use pst_core::{canonical_regions, ControlRegions, CycleEquiv};
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
