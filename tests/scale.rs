//! Scale tests: the linear-time machinery on graphs and programs far
//! larger than the corpus procedures. These run in debug CI time (a few
//! seconds each) and assert structural invariants that would break loudly
//! if any pass were accidentally super-linear or stack-recursive.

use pst_core::{classify_regions, collapse_all, ControlRegions, ProgramStructureTree, PstStats};
use pst_dataflow::{derived_sequence, solve_elimination, solve_iterative, ReachingDefinitions};
use pst_ssa::{place_phis_cytron, place_phis_pst};
use pst_workloads::{
    diamond_ladder, generate_function, linear_chain, nested_repeat_until, random_cfg,
    ProgramGenConfig,
};

#[test]
fn pst_on_a_100k_node_chain() {
    let cfg = linear_chain(100_000);
    let pst = ProgramStructureTree::build(&cfg);
    // A chain of E edges has E-1 sequentially composed regions.
    assert_eq!(pst.canonical_region_count(), cfg.edge_count() - 1);
    let stats = PstStats::of(&pst);
    assert_eq!(stats.max_depth, 1, "all regions are root children");
}

#[test]
fn pst_on_a_deep_ladder_and_loop_nest() {
    let ladder = diamond_ladder(20_000);
    let pst = ProgramStructureTree::build(&ladder);
    assert!(pst.canonical_region_count() >= 40_000);

    let nest = nested_repeat_until(5_000);
    let pst = ProgramStructureTree::build(&nest);
    let stats = PstStats::of(&pst);
    assert!(stats.max_depth >= 5_000, "nesting is as deep as the source");
}

#[test]
fn control_regions_on_a_large_random_graph() {
    let cfg = random_cfg(20_000, 10_000, 99).unwrap();
    let cr = ControlRegions::compute(&cfg);
    assert!(cr.num_classes() >= 2);
    // Entry and exit always share a class (both unconditional).
    assert!(cr.same_region(cfg.entry(), cfg.exit()));
}

#[test]
fn derived_sequence_of_20k_sequential_loops() {
    // Each loop header is its own interval; the derived graph is a chain.
    // A partition that rescans every node per interval is quadratic here:
    // it took 2.9 s on 8,000 such loops in a release build.
    let loops = 20_000;
    let src = format!(
        "fn f(n) {{ i = 0; {} return n; }}",
        "while (n > i) { n = n - 1; } ".repeat(loops)
    );
    let p = pst_lang::parse_program(&src).unwrap();
    let l = pst_lang::lower_function(&p.functions[0]).unwrap();
    let seq = derived_sequence(&l.cfg);
    assert!(seq.reducible);
    assert_eq!(seq.interval_counts.len(), 2, "{:?}", seq.interval_counts);
    assert!(seq.interval_counts[0] > loops, "{:?}", seq.interval_counts);
}

#[test]
fn loop_forest_of_20k_sequential_loops() {
    // Twenty thousand sibling loops. Clearing a node-sized array per
    // header and comparing each loop with every larger one is quadratic
    // here: it took 1.3 s on 16,000 such loops in a release build.
    let loops = 20_000;
    let src = format!(
        "fn f(n) {{ i = 0; {} return n; }}",
        "while (n > i) { n = n - 1; } ".repeat(loops)
    );
    let p = pst_lang::parse_program(&src).unwrap();
    let l = pst_lang::lower_function(&p.functions[0]).unwrap();
    let forest = pst_dominators::LoopForest::compute(&l.cfg);
    assert_eq!(forest.loops().len(), loops);
    assert!(forest.loops().iter().all(|lp| lp.parent.is_none()));
    let deepest = l.cfg.graph().nodes().map(|v| forest.depth(v)).max();
    assert_eq!(deepest, Some(1));
}

#[test]
fn full_stack_on_a_large_generated_program() {
    let config = ProgramGenConfig {
        target_stmts: 8_000,
        num_vars: 200,
        goto_prob: 0.02,
        ..Default::default()
    };
    let f = generate_function("big", &config, 42);
    let l = pst_lang::lower_function(&f).unwrap();
    assert!(l.cfg.node_count() > 3_000, "got {}", l.cfg.node_count());

    let pst = ProgramStructureTree::build(&l.cfg);
    let collapsed = collapse_all(&l.cfg, &pst);
    let kinds = classify_regions(&l.cfg, &pst);
    assert!(pst.canonical_region_count() > 1_000);
    let _ = kinds.weighted_counts();

    // φ-placement equality at scale.
    let baseline = place_phis_cytron(&l);
    let sparse = place_phis_pst(&l, &pst, &collapsed).unwrap();
    assert_eq!(baseline, sparse.placement);

    // Elimination solving equality at scale.
    let rd = ReachingDefinitions::new(&l);
    assert_eq!(
        solve_elimination(&l.cfg, &pst, &collapsed, &rd).unwrap(),
        solve_iterative(&l.cfg, &rd)
    );
}

#[test]
fn incremental_insertion_on_a_large_nest_is_local() {
    let cfg = pst_workloads::nested_while_loops(2_000);
    let pst = ProgramStructureTree::build(&cfg);
    // Self-loop on the innermost body block.
    let body = pst_cfg::NodeId::from_index(2_001);
    let grown = pst_core::insert_edge(&cfg, &pst, body, body).unwrap();
    assert!(
        grown.rebuilt_nodes <= 2,
        "recomputed {} nodes",
        grown.rebuilt_nodes
    );
    // Spot-check the splice without a full O(N²) signature comparison:
    // region count grows by exactly one (the new self-loop class).
    assert_eq!(
        grown.pst.canonical_region_count(),
        pst.canonical_region_count()
    );
}

/// The §6.1 quadratic-blowup claim, measured directly: for nested
/// repeat-until loops the *global* dominance-frontier table is Θ(N²)
/// while the per-region (collapsed) tables total Θ(N).
#[test]
fn nested_repeat_until_frontier_blowup_is_avoided_per_region() {
    use pst_dominators::{dominance_frontiers, dominator_tree, Direction};

    let measure = |depth: usize| -> (usize, usize) {
        let cfg = nested_repeat_until(depth);
        // Global DF table entries.
        let dt = dominator_tree(cfg.graph(), cfg.entry());
        let df = dominance_frontiers(cfg.graph(), &dt, Direction::Forward);
        let global: usize = df.iter().map(|f| f.len()).sum();
        // Per-region DF tables over the collapsed graphs.
        let pst = ProgramStructureTree::build(&cfg);
        let collapsed = collapse_all(&cfg, &pst);
        let mut per_region = 0usize;
        for mini in &collapsed {
            if mini.graph.node_count() == 0 {
                continue;
            }
            let mut g = mini.graph.clone();
            let entry = g.add_node();
            g.add_edge(entry, mini.head);
            let dt = dominator_tree(&g, entry);
            let df = dominance_frontiers(&g, &dt, Direction::Forward);
            per_region += df.iter().map(|f| f.len()).sum::<usize>();
        }
        (global, per_region)
    };

    let (g1, r1) = measure(50);
    let (g2, r2) = measure(200);
    // Global grows ~quadratically (16x for 4x depth), per-region ~linearly.
    assert!(g2 > 10 * g1, "global DF: {g1} -> {g2}");
    assert!(r2 < 6 * r1, "per-region DF: {r1} -> {r2}");
    // And at depth 200 the gap itself is an order of magnitude.
    assert!(g2 > 10 * r2, "global {g2} vs per-region {r2}");
}
