//! Cross-crate property tests on random CFGs: every independently
//! implemented algorithm pair must agree.

use proptest::prelude::*;
use pst_controldep::{cfs_control_regions, fow_control_regions};
use pst_core::{collapse_all, ControlRegions, CycleEquiv, ProgramStructureTree};
use pst_dataflow::{
    solve_elimination, solve_iterative, QpgContext, ReachingDefinitions, SingleVariableReachingDefs,
};
use pst_dominators::{dominator_tree_in, iterative_dominator_tree, Direction};
use pst_lang::VarId;
use pst_workloads::{generate_function, random_cfg, ProgramGenConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Lengauer–Tarjan and Cooper–Harvey–Kennedy compute identical
    /// dominator and postdominator trees.
    #[test]
    fn dominator_implementations_agree(n in 3usize..40, extra in 0usize..40, seed in 0u64..10_000) {
        let cfg = random_cfg(n, extra, seed).unwrap();
        for (root, dir) in [(cfg.entry(), Direction::Forward), (cfg.exit(), Direction::Backward)] {
            let lt = dominator_tree_in(cfg.graph(), root, dir);
            let it = iterative_dominator_tree(cfg.graph(), root, dir);
            for node in cfg.graph().nodes() {
                prop_assert_eq!(lt.idom(node), it.idom(node));
            }
        }
    }

    /// The fast cycle-equivalence algorithm agrees with the §3.3
    /// bracket-set formulation on CFG closures.
    #[test]
    fn bracket_set_formulations_agree(n in 3usize..30, extra in 0usize..30, seed in 0u64..10_000) {
        let cfg = random_cfg(n, extra, seed).unwrap();
        let (s, _) = cfg.to_strongly_connected();
        let fast = CycleEquiv::compute(&s, cfg.entry()).unwrap();
        let slow = pst_core::cycle_equiv_slow_brackets(&s, cfg.entry()).unwrap();
        prop_assert_eq!(fast, slow);
    }

    /// Control regions: linear algorithm vs both baselines on random CFGs.
    #[test]
    fn control_regions_three_ways(n in 3usize..28, extra in 0usize..28, seed in 0u64..10_000) {
        let cfg = random_cfg(n, extra, seed).unwrap();
        let fast = ControlRegions::compute(&cfg);
        prop_assert_eq!(&fast, &fow_control_regions(&cfg));
        prop_assert_eq!(&fast, &cfs_control_regions(&cfg));
    }

    /// Full stack on generated programs: φ-placement equality and
    /// data-flow solver agreement, including the amortized QPG context.
    #[test]
    fn generated_program_full_stack(seed in 0u64..20_000) {
        let config = ProgramGenConfig {
            target_stmts: 45,
            goto_prob: 0.08,
            ..Default::default()
        };
        let f = generate_function("p", &config, seed);
        let l = pst_lang::lower_function(&f).unwrap();
        let pst = ProgramStructureTree::build(&l.cfg);
        let collapsed = collapse_all(&l.cfg, &pst);

        let baseline = pst_ssa::place_phis_cytron(&l);
        let sparse = pst_ssa::place_phis_pst(&l, &pst, &collapsed).unwrap();
        prop_assert_eq!(&baseline, &sparse.placement);

        let rd = ReachingDefinitions::new(&l);
        prop_assert_eq!(
            solve_elimination(&l.cfg, &pst, &collapsed, &rd).unwrap(),
            solve_iterative(&l.cfg, &rd)
        );

        let ctx = QpgContext::new(&l.cfg, &pst).unwrap();
        for v in (0..l.var_count()).step_by(3) {
            let var = VarId::from_index(v);
            let p = SingleVariableReachingDefs::new(&l, var);
            let qpg = ctx.build_from_sites(p.sites()).unwrap();
            prop_assert_eq!(ctx.solve(&qpg, &p).unwrap(), solve_iterative(&l.cfg, &p));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Theorem 10: every SESE region of a reducible CFG is reducible.
    /// Structured programs (no goto) lower to reducible CFGs; each
    /// region's collapsed graph must then be reducible too.
    #[test]
    fn theorem10_regions_of_reducible_graphs_are_reducible(seed in 0u64..20_000) {
        let config = ProgramGenConfig {
            target_stmts: 50,
            goto_prob: 0.0,
            ..Default::default()
        };
        let f = generate_function("p", &config, seed);
        let l = pst_lang::lower_function(&f).unwrap();
        prop_assert!(pst_cfg::is_reducible(l.cfg.graph(), l.cfg.entry()));
        let pst = ProgramStructureTree::build(&l.cfg);
        let collapsed = collapse_all(&l.cfg, &pst);
        for r in pst.regions() {
            let mini = &collapsed[r.index()];
            if mini.graph.node_count() == 0 {
                continue;
            }
            prop_assert!(
                pst_cfg::is_reducible(&mini.graph, mini.head),
                "region {:?} of a reducible CFG is irreducible", r
            );
        }
    }

    /// §6.3 divide-and-conquer dominators and incremental maintenance
    /// compose with the rest of the stack on generated programs.
    #[test]
    fn pst_dominators_and_incremental_on_programs(seed in 0u64..10_000, us in 0usize..500, vs in 0usize..500) {
        let config = ProgramGenConfig { target_stmts: 35, goto_prob: 0.06, ..Default::default() };
        let f = generate_function("p", &config, seed);
        let l = pst_lang::lower_function(&f).unwrap();
        let pst = ProgramStructureTree::build(&l.cfg);
        let collapsed = collapse_all(&l.cfg, &pst);

        // Dominators via the PST equal Lengauer–Tarjan.
        let via_pst = pst_ssa::dominator_tree_via_pst(&l.cfg, &pst, &collapsed);
        let lt = pst_dominators::dominator_tree(l.cfg.graph(), l.cfg.entry());
        for node in l.cfg.graph().nodes() {
            prop_assert_eq!(via_pst.idom(node), lt.idom(node));
        }

        // Incremental insertion equals a from-scratch rebuild.
        let n = l.cfg.node_count();
        let u = pst_cfg::NodeId::from_index(us % (n - 1));
        let u = if u == l.cfg.exit() { l.cfg.entry() } else { u };
        let v = pst_cfg::NodeId::from_index(1 + vs % (n - 1));
        let grown = pst_core::insert_edge(&l.cfg, &pst, u, v).expect("valid insertion");
        let fresh = ProgramStructureTree::build(&grown.cfg);
        prop_assert_eq!(grown.pst.signature(), fresh.signature());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Cross-check the dominator view of loops against the PST view: on a
    /// reducible CFG, every natural loop lies inside a SESE region
    /// classified as `Loop`, and the loop's nodes are contained in that
    /// region.
    #[test]
    fn natural_loops_agree_with_loop_regions(seed in 0u64..10_000) {
        use pst_core::{classify_regions, RegionKind};
        use pst_dominators::LoopForest;
        let config = ProgramGenConfig { target_stmts: 40, goto_prob: 0.0, ..Default::default() };
        let f = generate_function("p", &config, seed);
        let l = pst_lang::lower_function(&f).unwrap();
        let pst = ProgramStructureTree::build(&l.cfg);
        let kinds = classify_regions(&l.cfg, &pst);
        let forest = LoopForest::compute(&l.cfg);
        for natural in forest.loops() {
            // The innermost region containing the header: walk up until a
            // region contains the whole loop body.
            let mut region = pst.region_of_node(natural.header);
            loop {
                let all_in = natural.body.iter().all(|&v| pst.contains_node(region, v));
                if all_in {
                    break;
                }
                region = pst.parent(region).expect("root contains everything");
            }
            // That region must be cyclic — classified Loop (it is
            // reducible by Theorem 10, so never Unstructured).
            prop_assert_eq!(
                kinds.kind(region),
                RegionKind::Loop,
                "header {:?}", natural.header
            );
        }
    }
}
