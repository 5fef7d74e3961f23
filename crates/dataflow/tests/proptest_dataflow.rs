//! Property tests: all three solving strategies agree on generated
//! programs, for every problem they support, and the derived sequence
//! agrees with the reducibility test.

use proptest::prelude::*;
use pst_core::{collapse_all, ProgramStructureTree};
use pst_dataflow::{
    derived_sequence, solve_elimination, solve_iterative, DefiniteAssignment, LiveVariables, Qpg,
    QpgContext, ReachingDefinitions, SingleVariableReachingDefs,
};
use pst_lang::VarId;
use pst_workloads::{generate_function, ProgramGenConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn elimination_matches_iterative(seed in 0u64..50_000, goto in 0usize..2) {
        let config = ProgramGenConfig {
            target_stmts: 50,
            goto_prob: if goto == 1 { 0.1 } else { 0.0 },
            ..Default::default()
        };
        let f = generate_function("p", &config, seed);
        let l = pst_lang::lower_function(&f).unwrap();
        let pst = ProgramStructureTree::build(&l.cfg);
        let collapsed = collapse_all(&l.cfg, &pst);

        let rd = ReachingDefinitions::new(&l);
        prop_assert_eq!(
            solve_elimination(&l.cfg, &pst, &collapsed, &rd).unwrap(),
            solve_iterative(&l.cfg, &rd)
        );
        let da = DefiniteAssignment::new(&l);
        prop_assert_eq!(
            solve_elimination(&l.cfg, &pst, &collapsed, &da).unwrap(),
            solve_iterative(&l.cfg, &da)
        );
    }

    #[test]
    fn qpg_matches_iterative_per_variable(seed in 0u64..50_000) {
        let config = ProgramGenConfig { target_stmts: 50, ..Default::default() };
        let f = generate_function("p", &config, seed);
        let l = pst_lang::lower_function(&f).unwrap();
        let pst = ProgramStructureTree::build(&l.cfg);
        for v in 0..l.var_count() {
            let var = VarId::from_index(v);
            let problem = SingleVariableReachingDefs::new(&l, var);
            let qpg = Qpg::build(&l.cfg, &pst, &problem).unwrap();
            prop_assert!(qpg.node_count() <= l.cfg.node_count());
            prop_assert_eq!(
                qpg.solve(&l.cfg, &pst, &problem).unwrap(),
                solve_iterative(&l.cfg, &problem),
                "variable {}", v
            );
        }
    }

    #[test]
    fn liveness_is_consistent_with_reaching_defs(seed in 0u64..20_000) {
        // Smoke property: a variable with no definition sites is never
        // "reached", and a variable never used is dead at the entry of the
        // exit block.
        let f = generate_function("p", &ProgramGenConfig::default(), seed);
        let l = pst_lang::lower_function(&f).unwrap();
        let lv = LiveVariables::new(&l);
        let sol = solve_iterative(&l.cfg, &lv);
        prop_assert!(sol.value_in(l.cfg.exit()).is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// The intersection problem also agrees across solvers, and the
    /// amortized QPG context matches the plain builder.
    #[test]
    fn expression_problems_agree_across_solvers(seed in 50_000u64..100_000) {
        let config = ProgramGenConfig { target_stmts: 40, ..Default::default() };
        let f = generate_function("p", &config, seed);
        let l = pst_lang::lower_function(&f).unwrap();
        let pst = ProgramStructureTree::build(&l.cfg);
        let collapsed = collapse_all(&l.cfg, &pst);

        let da = DefiniteAssignment::new(&l);
        prop_assert_eq!(
            solve_elimination(&l.cfg, &pst, &collapsed, &da).unwrap(),
            solve_iterative(&l.cfg, &da)
        );

        // QPG builders agree with each other and with the full solve.
        let ctx = QpgContext::new(&l.cfg, &pst).unwrap();
        for v in (0..l.var_count()).step_by(4) {
            let var = VarId::from_index(v);
            let p = SingleVariableReachingDefs::new(&l, var);
            let via_ctx = ctx.build_from_sites(p.sites()).unwrap();
            let via_build = Qpg::build(&l.cfg, &pst, &p).unwrap();
            prop_assert_eq!(via_ctx.node_count(), via_build.node_count());
            prop_assert_eq!(
                ctx.solve(&via_ctx, &p).unwrap(),
                via_build.solve(&l.cfg, &pst, &p).unwrap()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// The derived sequence collapses to one node exactly when the
    /// dominator-based reducibility test says so. No level has more
    /// intervals than the level below, and only a stuck last one, or one
    /// that drops self-loops, has as many.
    #[test]
    fn derived_sequence_agrees_with_reducibility(n in 3usize..40, extra in 0usize..30, seed in 0u64..10_000) {
        let cfg = pst_workloads::random_cfg(n, extra, seed).unwrap();
        let seq = derived_sequence(&cfg);
        prop_assert_eq!(seq.reducible, pst_cfg::is_reducible(cfg.graph(), cfg.entry()));
        let (&last, levels) = seq.interval_counts.split_last().unwrap();
        let mut below = cfg.node_count();
        for &k in levels {
            prop_assert!(k <= below, "{:?}", seq.interval_counts);
            below = k;
        }
        prop_assert_eq!(last == below, !seq.reducible, "{:?}", seq.interval_counts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// SEGs (Choi–Cytron–Ferrante) solve every sparse instance to the
    /// same solution as the full iterative solver and the QPG — and the
    /// paper's §6.3 size comparison (SEG ≤ QPG nodes) holds.
    #[test]
    fn seg_matches_iterative_and_qpg(seed in 100_000u64..150_000) {
        use pst_dataflow::{Qpg, Seg};
        let config = ProgramGenConfig { target_stmts: 45, goto_prob: 0.05, ..Default::default() };
        let f = generate_function("p", &config, seed);
        let l = pst_lang::lower_function(&f).unwrap();
        let pst = ProgramStructureTree::build(&l.cfg);
        for v in (0..l.var_count()).step_by(3) {
            let var = VarId::from_index(v);
            let p = SingleVariableReachingDefs::new(&l, var);
            let reference = solve_iterative(&l.cfg, &p);
            let seg = Seg::build(&l.cfg, &p).unwrap();
            prop_assert_eq!(seg.solve(&l.cfg, &p), reference.clone());
            let qpg = Qpg::build(&l.cfg, &pst, &p).unwrap();
            prop_assert_eq!(qpg.solve(&l.cfg, &pst, &p).unwrap(), reference);
        }
    }
}
