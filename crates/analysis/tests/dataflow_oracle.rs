//! An independent oracle for the dataflow rules `PST-D001` and `PST-D002`.
//!
//! `lint_function` answers both rules from one all-variable reaching
//! definitions solution. The oracle here recomputes them the long way:
//! one `SingleVariableReachingDefs` instance per variable, each solved by
//! the plain iterative solver over the whole CFG. The two must report the
//! same findings on generated programs, structured and not; and a shared
//! solution missing one definition must make them disagree, which shows
//! the comparison can fail.

use proptest::prelude::*;
use pst_analysis::{lint_dataflow, lint_function, Diagnostic, LintConfig};
use pst_cfg::NodeId;
use pst_core::ProgramStructureTree;
use pst_dataflow::{
    solve_iterative, QpgContext, ReachingDefinitions, SingleVariableReachingDefs, Solution,
};
use pst_lang::{lower_program, parse_program, pretty_function, LoweredFunction, SrcPos, VarId};
use pst_workloads::{generate_function, ProgramGenConfig};

/// What identifies one D-rule finding: rule, variable, position, nodes.
type Finding = (&'static str, String, Option<SrcPos>, Vec<NodeId>);

fn findings(diagnostics: &[Diagnostic]) -> Vec<Finding> {
    diagnostics
        .iter()
        .filter(|d| d.rule == "PST-D001" || d.rule == "PST-D002")
        .map(|d| {
            let var = d.message.split('`').nth(1).unwrap_or_default().to_string();
            (d.rule, var, d.pos, d.nodes.clone())
        })
        .collect()
}

/// A generated function, printed and parsed back so that its statements
/// carry source positions (`PST-D002` skips definitions without one).
/// The generator opens with one assignment per variable; every other one
/// is dropped, so that some reads are uninitialized on some or all paths.
fn generated(seed: u64, goto_prob: f64) -> LoweredFunction {
    let config = ProgramGenConfig {
        target_stmts: 60,
        goto_prob,
        ..Default::default()
    };
    let mut function = generate_function("p", &config, seed);
    let mut k = 0;
    function.body.stmts.retain(|_| {
        k += 1;
        k > config.num_vars || k % 2 == 1
    });
    let text = pretty_function(&function);
    let program = parse_program(&text).expect("printed programs parse");
    lower_program(&program)
        .expect("printed programs lower")
        .remove(0)
}

/// Upward-exposed reads of `v` per block, in node order: a read before
/// any definition of `v` in the same block (the branch reads last).
fn exposed_uses(f: &LoweredFunction, v: VarId) -> Vec<(NodeId, Option<SrcPos>)> {
    let mut out = Vec::new();
    for n in f.cfg.graph().nodes() {
        let info = &f.blocks[n.index()];
        let reads = info
            .stmts
            .iter()
            .map(|s| (s.uses.contains(&v), s.def == Some(v), s.pos))
            .chain([(info.branch_uses.contains(&v), false, info.branch_pos)]);
        for (reads_v, defines_v, pos) in reads {
            if reads_v {
                out.push((n, pos));
                break;
            }
            if defines_v {
                break;
            }
        }
    }
    out
}

/// `PST-D001` and `PST-D002` from one single-variable problem per
/// variable, each solved iteratively over the whole CFG.
fn oracle(f: &LoweredFunction) -> Vec<Finding> {
    let mut d001 = Vec::new();
    let mut d002 = Vec::new();
    for v in (0..f.var_count()).map(VarId::from_index) {
        let name = f.var_name(v).to_string();
        let problem = SingleVariableReachingDefs::new(f, v);
        let solution = solve_iterative(&f.cfg, &problem);
        let exposed = exposed_uses(f, v);
        for &(n, pos) in &exposed {
            if solution.value_in(n).is_empty() {
                d001.push(("PST-D001", name.clone(), pos, vec![n]));
            }
        }
        // Fact `i` is "the last definition of `v` in block `sites[i]`".
        for (i, &node) in problem.sites().iter().enumerate() {
            let info = &f.blocks[node.index()];
            let defs: Vec<usize> = (0..info.stmts.len())
                .filter(|&k| info.stmts[k].def == Some(v))
                .collect();
            for (j, &k) in defs.iter().enumerate() {
                // Read again in the block before the next definition...
                let next = defs.get(j + 1).copied();
                let reads_after = |s: usize| info.stmts[s].uses.contains(&v);
                let local = match next {
                    Some(next) => (k + 1..=next).any(reads_after),
                    None => {
                        (k + 1..info.stmts.len()).any(reads_after) || info.branch_uses.contains(&v)
                    }
                };
                // ...or, for the block's last one, reaching an exposed read.
                let reaches = next.is_none()
                    && exposed
                        .iter()
                        .any(|&(m, _)| solution.value_in(m).contains(i));
                let pos = info.stmts[k].pos;
                if !local && !reaches && pos.is_some() {
                    d002.push((node, k, ("PST-D002", name.clone(), pos, vec![node])));
                }
            }
        }
    }
    // The lint reports dead definitions in (block, statement) order.
    d002.sort_by_key(|&(node, k, _)| (node, k));
    d001.extend(d002.into_iter().map(|(_, _, finding)| finding));
    d001
}

/// The all-variable solution `lint_function` shares between the rules.
fn shared_solution(f: &LoweredFunction, rd: &ReachingDefinitions) -> Solution {
    let pst = ProgramStructureTree::build(&f.cfg);
    let ctx = QpgContext::new(&f.cfg, &pst).expect("PST matches its CFG");
    let sites: Vec<NodeId> = rd.sites().iter().map(|s| s.node).collect();
    let qpg = ctx.build_from_sites(&sites).expect("PST matches its CFG");
    ctx.solve(&qpg, rd).expect("consistent QPG")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(90))]

    #[test]
    fn d_rules_match_the_per_variable_oracle(
        seed in 0u64..1_000_000,
        goto_prob in proptest::sample::select(vec![0.0, 0.04, 0.15]),
    ) {
        let f = generated(seed, goto_prob);
        let expected = oracle(&f);
        let report = lint_function(&f, None, &LintConfig::new());
        prop_assert_eq!(findings(&report.diagnostics), expected.clone());
        // The rules over the same solution, handed in from outside.
        let rd = ReachingDefinitions::new(&f);
        if !rd.sites().is_empty() {
            let solution = shared_solution(&f, &rd);
            let report = lint_dataflow(&f, &rd, &solution, &LintConfig::new());
            prop_assert_eq!(findings(&report.diagnostics), expected);
        }
    }
}

/// Dropping one definition from the shared solution — at every node —
/// must make the rules disagree with the oracle.
#[test]
fn a_solution_missing_one_definition_fails_the_comparison() {
    let mut rules_seen = Vec::new();
    for (seed, goto_prob) in [(1, 0.0), (2, 0.04), (3, 0.15)] {
        let f = generated(seed, goto_prob);
        let expected = oracle(&f);
        rules_seen.extend(expected.iter().map(|finding| finding.0));
        let rd = ReachingDefinitions::new(&f);
        let solution = shared_solution(&f, &rd);
        let config = LintConfig::new();
        assert_eq!(
            findings(&lint_dataflow(&f, &rd, &solution, &config).diagnostics),
            expected
        );
        // The first definition whose loss the rules can observe: one that
        // reaches some block from outside its own.
        let dropped = (0..rd.sites().len()).find(|&i| {
            let mut broken = solution.clone();
            let mut changed = false;
            for value in &mut broken.inp {
                if value.contains(i) {
                    value.remove(i);
                    changed = true;
                }
            }
            let report = lint_dataflow(&f, &rd, &broken, &config);
            changed && findings(&report.diagnostics) != expected
        });
        assert!(
            dropped.is_some(),
            "seed {seed}: no dropped definition was noticed"
        );
    }
    // The programs exercise both rules, so the comparison is not vacuous.
    assert!(rules_seen.contains(&"PST-D001") && rules_seen.contains(&"PST-D002"));
}
