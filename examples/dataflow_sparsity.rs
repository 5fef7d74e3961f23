//! Sparse data-flow analysis with quick propagation graphs (§6.2): for
//! each variable, bypass every SESE region that never touches it, solve
//! reaching definitions on the tiny residual graph, and check the result
//! against the full iterative solution.
//!
//! ```text
//! cargo run -p pst-integration --example dataflow_sparsity
//! ```

use pst_core::ProgramStructureTree;
use pst_dataflow::{solve_iterative, QpgContext, SingleVariableReachingDefs};
use pst_lang::{lower_function, parse_program, VarId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = "
        fn pipeline(n) {
            a = 1;
            while (n > 0) { b = b + n; n = n - 1; }
            for (i = 0; i < 8; i = i + 1) { c = c * 2; }
            if (a > 0) { d = b; } else { d = c; }
            a = a + d;
            return a;
        }";
    let program = parse_program(source)?;
    let lowered = lower_function(&program.functions[0])?;
    let pst = ProgramStructureTree::build(&lowered.cfg);
    let ctx = QpgContext::new(&lowered.cfg, &pst).expect("PST matches its CFG");

    println!(
        "CFG: {} blocks / {} statements; PST: {} regions\n",
        lowered.cfg.node_count(),
        lowered.statement_count(),
        pst.canonical_region_count(),
    );
    println!("per-variable quick propagation graphs:");
    for v in 0..lowered.var_count() {
        let var = VarId::from_index(v);
        let problem = SingleVariableReachingDefs::new(&lowered, var);
        let qpg = ctx
            .build_from_sites(problem.sites())
            .expect("PST matches its CFG");
        let sparse = ctx.solve(&qpg, &problem).expect("PST matches its CFG");
        let full = solve_iterative(&lowered.cfg, &problem);
        assert_eq!(sparse, full, "QPG solution must equal the full solution");
        println!(
            "  {:>4}: {} defs, QPG {:>2} of {} nodes ({:>5.1}%) — solution verified",
            lowered.var_name(var),
            problem.sites().len(),
            qpg.node_count(),
            lowered.cfg.node_count(),
            100.0 * qpg.node_count() as f64 / lowered.cfg.node_count() as f64,
        );
    }
    Ok(())
}
