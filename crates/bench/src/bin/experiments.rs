//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p pst-bench --bin experiments -- all
//! cargo run --release -p pst-bench --bin experiments -- fig5
//! ```
//!
//! Subcommands: `table1 fig5 fig6 fig7 fig9 fig10 qpg timing all`.
//! EXPERIMENTS.md records each output next to the paper's numbers.
//!
//! `timing` reports the median wall time of 5 runs per pass. The
//! repository's benchmark (`pstbench/`, see docs/BENCHMARKING.md) is
//! the place for measurements that are tracked across changes.

use std::time::Instant;

use pst_bench::{analyze, corpus, kind_totals, pct, phi_fractions, ProcAnalysis};
use pst_controldep::{cfs_control_regions, fow_control_regions};
use pst_core::{canonical_regions, ControlRegions, CycleEquiv};
use pst_dataflow::{
    solve_elimination, solve_iterative, QpgContext, ReachingDefinitions, Seg,
    SingleVariableReachingDefs,
};
use pst_dominators::{dominator_tree, iterative_dominator_tree, Direction};
use pst_lang::VarId;
use pst_obs::fmt_ns;
use pst_ssa::{place_phis_cytron, place_phis_pst};
use pst_workloads::{random_cfg, PAPER_TABLE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let run_started = Instant::now();
    if let Ok(target) = std::env::var("PST_JOURNAL") {
        if !target.is_empty() {
            let seed = std::env::var("PST_TRACE_SEED")
                .ok()
                .and_then(|s| s.parse::<u64>().ok());
            if let Err(e) = pst_obs::journal::install(&target, seed) {
                eprintln!("experiments: cannot open journal `{target}`: {e}");
                std::process::exit(2);
            }
        }
    }
    pst_obs::journal::emit(pst_obs::journal::Event::RunStart {
        command: "experiments".to_string(),
        args: args.clone(),
    });
    let c = corpus();
    println!("# PST paper experiments (corpus seed 1994, 254 procedures)\n");
    let analyses = analyze(&c);
    match which {
        "table1" => table1(&analyses),
        "fig5" => fig5(&analyses),
        "fig6" => fig6(&analyses),
        "fig7" => fig7(&analyses),
        "fig9" => fig9(&analyses),
        "fig10" => fig10(&analyses),
        "qpg" => qpg(&analyses),
        "timing" => timing(&analyses),
        "all" => {
            table1(&analyses);
            fig5(&analyses);
            fig6(&analyses);
            fig7(&analyses);
            fig9(&analyses);
            fig10(&analyses);
            qpg(&analyses);
            timing(&analyses);
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; use table1|fig5|fig6|fig7|fig9|fig10|qpg|timing|all"
            );
            std::process::exit(2);
        }
    }
    report_observability();
    pst_obs::journal::emit(pst_obs::journal::Event::RunEnd {
        command: "experiments".to_string(),
        exit_code: 0,
        nanos: run_started.elapsed().as_nanos() as u64,
    });
    pst_obs::journal::uninstall();
}

/// Per-phase span/counter report for the whole run; `PST_METRICS=<path>`
/// additionally writes the report as JSON (see docs/OBSERVABILITY.md).
/// `-` means stderr, the same convention as the `pst` CLI.
fn report_observability() {
    if !pst_obs::enabled() {
        return;
    }
    let report = pst_obs::report();
    println!("## Per-phase observability report\n");
    print!("{}", report.render_text());
    if let Ok(path) = std::env::var("PST_METRICS") {
        if !path.is_empty() {
            let text = format!("{}\n", report.to_json());
            if path == "-" {
                eprint!("{text}");
            } else {
                match std::fs::write(&path, text) {
                    Ok(()) => println!("\nmetrics written to {path}"),
                    Err(e) => eprintln!("experiments: cannot write metrics to `{path}`: {e}"),
                }
            }
        }
    }
}

/// §4 Table: the benchmark suite.
fn table1(analyses: &[ProcAnalysis<'_>]) {
    println!("## Table 1 — benchmark suite (paper: 21549 lines, 254 procedures)\n");
    println!(
        "{:<8} {:<10} {:>12} {:>6} {:>12} {:>6}",
        "suite", "program", "paper lines", "procs", "our stmts", "procs"
    );
    let mut total_stmts = 0usize;
    let mut total_procs = 0usize;
    for &(suite, program, lines, procs) in PAPER_TABLE {
        let ours: Vec<&ProcAnalysis> = analyses
            .iter()
            .filter(|a| a.procedure.program == program)
            .collect();
        let stmts: usize = ours
            .iter()
            .map(|a| a.procedure.lowered.statement_count())
            .sum();
        total_stmts += stmts;
        total_procs += ours.len();
        println!(
            "{:<8} {:<10} {:>12} {:>6} {:>12} {:>6}",
            suite,
            program,
            lines,
            procs,
            stmts,
            ours.len()
        );
    }
    println!(
        "{:<8} {:<10} {:>12} {:>6} {:>12} {:>6}\n",
        "total", "", 21549, 254, total_stmts, total_procs
    );
}

/// Figure 5: region depth distribution and cumulative share.
fn fig5(analyses: &[ProcAnalysis<'_>]) {
    let merged =
        pst_core::PstStats::merge(&analyses.iter().map(|a| a.stats.clone()).collect::<Vec<_>>());
    println!("## Figure 5 — PST depth (paper: N=8609, avg 2.68, max 13, ~97% at depth <= 6)\n");
    println!(
        "N = {}   average depth = {:.2}   max depth = {}\n",
        merged.region_count,
        merged.average_depth(),
        merged.max_depth
    );
    println!("{:>5} {:>8} {:>10}", "depth", "regions", "cumulative");
    for d in 1..merged.depth_histogram.len() {
        println!(
            "{:>5} {:>8} {:>10}",
            d,
            merged.depth_histogram[d],
            pct(merged.cumulative_at_depth(d))
        );
    }
    println!(
        "\nshare of regions at depth <= 6: {}",
        pct(merged.cumulative_at_depth(6))
    );
    println!("merged stats (JSON): {}\n", merged.to_json());
}

/// Buckets procedures by size and prints an aggregate per bucket.
fn bucketed(analyses: &[ProcAnalysis<'_>], label: &str, f: impl Fn(&ProcAnalysis<'_>) -> f64) {
    const BUCKETS: &[(usize, usize)] = &[
        (0, 25),
        (25, 50),
        (50, 100),
        (100, 200),
        (200, 400),
        (400, usize::MAX),
    ];
    println!("{:>14} {:>6} {:>14}", "size bucket", "procs", label);
    for &(lo, hi) in BUCKETS {
        let in_bucket: Vec<f64> = analyses
            .iter()
            .filter(|a| a.stats.procedure_size >= lo && a.stats.procedure_size < hi)
            .map(&f)
            .collect();
        if in_bucket.is_empty() {
            continue;
        }
        let avg = in_bucket.iter().sum::<f64>() / in_bucket.len() as f64;
        let hi_label = if hi == usize::MAX {
            "+".to_string()
        } else {
            format!("-{hi}")
        };
        println!(
            "{:>14} {:>6} {:>14.2}",
            format!("{lo}{hi_label}"),
            in_bucket.len(),
            avg
        );
    }
    println!();
}

/// Figure 6: PST size and depth versus procedure size.
fn fig6(analyses: &[ProcAnalysis<'_>]) {
    println!("## Figure 6(a) — PST size vs procedure size (paper: grows with size)\n");
    bucketed(analyses, "avg regions", |a| a.stats.region_count as f64);
    println!("## Figure 6(b) — average PST depth vs procedure size (paper: flat)\n");
    bucketed(analyses, "avg depth", |a| a.stats.average_depth());
}

/// Figure 7: weighted proportion of regions by kind.
fn fig7(analyses: &[ProcAnalysis<'_>]) {
    println!("## Figure 7 — weighted region kinds (paper: blocks 23.2%, other ~2%)\n");
    let totals = kind_totals(analyses);
    let total: usize = totals.iter().map(|(_, w)| w).sum();
    for (kind, w) in &totals {
        println!(
            "{:>14}: {:>6}  ({})",
            kind.to_string(),
            w,
            pct(*w as f64 / total as f64)
        );
    }
    let structured = analyses
        .iter()
        .filter(|a| a.classification.is_completely_structured())
        .count();
    println!(
        "\ncompletely structured procedures: {structured} of {} (paper: 182 of 254)",
        analyses.len()
    );
    let unstructured_weight: usize = totals
        .iter()
        .filter(|(k, _)| !k.is_structured())
        .map(|(_, w)| w)
        .sum();
    println!(
        "unstructured (dag + cyclic) share: {}\n",
        pct(unstructured_weight as f64 / total as f64)
    );
}

/// Figure 9: maximum collapsed region size vs procedure size.
fn fig9(analyses: &[ProcAnalysis<'_>]) {
    println!("## Figure 9 — max region size vs procedure size (paper: bounded, no growth)\n");
    bucketed(analyses, "avg max-region", |a| {
        a.stats.max_collapsed_size as f64
    });
}

/// Figure 10: fraction of regions examined per variable while placing φs.
fn fig10(analyses: &[ProcAnalysis<'_>]) {
    let fr = phi_fractions(analyses);
    println!(
        "## Figure 10 — regions examined per variable during phi-placement (paper: N=5072, 70% of variables examine < 1/5)\n"
    );
    println!("N = {} variables\n", fr.len());
    println!("{:>12} {:>10}", "fraction", "variables");
    for bin in 0..10 {
        let lo = bin as f64 / 10.0;
        let hi = lo + 0.1;
        let count = fr
            .iter()
            .filter(|&&f| f >= lo && (f < hi || bin == 9))
            .count();
        println!(
            "{:>12} {:>10}",
            format!("{:.0}-{:.0}%", lo * 100.0, hi * 100.0),
            count
        );
    }
    let below_fifth = fr.iter().filter(|&&f| f < 0.2).count();
    println!(
        "\nvariables examining < 20% of regions: {}\n",
        pct(below_fifth as f64 / fr.len() as f64)
    );
}

/// §6.2: QPG size relative to the CFG, plus the §6.3 SEG comparison.
fn qpg(analyses: &[ProcAnalysis<'_>]) {
    println!(
        "## QPG size — quick propagation graphs (paper: < 10% of statement-level CFG on average)\n"
    );
    let mut node_ratios = Vec::new();
    let mut stmt_ratios = Vec::new();
    let mut seg_ratios = Vec::new();
    let mut seg_smaller = 0usize;
    let mut total = 0usize;
    for a in analyses {
        let l = &a.procedure.lowered;
        let stmt_size = l.statement_count().max(l.cfg.node_count());
        let ctx = QpgContext::new(&l.cfg, &a.pst).expect("PST matches its CFG");
        for v in 0..l.var_count() {
            let var = VarId::from_index(v);
            let problem = SingleVariableReachingDefs::new(l, var);
            let q = ctx
                .build_from_sites(problem.sites())
                .expect("PST matches its CFG");
            node_ratios.push(q.node_count() as f64 / l.cfg.node_count() as f64);
            stmt_ratios.push(q.node_count() as f64 / stmt_size as f64);
            let seg = Seg::build(&l.cfg, &problem).expect("forward problem");
            seg_ratios.push(seg.node_count() as f64 / l.cfg.node_count() as f64);
            if seg.node_count() <= q.node_count() {
                seg_smaller += 1;
            }
            total += 1;
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!("instances (procedure x variable): {}", node_ratios.len());
    println!(
        "average QPG size vs block-level CFG:     {}",
        pct(avg(&node_ratios))
    );
    println!(
        "average QPG size vs statement-level CFG: {}",
        pct(avg(&stmt_ratios))
    );
    println!(
        "\n§6.3 comparison — sparse evaluation graphs (paper: SEGs \"in general will be smaller\"):"
    );
    println!(
        "average SEG size vs block-level CFG:     {}",
        pct(avg(&seg_ratios))
    );
    println!(
        "instances where SEG <= QPG: {} ({})\n",
        seg_smaller,
        pct(seg_smaller as f64 / total as f64)
    );
}

/// §3/§5 timing claims, measured over the whole corpus: each pass runs
/// [`REPS`] times and reports the median.
fn timing(analyses: &[ProcAnalysis<'_>]) {
    println!("## Timing — corpus totals, median of {REPS} runs (paper: cycle equivalence beats Lengauer-Tarjan; control regions in O(E) beat O(EN) refinement)\n");

    // The paper's implementation treats the end->start edge implicitly
    // (doubly-linked CFG edges); we materialize S once, outside the timed
    // region, so the comparison is algorithm-vs-algorithm.
    let closures: Vec<(pst_cfg::Graph, pst_cfg::NodeId)> = analyses
        .iter()
        .map(|a| {
            let cfg = &a.procedure.lowered.cfg;
            (cfg.to_strongly_connected().0, cfg.entry())
        })
        .collect();
    let contexts: Vec<QpgContext> = analyses
        .iter()
        .map(|a| QpgContext::new(&a.procedure.lowered.cfg, &a.pst).expect("PST matches its CFG"))
        .collect();

    let reaching: Vec<ReachingDefinitions> = analyses
        .iter()
        .map(|a| ReachingDefinitions::new(&a.procedure.lowered))
        .collect();

    type Pass<'p> = (&'static str, &'static str, Box<dyn Fn() + 'p>);
    let passes: Vec<Pass<'_>> = vec![
        (
            "cycle_equiv_fast",
            "cycle equivalence (fast, Fig. 4)",
            Box::new(|| {
                for (s, entry) in &closures {
                    std::hint::black_box(CycleEquiv::compute_unchecked(s, *entry));
                }
            }),
        ),
        (
            "dominators_lt",
            "Lengauer-Tarjan dominators",
            Box::new(|| {
                for a in analyses {
                    let cfg = &a.procedure.lowered.cfg;
                    std::hint::black_box(dominator_tree(cfg.graph(), cfg.entry()));
                }
            }),
        ),
        (
            "dominators_iterative",
            "iterative (CHK) dominators",
            Box::new(|| {
                for a in analyses {
                    let cfg = &a.procedure.lowered.cfg;
                    std::hint::black_box(iterative_dominator_tree(
                        cfg.graph(),
                        cfg.entry(),
                        Direction::Forward,
                    ));
                }
            }),
        ),
        (
            "sese_detection",
            "SESE region detection (CE + DFS)",
            Box::new(|| {
                for a in analyses {
                    std::hint::black_box(canonical_regions(&a.procedure.lowered.cfg));
                }
            }),
        ),
        (
            "control_regions_linear",
            "control regions, linear (ours)",
            Box::new(|| {
                for a in analyses {
                    std::hint::black_box(ControlRegions::compute(&a.procedure.lowered.cfg));
                }
            }),
        ),
        (
            "control_regions_cfs",
            "control regions, CFS refinement",
            Box::new(|| {
                for a in analyses {
                    std::hint::black_box(cfs_control_regions(&a.procedure.lowered.cfg));
                }
            }),
        ),
        (
            "control_regions_fow",
            "control regions, FOW hashing",
            Box::new(|| {
                for a in analyses {
                    std::hint::black_box(fow_control_regions(&a.procedure.lowered.cfg));
                }
            }),
        ),
        (
            "phi_cytron",
            "phi placement, Cytron IDF",
            Box::new(|| {
                for a in analyses {
                    std::hint::black_box(place_phis_cytron(&a.procedure.lowered));
                }
            }),
        ),
        (
            "phi_pst",
            "phi placement, PST divide-and-conquer",
            Box::new(|| {
                for a in analyses {
                    std::hint::black_box(
                        place_phis_pst(&a.procedure.lowered, &a.pst, &a.collapsed)
                            .expect("CFG/PST pair is consistent"),
                    );
                }
            }),
        ),
        (
            "dataflow_iterative",
            "per-var reaching defs, full iterative",
            Box::new(|| {
                for a in analyses {
                    let l = &a.procedure.lowered;
                    for v in 0..l.var_count() {
                        let p = SingleVariableReachingDefs::new(l, VarId::from_index(v));
                        std::hint::black_box(solve_iterative(&l.cfg, &p));
                    }
                }
            }),
        ),
        (
            "dataflow_qpg",
            "per-var reaching defs, QPG",
            Box::new(|| {
                for (a, ctx) in analyses.iter().zip(&contexts) {
                    let l = &a.procedure.lowered;
                    for v in 0..l.var_count() {
                        let p = SingleVariableReachingDefs::new(l, VarId::from_index(v));
                        let q = ctx.build_from_sites(p.sites()).unwrap();
                        std::hint::black_box(ctx.solve(&q, &p).unwrap());
                    }
                }
            }),
        ),
        (
            "dataflow_seg",
            "per-var reaching defs, SEG (CCF91)",
            Box::new(|| {
                for a in analyses {
                    let l = &a.procedure.lowered;
                    for v in 0..l.var_count() {
                        let p = SingleVariableReachingDefs::new(l, VarId::from_index(v));
                        let seg = Seg::build(&l.cfg, &p).expect("reaching definitions is forward");
                        std::hint::black_box(seg.solve(&l.cfg, &p));
                    }
                }
            }),
        ),
        (
            "reaching_iterative",
            "all-var reaching defs, iterative",
            Box::new(|| {
                for (a, rd) in analyses.iter().zip(&reaching) {
                    std::hint::black_box(solve_iterative(&a.procedure.lowered.cfg, rd));
                }
            }),
        ),
        (
            "reaching_elimination",
            "all-var reaching defs, PST elimination",
            Box::new(|| {
                for (a, rd) in analyses.iter().zip(&reaching) {
                    let cfg = &a.procedure.lowered.cfg;
                    std::hint::black_box(
                        solve_elimination(cfg, &a.pst, &a.collapsed, rd)
                            .expect("reaching definitions is forward"),
                    );
                }
            }),
        ),
        (
            "reaching_qpg",
            "all-var reaching defs, QPG",
            Box::new(|| {
                for (rd, ctx) in reaching.iter().zip(&contexts) {
                    let sites: Vec<pst_cfg::NodeId> = rd.sites().iter().map(|s| s.node).collect();
                    let q = ctx.build_from_sites(&sites).unwrap();
                    std::hint::black_box(ctx.solve(&q, rd).unwrap());
                }
            }),
        ),
    ];

    println!("{:<44} {:>10}", "pass (corpus total)", "median");
    let mut medians = Vec::with_capacity(passes.len());
    for (name, label, f) in &passes {
        let median = median_ns(f.as_ref());
        println!("{:<44} {:>10}", label, fmt_ns(median));
        medians.push((*name, median.max(1) as f64));
    }
    let median_of = |name: &str| {
        medians
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, m)| m)
            .expect("pass exists")
    };
    println!(
        "\ncycle equivalence vs Lengauer-Tarjan: {:.2}x",
        median_of("dominators_lt") / median_of("cycle_equiv_fast")
    );
    println!(
        "linear control regions vs CFS refinement: {:.2}x",
        median_of("control_regions_cfs") / median_of("control_regions_linear")
    );
    println!();
    refinement_curve();
}

/// §5 as a curve: the linear control-region algorithm against the
/// O(E·N) CFS refinement and FOW set hashing on random CFGs of growing
/// size. The refinement's gap widens with n; FOW stays fast on average,
/// as the paper concedes (its weakness is the worst case).
fn refinement_curve() {
    println!("## Control regions vs size — random CFGs, median of {REPS} runs (paper §5: refinement is O(EN), ours O(E))\n");
    println!(
        "{:>6} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "n", "edges", "linear", "cfs", "fow", "cfs/linear"
    );
    for n in [50usize, 200, 800, 2_000] {
        let cfg = random_cfg(n, n / 2, 11).expect("generator parameters are valid");
        let linear = median_ns(&|| {
            std::hint::black_box(ControlRegions::compute(&cfg));
        });
        let cfs = median_ns(&|| {
            std::hint::black_box(cfs_control_regions(&cfg));
        });
        let fow = median_ns(&|| {
            std::hint::black_box(fow_control_regions(&cfg));
        });
        println!(
            "{:>6} {:>6} {:>10} {:>10} {:>10} {:>9.1}x",
            n,
            cfg.edge_count(),
            fmt_ns(linear),
            fmt_ns(cfs),
            fmt_ns(fow),
            cfs.max(1) as f64 / linear.max(1) as f64
        );
    }
    println!();
}

/// Runs per timed pass.
const REPS: usize = 5;

/// Median wall time of [`REPS`] runs of `f`, in nanoseconds.
fn median_ns(f: &dyn Fn()) -> u64 {
    let mut samples: Vec<u64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[REPS / 2]
}
