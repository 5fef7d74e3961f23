//! `program-corpus`: a seeded corpus of generated mini-language
//! functions through the whole pipeline a `pst` / `pst lint` user pays
//! for: parse → lower → PST → control regions → SSA → reaching
//! definitions for every variable → lint.
//!
//! Lint and dataflow take most of the time here and the paper's core a
//! few percent, so front-end, SSA, dataflow and lint gains show on this
//! workload, and a core change tuned for huge graphs that taxes small
//! functions shows as a loss.

use std::time::{Duration, Instant};

use pst_analysis::{lint_function, LintConfig};
use pst_core::{collapse_all, ControlRegions, ProgramStructureTree};
use pst_dataflow::{solve_iterative, QpgContext, SingleVariableReachingDefs, Solution};
use pst_lang::{lower_program, parse_program, pretty_function, LoweredFunction, VarId};
use pst_ssa::{place_phis_pst, rename, PhiPlacement};
use pst_verify::{
    check_control_regions, check_cycle_equiv, check_phi, check_pst, check_sese,
    DEFAULT_ORACLE_BUDGET,
};
use pst_workloads::{generate_function, ProgramGenConfig};

use crate::layers::{layer_metrics, TracedPass};
use crate::serve::{Unit, MINI_METHODS};
use crate::stats::{fingerprint, log_spaced, loglog_slope, median, Rng, FNV_START};
use crate::trace::Tracer;
use crate::{alloc, Fault, Options, Outcome, Scale, Setups};

/// One corpus function as source text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Source {
    /// Mini-language text of one function.
    pub text: String,
    /// Edges of its lowered CFG.
    pub edges: u64,
}

/// A generated function of about `target` statements: of five seeded
/// candidates, the one of median CFG size. The generator's size scatter
/// would otherwise make the inputs at one place in a workload differ in
/// cost from seed to seed.
pub fn generated(
    name: &str,
    target: usize,
    goto_prob: f64,
    max_vars: usize,
    seed: u64,
) -> Result<Source, String> {
    let mut rng = Rng::new(seed, 0);
    let mut candidates = (0..5)
        .map(|_| candidate(name, target, goto_prob, max_vars, rng.next_u64()))
        .collect::<Result<Vec<_>, _>>()?;
    candidates.sort_by_key(|c| c.edges);
    Ok(candidates.swap_remove(2))
}

fn candidate(
    name: &str,
    target: usize,
    goto_prob: f64,
    max_vars: usize,
    seed: u64,
) -> Result<Source, String> {
    let config = ProgramGenConfig {
        target_stmts: target,
        max_depth: 6,
        num_vars: (4 + target / 3).min(max_vars),
        goto_prob,
        loop_prob: 0.3,
    };
    let text = pretty_function(&generate_function(name, &config, seed));
    let program = parse_program(&text).map_err(|e| format!("{name}: {e}"))?;
    let lowered = lower_program(&program).map_err(|e| format!("{name}: {e}"))?;
    Ok(Source {
        edges: lowered.iter().map(|f| f.cfg.edge_count() as u64).sum(),
        text,
    })
}

/// Goto probabilities the corpus mixes.
const GOTO_MIX: [f64; 3] = [0.0, 0.04, 0.15];

/// `count` functions of log-spaced sizes from `stmts.0` to `stmts.1`
/// statements, goto probability cycling over [`GOTO_MIX`], as request
/// units in size order.
pub fn mini_units(
    seed: u64,
    stream: u64,
    count: usize,
    stmts: (f64, f64),
) -> Result<Vec<Unit>, String> {
    (0..count)
        .map(|i| {
            let s = generated(
                &format!("u{i}"),
                log_spaced(stmts.0, stmts.1, i, count),
                GOTO_MIX[i % 3],
                40,
                Rng::new(seed, stream + i as u64).next_u64(),
            )?;
            Ok(Unit::new(true, s.text, s.edges, MINI_METHODS))
        })
        .collect()
}

/// The corpus for `seed`: sizes spread log-uniformly over ≈40–1500
/// statements, one draw per stratum so every seed covers the whole range.
pub fn generate(seed: u64, scale: Scale) -> Result<Vec<Source>, String> {
    let (count, lo, hi) = match scale {
        Scale::Full => (48, 40.0f64, 1500.0f64),
        Scale::Small => (6, 20.0, 80.0),
    };
    let mut rng = Rng::new(seed, 20);
    let strata = rng.permutation(count);
    (0..count)
        .map(|i| {
            let u = (strata[i] as f64 + rng.next_f64()) / count as f64;
            let target = (lo.ln() + u * (hi.ln() - lo.ln())).exp().round() as usize;
            generated(
                &format!("f{i}"),
                target,
                GOTO_MIX[i % 3],
                90,
                Rng::new(seed, 100 + i as u64).next_u64(),
            )
        })
        .collect()
}

/// What one function's pipeline produced.
pub struct Output {
    /// The lowered function.
    pub function: LoweredFunction,
    /// Its PST.
    pub pst: ProgramStructureTree,
    /// Its control regions.
    pub cr: ControlRegions,
    /// PST-driven φ placement.
    pub phi: PhiPlacement,
    /// φs after renaming.
    pub ssa_phis: usize,
    /// Reaching definitions per variable, from the QPGs.
    pub solutions: Vec<Solution>,
    /// Σ QPG nodes over variables.
    pub qpg_nodes: u64,
    /// Lint diagnostics.
    pub diagnostics: usize,
}

/// The full pipeline over one function's source.
pub fn analyse(t: &mut Tracer, op: u64, text: &str) -> Result<Output, String> {
    let program = t
        .span("lang.parse", op, |_| parse_program(text))
        .map_err(|e| format!("parse: {e}"))?;
    let mut lowered = t
        .span("lang.lower", op, |_| lower_program(&program))
        .map_err(|e| format!("lower: {e}"))?;
    let function = lowered.pop().ok_or("source holds no function")?;
    let f = &function;
    let pst = t.span("core.pst", op, |_| ProgramStructureTree::build(&f.cfg));
    let cr = t.span("core.control_regions", op, |_| {
        ControlRegions::compute(&f.cfg)
    });
    let phi = t
        .span("ssa.phi", op, |_| {
            place_phis_pst(f, &pst, &collapse_all(&f.cfg, &pst))
        })
        .map_err(|e| format!("phi: {e}"))?
        .placement;
    let ssa_phis = t
        .span("ssa.rename", op, |_| rename(f, &phi))
        .map_err(|e| format!("rename: {e}"))?
        .total_phis();
    let (solutions, qpg_nodes) = t
        .span(
            "dataflow.qpg",
            op,
            |_| -> Result<_, pst_dataflow::QpgError> {
                let ctx = QpgContext::new(&f.cfg, &pst)?;
                let mut solutions = Vec::with_capacity(f.var_count());
                let mut nodes = 0u64;
                for v in 0..f.var_count() {
                    let problem = SingleVariableReachingDefs::new(f, VarId::from_index(v));
                    let qpg = ctx.build_from_sites(problem.sites())?;
                    nodes += qpg.node_count() as u64;
                    solutions.push(ctx.solve(&qpg, &problem)?);
                }
                Ok((solutions, nodes))
            },
        )
        .map_err(|e| format!("qpg: {e}"))?;
    let diagnostics = t
        .span("analysis.lint", op, |_| {
            lint_function(f, program.functions.first(), &LintConfig::new())
        })
        .diagnostics
        .len();
    Ok(Output {
        function,
        pst,
        cr,
        phi,
        ssa_phis,
        solutions,
        qpg_nodes,
        diagnostics,
    })
}

/// A fingerprint every pass over the same function must reproduce.
pub fn output_fingerprint(o: &Output) -> u64 {
    let mut h = fingerprint(o.cr.classes().iter().map(|&c| u64::from(c)), FNV_START);
    for (_, nodes) in o.phi.iter() {
        h = fingerprint(nodes.iter().map(|n| n.index() as u64).chain([u64::MAX]), h);
    }
    h = fingerprint([o.ssa_phis as u64, o.qpg_nodes, o.diagnostics as u64], h);
    for s in &o.solutions {
        for n in o.function.cfg.graph().nodes() {
            h = fingerprint(s.value_in(n).iter().map(|i| i as u64).chain([u64::MAX]), h);
        }
    }
    h
}

/// Removes the first φ of the first variable that has one.
fn drop_one_phi(phi: &PhiPlacement) -> PhiPlacement {
    let mut lists: Vec<Vec<_>> = phi.iter().map(|(_, nodes)| nodes.to_vec()).collect();
    if let Some(list) = lists.iter_mut().find(|l| !l.is_empty()) {
        list.remove(0);
    }
    PhiPlacement::from_lists(lists)
}

/// Independent checks of one function's outputs: `(failed,
/// inconclusive, conclusive)` check counts.
pub fn verify(o: &Output, fault: Option<Fault>) -> (u64, u64, u64) {
    let f = &o.function;
    let detection = o.pst.detection().expect("build records detection");
    let phi = match fault {
        Some(Fault::DropPhi) => drop_one_phi(&o.phi),
        _ => o.phi.clone(),
    };
    let ce = check_cycle_equiv(&f.cfg, detection, Some(DEFAULT_ORACLE_BUDGET));
    let (mut failed, mut inconclusive, mut conclusive) = (0, 0, 0);
    if ce.budget_exhausted {
        inconclusive += 1;
    } else {
        conclusive += 1;
        failed += u64::from(!ce.is_clean());
    }
    let checks = [
        check_sese(&f.cfg, detection).is_clean(),
        check_pst(&f.cfg, &o.pst).is_clean(),
        check_control_regions(&f.cfg, &o.cr).is_clean(),
        check_phi(f, &phi).is_clean(),
        // Reaching definitions from the QPGs against the iterative
        // solver over the whole CFG.
        (0..f.var_count()).all(|v| {
            let problem = SingleVariableReachingDefs::new(f, VarId::from_index(v));
            o.solutions[v] == solve_iterative(&f.cfg, &problem)
        }),
    ];
    conclusive += checks.len() as u64;
    failed += checks.iter().filter(|ok| !**ok).count() as u64;
    (failed, inconclusive, conclusive)
}

/// Exact counts of one pass: QPG solves, Σ QPG nodes, Σ CFG nodes per
/// solve, lint diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// QPG solves (one per variable per function).
    pub qpg_solves: u64,
    /// Σ QPG nodes.
    pub qpg_nodes: u64,
    /// Σ CFG nodes over the same solves.
    pub cfg_nodes: u64,
    /// Lint diagnostics.
    pub diagnostics: u64,
}

impl Counts {
    /// Adds one function's output.
    pub fn add(&mut self, o: &Output) {
        let vars = o.function.var_count() as u64;
        self.qpg_solves += vars;
        self.qpg_nodes += o.qpg_nodes;
        self.cfg_nodes += vars * o.function.cfg.node_count() as u64;
        self.diagnostics += o.diagnostics as u64;
    }

    /// The counter metrics.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("dataflow.qpg_solves".to_string(), self.qpg_solves as f64),
            (
                "dataflow.qpg_size_ratio".to_string(),
                self.qpg_nodes as f64 / self.cfg_nodes.max(1) as f64,
            ),
            (
                "analysis.lint.diagnostics".to_string(),
                self.diagnostics as f64,
            ),
        ]
    }
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (mut setups, sources) = Setups::first(|| {
        let sources = generate(opts.seed, opts.scale)?;
        let mut off = Tracer::new(false, Instant::now());
        for s in &sources {
            std::hint::black_box(analyse(&mut off, 0, &s.text)?);
        }
        Ok(sources)
    })?;
    let mut out = Outcome::default();

    let epoch = Instant::now();
    let mut t = Tracer::new(false, epoch);
    let mut measure_end = epoch + Duration::from_secs_f64(opts.seconds);
    let mut fps: Vec<Option<u64>> = vec![None; sources.len()];
    let mut fn_ns: Vec<Vec<f64>> = vec![Vec::new(); sources.len()];
    let mut bad = vec![false; sources.len()];
    let mut passes = 0u64;
    let mut pass_rates = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut traced = Vec::new();
    let mut counts: Option<Counts> = None;
    let total_edges: u64 = sources.iter().map(|s| s.edges).sum();
    while passes < 2 || Instant::now() < measure_end {
        setups.between_passes(&mut measure_end, opts.seconds)?;
        let tracing = opts.trace && passes % 2 == 1;
        t.set_on(tracing);
        alloc::set_counting(tracing);
        let from = t.next_index();
        let mut wall = 0u64;
        let mut pass_counts = Counts::default();
        for (i, s) in sources.iter().enumerate() {
            let op = (passes << 8) | i as u64;
            let t0 = Instant::now();
            let result = t.span("function", op, |t| analyse(t, op, &s.text));
            let ns = t0.elapsed().as_nanos() as u64;
            wall += ns;
            match result {
                Ok(o) => {
                    let fp = output_fingerprint(&o);
                    bad[i] |= *fps[i].get_or_insert(fp) != fp;
                    pass_counts.add(&o);
                    if !tracing {
                        fn_ns[i].push(ns as f64);
                    }
                }
                Err(_) => bad[i] = true,
            }
        }
        // Exact counts must repeat pass after pass.
        if *counts.get_or_insert(pass_counts) != pass_counts {
            bad.iter_mut().for_each(|b| *b = true);
        }
        if tracing {
            traced.push(TracedPass::from_spans(
                t.spans(),
                from,
                |op| sources[(op & 0xff) as usize].edges,
                wall,
            )?);
        } else {
            untraced_wall.push(wall as f64);
            pass_rates.push(total_edges as f64 * 1e9 / wall as f64);
        }
        passes += 1;
    }
    t.set_on(false);
    alloc::set_counting(false);
    let rss = crate::serve::peak_rss_mb("/proc/self/status");
    setups.finish(&mut out)?;

    // The fast quartile of passes, as in cfg-scale.
    out.put(
        "edges_per_s",
        crate::stats::quantile(&pass_rates, 0.75),
        pass_rates.len(),
    );
    let points: Vec<(f64, f64)> = sources
        .iter()
        .zip(&fn_ns)
        .map(|(s, ns)| (s.edges as f64, median(ns)))
        .collect();
    out.put("scaling_slope", loglog_slope(&points), points.len());
    out.put("peak_rss_mb", rss, 1);
    let counts = counts.unwrap_or_default();
    for (name, v) in counts.metrics() {
        out.put(&name, v, passes as usize);
    }

    if opts.trace {
        for (name, v) in layer_metrics(&traced, &untraced_wall) {
            out.put(&name, v, traced.len());
        }
        for p in &traced {
            p.check()
                .map_err(|e| format!("program-corpus: layer sums: {e}"))?;
        }
        crate::write_trace(opts, "program-corpus", &t)?;
    }

    let mut off = Tracer::new(false, Instant::now());
    for (i, s) in sources.iter().enumerate() {
        let fault = (i == 0).then_some(opts.fault).flatten();
        let (failed, inconclusive, conclusive) = match analyse(&mut off, 0, &s.text) {
            Ok(o) => {
                bad[i] |= fps[i] != Some(output_fingerprint(&o));
                verify(&o, fault)
            }
            Err(_) => (1, 0, 0),
        };
        out.inconclusive += inconclusive;
        out.checks += conclusive;
        if failed > 0 || bad[i] {
            out.failed += passes;
        }
        out.attempted += passes;
    }
    Ok(out)
}
