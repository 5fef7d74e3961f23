//! `cfg-scale`: seeded valid CFGs on a doubling ladder, analysed in
//! process by the paper's own layers.
//!
//! The ladder runs from ≈1k to ≥128k edges because that is where a
//! linear-time claim can fail; dataflow, lint and the daemon do no work
//! here, so this is the workload on which their changes must read flat.
//! Graphs come from `pst_workloads::random_cfg` with n/4 extra edges and
//! arrive as edge-list text, so parsing is part of the pipeline. Every
//! measured second goes to full passes over the ladder.

use std::time::{Duration, Instant};

use pst_cfg::{parse_edge_list, Cfg, Graph};
use pst_controldep::canonical_partition;
use pst_core::{cycle_equiv_slow_undirected, ControlRegions, CycleEquiv, ProgramStructureTree};
use pst_verify::{check_control_regions, check_pst, check_sese, DEFAULT_ORACLE_BUDGET};
use pst_workloads::random_cfg;

use crate::layers::{layer_metrics, TracedPass};
use crate::stats::{fingerprint, loglog_slope, median, quantile, Rng, FNV_START};
use crate::trace::Tracer;
use crate::{alloc, Fault, Options, Outcome, Scale, Setups};

/// Largest `regions × nodes` product `check_pst` may take; its
/// membership oracle is quadratic, so larger rungs are inconclusive.
const PST_CHECK_BUDGET: usize = 20_000_000;

/// Node counts of the ladder: `random_cfg(n, n/4)` gives ≈2.2n edges
/// once its exit repairs are in, so the rungs sit near 1k, 2k, …, 128k
/// edges.
pub fn ladder(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => (0..8).map(|i| (1024usize << i) * 10 / 22).collect(),
        Scale::Small => vec![48, 96, 192],
    }
}

/// A graph as the pipeline receives it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Input {
    /// `a->b` lines; node 0 is the entry and the highest node the exit.
    pub text: String,
    /// Edge count.
    pub edges: u64,
}

/// Renders a graph as edge-list text.
pub fn render(graph: &Graph) -> String {
    let mut text = String::with_capacity(graph.edge_count() * 12);
    for e in graph.edges() {
        let (s, t) = graph.endpoints(e);
        text.push_str(&format!("{}->{}\n", s.index(), t.index()));
    }
    text
}

fn seeded_cfg(n: usize, seed: u64, stream: u64) -> Result<Cfg, String> {
    random_cfg(n, n / 4, Rng::new(seed, stream).next_u64())
        .map_err(|e| format!("random_cfg({n}): {e}"))
}

/// The ladder's graphs for `seed`.
pub fn generate(seed: u64, scale: Scale) -> Result<Vec<Input>, String> {
    ladder(scale)
        .into_iter()
        .enumerate()
        .map(|(r, n)| {
            let cfg = seeded_cfg(n, seed, 10 + r as u64)?;
            Ok(Input {
                text: render(cfg.graph()),
                edges: cfg.edge_count() as u64,
            })
        })
        .collect()
}

/// What one graph's pipeline produced.
pub struct Output {
    /// The parsed CFG.
    pub cfg: Cfg,
    /// Cycle-equivalence classes of S's edges.
    pub ce: CycleEquiv,
    /// The program structure tree.
    pub pst: ProgramStructureTree,
    /// Control regions.
    pub cr: ControlRegions,
}

/// The pipeline: parse → S → cycle equivalence → PST → control regions.
pub fn analyse(t: &mut Tracer, op: u64, text: &str) -> Result<Output, String> {
    let cfg = t.span("cfg.parse_edge_list", op, |_| parse_edge_list(text))?;
    let (s, _) = t.span("cfg.strongly_connect", op, |_| cfg.to_strongly_connected());
    let ce = t.span("core.cycle_equiv", op, |_| {
        CycleEquiv::compute_unchecked(&s, cfg.entry())
    });
    let pst = t.span("core.pst", op, |_| ProgramStructureTree::build(&cfg));
    let cr = t.span("core.control_regions", op, |_| {
        ControlRegions::compute(&cfg)
    });
    Ok(Output { cfg, ce, pst, cr })
}

/// A fingerprint every pass over the same graph must reproduce.
pub fn output_fingerprint(out: &Output) -> u64 {
    let tree = out
        .pst
        .regions()
        .map(|r| out.pst.parent(r).map_or(u64::MAX, |p| p.index() as u64));
    let h = fingerprint(out.ce.classes().iter().map(|&c| u64::from(c)), FNV_START);
    let h = fingerprint(out.cr.classes().iter().map(|&c| u64::from(c)), h);
    fingerprint(tree, h)
}

/// Merges the classes of node 0 and of the first node outside it.
fn merge_two_classes(cr: &ControlRegions) -> ControlRegions {
    let classes = cr.classes();
    let a = classes[0];
    let Some(&b) = classes.iter().find(|&&c| c != a) else {
        return cr.clone();
    };
    ControlRegions::from_classes(
        classes
            .iter()
            .map(|&c| if c == b { a } else { c })
            .collect(),
    )
}

/// Verdicts of the independent checkers on one graph: `(failed,
/// inconclusive, conclusive)` check counts.
fn verify(out: &Output, fault: Option<Fault>) -> (u64, u64, u64) {
    let mut failed = 0;
    let mut inconclusive = 0;
    let mut conclusive = 0;
    let mut verdict = |ok: Option<bool>| match ok {
        Some(ok) => {
            conclusive += 1;
            failed += u64::from(!ok);
        }
        None => inconclusive += 1,
    };
    let (s, _) = out.cfg.to_strongly_connected();
    // The oracle first spends one sweep of nodes + edges + 1 steps per
    // edge; where those sweeps alone exceed its budget it must run out, so
    // the check is inconclusive without running it.
    let sweeps = s.edge_count() as u64 * (s.node_count() + s.edge_count() + 1) as u64;
    verdict(
        (sweeps <= DEFAULT_ORACLE_BUDGET)
            .then(|| cycle_equiv_slow_undirected(&s, Some(DEFAULT_ORACLE_BUDGET)).ok())
            .flatten()
            .map(|slow| {
                canonical_partition(slow.classes()) == canonical_partition(out.ce.classes())
            }),
    );
    let detection = out.pst.detection().expect("build records detection");
    verdict(Some(check_sese(&out.cfg, detection).is_clean()));
    let pst_cost = out.pst.region_count() * out.cfg.node_count();
    verdict((pst_cost <= PST_CHECK_BUDGET).then(|| check_pst(&out.cfg, &out.pst).is_clean()));
    let cr = match fault {
        Some(Fault::MergeRegions) => merge_two_classes(&out.cr),
        _ => out.cr.clone(),
    };
    verdict(Some(check_control_regions(&out.cfg, &cr).is_clean()));
    (failed, inconclusive, conclusive)
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (mut setups, inputs) = Setups::first(|| {
        let inputs = generate(opts.seed, opts.scale)?;
        let mut off = Tracer::new(false, Instant::now());
        for input in &inputs {
            std::hint::black_box(analyse(&mut off, 0, &input.text)?);
        }
        Ok(inputs)
    })?;
    let mut out = Outcome::default();

    let epoch = Instant::now();
    let mut t = Tracer::new(false, epoch);
    let mut measure_end = epoch + Duration::from_secs_f64(opts.seconds);
    let top = inputs.len() - 1;
    let mut fps: Vec<Option<u64>> = vec![None; inputs.len()];
    let mut rung_ns: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut ops_per_rung = vec![0u64; inputs.len()];
    let mut bad_rung = vec![false; inputs.len()];
    let mut pass_rates = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut traced = Vec::new();
    let mut dom_ns_per_edge = Vec::new();
    let mut peak_heap_mb = Vec::new();
    let mut pass = 0u64;
    while pass < 2 || Instant::now() < measure_end {
        setups.between_passes(&mut measure_end, opts.seconds)?;
        let tracing = opts.trace && pass % 2 == 1;
        t.set_on(tracing);
        alloc::set_counting(tracing);
        let from = t.next_index();
        let mut wall = 0u64;
        for (r, input) in inputs.iter().enumerate() {
            let op = (pass << 8) | r as u64;
            let base = alloc::reset_peak();
            let t0 = Instant::now();
            let result = t.span("graph", op, |t| analyse(t, op, &input.text));
            let ns = t0.elapsed().as_nanos() as u64;
            if tracing && r == top {
                peak_heap_mb.push((alloc::peak() - base) as f64 / (1u64 << 20) as f64);
            }
            wall += ns;
            ops_per_rung[r] += 1;
            match result {
                Ok(o) => {
                    let fp = output_fingerprint(&o);
                    bad_rung[r] |= *fps[r].get_or_insert(fp) != fp;
                    if !tracing {
                        rung_ns[r].push(ns as f64);
                    }
                }
                Err(_) => bad_rung[r] = true,
            }
        }
        if tracing {
            traced.push(TracedPass::from_spans(
                t.spans(),
                from,
                |op| inputs[(op & 0xff) as usize].edges,
                wall,
            )?);
            let (mut ns, mut edges) = (0u64, 0u64);
            for (r, input) in inputs.iter().enumerate() {
                let cfg = parse_edge_list(&input.text)?;
                let t0 = Instant::now();
                t.span("yardstick", (pass << 8) | r as u64, |t| {
                    t.span("dominators", 0, |_| {
                        std::hint::black_box(pst_dominators::dominator_tree(
                            cfg.graph(),
                            cfg.entry(),
                        ))
                    })
                });
                ns += t0.elapsed().as_nanos() as u64;
                edges += input.edges;
            }
            dom_ns_per_edge.push(ns as f64 / edges as f64);
        } else {
            untraced_wall.push(wall as f64);
            let edges: u64 = inputs.iter().map(|i| i.edges).sum();
            pass_rates.push(edges as f64 * 1e9 / wall as f64);
        }
        pass += 1;
    }
    t.set_on(false);
    alloc::set_counting(false);
    let rss = crate::serve::peak_rss_mb("/proc/self/status");
    setups.finish(&mut out)?;

    // The fast quartile of passes: on a shared machine, bursts of
    // interference slow whole passes, and the fast quartile follows the
    // program rather than its neighbours.
    out.put("edges_per_s", quantile(&pass_rates, 0.75), pass_rates.len());
    let points: Vec<(f64, f64)> = inputs
        .iter()
        .zip(&rung_ns)
        .map(|(i, ns)| (i.edges as f64, median(ns)))
        .collect();
    out.put("scaling_slope", loglog_slope(&points), points.len());
    for (i, ns) in inputs.iter().zip(&rung_ns) {
        out.put(
            &format!("rung.{}.us_per_edge", i.edges),
            median(ns) / 1e3 / i.edges as f64,
            ns.len(),
        );
    }
    out.put("peak_rss_mb", rss, 1);

    if opts.trace {
        let mut layer = layer_metrics(&traced, &untraced_wall);
        let dom = median(&dom_ns_per_edge);
        let ce = layer
            .iter()
            .find(|(n, _)| n == "core.cycle_equiv.ns_per_edge")
            .map_or(0.0, |m| m.1);
        layer.push(("dominators.ns_per_edge".to_string(), dom));
        layer.push(("core.cycle_equiv_vs_dominators".to_string(), ce / dom));
        layer.push(("core.peak_heap_mb".to_string(), median(&peak_heap_mb)));
        for (name, v) in layer {
            out.put(&name, v, traced.len());
        }
        for p in &traced {
            p.check().map_err(|e| format!("cfg-scale: layer sums: {e}"))?;
        }
        crate::write_trace(opts, "cfg-scale", &t)?;
    }

    // Verification, outside every timed region.
    let mut off = Tracer::new(false, Instant::now());
    for (r, input) in inputs.iter().enumerate() {
        let fault = (r == 0).then_some(opts.fault).flatten();
        let (failed, inconclusive, conclusive) = match analyse(&mut off, 0, &input.text) {
            Ok(o) => {
                bad_rung[r] |= fps[r] != Some(output_fingerprint(&o));
                verify(&o, fault)
            }
            Err(_) => (1, 0, 0),
        };
        out.inconclusive += inconclusive;
        out.checks += conclusive;
        if failed > 0 || bad_rung[r] {
            out.failed += ops_per_rung[r];
        }
        out.attempted += ops_per_rung[r];
    }
    Ok(out)
}
