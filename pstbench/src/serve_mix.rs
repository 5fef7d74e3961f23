//! `serve-mix`: the shipped `pst serve` daemon (`--workers 2`) driven
//! over TCP from this process with two connections.
//!
//! Units are mini-language sources of 40–400 statements and messy
//! edge-list digraphs (every Definition-1 violation forced) of 64–2048
//! nodes. Popularity is Zipf over a fixed rank order, so every seed puts
//! the same sizes at the same popularity and only the content changes.
//! Inline text is sent on every request, and each unit rotates through
//! its kind's methods, `controldep` included. The cache budget is below
//! the working set, so hits dominate while misses and evictions keep
//! happening; the largest edge units' `controldep` misses form the tail,
//! where NTSCD's O(N·(N+E)) cost sits.
//!
//! Open loop first: seeded Poisson arrivals at [`OPEN_LOOP_RATE`], each
//! request timed from when it was due. Then a closed loop: both
//! connections back to back, for throughput.

use std::time::{Duration, Instant};

use pst_analysis::{lint_graph, LintConfig};
use pst_cfg::{canonicalize, parse_edge_list_graph, CanonicalizeOptions, Graph};
use pst_controldep::StrongControlDeps;
use pst_core::{ControlRegions, ProgramStructureTree};
use pst_workloads::{random_digraph, DigraphConfig};

use crate::cfg_scale::render;
use crate::corpus::{self, Counts};
use crate::layers::{layer_metrics, span_quantile_ms, TracedPass};
use crate::serve::{
    closed_loop, open_loop, poisson_schedule, Answers, Daemon, RequestStream, Scheduled,
    ServerStats, Unit, EDGE_METHODS, ZIPF_S,
};
use crate::stats::{log_spaced, loglog_slope, quantile, Rng, Zipf};
use crate::trace::Tracer;
use crate::{alloc, Fault, Options, Outcome, Scale, Setups};

/// Open-loop arrival rate, requests per second: about half of what two
/// plain blocking clients complete in a closed loop against the daemon
/// this benchmark was defined on (≈45 requests/s; each reply's newline
/// waits ≈40 ms for the client's delayed ACK, see `README.md`).
pub const OPEN_LOOP_RATE: f64 = 20.0;

/// Units the daemon's cache may hold (split over its two shards); the
/// working set is every unit.
const CACHE_ENTRIES: usize = 32;

/// Requests that fill the cache before timing starts.
const WARMUP_REQUESTS: usize = 150;

/// Rank order independent of the seed: the same sizes sit at the same
/// popularity in every run.
const RANK_SEED: u64 = 0x5E12_E0FF;

/// The messy digraph of `nodes` nodes for `seed`, as edge-list text,
/// with its edge count. Its size is the one that matters: the strong
/// control dependence and lint methods analyse the raw digraph, and how
/// much of it the entry reaches (what the cheap methods see after
/// repair) swings from seed to seed.
pub fn messy_digraph(nodes: usize, seed: u64) -> (String, u64) {
    let config = DigraphConfig {
        nodes,
        edges: nodes + nodes / 2,
        force_entry_predecessor: true,
        force_unreachable: true,
        force_infinite_loop: true,
        force_multiple_exits: true,
        force_self_loop: true,
    };
    let (graph, _) = random_digraph(&config, seed);
    (render(&graph), graph.edge_count() as u64)
}

/// The units in popularity order for `seed`.
pub fn units(seed: u64, scale: Scale) -> Result<Vec<Unit>, String> {
    let (minis, edges, stmts, nodes) = match scale {
        Scale::Full => (40, 24, (40.0, 400.0), (64.0, 2048.0)),
        Scale::Small => (4, 3, (20.0, 60.0), (16.0, 48.0)),
    };
    let mut all = corpus::mini_units(seed, 200, minis, stmts)?;
    for j in 0..edges {
        let size = log_spaced(nodes.0, nodes.1, j, edges);
        let (text, e) = messy_digraph(size, Rng::new(seed, 300 + j as u64).next_u64());
        all.push(Unit::new(false, text, e, EDGE_METHODS));
    }
    let order = Rng::new(RANK_SEED, 0).permutation(all.len());
    Ok(order.into_iter().map(|i| all[i].clone()).collect())
}

/// One in-process pass over the units, layer by layer, as the daemon
/// computes them on a miss.
fn analysis_pass(
    t: &mut Tracer,
    units: &[Unit],
    pass: u64,
    counts: &mut Counts,
) -> Result<(), String> {
    for (u, unit) in units.iter().enumerate() {
        let op = (pass << 8) | u as u64;
        t.span("unit", op, |t| -> Result<(), String> {
            if unit.mini {
                counts.add(&corpus::analyse(t, op, &unit.text)?);
                return Ok(());
            }
            let (graph, entry): (Graph, _) = t.span("cfg.parse_edge_list", op, |_| {
                parse_edge_list_graph(&unit.text)
            })?;
            let options = CanonicalizeOptions::default();
            let canonical = t
                .span("cfg.canonicalize", op, |_| {
                    canonicalize(&graph, entry, &options)
                })
                .map_err(|e| e.to_string())?;
            std::hint::black_box(t.span("core.pst", op, |_| {
                ProgramStructureTree::build(&canonical.cfg)
            }));
            std::hint::black_box(t.span("core.control_regions", op, |_| {
                ControlRegions::compute(&canonical.cfg)
            }));
            std::hint::black_box(t.span("controldep.strong", op, |_| {
                StrongControlDeps::of_graph(&graph)
            }));
            std::hint::black_box(
                t.span("analysis.lint", op, |_| {
                    lint_graph(&graph, entry, &options, &LintConfig::new())
                })
                .map_err(|e| e.to_string())?,
            );
            Ok(())
        })?;
    }
    Ok(())
}

struct State {
    units: Vec<Unit>,
    daemon: Daemon,
}

fn start(opts: &Options) -> Result<State, String> {
    let units = units(opts.seed, opts.scale)?;
    let daemon = match &opts.pst_bin {
        Some(bin) => Daemon::spawn(bin, CACHE_ENTRIES),
        None => Daemon::in_thread(CACHE_ENTRIES),
    }
    .map_err(|e| format!("starting the daemon: {e}"))?;
    // The warm-up is pipelined: every request is due at once.
    let mut warm = RequestStream::new(units.len(), ZIPF_S, opts.seed, 90);
    let schedule: Vec<Scheduled> = (0..WARMUP_REQUESTS)
        .map(|_| Scheduled {
            due: Duration::ZERO,
            pair: warm.next(&units),
        })
        .collect();
    let conn = daemon.connect().map_err(|e| e.to_string())?;
    open_loop(
        vec![conn],
        &units,
        &Answers::new(units.len(), false),
        &schedule,
    )
    .map_err(|e| e.to_string())?;
    Ok(State { units, daemon })
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (mut setups, State { units, daemon }) = Setups::first(|| start(opts))?;
    let mut out = Outcome::default();
    let io = |e: std::io::Error| format!("serve-mix: {e}");

    let answers = Answers::new(units.len(), opts.fault == Some(Fault::TamperReply));
    let open_span = Duration::from_secs_f64(opts.seconds * 0.55);
    let schedule = poisson_schedule(&units, OPEN_LOOP_RATE, open_span, opts.seed);
    let conns = vec![daemon.connect().map_err(io)?, daemon.connect().map_err(io)?];
    let open = open_loop(conns, &units, &answers, &schedule).map_err(io)?;
    // Half of the repeated set-ups (each with a daemon of its own) fall
    // between the two loops, the rest after them.
    for _ in 0..(crate::SETUPS - 1) / 2 {
        setups.again()?;
    }
    let conns = vec![daemon.connect().map_err(io)?, daemon.connect().map_err(io)?];
    let closed_end = Instant::now() + Duration::from_secs_f64(opts.seconds * 0.4);
    let (closed, closed_start) =
        closed_loop(conns, &units, &answers, opts.seed, closed_end).map_err(io)?;
    let stats_line = daemon
        .connect()
        .and_then(|mut c| {
            c.call("{\"id\":0,\"method\":\"stats\"}")
                .map(str::to_string)
        })
        .map_err(io)?;
    let stats = ServerStats::parse(&stats_line).ok_or("serve-mix: unreadable stats reply")?;
    let rss = daemon.peak_rss_mb();
    daemon.shutdown().map_err(io)?;
    setups.finish(&mut out)?;

    let o = &open.samples;
    let (wrong, unit_ms) = answers.verify(&units);
    out.attempted = o.attempted + closed.attempted;
    out.failed = o.failed + closed.failed + wrong;
    out.checks = out.attempted;

    let rps = closed.ok_per_sec(closed_start);
    // Edges the closed loop delivers per second, weighting each unit by
    // its popularity rather than by the handful of requests one run
    // happens to draw.
    out.put("edges_per_s", rps * mean_edges(&units), closed.done.len());
    // How a unit's full analysis (every method, computed fresh by the
    // library while checking the replies) scales with its size.
    let points: Vec<(f64, f64)> = units
        .iter()
        .zip(&unit_ms)
        .map(|(u, &ms)| (u.edges as f64, ms))
        .collect();
    out.put("scaling_slope", loglog_slope(&points), points.len());
    out.put("peak_rss_mb", rss, 1);
    out.put("serve_hit_p50_us", quantile(&o.hit_us, 0.5), o.hit_us.len());
    out.put(
        "serve_hit_p99_us",
        quantile(&o.hit_us, 0.99),
        o.hit_us.len(),
    );
    out.put(
        "serve_miss_p50_ms",
        quantile(&o.miss_ms, 0.5),
        o.miss_ms.len(),
    );
    out.put(
        "serve_miss_p99_ms",
        quantile(&o.miss_ms, 0.99),
        o.miss_ms.len(),
    );
    out.put("serve_rps", rps, closed.done.len());
    out.put(
        "client.queue_us.p99",
        quantile(&open.queue_us, 0.99),
        open.queue_us.len(),
    );
    out.put(
        "client.lateness_us.p99",
        quantile(&open.lateness_us, 0.99),
        open.lateness_us.len(),
    );
    out.put("serve.cache.hit_ratio", stats.hit_ratio(), 1);
    out.put("serve.cache.evictions", stats.evictions as f64, 1);
    out.put("serve.shed", stats.shed as f64, 1);
    out.put("serve.errors", stats.errors as f64, 1);

    if opts.trace {
        let epoch = Instant::now();
        let mut t = Tracer::new(false, epoch);
        let mut traced = Vec::new();
        let mut untraced_wall = Vec::new();
        let mut counts = Counts::default();
        for pass in 0..4u64 {
            let tracing = pass % 2 == 1;
            t.set_on(tracing);
            alloc::set_counting(tracing);
            let from = t.next_index();
            let mut pass_counts = Counts::default();
            let t0 = Instant::now();
            analysis_pass(&mut t, &units, pass, &mut pass_counts)?;
            let wall = t0.elapsed().as_nanos() as u64;
            if tracing {
                traced.push(TracedPass::from_spans(
                    t.spans(),
                    from,
                    |op| units[(op & 0xff) as usize].edges,
                    wall,
                )?);
            } else {
                untraced_wall.push(wall as f64);
            }
            counts = pass_counts;
        }
        let mut layer = layer_metrics(&traced, &untraced_wall);
        layer.extend(counts.metrics());
        layer.push((
            "controldep.strong.ms.p99".to_string(),
            span_quantile_ms(t.spans(), "controldep.strong", 0.99),
        ));
        t.set_on(true);
        alloc::set_counting(true);
        let probe = crate::serve::layer_probe(&mut t, &units, 1 << 40);
        t.set_on(false);
        alloc::set_counting(false);
        let hit_us = probe
            .iter()
            .find(|(n, _)| n == "serve.session.hit_us")
            .map_or(0.0, |x| x.1);
        layer.extend(probe);
        layer.push((
            "serve.transport_us".to_string(),
            quantile(&o.hit_us, 0.5) - hit_us,
        ));
        for (name, v) in layer {
            out.put(&name, v, traced.len());
        }
        for p in &traced {
            p.check().map_err(|e| format!("serve-mix: layer sums: {e}"))?;
        }
        crate::write_trace(opts, "serve-mix", &t)?;
    }
    Ok(out)
}

/// Mean CFG edges per request under the mix's Zipf popularity.
pub fn mean_edges(units: &[Unit]) -> f64 {
    let zipf = Zipf::new(units.len(), ZIPF_S);
    units
        .iter()
        .enumerate()
        .map(|(r, u)| zipf.probability(r) * u.edges as f64)
        .sum()
}
