//! The benchmark's own tests: every correctness check can fail, traced
//! passes account for every nanosecond, and seeds reproduce exactly.
//!
//! Runs use the small input scale and serve from a thread of the test
//! process through the same library front end `pst serve` runs.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use pstbench::layers::TracedPass;
use pstbench::serve::{RequestStream, ZIPF_S};
use pstbench::trace::{Span, Tracer};
use pstbench::{cfg_scale, corpus, serve_mix, Fault, Options, Scale, WORKLOADS};

/// Tests that run workloads take turns: a traced pass compares its
/// spans with its own clock, and another test's threads preempting it
/// between the two reads would make the comparison fail.
static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small(seed: u64) -> Options {
    Options {
        seed,
        seconds: 0.4,
        trace: false,
        fault: None,
        scale: Scale::Small,
        pst_bin: None,
        trace_dir: None,
    }
}

#[test]
fn each_correctness_check_can_fail() {
    let _turn = turn();
    for (workload, fault) in [
        ("cfg-scale", Fault::MergeRegions),
        ("program-corpus", Fault::DropPhi),
        ("serve-mix", Fault::TamperReply),
    ] {
        let clean = pstbench::run(workload, &small(7)).expect("clean run completes");
        assert_eq!(clean.failed, 0, "{workload} fails without a fault");
        let broken = pstbench::run(
            workload,
            &Options {
                fault: Some(fault),
                ..small(7)
            },
        )
        .expect("run completes");
        assert!(
            broken.failed_frac() > 0.0,
            "{workload}: {fault:?} went unnoticed"
        );
    }
}

#[test]
fn traced_runs_pass_the_layer_sum_check_and_report_their_layers() {
    let _turn = turn();
    for (workload, layer) in [
        ("cfg-scale", "core.cycle_equiv.ns_per_edge"),
        ("program-corpus", "analysis.lint.ms"),
        ("serve-mix", "serve.session.hit_us"),
    ] {
        // `run` fails when a traced pass fails `TracedPass::check`.
        let out = pstbench::run(
            workload,
            &Options {
                trace: true,
                ..small(3)
            },
        )
        .expect("traced run completes");
        assert_eq!(out.failed, 0, "{workload}");
        for name in ["bench.unattributed_pct", "bench.trace_overhead_pct", layer] {
            assert!(out.metrics.contains_key(name), "{workload} lacks {name}");
        }
    }
}

#[test]
fn the_layer_sum_check_rejects_inconsistent_spans() {
    let span = |parent, name, start_ns, end_ns| Span {
        parent,
        op: 0,
        name,
        start_ns,
        end_ns,
        allocs: 0,
    };
    let pass = |spans: &[Span], wall_ns| TracedPass::from_spans(spans, 0, |_| 1, wall_ns);
    let consistent = [
        span(None, "graph", 0, 1_000_000),
        span(Some(0), "core.pst", 10_000, 600_000),
        span(Some(0), "core.control_regions", 600_000, 990_000),
    ];
    pass(&consistent, 1_001_000)
        .and_then(|p| p.check())
        .expect("consistent spans pass");
    // The pass's own clock saw far more time than its spans cover.
    assert!(pass(&consistent, 2_000_000).unwrap().check().is_err());
    // The spans claim more time than the clock saw.
    assert!(pass(&consistent, 900_000).unwrap().check().is_err());
    // A layer's span escapes its parent: self times no longer partition
    // the root.
    let escaping = [
        span(None, "graph", 0, 1_000_000),
        span(Some(0), "core.pst", 10_000, 1_200_000),
    ];
    assert!(pass(&escaping, 1_001_000).is_err());
    // Two layer spans overlap, counting the same time twice.
    let overlapping = [
        span(None, "graph", 0, 1_000_000),
        span(Some(0), "core.pst", 10_000, 700_000),
        span(Some(0), "core.control_regions", 600_000, 990_000),
    ];
    assert!(pass(&overlapping, 1_001_000).is_err());
}

#[test]
fn a_seed_gives_identical_inputs_and_counts() {
    let _turn = turn();
    for seed in [5, 6] {
        assert_eq!(
            cfg_scale::generate(seed, Scale::Small),
            cfg_scale::generate(seed, Scale::Small)
        );
        let sources = corpus::generate(seed, Scale::Small).expect("corpus generates");
        assert_eq!(Ok(sources.clone()), corpus::generate(seed, Scale::Small));
        let texts = |s| {
            serve_mix::units(s, Scale::Small)
                .map(|u| u.into_iter().map(|u| u.text).collect::<Vec<_>>())
        };
        assert_eq!(texts(seed), texts(seed));

        // Exact counts: lint diagnostics and QPG solves.
        let counts = || {
            let mut t = Tracer::new(false, Instant::now());
            let mut c = corpus::Counts::default();
            for s in &sources {
                c.add(&corpus::analyse(&mut t, 0, &s.text).expect("corpus analyses"));
            }
            c
        };
        assert_eq!(counts(), counts());

        // The sequential hit/miss sequence of the serve mix.
        let units = serve_mix::units(seed, Scale::Small).expect("units generate");
        let hits = || {
            let mut session = pst_serve::Session::new(pst_serve::ServeConfig {
                cache: pst_serve::CacheConfig {
                    max_entries: 3,
                    max_bytes: 0,
                },
                ..pst_serve::ServeConfig::default()
            });
            let mut stream = RequestStream::new(units.len(), ZIPF_S, seed, 1);
            (0..200)
                .map(|_| {
                    let (u, m) = stream.next(&units);
                    let reply = session.handle_line(&units[u].request_line(0, units[u].methods[m]));
                    pstbench::serve::parse_reply(&reply.line).is_some_and(|r| r.cached)
                })
                .collect::<Vec<bool>>()
        };
        let first = hits();
        assert!(first.contains(&true) && first.contains(&false));
        assert_eq!(first, hits());
    }
    assert_ne!(
        cfg_scale::generate(5, Scale::Small),
        cfg_scale::generate(6, Scale::Small)
    );
}

#[test]
fn an_unseen_seed_runs_clean() {
    let _turn = turn();
    for workload in WORKLOADS {
        let out = pstbench::run(workload, &small(90_210)).expect("run completes");
        assert!(out.attempted > 0, "{workload}");
        assert_eq!(out.failed, 0, "{workload}");
    }
}

#[test]
fn the_metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let json = pst_obs::json::Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        let Some(pst_obs::json::Json::Arr(items)) = json.get(key) else {
            panic!("`{key}` is not a list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k| match m.get(k) {
                    Some(pst_obs::json::Json::Str(s)) => s.clone(),
                    other => panic!("`{k}` of a `{key}` entry is {other:?}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let ours = |list: &[(&str, &str)]| {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(listed("end_to_end"), ours(&pstbench::END_TO_END));
    assert_eq!(listed("per_layer"), ours(&pstbench::PER_LAYER));
}
