//! Executable check of the paper's O(E) claim via observability counters.
//!
//! The bracket-list counters recorded by `pst-obs` make the linear-time
//! argument of §3 testable: every bracket is pushed and popped exactly
//! once, and the number of brackets is bounded by the number of edges
//! plus one capping bracket per node, so `brackets_pushed` must stay
//! below a fixed multiple of the edge count at every scale. The sizes
//! below span more than two orders of magnitude in edge count.
//!
//! The obs registry is process-global, so every test in this binary
//! serializes on one lock and resets the registry before measuring.

use std::sync::{Mutex, MutexGuard};

use pst_core::canonical_regions;
use pst_workloads::{nested_while_loops, random_cfg};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Holds `OBS_LOCK` for one test. A test thread folds its thread-local
/// registries into the global aggregate when it exits, which can be
/// after the next test has reset and started measuring; dropping this
/// guard clears them while the lock is still held.
struct ObsLock {
    _held: MutexGuard<'static, ()>,
}

impl Drop for ObsLock {
    fn drop(&mut self) {
        pst_obs::reset();
    }
}

fn locked() -> ObsLock {
    ObsLock {
        _held: OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner()),
    }
}

/// Counters recorded by one `canonical_regions` run over `cfg`.
fn measure(cfg: &pst_cfg::Cfg) -> pst_obs::Report {
    pst_obs::reset();
    let _ = canonical_regions(cfg);
    pst_obs::report()
}

#[test]
fn bracket_counters_scale_linearly_with_edges() {
    let _l = locked();
    assert!(pst_obs::enabled(), "build with the default `obs` feature");

    // Each run analyzes S = G + (exit -> entry): at most one bracket per
    // backedge plus one capping bracket per node, every one pushed and
    // popped exactly once. E' = E + 1 and N <= E + 1, so pushes are
    // bounded by 2E + 4; c = 4 leaves slack without hiding regressions.
    const C: f64 = 4.0;
    let mut edge_counts: Vec<usize> = Vec::new();
    for n in [20, 200, 2000, 4000] {
        let cfg = random_cfg(n, n / 2, 1994).unwrap();
        let report = measure(&cfg);
        let e = cfg.edge_count();
        let pushed = report.counter("brackets_pushed");
        let popped = report.counter("brackets_popped");
        assert!(pushed > 0, "instrumentation recorded nothing at n={n}");
        assert_eq!(pushed, popped, "every bracket is deleted exactly once");
        assert!(
            (pushed as f64) <= C * e as f64,
            "brackets_pushed={pushed} exceeds {C}*E (E={e}) at n={n}: not linear"
        );
        // Each recomputation mints a fresh equivalence class, and class
        // count is bounded by the edge count of S, so this is linear too.
        assert!(
            (report.counter("recent_size_recomputed") as f64) <= C * e as f64,
            "recent-size recomputations exceed the linear bound at n={n}"
        );
        edge_counts.push(e);
    }
    let (min, max) = (edge_counts[0], edge_counts[edge_counts.len() - 1]);
    assert!(
        max >= min * 100,
        "edge counts {edge_counts:?} must span two orders of magnitude"
    );
}

#[test]
fn deeply_nested_loops_stay_linear_too() {
    let _l = locked();
    // Nested loops maximize live bracket lists; the bound must hold on
    // this adversarial shape as well, not just on random CFGs.
    for depth in [5, 50, 500] {
        let cfg = nested_while_loops(depth);
        let report = measure(&cfg);
        let e = cfg.edge_count() as f64;
        let pushed = report.counter("brackets_pushed") as f64;
        assert!(pushed > 0.0 && pushed <= 4.0 * e);
    }
}

#[test]
fn minimal_cfg_counters() {
    let _l = locked();
    // The smallest valid CFG (entry -> exit) has a single bracket: the
    // virtual backedge of S.
    let cfg = pst_cfg::parse_edge_list("0->1").unwrap();
    let report = measure(&cfg);
    assert_eq!(report.counter("brackets_pushed"), 1);
    assert_eq!(report.counter("brackets_popped"), 1);
    assert_eq!(report.counter("brackets_capped"), 0);
    assert_eq!(report.gauge("cycle_equiv_nodes"), 2);
    assert_eq!(report.gauge("cycle_equiv_edges"), 2); // edge + virtual
}

#[test]
fn empty_input_records_no_pipeline_counters() {
    let _l = locked();
    pst_obs::reset();
    assert!(pst_lang::parse_program("").is_err());
    let report = pst_obs::report();
    // The parse span is recorded, but no pipeline work happened.
    assert_eq!(report.counter("brackets_pushed"), 0);
    assert_eq!(report.counter("functions_lowered"), 0);
    assert!(report.spans.iter().any(|s| s.name == "parse"));
}

#[test]
fn full_pipeline_produces_the_expected_span_tree() {
    let _l = locked();
    pst_obs::reset();
    let program = pst_lang::parse_program(
        "fn f(n) { s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }",
    )
    .unwrap();
    let lowered = pst_lang::lower_program(&program).unwrap();
    let pst = pst_core::ProgramStructureTree::build(&lowered[0].cfg);
    assert!(pst.region_count() > 0);
    let json = pst_obs::report().to_json();
    let text = json.to_string();
    let parsed = pst_obs::json::Json::parse(&text).unwrap();
    // parse and lower are roots; cycle_equiv nests under pst -> sese.
    for name in [
        "parse",
        "lower",
        "pst",
        "sese",
        "cycle_equiv",
        "undirected_dfs",
    ] {
        let span = parsed
            .find_object_with("name", name)
            .unwrap_or_else(|| panic!("span `{name}` missing from {text}"));
        assert!(
            span.get("nanos").and_then(|j| j.as_u64()).is_some(),
            "span `{name}` has no duration"
        );
    }
    let pst_span = parsed.find_object_with("name", "pst").unwrap();
    assert!(
        pst_span.find_object_with("name", "cycle_equiv").is_some(),
        "cycle_equiv must be nested inside the pst span"
    );
}

/// `graph_adjacency_builds` over one run of `f`, on a reset registry.
fn adjacency_builds(f: impl FnOnce()) -> u64 {
    pst_obs::reset();
    f();
    pst_obs::report().counter("graph_adjacency_builds")
}

/// `Graph` builds its adjacency index on the first query after a
/// mutation, so a builder that alternated the two inside a loop would
/// rebuild it once per step, quadratically. Each path here mutates in
/// phases: its build count is the same for 1k and 10k nodes.
#[test]
fn adjacency_index_builds_do_not_grow_with_input_size() {
    let _l = locked();
    let messy = |nodes: usize| {
        let config = pst_workloads::DigraphConfig {
            nodes,
            edges: nodes * 3 / 2,
            force_entry_predecessor: true,
            force_unreachable: true,
            force_infinite_loop: true,
            force_multiple_exits: true,
            force_self_loop: true,
        };
        pst_workloads::random_digraph(&config, 1994)
    };
    let program = |stmts: usize| pst_lang::Program {
        functions: vec![pst_workloads::generate_function(
            "large",
            &pst_workloads::ProgramGenConfig {
                target_stmts: stmts,
                ..Default::default()
            },
            1994,
        )],
    };
    let cfg = |nodes: usize| random_cfg(nodes, nodes / 2, 1994).unwrap();
    let paths: [(&str, &dyn Fn(usize) -> u64); 5] = [
        ("canonicalize", &|n| {
            let (graph, entry) = messy(n);
            let options = pst_cfg::CanonicalizeOptions::default();
            adjacency_builds(|| {
                pst_cfg::canonicalize(&graph, entry, &options).unwrap();
            })
        }),
        ("random_cfg", &|n| {
            adjacency_builds(|| {
                cfg(n);
            })
        }),
        ("lower_program", &|n| {
            let program = program(n);
            adjacency_builds(|| {
                let lowered = pst_lang::lower_program(&program).unwrap();
                assert!(lowered[0].cfg.node_count() >= n / 4, "function too small");
            })
        }),
        ("EdgeSplit::of_cfg", &|n| {
            let cfg = cfg(n);
            adjacency_builds(|| {
                let split = pst_cfg::EdgeSplit::of_cfg(&cfg);
                let g = split.graph();
                assert!(g.nodes().all(|v| g.in_degree(v) <= n));
            })
        }),
        ("insert_edge", &|n| {
            let cfg = cfg(n);
            let pst = pst_core::ProgramStructureTree::build(&cfg);
            let u = pst_cfg::NodeId::from_index(n / 2);
            let v = pst_cfg::NodeId::from_index(n / 2 + 1);
            adjacency_builds(|| {
                pst_core::insert_edge(&cfg, &pst, u, v).unwrap();
            })
        }),
    ];
    for (name, builds) in paths {
        let (small, large) = (builds(1_000), builds(10_000));
        assert!(small > 0, "{name}: no index built; is the obs feature on?");
        assert!(
            large <= small,
            "{name}: {large} index builds at 10k nodes against {small} at 1k"
        );
    }
}
