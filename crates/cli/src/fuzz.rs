//! `pst fuzz` — differential fuzzing of the whole pipeline with crash
//! containment.
//!
//! Each seed in the range deterministically generates an arbitrary digraph
//! (no CFG invariants), pushes it through canonicalize → cycle-equiv → PST
//! → control-regions → φ-placement, and re-derives every stage with the
//! independent checkers from `pst-verify`. A panic anywhere in the pipeline
//! is contained with `catch_unwind` and reported as data; any violation or
//! contained panic is greedily minimized (edges first, then unused nodes)
//! and the reproducer edge list is written to `<out-dir>/<seed>.edges`,
//! re-runnable with `pst --canonicalize <file>`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pst_analysis::Analysis;
use pst_cfg::{canonicalize, Budget, CanonicalizeOptions, Graph, NodeId};
use pst_verify::{
    compute_artifacts_for_cfg, verify_artifacts, verify_strong_on_digraph, VerifyConfig,
    DEFAULT_ORACLE_BUDGET,
};
use pst_workloads::{random_digraph, DigraphConfig};

use crate::{take_value_flag, Failure};

/// Minimization re-runs the full contained pipeline per candidate, one
/// budget step each; cap the steps so a pathological failure cannot stall
/// the fuzz loop.
const MINIMIZE_STEPS: u64 = 2_000;

/// Parsed `pst fuzz` options.
pub struct FuzzOptions {
    pub seed_start: u64,
    pub seed_end: u64,
    pub budget_ms: Option<u64>,
    pub out_dir: String,
    /// Fault kind to inject into every input's artifacts before checking
    /// (requires the `fault-inject` build; proves the exit-code taxonomy).
    pub inject_fault: Option<String>,
}

impl FuzzOptions {
    /// Parses fuzz-specific flags out of the remaining CLI arguments.
    pub fn from_args(args: &mut Vec<String>) -> Result<FuzzOptions, String> {
        let range = take_value_flag(args, "--seed-range")?
            .ok_or("fuzz requires `--seed-range <start>..<end>`")?;
        let (seed_start, seed_end) = parse_seed_range(&range)?;
        let budget_ms = match take_value_flag(args, "--budget-ms")? {
            Some(v) => Some(
                v.parse::<u64>()
                    .map_err(|_| format!("`--budget-ms` expects milliseconds, got `{v}`"))?,
            ),
            None => None,
        };
        let out_dir =
            take_value_flag(args, "--out-dir")?.unwrap_or_else(|| "fuzz-failures".to_string());
        let inject_fault = take_value_flag(args, "--inject-fault")?;
        if let Some(stray) = args.first() {
            return Err(format!("unexpected fuzz argument `{stray}`"));
        }
        Ok(FuzzOptions {
            seed_start,
            seed_end,
            budget_ms,
            out_dir,
            inject_fault,
        })
    }
}

/// Parses `A..B` (half-open, `A < B`).
fn parse_seed_range(text: &str) -> Result<(u64, u64), String> {
    let err = || format!("`--seed-range` expects `<start>..<end>`, got `{text}`");
    let (a, b) = text.split_once("..").ok_or_else(err)?;
    let start: u64 = a.trim().parse().map_err(|_| err())?;
    let end: u64 = b.trim().parse().map_err(|_| err())?;
    if start >= end {
        return Err(format!("empty seed range `{text}`"));
    }
    Ok((start, end))
}

/// The fault to inject per input. Without the `fault-inject` feature the
/// flag is rejected at startup, so the spec is always `None` there.
#[cfg(feature = "fault-inject")]
type InjectSpec = Option<pst_verify::FaultKind>;
#[cfg(not(feature = "fault-inject"))]
type InjectSpec = Option<std::convert::Infallible>;

/// What one fuzz input did, with the panic already contained.
enum Outcome {
    Clean {
        exhausted: bool,
    },
    /// Canonicalization rejected the raw digraph with a proper error.
    Rejected,
    Violation(String),
    Panic(String),
}

impl Outcome {
    fn fails(&self) -> bool {
        matches!(self, Outcome::Violation(_) | Outcome::Panic(_))
    }
}

/// A fuzz input in minimizable form: `node_count` nodes (0 is the entry)
/// and an edge list.
#[derive(Clone)]
struct Input {
    node_count: usize,
    edges: Vec<(usize, usize)>,
}

impl Input {
    fn of_graph(graph: &Graph) -> Input {
        Input {
            node_count: graph.node_count(),
            edges: graph
                .edges()
                .map(|e| {
                    let (s, t) = graph.endpoints(e);
                    (s.index(), t.index())
                })
                .collect(),
        }
    }

    fn to_graph(&self) -> (Graph, NodeId) {
        let mut g = Graph::new();
        let nodes = g.add_nodes(self.node_count.max(1));
        for &(a, b) in &self.edges {
            g.add_edge(nodes[a], nodes[b]);
        }
        (g, nodes[0])
    }

    fn render_edges(&self) -> String {
        let mut text = String::new();
        for &(a, b) in &self.edges {
            text.push_str(&format!("{a}->{b}\n"));
        }
        text
    }
}

/// Runs the full pipeline on one raw digraph with every checker enabled
/// under `config`, containing panics. Never panics itself.
fn run_one(
    graph: &Graph,
    entry: NodeId,
    inject: InjectSpec,
    fault_seed: u64,
    config: &VerifyConfig,
) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        // Fold this unit's counters into the global aggregate even if it
        // panics: the tally recorded before the crash is data, not noise.
        let _fold = pst_obs::fold_on_drop();
        let canonical = match canonicalize(graph, entry, &CanonicalizeOptions::default()) {
            Ok(c) => c,
            Err(_) => return Outcome::Rejected,
        };
        // NTSCD/DOD are defined on the raw digraph itself, so the graph
        // unit checks them on the input, not on the repair that patches
        // away the non-terminating regions where they differ from the
        // classic relation.
        let unit = Analysis::of_graph(graph, &canonical);
        let strong = verify_strong_on_digraph(&unit, config);
        if !strong.is_clean() {
            return Outcome::Violation(strong.to_string());
        }
        let strong_exhausted = !strong.exhausted_checkers().is_empty();
        #[allow(unused_mut)]
        let mut artifacts = compute_artifacts_for_cfg(&canonical.cfg);
        #[cfg(feature = "fault-inject")]
        if let Some(kind) = inject {
            let _ = pst_verify::inject(
                &mut artifacts,
                &pst_verify::FaultPlan {
                    kind,
                    seed: fault_seed,
                },
            );
        }
        #[cfg(not(feature = "fault-inject"))]
        let _ = (inject, fault_seed);
        let report = verify_artifacts(&artifacts, config);
        if report.is_clean() {
            Outcome::Clean {
                exhausted: strong_exhausted || !report.exhausted_checkers().is_empty(),
            }
        } else {
            Outcome::Violation(report.to_string())
        }
    }));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => Outcome::Panic(panic_message(payload)),
    }
}

/// Best-effort extraction of the panic payload message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Greedy minimization: repeatedly try dropping one edge at a time (the
/// input must keep failing), then compact away nodes no edge mentions,
/// until a fixpoint, [`MINIMIZE_STEPS`] evaluations or `config`'s deadline.
fn minimize(mut input: Input, inject: InjectSpec, fault_seed: u64, config: &VerifyConfig) -> Input {
    let mut steps = config.budget.capped(MINIMIZE_STEPS);
    let mut still_fails = |candidate: &Input| {
        // `spend(0)` reads the clock on every evaluation.
        if steps.spend(1).and_then(|()| steps.spend(0)).is_err() {
            return false;
        }
        let (g, entry) = candidate.to_graph();
        run_one(&g, entry, inject, fault_seed, config).fails()
    };
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < input.edges.len() {
            // An empty edge list would not round-trip through
            // `pst --canonicalize`; keep at least one edge.
            if input.edges.len() == 1 {
                break;
            }
            let mut candidate = input.clone();
            candidate.edges.remove(i);
            if still_fails(&candidate) {
                input = candidate;
                changed = true;
            } else {
                i += 1;
            }
        }
        let compacted = compact_nodes(&input);
        if compacted.node_count < input.node_count && still_fails(&compacted) {
            input = compacted;
            changed = true;
        }
        if !changed {
            break;
        }
    }
    input
}

/// Renumbers nodes so only the entry and nodes mentioned by an edge remain.
fn compact_nodes(input: &Input) -> Input {
    let mut used = vec![false; input.node_count];
    if !used.is_empty() {
        used[0] = true;
    }
    for &(a, b) in &input.edges {
        used[a] = true;
        used[b] = true;
    }
    let mut map = vec![usize::MAX; input.node_count];
    let mut next = 0usize;
    for (i, &u) in used.iter().enumerate() {
        if u {
            map[i] = next;
            next += 1;
        }
    }
    Input {
        node_count: next,
        edges: input.edges.iter().map(|&(a, b)| (map[a], map[b])).collect(),
    }
}

/// Derives a deterministic digraph shape from the seed so a range of seeds
/// sweeps sizes, densities, and every Definition-1 violation.
fn config_for_seed(seed: u64) -> DigraphConfig {
    DigraphConfig {
        nodes: 2 + (seed % 15) as usize,
        edges: (seed % 29) as usize,
        force_entry_predecessor: seed.is_multiple_of(3),
        force_unreachable: seed.is_multiple_of(5),
        force_infinite_loop: seed.is_multiple_of(7),
        force_multiple_exits: seed % 4 == 1,
        force_self_loop: seed % 6 == 2,
    }
}

/// Runs the fuzz loop. Exit taxonomy: contained panics dominate (code 4),
/// then checker violations (code 3); a fully clean run exits 0.
pub fn fuzz_command(opts: &FuzzOptions) -> Result<(), Failure> {
    let _span = pst_obs::Span::enter("fuzz");
    #[cfg(feature = "fault-inject")]
    let inject: InjectSpec = match &opts.inject_fault {
        Some(name) => Some(pst_verify::FaultKind::from_name(name).ok_or_else(|| {
            Failure::Usage(format!(
                "unknown fault kind `{name}` (expected one of: {})",
                pst_verify::FaultKind::ALL
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?),
        None => None,
    };
    #[cfg(not(feature = "fault-inject"))]
    let inject: InjectSpec = match &opts.inject_fault {
        Some(_) => {
            return Err(Failure::Usage(
                "--inject-fault requires a binary built with `--features fault-inject`".to_string(),
            ))
        }
        None => None,
    };

    // Panics are contained and reported as data; silence the default hook's
    // stderr backtrace chatter for the duration of the loop.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // One budget bounds the loop, each case's checks and its minimization.
    let mut budget = Budget::steps(DEFAULT_ORACLE_BUDGET);
    if let Some(ms) = opts.budget_ms {
        budget = budget.until(Instant::now() + Duration::from_millis(ms));
    }
    let config = VerifyConfig { budget };
    let mut ran = 0u64;
    let mut rejected = 0u64;
    let mut exhausted = 0u64;
    let mut violations = 0u64;
    let mut panics = 0u64;
    let mut first_violation: Option<String> = None;
    let mut first_panic: Option<String> = None;
    for seed in opts.seed_start..opts.seed_end {
        if budget.spend(0).is_err() {
            break;
        }
        let (graph, entry) = random_digraph(&config_for_seed(seed), seed);
        // Each fuzz case is a telemetry unit: its pipeline counters and
        // phase histograms land under `seed:<N>` as well as the global
        // aggregate, so a crash can be profiled in isolation.
        let outcome = {
            let _unit = pst_obs::UnitScope::enter(format!("seed:{seed}"));
            run_one(&graph, entry, inject, seed, &config)
        };
        ran += 1;
        pst_obs::counter!("fuzz_inputs");
        match &outcome {
            Outcome::Clean { exhausted: e } => {
                if *e {
                    exhausted += 1;
                    pst_obs::counter!("fuzz_budget_exhausted");
                }
            }
            Outcome::Rejected => rejected += 1,
            Outcome::Violation(detail) | Outcome::Panic(detail) => {
                let small = minimize(Input::of_graph(&graph), inject, seed, &config);
                let path = write_reproducer(&opts.out_dir, seed, &small)?;
                let (kind, what) = if matches!(outcome, Outcome::Panic(_)) {
                    panics += 1;
                    pst_obs::counter!("fuzz_panics_contained");
                    first_panic.get_or_insert_with(|| format!("seed {seed}: {detail}"));
                    ("panic", format!("CONTAINED PANIC `{detail}`"))
                } else {
                    violations += 1;
                    pst_obs::counter!("fuzz_violations");
                    first_violation.get_or_insert_with(|| format!("seed {seed}:\n{detail}"));
                    ("violation", "CHECKER VIOLATION".to_string())
                };
                pst_obs::journal::emit(pst_obs::journal::Event::FuzzCrash {
                    seed,
                    kind: kind.to_string(),
                    detail: first_line(detail),
                    reproducer: Some(path.clone()),
                });
                println!(
                    "seed {seed}: {what} ({} nodes, {} edges minimized) -> {path}",
                    small.node_count,
                    small.edges.len()
                );
            }
        }
    }
    std::panic::set_hook(previous_hook);

    println!(
        "fuzz: {ran} inputs (seeds {}..{}{}), {rejected} rejected by canonicalization, \
         {exhausted} oracle-budget-exhausted, {violations} violations, {panics} contained panics",
        opts.seed_start,
        opts.seed_end,
        if ran < opts.seed_end - opts.seed_start {
            ", stopped on --budget-ms"
        } else {
            ""
        },
    );
    if let Some(message) = first_panic {
        return Err(Failure::ContainedPanic(format!(
            "{panics} contained panic(s); first: {message}"
        )));
    }
    if let Some(message) = first_violation {
        return Err(Failure::Violation(format!(
            "{violations} checker violation(s); first: {message}"
        )));
    }
    Ok(())
}

/// First line of a multi-line checker report or panic message — journal
/// events stay single-line greppable; the full text is on stdout anyway.
fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or_default().to_string()
}

/// Writes the minimized edge list to `<dir>/<seed>.edges`.
fn write_reproducer(dir: &str, seed: u64, input: &Input) -> Result<String, Failure> {
    std::fs::create_dir_all(dir).map_err(|e| {
        Failure::Analysis(format!("cannot create reproducer directory `{dir}`: {e}"))
    })?;
    let path = format!("{dir}/{seed}.edges");
    std::fs::write(&path, input.render_edges())
        .map_err(|e| Failure::Analysis(format!("cannot write reproducer `{path}`: {e}")))?;
    Ok(path)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn seed_range_parsing() {
        assert_eq!(parse_seed_range("0..10"), Ok((0, 10)));
        assert_eq!(parse_seed_range(" 3 .. 7 "), Ok((3, 7)));
        assert!(parse_seed_range("5..5").is_err());
        assert!(parse_seed_range("7..3").is_err());
        assert!(parse_seed_range("abc").is_err());
    }

    #[test]
    fn compaction_keeps_entry_and_renumbers() {
        let input = Input {
            node_count: 6,
            edges: vec![(0, 2), (2, 5)],
        };
        let small = compact_nodes(&input);
        assert_eq!(small.node_count, 3);
        assert_eq!(small.edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn clean_seeds_stay_clean() {
        // A small smoke over the first seeds: the real pipeline must not
        // trip its own checkers on arbitrary digraph inputs.
        for seed in 0..12u64 {
            let (graph, entry) = random_digraph(&config_for_seed(seed), seed);
            let outcome = run_one(&graph, entry, None, seed, &VerifyConfig::default());
            assert!(
                !outcome.fails(),
                "seed {seed} failed the self-check pipeline"
            );
        }
    }
}
