//! `pst` — command-line front door to the Program Structure Tree library.
//!
//! ```text
//! pst <command> <file.mini | ->
//!
//! commands:
//!   regions          print each function's PST and shape statistics
//!   kinds            classify every SESE region (block/if/case/loop/dag/…)
//!   dot              Graphviz DOT dump, nodes colored by innermost region
//!   clusters         Graphviz DOT dump with regions as nested clusters
//!   control-regions  control-dependence equivalence classes (§5)
//!   ssa              φ-placement and SSA renaming (§6.1)
//!   dataflow         per-variable reaching definitions via QPGs (§6.2)
//!   loops            natural-loop nesting forest (dominator view)
//!   intervals        Allen–Cocke derived sequence and reducibility
//!
//! pst --canonicalize <edges.txt | -> [--tether] [--split-self-loops]
//! pst lint <file.mini | -> [--edges] [--json] [--dot <path>]
//!          [--allow <rule>] [--deny <rule>]
//! pst fuzz --seed-range <A>..<B> [--budget-ms <N>] [--out-dir <dir>]
//! ```
//!
//! `--canonicalize` reads a raw `a->b`-style edge list (node 0 is the
//! entry), repairs every Definition-1 violation — unreachable nodes
//! (pruned, or tethered with `--tether`), missing/multiple exits, infinite
//! loops, entry predecessors — prints the repair report, and runs the PST
//! on the repaired CFG with a slow-bracket oracle cross-check.
//!
//! `fuzz` streams seeded arbitrary digraphs through the whole pipeline with
//! every `pst-verify` invariant checker enabled, contains panics per input,
//! and writes a minimized reproducer edge list for each failure (see
//! `docs/VERIFICATION.md`). `--paranoid` runs the same checkers on the
//! normal command paths.
//!
//! `lint` runs the rule-based structural diagnostics of `pst-analysis`
//! (irreducible loops, vacuous branches, uninitialized reads, …; catalog
//! in `docs/ANALYSIS.md`) over a mini program, or over a raw edge list
//! with `--edges`. `--allow`/`--deny` silence or escalate individual
//! rules; `--json` emits machine-readable reports; `--dot` writes a
//! Graphviz dump with the findings highlighted.
//!
//! `-` reads the program from stdin. Exit codes: 0 ok, 1 analysis error,
//! 2 usage error, 3 invariant-checker violation, 4 contained panic
//! (a contained panic takes precedence over a violation), 5 lint
//! findings.
//!
//! Observability (see `docs/OBSERVABILITY.md`): `--trace` prints the
//! recorded phase tree and counters to stderr; `--metrics-json <path>`
//! writes the same report as JSON (`-` = stderr). The `PST_METRICS`
//! environment variable supplies a default for `--metrics-json`.
//!
//! `--journal <path>` appends one JSON line per structured event (run
//! lifecycle, per-unit summaries, lint findings, fuzz crashes, serve
//! slow requests) to `<path>` (`-` = stderr); `PST_JOURNAL` supplies
//! the default and `PST_TRACE_SEED` pins the run's trace id for
//! reproducible journals. `pst obs <file>...` aggregates journals and
//! metrics JSON into one fleet view.
//!
//! `serve` runs the long-lived analysis daemon: newline-delimited
//! JSON-RPC over stdin/stdout (or TCP with `--listen addr:port`), with
//! a content-hash LRU session cache that makes repeat queries lookups
//! instead of recomputes (see `docs/SERVING.md`).

// The CLI's request path must never panic on user input: unwrap/expect
// are banned outside test modules (which opt back in explicitly), and
// verify.sh runs clippy with warnings as errors to keep it that way.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod fuzz;
mod lint;
mod obs;
mod serve;
mod top;

use std::io::Read as _;
use std::process::ExitCode;

use pst_analysis::Analysis;
use pst_cfg::graph_to_dot_with;
use pst_controldep::fow_control_regions;
use pst_core::{classify_regions, PstStats};
use pst_dataflow::{solve_iterative, SingleVariableReachingDefs};
use pst_lang::{lower_program, parse_program, LoweredFunction, VarId};
use pst_ssa::{place_phis_cytron, rename};

const USAGE: &str = "usage: pst \
     <regions|kinds|dot|clusters|control-regions|ssa|dataflow|loops|intervals> \
     <file.mini | -> [--paranoid] [--trace] [--metrics-json <path>] [--journal <path>]\n       \
     pst --canonicalize <edges.txt | -> [--tether] [--split-self-loops] [--paranoid]\n       \
     pst lint <file.mini | -> [--edges] [--json] [--dot <path>] \
     [--allow <rule>] [--deny <rule>]\n       \
     pst lint --explain <rule>\n       \
     pst fuzz --seed-range <A>..<B> [--budget-ms <N>] [--out-dir <dir>]\n       \
     pst obs <journal|metrics.json>... [--format text|json] \
     [--level info|warn|error] [--type <event-type>] [--top <N>]\n       \
     pst serve [--listen <addr:port>] [--workers <N>] [--request-timeout-ms <N>] \
     [--max-inflight <N>] [--cache-entries <N>] [--cache-bytes <N>] \
     [--max-request-bytes <N>] [--cache-snapshot <path>] [--snapshot-every <N>] \
     [--metrics-window-ms <N>] [--slowlog-ms <N>] [--metrics-listen <addr:port>] \
     [--inject-fault panic|slow|drop-conn|corrupt-snapshot]\n       \
     pst top --addr <addr:port> [--once] [--format text|json] [--interval-ms <N>]";

fn main() -> ExitCode {
    let started = std::time::Instant::now();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = take_flag(&mut args, "--trace");
    let metrics_json = match take_value_flag(&mut args, "--metrics-json") {
        Ok(v) => v.or_else(|| std::env::var("PST_METRICS").ok().filter(|s| !s.is_empty())),
        Err(msg) => {
            eprintln!("pst: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let journal_target = match take_value_flag(&mut args, "--journal") {
        Ok(v) => v.or_else(|| std::env::var("PST_JOURNAL").ok().filter(|s| !s.is_empty())),
        Err(msg) => {
            eprintln!("pst: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let canonicalize_mode = take_flag(&mut args, "--canonicalize");
    let paranoid = take_flag(&mut args, "--paranoid");
    let options = pst_cfg::CanonicalizeOptions {
        unreachable: if take_flag(&mut args, "--tether") {
            pst_cfg::UnreachablePolicy::Tether
        } else {
            pst_cfg::UnreachablePolicy::Prune
        },
        split_self_loops: take_flag(&mut args, "--split-self-loops"),
    };
    if let Some(target) = journal_target.as_deref() {
        // PST_TRACE_SEED pins the trace id so seeded runs journal
        // reproducibly; without it the id is minted from the clock.
        let seed = std::env::var("PST_TRACE_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok());
        if let Err(e) = pst_obs::journal::install(target, seed) {
            eprintln!("pst: cannot open journal `{target}`: {e}");
            return ExitCode::from(2);
        }
    }
    let command = if canonicalize_mode {
        "canonicalize".to_string()
    } else {
        args.first().cloned().unwrap_or_default()
    };
    pst_obs::journal::emit(pst_obs::journal::Event::RunStart {
        command: command.clone(),
        args: if canonicalize_mode {
            args.clone()
        } else {
            args.iter().skip(1).cloned().collect()
        },
    });
    // Subcommands with flags of their own parse the rest of the line;
    // everything else is the `(command, path)` form.
    let subcommand = match command.as_str() {
        "fuzz" | "lint" | "obs" | "serve" | "top" if !canonicalize_mode => Some(args.remove(0)),
        _ => None,
    };
    let outcome = match subcommand.as_deref() {
        Some("fuzz") => fuzz::FuzzOptions::from_args(&mut args)
            .map_err(Failure::Usage)
            .and_then(|opts| fuzz::fuzz_command(&opts)),
        Some("lint") => lint::LintOptions::from_args(&mut args, options)
            .map_err(Failure::Usage)
            .and_then(|opts| lint::lint_command(&opts)),
        Some("obs") => obs::ObsOptions::from_args(&mut args)
            .map_err(Failure::Usage)
            .and_then(|opts| obs::obs_command(&opts)),
        Some("serve") => serve::ServeOptions::from_args(&mut args)
            .map_err(Failure::Usage)
            .and_then(|opts| serve::serve_command(&opts)),
        Some(_) => top::TopOptions::from_args(&mut args)
            .map_err(Failure::Usage)
            .and_then(|opts| top::top_command(&opts)),
        None => dispatch(canonicalize_mode, paranoid, &options, &args),
    };
    emit_observability(trace, metrics_json.as_deref());
    let code: u8 = match &outcome {
        Ok(()) => 0,
        Err(Failure::Usage(msg)) => {
            eprintln!("pst: {msg}\n{USAGE}");
            2
        }
        Err(Failure::Analysis(msg)) => {
            eprintln!("pst: {msg}");
            1
        }
        Err(Failure::Violation(msg)) => {
            eprintln!("pst: invariant violation: {msg}");
            3
        }
        Err(Failure::ContainedPanic(msg)) => {
            eprintln!("pst: contained panic: {msg}");
            4
        }
        Err(Failure::Lint(count)) => {
            eprintln!("pst: {count} lint finding(s)");
            5
        }
    };
    finish_journal(&command, code, started);
    ExitCode::from(code)
}

/// Mirrors the run's per-unit sub-reports into the journal (so a fleet
/// aggregator can rank units without the metrics JSON), then closes the
/// run with a `run_end` carrying the resolved exit code.
fn finish_journal(command: &str, exit_code: u8, started: std::time::Instant) {
    if !pst_obs::journal::installed() {
        return;
    }
    // The serve daemon already journals one unit_summary per request as
    // it happens; mirroring its aggregated units here would double-count
    // them in a fleet view.
    if pst_obs::enabled() && command != "serve" {
        let report = pst_obs::report();
        for (unit, u) in &report.units {
            pst_obs::journal::emit(pst_obs::journal::Event::UnitSummary {
                unit: unit.clone(),
                nanos: u.nanos,
                count: u.count,
            });
        }
    }
    pst_obs::journal::emit(pst_obs::journal::Event::RunEnd {
        command: command.to_string(),
        exit_code: exit_code as u64,
        nanos: started.elapsed().as_nanos() as u64,
    });
    pst_obs::journal::uninstall();
}

/// Resolves the `(command, path)` form of the CLI and runs it.
fn dispatch(
    canonicalize_mode: bool,
    paranoid: bool,
    options: &pst_cfg::CanonicalizeOptions,
    args: &[String],
) -> Result<(), Failure> {
    let (command, path) = if canonicalize_mode {
        match (args.first(), args.get(1)) {
            (Some(p), None) => ("--canonicalize", p.as_str()),
            _ => {
                return Err(Failure::Usage(
                    "expected exactly one input path".to_string(),
                ))
            }
        }
    } else {
        match (args.first(), args.get(1)) {
            (Some(c), Some(p)) => (c.as_str(), p.as_str()),
            _ => {
                return Err(Failure::Usage(
                    "expected a command and an input path".to_string(),
                ))
            }
        }
    };
    let source = read_source(path).map_err(Failure::Usage)?;
    if canonicalize_mode {
        canonicalize_command(&source, options, paranoid)
    } else {
        run(command, &source, paranoid)
    }
}

/// Removes every occurrence of the bare flag `name`; true if it was present.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

/// Removes `name <value>` or `name=<value>` from `args` (last one wins).
pub fn take_value_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            if i + 1 >= args.len() {
                return Err(format!("`{name}` requires a value"));
            }
            args.remove(i);
            value = Some(args.remove(i));
        } else if let Some(v) = args[i].strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
            value = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(value)
}

/// Prints/writes the observability report per `--trace` / `--metrics-json`.
fn emit_observability(trace: bool, json_path: Option<&str>) {
    if !trace && json_path.is_none() {
        return;
    }
    if !pst_obs::enabled() {
        eprintln!("pst: built without observability (`obs` feature); no metrics recorded");
        return;
    }
    let report = pst_obs::report();
    if trace {
        eprint!("{}", report.render_text());
    }
    if let Some(path) = json_path {
        let text = format!("{}\n", report.to_json());
        if path == "-" {
            eprint!("{text}");
        } else if let Err(e) = std::fs::write(path, text) {
            eprintln!("pst: cannot write metrics to `{path}`: {e}");
        }
    }
}

/// Every way a command can fail, ordered by exit code (2, 1, 3, 4, 5).
/// A contained panic takes precedence over a checker violation when the
/// fuzz loop sees both.
#[derive(Debug)]
pub enum Failure {
    Usage(String),
    Analysis(String),
    /// An independent invariant checker flagged the pipeline (exit 3).
    Violation(String),
    /// A panic was caught by the fuzz loop's containment (exit 4).
    ContainedPanic(String),
    /// `pst lint` found this many diagnostics (exit 5). Not an error —
    /// the report was already printed.
    Lint(usize),
}

/// Reads the input (file path, or `-` for stdin) as UTF-8 text with
/// precise diagnostics instead of `read_to_string`'s generic errors:
/// empty input and non-UTF-8 bytes are rejected with exact messages
/// (the UTF-8 error names the first invalid byte offset), and an
/// unterminated final line is normalized with a trailing newline so the
/// line-oriented parsers see complete lines. The serve loop applies the
/// same rules per request line (`pst-serve`'s bounded reader).
fn read_source(path: &str) -> Result<String, String> {
    let bytes = if path == "-" {
        let mut buf = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?
    };
    let what = if path == "-" { "stdin" } else { path };
    if bytes.is_empty() {
        return Err(format!(
            "{what} is empty (expected a mini program or an edge list)"
        ));
    }
    let mut text = String::from_utf8(bytes).map_err(|e| {
        format!(
            "{what} is not valid UTF-8 (first invalid byte at offset {})",
            e.utf8_error().valid_up_to()
        )
    })?;
    if !text.ends_with('\n') {
        text.push('\n');
    }
    Ok(text)
}

fn run(command: &str, source: &str, paranoid: bool) -> Result<(), Failure> {
    let _span = pst_obs::Span::enter("pipeline");
    let program =
        parse_program(source).map_err(|e| Failure::Analysis(format!("parse error: {e}")))?;
    let lowered =
        lower_program(&program).map_err(|e| Failure::Analysis(format!("lowering error: {e}")))?;
    for function in &lowered {
        // Attribute every span/counter/histogram recorded below to this
        // function's unit as well as the global aggregate.
        let _unit = pst_obs::UnitScope::enter(function.name.as_str());
        let analysis = Analysis::of_function(function, None);
        match command {
            "regions" => regions(function, &analysis),
            "kinds" => kinds(function, &analysis),
            "dot" => dot(function, &analysis),
            "clusters" => clusters(function, &analysis),
            "control-regions" => control_regions(function, &analysis),
            "ssa" => ssa(function, &analysis)?,
            "dataflow" => dataflow(function, &analysis)?,
            "loops" => loops(function),
            "intervals" => intervals(function),
            other => return Err(Failure::Usage(format!("unknown command `{other}`"))),
        }
        if paranoid {
            paranoid_check(&analysis, &format!("fn {}", function.name))?;
        }
        println!();
    }
    Ok(())
}

/// `--paranoid`: checks the stages the command printed, and the rest, with
/// the independent `pst-verify` checkers; a violation is exit code 3.
fn paranoid_check(analysis: &Analysis<'_>, unit: &str) -> Result<(), Failure> {
    let artifacts = pst_verify::compute_artifacts(analysis);
    let report = pst_verify::verify_artifacts(&artifacts, &pst_verify::VerifyConfig::default());
    if report.is_clean() {
        Ok(())
    } else {
        Err(Failure::Violation(format!(
            "{unit}: invariant checkers flagged the pipeline:\n{report}"
        )))
    }
}

/// `pst --canonicalize`: repair an arbitrary edge-list digraph into a valid
/// CFG, report every repair, and run the PST with an oracle cross-check.
fn canonicalize_command(
    source: &str,
    options: &pst_cfg::CanonicalizeOptions,
    paranoid: bool,
) -> Result<(), Failure> {
    let _span = pst_obs::Span::enter("pipeline");
    let (graph, entry) = pst_cfg::parse_edge_list_graph(source)
        .map_err(|e| Failure::Analysis(format!("parse error: {e}")))?;
    println!(
        "input: {} nodes, {} edges, entry {entry}",
        graph.node_count(),
        graph.edge_count()
    );
    let result = pst_cfg::canonicalize(&graph, entry, options)
        .map_err(|e| Failure::Analysis(format!("canonicalization failed: {e}")))?;
    print!("{}", result.report);
    let cfg = &result.cfg;
    println!(
        "canonical CFG: {} nodes, {} edges, entry {}, exit {}",
        cfg.node_count(),
        cfg.edge_count(),
        cfg.entry(),
        cfg.exit()
    );

    // Cross-check the fast cycle-equivalence algorithm against the §3.3
    // explicit-bracket oracle on the repaired graph's closure. A mismatch
    // is an analysis failure, never a panic.
    let (s, _virtual_edge) = cfg.to_strongly_connected();
    let fast = pst_core::CycleEquiv::compute(&s, cfg.entry())
        .map_err(|e| Failure::Analysis(format!("cycle equivalence failed: {e}")))?;
    let slow = pst_core::cycle_equiv_slow_brackets(&s, cfg.entry())
        .map_err(|e| Failure::Analysis(format!("bracket oracle failed: {e}")))?;
    if fast != slow {
        return Err(Failure::Analysis(
            "cycle-equivalence cross-check failed: fast and slow-bracket \
             oracle disagree on the canonicalized CFG"
                .to_string(),
        ));
    }

    // The unit is the checkers' synthetic function over the repaired CFG
    // (the φ checker needs variables), so --paranoid checks the very PST
    // printed below.
    let function = pst_verify::synthetic_function(cfg);
    let analysis = Analysis::of_function(&function, None);
    let pst = analysis.pst();
    print!("{}", pst.render());
    println!(
        "{} canonical regions (cross-checked against the slow-bracket oracle)",
        pst.canonical_region_count()
    );
    if paranoid {
        paranoid_check(&analysis, "canonicalized CFG")?;
        println!(
            "paranoid: all {} invariant checkers passed",
            pst_verify::CheckerId::ALL.len()
        );
    }
    Ok(())
}

fn regions(f: &LoweredFunction, analysis: &Analysis<'_>) {
    let pst = analysis.pst();
    let stats = PstStats::of(pst);
    println!(
        "fn {}: {} blocks, {} edges, {} statements",
        f.name,
        f.cfg.node_count(),
        f.cfg.edge_count(),
        f.statement_count()
    );
    print!("{}", pst.render());
    println!(
        "{} canonical regions, max depth {}, average depth {:.2}, max collapsed size {}",
        stats.region_count,
        stats.max_depth,
        stats.average_depth(),
        stats.max_collapsed_size
    );
}

fn kinds(f: &LoweredFunction, analysis: &Analysis<'_>) {
    let pst = analysis.pst();
    let classification = classify_regions(&f.cfg, pst);
    println!("fn {}:", f.name);
    for r in pst.regions() {
        let indent = "  ".repeat(pst.depth(r) + 1);
        println!("{indent}{r}: {}", classification.kind(r));
    }
    println!(
        "  completely structured: {}",
        classification.is_completely_structured()
    );
}

const PALETTE: &[&str] = &[
    "lightblue",
    "lightyellow",
    "lightpink",
    "lightgreen",
    "lavender",
    "mistyrose",
    "honeydew",
    "thistle",
];

fn dot(f: &LoweredFunction, analysis: &Analysis<'_>) {
    let pst = analysis.pst();
    println!("// fn {}", f.name);
    let rendered = graph_to_dot_with(
        f.cfg.graph(),
        |n| {
            let r = pst.region_of_node(n);
            let text: Vec<&str> = f.blocks[n.index()]
                .stmts
                .iter()
                .map(|s| s.text.as_str())
                .collect();
            format!(
                "label=\"{n} [{r}]\\n{}\", style=filled, fillcolor={}",
                text.join("\\n"),
                PALETTE[r.index() % PALETTE.len()]
            )
        },
        |_| String::new(),
    );
    print!("{rendered}");
}

fn clusters(f: &LoweredFunction, analysis: &Analysis<'_>) {
    println!("// fn {} — regions as nested clusters", f.name);
    print!("{}", pst_core::pst_to_dot(&f.cfg, analysis.pst()));
}

fn control_regions(f: &LoweredFunction, analysis: &Analysis<'_>) {
    let fast = analysis.control_regions();
    debug_assert_eq!(*fast, fow_control_regions(&f.cfg));
    println!("fn {}: {} control regions", f.name, fast.num_classes());
    for (class, nodes) in fast.groups().iter().enumerate() {
        let labels: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
        println!("  class {class}: {}", labels.join(" "));
    }
}

fn ssa(f: &LoweredFunction, analysis: &Analysis<'_>) -> Result<(), Failure> {
    let sparse = analysis
        .phi()
        .map_err(|e| Failure::Analysis(e.to_string()))?;
    let baseline = place_phis_cytron(f);
    if baseline != sparse.placement {
        return Err(Failure::Violation(format!(
            "fn {}: PST φ-placement disagrees with the Cytron baseline (Theorem 9)",
            f.name
        )));
    }
    let form = rename(f, &baseline).map_err(|e| Failure::Analysis(e.to_string()))?;
    println!("fn {}: {} φ-functions", f.name, form.total_phis());
    for node in f.cfg.graph().nodes() {
        if form.phi_nodes[node.index()].is_empty() && form.statements[node.index()].is_empty() {
            continue;
        }
        println!("  block {node}:");
        for phi in &form.phi_nodes[node.index()] {
            let args: Vec<String> = phi
                .args
                .iter()
                .map(|(p, v)| format!("{}_{v}@{p}", f.var_name(phi.var)))
                .collect();
            println!(
                "    {}_{} = φ({})",
                f.var_name(phi.var),
                phi.result,
                args.join(", ")
            );
        }
        for (stmt, info) in form.statements[node.index()]
            .iter()
            .zip(&f.blocks[node.index()].stmts)
        {
            match stmt.def {
                Some((d, v)) => println!("    {}_{v}   // {}", f.var_name(d), info.text),
                None => println!("    //: {}", info.text),
            }
        }
    }
    Ok(())
}

fn loops(f: &LoweredFunction) {
    let forest = pst_dominators::LoopForest::compute(&f.cfg);
    println!("fn {}: {} natural loops", f.name, forest.loops().len());
    for (i, l) in forest.loops().iter().enumerate() {
        let body: Vec<String> = l.body.iter().map(|n| n.to_string()).collect();
        let parent = match l.parent {
            Some(p) => format!(" (inside loop {p})"),
            None => String::new(),
        };
        println!(
            "  loop {i}: header {}{} body {{{}}}",
            l.header,
            parent,
            body.join(", ")
        );
    }
}

fn intervals(f: &LoweredFunction) {
    let seq = pst_dataflow::derived_sequence(&f.cfg);
    println!(
        "fn {}: derived sequence {:?} -> {}",
        f.name,
        seq.interval_counts,
        if seq.reducible {
            "reducible"
        } else {
            "IRREDUCIBLE"
        }
    );
}

fn dataflow(f: &LoweredFunction, analysis: &Analysis<'_>) -> Result<(), Failure> {
    let qpg_failure =
        |e: pst_dataflow::QpgError| Failure::Analysis(format!("fn {}: QPG error: {e}", f.name));
    let ctx = analysis.qpg_context().map_err(qpg_failure)?;
    println!(
        "fn {}: per-variable reaching definitions via quick propagation graphs",
        f.name
    );
    for v in 0..f.var_count() {
        let var = VarId::from_index(v);
        let problem = SingleVariableReachingDefs::new(f, var);
        let qpg = ctx.build_from_sites(problem.sites()).map_err(qpg_failure)?;
        let sparse = ctx.solve(&qpg, &problem).map_err(qpg_failure)?;
        let full = solve_iterative(&f.cfg, &problem);
        let ok = if sparse == full { "ok" } else { "MISMATCH" };
        let exit_defs: Vec<String> = sparse
            .value_in(f.cfg.exit())
            .iter()
            .map(|i| format!("{}", problem.sites()[i]))
            .collect();
        println!(
            "  {:>6}: QPG {:>3}/{} nodes, defs reaching exit: [{}] ({ok})",
            f.var_name(var),
            qpg.node_count(),
            f.cfg.node_count(),
            exit_defs.join(", ")
        );
    }
    Ok(())
}
