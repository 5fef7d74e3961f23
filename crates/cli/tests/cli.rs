//! End-to-end tests of the `pst` binary: every subcommand over a sample
//! program, plus error handling and exit codes.

use std::io::Write as _;
use std::process::{Command, Stdio};

const SAMPLE: &str = "
fn sample(n) {
    s = 0;
    while (n > 0) {
        if (n % 2 == 0) { s = s + n; }
        n = n - 1;
    }
    return s;
}
";

fn run(args: &[&str], stdin: Option<&str>) -> (String, String, i32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pst"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    if stdin.is_some() {
        cmd.stdin(Stdio::piped());
    }
    let mut child = cmd.spawn().expect("binary runs");
    if let Some(input) = stdin {
        // A command that rejects its arguments exits without reading
        // stdin, so the write can race its exit and hit a closed pipe;
        // the exit code and output still say what happened.
        let written = child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(input.as_bytes());
        if let Err(e) = written {
            assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "write stdin: {e}");
        }
    }
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

fn sample_file() -> std::path::PathBuf {
    // Written once per test process: tests run in parallel, and
    // rewriting one shared file truncates it under a concurrent reader.
    static PATH: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    PATH.get_or_init(|| {
        let name = format!("pst_cli_sample_{}.mini", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, SAMPLE).expect("write sample");
        path
    })
    .clone()
}

#[test]
fn regions_prints_tree_and_stats() {
    let f = sample_file();
    let (out, _, code) = run(&["regions", f.to_str().unwrap()], None);
    assert_eq!(code, 0);
    assert!(out.contains("fn sample"));
    assert!(out.contains("<procedure>"));
    assert!(out.contains("canonical regions"));
}

#[test]
fn kinds_reports_structure() {
    let f = sample_file();
    let (out, _, code) = run(&["kinds", f.to_str().unwrap()], None);
    assert_eq!(code, 0);
    assert!(out.contains("loop"));
    assert!(out.contains("if-then-else"));
    assert!(out.contains("completely structured: true"));
}

#[test]
fn dot_emits_graphviz() {
    let f = sample_file();
    let (out, _, code) = run(&["dot", f.to_str().unwrap()], None);
    assert_eq!(code, 0);
    assert!(out.contains("digraph"));
    assert!(out.contains("fillcolor"));
}

#[test]
fn control_regions_partitions_blocks() {
    let f = sample_file();
    let (out, _, code) = run(&["control-regions", f.to_str().unwrap()], None);
    assert_eq!(code, 0);
    assert!(out.contains("control regions"));
    assert!(out.contains("class 0:"));
}

#[test]
fn ssa_places_phis() {
    let f = sample_file();
    let (out, _, code) = run(&["ssa", f.to_str().unwrap()], None);
    assert_eq!(code, 0);
    assert!(out.contains("φ-functions"));
    assert!(out.contains("= φ("));
}

#[test]
fn dataflow_verifies_qpg_solutions() {
    let f = sample_file();
    let (out, _, code) = run(&["dataflow", f.to_str().unwrap()], None);
    assert_eq!(code, 0);
    assert!(out.contains("(ok)"));
    assert!(!out.contains("MISMATCH"));
}

#[test]
fn reads_from_stdin() {
    let (out, _, code) = run(&["regions", "-"], Some(SAMPLE));
    assert_eq!(code, 0);
    assert!(out.contains("fn sample"));
}

#[test]
fn parse_errors_exit_1_with_position() {
    let (_, err, code) = run(&["regions", "-"], Some("fn broken( { }"));
    assert_eq!(code, 1);
    assert!(err.contains("parse error"), "{err}");
}

#[test]
fn a_huge_node_number_is_a_parse_error_not_an_abort() {
    // Parsing once created every node up to the largest number named:
    // 4·10⁹ nodes, an allocation that aborted the process (exit 134).
    let (_, err, code) = run(&["--canonicalize", "-"], Some("0->4000000000\n"));
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("parse error"), "{err}");
    assert!(err.contains("`0->4000000000` at byte 0"), "{err}");
}

#[test]
fn usage_errors_exit_2() {
    let (_, err, code) = run(&["frobnicate", "-"], Some(SAMPLE));
    assert_eq!(code, 2);
    assert!(err.contains("unknown command"), "{err}");

    let (_, err, code) = run(&[], None);
    assert_eq!(code, 2);
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn missing_file_exits_2() {
    let (_, err, code) = run(&["regions", "/nonexistent/x.mini"], None);
    assert_eq!(code, 2);
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn clusters_emits_nested_subgraphs() {
    let f = sample_file();
    let (out, _, code) = run(&["clusters", f.to_str().unwrap()], None);
    assert_eq!(code, 0);
    assert!(out.contains("subgraph cluster_r1"));
    assert_eq!(out.matches('{').count(), out.matches('}').count());
}

#[test]
fn loops_and_intervals_commands() {
    let f = sample_file();
    let (out, _, code) = run(&["loops", f.to_str().unwrap()], None);
    assert_eq!(code, 0);
    assert!(out.contains("natural loops"), "{out}");
    assert!(out.contains("header"), "{out}");

    let (out, _, code) = run(&["intervals", f.to_str().unwrap()], None);
    assert_eq!(code, 0);
    assert!(out.contains("reducible"), "{out}");

    // The usage line lists both commands.
    let (_, err, code) = run(&["bogus", f.to_str().unwrap()], None);
    assert_eq!(code, 2);
    assert!(err.contains("|dataflow|loops|intervals>"), "{err}");
}

#[test]
fn lint_clean_program_exits_0() {
    let f = sample_file();
    let (out, _, code) = run(&["lint", f.to_str().unwrap()], None);
    assert_eq!(code, 0);
    assert!(out.contains("0 diagnostic(s)"), "{out}");
}

#[test]
fn lint_findings_exit_5_with_rule_ids() {
    let defective = "fn f(n) { x = 1; x = 2; return x; }";
    let (out, err, code) = run(&["lint", "-"], Some(defective));
    assert_eq!(code, 5);
    assert!(out.contains("[PST-D002]"), "{out}");
    assert!(err.contains("1 lint finding(s)"), "{err}");
}

#[test]
fn lint_json_is_parseable_and_stable() {
    let defective = "fn f(n) { return m; }";
    let (out, _, code) = run(&["lint", "-", "--json"], Some(defective));
    assert_eq!(code, 5);
    let parsed = pst_obs::json::Json::parse(out.trim()).expect("stdout is valid JSON");
    let reports = match parsed {
        pst_obs::json::Json::Arr(a) => a,
        other => panic!("expected a JSON array, got {other:?}"),
    };
    assert_eq!(reports.len(), 1);
    assert!(out.contains("\"rule\":\"PST-D001\""), "{out}");
    assert!(out.contains("\"severity\":\"error\""), "{out}");
}

#[test]
fn lint_allow_silences_and_deny_escalates() {
    let defective = "fn f(n) { x = 1; x = 2; return x; }";
    let (out, _, code) = run(
        &["lint", "-", "--allow", "dead-definition"],
        Some(defective),
    );
    assert_eq!(code, 0, "{out}");

    let (out, _, code) = run(&["lint", "-", "--deny", "PST-D002"], Some(defective));
    assert_eq!(code, 5);
    assert!(out.contains("error: dead definition"), "{out}");

    let (_, err, code) = run(&["lint", "-", "--allow", "no-such-rule"], Some(defective));
    assert_eq!(code, 2);
    assert!(err.contains("unknown lint rule"), "{err}");
}

#[test]
fn lint_edges_mode_flags_graph_defects() {
    let (out, _, code) = run(&["lint", "-", "--edges"], Some("0->1\n0->1\n1->2\n"));
    assert_eq!(code, 5);
    assert!(out.contains("[PST-C001]"), "{out}");

    let (out, _, code) = run(&["lint", "-", "--edges"], Some("0->1\n1->2\n"));
    assert_eq!(code, 0, "{out}");
}

#[test]
fn lint_dot_export_highlights_findings() {
    let dot_path = std::env::temp_dir().join("pst_cli_lint.dot");
    let _ = std::fs::remove_file(&dot_path);
    let (_, _, code) = run(
        &["lint", "-", "--edges", "--dot", dot_path.to_str().unwrap()],
        Some("0->1\n0->1\n1->2\n"),
    );
    assert_eq!(code, 5);
    let dot = std::fs::read_to_string(&dot_path).expect("dot file written");
    assert!(dot.contains("digraph"), "{dot}");
    assert!(dot.contains("color=red"), "{dot}");
}

// --- commands that write files ---------------------------------------------

/// Like [`run`], but with the working directory pinned (journals,
/// metrics and snapshots are written relative to the cwd).
fn run_in(dir: &std::path::Path, args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_pst"))
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// A fresh, empty per-test directory under the system temp dir.
fn work_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pst_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

// --- journal + pst obs ----------------------------------------------------

/// Like [`run_in`], but with extra environment variables set.
fn run_env(dir: &std::path::Path, args: &[&str], envs: &[(&str, &str)]) -> (String, String, i32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pst"));
    cmd.args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

const TWO_FNS: &str = "
fn alpha(n) { s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }
fn beta(n) { if (n > 0) { n = 1; } else { n = 2; } return n; }
";

fn parse_journal(path: &std::path::Path) -> Vec<pst_obs::journal::Record> {
    let text = std::fs::read_to_string(path).expect("journal written");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| pst_obs::journal::Record::parse_line(l).expect("journal line parses"))
        .collect()
}

#[test]
fn journal_records_run_lifecycle_and_unit_summaries() {
    let dir = work_dir("journal");
    std::fs::write(dir.join("two.mini"), TWO_FNS).expect("write program");
    let (_, err, code) = run_env(
        &dir,
        &[
            "regions",
            "two.mini",
            "--journal",
            "j.jsonl",
            "--metrics-json",
            "m.json",
        ],
        &[("PST_TRACE_SEED", "7")],
    );
    assert_eq!(code, 0, "{err}");

    let records = parse_journal(&dir.join("j.jsonl"));
    // One trace, contiguous sequence numbers, bracketed by the lifecycle.
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64);
        assert_eq!(r.trace, records[0].trace);
    }
    assert!(matches!(
        &records.first().expect("run_start").event,
        pst_obs::journal::Event::RunStart { command, .. } if command == "regions"
    ));
    assert!(matches!(
        &records.last().expect("run_end").event,
        pst_obs::journal::Event::RunEnd { command, exit_code: 0, .. } if command == "regions"
    ));

    // The journaled unit summaries mirror the metrics JSON's `units`
    // sub-reports exactly (same names, nanos, and counts).
    let metrics_text = std::fs::read_to_string(dir.join("m.json")).expect("metrics written");
    let metrics = pst_obs::json::Json::parse(&metrics_text).expect("metrics parse");
    let pst_obs::json::Json::Obj(units) = metrics.get("units").expect("units section") else {
        panic!("units is an object");
    };
    let mut journaled: Vec<(String, u64, u64)> = records
        .iter()
        .filter_map(|r| match &r.event {
            pst_obs::journal::Event::UnitSummary { unit, nanos, count } => {
                Some((unit.clone(), *nanos, *count))
            }
            _ => None,
        })
        .collect();
    journaled.sort();
    let mut expected: Vec<(String, u64, u64)> = units
        .iter()
        .map(|(name, u)| {
            (
                name.clone(),
                u.get("nanos").unwrap().as_u64().unwrap(),
                u.get("count").unwrap().as_u64().unwrap(),
            )
        })
        .collect();
    expected.sort();
    assert_eq!(journaled, expected);
    assert_eq!(journaled.len(), 2, "{journaled:?}");

    // PST_TRACE_SEED pins the trace id: a second seeded run appends
    // records with the same trace.
    let (_, _, code) = run_env(
        &dir,
        &["regions", "two.mini", "--journal", "j.jsonl"],
        &[("PST_TRACE_SEED", "7")],
    );
    assert_eq!(code, 0);
    let records = parse_journal(&dir.join("j.jsonl"));
    assert!(records.iter().all(|r| r.trace == records[0].trace));
}

#[test]
fn obs_merges_two_journals_and_agrees_with_metrics() {
    let dir = work_dir("obs");
    std::fs::write(dir.join("two.mini"), TWO_FNS).expect("write program");
    for i in 1..=2 {
        let (_, err, code) = run_env(
            &dir,
            &[
                "regions",
                "two.mini",
                "--journal",
                &format!("j{i}.jsonl"),
                "--metrics-json",
                &format!("m{i}.json"),
            ],
            &[("PST_TRACE_SEED", if i == 1 { "11" } else { "22" })],
        );
        assert_eq!(code, 0, "{err}");
    }

    let (out, err, code) = run_in(&dir, &["obs", "j1.jsonl", "j2.jsonl", "--format", "json"]);
    assert_eq!(code, 0, "{err}");
    let fleet = pst_obs::json::Json::parse(out.trim()).expect("obs json parses");

    // Two distinct traces were merged.
    let pst_obs::json::Json::Arr(traces) = fleet.get("traces").expect("traces") else {
        panic!("traces is an array");
    };
    assert_eq!(traces.len(), 2);

    // The fleet's per-unit totals are the sum of each run's `units`
    // sub-reports from the metrics JSON — same names, summed nanos.
    let mut expected: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
    for i in 1..=2 {
        let text = std::fs::read_to_string(dir.join(format!("m{i}.json"))).expect("metrics");
        let metrics = pst_obs::json::Json::parse(&text).expect("metrics parse");
        let pst_obs::json::Json::Obj(units) = metrics.get("units").expect("units") else {
            panic!("units is an object");
        };
        for (name, u) in units {
            let slot = expected.entry(name.clone()).or_insert((0, 0));
            slot.0 += u.get("nanos").unwrap().as_u64().unwrap();
            slot.1 += u.get("count").unwrap().as_u64().unwrap();
        }
    }
    let pst_obs::json::Json::Arr(top) = fleet.get("top_units").expect("top_units") else {
        panic!("top_units is an array");
    };
    let ranked: Vec<(String, u64, u64)> = top
        .iter()
        .map(|u| {
            (
                match u.get("unit").unwrap() {
                    pst_obs::json::Json::Str(s) => s.clone(),
                    other => panic!("unit name: {other:?}"),
                },
                u.get("nanos").unwrap().as_u64().unwrap(),
                u.get("count").unwrap().as_u64().unwrap(),
            )
        })
        .collect();
    assert_eq!(ranked.len(), expected.len());
    for (name, nanos, count) in &ranked {
        assert_eq!(expected.get(name), Some(&(*nanos, *count)), "unit {name}");
    }
    // Slowest-first ordering.
    assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1), "{ranked:?}");
}

#[test]
fn obs_filters_a_journal_by_slow_request_type() {
    use pst_obs::journal::{Event, Level, Record};
    let dir = work_dir("obs_slow_request");
    let line = |seq: u64, level: Level, event: Event| {
        let trace = "00000000000000aa".to_string();
        let record = Record {
            seq,
            trace,
            level,
            event,
        };
        record.to_json().to_string()
    };
    let slow = |seq, method: &str| {
        let event = Event::SlowRequest {
            method: method.to_string(),
            unit: Some("u".to_string()),
            total_nanos: 9_000_000,
            compute_nanos: 8_000_000,
        };
        line(seq, Level::Warn, event)
    };
    let start = Event::RunStart {
        command: "serve".into(),
        args: vec![],
    };
    let end = Event::RunEnd {
        command: "serve".into(),
        exit_code: 0,
        nanos: 1,
    };
    let journal = [
        line(0, Level::Info, start),
        slow(1, "pst"),
        slow(2, "controldep"),
        line(3, Level::Info, end),
    ]
    .join("\n");
    std::fs::write(dir.join("j.jsonl"), journal + "\n").expect("write journal");

    let (out, err, code) = run_in(
        &dir,
        &[
            "obs",
            "j.jsonl",
            "--type",
            "slow_request",
            "--format",
            "json",
        ],
    );
    assert_eq!(code, 0, "{err}");
    let fleet = pst_obs::json::Json::parse(out.trim()).expect("obs json parses");
    let pst_obs::json::Json::Arr(events) = fleet.get("events").expect("events") else {
        panic!("events is an array");
    };
    let methods: Vec<_> = events
        .iter()
        .map(|e| Record::from_json(e).expect("event parses").event)
        .map(|event| match event {
            Event::SlowRequest { method, .. } => method,
            other => panic!("filter let through {other:?}"),
        })
        .collect();
    assert_eq!(methods, ["pst", "controldep"]);

    // An unknown type is still a usage error that lists every type.
    let (_, err, code) = run_in(&dir, &["obs", "j.jsonl", "--type", "slow"]);
    assert_eq!(code, 2);
    assert!(err.contains("slow_request"), "{err}");
}

/// A contained fuzz crash must leave a `fuzz_crash` journal event whose
/// reproducer path points at the minimized edge list. Clean builds never
/// crash, so this runs only with `--features fault-inject`.
#[cfg(feature = "fault-inject")]
#[test]
fn fuzz_crash_lands_in_journal_with_reproducer() {
    let dir = work_dir("fuzzjournal");
    let (out, err, code) = run_in(
        &dir,
        &[
            "fuzz",
            "--seed-range",
            "0..6",
            "--inject-fault",
            "merge-cycle-classes",
            "--out-dir",
            "repro",
            "--journal",
            "j.jsonl",
        ],
    );
    assert_eq!(code, 3, "stdout: {out}\nstderr: {err}");
    let records = parse_journal(&dir.join("j.jsonl"));
    let crashes: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.event {
            pst_obs::journal::Event::FuzzCrash {
                seed,
                kind,
                reproducer,
                ..
            } => Some((*seed, kind.clone(), reproducer.clone())),
            _ => None,
        })
        .collect();
    assert!(!crashes.is_empty(), "{records:?}");
    for (seed, kind, reproducer) in &crashes {
        assert_eq!(kind, "violation");
        let path = reproducer.as_deref().expect("reproducer path journaled");
        assert_eq!(path, &format!("repro/{seed}.edges"));
        assert!(dir.join(path).exists(), "reproducer file missing: {path}");
    }
    // Crash events carry the error level so `--level error` isolates them.
    assert!(records
        .iter()
        .filter(|r| matches!(r.event, pst_obs::journal::Event::FuzzCrash { .. }))
        .all(|r| r.level == pst_obs::journal::Level::Error));
}

// --- serve daemon ---------------------------------------------------------

/// Runs `pst serve` with the given extra args, feeds `input` on stdin,
/// and returns one parsed JSON reply per stdout line plus the exit code.
fn serve(extra: &[&str], input: &str) -> (Vec<pst_obs::json::Json>, i32) {
    let mut args = vec!["serve"];
    args.extend_from_slice(extra);
    let (out, err, code) = run(&args, Some(input));
    let replies = out
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            pst_obs::json::Json::parse(l)
                .unwrap_or_else(|e| panic!("reply is not JSON ({e}): {l}\nstderr: {err}"))
        })
        .collect();
    (replies, code)
}

fn reply_ok(reply: &pst_obs::json::Json) -> bool {
    reply.get("ok") == Some(&pst_obs::json::Json::Bool(true))
}

fn error_code(reply: &pst_obs::json::Json) -> String {
    match reply.get("error").and_then(|e| e.get("code")) {
        Some(pst_obs::json::Json::Str(s)) => s.clone(),
        other => panic!("no error code in {reply} ({other:?})"),
    }
}

fn source_request(id: u64, method: &str) -> String {
    pst_obs::json::Json::obj([
        ("id", pst_obs::json::Json::UInt(id)),
        ("method", pst_obs::json::Json::Str(method.into())),
        ("source", pst_obs::json::Json::Str(SAMPLE.into())),
    ])
    .to_string()
}

#[test]
fn serve_answers_every_method_over_ndjson() {
    let mut input = String::new();
    for (i, method) in ["pst", "control_regions", "lint", "ssa", "dataflow"]
        .iter()
        .enumerate()
    {
        input.push_str(&source_request(i as u64, method));
        input.push('\n');
    }
    input.push_str(r#"{"id":90,"method":"canonicalize","edges":"0->1 1->2 0->2"}"#);
    input.push_str("\n{\"id\":91,\"method\":\"stats\"}\n{\"id\":92,\"method\":\"shutdown\"}\n");
    let (replies, code) = serve(&[], &input);
    assert_eq!(code, 0);
    assert_eq!(replies.len(), 8);
    for (i, reply) in replies.iter().enumerate() {
        assert!(reply_ok(reply), "reply {i} not ok: {reply}");
    }
    // Analysis replies name their unit; repeated sources share one hash.
    let unit = |r: &pst_obs::json::Json| match r.get("unit") {
        Some(pst_obs::json::Json::Str(s)) => s.clone(),
        other => panic!("no unit in reply: {other:?}"),
    };
    let first = unit(&replies[0]);
    assert_eq!(first.len(), 16, "unit ids are 16 hex digits: {first}");
    assert!(replies[1..5].iter().all(|r| unit(r) == first));
    assert_ne!(unit(&replies[5]), first, "edge units hash separately");
    // Stats reflect the traffic so far; shutdown acknowledges.
    let stats = replies[6].get("result").expect("stats result");
    assert_eq!(stats.get("requests").unwrap().as_u64(), Some(7));
    assert_eq!(
        replies[7].get("result").unwrap().get("stopping"),
        Some(&pst_obs::json::Json::Bool(true))
    );
}

#[test]
fn serve_repeat_queries_come_from_the_cache() {
    let dir = work_dir("serve_cache");
    let input = format!(
        "{}\n{}\n{}\n",
        source_request(1, "pst"),
        source_request(2, "pst"),
        r#"{"id":3,"method":"shutdown"}"#
    );
    let metrics_path = dir.join("m.json");
    let (out, err, code) = run(
        &["serve", "--metrics-json", metrics_path.to_str().unwrap()],
        Some(&input),
    );
    assert_eq!(code, 0, "{err}");
    let replies: Vec<_> = out
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| pst_obs::json::Json::parse(l).expect("reply parses"))
        .collect();
    assert_eq!(replies.len(), 3);
    assert!(replies.iter().all(reply_ok));
    // The first query computes, the repeat is served from the memo.
    assert_eq!(
        replies[0].get("cached"),
        Some(&pst_obs::json::Json::Bool(false))
    );
    assert_eq!(
        replies[1].get("cached"),
        Some(&pst_obs::json::Json::Bool(true))
    );
    assert_eq!(replies[0].get("result"), replies[1].get("result"));

    // The cache-hit counters land in the metrics report.
    let metrics_text = std::fs::read_to_string(&metrics_path).expect("metrics written");
    let metrics = pst_obs::json::Json::parse(&metrics_text).expect("metrics parse");
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    assert_eq!(counter("serve_requests"), 3);
    assert_eq!(counter("serve_cache_miss"), 1);
    assert_eq!(counter("serve_cache_hit"), 1);
    assert_eq!(counter("serve_stage_hit"), 1);
}

#[test]
fn serve_survives_malformed_and_invalid_requests() {
    let input = format!(
        "this is not json\n\
         [1,2,3]\n\
         {{\"id\":1,\"method\":\"frobnicate\",\"source\":\"fn f() {{ return 0; }}\"}}\n\
         {{\"id\":2,\"method\":\"pst\",\"unit\":\"00000000deadbeef\"}}\n\
         {{\"id\":3,\"method\":\"pst\",\"source\":\"fn f( {{\"}}\n\
         {{\"id\":4,\"method\":\"ssa\",\"edges\":\"0->1\"}}\n\
         {}\n",
        source_request(5, "pst")
    );
    let (replies, code) = serve(&[], &input);
    assert_eq!(code, 0, "daemon exits cleanly at EOF");
    assert_eq!(replies.len(), 7);
    assert_eq!(error_code(&replies[0]), "parse_error");
    assert_eq!(error_code(&replies[1]), "invalid_request");
    assert_eq!(error_code(&replies[2]), "unknown_method");
    assert_eq!(error_code(&replies[3]), "unknown_unit");
    assert_eq!(error_code(&replies[4]), "analysis_error");
    assert_eq!(error_code(&replies[5]), "unsupported");
    // After all that, the daemon still answers real work.
    assert!(reply_ok(&replies[6]), "{}", replies[6]);
}

#[test]
fn serve_rejects_oversized_requests_but_keeps_serving() {
    let huge = format!(
        "{{\"id\":1,\"method\":\"pst\",\"source\":\"{}\"}}",
        "x".repeat(512)
    );
    let input = format!("{huge}\n{{\"id\":2,\"method\":\"stats\"}}\n");
    let (replies, code) = serve(&["--max-request-bytes", "256"], &input);
    assert_eq!(code, 0);
    assert_eq!(replies.len(), 2);
    assert_eq!(error_code(&replies[0]), "oversized_request");
    assert!(reply_ok(&replies[1]), "{}", replies[1]);
}

#[test]
fn serve_registered_units_answer_by_id() {
    // Register via a source request, then re-query by the returned unit
    // id with a different method: no source re-send, still a unit hit.
    let (replies, code) = serve(&[], &format!("{}\n", source_request(1, "pst")));
    assert_eq!(code, 0);
    let unit = match replies[0].get("unit") {
        Some(pst_obs::json::Json::Str(s)) => s.clone(),
        other => panic!("no unit: {other:?}"),
    };
    let input = format!(
        "{}\n{{\"id\":2,\"method\":\"lint\",\"unit\":\"{unit}\"}}\n",
        source_request(1, "pst")
    );
    let (replies, code) = serve(&[], &input);
    assert_eq!(code, 0);
    assert!(replies.iter().all(reply_ok), "{replies:?}");
    assert_eq!(
        replies[1].get("unit"),
        Some(&pst_obs::json::Json::Str(unit))
    );
}

#[test]
fn serve_journals_one_unit_summary_per_request() {
    let dir = work_dir("serve_journal");
    let input = format!(
        "{}\n{}\n",
        source_request(1, "pst"),
        source_request(2, "pst")
    );
    let journal = dir.join("j.jsonl");
    let (_, err, code) = run(
        &["serve", "--journal", journal.to_str().unwrap()],
        Some(&input),
    );
    assert_eq!(code, 0, "{err}");
    let records = parse_journal(&journal);
    let units: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.event {
            pst_obs::journal::Event::UnitSummary { unit, count, .. } => {
                Some((unit.clone(), *count))
            }
            _ => None,
        })
        .collect();
    // One summary per request — not a run-end mirror of the unit
    // registry, which would double-count the repeated unit.
    assert_eq!(units.len(), 2, "{units:?}");
    assert!(units
        .iter()
        .all(|(u, c)| u.starts_with("serve:") && *c == 1));
    assert_eq!(units[0].0, units[1].0, "same unit+method, same scope name");
}

#[cfg(feature = "fault-inject")]
#[test]
fn serve_contains_injected_panics_and_keeps_serving() {
    let panic_req = pst_obs::json::Json::obj([
        ("id", pst_obs::json::Json::UInt(1)),
        ("method", pst_obs::json::Json::Str("pst".into())),
        ("source", pst_obs::json::Json::Str(SAMPLE.into())),
        ("inject", pst_obs::json::Json::Str("panic".into())),
    ])
    .to_string();
    let input = format!(
        "{panic_req}\n{}\n{{\"id\":3,\"method\":\"stats\"}}\n",
        source_request(2, "pst")
    );
    let (replies, code) = serve(&[], &input);
    assert_eq!(code, 0, "daemon survives the panic");
    assert_eq!(replies.len(), 3);
    assert_eq!(error_code(&replies[0]), "panic");
    assert!(reply_ok(&replies[1]), "{}", replies[1]);
    // The panicking request's unit was quarantined, so the follow-up
    // recomputed it from scratch.
    assert_eq!(
        replies[1].get("cached"),
        Some(&pst_obs::json::Json::Bool(false))
    );
    let stats = replies[2].get("result").expect("stats");
    assert_eq!(stats.get("contained_panics").unwrap().as_u64(), Some(1));
}

#[cfg(not(feature = "fault-inject"))]
#[test]
fn serve_reports_fault_injection_unsupported_without_the_feature() {
    let req = pst_obs::json::Json::obj([
        ("id", pst_obs::json::Json::UInt(1)),
        ("method", pst_obs::json::Json::Str("pst".into())),
        ("source", pst_obs::json::Json::Str(SAMPLE.into())),
        ("inject", pst_obs::json::Json::Str("panic".into())),
    ])
    .to_string();
    let (replies, code) = serve(&[], &format!("{req}\n"));
    assert_eq!(code, 0);
    assert_eq!(error_code(&replies[0]), "unsupported");
}

#[test]
fn serve_usage_errors_exit_2() {
    for bad in [
        &["serve", "--cache-entries", "many"][..],
        &["serve", "--max-request-bytes", "0"][..],
        &["serve", "extra-arg"][..],
        &["serve", "--listen"][..],
    ] {
        let (_, err, code) = run(bad, Some(""));
        assert_eq!(code, 2, "{bad:?}: {err}");
    }
}

// --- serve: deadlines, drain, snapshots, and TCP fleet behavior -----------

#[test]
fn serve_stdio_drain_acknowledges_in_flight_then_exits() {
    let input = format!(
        "{}\n{{\"id\":2,\"method\":\"drain\"}}\n",
        source_request(1, "pst")
    );
    let (replies, code) = serve(&[], &input);
    assert_eq!(code, 0, "drain is a clean exit");
    assert_eq!(replies.len(), 2);
    assert!(reply_ok(&replies[0]), "{}", replies[0]);
    assert_eq!(
        replies[1].get("result").and_then(|r| r.get("draining")),
        Some(&pst_obs::json::Json::Bool(true))
    );
}

#[test]
fn serve_snapshot_warm_restart_hits_cache_on_first_query() {
    let dir = work_dir("serve_snapshot");
    let snap = dir.join("cache.snapshot");
    let snap = snap.to_str().unwrap();

    // First life: compute one unit, drain (which flushes a snapshot).
    let input = format!(
        "{}\n{{\"id\":2,\"method\":\"drain\"}}\n",
        source_request(1, "pst")
    );
    let (replies, code) = serve(&["--cache-snapshot", snap], &input);
    assert_eq!(code, 0);
    assert!(reply_ok(&replies[0]), "{}", replies[0]);
    assert!(std::path::Path::new(snap).exists(), "snapshot written");

    // Second life: the very first repeat query is already a memo hit,
    // and stats show where the warmth came from.
    let input = format!(
        "{}\n{{\"id\":2,\"method\":\"stats\"}}\n{{\"id\":3,\"method\":\"shutdown\"}}\n",
        source_request(1, "pst")
    );
    let (replies, code) = serve(&["--cache-snapshot", snap], &input);
    assert_eq!(code, 0);
    assert_eq!(
        replies[0].get("cached"),
        Some(&pst_obs::json::Json::Bool(true)),
        "warm restart answers the first query from the restored cache: {}",
        replies[0]
    );
    let stats = replies[1].get("result").expect("stats result");
    assert!(
        stats.get("snapshot_restored_units").unwrap().as_u64() >= Some(1),
        "{stats}"
    );
}

#[test]
fn serve_corrupt_snapshot_means_cold_start_not_death() {
    let dir = work_dir("serve_snapshot_corrupt");
    let snap = dir.join("cache.snapshot");
    std::fs::write(&snap, "{\"pst_snapshot\":1,\"entries\":9}\ngarbage").unwrap();
    let input = format!(
        "{}\n{{\"id\":2,\"method\":\"shutdown\"}}\n",
        source_request(1, "pst")
    );
    let (replies, code) = serve(&["--cache-snapshot", snap.to_str().unwrap()], &input);
    assert_eq!(code, 0, "a bad snapshot is a cold start, not a crash");
    assert!(reply_ok(&replies[0]), "{}", replies[0]);
    assert_eq!(
        replies[0].get("cached"),
        Some(&pst_obs::json::Json::Bool(false))
    );
}

#[cfg(feature = "fault-inject")]
fn slow_request(id: u64) -> String {
    pst_obs::json::Json::obj([
        ("id", pst_obs::json::Json::UInt(id)),
        ("method", pst_obs::json::Json::Str("pst".into())),
        ("source", pst_obs::json::Json::Str(SAMPLE.into())),
        ("inject", pst_obs::json::Json::Str("slow".into())),
    ])
    .to_string()
}

#[cfg(feature = "fault-inject")]
#[test]
fn serve_deadline_exceeded_is_answered_in_band() {
    // The injected 50ms stall blows a 5ms budget; the next request is
    // unaffected because deadlines are per-request.
    let input = format!(
        "{}\n{}\n{{\"id\":3,\"method\":\"stats\"}}\n",
        slow_request(1),
        source_request(2, "pst")
    );
    let (replies, code) = serve(&["--request-timeout-ms", "5"], &input);
    assert_eq!(code, 0);
    assert_eq!(replies.len(), 3);
    assert_eq!(error_code(&replies[0]), "deadline_exceeded");
    assert!(reply_ok(&replies[1]), "{}", replies[1]);
    assert!(reply_ok(&replies[2]), "{}", replies[2]);
}

/// A `pst serve --listen` child process: spawns on port 0, parses the
/// announced address, and kills the daemon on drop so a failed test
/// never leaks a process.
struct ServeDaemon {
    child: std::process::Child,
}

impl ServeDaemon {
    fn spawn(extra: &[&str]) -> (ServeDaemon, String) {
        use std::io::BufRead as _;
        let mut args = vec!["serve", "--listen", "127.0.0.1:0"];
        args.extend_from_slice(extra);
        let mut child = Command::new(env!("CARGO_BIN_EXE_pst"))
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        let mut line = String::new();
        std::io::BufReader::new(child.stdout.as_mut().expect("stdout piped"))
            .read_line(&mut line)
            .expect("announce line");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .unwrap_or_else(|| panic!("no address in announce line {line:?}"))
            .to_string();
        (ServeDaemon { child }, addr)
    }

    /// Like [`ServeDaemon::spawn`], but with a metrics responder on a
    /// free port; returns the scrape address announced on the second
    /// stdout line.
    fn spawn_with_metrics(extra: &[&str]) -> (ServeDaemon, String, String) {
        use std::io::BufRead as _;
        let mut args = vec![
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--metrics-listen",
            "127.0.0.1:0",
        ];
        args.extend_from_slice(extra);
        let mut child = Command::new(env!("CARGO_BIN_EXE_pst"))
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        let mut reader = std::io::BufReader::new(child.stdout.as_mut().expect("stdout piped"));
        let mut read_addr = || {
            let mut line = String::new();
            reader.read_line(&mut line).expect("announce line");
            line.trim()
                .rsplit(' ')
                .next()
                .unwrap_or_else(|| panic!("no address in announce line {line:?}"))
                .to_string()
        };
        let addr = read_addr();
        let metrics_addr = read_addr();
        (ServeDaemon { child }, addr, metrics_addr)
    }

    /// Waits up to ~10s for a clean exit (after shutdown/drain).
    fn wait_exit(&mut self) -> i32 {
        for _ in 0..200 {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status.code().unwrap_or(-1);
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("daemon did not exit after drain/shutdown");
    }

    fn alive(&mut self) -> bool {
        self.child.try_wait().expect("try_wait").is_none()
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One NDJSON client connection to a TCP daemon.
struct Conn {
    stream: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("read timeout");
        let reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        Conn { stream, reader }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").expect("send");
        self.stream.flush().expect("flush");
    }

    fn recv(&mut self) -> pst_obs::json::Json {
        use std::io::BufRead as _;
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        pst_obs::json::Json::parse(line.trim())
            .unwrap_or_else(|e| panic!("reply is not JSON ({e}): {line:?}"))
    }

    fn request(&mut self, line: &str) -> pst_obs::json::Json {
        self.send(line);
        self.recv()
    }
}

#[test]
fn serve_tcp_survives_abrupt_disconnects() {
    let (mut daemon, addr) = ServeDaemon::spawn(&["--workers", "2"]);
    // Three clients connect, one does half a request, all vanish.
    for i in 0..3u64 {
        let mut conn = Conn::open(&addr);
        if i == 0 {
            write!(conn.stream, "{{\"id\":1,\"meth").expect("partial write");
        }
        drop(conn);
    }
    // The daemon still answers a well-behaved client afterwards.
    let mut conn = Conn::open(&addr);
    let reply = conn.request(&source_request(1, "pst"));
    assert!(reply_ok(&reply), "{reply}");
    assert!(daemon.alive(), "abrupt disconnects never kill the daemon");
    conn.send(r#"{"id":2,"method":"shutdown"}"#);
    assert_eq!(daemon.wait_exit(), 0);
}

#[cfg(feature = "fault-inject")]
#[test]
fn serve_tcp_overload_shed_carries_retry_hint_and_retry_succeeds() {
    let (mut daemon, addr) = ServeDaemon::spawn(&["--workers", "2", "--max-inflight", "1"]);

    // Client A pipelines slow requests, holding the single admission
    // slot for ~50ms apiece; client B keeps knocking until it is shed.
    let mut a = Conn::open(&addr);
    for i in 0..4u64 {
        a.send(&slow_request(10 + i));
    }
    let mut b = Conn::open(&addr);
    let mut shed = None;
    for _ in 0..20 {
        let reply = b.request(&source_request(2, "control_regions"));
        if reply.get("ok") == Some(&pst_obs::json::Json::Bool(false)) {
            shed = Some(reply);
            break;
        }
    }
    let shed = shed.expect("the saturated gate sheds at least one request");
    assert_eq!(error_code(&shed), "overloaded");
    let retry_after = shed
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(|v| v.as_u64())
        .expect("shed envelope carries a backoff hint");
    assert!(retry_after >= 10, "{shed}");

    // Backing off and retrying succeeds once the slot clears.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let reply = b.request(&source_request(3, "control_regions"));
    assert!(reply_ok(&reply), "retry after backoff: {reply}");
    for _ in 0..4 {
        assert!(reply_ok(&a.recv()), "slow requests still complete");
    }
    assert!(daemon.alive());
    b.send(r#"{"id":4,"method":"shutdown"}"#);
    assert_eq!(daemon.wait_exit(), 0);
}

#[cfg(feature = "fault-inject")]
#[test]
fn serve_tcp_drain_finishes_in_flight_requests_then_exits() {
    let (mut daemon, addr) = ServeDaemon::spawn(&["--workers", "2"]);
    let mut a = Conn::open(&addr);
    let mut b = Conn::open(&addr);
    // A's request stalls ~50ms in the daemon; B drains mid-flight.
    a.send(&slow_request(1));
    std::thread::sleep(std::time::Duration::from_millis(10));
    let bye = b.request(r#"{"id":2,"method":"drain"}"#);
    assert_eq!(
        bye.get("result").and_then(|r| r.get("draining")),
        Some(&pst_obs::json::Json::Bool(true)),
        "{bye}"
    );
    // Drain finishes in-flight work: A's reply still arrives.
    let reply = a.recv();
    assert!(reply_ok(&reply), "in-flight request completes: {reply}");
    assert_eq!(daemon.wait_exit(), 0);
}

#[cfg(feature = "fault-inject")]
#[test]
fn serve_tcp_chaos_panics_are_envelopes_and_the_daemon_outlives_them() {
    let (mut daemon, addr) = ServeDaemon::spawn(&["--workers", "2", "--inject-fault", "panic"]);
    let mut conn = Conn::open(&addr);
    let (mut oks, mut panics) = (0, 0);
    for i in 0..12u64 {
        let reply = conn.request(&source_request(i, "pst"));
        if reply_ok(&reply) {
            oks += 1;
        } else {
            assert_eq!(error_code(&reply), "panic");
            panics += 1;
        }
    }
    assert!(
        oks > 0 && panics > 0,
        "chaos mixes clean and faulty replies"
    );
    let stats = conn.request(r#"{"id":90,"method":"stats"}"#);
    assert!(reply_ok(&stats), "{stats}");
    let result = stats.get("result").expect("stats result");
    assert_eq!(
        result.get("contained_panics").unwrap().as_u64(),
        Some(panics)
    );
    assert!(daemon.alive(), "the chaos daemon never dies");
    conn.send(r#"{"id":91,"method":"shutdown"}"#);
    assert_eq!(daemon.wait_exit(), 0);
}

// --- live telemetry: metrics, slowlog, pst top ----------------------------

#[test]
fn serve_metrics_rpc_reports_windowed_series_in_json_and_text() {
    use pst_obs::json::Json;
    let input = format!(
        "{}\n{}\n{}\n{{\"id\":4,\"method\":\"metrics\"}}\n\
         {{\"id\":5,\"method\":\"metrics\",\"format\":\"text\"}}\n\
         {{\"id\":6,\"method\":\"slowlog\"}}\n",
        source_request(1, "pst"),
        source_request(2, "pst"),
        source_request(3, "lint"),
    );
    let (replies, code) = serve(&[], &input);
    assert_eq!(code, 0);
    assert_eq!(replies.len(), 6);
    for (i, reply) in replies.iter().enumerate() {
        assert!(reply_ok(reply), "reply {i} not ok: {reply}");
    }

    // JSON view: per-method totals plus the merged window, and the
    // repeated `pst` request shows up as a windowed cache hit.
    let metrics = replies[3].get("result").expect("metrics result");
    let pst = metrics
        .get("methods")
        .and_then(|m| m.get("pst"))
        .expect("pst series");
    assert_eq!(pst.get("requests_total").unwrap().as_u64(), Some(2));
    assert_eq!(pst.get("cache_hits_total").unwrap().as_u64(), Some(1));
    let window = pst.get("window").expect("window");
    assert_eq!(window.get("requests").unwrap().as_u64(), Some(2));
    assert!(window.get("p99_nanos").unwrap().as_u64().unwrap() > 0);
    let lint = metrics
        .get("methods")
        .and_then(|m| m.get("lint"))
        .expect("lint series");
    assert_eq!(lint.get("requests_total").unwrap().as_u64(), Some(1));

    // Text view: the same series as a Prometheus-style exposition.
    let text = replies[4].get("result").expect("text result");
    assert_eq!(text.get("format"), Some(&Json::Str("text".into())));
    let body = match text.get("body") {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("no text body: {other:?}"),
    };
    assert!(
        body.contains("# TYPE pst_serve_requests_total counter"),
        "{body}"
    );
    assert!(
        body.contains("pst_serve_requests_total{method=\"pst\"} 2"),
        "{body}"
    );
    assert!(
        body.contains("# TYPE pst_serve_latency_nanos summary"),
        "{body}"
    );
    assert!(body.contains("quantile=\"0.99\""), "{body}");
    assert!(
        body.contains("pst_serve_shard_requests_total{shard=\"0\"}"),
        "{body}"
    );

    // The slowlog ring captures the slowest requests even without a
    // `--slowlog-ms` threshold (the threshold only gates journaling).
    let slowlog = replies[5].get("result").expect("slowlog result");
    let entries = match slowlog.get("entries") {
        Some(Json::Arr(v)) => v,
        other => panic!("no slowlog entries: {other:?}"),
    };
    assert!(!entries.is_empty(), "{slowlog}");
    assert!(entries[0].get("phases").is_some(), "{slowlog}");
}

/// Scrapes the one-shot HTTP metrics responder once, returning the raw
/// HTTP response (status line, headers, body).
fn scrape(addr: &str) -> String {
    use std::io::Read as _;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect scrape");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("scrape request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("scrape response");
    response
}

#[test]
fn serve_tcp_metrics_listener_answers_scrapes_and_pst_top_snapshots() {
    let (mut daemon, addr, metrics_addr) = ServeDaemon::spawn_with_metrics(&[]);
    let mut conn = Conn::open(&addr);
    for id in 1..=4u64 {
        let reply = conn.request(&source_request(id, "pst"));
        assert!(reply_ok(&reply), "{reply}");
    }

    // First scrape: proper HTTP framing and typed families.
    let first = scrape(&metrics_addr);
    assert!(first.starts_with("HTTP/1.0 200 OK"), "{first}");
    assert!(
        first.contains("Content-Type: text/plain; version=0.0.4"),
        "{first}"
    );
    let body = first.split("\r\n\r\n").nth(1).expect("scrape body");
    assert!(
        body.contains("# TYPE pst_serve_requests_total counter"),
        "{body}"
    );
    assert!(
        body.contains("pst_serve_requests_total{method=\"pst\"} 4"),
        "{body}"
    );
    assert!(body.contains("# TYPE pst_serve_in_flight gauge"), "{body}");

    // Counters are monotone across scrapes: more traffic, bigger totals.
    let reply = conn.request(&source_request(5, "pst"));
    assert!(reply_ok(&reply), "{reply}");
    let second = scrape(&metrics_addr);
    assert!(
        second.contains("pst_serve_requests_total{method=\"pst\"} 5"),
        "{second}"
    );

    // `pst top --once --format json` pairs the metrics and stats views.
    let (out, err, code) = run(
        &["top", "--addr", &addr, "--once", "--format", "json"],
        None,
    );
    assert_eq!(code, 0, "pst top failed: {err}");
    let snapshot = pst_obs::json::Json::parse(out.trim()).expect("top JSON");
    let total = snapshot
        .get("metrics")
        .and_then(|m| m.get("methods"))
        .and_then(|m| m.get("pst"))
        .and_then(|p| p.get("requests_total"))
        .and_then(|v| v.as_u64());
    assert_eq!(total, Some(5), "{snapshot}");
    assert!(
        snapshot
            .get("stats")
            .and_then(|s| s.get("workers"))
            .is_some(),
        "{snapshot}"
    );

    // The human table renders a header and the active method row.
    let (out, err, code) = run(&["top", "--addr", &addr, "--once"], None);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("METHOD"), "{out}");
    assert!(out.contains("pst  "), "{out}");

    conn.send(r#"{"id":90,"method":"shutdown"}"#);
    assert_eq!(daemon.wait_exit(), 0);
}

#[cfg(feature = "fault-inject")]
#[test]
fn serve_slowlog_attributes_injected_stalls_and_journals_slow_requests() {
    use pst_obs::json::Json;
    let dir = work_dir("serve_slowlog");
    let journal = dir.join("journal.jsonl");
    let journal_arg = journal.to_string_lossy().into_owned();
    let input = format!(
        "{}\n{}\n{{\"id\":3,\"method\":\"slowlog\"}}\n",
        slow_request(1),
        source_request(2, "pst"),
    );
    let (replies, code) = serve(&["--slowlog-ms", "10", "--journal", &journal_arg], &input);
    assert_eq!(code, 0);
    assert_eq!(replies.len(), 3);
    for (i, reply) in replies.iter().enumerate() {
        assert!(reply_ok(reply), "reply {i} not ok: {reply}");
    }

    // Slowest first: the injected 50ms stall leads, and the stall is
    // attributed to the inject phase rather than compute.
    let result = replies[2].get("result").expect("slowlog result");
    let entries = match result.get("entries") {
        Some(Json::Arr(v)) => v,
        other => panic!("no slowlog entries: {other:?}"),
    };
    assert_eq!(entries.len(), 2, "{result}");
    let top = &entries[0];
    assert_eq!(top.get("method"), Some(&Json::Str("pst".into())));
    let phases = top.get("phases").expect("phases");
    let inject = phases.get("inject_nanos").unwrap().as_u64().unwrap();
    assert!(
        inject >= 40_000_000,
        "stall not attributed to inject: {phases}"
    );
    assert!(
        top.get("total_nanos").unwrap().as_u64().unwrap() >= inject,
        "{top}"
    );

    // Only the stalled request crossed the 10ms threshold, so exactly
    // one slow_request event lands in the journal.
    let slow: Vec<_> = parse_journal(&journal)
        .into_iter()
        .filter(|r| matches!(r.event, pst_obs::journal::Event::SlowRequest { .. }))
        .collect();
    assert_eq!(slow.len(), 1, "{slow:?}");
    assert_eq!(slow[0].level, pst_obs::journal::Level::Warn);
    match &slow[0].event {
        pst_obs::journal::Event::SlowRequest {
            method,
            total_nanos,
            ..
        } => {
            assert_eq!(method, "pst");
            assert!(*total_nanos >= 10_000_000);
        }
        other => panic!("not a slow_request: {other:?}"),
    }
}

// --- stdin edge cases -----------------------------------------------------

/// Like [`run`], but feeds raw bytes (possibly invalid UTF-8) on stdin.
fn run_bytes(args: &[&str], stdin: &[u8]) -> (String, String, i32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pst"));
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("binary runs");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin)
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn empty_stdin_is_a_usage_error() {
    let (_, err, code) = run(&["regions", "-"], Some(""));
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("stdin is empty"), "{err}");
}

#[test]
fn non_utf8_stdin_reports_the_offending_offset() {
    let mut bytes = b"fn f(n) { return ".to_vec();
    bytes.extend_from_slice(&[0xFF, 0xFE]);
    bytes.extend_from_slice(b"; }\n");
    let (_, err, code) = run_bytes(&["regions", "-"], &bytes);
    assert_eq!(code, 2, "{err}");
    assert!(
        err.contains("not valid UTF-8 (first invalid byte at offset 17)"),
        "{err}"
    );
}

#[test]
fn unterminated_final_line_on_stdin_still_parses() {
    let (out, err, code) = run(
        &["regions", "-"],
        Some("fn f(n) { return n; }"), // no trailing newline
    );
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("fn f"), "{out}");
}

#[test]
fn non_utf8_file_reports_the_offending_offset() {
    let path = std::env::temp_dir().join("pst_cli_bad_utf8.mini");
    std::fs::write(&path, [0x66, 0x6E, 0xC0, 0x0A]).expect("write file");
    let (_, err, code) = run(&["regions", path.to_str().unwrap()], None);
    assert_eq!(code, 2, "{err}");
    assert!(
        err.contains("not valid UTF-8 (first invalid byte at offset 2)"),
        "{err}"
    );
}

// --- one computation per stage -------------------------------------------

/// How many times the run recorded in the `--metrics-json` report at
/// `path` entered the span `name`, summed over every place in the span
/// tree it appears.
fn span_entries(path: &std::path::Path, name: &str) -> u64 {
    fn walk(spans: &pst_obs::json::Json, name: &str) -> u64 {
        let pst_obs::json::Json::Arr(spans) = spans else {
            return 0;
        };
        spans
            .iter()
            .map(|s| {
                let own = match s.get("name") {
                    Some(pst_obs::json::Json::Str(n)) if n == name => s
                        .get("count")
                        .and_then(pst_obs::json::Json::as_u64)
                        .unwrap_or(0),
                    _ => 0,
                };
                own + s.get("children").map_or(0, |c| walk(c, name))
            })
            .sum()
    }
    let text = std::fs::read_to_string(path).expect("metrics written");
    let report = pst_obs::json::Json::parse(&text).expect("metrics JSON parses");
    walk(report.get("spans").expect("spans"), name)
}

#[test]
fn a_serve_unit_computes_each_shared_stage_once() {
    let dir = work_dir("stage_once_serve");
    let fig1 = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/fig1.mini"),
    )
    .expect("read fig1.mini");
    let mut input = String::new();
    for (i, method) in ["pst", "control_regions", "lint", "ssa", "dataflow"]
        .iter()
        .enumerate()
    {
        let request = pst_obs::json::Json::obj([
            ("id", pst_obs::json::Json::UInt(i as u64)),
            ("method", pst_obs::json::Json::Str(method.to_string())),
            ("source", pst_obs::json::Json::Str(fig1.clone())),
        ]);
        input.push_str(&format!("{request}\n"));
    }
    input.push_str("{\"id\":9,\"method\":\"shutdown\"}\n");
    let metrics = dir.join("mini.json");
    let (out, err, code) = run(
        &["serve", "--metrics-json", metrics.to_str().unwrap()],
        Some(&input),
    );
    assert_eq!(code, 0, "{err}");
    assert_eq!(out.matches("\"ok\":true").count(), 6, "{out}");
    assert_eq!(span_entries(&metrics, "pst"), 1, "PST built more than once");
    assert_eq!(
        span_entries(&metrics, "control_regions"),
        1,
        "control regions computed more than once"
    );

    let edges =
        "{\"id\":1,\"method\":\"control_regions\",\"edges\":\"0->1\\n0->2\\n1->2\\n2->1\\n\"}\n\
                 {\"id\":2,\"method\":\"lint\",\"edges\":\"0->1\\n0->2\\n1->2\\n2->1\\n\"}\n\
                 {\"id\":3,\"method\":\"shutdown\"}\n";
    let metrics = dir.join("edges.json");
    let (out, err, code) = run(
        &["serve", "--metrics-json", metrics.to_str().unwrap()],
        Some(edges),
    );
    assert_eq!(code, 0, "{err}");
    assert_eq!(out.matches("\"ok\":true").count(), 3, "{out}");
    assert_eq!(
        span_entries(&metrics, "control_regions"),
        1,
        "the edge unit's lint recomputed its control regions"
    );
}

#[test]
fn paranoid_ssa_checks_the_stages_it_printed() {
    let dir = work_dir("stage_once_paranoid");
    let metrics = dir.join("m.json");
    let fig1 = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/fig1.mini");
    let (out, err, code) = run(
        &[
            "ssa",
            fig1.to_str().unwrap(),
            "--paranoid",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("φ-functions"), "{out}");
    assert_eq!(
        span_entries(&metrics, "pst"),
        1,
        "--paranoid rebuilt the PST"
    );
    assert_eq!(
        span_entries(&metrics, "phi_pst"),
        1,
        "--paranoid placed the φ-functions again"
    );
    assert_eq!(span_entries(&metrics, "verify"), 1, "the checkers ran");
}
