//! Per-rule fixtures: every shipped rule has at least one firing and one
//! silent test, plus engine-level tests for configuration, JSON output and
//! the DOT export.

use pst_analysis::{
    dot_with_findings, find_rule, lint_function, lint_graph, LintConfig, LintReport, Severity,
    RULES,
};
use pst_cfg::{parse_edge_list_graph, CanonicalizeOptions};
use pst_lang::{lower_program, parse_program};

fn lint_src(src: &str) -> LintReport {
    let program = parse_program(src).expect("fixture parses");
    let lowered = lower_program(&program).expect("fixture lowers");
    lint_function(&lowered[0], Some(&program.functions[0]), &LintConfig::new())
}

fn lint_edges(description: &str) -> LintReport {
    let (graph, entry) = parse_edge_list_graph(description).expect("fixture parses");
    lint_graph(
        &graph,
        entry,
        &CanonicalizeOptions::default(),
        &LintConfig::new(),
    )
    .expect("fixture canonicalizes")
    .report
}

fn fired(report: &LintReport, rule: &str) -> bool {
    report.diagnostics.iter().any(|d| d.rule == rule)
}

const STRUCTURED: &str = "fn clean(n) {
    total = 0;
    i = 0;
    while (i < n) {
        if (i > 10) { total = total + i; } else { total = total + 1; }
        i = i + 1;
    }
    return total;
}";

const GOTO_INTO_LOOP: &str = "fn g(n) {
    if (n > 0) { goto inside; }
    while (n < 10) {
        inside: n = n + 1;
    }
    return n;
}";

// ---------------------------------------------------------------- PST-S001

#[test]
fn s001_fires_on_goto_into_loop_body() {
    let report = lint_src(GOTO_INTO_LOOP);
    assert!(fired(&report, "PST-S001"), "{report:?}");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "PST-S001")
        .unwrap();
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.edges.len(), 1, "one witness edge per finding");
}

#[test]
fn s001_silent_on_structured_program() {
    assert!(!fired(&lint_src(STRUCTURED), "PST-S001"));
}

// ---------------------------------------------------------------- PST-S002

#[test]
fn s002_fires_on_multi_entry_cycle() {
    let report = lint_src(GOTO_INTO_LOOP);
    assert!(fired(&report, "PST-S002"), "{report:?}");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "PST-S002")
        .unwrap();
    assert!(d.nodes.len() >= 2, "both entry points are named");
}

#[test]
fn s002_silent_on_single_entry_loops() {
    assert!(!fired(&lint_src(STRUCTURED), "PST-S002"));
}

// ---------------------------------------------------------------- PST-S003

#[test]
fn s003_fires_on_code_after_return() {
    let report = lint_src("fn f(n) { return n; n = n + 1; return n; }");
    assert!(fired(&report, "PST-S003"), "{report:?}");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "PST-S003")
        .unwrap();
    assert!(d.message.contains("2 statement(s)"), "{}", d.message);
}

#[test]
fn s003_fires_on_unreachable_graph_node() {
    // Node 2 has no path from the entry; canonicalization prunes it and
    // the lint reports the pruned input node.
    let report = lint_edges("0->1\n2->1");
    assert!(fired(&report, "PST-S003"), "{report:?}");
}

#[test]
fn s003_silent_when_everything_executes() {
    assert!(!fired(&lint_src(STRUCTURED), "PST-S003"));
    assert!(!fired(&lint_edges("0->1\n1->2"), "PST-S003"));
}

// ---------------------------------------------------------------- PST-S004

#[test]
fn s004_fires_on_inescapable_loop() {
    // Node 3 loops forever and never reaches the sink 2.
    let report = lint_edges("0->1\n1->2\n1->3\n3->3");
    assert!(fired(&report, "PST-S004"), "{report:?}");
}

#[test]
fn s004_fires_when_no_sink_exists() {
    let report = lint_edges("0->1\n1->0");
    assert!(fired(&report, "PST-S004"), "{report:?}");
}

#[test]
fn s004_silent_when_exit_reaches_everything() {
    assert!(!fired(&lint_edges("0->1\n0->2\n1->3\n2->3"), "PST-S004"));
}

// ---------------------------------------------------------------- PST-S005

#[test]
fn s005_fires_on_label_ladder() {
    let report = lint_src("fn f(n) { l1: l2: l3: return n; }");
    assert!(fired(&report, "PST-S005"), "{report:?}");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "PST-S005")
        .unwrap();
    assert_eq!(d.severity, Severity::Info);
    assert!(d.nodes.len() >= 2, "the whole chain is named");
}

#[test]
fn s005_silent_on_single_label() {
    // One idle region is normal plumbing; only chains are bureaucratic.
    assert!(!fired(&lint_src("fn f(n) { l1: return n; }"), "PST-S005"));
    assert!(!fired(&lint_src(STRUCTURED), "PST-S005"));
}

// ---------------------------------------------------------------- PST-C001

#[test]
fn c001_fires_on_branch_with_one_destination() {
    // Both out-edges of node 0 land on node 1: the branch decides nothing.
    let report = lint_edges("0->1\n0->1\n1->2");
    assert!(fired(&report, "PST-C001"), "{report:?}");
}

#[test]
fn c001_silent_on_real_diamond() {
    assert!(!fired(&lint_edges("0->1\n0->2\n1->3\n2->3"), "PST-C001"));
    assert!(!fired(&lint_src(STRUCTURED), "PST-C001"));
}

// ---------------------------------------------------------------- PST-C002

#[test]
fn c002_fires_on_empty_then_branch() {
    let report = lint_src("fn f(n) { if (n > 0) { } return n; }");
    assert!(fired(&report, "PST-C002"), "{report:?}");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "PST-C002")
        .unwrap();
    assert!(d.pos.is_some(), "anchored to the `if` keyword");
}

#[test]
fn c002_fires_on_empty_while_body() {
    assert!(fired(
        &lint_src("fn f(n) { while (n > 0) { } return n; }"),
        "PST-C002"
    ));
}

#[test]
fn c002_silent_on_empty_do_while_body() {
    // The do-while body executes exactly when its latch does (same control
    // region), so it is not a *conditional* empty arm.
    assert!(!fired(
        &lint_src("fn f(n) { do { } while (n > 0); return n; }"),
        "PST-C002"
    ));
}

#[test]
fn c002_silent_when_arms_do_work() {
    assert!(!fired(&lint_src(STRUCTURED), "PST-C002"));
}

// ---------------------------------------------------------------- PST-C101

#[test]
fn c101_fires_on_loop_that_never_updates_its_guard() {
    // The guard reads `m`; the body only changes `n`.
    let report = lint_src("fn spin(n) { m = n; while (m > 0) { n = n - 1; } return n; }");
    assert!(fired(&report, "PST-C101"), "{report:?}");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "PST-C101")
        .unwrap();
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains('m'), "{}", d.message);
    assert!(d.pos.is_some(), "anchored to the `while` keyword");
}

#[test]
fn c101_fires_on_invariant_inner_loop_of_healthy_outer() {
    // The outer loop makes progress on `i`; the inner one never touches `m`.
    let src = "fn f(n) {
        i = 0;
        m = n;
        while (i < n) {
            while (m > 0) { i = i + 2; }
            i = i + 1;
        }
        return i;
    }";
    assert!(fired(&lint_src(src), "PST-C101"));
}

#[test]
fn c101_silent_when_the_body_updates_the_guard() {
    assert!(!fired(&lint_src(STRUCTURED), "PST-C101"));
    assert!(!fired(
        &lint_src("fn f(n) { while (n > 0) { n = n - 1; } return n; }"),
        "PST-C101"
    ));
}

// ---------------------------------------------------------------- PST-C102

#[test]
fn c102_fires_on_dependence_via_virtual_loop_exit() {
    // The cycle {1,2} cannot reach a sink; canonicalization adds a virtual
    // exit edge, and only that synthetic branch makes anything control
    // dependent on the cycle.
    let report = lint_edges("0->1\n1->2\n2->1");
    assert!(fired(&report, "PST-C102"), "{report:?}");
}

#[test]
fn c102_silent_when_every_loop_has_a_real_exit() {
    assert!(!fired(&lint_edges("0->1\n1->2\n2->1\n1->3"), "PST-C102"));
    assert!(!fired(&lint_edges("0->1\n1->2"), "PST-C102"));
}

// ---------------------------------------------------------------- PST-C103

#[test]
fn c103_fires_on_order_deciding_branch() {
    // 1 and 2 always both execute, but the branch at 0 decides the order.
    let report = lint_edges("0->1\n0->2\n1->2\n2->1");
    assert!(fired(&report, "PST-C103"), "{report:?}");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "PST-C103")
        .unwrap();
    assert!(d.nodes.len() >= 3, "branch plus the ordered pair are named");
}

#[test]
fn c103_silent_on_order_free_graphs() {
    assert!(!fired(&lint_edges("0->1\n0->2\n1->3\n2->3"), "PST-C103"));
    assert!(!fired(&lint_edges("0->1\n1->2\n2->1\n1->3"), "PST-C103"));
}

// ---------------------------------------------------------------- PST-D001

#[test]
fn d001_fires_on_read_of_never_assigned_variable() {
    let report = lint_src("fn f(n) { return m; }");
    assert!(fired(&report, "PST-D001"), "{report:?}");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "PST-D001")
        .unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains('m'), "{}", d.message);
}

#[test]
fn d001_fires_on_use_before_definition_in_same_block() {
    assert!(fired(
        &lint_src("fn f(n) { x = m; m = 1; return x; }"),
        "PST-D001"
    ));
}

#[test]
fn d001_silent_when_some_path_defines() {
    // May-analysis: one path defines `m`, so the read is not *certainly*
    // uninitialized and the rule stays quiet.
    assert!(!fired(
        &lint_src("fn f(n) { if (n > 0) { m = 1; } return m; }"),
        "PST-D001"
    ));
}

#[test]
fn d001_silent_on_parameters() {
    assert!(!fired(&lint_src("fn f(n) { return n; }"), "PST-D001"));
}

// ---------------------------------------------------------------- PST-D002

#[test]
fn d002_fires_on_overwritten_definition() {
    let report = lint_src("fn f(n) { x = 1; x = 2; return x; }");
    assert!(fired(&report, "PST-D002"), "{report:?}");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "PST-D002")
        .unwrap();
    assert!(d.message.contains("x = 1"), "{}", d.message);
    assert!(d.pos.is_some());
}

#[test]
fn d002_silent_when_every_definition_is_read() {
    assert!(!fired(&lint_src(STRUCTURED), "PST-D002"));
    // A loop-carried definition is consumed by the next iteration.
    assert!(!fired(
        &lint_src("fn f(n) { while (n > 0) { n = n - 1; } return n; }"),
        "PST-D002"
    ));
}

#[test]
fn d002_silent_on_unused_parameters() {
    // Parameters have no source position and are exempt by design.
    assert!(!fired(
        &lint_src("fn f(n, unused) { return n; }"),
        "PST-D002"
    ));
}

// ------------------------------------------------------------ engine-level

#[test]
fn allow_silences_and_removes_from_rules_run() {
    let program = parse_program("fn f(n) { return m; }").unwrap();
    let lowered = lower_program(&program).unwrap();
    let mut config = LintConfig::new();
    config.allow("uninitialized-use").unwrap();
    let report = lint_function(&lowered[0], Some(&program.functions[0]), &config);
    assert!(!fired(&report, "PST-D001"));
    assert!(!report.rules_run.contains(&"PST-D001"));
}

#[test]
fn deny_escalates_to_error() {
    let program = parse_program("fn f(n) { l1: l2: l3: return n; }").unwrap();
    let lowered = lower_program(&program).unwrap();
    let mut config = LintConfig::new();
    config.deny("bureaucratic-regions").unwrap();
    let report = lint_function(&lowered[0], Some(&program.functions[0]), &config);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "PST-S005")
        .expect("still fires");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(report.max_severity(), Some(Severity::Error));
}

#[test]
fn every_rule_has_catalog_metadata() {
    for rule in RULES {
        assert!(find_rule(rule.id).is_some());
        assert!(!rule.summary.is_empty());
    }
}

#[test]
fn mini_reports_run_the_mini_rule_set() {
    let report = lint_src(STRUCTURED);
    for id in [
        "PST-S001", "PST-S002", "PST-S003", "PST-S005", "PST-C001", "PST-C002", "PST-C101",
        "PST-D001", "PST-D002",
    ] {
        assert!(
            report.rules_run.contains(&id),
            "{id} should run on mini input"
        );
    }
    assert!(
        !report.rules_run.contains(&"PST-S004"),
        "S004 is graph-only (mini lowering rejects inescapable loops first)"
    );
}

#[test]
fn graph_reports_run_the_graph_rule_set() {
    let (graph, entry) = parse_edge_list_graph("0->1\n1->2").unwrap();
    let lint = lint_graph(
        &graph,
        entry,
        &CanonicalizeOptions::default(),
        &LintConfig::new(),
    )
    .unwrap();
    for id in [
        "PST-S001", "PST-S002", "PST-S003", "PST-S004", "PST-C001", "PST-C102", "PST-C103",
    ] {
        assert!(
            lint.report.rules_run.contains(&id),
            "{id} should run on graphs"
        );
    }
    assert!(!lint.report.rules_run.contains(&"PST-D001"));
}

#[test]
fn json_round_trips_and_names_the_input() {
    let report = lint_src(GOTO_INTO_LOOP);
    let json = report.to_json("goto.mini").to_string();
    let parsed = pst_obs::json::Json::parse(&json).expect("valid JSON");
    assert!(json.contains("PST-S001"));
    let diags = match parsed.get("diagnostics") {
        Some(pst_obs::json::Json::Arr(a)) => a.len(),
        other => panic!("diagnostics missing: {other:?}"),
    };
    assert_eq!(diags, report.diagnostics.len());
}

#[test]
fn dot_export_highlights_findings() {
    let (graph, entry) = parse_edge_list_graph("0->1\n0->1\n1->2").unwrap();
    let lint = lint_graph(
        &graph,
        entry,
        &CanonicalizeOptions::default(),
        &LintConfig::new(),
    )
    .unwrap();
    assert!(fired(&lint.report, "PST-C001"));
    let dot = dot_with_findings(lint.canonical.cfg.graph(), &lint.report);
    assert!(dot.contains("color=red"), "{dot}");
    // A clean graph renders with no highlight attributes at all.
    let (g2, e2) = parse_edge_list_graph("0->1\n1->2").unwrap();
    let clean = lint_graph(&g2, e2, &CanonicalizeOptions::default(), &LintConfig::new()).unwrap();
    let dot2 = dot_with_findings(clean.canonical.cfg.graph(), &clean.report);
    assert!(!dot2.contains("color="), "{dot2}");
}
