//! Diagnostic types: rules, severities, configuration and reports.

use std::fmt;

use pst_cfg::NodeId;
use pst_lang::SrcPos;
use pst_obs::json::Json;

/// How serious a diagnostic is by default.
///
/// The ordering is semantic: `Info < Warning < Error`, so
/// [`LintReport::max_severity`] can drive exit codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A structural smell worth knowing about, never wrong to ignore.
    Info,
    /// Probably a defect; the program still analyzes cleanly.
    Warning,
    /// Almost certainly a defect (e.g. a read of a variable no definition
    /// can reach).
    Error,
}

impl Severity {
    /// Lower-case label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Static description of one lint rule.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Stable identifier, e.g. `PST-S001`. Never reused or renamed.
    pub id: &'static str,
    /// Short name, e.g. `irreducible-loop`.
    pub name: &'static str,
    /// Default severity (before `--allow` / `--deny` adjustment).
    pub severity: Severity,
    /// One-line description for `docs/ANALYSIS.md` and `--help`-ish dumps.
    pub summary: &'static str,
    /// A minimal input that trips the rule, shown by `pst lint --explain`.
    pub example: &'static str,
    /// What to do about a finding, shown by `pst lint --explain`.
    pub fix: &'static str,
}

impl Rule {
    /// Multi-line documentation card rendered by `pst lint --explain`.
    pub fn explain(&self) -> String {
        format!(
            "{} ({})\nseverity: {}\n\n{}\n\nexample:\n{}\n\nfix: {}\n",
            self.id,
            self.name,
            self.severity.label(),
            self.summary,
            self.example,
            self.fix
        )
    }
}

/// The shipped rule catalog (see `docs/ANALYSIS.md`).
pub const RULES: &[Rule] = &[
    Rule {
        id: "PST-S001",
        name: "irreducible-loop",
        severity: Severity::Warning,
        summary: "a retreating edge targets a node that does not dominate its source \
                  (irreducible control flow; witness edges listed)",
        example: "  0->1 1->2 2->1 0->2   # the cycle {1,2} can be entered at 1 or at 2",
        fix: "restructure the overlapping jumps so every loop has a single header \
              that dominates its body (node splitting or an explicit dispatch flag)",
    },
    Rule {
        id: "PST-S002",
        name: "multi-entry-loop",
        severity: Severity::Warning,
        summary: "a strongly connected component is entered at two or more distinct nodes",
        example: "  0->1 0->2 1->2 2->1 1->3 2->3   # edges from outside reach both 1 and 2",
        fix: "funnel all entries through one loop header so the loop forms a \
              single-entry region the PST can nest",
    },
    Rule {
        id: "PST-S003",
        name: "unreachable-code",
        severity: Severity::Warning,
        summary: "statements or nodes that no entry-to-exit path executes were pruned",
        example: "  fn f(a) { return a; b = 1; }   # the assignment follows the return",
        fix: "delete the dead statements, or fix the control flow that was supposed \
              to reach them",
    },
    Rule {
        id: "PST-S004",
        name: "infinite-region",
        severity: Severity::Warning,
        summary: "a region cannot reach the exit (virtual exit edges were synthesized)",
        example: "  0->1 1->2 2->1   # the cycle {1,2} has no edge leaving it",
        fix: "give the trapped region an exit path (a break condition or error \
              return); canonicalization only papers over it with a virtual edge",
    },
    Rule {
        id: "PST-S005",
        name: "bureaucratic-regions",
        severity: Severity::Info,
        summary: "a chain of single-node SESE regions whose nodes do nothing \
                  (label ladders, empty plumbing)",
        example: "  0->1 1->2 2->3 3->4   # a straight-line ladder of empty blocks",
        fix: "collapse the pass-through blocks; they add PST depth without adding \
              structure",
    },
    Rule {
        id: "PST-C001",
        name: "vacuous-branch",
        severity: Severity::Warning,
        summary: "every successor of a branch is control-equivalent to the branch itself, \
                  so the branch decides nothing",
        example: "  0->1 0->1   # both arms of the branch at 0 land on the same node",
        fix: "remove the condition or make the arms actually diverge; as written the \
              test's outcome is unobservable",
    },
    Rule {
        id: "PST-C002",
        name: "empty-branch-arm",
        severity: Severity::Warning,
        summary: "a branch arm is an empty region that falls straight back into the \
                  branch's own control region",
        example: "  fn f(c) { if (c) { } return c; }   # the then-arm does nothing",
        fix: "drop the empty arm (invert the condition if the other arm has the \
              body), or fill in the work the arm was meant to do",
    },
    Rule {
        id: "PST-C101",
        name: "invariant-loop-guard",
        severity: Severity::Warning,
        summary: "a loop guard reads only variables no statement in the loop body can \
                  change, so once entered the loop can never terminate by itself",
        example: "  fn spin(n) { m = n; while (m > 0) { n = n - 1; } return n; }",
        fix: "update the guard's variables inside the loop body, or guard on the \
              variable the body actually modifies",
    },
    Rule {
        id: "PST-C102",
        name: "synthetic-termination-dependence",
        severity: Severity::Warning,
        summary: "code is control dependent on a predicate that only branches because \
                  canonicalization synthesized a virtual loop exit — the real program \
                  decides it by (not) terminating",
        example: "  0->1 1->2 2->1   # node 2's only 'branch' is the synthetic exit on the cycle",
        fix: "give the trapped loop a real exit condition so downstream code depends \
              on an actual branch instead of a termination assumption",
    },
    Rule {
        id: "PST-C103",
        name: "order-dependent-pair",
        severity: Severity::Warning,
        summary: "two nodes always both execute, but a branch decides which runs first \
                  (a decisive order dependence / DOD witness); node-level slicing that \
                  ignores order will miscompile this",
        example: "  0->1 0->2 1->2 2->1   # the branch at 0 picks whether 1 or 2 runs first",
        fix: "if the two program points share state, order matters: restructure so \
              the order is fixed, or make the slicer order-aware",
    },
    Rule {
        id: "PST-D001",
        name: "uninitialized-use",
        severity: Severity::Error,
        summary: "a variable is read where no definition reaches (sparse reaching \
                  definitions over the QPG)",
        example: "  fn f(a) { if (a) { x = 1; } return x; }   # x unset when a is false",
        fix: "initialize the variable on every path before the read",
    },
    Rule {
        id: "PST-D002",
        name: "dead-definition",
        severity: Severity::Warning,
        summary: "an assignment whose value no use can observe",
        example: "  fn f(a) { x = 1; x = 2; return x; }   # the first store is overwritten",
        fix: "delete the assignment, or fix the code that was supposed to read it",
    },
];

/// Looks a rule up by its stable id (`PST-S001`) or short name
/// (`irreducible-loop`).
pub fn find_rule(key: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == key || r.name == key)
}

/// One finding of one rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (`PST-S001`, …).
    pub rule: &'static str,
    /// Effective severity (after [`LintConfig`] adjustment).
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
    /// Source position, when the input is a mini-language program and the
    /// finding anchors to a statement.
    pub pos: Option<SrcPos>,
    /// CFG nodes involved (innermost first, may be empty).
    pub nodes: Vec<NodeId>,
    /// CFG edges involved, as `(source, target)` endpoint pairs.
    pub edges: Vec<(NodeId, NodeId)>,
}

impl Diagnostic {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("rule", Json::Str(self.rule.to_string())),
            ("severity", Json::Str(self.severity.label().to_string())),
            ("message", Json::Str(self.message.clone())),
        ];
        if let Some(pos) = self.pos {
            fields.push((
                "pos",
                Json::obj([
                    ("line", Json::UInt(u64::from(pos.line))),
                    ("col", Json::UInt(u64::from(pos.col))),
                ]),
            ));
        }
        fields.push((
            "nodes",
            Json::Arr(
                self.nodes
                    .iter()
                    .map(|n| Json::UInt(n.index() as u64))
                    .collect(),
            ),
        ));
        fields.push((
            "edges",
            Json::Arr(
                self.edges
                    .iter()
                    .map(|&(s, t)| {
                        Json::Arr(vec![
                            Json::UInt(s.index() as u64),
                            Json::UInt(t.index() as u64),
                        ])
                    })
                    .collect(),
            ),
        ));
        Json::obj(fields)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} [{}]", self.severity, self.message, self.rule)?;
        if let Some(pos) = self.pos {
            write!(f, " at {pos}")?;
        }
        Ok(())
    }
}

/// Per-rule override requested on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RuleAction {
    /// Silence the rule entirely.
    Allow,
    /// Escalate every finding of the rule to [`Severity::Error`].
    Deny,
}

/// Which rules run and at what severity.
///
/// The default configuration runs every shipped rule at its catalog
/// severity. `allow` silences a rule; `deny` escalates it to
/// [`Severity::Error`].
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    overrides: Vec<(&'static str, RuleAction)>,
}

impl LintConfig {
    /// The default configuration: every rule at catalog severity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Silences `rule` (stable id or short name).
    ///
    /// # Errors
    ///
    /// Returns the unknown key back if it names no shipped rule.
    pub fn allow(&mut self, rule: &str) -> Result<(), String> {
        let r = find_rule(rule).ok_or_else(|| rule.to_string())?;
        self.overrides.push((r.id, RuleAction::Allow));
        Ok(())
    }

    /// Escalates `rule` (stable id or short name) to [`Severity::Error`].
    ///
    /// # Errors
    ///
    /// Returns the unknown key back if it names no shipped rule.
    pub fn deny(&mut self, rule: &str) -> Result<(), String> {
        let r = find_rule(rule).ok_or_else(|| rule.to_string())?;
        self.overrides.push((r.id, RuleAction::Deny));
        Ok(())
    }

    /// Whether findings of `rule` should be reported at all.
    pub fn is_enabled(&self, rule: &Rule) -> bool {
        self.action(rule.id) != Some(RuleAction::Allow)
    }

    /// The effective severity of `rule` under this configuration.
    pub fn severity(&self, rule: &Rule) -> Severity {
        match self.action(rule.id) {
            Some(RuleAction::Deny) => Severity::Error,
            _ => rule.severity,
        }
    }

    /// Last `allow`/`deny` wins, mirroring compiler lint flags.
    fn action(&self, id: &str) -> Option<RuleAction> {
        self.overrides
            .iter()
            .rev()
            .find(|(r, _)| *r == id)
            .map(|&(_, a)| a)
    }
}

/// Everything one lint run produced.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// The findings, in rule-catalog order.
    pub diagnostics: Vec<Diagnostic>,
    /// Stable ids of the rules that actually ran (enabled and applicable
    /// to the input kind).
    pub rules_run: Vec<&'static str>,
}

impl LintReport {
    /// True when no diagnostic was emitted.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The most severe diagnostic, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Machine-readable form; `input` names the linted unit (file path or
    /// function name).
    pub fn to_json(&self, input: &str) -> Json {
        Json::obj([
            ("input", Json::Str(input.to_string())),
            (
                "rules_run",
                Json::Arr(
                    self.rules_run
                        .iter()
                        .map(|r| Json::Str(r.to_string()))
                        .collect(),
                ),
            ),
            (
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
        ])
    }

    /// Human-readable form, one line per diagnostic.
    pub fn render_text(&self, input: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{input}: {d}");
        }
        let _ = writeln!(
            out,
            "{input}: {} diagnostic(s) from {} rule(s)",
            self.diagnostics.len(),
            self.rules_run.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
            assert!(r.id.starts_with("PST-"), "{}", r.id);
            assert!(find_rule(r.id).is_some());
            assert!(find_rule(r.name).is_some());
        }
    }

    #[test]
    fn allow_then_deny_last_wins() {
        let mut c = LintConfig::new();
        c.allow("PST-S001").unwrap();
        c.deny("irreducible-loop").unwrap();
        let rule = find_rule("PST-S001").unwrap();
        assert!(c.is_enabled(rule));
        assert_eq!(c.severity(rule), Severity::Error);
        c.allow("PST-S001").unwrap();
        assert!(!c.is_enabled(rule));
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let mut c = LintConfig::new();
        assert!(c.allow("PST-X999").is_err());
        assert!(c.deny("nonsense").is_err());
    }

    #[test]
    fn severity_ordering_drives_max() {
        let mk = |rule, severity| Diagnostic {
            rule,
            severity,
            message: String::new(),
            pos: None,
            nodes: Vec::new(),
            edges: Vec::new(),
        };
        let report = LintReport {
            diagnostics: vec![
                mk("PST-S005", Severity::Info),
                mk("PST-D001", Severity::Error),
                mk("PST-S003", Severity::Warning),
            ],
            rules_run: vec!["PST-S005", "PST-D001", "PST-S003"],
        };
        assert_eq!(report.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn json_shape_is_stable() {
        let report = LintReport {
            diagnostics: vec![Diagnostic {
                rule: "PST-D001",
                severity: Severity::Error,
                message: "read of `x` with no reaching definition".to_string(),
                pos: Some(SrcPos { line: 3, col: 7 }),
                nodes: vec![NodeId::from_index(2)],
                edges: vec![(NodeId::from_index(1), NodeId::from_index(2))],
            }],
            rules_run: vec!["PST-D001"],
        };
        let j = report.to_json("demo.mini");
        let text = j.to_string();
        let parsed = Json::parse(&text).expect("self-parse");
        assert_eq!(
            parsed.get("input").and_then(|v| match v {
                Json::Str(s) => Some(s.as_str()),
                _ => None,
            }),
            Some("demo.mini")
        );
        let diags = match parsed.get("diagnostics") {
            Some(Json::Arr(a)) => a,
            other => panic!("diagnostics not an array: {other:?}"),
        };
        assert_eq!(diags.len(), 1);
        assert!(
            text.contains("\"line\":3") || text.contains("\"line\": 3"),
            "{text}"
        );
    }
}
