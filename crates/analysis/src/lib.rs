//! The compute-once [`Analysis`] every driver reads its pipeline stages
//! from, and the rule-based structural lint engine over them.
//!
//! Every analysis this workspace computes — canonicalization repairs,
//! SESE regions, control regions (Theorem 7 of the PST paper), loop
//! structure, and sparse QPG dataflow — doubles as a *defect detector*:
//! an irreducible retreating edge is a `goto` into a loop body, an empty
//! control region is a branch that decides nothing, an empty reaching-
//! definition set is a read of garbage. This crate packages those
//! observations as a small lint engine:
//!
//! * a catalog of rules with stable ids ([`RULES`]), each with a default
//!   [`Severity`] that `--allow`/`--deny` style overrides can adjust
//!   ([`LintConfig`]);
//! * one driver, [`lint`], that runs every enabled rule over an
//!   [`Analysis`] of a lowered mini-language function or a raw edge-list
//!   graph, reading the stages it shares with the unit's other consumers,
//!   and returns a [`LintReport`] ([`lint_function`] and [`lint_graph`]
//!   are its one-call forms);
//! * human and machine-readable rendering ([`LintReport::render_text`],
//!   [`LintReport::to_json`]) plus a DOT export that highlights flagged
//!   nodes and edges ([`dot_with_findings`]).
//!
//! The rule families mirror the pipeline stages (see `docs/ANALYSIS.md`
//! for the full catalog):
//!
//! | family | rules | artifact consumed |
//! |---|---|---|
//! | structural | `PST-S001`…`PST-S005` | reducibility witnesses, SCCs, canonicalization report, PST |
//! | weak control dependence | `PST-C001`, `PST-C002` | control regions (cycle equivalence) |
//! | strong control dependence | `PST-C101`…`PST-C103` | NTSCD/DOD and the classic relation (`pst-controldep`, `docs/CONTROLDEP.md`) |
//! | dataflow | `PST-D001`, `PST-D002` | QPG-solved reaching definitions |
//!
//! The structural, weak-control-dependence and dataflow rules are linear
//! in the size of the CFG plus the artifact they read, preserving the
//! paper's linear-time story; the strong family pays the documented
//! NTSCD/DOD costs (`O(N·(N+E))` and budgeted `O(N²·(N+E))`) for
//! termination-sensitive findings no linear rule can see. The `lint_*`
//! observability counters make all of it measurable.
//!
//! # Examples
//!
//! ```
//! use pst_analysis::{lint_function, LintConfig, Severity};
//! use pst_lang::{lower_program, parse_program};
//!
//! // `y` is read before any assignment on the else path.
//! let src = "fn main(n) { if (n > 0) { y = 1; } return y; }";
//! let program = parse_program(src).unwrap();
//! let lowered = lower_program(&program).unwrap();
//! let report = lint_function(&lowered[0], Some(&program.functions[0]),
//!                            &LintConfig::new());
//! // May-analysis: one path defines `y`, so D001 stays silent — but the
//! // engine ran and reported which rules it applied.
//! assert!(report.rules_run.contains(&"PST-D001"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod controldep;
mod dataflow;
mod diag;
mod engine;
mod structural;

pub use analysis::Analysis;
pub use diag::{find_rule, Diagnostic, LintConfig, LintReport, Rule, Severity, RULES};
pub use engine::{dot_with_findings, lint, lint_dataflow, lint_function, lint_graph, GraphLint};
pub use structural::ast_statement_count;
