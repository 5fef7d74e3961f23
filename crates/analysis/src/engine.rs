//! The lint driver: runs every enabled, applicable rule over a function or
//! a raw graph and collects the findings into a [`LintReport`].

use pst_cfg::{
    canonicalize, Budget, CanonicalizeError, CanonicalizeOptions, Canonicalized, Exhausted, Graph,
    NodeId,
};
use pst_dataflow::{ReachingDefinitions, Solution};
use pst_lang::{Function, LoweredFunction};

use crate::diag::{find_rule, Diagnostic, LintConfig, LintReport, Rule, Severity};
use crate::{controldep, dataflow, structural, Analysis};

/// Accumulates diagnostics while the rules run. Each rule begins by asking
/// [`Sink::rule`] for its catalog entry; a `None` answer means the rule is
/// suppressed and must not run.
pub(crate) struct Sink<'a> {
    config: &'a LintConfig,
    diagnostics: Vec<Diagnostic>,
    rules_run: Vec<&'static str>,
}

impl<'a> Sink<'a> {
    fn new(config: &'a LintConfig) -> Self {
        Sink {
            config,
            diagnostics: Vec::new(),
            rules_run: Vec::new(),
        }
    }

    /// Looks `id` up in the catalog and records that the rule ran. Returns
    /// `None` when the configuration suppresses it.
    pub(crate) fn rule(&mut self, id: &str) -> Option<&'static Rule> {
        let rule = find_rule(id).expect("rule ids used by this crate are in the catalog");
        if !self.config.is_enabled(rule) {
            return None;
        }
        if !self.rules_run.contains(&rule.id) {
            pst_obs::counter!("lint_rules_run");
            self.rules_run.push(rule.id);
        }
        Some(rule)
    }

    /// Effective severity of `rule` under the active configuration.
    pub(crate) fn severity(&self, rule: &Rule) -> Severity {
        self.config.severity(rule)
    }

    /// Records one finding.
    pub(crate) fn push(&mut self, diagnostic: Diagnostic) {
        pst_obs::counter!("lint_diagnostics");
        self.diagnostics.push(diagnostic);
    }

    fn into_report(self) -> LintReport {
        LintReport {
            diagnostics: self.diagnostics,
            rules_run: self.rules_run,
        }
    }
}

/// Runs every enabled rule that applies to `analysis`'s unit, reading
/// the stages the rules share from it, and collects the findings. A
/// graph unit runs every rule that needs no statements; a function's AST,
/// when present, enables the statement-level ones (`PST-S003` on mini
/// inputs). Diagnostics carry source positions whenever the lowered side
/// tables kept them. The strong-control-dependence rules (`PST-C101`,
/// `PST-C103`) spend from `budget`; when it runs out no report is made.
pub fn lint(
    analysis: &Analysis<'_>,
    config: &LintConfig,
    budget: &mut Budget,
) -> Result<LintReport, Exhausted> {
    let _span = pst_obs::Span::enter("lint");
    let mut sink = Sink::new(config);
    structural::irreducible_loops(analysis.cfg(), &mut sink);
    structural::multi_entry_loops(analysis.cfg(), &mut sink);
    if let Some(canonical) = analysis.canonical() {
        structural::unreachable_nodes(&canonical.report, &mut sink);
        structural::infinite_regions(&canonical.report, &mut sink);
        controldep::vacuous_branches(analysis, &mut sink);
        controldep::synthetic_termination_dependence(analysis.input_graph(), canonical, &mut sink);
        controldep::order_dependent_pairs(analysis, &mut sink, budget)?;
    } else {
        structural::unreachable_statements(analysis, &mut sink);
        structural::bureaucratic_regions(analysis, &mut sink);
        controldep::vacuous_branches(analysis, &mut sink);
        controldep::empty_branch_arms(analysis, &mut sink);
        controldep::invariant_loop_guards(analysis, &mut sink, budget)?;
        dataflow::reaching_definition_rules(analysis, &mut sink);
    }
    Ok(sink.into_report())
}

/// Lints one lowered function (and its AST, when the front end made
/// one): [`lint`] over a fresh [`Analysis`], with no budget.
///
/// # Examples
///
/// ```
/// use pst_analysis::{lint_function, LintConfig};
/// use pst_lang::{lower_program, parse_program};
///
/// let program = parse_program("fn main(n) { m = n + 1; return m; }").unwrap();
/// let lowered = lower_program(&program).unwrap();
/// let report = lint_function(&lowered[0], Some(&program.functions[0]),
///                            &LintConfig::new());
/// assert!(report.is_clean());
/// ```
pub fn lint_function(
    f: &LoweredFunction,
    ast: Option<&Function>,
    config: &LintConfig,
) -> LintReport {
    let mut unlimited = Budget::UNLIMITED;
    lint(&Analysis::of_function(f, ast), config, &mut unlimited)
        .expect("an unlimited budget never runs out")
}

/// Runs the dataflow rules (`PST-D001`, `PST-D002`) of [`lint`] over a
/// caller-supplied reaching-definitions `solution` for `rd`.
///
/// [`lint`] feeds these rules [`Analysis::reaching_definitions`]; this
/// entry point lets a test hand them a deliberately perturbed solution
/// and check that an independent oracle notices.
pub fn lint_dataflow(
    f: &LoweredFunction,
    rd: &ReachingDefinitions,
    solution: &Solution,
    config: &LintConfig,
) -> LintReport {
    let mut sink = Sink::new(config);
    dataflow::rules_over(f, rd, Some(solution), &mut sink);
    sink.into_report()
}

/// Result of linting a raw edge-list graph: the findings plus the
/// canonicalized CFG they were computed on (also what the DOT export
/// renders).
#[derive(Clone, Debug)]
pub struct GraphLint {
    /// The findings. `PST-S003`/`PST-S004` diagnostics and `PST-C103`
    /// (which runs on the raw input) refer to *input* node ids; the rules
    /// that ran on the repaired CFG refer to its node ids.
    pub report: LintReport,
    /// The canonicalization outcome the structural rules consumed.
    pub canonical: Canonicalized,
}

/// Lints a raw graph: canonicalizes it, then runs [`lint`] over the
/// graph unit, with no budget (DOD keeps its own step cap).
///
/// # Errors
///
/// Propagates [`CanonicalizeError`] when the graph cannot be repaired into
/// a valid CFG at all (e.g. it is empty).
pub fn lint_graph(
    graph: &Graph,
    entry: NodeId,
    options: &CanonicalizeOptions,
    config: &LintConfig,
) -> Result<GraphLint, CanonicalizeError> {
    let canonical = canonicalize(graph, entry, options)?;
    let (analysis, mut unlimited) = (Analysis::of_graph(graph, &canonical), Budget::UNLIMITED);
    let report =
        lint(&analysis, config, &mut unlimited).expect("an unlimited budget never runs out");
    Ok(GraphLint { report, canonical })
}

/// Renders `graph` as DOT with the nodes and edges named by `report`'s
/// diagnostics highlighted (red for errors/warnings, orange for info).
/// Out-of-range ids (input-graph ids of pruned nodes) are skipped.
pub fn dot_with_findings(graph: &Graph, report: &LintReport) -> String {
    let mut node_color: Vec<Option<Severity>> = vec![None; graph.node_count()];
    let mut edge_color: Vec<Option<Severity>> = Vec::new();
    let flag = |slot: &mut Option<Severity>, s: Severity| {
        if slot.is_none_or(|old| old < s) {
            *slot = Some(s);
        }
    };
    for d in &report.diagnostics {
        for &n in &d.nodes {
            if n.index() < graph.node_count() {
                flag(&mut node_color[n.index()], d.severity);
            }
        }
    }
    for e in graph.edges() {
        let endpoints = graph.endpoints(e);
        let mut slot = None;
        for d in &report.diagnostics {
            if d.edges.contains(&endpoints) {
                flag(&mut slot, d.severity);
            }
        }
        edge_color.push(slot);
    }
    let paint = |s: Option<Severity>| match s {
        Some(Severity::Info) => "color=orange, penwidth=2".to_string(),
        Some(_) => "color=red, penwidth=2".to_string(),
        None => String::new(),
    };
    pst_cfg::graph_to_dot_with(
        graph,
        |n| paint(node_color[n.index()]),
        |e| paint(edge_color[e.index()]),
    )
}
