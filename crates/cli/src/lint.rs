//! `pst lint` — rule-based structural diagnostics over the pipeline's
//! artifacts (see `docs/ANALYSIS.md` for the rule catalog).
//!
//! Mini-language inputs run every applicable rule per function; `--edges`
//! inputs canonicalize a raw edge list first and run the graph-level rules.
//! `--json` prints one JSON array of per-unit reports on stdout; `--dot`
//! writes Graphviz with flagged nodes and edges highlighted. Any finding
//! makes the process exit 5 (after `--allow`/`--deny` filtering), so the
//! command slots into CI next to the 0/1/2/3/4 taxonomy of the other modes.
//! `--explain <rule>` prints a rule's documentation card (summary,
//! severity, example, fix hint) and exits without reading any input.

use pst_analysis::{
    dot_with_findings, find_rule, lint_function, lint_graph, LintConfig, LintReport,
};
use pst_cfg::{parse_edge_list_graph, CanonicalizeOptions};
use pst_lang::{lower_program, parse_program};

use crate::{read_source, Failure};

/// Parsed `pst lint` options.
pub struct LintOptions {
    /// Print the documentation card of this rule and exit (no input read).
    pub explain: Option<String>,
    /// Input path (`-` = stdin). Unused (and empty) under `--explain`.
    pub path: String,
    /// Emit machine-readable JSON instead of human text.
    pub json: bool,
    /// Treat the input as a raw edge list instead of a mini program.
    pub edges: bool,
    /// Write a highlighted DOT dump here (`-` = stderr).
    pub dot: Option<String>,
    /// Per-rule allow/deny overrides, in command-line order.
    pub config: LintConfig,
    /// Canonicalization knobs for `--edges` inputs.
    pub canonicalize: CanonicalizeOptions,
}

impl LintOptions {
    /// Parses lint-specific flags out of the remaining CLI arguments.
    pub fn from_args(
        args: &mut Vec<String>,
        canonicalize: CanonicalizeOptions,
    ) -> Result<LintOptions, String> {
        let json = crate::take_flag(args, "--json");
        let edges = crate::take_flag(args, "--edges");
        let dot = crate::take_value_flag(args, "--dot")?;
        let explain = crate::take_value_flag(args, "--explain")?;
        let mut config = LintConfig::new();
        // `--allow`/`--deny` repeat and interact (last mention of a rule
        // wins), so consume them in order rather than via take_value_flag.
        let mut i = 0;
        while i < args.len() {
            let (name, inline) = match args[i].split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (args[i].clone(), None),
            };
            if name != "--allow" && name != "--deny" {
                i += 1;
                continue;
            }
            args.remove(i);
            let value = match inline {
                Some(v) => v,
                None => {
                    if i >= args.len() {
                        return Err(format!("`{name}` requires a rule id or name"));
                    }
                    args.remove(i)
                }
            };
            let result = if name == "--allow" {
                config.allow(&value)
            } else {
                config.deny(&value)
            };
            result.map_err(|unknown| {
                format!("unknown lint rule `{unknown}` (see docs/ANALYSIS.md for the catalog)")
            })?;
        }
        let path = match (args.first(), args.get(1)) {
            _ if explain.is_some() => {
                if !args.is_empty() {
                    return Err("`--explain` takes no input path".to_string());
                }
                String::new()
            }
            (Some(p), None) => p.clone(),
            _ => return Err("lint expects exactly one input path".to_string()),
        };
        Ok(LintOptions {
            explain,
            path,
            json,
            edges,
            dot,
            config,
            canonicalize,
        })
    }
}

/// Runs `pst lint`. Exit code 5 (via [`Failure::Lint`]) when any
/// diagnostic survives the configuration.
pub fn lint_command(opts: &LintOptions) -> Result<(), Failure> {
    if let Some(key) = &opts.explain {
        let rule = find_rule(key).ok_or_else(|| {
            Failure::Usage(format!(
                "unknown lint rule `{key}` (see docs/ANALYSIS.md for the catalog)"
            ))
        })?;
        print!("{}", rule.explain());
        return Ok(());
    }
    let source = read_source(&opts.path).map_err(Failure::Usage)?;
    // (unit name, report, DOT dump if requested)
    let mut units: Vec<(String, LintReport, Option<String>)> = Vec::new();
    if opts.edges {
        let unit_name = opts.path.clone();
        let _unit = pst_obs::UnitScope::enter(unit_name.as_str());
        let (graph, entry) = parse_edge_list_graph(&source)
            .map_err(|e| Failure::Analysis(format!("edge list error: {e}")))?;
        let lint = lint_graph(&graph, entry, &opts.canonicalize, &opts.config)
            .map_err(|e| Failure::Analysis(format!("canonicalize error: {e}")))?;
        let dot = opts
            .dot
            .is_some()
            .then(|| dot_with_findings(lint.canonical.cfg.graph(), &lint.report));
        units.push((unit_name, lint.report, dot));
    } else {
        let program =
            parse_program(&source).map_err(|e| Failure::Analysis(format!("parse error: {e}")))?;
        let lowered = lower_program(&program)
            .map_err(|e| Failure::Analysis(format!("lowering error: {e}")))?;
        for (f, ast) in lowered.iter().zip(&program.functions) {
            let unit_name = format!("{}#{}", opts.path, f.name);
            let report = {
                let _unit = pst_obs::UnitScope::enter(unit_name.as_str());
                lint_function(f, Some(ast), &opts.config)
            };
            let dot = opts
                .dot
                .is_some()
                .then(|| dot_with_findings(f.cfg.graph(), &report));
            units.push((unit_name, report, dot));
        }
    }
    for (name, report, _) in &units {
        for diag in &report.diagnostics {
            pst_obs::journal::emit(pst_obs::journal::Event::LintFinding {
                unit: name.clone(),
                rule: diag.rule.to_string(),
                severity: diag.severity.label().to_string(),
                message: diag.message.clone(),
            });
        }
    }
    let findings: usize = units.iter().map(|(_, r, _)| r.diagnostics.len()).sum();
    if opts.json {
        let arr = pst_obs::json::Json::Arr(
            units
                .iter()
                .map(|(name, report, _)| report.to_json(name))
                .collect(),
        );
        println!("{arr}");
    } else {
        for (name, report, _) in &units {
            print!("{}", report.render_text(name));
        }
    }
    if let Some(dot_path) = &opts.dot {
        let text: String = units
            .iter()
            .filter_map(|(_, _, d)| d.as_deref())
            .collect::<Vec<_>>()
            .join("\n");
        if dot_path == "-" {
            eprint!("{text}");
        } else {
            std::fs::write(dot_path, text)
                .map_err(|e| Failure::Usage(format!("cannot write `{dot_path}`: {e}")))?;
        }
    }
    if findings > 0 {
        Err(Failure::Lint(findings))
    } else {
        Ok(())
    }
}
