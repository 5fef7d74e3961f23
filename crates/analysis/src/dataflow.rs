//! Dataflow rules over one reaching-definitions solution.
//!
//! `PST-D001` and `PST-D002` read the same all-variable reaching
//! definitions, solved once per function through the quick propagation
//! graph ([`Analysis::reaching_definitions`]). D001's question — does
//! any definition of `v` reach `n`? — is the projection of that solution
//! onto `v`'s sites.

use pst_cfg::NodeId;
use pst_dataflow::{ReachingDefinitions, Solution};
use pst_lang::{LoweredFunction, SrcPos, VarId};

use crate::diag::{Diagnostic, Rule};
use crate::engine::Sink;
use crate::Analysis;

/// `PST-D001` and `PST-D002` over the function of `analysis`: both read
/// its one all-variable reaching-definitions solution.
pub(crate) fn reaching_definition_rules(analysis: &Analysis<'_>, sink: &mut Sink<'_>) {
    // `Sink::rule` records a rule once, so `rules_over` may ask again.
    if sink.rule("PST-D001").is_none() && sink.rule("PST-D002").is_none() {
        return;
    }
    let (rd, solution) = analysis.reaching_definitions();
    rules_over(analysis.expect_function(), rd, solution, sink);
}

/// Runs the enabled D rules over `rd` and its `solution` (`None` when `rd`
/// has no sites, so nothing reaches anywhere).
pub(crate) fn rules_over(
    f: &LoweredFunction,
    rd: &ReachingDefinitions,
    solution: Option<&Solution>,
    sink: &mut Sink<'_>,
) {
    let (d001, d002) = (sink.rule("PST-D001"), sink.rule("PST-D002"));
    // Site ids per variable, ascending.
    let mut var_sites: Vec<Vec<usize>> = vec![Vec::new(); f.var_count()];
    for (i, s) in rd.sites().iter().enumerate() {
        var_sites[s.var.index()].push(i);
    }
    let reaches = |n: NodeId, i: usize| solution.is_some_and(|s| s.value_in(n).contains(i));
    if let Some(rule) = d001 {
        uninitialized_uses(f, &var_sites, &reaches, rule, sink);
    }
    if let Some(rule) = d002 {
        dead_definitions(f, rd, &var_sites, &reaches, rule, sink);
    }
}

/// `PST-D001` (mini inputs) — a read of a variable that no definition can
/// reach. May-analysis semantics: if *some* path defines the variable the
/// rule stays silent; only reads that are uninitialized on every path fire.
fn uninitialized_uses(
    f: &LoweredFunction,
    var_sites: &[Vec<usize>],
    reaches: &dyn Fn(NodeId, usize) -> bool,
    rule: &'static Rule,
    sink: &mut Sink<'_>,
) {
    let graph = f.cfg.graph();
    pst_obs::counter!(
        "lint_dataflow_work",
        (graph.node_count() + f.statement_count()) as u64
    );
    // Upward-exposed uses per variable: a read before any local definition
    // in its block. Stamps avoid reallocating per-block scratch.
    let mut exposed: Vec<Vec<(NodeId, Option<SrcPos>)>> = vec![Vec::new(); f.var_count()];
    let mut def_stamp = vec![u32::MAX; f.var_count()];
    let mut use_stamp = vec![u32::MAX; f.var_count()];
    for n in graph.nodes() {
        let stamp = n.index() as u32;
        let info = &f.blocks[n.index()];
        for s in &info.stmts {
            for &u in &s.uses {
                if def_stamp[u.index()] != stamp && use_stamp[u.index()] != stamp {
                    use_stamp[u.index()] = stamp;
                    exposed[u.index()].push((n, s.pos));
                }
            }
            if let Some(d) = s.def {
                def_stamp[d.index()] = stamp;
            }
        }
        for &u in &info.branch_uses {
            if def_stamp[u.index()] != stamp && use_stamp[u.index()] != stamp {
                use_stamp[u.index()] = stamp;
                exposed[u.index()].push((n, info.branch_pos));
            }
        }
    }
    for (v, uses) in exposed.iter().enumerate() {
        let var = VarId::from_index(v);
        for &(n, pos) in uses {
            if var_sites[v].iter().any(|&i| reaches(n, i)) {
                continue;
            }
            sink.push(Diagnostic {
                rule: rule.id,
                severity: sink.severity(rule),
                message: format!(
                    "uninitialized use: `{}` is read at {n} but no definition reaches it",
                    f.var_name(var)
                ),
                pos,
                nodes: vec![n],
                edges: Vec::new(),
            });
        }
    }
}

/// `PST-D002` (mini inputs) — an assignment whose value no later read can
/// observe. Definitions without source positions (implicit parameter
/// definitions, generated programs) are exempt.
fn dead_definitions(
    f: &LoweredFunction,
    rd: &ReachingDefinitions,
    var_sites: &[Vec<usize>],
    reaches: &dyn Fn(NodeId, usize) -> bool,
    rule: &'static Rule,
    sink: &mut Sink<'_>,
) {
    let sites = rd.sites();
    if sites.is_empty() {
        return;
    }
    let graph = f.cfg.graph();
    pst_obs::counter!(
        "lint_dataflow_work",
        (sites.len() + f.statement_count()) as u64
    );
    // Mark every definition some use can observe. Within a block a use
    // consumes the closest local definition; an upward-exposed use consumes
    // every reaching definition of its variable.
    let mut consumed = vec![false; sites.len()];
    let mut local_stamp = vec![u32::MAX; f.var_count()];
    let mut local_site = vec![0usize; f.var_count()];
    let mut exposed_stamp = vec![u32::MAX; f.var_count()];
    // `sites` is ordered by (node, stmt) — exactly lowering order — so a
    // single cursor recovers each definition's site index.
    let mut cursor = 0usize;
    for n in graph.nodes() {
        let stamp = n.index() as u32;
        let info = &f.blocks[n.index()];
        let consume = |u: VarId,
                       consumed: &mut [bool],
                       local_stamp: &[u32],
                       local_site: &[usize],
                       exposed_stamp: &mut [u32]| {
            if local_stamp[u.index()] == stamp {
                consumed[local_site[u.index()]] = true;
            } else if exposed_stamp[u.index()] != stamp {
                exposed_stamp[u.index()] = stamp;
                for &si in &var_sites[u.index()] {
                    if reaches(n, si) {
                        consumed[si] = true;
                    }
                }
            }
        };
        for s in &info.stmts {
            for &u in &s.uses {
                consume(
                    u,
                    &mut consumed,
                    &local_stamp,
                    &local_site,
                    &mut exposed_stamp,
                );
            }
            if let Some(d) = s.def {
                local_stamp[d.index()] = stamp;
                local_site[d.index()] = cursor;
                cursor += 1;
            }
        }
        for &u in &info.branch_uses {
            consume(
                u,
                &mut consumed,
                &local_stamp,
                &local_site,
                &mut exposed_stamp,
            );
        }
    }
    debug_assert_eq!(cursor, sites.len());
    for (si, site) in sites.iter().enumerate() {
        if consumed[si] {
            continue;
        }
        let stmt = &f.blocks[site.node.index()].stmts[site.stmt];
        let Some(pos) = stmt.pos else {
            continue;
        };
        sink.push(Diagnostic {
            rule: rule.id,
            severity: sink.severity(rule),
            message: format!(
                "dead definition: `{}` is assigned (`{}`) but the value is never read",
                f.var_name(site.var),
                stmt.text
            ),
            pos: Some(pos),
            nodes: vec![site.node],
            edges: Vec::new(),
        });
    }
}
