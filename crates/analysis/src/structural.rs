//! Structural rules: irreducibility witnesses, multi-entry loops,
//! unreachable/infinite regions, bureaucratic PST chains.

use pst_cfg::{reducibility, CanonicalizationReport, Cfg, Repair, Sccs};
use pst_lang::{Block, Function, Stmt};

use crate::diag::Diagnostic;
use crate::engine::Sink;
use crate::Analysis;

/// `PST-S001` — every irreducible retreating edge is a witness.
pub(crate) fn irreducible_loops(cfg: &Cfg, sink: &mut Sink<'_>) {
    let Some(rule) = sink.rule("PST-S001") else {
        return;
    };
    let graph = cfg.graph();
    pst_obs::counter!(
        "lint_structural_work",
        (graph.node_count() + graph.edge_count()) as u64
    );
    let witness = reducibility(graph, cfg.entry());
    for &e in witness.irreducible_edges() {
        let (s, t) = graph.endpoints(e);
        sink.push(Diagnostic {
            rule: rule.id,
            severity: sink.severity(rule),
            message: format!(
                "irreducible loop: retreating edge {s}->{t} targets a node that does not \
                 dominate its source"
            ),
            pos: None,
            nodes: vec![t],
            edges: vec![(s, t)],
        });
    }
}

/// `PST-S002` — a strongly connected component entered at ≥ 2 nodes.
pub(crate) fn multi_entry_loops(cfg: &Cfg, sink: &mut Sink<'_>) {
    let Some(rule) = sink.rule("PST-S002") else {
        return;
    };
    let graph = cfg.graph();
    pst_obs::counter!(
        "lint_structural_work",
        (graph.node_count() + graph.edge_count()) as u64
    );
    let sccs = Sccs::new(graph);
    // Component sizes, to skip trivial (single-node, no-cycle) components.
    let mut size = vec![0usize; sccs.count()];
    for n in graph.nodes() {
        size[sccs.component(n)] += 1;
    }
    // Distinct external-entry targets per component, in node order.
    let mut entries: Vec<Vec<pst_cfg::NodeId>> = vec![Vec::new(); sccs.count()];
    for e in graph.edges() {
        let (s, t) = graph.endpoints(e);
        let c = sccs.component(t);
        if sccs.component(s) != c && size[c] >= 2 && !entries[c].contains(&t) {
            entries[c].push(t);
        }
    }
    for targets in entries {
        if targets.len() >= 2 {
            let labels: Vec<String> = targets.iter().map(|n| n.to_string()).collect();
            sink.push(Diagnostic {
                rule: rule.id,
                severity: sink.severity(rule),
                message: format!(
                    "multi-entry loop: a cycle is entered at {} distinct nodes ({})",
                    targets.len(),
                    labels.join(", ")
                ),
                pos: None,
                nodes: targets,
                edges: Vec::new(),
            });
        }
    }
}

/// Number of AST statements that lower to `StmtInfo`s (assignments,
/// expression statements, returns; a `for` contributes its init and step).
pub fn ast_statement_count(f: &Function) -> usize {
    f.params.len() + block_statement_count(&f.body)
}

fn block_statement_count(b: &Block) -> usize {
    b.stmts
        .iter()
        .map(|s| match s {
            Stmt::Assign { .. } | Stmt::Expr(_) | Stmt::Return(_) => 1,
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                block_statement_count(then_branch)
                    + else_branch.as_ref().map_or(0, block_statement_count)
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => block_statement_count(body),
            Stmt::For { body, .. } => 2 + block_statement_count(body),
            Stmt::Switch { cases, default, .. } => {
                cases
                    .iter()
                    .map(|(_, b)| block_statement_count(b))
                    .sum::<usize>()
                    + default.as_ref().map_or(0, block_statement_count)
            }
            Stmt::Break | Stmt::Continue | Stmt::Goto(_) | Stmt::Label(_) => 0,
        })
        .sum()
}

/// `PST-S003` (mini inputs) — statements the lowerer pruned because no
/// entry-to-exit path executes them.
pub(crate) fn unreachable_statements(analysis: &Analysis<'_>, sink: &mut Sink<'_>) {
    let (Some(f), Some(ast)) = (analysis.function(), analysis.ast()) else {
        return;
    };
    let Some(rule) = sink.rule("PST-S003") else {
        return;
    };
    let expected = ast_statement_count(ast);
    let actual = f.statement_count();
    pst_obs::counter!("lint_structural_work", expected as u64);
    if expected > actual {
        let pruned = expected - actual;
        sink.push(Diagnostic {
            rule: rule.id,
            severity: sink.severity(rule),
            message: format!(
                "unreachable code: {pruned} statement(s) can never execute on an \
                 entry-to-exit path and were pruned during lowering"
            ),
            pos: None,
            nodes: Vec::new(),
            edges: Vec::new(),
        });
    }
}

/// `PST-S003` (graph inputs) — unreachable nodes surfaced by the
/// canonicalization report.
pub(crate) fn unreachable_nodes(report: &CanonicalizationReport, sink: &mut Sink<'_>) {
    let Some(rule) = sink.rule("PST-S003") else {
        return;
    };
    pst_obs::counter!("lint_structural_work", report.repairs().len() as u64);
    let nodes: Vec<pst_cfg::NodeId> = report
        .repairs()
        .iter()
        .filter_map(|r| match *r {
            Repair::PrunedUnreachable { node } | Repair::TetheredUnreachable { node } => Some(node),
            _ => None,
        })
        .collect();
    if !nodes.is_empty() {
        let labels: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
        sink.push(Diagnostic {
            rule: rule.id,
            severity: sink.severity(rule),
            message: format!(
                "unreachable code: {} node(s) cannot be reached from the entry ({})",
                nodes.len(),
                labels.join(", ")
            ),
            pos: None,
            nodes,
            edges: Vec::new(),
        });
    }
}

/// `PST-S004` (graph inputs) — regions that cannot reach the exit.
pub(crate) fn infinite_regions(report: &CanonicalizationReport, sink: &mut Sink<'_>) {
    let Some(rule) = sink.rule("PST-S004") else {
        return;
    };
    pst_obs::counter!("lint_structural_work", report.repairs().len() as u64);
    let mut nodes = Vec::new();
    let mut synthesized_exit = false;
    for r in report.repairs() {
        match *r {
            Repair::VirtualLoopExit { from } => nodes.push(from),
            Repair::SyntheticExit { .. } => synthesized_exit = true,
            _ => {}
        }
    }
    if !nodes.is_empty() || synthesized_exit {
        let labels: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
        sink.push(Diagnostic {
            rule: rule.id,
            severity: sink.severity(rule),
            message: format!(
                "infinite region: {} node(s) cannot reach the exit ({}{})",
                nodes.len().max(usize::from(synthesized_exit)),
                labels.join(", "),
                if synthesized_exit {
                    "; the graph had no sink at all"
                } else {
                    ""
                }
            ),
            pos: None,
            nodes,
            edges: Vec::new(),
        });
    }
}

/// `PST-S005` (mini inputs) — chains of single-node canonical regions
/// whose nodes carry no statements and no branch: pure plumbing, usually
/// label ladders.
pub(crate) fn bureaucratic_regions(analysis: &Analysis<'_>, sink: &mut Sink<'_>) {
    let Some(rule) = sink.rule("PST-S005") else {
        return;
    };
    let (f, pst) = (analysis.expect_function(), analysis.pst());
    let graph = f.cfg.graph();
    pst_obs::counter!(
        "lint_structural_work",
        (graph.node_count() + pst.region_count()) as u64
    );
    // One pass over nodes gives each region's interior size and (if
    // singleton) its sole member, without the per-region interior scan.
    let mut interior_count = vec![0usize; pst.region_count()];
    let mut member: Vec<Option<pst_cfg::NodeId>> = vec![None; pst.region_count()];
    for n in graph.nodes() {
        let r = pst.region_of_node(n).index();
        interior_count[r] += 1;
        member[r] = Some(n);
    }
    // Idle singleton canonical regions, keyed by their entry edge.
    let mut idle: Vec<Option<usize>> = vec![None; graph.edge_count()]; // entry edge -> region index
    let mut members: Vec<Option<pst_cfg::NodeId>> = vec![None; pst.region_count()];
    let mut exit_edge: Vec<Option<pst_cfg::EdgeId>> = vec![None; pst.region_count()];
    for r in pst.regions() {
        let (Some(entry), Some(exit)) = (pst.entry_edge(r), pst.exit_edge(r)) else {
            continue;
        };
        if !pst.children(r).is_empty() || interior_count[r.index()] != 1 {
            continue;
        }
        let node = member[r.index()].expect("singleton region has a member");
        let info = &f.blocks[node.index()];
        if info.stmts.is_empty() && info.branch_uses.is_empty() {
            idle[entry.index()] = Some(r.index());
            members[r.index()] = Some(node);
            exit_edge[r.index()] = Some(exit);
        }
    }
    // Chain regions whose exit edge is the next one's entry edge; report
    // maximal chains of length ≥ 2. A region is a chain head when no idle
    // region's exit edge equals its entry edge.
    let mut is_continuation = vec![false; pst.region_count()];
    for r in pst.regions() {
        if members[r.index()].is_none() {
            continue;
        }
        if let Some(exit) = exit_edge[r.index()] {
            if let Some(next) = idle[exit.index()] {
                is_continuation[next] = true;
            }
        }
    }
    for r in pst.regions() {
        let ri = r.index();
        if members[ri].is_none() || is_continuation[ri] {
            continue;
        }
        let mut chain = Vec::new();
        let mut cur = Some(ri);
        while let Some(c) = cur {
            chain.push(members[c].expect("chain members are idle singletons"));
            cur = exit_edge[c].and_then(|e| idle[e.index()]);
        }
        if chain.len() >= 2 {
            let labels: Vec<String> = chain.iter().map(|n| n.to_string()).collect();
            sink.push(Diagnostic {
                rule: rule.id,
                severity: sink.severity(rule),
                message: format!(
                    "bureaucratic regions: {} consecutive single-node regions do nothing ({})",
                    chain.len(),
                    labels.join(" -> ")
                ),
                pos: None,
                nodes: chain,
                edges: Vec::new(),
            });
        }
    }
}
