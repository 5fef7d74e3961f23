//! Control-dependence rules: the weak family (`PST-C0xx`) built on the
//! control-equivalence classes of Theorem 7, and the strong family
//! (`PST-C1xx`) built on the termination-sensitive NTSCD/DOD relations
//! from `pst-controldep` (see `docs/CONTROLDEP.md`).

use pst_cfg::{Budget, Canonicalized, Exhausted, Graph, NodeId, Repair, Sccs};
use pst_controldep::ClassicControlDeps;

use crate::diag::Diagnostic;
use crate::engine::Sink;
use crate::Analysis;

/// `PST-C001` — a conditional branch all of whose successors sit in the
/// branch's own control region. Every successor executes exactly when the
/// branch does, so the condition selects nothing (Theorem 7: control
/// regions are the equivalence classes of "executes under the same
/// conditions").
pub(crate) fn vacuous_branches(analysis: &Analysis<'_>, sink: &mut Sink<'_>) {
    let Some(rule) = sink.rule("PST-C001") else {
        return;
    };
    let (f, regions) = (analysis.function(), analysis.control_regions());
    let graph = analysis.cfg().graph();
    pst_obs::counter!(
        "lint_controldep_work",
        (graph.node_count() + graph.edge_count()) as u64
    );
    for n in graph.nodes() {
        if graph.out_degree(n) < 2 {
            continue;
        }
        let class = regions.class(n);
        if graph.successors(n).all(|s| regions.class(s) == class) {
            let pos = f.and_then(|f| f.blocks[n.index()].branch_pos);
            sink.push(Diagnostic {
                rule: rule.id,
                severity: sink.severity(rule),
                message: format!(
                    "vacuous branch: every successor of {n} is control-equivalent to it, \
                     so the condition never changes what executes"
                ),
                pos,
                nodes: vec![n],
                edges: graph
                    .out_edges(n)
                    .iter()
                    .map(|&e| graph.endpoints(e))
                    .collect(),
            });
        }
    }
}

/// `PST-C002` (mini inputs) — a branch arm that is a single idle block
/// falling straight back into the branch's own control region: the arm
/// exists only to do nothing (`if (c) { }`, `while (c) { }` with an empty
/// body).
pub(crate) fn empty_branch_arms(analysis: &Analysis<'_>, sink: &mut Sink<'_>) {
    let Some(rule) = sink.rule("PST-C002") else {
        return;
    };
    let (f, regions) = (analysis.expect_function(), analysis.control_regions());
    let graph = f.cfg.graph();
    pst_obs::counter!(
        "lint_controldep_work",
        (graph.node_count() + graph.edge_count()) as u64
    );
    for n in graph.nodes() {
        if graph.out_degree(n) < 2 {
            continue;
        }
        let class = regions.class(n);
        for s in graph.successors(n) {
            if s == n {
                continue;
            }
            let info = &f.blocks[s.index()];
            // The arm is conditional (not the branch's own class), does
            // nothing, and its sole successor is unconditional again.
            if regions.class(s) != class
                && info.stmts.is_empty()
                && info.branch_uses.is_empty()
                && graph.out_degree(s) == 1
                && graph
                    .successors(s)
                    .all(|m| m != s && regions.class(m) == class)
            {
                let pos = f.blocks[n.index()].branch_pos;
                sink.push(Diagnostic {
                    rule: rule.id,
                    severity: sink.severity(rule),
                    message: format!(
                        "empty branch arm: the arm through {s} does nothing before \
                         rejoining; the branch at {n} can be simplified"
                    ),
                    pos,
                    nodes: vec![n, s],
                    edges: vec![(n, s)],
                });
            }
        }
    }
}

/// `PST-C101` (mini inputs) — a loop whose every exit guard reads only
/// variables no statement inside the loop defines. Once entered, nothing
/// the loop does can flip any of its guards, so it can never terminate by
/// itself. Nested loops are handled by refinement: a healthy outer loop's
/// guards are removed and the strongly connected remainder is re-examined,
/// so an invariant inner loop is found even when the outer SCC swallows it.
///
/// The finding is enriched with the NTSCD view: the number of nodes that
/// are strongly (termination-sensitively) but not classically control
/// dependent on the guard — the code that silently relies on this loop
/// finishing. Each peeling round spends `N + E + 1` steps of `budget`.
pub(crate) fn invariant_loop_guards(
    analysis: &Analysis<'_>,
    sink: &mut Sink<'_>,
    budget: &mut Budget,
) -> Result<(), Exhausted> {
    let Some(rule) = sink.rule("PST-C101") else {
        return Ok(());
    };
    let f = analysis.expect_function();
    let graph = f.cfg.graph();
    pst_obs::counter!(
        "lint_strongdep_work",
        (graph.node_count() + graph.edge_count()) as u64
    );
    let n = graph.node_count();
    let defines: Vec<Vec<pst_lang::VarId>> = f
        .blocks
        .iter()
        .map(|b| b.stmts.iter().filter_map(|s| s.def).collect())
        .collect();
    let mut active = vec![true; n];
    loop {
        budget.spend((n + graph.edge_count() + 1) as u64)?;
        // SCCs of the subgraph induced by the still-active nodes. Node ids
        // are preserved, so components translate back directly.
        let mut sub = Graph::with_capacity(n, graph.edge_count());
        sub.add_nodes(n);
        for e in graph.edges() {
            let (s, t) = graph.endpoints(e);
            if active[s.index()] && active[t.index()] {
                sub.add_edge(s, t);
            }
        }
        let sccs = Sccs::new(&sub);
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); sccs.count()];
        for v in sub.nodes() {
            if active[v.index()] {
                members[sccs.component(v)].push(v);
            }
        }
        let mut changed = false;
        for comp in &members {
            let is_loop =
                comp.len() >= 2 || comp.iter().any(|&v| sub.successors(v).any(|s| s == v));
            if !is_loop {
                continue;
            }
            let cid = sccs.component(comp[0]);
            let mut defined = vec![false; f.vars.len()];
            for &v in comp {
                for &d in &defines[v.index()] {
                    defined[d.index()] = true;
                }
            }
            // Exit guards: loop nodes with an original-graph successor
            // outside the component (removed guards count as outside).
            let mut dead_guards: Vec<NodeId> = Vec::new();
            let mut live_guards: Vec<NodeId> = Vec::new();
            for &v in comp {
                let leaves = graph
                    .successors(v)
                    .any(|s| !active[s.index()] || sccs.component(s) != cid);
                if !leaves {
                    continue;
                }
                if f.blocks[v.index()]
                    .branch_uses
                    .iter()
                    .any(|u| defined[u.index()])
                {
                    live_guards.push(v);
                } else {
                    dead_guards.push(v);
                }
            }
            if dead_guards.is_empty() && live_guards.is_empty() {
                // Inescapable region: PST-S004's territory, not a guard bug.
                for &v in comp {
                    active[v.index()] = false;
                }
                changed = true;
            } else if !live_guards.is_empty() {
                // Some guard can make progress; peel the live guards and
                // re-examine what remains for invariant inner loops.
                for &v in &live_guards {
                    active[v.index()] = false;
                }
                changed = true;
            } else {
                let g0 = dead_guards[0];
                let waiting = analysis
                    .strong(budget)?
                    .termination_sensitive_deps(g0)
                    .len();
                let mut vars: Vec<&str> = dead_guards
                    .iter()
                    .flat_map(|&g| f.blocks[g.index()].branch_uses.iter())
                    .map(|u| f.vars[u.index()].as_str())
                    .collect();
                vars.sort_unstable();
                vars.dedup();
                let read = if vars.is_empty() {
                    "no variables at all".to_string()
                } else {
                    format!("only `{}`, which the loop never assigns", vars.join("`, `"))
                };
                let mut nodes = dead_guards.clone();
                nodes.extend(comp.iter().copied().filter(|v| !dead_guards.contains(v)));
                let edges = dead_guards
                    .iter()
                    .flat_map(|&g| {
                        graph
                            .successors(g)
                            .filter(|s| active[s.index()] && sccs.component(*s) == cid)
                            .map(move |s| (g, s))
                    })
                    .collect();
                sink.push(Diagnostic {
                    rule: rule.id,
                    severity: sink.severity(rule),
                    message: format!(
                        "possibly non-terminating loop: the guard at {g0} reads {read}; \
                         {waiting} node(s) after the loop execute only if it terminates"
                    ),
                    pos: f.blocks[g0.index()].branch_pos,
                    nodes,
                    edges,
                });
                for &v in comp {
                    active[v.index()] = false;
                }
                changed = true;
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

/// `PST-C102` (graph inputs) — nodes classically control dependent on a
/// predicate that only branches because canonicalization synthesized a
/// virtual loop exit. In the input graph the "predicate" is unconditional:
/// the real program decides the dependence by terminating or not, which a
/// termination-insensitive slicer will silently get wrong.
pub(crate) fn synthetic_termination_dependence(
    graph: &Graph,
    canonical: &Canonicalized,
    sink: &mut Sink<'_>,
) {
    let Some(rule) = sink.rule("PST-C102") else {
        return;
    };
    let virtuals: Vec<NodeId> = canonical
        .report
        .repairs()
        .iter()
        .filter_map(|r| match *r {
            Repair::VirtualLoopExit { from } => Some(from),
            _ => None,
        })
        .collect();
    pst_obs::counter!(
        "lint_strongdep_work",
        (graph.node_count() + graph.edge_count()) as u64
    );
    if virtuals.is_empty() {
        return;
    }
    let classic = ClassicControlDeps::compute(&canonical.cfg);
    let cgraph = canonical.cfg.graph();
    for from in virtuals {
        // Skip predicates that already branched in the input: their
        // dependence is real, only the exit edge's target is synthetic.
        let was_real_branch = canonical
            .node_map
            .iter()
            .position(|&m| m == Some(from))
            .is_some_and(|i| {
                let mut succs: Vec<NodeId> = graph.successors(NodeId::from_index(i)).collect();
                succs.sort_unstable();
                succs.dedup();
                succs.len() >= 2
            });
        if was_real_branch {
            continue;
        }
        let dependents: Vec<NodeId> = cgraph
            .nodes()
            .filter(|&v| v != from && classic.depends_on(v, from))
            .collect();
        if dependents.is_empty() {
            continue;
        }
        let mut nodes = vec![from];
        nodes.extend(dependents.iter().copied());
        sink.push(Diagnostic {
            rule: rule.id,
            severity: sink.severity(rule),
            message: format!(
                "synthetic termination dependence: {} node(s) are control dependent \
                 on {from}, but {from} only branches via the virtual exit edge added \
                 for an inescapable loop — the real program decides this by (not) \
                 terminating",
                dependents.len()
            ),
            pos: None,
            nodes,
            edges: vec![(from, canonical.cfg.exit())],
        });
    }
}

/// `PST-C103` (graph inputs) — decisive order dependence: a branch that
/// does not decide *whether* two nodes execute (they always both do) but
/// does decide *in which order*. Computed by the DOD relation on the raw
/// input graph ([`Analysis::dod`]); one finding per deciding branch,
/// witnesses aggregated.
pub(crate) fn order_dependent_pairs(
    analysis: &Analysis<'_>,
    sink: &mut Sink<'_>,
    budget: &mut Budget,
) -> Result<(), Exhausted> {
    let Some(rule) = sink.rule("PST-C103") else {
        return Ok(());
    };
    let graph = analysis.input_graph();
    pst_obs::counter!(
        "lint_strongdep_work",
        (graph.node_count() + graph.edge_count()) as u64
    );
    let dod = analysis.dod(budget)?;
    // Witnesses are sorted by (branch, first, second); group consecutively.
    let witnesses = dod.witnesses();
    let mut i = 0;
    while i < witnesses.len() {
        let branch = witnesses[i].branch;
        let mut j = i;
        while j < witnesses.len() && witnesses[j].branch == branch {
            j += 1;
        }
        let group = &witnesses[i..j];
        let first = group[0];
        let mut nodes = vec![branch];
        for w in group {
            for m in [w.first, w.second] {
                if !nodes.contains(&m) {
                    nodes.push(m);
                }
            }
        }
        sink.push(Diagnostic {
            rule: rule.id,
            severity: sink.severity(rule),
            message: format!(
                "order-dependent pair(s): the branch at {branch} decides the execution \
                 order of {} always-executing pair(s) of nodes, e.g. {} vs {} — \
                 node-level slicing that ignores order will miscompile this",
                group.len(),
                first.first,
                first.second
            ),
            pos: None,
            nodes,
            edges: graph
                .out_edges(branch)
                .iter()
                .map(|&e| graph.endpoints(e))
                .collect(),
        });
        i = j;
    }
    Ok(())
}
