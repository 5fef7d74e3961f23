//! SSA renaming: assign versions to every definition and use.
//!
//! Classic dominator-tree walk with per-variable version stacks (Cytron et
//! al. §5.2). Version 0 of every variable is the implicit definition at
//! the CFG entry, matching the entry-as-definition convention of the
//! placement passes.

use pst_cfg::NodeId;
use pst_dominators::{dominator_tree, DomTree};
use pst_lang::{LoweredFunction, VarId};

use crate::{PhiPlacement, SsaError};

/// A version number of a variable (0 = implicit entry definition).
pub type Version = u32;

/// One φ-function after renaming.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhiNode {
    /// The variable being merged.
    pub var: VarId,
    /// Version defined by this φ.
    pub result: Version,
    /// One argument per incoming edge: `(predecessor, version)`, in the
    /// order of the node's incoming edge list.
    pub args: Vec<(NodeId, Version)>,
}

/// One renamed straight-line statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SsaStmt {
    /// Renamed definition, if the statement writes a variable.
    pub def: Option<(VarId, Version)>,
    /// Renamed uses.
    pub uses: Vec<(VarId, Version)>,
}

/// A function in SSA form.
#[derive(Clone, Debug)]
pub struct SsaForm {
    /// φ-functions per CFG node (empty for most nodes).
    pub phi_nodes: Vec<Vec<PhiNode>>,
    /// Renamed statements per CFG node, parallel to
    /// `LoweredFunction::blocks[n].stmts`.
    pub statements: Vec<Vec<SsaStmt>>,
    /// Number of versions created per variable (≥ 1; version 0 is the
    /// implicit entry value).
    pub version_count: Vec<u32>,
}

impl SsaForm {
    /// Total number of φ-functions.
    pub fn total_phis(&self) -> usize {
        self.phi_nodes.iter().map(|p| p.len()).sum()
    }
}

/// Renames `function` into SSA form given a φ-placement.
///
/// # Errors
///
/// Returns [`SsaError::VersionStackUnderflow`] when `placement` does not
/// belong to `function` and the dominator-tree walk reads a version stack
/// dry.
///
/// # Examples
///
/// ```
/// use pst_lang::{parse_program, lower_function};
/// use pst_ssa::{place_phis_cytron, rename};
/// let p = parse_program(
///     "fn f(c) { if (c) { x = 1; } else { x = 2; } return x; }"
/// ).unwrap();
/// let l = lower_function(&p.functions[0]).unwrap();
/// let ssa = rename(&l, &place_phis_cytron(&l)).unwrap();
/// assert_eq!(ssa.total_phis(), 1);
/// let x = l.var_id("x").unwrap();
/// // versions: 0 (entry), 1 and 2 (the arms), 3 (the phi)
/// assert_eq!(ssa.version_count[x.index()], 4);
/// ```
pub fn rename(function: &LoweredFunction, placement: &PhiPlacement) -> Result<SsaForm, SsaError> {
    let _span = pst_obs::Span::enter("ssa_rename");
    let cfg = &function.cfg;
    let graph = cfg.graph();
    let n = graph.node_count();
    let nvars = function.var_count();
    let dt: DomTree = dominator_tree(graph, cfg.entry());

    // Seed φ nodes (arguments filled in during the walk).
    let mut phi_nodes: Vec<Vec<PhiNode>> = vec![Vec::new(); n];
    for (var, sites) in placement.iter() {
        for &site in sites {
            let args = graph
                .in_edges(site)
                .iter()
                .map(|&e| (graph.source(e), 0))
                .collect();
            phi_nodes[site.index()].push(PhiNode {
                var,
                result: 0,
                args,
            });
        }
    }

    let mut statements: Vec<Vec<SsaStmt>> = vec![Vec::new(); n];
    let mut version_count: Vec<u32> = vec![1; nvars]; // version 0 exists
    let mut stacks: Vec<Vec<Version>> = vec![vec![0]; nvars];

    // Iterative dominator-tree preorder walk with explicit pop counts.
    enum Action {
        Visit(NodeId),
        Unwind(Vec<(usize, usize)>), // (var, pops)
    }
    let mut work = vec![Action::Visit(cfg.entry())];
    while let Some(action) = work.pop() {
        match action {
            Action::Unwind(pops) => {
                for (v, count) in pops {
                    for _ in 0..count {
                        stacks[v].pop();
                    }
                }
            }
            Action::Visit(node) => {
                let ni = node.index();
                let mut pushed: Vec<(usize, usize)> = Vec::new();
                let push = |stacks: &mut Vec<Vec<Version>>,
                            version_count: &mut Vec<u32>,
                            pushed: &mut Vec<(usize, usize)>,
                            var: VarId| {
                    let fresh = version_count[var.index()];
                    version_count[var.index()] += 1;
                    stacks[var.index()].push(fresh);
                    match pushed.iter_mut().find(|(v, _)| *v == var.index()) {
                        Some((_, c)) => *c += 1,
                        None => pushed.push((var.index(), 1)),
                    }
                    fresh
                };

                // φ definitions first.
                for phi in &mut phi_nodes[ni] {
                    phi.result = push(&mut stacks, &mut version_count, &mut pushed, phi.var);
                }
                // Straight-line statements.
                let mut stmts = Vec::with_capacity(function.blocks[ni].stmts.len());
                for s in &function.blocks[ni].stmts {
                    let mut uses = Vec::with_capacity(s.uses.len());
                    for &u in &s.uses {
                        let version = *stacks[u.index()]
                            .last()
                            .ok_or(SsaError::VersionStackUnderflow(u))?;
                        uses.push((u, version));
                    }
                    let def = s.def.map(|d| {
                        let fresh = push(&mut stacks, &mut version_count, &mut pushed, d);
                        (d, fresh)
                    });
                    stmts.push(SsaStmt { def, uses });
                }
                statements[ni] = stmts;
                // Fill φ arguments of successors.
                for &e in graph.out_edges(node) {
                    let succ = graph.target(e);
                    for phi in &mut phi_nodes[succ.index()] {
                        let current = *stacks[phi.var.index()]
                            .last()
                            .ok_or(SsaError::VersionStackUnderflow(phi.var))?;
                        for arg in phi.args.iter_mut().filter(|(p, _)| *p == node) {
                            arg.1 = current;
                        }
                    }
                }
                // Recurse into dominator-tree children, then unwind.
                work.push(Action::Unwind(pushed));
                for &c in dt.children(node) {
                    work.push(Action::Visit(c));
                }
            }
        }
    }

    Ok(SsaForm {
        phi_nodes,
        statements,
        version_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place_phis_cytron;
    use pst_lang::{lower_function, parse_function_body};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ssa_of(src: &str) -> (LoweredFunction, SsaForm) {
        let f = parse_function_body(src).unwrap();
        let l = lower_function(&f).unwrap();
        let p = place_phis_cytron(&l);
        let ssa = rename(&l, &p).unwrap();
        (l, ssa)
    }

    /// Independent semantic check: walk random entry→exit paths carrying
    /// the "current version" of every variable; at every use the renamed
    /// version must equal the path state, and φs must select the argument
    /// of the edge actually taken.
    fn check_random_paths(l: &LoweredFunction, ssa: &SsaForm, seeds: u64) {
        let g = l.cfg.graph();
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut current: Vec<Version> = vec![0; l.var_count()];
            let mut node = l.cfg.entry();
            let mut prev: Option<NodeId> = None;
            for _ in 0..200 {
                // Execute φs: version = argument for the incoming edge.
                if let Some(p) = prev {
                    for phi in &ssa.phi_nodes[node.index()] {
                        let (_, version) = phi
                            .args
                            .iter()
                            .find(|(q, _)| *q == p)
                            .expect("phi has an arg for every predecessor");
                        assert_eq!(
                            *version,
                            current[phi.var.index()],
                            "phi argument mismatch at {node:?} from {p:?} for v{}",
                            phi.var.index()
                        );
                        current[phi.var.index()] = phi.result;
                    }
                }
                // Execute statements.
                for s in &ssa.statements[node.index()] {
                    for &(var, version) in &s.uses {
                        assert_eq!(
                            version,
                            current[var.index()],
                            "use of stale version at {node:?}"
                        );
                    }
                    if let Some((var, version)) = s.def {
                        current[var.index()] = version;
                    }
                }
                if node == l.cfg.exit() {
                    break;
                }
                let succs: Vec<NodeId> = g.successors(node).collect();
                prev = Some(node);
                node = succs[rng.gen_range(0..succs.len())];
            }
        }
    }

    #[test]
    fn diamond_phi_selects_correct_arm() {
        let (l, ssa) = ssa_of("if (c) { x = 1; } else { x = 2; } return x;");
        assert_eq!(ssa.total_phis(), 1);
        check_random_paths(&l, &ssa, 20);
    }

    #[test]
    fn loop_renaming_is_consistent() {
        let (l, ssa) = ssa_of("s = 0; while (n > 0) { s = s + n; n = n - 1; } return s;");
        check_random_paths(&l, &ssa, 50);
    }

    #[test]
    fn unstructured_goto_renaming_is_consistent() {
        let (l, ssa) = ssa_of(
            "if (c) { goto b; } a: x = x + 1; goto c; b: x = x - 1; c: if (x > 0) { goto a; } return x;",
        );
        check_random_paths(&l, &ssa, 80);
    }

    #[test]
    fn switch_renaming_is_consistent() {
        let (l, ssa) = ssa_of(
            "switch (x) { case 0: { y = 1; } case 1: { y = 2; } default: { y = y + 1; } } return y;",
        );
        check_random_paths(&l, &ssa, 40);
    }

    #[test]
    fn every_use_version_is_defined() {
        let (l, ssa) = ssa_of("s = 0; for (i = 0; i < 9; i = i + 1) { s = s + i; } return s;");
        for node in l.cfg.graph().nodes() {
            for s in &ssa.statements[node.index()] {
                for &(var, version) in &s.uses {
                    assert!(version < ssa.version_count[var.index()]);
                }
            }
        }
        check_random_paths(&l, &ssa, 30);
    }

    #[test]
    fn phi_args_cover_every_in_edge() {
        let (l, ssa) = ssa_of("if (c) { x = 1; } else { x = 2; } return x;");
        for node in l.cfg.graph().nodes() {
            for phi in &ssa.phi_nodes[node.index()] {
                assert_eq!(phi.args.len(), l.cfg.graph().in_degree(node));
            }
        }
    }
}
