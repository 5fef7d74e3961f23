//! Concrete data-flow problems over lowered functions.
//!
//! * [`ReachingDefinitions`] — forward/union over the universe of
//!   definition statements.
//! * [`LiveVariables`] — backward/union over the universe of variables.
//! * [`DefiniteAssignment`] — forward/intersection over variables ("is `v`
//!   assigned on *every* path from the entry?").
//! * [`SingleVariableReachingDefs`] — the per-variable instance family the
//!   paper's sparse (QPG) evaluation uses: most regions are transparent
//!   for any one variable.

use pst_cfg::NodeId;
use pst_lang::{LoweredFunction, VarId};

use crate::{BitSet, Confluence, DataflowProblem, Flow, GenKill};

/// A definition site: `(block, statement index within block)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DefSite {
    /// Block containing the definition.
    pub node: NodeId,
    /// Statement position inside the block.
    pub stmt: usize,
    /// The variable defined.
    pub var: VarId,
}

/// Per-node transfer functions of a problem in which most nodes have the
/// identity transfer: one shared identity plus one function per
/// non-identity node, found through a per-node slot.
#[derive(Clone, Debug)]
struct SparseTransfers {
    identity: GenKill,
    /// Index into `transfers` per node; out of range for the identity.
    slot: Vec<u32>,
    transfers: Vec<GenKill>,
}

impl SparseTransfers {
    fn new(universe: usize, nodes: usize) -> Self {
        SparseTransfers {
            identity: GenKill::identity(universe),
            slot: vec![u32::MAX; nodes],
            transfers: Vec::new(),
        }
    }

    fn set(&mut self, node: NodeId, transfer: GenKill) {
        self.slot[node.index()] = self.transfers.len() as u32;
        self.transfers.push(transfer);
    }

    fn get(&self, node: NodeId) -> &GenKill {
        self.transfers
            .get(self.slot[node.index()] as usize)
            .unwrap_or(&self.identity)
    }
}

/// Classic reaching definitions.
#[derive(Clone, Debug)]
pub struct ReachingDefinitions {
    sites: Vec<DefSite>,
    transfers: SparseTransfers,
}

impl ReachingDefinitions {
    /// Builds the problem for `function`: enumerates definition sites and
    /// the gen/kill sets of the blocks holding them. Blocks without a
    /// definition share one identity transfer.
    pub fn new(function: &LoweredFunction) -> Self {
        let mut sites = Vec::new();
        for node in function.cfg.graph().nodes() {
            for (i, s) in function.blocks[node.index()].stmts.iter().enumerate() {
                if let Some(var) = s.def {
                    sites.push(DefSite { node, stmt: i, var });
                }
            }
        }
        let universe = sites.len();
        // Per-variable site sets, for kill computation and shadowing.
        let mut var_sites: Vec<BitSet> = (0..function.var_count())
            .map(|_| BitSet::new(universe))
            .collect();
        for (i, s) in sites.iter().enumerate() {
            var_sites[s.var.index()].insert(i);
        }
        let mut transfers = SparseTransfers::new(universe, function.cfg.node_count());
        // `sites` is in node order, so each block's definitions are one run.
        let mut first = 0;
        for block in sites.chunk_by(|a, b| a.node == b.node) {
            let mut gen = BitSet::new(universe);
            let mut kill = BitSet::new(universe);
            // Statement order: a later def of the same variable shadows an
            // earlier one.
            for (i, site) in block.iter().enumerate() {
                let same_var = &var_sites[site.var.index()];
                kill.union(same_var);
                gen.subtract(same_var);
                gen.insert(first + i);
            }
            // A def surviving the block is not killed by the block.
            kill.subtract(&gen);
            transfers.set(block[0].node, GenKill { gen, kill });
            first += block.len();
        }
        ReachingDefinitions { sites, transfers }
    }

    /// The definition sites, indexed by fact number.
    pub fn sites(&self) -> &[DefSite] {
        &self.sites
    }

    /// Filters a solution value down to the sites of one variable.
    pub fn reaching_defs_of_var(&self, value: &BitSet, var: VarId) -> Vec<DefSite> {
        value
            .iter()
            .map(|i| self.sites[i])
            .filter(|s| s.var == var)
            .collect()
    }
}

impl DataflowProblem for ReachingDefinitions {
    fn flow(&self) -> Flow {
        Flow::Forward
    }
    fn confluence(&self) -> Confluence {
        Confluence::Union
    }
    fn universe(&self) -> usize {
        self.sites.len()
    }
    fn boundary(&self) -> BitSet {
        BitSet::new(self.sites.len())
    }
    fn transfer(&self, node: NodeId) -> &GenKill {
        self.transfers.get(node)
    }
}

/// Classic backward liveness over variables.
#[derive(Clone, Debug)]
pub struct LiveVariables {
    universe: usize,
    transfers: Vec<GenKill>,
}

impl LiveVariables {
    /// Builds the problem: per block, `gen` = variables used before being
    /// defined (upward-exposed uses, including the branch condition),
    /// `kill` = variables defined.
    pub fn new(function: &LoweredFunction) -> Self {
        let universe = function.var_count();
        let transfers = function
            .cfg
            .graph()
            .nodes()
            .map(|node| {
                let block = &function.blocks[node.index()];
                let mut gen = BitSet::new(universe);
                let mut kill = BitSet::new(universe);
                for s in &block.stmts {
                    for &u in &s.uses {
                        if !kill.contains(u.index()) {
                            gen.insert(u.index());
                        }
                    }
                    if let Some(d) = s.def {
                        kill.insert(d.index());
                    }
                }
                // The terminating branch reads its condition variables
                // after all statements.
                for &u in &block.branch_uses {
                    if !kill.contains(u.index()) {
                        gen.insert(u.index());
                    }
                }
                let mut k = kill;
                k.subtract(&gen);
                // Liveness kill must not cancel upward-exposed uses; keep
                // gen/kill disjoint for a canonical representation.
                GenKill { gen, kill: k }
            })
            .collect();
        LiveVariables {
            universe,
            transfers,
        }
    }
}

impl DataflowProblem for LiveVariables {
    fn flow(&self) -> Flow {
        Flow::Backward
    }
    fn confluence(&self) -> Confluence {
        Confluence::Union
    }
    fn universe(&self) -> usize {
        self.universe
    }
    fn boundary(&self) -> BitSet {
        BitSet::new(self.universe) // nothing live after the exit
    }
    fn transfer(&self, node: NodeId) -> &GenKill {
        &self.transfers[node.index()]
    }
}

/// Forward *must* analysis: a variable is definitely assigned at a point
/// iff every entry→point path writes it.
#[derive(Clone, Debug)]
pub struct DefiniteAssignment {
    universe: usize,
    transfers: Vec<GenKill>,
}

impl DefiniteAssignment {
    /// Builds the problem; parameters (defined in the entry block) are
    /// definitely assigned from the start.
    pub fn new(function: &LoweredFunction) -> Self {
        let universe = function.var_count();
        let transfers = function
            .cfg
            .graph()
            .nodes()
            .map(|node| {
                let mut gen = BitSet::new(universe);
                for s in &function.blocks[node.index()].stmts {
                    if let Some(d) = s.def {
                        gen.insert(d.index());
                    }
                }
                GenKill {
                    gen,
                    kill: BitSet::new(universe),
                }
            })
            .collect();
        DefiniteAssignment {
            universe,
            transfers,
        }
    }
}

impl DataflowProblem for DefiniteAssignment {
    fn flow(&self) -> Flow {
        Flow::Forward
    }
    fn confluence(&self) -> Confluence {
        Confluence::Intersection
    }
    fn universe(&self) -> usize {
        self.universe
    }
    fn boundary(&self) -> BitSet {
        BitSet::new(self.universe) // nothing assigned before the entry
    }
    fn transfer(&self, node: NodeId) -> &GenKill {
        &self.transfers[node.index()]
    }
}

/// Reaching definitions restricted to a single variable — the sparse
/// instance family of the paper's §6.2: for any one variable, most blocks
/// (and hence most SESE regions) have identity transfer and can be
/// bypassed by the quick propagation graph.
#[derive(Clone, Debug)]
pub struct SingleVariableReachingDefs {
    /// Definition blocks of the variable, in fact order.
    sites: Vec<NodeId>,
    transfers: SparseTransfers,
}

impl SingleVariableReachingDefs {
    /// Builds the instance for `var`: one transfer per definition block,
    /// every other block shares the identity.
    pub fn new(function: &LoweredFunction, var: VarId) -> Self {
        let sites = function.definition_sites(var);
        let universe = sites.len();
        let mut transfers = SparseTransfers::new(universe, function.cfg.node_count());
        for (pos, &node) in sites.iter().enumerate() {
            let mut gen = BitSet::new(universe);
            gen.insert(pos);
            let mut kill = BitSet::full(universe);
            kill.remove(pos);
            transfers.set(node, GenKill { gen, kill });
        }
        SingleVariableReachingDefs { sites, transfers }
    }

    /// The variable's defining blocks (fact `i` = `sites()[i]`).
    pub fn sites(&self) -> &[NodeId] {
        &self.sites
    }
}

impl DataflowProblem for SingleVariableReachingDefs {
    fn flow(&self) -> Flow {
        Flow::Forward
    }
    fn confluence(&self) -> Confluence {
        Confluence::Union
    }
    fn universe(&self) -> usize {
        self.sites.len()
    }
    fn boundary(&self) -> BitSet {
        BitSet::new(self.sites.len())
    }
    fn transfer(&self, node: NodeId) -> &GenKill {
        self.transfers.get(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_iterative;
    use pst_lang::{lower_function, parse_function_body};

    fn lowered(src: &str) -> LoweredFunction {
        lower_function(&parse_function_body(src).unwrap()).unwrap()
    }

    #[test]
    fn reaching_definitions_through_branch() {
        let l = lowered("x = 1; if (c) { x = 2; } y = x; return y;");
        let rd = ReachingDefinitions::new(&l);
        let sol = solve_iterative(&l.cfg, &rd);
        let x = l.var_id("x").unwrap();
        // At the block containing `y = x`, both defs of x reach.
        let use_block = l
            .cfg
            .graph()
            .nodes()
            .find(|&n| {
                l.blocks[n.index()]
                    .stmts
                    .iter()
                    .any(|s| s.def == Some(l.var_id("y").unwrap()))
            })
            .unwrap();
        assert_eq!(rd.reaching_defs_of_var(sol.value_in(use_block), x).len(), 2);
    }

    #[test]
    fn within_block_shadowing() {
        let l = lowered("x = 1; x = 2; return x;");
        let rd = ReachingDefinitions::new(&l);
        let sol = solve_iterative(&l.cfg, &rd);
        let x = l.var_id("x").unwrap();
        // Only the second definition leaves the block.
        let reaching = rd.reaching_defs_of_var(sol.value_out(l.cfg.entry()), x);
        assert_eq!(reaching.len(), 1);
        assert_eq!(reaching[0].stmt, 1);
    }

    #[test]
    fn liveness_of_loop_variable() {
        let l = lowered("s = 0; while (n > 0) { s = s + n; n = n - 1; } return s;");
        let lv = LiveVariables::new(&l);
        let sol = solve_iterative(&l.cfg, &lv);
        let n = l.var_id("n").unwrap();
        let s = l.var_id("s").unwrap();
        // Both n and s are live entering the loop header; nothing is live
        // at the exit.
        assert!(sol.value_in(l.cfg.entry()).contains(n.index()));
        assert!(!sol.value_in(l.cfg.exit()).contains(s.index()));
    }

    #[test]
    fn dead_variable_is_not_live() {
        let l = lowered("d = 1; x = 2; return x;");
        let lv = LiveVariables::new(&l);
        let sol = solve_iterative(&l.cfg, &lv);
        let d = l.var_id("d").unwrap();
        // d is never used: not live anywhere before its def either.
        assert!(!sol.value_in(l.cfg.entry()).contains(d.index()));
    }

    #[test]
    fn definite_assignment_through_branches() {
        let l = lowered("if (c) { x = 1; } else { x = 2; y = 3; } z = x; return z;");
        let da = DefiniteAssignment::new(&l);
        let sol = solve_iterative(&l.cfg, &da);
        let x = l.var_id("x").unwrap();
        let y = l.var_id("y").unwrap();
        // x assigned on both arms: definite at exit; y only on one arm.
        assert!(sol.value_in(l.cfg.exit()).contains(x.index()));
        assert!(!sol.value_in(l.cfg.exit()).contains(y.index()));
    }

    #[test]
    fn single_variable_instance_is_mostly_transparent() {
        let l = lowered(
            "x = 1; while (a) { y = y + 1; } while (b) { z = z + 1; } x = x + 2; return x;",
        );
        let x = l.var_id("x").unwrap();
        let p = SingleVariableReachingDefs::new(&l, x);
        let transparent = l
            .cfg
            .graph()
            .nodes()
            .filter(|&n| p.is_transparent(n))
            .count();
        assert!(transparent >= l.cfg.node_count() - 2);
        assert_eq!(p.sites().len(), 2);
    }
}
