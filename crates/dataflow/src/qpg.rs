//! Quick propagation graphs (paper §6.2): sparse data-flow analysis by
//! bypassing transparent SESE regions.
//!
//! For a given problem instance, a SESE region is *transparent* when every
//! node inside has the identity transfer function. Bypassing such regions
//! cannot change the solution: all flow enters through the single entry
//! edge and leaves through the single exit edge unchanged. The QPG keeps
//! only the nodes outside maximal transparent regions and replaces each
//! bypassed stretch with a single edge; the paper reports QPGs averaging
//! under 10 % of the statement-level CFG.

use pst_cfg::{group_rows, Cfg, EdgeId, NodeId, Postorder, ValidateCfgError};
use pst_core::{ProgramStructureTree, RegionId};

use crate::iterative::fixed_point;
use crate::{BitSet, Confluence, DataflowProblem, Flow, GenKill, Solution};

/// Why QPG construction or solving failed.
///
/// Every variant indicates an inconsistency between the CFG and the PST
/// it was allegedly built from (or corrupted QPG bookkeeping) — not bad
/// user input per se, but conditions a driver should report rather than
/// die on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QpgError {
    /// A canonical region of the PST is missing its boundary edges — the
    /// tree does not belong to this CFG.
    MissingRegionBounds(RegionId),
    /// Traversal bookkeeping lost a node it should have kept (e.g. the
    /// CFG exit resolved to no QPG node).
    DetachedNode(NodeId),
    /// The bypassed graph failed CFG validation; node ids are the CFG
    /// nodes the offending QPG nodes stand for.
    InvalidQpg(ValidateCfgError),
}

impl std::fmt::Display for QpgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QpgError::MissingRegionBounds(r) => {
                write!(f, "PST region {r} has no boundary edges in this CFG")
            }
            QpgError::DetachedNode(n) => {
                write!(f, "CFG node {} has no QPG counterpart", n.index())
            }
            QpgError::InvalidQpg(e) => write!(f, "bypassed graph is not a valid CFG: {e}"),
        }
    }
}

impl std::error::Error for QpgError {}

/// No QPG node yet (`qpg_of`) during traversal.
const NONE: u32 = u32::MAX;

/// A quick propagation graph for one problem instance, in flat arrays:
/// QPG node `q` stands for CFG node `cfg_of[q]`, and its successors and
/// predecessors are slices of two adjacency arrays. Construction
/// validates it as a CFG once; solving reads it in place.
///
/// # Examples
///
/// ```
/// use pst_lang::{parse_program, lower_function};
/// use pst_core::ProgramStructureTree;
/// use pst_dataflow::{Qpg, SingleVariableReachingDefs, solve_iterative};
/// let p = parse_program(
///     "fn f(a) { x = 1; while (a) { y = y + 1; } x = x + 1; return x; }"
/// ).unwrap();
/// let l = lower_function(&p.functions[0]).unwrap();
/// let pst = ProgramStructureTree::build(&l.cfg);
/// let x = l.var_id("x").unwrap();
/// let problem = SingleVariableReachingDefs::new(&l, x);
/// let qpg = Qpg::build(&l.cfg, &pst, &problem).unwrap();
/// // The loop (which never touches x) is bypassed.
/// assert!(qpg.node_count() < l.cfg.node_count());
/// assert_eq!(
///     qpg.solve(&l.cfg, &pst, &problem).unwrap(),
///     solve_iterative(&l.cfg, &problem),
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Qpg {
    /// QPG node → CFG node; node 0 is the entry.
    cfg_of: Vec<NodeId>,
    exit: usize,
    /// `succ[succ_start[q]..succ_start[q + 1]]`: successors of `q`, in
    /// the order of the CFG out-edges they come from.
    succ_start: Vec<u32>,
    succ: Vec<u32>,
    /// Predecessors, laid out the same way, in edge-creation order.
    pred_start: Vec<u32>,
    pred: Vec<u32>,
    /// Bypassed maximal regions with the QPG nodes delimiting them:
    /// `(region, source, target)`.
    bypassed: Vec<(RegionId, u32, u32)>,
}

impl Qpg {
    /// Builds the QPG of `problem` over `cfg` using `pst` for bypassing.
    pub fn build(
        cfg: &Cfg,
        pst: &ProgramStructureTree,
        problem: &impl DataflowProblem,
    ) -> Result<Self, QpgError> {
        let sites: Vec<NodeId> = cfg
            .graph()
            .nodes()
            .filter(|&n| !problem.is_transparent(n))
            .collect();
        QpgContext::new(cfg, pst)?.build_from_sites(&sites)
    }

    /// Number of QPG nodes.
    pub fn node_count(&self) -> usize {
        self.cfg_of.len()
    }

    /// Number of QPG edges.
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// Solves `problem` on the QPG and projects the solution back onto the
    /// full CFG (paper §6.2, step 4). `pst` must be the tree the QPG was
    /// built from. Drivers solving many instances over one CFG use
    /// [`QpgContext::solve`], which skips rebuilding the region layout.
    ///
    /// The result equals [`solve_iterative`](crate::solve_iterative) on
    /// the full graph; the property tests assert this.
    pub fn solve<P: DataflowProblem>(
        &self,
        cfg: &Cfg,
        pst: &ProgramStructureTree,
        problem: &P,
    ) -> Result<Solution, QpgError> {
        QpgContext::new(cfg, pst)?.solve(self, problem)
    }

    fn succs(&self, q: usize) -> impl Iterator<Item = usize> + '_ {
        let (a, b) = (self.succ_start[q] as usize, self.succ_start[q + 1] as usize);
        self.succ[a..b].iter().map(|&s| s as usize)
    }

    fn preds(&self, q: usize) -> impl Iterator<Item = usize> + '_ {
        let (a, b) = (self.pred_start[q] as usize, self.pred_start[q + 1] as usize);
        self.pred[a..b].iter().map(|&p| p as usize)
    }

    /// Solves `problem` over the QPG's own nodes, in the flow direction's
    /// reverse postorder.
    fn solve_sparse<P: DataflowProblem>(&self, problem: &P) -> Solution {
        let _span = pst_obs::Span::enter("dataflow_iterative");
        let wrapper = QpgProblem {
            inner: problem,
            cfg_of: &self.cfg_of,
        };
        let m = self.node_count();
        match problem.flow() {
            Flow::Forward => {
                let order = Postorder::new(m, [0], |q| self.succs(q));
                fixed_point(&wrapper, 0, &order, |q| self.preds(q))
            }
            Flow::Backward => {
                let order = Postorder::new(m, [self.exit], |q| self.preds(q));
                fixed_point(&wrapper, self.exit, &order, |q| self.succs(q))
            }
        }
    }

    /// The CFG validation the QPG must pass: the entry has no
    /// predecessor, the exit no successor, and every node reaches the
    /// exit. (Every node is reachable from the entry by construction.)
    fn validate(&self) -> Result<(), ValidateCfgError> {
        if self.preds(0).next().is_some() {
            return Err(ValidateCfgError::EntryHasPredecessor(self.cfg_of[0]));
        }
        if self.succs(self.exit).next().is_some() {
            return Err(ValidateCfgError::ExitHasSuccessor(self.cfg_of[self.exit]));
        }
        let reaches = Postorder::new(self.node_count(), [self.exit], |q| self.preds(q));
        match (0..self.node_count()).find(|&q| reaches.number(q).is_none()) {
            Some(q) => Err(ValidateCfgError::CannotReachExit(self.cfg_of[q])),
            None => Ok(()),
        }
    }
}

/// Shared state for building and solving many QPGs over one CFG/PST
/// pair — the per-variable workload of the paper's §6.2 evaluation.
///
/// Holds the entry-edge → region map, the exit edge per region, and the
/// CFG nodes laid out in PST preorder (each region's own nodes, then its
/// children's), so that every region's nodes at any depth are one slice
/// of a single array: `O(N)` time and memory. A single-variable instance
/// then costs `O(sites + QPG)` to mark and traverse plus one dense
/// projection that copies from those slices (the paper: "the marking
/// step can be done in time proportional to the number of marked regions
/// if we know the location of the non-identity transfer functions").
#[derive(Clone, Debug)]
pub struct QpgContext<'a> {
    cfg: &'a Cfg,
    pst: &'a ProgramStructureTree,
    /// Region entered by each CFG edge, if any.
    region_by_entry: Vec<Option<RegionId>>,
    /// Exit edge per canonical region (`None` for the root).
    exit_by_region: Vec<Option<EdgeId>>,
    /// CFG nodes in PST preorder.
    layout: Vec<NodeId>,
    /// Per region, the `layout` range of its nodes at any depth.
    span: Vec<(u32, u32)>,
}

impl<'a> QpgContext<'a> {
    /// Precomputes the shared lookup tables and the node layout.
    pub fn new(cfg: &'a Cfg, pst: &'a ProgramStructureTree) -> Result<Self, QpgError> {
        let mut region_by_entry = vec![None; cfg.edge_count()];
        let mut exit_by_region = vec![None; pst.region_count()];
        for r in pst.regions().skip(1) {
            let b = pst.bounds(r).ok_or(QpgError::MissingRegionBounds(r))?;
            region_by_entry[b.entry.index()] = Some(r);
            exit_by_region[r.index()] = Some(b.exit);
        }

        let regions = pst.region_count();
        let mut own = vec![0u32; regions];
        for n in cfg.graph().nodes() {
            own[pst.region_of_node(n).index()] += 1;
        }
        let mut preorder = Vec::with_capacity(regions);
        let mut stack = vec![pst.root()];
        while let Some(r) = stack.pop() {
            preorder.push(r);
            stack.extend(pst.children(r).iter().rev());
        }
        // Nodes at any depth, then each region's first slot: a child's
        // range follows its parent's own nodes and its earlier siblings.
        let mut total = own.clone();
        for &r in preorder.iter().rev() {
            if let Some(p) = pst.parent(r) {
                total[p.index()] += total[r.index()];
            }
        }
        let mut span = vec![(0u32, 0u32); regions];
        let mut next_child = vec![0u32; regions];
        for &r in &preorder {
            let start = match pst.parent(r) {
                Some(p) => {
                    let s = next_child[p.index()];
                    next_child[p.index()] += total[r.index()];
                    s
                }
                None => 0,
            };
            span[r.index()] = (start, start + total[r.index()]);
            next_child[r.index()] = start + own[r.index()];
        }
        let mut fill: Vec<u32> = span.iter().map(|&(start, _)| start).collect();
        let mut layout = vec![cfg.entry(); cfg.node_count()];
        for n in cfg.graph().nodes() {
            let slot = &mut fill[pst.region_of_node(n).index()];
            layout[*slot as usize] = n;
            *slot += 1;
        }
        Ok(QpgContext {
            cfg,
            pst,
            region_by_entry,
            exit_by_region,
            layout,
            span,
        })
    }

    /// The CFG nodes of `region` at any depth: a slice of the one node
    /// array, in PST preorder (the root's slice holds every CFG node
    /// once).
    pub fn region_nodes(&self, region: RegionId) -> &[NodeId] {
        let (start, end) = self.span[region.index()];
        &self.layout[start as usize..end as usize]
    }

    /// Builds the QPG for an instance whose non-transparent nodes are
    /// exactly `sites`, and validates it as a CFG.
    pub fn build_from_sites(&self, sites: &[NodeId]) -> Result<Qpg, QpgError> {
        let _span = pst_obs::Span::enter("qpg_build");
        let mut marked = vec![false; self.pst.region_count()];
        for &n in sites {
            let mut r = Some(self.pst.region_of_node(n));
            while let Some(region) = r {
                if marked[region.index()] {
                    break;
                }
                marked[region.index()] = true;
                r = self.pst.parent(region);
            }
        }
        self.traverse(&marked)
    }

    /// Walks the CFG from its entry, jumping over maximal unmarked
    /// regions.
    fn traverse(&self, marked: &[bool]) -> Result<Qpg, QpgError> {
        let graph = self.cfg.graph();
        let mut qpg_of = vec![NONE; graph.node_count()];
        let mut cfg_of = vec![self.cfg.entry()];
        qpg_of[self.cfg.entry().index()] = 0;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut bypassed: Vec<(RegionId, u32, u32)> = Vec::new();
        let mut work = vec![self.cfg.entry()];
        while let Some(u) = work.pop() {
            let uq = qpg_of[u.index()];
            for &e in graph.out_edges(u) {
                let mut last = e;
                let hops = bypassed.len();
                while let Some(r) = self.region_by_entry[last.index()] {
                    if marked[r.index()] {
                        break;
                    }
                    bypassed.push((r, uq, NONE));
                    last =
                        self.exit_by_region[r.index()].ok_or(QpgError::MissingRegionBounds(r))?;
                }
                let target = graph.target(last);
                if qpg_of[target.index()] == NONE {
                    qpg_of[target.index()] = cfg_of.len() as u32;
                    cfg_of.push(target);
                    work.push(target);
                }
                let tq = qpg_of[target.index()];
                for hop in &mut bypassed[hops..] {
                    hop.2 = tq;
                }
                edges.push((uq, tq));
            }
        }

        let exit = qpg_of[self.cfg.exit().index()];
        if exit == NONE {
            return Err(QpgError::DetachedNode(self.cfg.exit()));
        }
        let m = cfg_of.len();
        let (succ_start, succ) = group_rows(m, 0, || edges.iter().map(|&(s, t)| (s as usize, t)));
        let (pred_start, pred) = group_rows(m, 0, || edges.iter().map(|&(s, t)| (t as usize, s)));
        let qpg = Qpg {
            cfg_of,
            exit: exit as usize,
            succ_start,
            succ,
            pred_start,
            pred,
            bypassed,
        };
        qpg.validate().map_err(QpgError::InvalidQpg)?;
        Ok(qpg)
    }

    /// Solves `problem` on `qpg` and projects the solution onto every CFG
    /// node: kept nodes take their QPG values, and the nodes of a
    /// bypassed region, found through the region's layout slice, all
    /// carry the value of the edge that jumped over them.
    pub fn solve<P: DataflowProblem>(&self, qpg: &Qpg, problem: &P) -> Result<Solution, QpgError> {
        let _span = pst_obs::Span::enter("qpg_solve");
        let mut sparse = qpg.solve_sparse(problem);
        // Where each CFG node's value comes from: its QPG node `q < kept`,
        // or bypass `kept + i`. Every CFG node is kept or inside exactly
        // one bypassed region, so each slot of the solution is written
        // once, in node order.
        let kept = qpg.node_count();
        let mut source = vec![NONE; self.cfg.node_count()];
        for (q, &node) in qpg.cfg_of.iter().enumerate() {
            source[node.index()] = q as u32;
        }
        for (i, &(region, _, _)) in qpg.bypassed.iter().enumerate() {
            for &node in self.region_nodes(region) {
                source[node.index()] = (kept + i) as u32;
            }
        }
        let mut inp: Vec<BitSet> = Vec::with_capacity(source.len());
        let mut out: Vec<BitSet> = Vec::with_capacity(source.len());
        for (node, &s) in source.iter().enumerate() {
            let s = s as usize;
            if s < kept {
                // A kept node's values have this one slot: move them.
                inp.push(std::mem::replace(&mut sparse.inp[s], BitSet::new(0)));
                out.push(std::mem::replace(&mut sparse.out[s], BitSet::new(0)));
                continue;
            }
            let &(_, from, to) = qpg
                .bypassed
                .get(s - kept)
                .ok_or(QpgError::DetachedNode(NodeId::from_index(node)))?;
            // The bypass edge carries the out value, in flow order, of
            // the kept node it flows from (its source forward, its target
            // backward). If that kept node's slot comes earlier, its
            // value has already moved there.
            let q = match problem.flow() {
                Flow::Forward => from,
                Flow::Backward => to,
            } as usize;
            let at = qpg.cfg_of[q].index();
            let value = if at < node { &out[at] } else { &sparse.out[q] }.clone();
            inp.push(value.clone());
            out.push(value);
        }
        debug_assert!(inp.iter().all(|v| v.universe() == problem.universe()));
        Ok(Solution { inp, out })
    }
}

/// `problem` seen through the QPG's node numbering.
struct QpgProblem<'p, P: DataflowProblem> {
    inner: &'p P,
    cfg_of: &'p [NodeId],
}

impl<P: DataflowProblem> DataflowProblem for QpgProblem<'_, P> {
    fn flow(&self) -> Flow {
        self.inner.flow()
    }
    fn confluence(&self) -> Confluence {
        self.inner.confluence()
    }
    fn universe(&self) -> usize {
        self.inner.universe()
    }
    fn boundary(&self) -> BitSet {
        self.inner.boundary()
    }
    fn transfer(&self, node: NodeId) -> &GenKill {
        self.inner.transfer(self.cfg_of[node.index()])
    }
}

#[cfg(test)]
mod tests {
    use pst_lang::{lower_function, parse_function_body};
    use pst_workloads::{generate_function, ProgramGenConfig};

    use super::*;
    use crate::{solve_iterative, LiveVariables};

    /// Backward must-problem: the variables used on every path from a
    /// point before they are redefined. Liveness's transfers (gen = uses,
    /// kill = defs) under intersection.
    struct UsedOnEveryPath(LiveVariables);

    impl DataflowProblem for UsedOnEveryPath {
        fn flow(&self) -> Flow {
            self.0.flow()
        }
        fn confluence(&self) -> Confluence {
            Confluence::Intersection
        }
        fn universe(&self) -> usize {
            self.0.universe()
        }
        fn boundary(&self) -> BitSet {
            self.0.boundary()
        }
        fn transfer(&self, node: NodeId) -> &GenKill {
            self.0.transfer(node)
        }
    }

    /// Backward problems project the out value of each bypass edge's
    /// target; the property tests only solve forward ones through a QPG.
    #[test]
    fn backward_problems_project_onto_every_node() {
        let mut bypassed = 0;
        let handmade = parse_function_body(
            "x = a; while (a > 0) { if (b) { } a = a - 1; } if (c) { } y = x + a; return y;",
        )
        .unwrap();
        let generated = (0..40).map(|seed| {
            let config = ProgramGenConfig {
                target_stmts: 40,
                ..Default::default()
            };
            generate_function("p", &config, seed)
        });
        for f in std::iter::once(handmade).chain(generated) {
            let l = lower_function(&f).unwrap();
            let pst = ProgramStructureTree::build(&l.cfg);
            let live = LiveVariables::new(&l);
            let qpg = Qpg::build(&l.cfg, &pst, &live).unwrap();
            bypassed += qpg.bypassed.len();
            assert_eq!(
                qpg.solve(&l.cfg, &pst, &live).unwrap(),
                solve_iterative(&l.cfg, &live)
            );
            let used = UsedOnEveryPath(LiveVariables::new(&l));
            let qpg = Qpg::build(&l.cfg, &pst, &used).unwrap();
            bypassed += qpg.bypassed.len();
            assert_eq!(
                qpg.solve(&l.cfg, &pst, &used).unwrap(),
                solve_iterative(&l.cfg, &used)
            );
        }
        assert!(bypassed > 0, "no region was bypassed");
    }
}
