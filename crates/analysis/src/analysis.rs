//! [`Analysis`], the one value every driver (the CLI, `pst lint`, `pst
//! fuzz`, the serve daemon, `pst-verify`) reads its stages from: one O(E)
//! PST serves φ-placement (Theorem 9), QPG dataflow and control regions
//! (§5–6), so each stage is computed once per unit.

use std::borrow::Cow;
use std::cell::OnceCell;

use pst_cfg::{Budget, Canonicalized, Cfg, Exhausted, Graph};
use pst_controldep::{ClassicControlDeps, Dod, StrongControlDeps, DEFAULT_DOD_BUDGET};
use pst_core::{collapse_all, ControlRegions, ProgramStructureTree};
use pst_dataflow::{solve_iterative, QpgContext, QpgError, ReachingDefinitions, Solution};
use pst_lang::{Function, LoweredFunction};
use pst_ssa::{PstPhiPlacement, SsaError};

/// The unit: borrowed by one-shot drivers, owned by serve's cache.
enum Unit<'a> {
    Function {
        function: Cow<'a, LoweredFunction>,
        ast: Option<Cow<'a, Function>>,
    },
    Graph {
        graph: Cow<'a, Graph>,
        canonical: Cow<'a, Canonicalized>,
    },
}

/// The memoized stages, each filled on first use.
#[derive(Default)]
struct Stages {
    pst: OnceCell<ProgramStructureTree>,
    control_regions: OnceCell<ControlRegions>,
    phi: OnceCell<Result<PstPhiPlacement, SsaError>>,
    reaching: OnceCell<(ReachingDefinitions, Option<Solution>)>,
    strong: OnceCell<StrongControlDeps>,
    /// The DOD alone, when a consumer asked for it before `strong`.
    dod: OnceCell<Dod>,
}

/// One unit — a lowered function (with its AST when the front end made
/// one) or a raw digraph with its canonicalization — and its stages: the
/// PST, control regions, PST φ-placement, all-variable reaching
/// definitions, and strong control dependence with its decisive order
/// dependence (DOD). Each is computed through `&self` on first use and
/// kept. The stages that read variables panic on a graph unit.
///
/// ```
/// use pst_analysis::Analysis;
/// use pst_lang::{lower_program, parse_program};
///
/// let program = parse_program("fn f(n) { while (n > 0) { n = n - 1; } return n; }").unwrap();
/// let lowered = lower_program(&program).unwrap();
/// let analysis = Analysis::of_function(&lowered[0], None);
/// // φ-placement over the PST every other stage shares (Theorem 9).
/// let cytron = pst_ssa::place_phis_cytron(&lowered[0]);
/// assert_eq!(analysis.phi().unwrap().placement, cytron);
/// ```
pub struct Analysis<'a> {
    unit: Unit<'a>,
    stages: Stages,
}

impl<'a> Analysis<'a> {
    fn new(unit: Unit<'a>) -> Self {
        Analysis {
            unit,
            stages: Stages::default(),
        }
    }

    /// A lowered function, with the AST it was lowered from when there
    /// is one (it enables the statement-level lint rules).
    pub fn of_function(function: &'a LoweredFunction, ast: Option<&'a Function>) -> Self {
        Analysis::new(Unit::Function {
            function: Cow::Borrowed(function),
            ast: ast.map(Cow::Borrowed),
        })
    }

    /// A raw digraph and its canonicalization. The CFG stages run on
    /// `canonical.cfg`; strong control dependence runs on `graph` itself.
    pub fn of_graph(graph: &'a Graph, canonical: &'a Canonicalized) -> Self {
        Analysis::new(Unit::Graph {
            graph: Cow::Borrowed(graph),
            canonical: Cow::Borrowed(canonical),
        })
    }

    /// The CFG every PST-based stage reads.
    pub fn cfg(&self) -> &Cfg {
        match &self.unit {
            Unit::Function { function, .. } => &function.cfg,
            Unit::Graph { canonical, .. } => &canonical.cfg,
        }
    }

    /// The lowered function, for a function unit.
    pub fn function(&self) -> Option<&LoweredFunction> {
        match &self.unit {
            Unit::Function { function, .. } => Some(function),
            Unit::Graph { .. } => None,
        }
    }

    /// The function's AST, when the unit was built with one.
    pub fn ast(&self) -> Option<&Function> {
        match &self.unit {
            Unit::Function { ast, .. } => ast.as_deref(),
            Unit::Graph { .. } => None,
        }
    }

    /// The canonicalization, for a graph unit.
    pub fn canonical(&self) -> Option<&Canonicalized> {
        match &self.unit {
            Unit::Function { .. } => None,
            Unit::Graph { canonical, .. } => Some(canonical),
        }
    }

    /// The graph strong control dependence is defined on: a graph unit's
    /// raw input (no repair, non-terminating regions intact), or a
    /// function's CFG.
    pub fn input_graph(&self) -> &Graph {
        match &self.unit {
            Unit::Function { function, .. } => function.cfg.graph(),
            Unit::Graph { graph, .. } => graph,
        }
    }

    /// The program structure tree of [`Analysis::cfg`].
    pub fn pst(&self) -> &ProgramStructureTree {
        self.stages
            .pst
            .get_or_init(|| ProgramStructureTree::build(self.cfg()))
    }

    /// The control regions of [`Analysis::cfg`] (Theorem 7).
    pub fn control_regions(&self) -> &ControlRegions {
        self.stages
            .control_regions
            .get_or_init(|| ControlRegions::compute(self.cfg()))
    }

    /// PST φ-placement of the function's variables over
    /// [`Analysis::pst`], or the [`SsaError`] of
    /// [`pst_ssa::place_phis_pst`] when the CFG and its PST disagree.
    pub fn phi(&self) -> Result<&PstPhiPlacement, SsaError> {
        self.stages
            .phi
            .get_or_init(|| {
                let pst = self.pst();
                let collapsed = collapse_all(self.cfg(), pst);
                pst_ssa::place_phis_pst(self.expect_function(), pst, &collapsed)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// A QPG context over [`Analysis::pst`]. It borrows the PST, so it
    /// is built per call (O(N)); the solutions it feeds are what is kept.
    pub fn qpg_context(&self) -> Result<QpgContext<'_>, QpgError> {
        QpgContext::new(self.cfg(), self.pst())
    }

    /// All-variable reaching definitions and their solution (`None` when
    /// the function defines nothing), solved once by the iterative solver
    /// (a QPG over every definition block bypasses little, and was slower:
    /// EXPERIMENTS.md §6.2).
    pub fn reaching_definitions(&self) -> (&ReachingDefinitions, Option<&Solution>) {
        let (rd, solution) = self.stages.reaching.get_or_init(|| {
            let f = self.expect_function();
            let rd = ReachingDefinitions::new(f);
            let solution = (!rd.sites().is_empty()).then(|| solve_iterative(&f.cfg, &rd));
            (rd, solution)
        });
        (rd, solution.as_ref())
    }

    /// Strong control dependence (NTSCD, DOD, strong regions) of
    /// [`Analysis::input_graph`], plus the classic relation for a
    /// function, computed under `budget`. A DOD computed earlier by
    /// [`Analysis::dod`] is reused. When `budget` runs out nothing is
    /// memoized, and a later call starts afresh.
    pub fn strong(&self, budget: &mut Budget) -> Result<&StrongControlDeps, Exhausted> {
        if let Some(strong) = self.stages.strong.get() {
            return Ok(strong);
        }
        let (dod, classic) = match &self.unit {
            Unit::Function { function, .. } => {
                (None, Some(ClassicControlDeps::compute(&function.cfg)))
            }
            Unit::Graph { .. } => (self.stages.dod.get().cloned(), None),
        };
        let strong = StrongControlDeps::compute_within(self.input_graph(), classic, dod, *budget)?;
        Ok(self.stages.strong.get_or_init(|| strong))
    }

    /// The decisive order dependence of [`Analysis::input_graph`] under
    /// [`DEFAULT_DOD_BUDGET`] steps and `budget`: the one inside
    /// [`Analysis::strong`] when that exists, else computed alone (without
    /// NTSCD) and kept; nothing is kept when `budget`'s deadline passes.
    pub fn dod(&self, budget: &mut Budget) -> Result<&Dod, Exhausted> {
        if let Some(strong) = self.stages.strong.get() {
            return Ok(strong.dod());
        }
        if let Some(dod) = self.stages.dod.get() {
            return Ok(dod);
        }
        let dod = Dod::compute_within(self.input_graph(), DEFAULT_DOD_BUDGET, *budget)?;
        Ok(self.stages.dod.get_or_init(|| dod))
    }

    /// A crude, monotone estimate of the heap this value holds: its input
    /// plus every stage memoized so far, DOD witnesses included. The
    /// serve daemon's LRU byte budget is built on it.
    pub fn approx_bytes(&self) -> usize {
        let nodes = self.cfg().node_count();
        let input = match &self.unit {
            Unit::Function { function, .. } => nodes * 160 + function.statement_count() * 48,
            Unit::Graph { graph, .. } => graph.node_count() * 96 + nodes * 160,
        };
        let witnesses = |dod: &Dod| size_of_val(dod.witnesses());
        let s = &self.stages;
        input
            + s.pst.get().map_or(0, |_| nodes * 96)
            + s.control_regions.get().map_or(0, |_| nodes * 8)
            + s.phi.get().map_or(0, |_| nodes * 16)
            // Two bit sets per node, each a header plus one bit per site.
            + s.reaching.get().map_or(0, |(rd, _)| nodes * (48 + rd.sites().len() / 4))
            + s.strong.get().map_or(0, |strong| {
                self.input_graph().node_count() * 96
                    + strong.ntscd().relation_size() * 4
                    + witnesses(strong.dod())
            })
            + s.dod.get().map_or(0, |dod| 32 + witnesses(dod))
    }

    /// The lowered function of a unit that must be one.
    pub(crate) fn expect_function(&self) -> &LoweredFunction {
        self.function()
            .expect("this stage reads variables, which only function units have")
    }
}

impl Analysis<'static> {
    /// [`Analysis::of_function`] over a function it owns: the form a
    /// long-lived cache keeps.
    pub fn owning_function(function: LoweredFunction, ast: Option<Function>) -> Self {
        Analysis::new(Unit::Function {
            function: Cow::Owned(function),
            ast: ast.map(Cow::Owned),
        })
    }

    /// [`Analysis::of_graph`] over a graph and canonicalization it owns.
    pub fn owning_graph(graph: Graph, canonical: Canonicalized) -> Self {
        Analysis::new(Unit::Graph {
            graph: Cow::Owned(graph),
            canonical: Cow::Owned(canonical),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use pst_lang::{lower_program, parse_program};

    #[test]
    fn a_strong_stage_cut_by_the_deadline_keeps_nothing() {
        // 100 diamonds: NTSCD spends more than one clock stride on them.
        let ladder: String = (0..100)
            .map(|i| format!("if (n > {i}) {{ a = a + {i}; }} else {{ b = a; }}\n"))
            .collect();
        let source = format!("fn f(n) {{ a = 0; b = 0; {ladder} return a + b; }}");
        let lowered = lower_program(&parse_program(&source).unwrap()).unwrap();
        let analysis = Analysis::of_function(&lowered[0], None);
        let mut expired = Budget::UNLIMITED.until(Instant::now());
        assert_eq!(
            analysis.strong(&mut expired).err(),
            Some(Exhausted::Deadline)
        );
        let mut unlimited = Budget::UNLIMITED;
        let strong = analysis.strong(&mut unlimited).unwrap();
        let fresh = StrongControlDeps::of_cfg(&lowered[0].cfg);
        assert_eq!(strong.ntscd(), fresh.ntscd());
        assert_eq!(strong.classic(), fresh.classic());
        assert_eq!(strong.dod(), fresh.dod());
        assert_eq!(strong.regions(), fresh.regions());
    }
}
