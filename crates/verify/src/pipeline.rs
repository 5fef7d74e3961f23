//! Verification over one [`Analysis`]: snapshots the artifacts the
//! checkers need out of it, then runs all checkers over them.
//!
//! The artifacts are held by value (not recomputed inside the checkers)
//! so fault injection can corrupt them *between* computation and
//! checking — exactly the seam where a real bug would sit.

use pst_analysis::Analysis;
use pst_cfg::{Budget, Cfg};
use pst_controldep::StrongControlDeps;
use pst_core::{CanonicalRegions, ControlRegions, ProgramStructureTree};
use pst_lang::{BlockInfo, LoweredFunction, StmtInfo, VarId};
use pst_ssa::PhiPlacement;

use crate::checkers::{
    check_control_regions, check_cycle_equiv, check_dod, check_ntscd, check_phi, check_pst,
    check_sese,
};
use crate::report::{CheckerId, VerifyReport, ViolationReport};

/// Default step budget of each oracle check: ample for fuzz-sized graphs,
/// small enough that a pathological input degrades to "inconclusive"
/// instead of stalling the run.
pub const DEFAULT_ORACLE_BUDGET: u64 = 20_000_000;

/// Number of synthetic variables woven into [`synthetic_function`].
const SYNTHETIC_VARS: usize = 3;

/// Tuning for [`verify_artifacts`].
#[derive(Clone, Copy, Debug)]
pub struct VerifyConfig {
    /// The budget each oracle check gets a copy of (steps and, for `pst
    /// fuzz`, its `--budget-ms` deadline). Running out marks the check
    /// inconclusive, not failed.
    pub budget: Budget,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            budget: Budget::steps(DEFAULT_ORACLE_BUDGET),
        }
    }
}

/// Everything the checkers consume, snapshotted from one [`Analysis`].
#[derive(Clone, Debug)]
pub struct PipelineArtifacts {
    /// The function the pipeline ran over; `function.cfg` is the CFG.
    pub function: LoweredFunction,
    /// Region detection output (cycle-equivalence classes + canonical
    /// regions) the PST was built from.
    pub detection: CanonicalRegions,
    /// The program structure tree.
    pub pst: ProgramStructureTree,
    /// The linear-time control-region partition.
    pub control_regions: ControlRegions,
    /// PST-driven φ-placement for the function's variables.
    pub phi: PhiPlacement,
    /// Strong control dependence: NTSCD, DOD, and the classic
    /// node-level relation over the same CFG.
    pub strong: StrongControlDeps,
}

impl PipelineArtifacts {
    /// The CFG all artifacts were computed over.
    pub fn cfg(&self) -> &Cfg {
        &self.function.cfg
    }
}

/// Wraps a bare CFG in a [`LoweredFunction`] with a deterministic def/use
/// pattern so φ-placement has something to place: variable `v` is defined
/// at every node with `index % SYNTHETIC_VARS == v` and used at every
/// other node. This exercises joins everywhere without depending on the
/// source language front end.
pub fn synthetic_function(cfg: &Cfg) -> LoweredFunction {
    let n = cfg.node_count();
    let mut blocks = Vec::with_capacity(n);
    for i in 0..n {
        let def = VarId::from_index(i % SYNTHETIC_VARS);
        let uses: Vec<VarId> = (0..SYNTHETIC_VARS)
            .filter(|&v| v != i % SYNTHETIC_VARS)
            .map(VarId::from_index)
            .collect();
        blocks.push(BlockInfo {
            stmts: vec![StmtInfo {
                def: Some(def),
                uses: uses.clone(),
                text: format!("v{} = mix(...)", i % SYNTHETIC_VARS),
                pos: None,
            }],
            branch_uses: uses,
            branch_pos: None,
        });
    }
    LoweredFunction {
        name: "synthetic".to_string(),
        cfg: cfg.clone(),
        blocks,
        vars: (0..SYNTHETIC_VARS).map(|v| format!("v{v}")).collect(),
    }
}

/// Snapshots the stages the checkers read — region detection, PST,
/// control regions, φ-placement and strong control dependence — out of
/// `analysis`, computing any it has not memoized yet, so fault injection
/// can corrupt the copies without touching what a driver printed.
/// Panics on a graph unit (the φ checker needs a function; wrap a bare
/// CFG with [`synthetic_function`]) and where φ-placement fails.
pub fn compute_artifacts(analysis: &Analysis<'_>) -> PipelineArtifacts {
    let function = analysis.function().expect("the checkers read a function");
    let phi = analysis.phi().expect("CFG/PST pair is consistent");
    let pst = analysis.pst();
    let detection = pst.detection().expect("build always records detection");
    let mut unlimited = Budget::UNLIMITED;
    PipelineArtifacts {
        function: function.clone(),
        detection: detection.clone(),
        pst: pst.clone(),
        control_regions: analysis.control_regions().clone(),
        phi: phi.placement.clone(),
        strong: analysis
            .strong(&mut unlimited)
            .expect("an unlimited budget never runs out")
            .clone(),
    }
}

/// [`compute_artifacts`] over a bare CFG, via [`synthetic_function`].
pub fn compute_artifacts_for_cfg(cfg: &Cfg) -> PipelineArtifacts {
    compute_artifacts(&Analysis::of_function(&synthetic_function(cfg), None))
}

/// Runs all seven checkers over `artifacts` and aggregates the verdicts.
///
/// Never panics on corrupted artifacts; records obs counters
/// `verify_checks_run`, `verify_violations`, and
/// `verify_budget_exhausted` for the metrics report.
pub fn verify_artifacts(artifacts: &PipelineArtifacts, config: &VerifyConfig) -> VerifyReport {
    let _span = pst_obs::Span::enter("verify");
    let cfg = artifacts.cfg();
    let reports = vec![
        check_cycle_equiv(cfg, &artifacts.detection, config.budget),
        check_sese(cfg, &artifacts.detection),
        check_pst(cfg, &artifacts.pst),
        check_control_regions(cfg, &artifacts.control_regions),
        check_phi(&artifacts.function, &artifacts.phi),
        check_ntscd(cfg.graph(), &artifacts.strong, config.budget),
        check_dod(cfg.graph(), &artifacts.strong, config.budget),
    ];
    tally(VerifyReport { reports })
}

/// Checks [`Analysis::strong`] against [`Analysis::input_graph`]: for a
/// graph unit, the **arbitrary raw digraph**, non-terminating regions
/// intact. `pst fuzz` runs it on every raw input, where NTSCD and DOD
/// show the behaviour canonicalization would patch away.
pub fn verify_strong_on_digraph(analysis: &Analysis<'_>, config: &VerifyConfig) -> VerifyReport {
    let _span = pst_obs::Span::enter("verify_strong");
    let (graph, mut budget) = (analysis.input_graph(), config.budget);
    let reports = match analysis.strong(&mut budget) {
        Ok(strong) => vec![
            check_ntscd(graph, strong, config.budget),
            check_dod(graph, strong, config.budget),
        ],
        // No relation to check within the budget: both checks are
        // inconclusive.
        Err(_) => [CheckerId::Ntscd, CheckerId::Dod]
            .map(|id| ViolationReport {
                budget_exhausted: true,
                ..ViolationReport::new(id)
            })
            .into(),
    };
    tally(VerifyReport { reports })
}

/// Records a report's verdicts in the `verify_*` obs counters.
fn tally(report: VerifyReport) -> VerifyReport {
    pst_obs::counter!("verify_checks_run", report.reports.len() as u64);
    pst_obs::counter!("verify_violations", report.violation_count() as u64);
    pst_obs::counter!(
        "verify_budget_exhausted",
        report.exhausted_checkers().len() as u64
    );
    report
}
