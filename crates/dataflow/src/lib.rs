//! Data-flow analysis for the Program Structure Tree workspace.
//!
//! Reproduces the paper's §6.2: a bit-vector monotone framework with three
//! solution strategies whose results are identical (asserted by tests) but
//! whose costs differ:
//!
//! * [`solve_iterative`] — the classical worklist solver (the baseline);
//! * [`solve_elimination`] — two-phase elimination over the PST: regions
//!   are summarized bottom-up into entry→exit transfer functions, then
//!   values propagate top-down (exploiting *global and local structure*);
//! * [`Qpg`] — the quick propagation graph: for sparse problem instances
//!   (e.g. [`SingleVariableReachingDefs`]), SESE regions whose nodes all
//!   have identity transfers are bypassed wholesale, and the tiny residual
//!   graph is solved instead (exploiting *sparsity*; the paper reports
//!   QPGs under 10 % of the CFG's size on average).
//!
//! Problems provided: [`ReachingDefinitions`], [`LiveVariables`],
//! [`DefiniteAssignment`], [`SingleVariableReachingDefs`].
//!
//! [`derived_sequence`] computes the Allen–Cocke interval structure of
//! the classic elimination approach, which gets stuck on irreducible
//! graphs where PST elimination does not.
//!
//! # Examples
//!
//! ```
//! use pst_lang::{parse_program, lower_function};
//! use pst_core::ProgramStructureTree;
//! use pst_dataflow::{Qpg, SingleVariableReachingDefs, solve_iterative};
//!
//! let p = parse_program(
//!     "fn f(a) { x = 1; while (a) { y = y + 1; a = a - 1; } x = x + y; return x; }"
//! ).unwrap();
//! let l = lower_function(&p.functions[0]).unwrap();
//! let pst = ProgramStructureTree::build(&l.cfg);
//! let x = l.var_id("x").unwrap();
//! let problem = SingleVariableReachingDefs::new(&l, x);
//! let qpg = Qpg::build(&l.cfg, &pst, &problem).unwrap();
//! assert!(qpg.node_count() < l.cfg.node_count()); // the loop is bypassed
//! assert_eq!(qpg.solve(&l.cfg, &pst, &problem).unwrap(), solve_iterative(&l.cfg, &problem));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod elimination;
mod framework;
mod intervals;
mod iterative;
mod problems;
mod qpg;
mod seg;

pub use bitset::BitSet;
pub use elimination::solve_elimination;
pub use framework::{Confluence, DataflowProblem, Flow, GenKill, Solution, SolverError};
pub use intervals::{derived_sequence, DerivedSequence};
pub use iterative::solve_iterative;
pub use problems::{
    DefSite, DefiniteAssignment, LiveVariables, ReachingDefinitions, SingleVariableReachingDefs,
};
pub use qpg::{Qpg, QpgContext, QpgError};
pub use seg::Seg;
