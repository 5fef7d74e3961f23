//! Dominator analyses for the Program Structure Tree workspace.
//!
//! Provides two independent dominator-tree constructions — the classical
//! Lengauer–Tarjan algorithm ([`dominator_tree`], [`dominator_tree_in`])
//! and the Cooper–Harvey–Kennedy iterative formulation
//! ([`iterative_dominator_tree`]) — plus dominance frontiers and iterated
//! dominance frontiers ([`dominance_frontiers`],
//! [`iterated_dominance_frontier`]). The iterative one is the workspace's
//! shared kernel, [`pst_cfg::Dominators`], which reducibility testing and
//! PST φ-placement also run on; Lengauer–Tarjan is its oracle.
//!
//! In the reproduced paper, Lengauer–Tarjan is the yardstick: the authors
//! report that their cycle-equivalence pass (`pst-core`) runs *faster* than
//! dominator computation, which is only the first step of all previous
//! control-region algorithms. `experiments -- timing` and pstbench's
//! `core.cycle_equiv_vs_dominators` metric reproduce that comparison.
//! Postdominators (via [`Direction::Backward`] or [`postdominator_tree`])
//! and frontiers feed the control-dependence baselines (`pst-controldep`)
//! and SSA construction (`pst-ssa`).
//!
//! # Examples
//!
//! ```
//! use pst_cfg::{parse_edge_list, NodeId};
//! use pst_dominators::{dominator_tree, postdominator_tree};
//! let cfg = parse_edge_list("0->1 1->2 1->3 2->4 3->4 4->5").unwrap();
//! let dom = dominator_tree(cfg.graph(), cfg.entry());
//! let pdom = postdominator_tree(&cfg);
//! let n = |i| NodeId::from_index(i);
//! assert!(dom.dominates(n(1), n(4)));
//! assert!(pdom.dominates(n(4), n(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frontier;
mod iterative;
mod lengauer_tarjan;
mod loops;
mod tree;

pub use frontier::{dominance_frontiers, iterated_dominance_frontier};
pub use iterative::iterative_dominator_tree;
pub use lengauer_tarjan::{dominator_tree, dominator_tree_in, postdominator_tree};
pub use loops::{LoopForest, NaturalLoop};
pub use tree::{Direction, DomTree};
