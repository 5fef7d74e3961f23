//! SSA construction for the Program Structure Tree workspace.
//!
//! Implements both sides of the paper's §6.1 comparison:
//!
//! * [`place_phis_cytron`] — the classical φ-placement via iterated
//!   dominance frontiers (Cytron et al., TOPLAS 1991), plus full
//!   [`rename`]-ing into SSA form; and
//! * [`place_phis_pst`] — the paper's divide-and-conquer placement: mark
//!   the regions containing assignments, collapse nested regions to single
//!   statements, and solve each marked region locally (Theorem 9). The
//!   [`PstPhiPlacement`] result records how many regions were examined per
//!   variable — the sparsity statistic of the paper's Figure 10.
//!
//! The per-region dominator table behind [`place_phis_pst`] also gives
//! §6.3's divide-and-conquer dominators, [`dominator_tree_via_pst`].
//!
//! The two placements are provably identical (Theorem 9); the property
//! tests check that on hundreds of generated programs. The
//! `phi_cytron`/`phi_pst` rows of `experiments -- timing` time both over
//! the corpus (the PST version is the faster), and `tests/scale.rs`
//! checks where it wins by construction: nested repeat-until loops,
//! whose global dominance frontiers are quadratic.
//!
//! # Examples
//!
//! ```
//! use pst_lang::{parse_program, lower_function};
//! use pst_core::{collapse_all, ProgramStructureTree};
//! use pst_ssa::{place_phis_cytron, place_phis_pst, rename};
//!
//! let src = "fn f(c, n) { if (c) { x = 1; } else { x = 2; } while (n > 0) { n = n - 1; } return x + n; }";
//! let program = parse_program(src).unwrap();
//! let lowered = lower_function(&program.functions[0]).unwrap();
//!
//! let baseline = place_phis_cytron(&lowered);
//! let pst = ProgramStructureTree::build(&lowered.cfg);
//! let collapsed = collapse_all(&lowered.cfg, &pst);
//! let sparse = place_phis_pst(&lowered, &pst, &collapsed).unwrap();
//! assert_eq!(baseline, sparse.placement);
//!
//! let ssa = rename(&lowered, &baseline).unwrap();
//! assert!(ssa.total_phis() >= 2); // x at the if-join, n at the loop header
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cytron;
mod domtree;
mod error;
mod pst_phi;
mod rename;

pub use cytron::{place_phis_cytron, PhiPlacement};
pub use domtree::dominator_tree_via_pst;
pub use error::SsaError;
pub use pst_phi::{place_phis_pst, PstPhiPlacement};
pub use rename::{rename, PhiNode, SsaForm, SsaStmt, Version};
