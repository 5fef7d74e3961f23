//! **The Program Structure Tree** — a reproduction of Johnson, Pearson &
//! Pingali, *"The Program Structure Tree: Computing Control Regions in
//! Linear Time"*, PLDI 1994.
//!
//! This crate implements the paper's contributions end to end:
//!
//! * [`CycleEquiv`] — the `O(E)` cycle-equivalence algorithm (paper
//!   Figure 4) over one undirected DFS with the constant-time
//!   [`bracket`] -list ADT and capping backedges, plus three slower
//!   independent implementations used as oracles and baselines
//!   ([`cycle_equiv_slow_brackets`] for §3.3's explicit bracket sets,
//!   [`cycle_equiv_slow_directed`] / [`cycle_equiv_slow_undirected`] for
//!   the reachability-based definitions).
//! * [`canonical_regions`] / [`SeseRegion`] — single-entry single-exit
//!   regions of arbitrary (including irreducible) control flow graphs via
//!   Theorem 2's reduction to cycle equivalence in `S = G + (end→start)`.
//! * [`ProgramStructureTree`] — the nesting tree of canonical regions
//!   (Theorem 1), with O(1) containment queries and per-node/per-edge
//!   innermost-region maps.
//! * [`ControlRegions`] — control-dependence equivalence classes in
//!   `O(E)` via the node-expansion transformation (Theorems 7 and 8),
//!   where previous algorithms were `O(EN)` or restricted to reducible
//!   graphs.
//! * [`classify_regions`] / [`RegionKind`] and [`PstStats`] — the §4
//!   empirical characterization (region kinds, depth/size statistics).
//!
//! # Quick start
//!
//! ```
//! use pst_cfg::parse_edge_list;
//! use pst_core::{ProgramStructureTree, ControlRegions};
//!
//! // while (c) { body }  followed by an exit block
//! let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
//!
//! let pst = ProgramStructureTree::build(&cfg);
//! assert_eq!(pst.canonical_region_count(), 2); // loop region + body region
//! println!("{}", pst.render());
//!
//! let regions = ControlRegions::compute(&cfg);
//! assert_eq!(regions.num_classes(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bracket;
mod classify;
mod collapse;
mod control_regions;
mod cycle_equiv;
mod dot;
mod incremental;
mod pst;
mod sese;
mod slow_brackets;
mod stats;

pub use classify::{classify_regions, RegionClassification, RegionKind};
pub use collapse::{collapse_all, CollapsedNode, CollapsedRegion};
pub use control_regions::ControlRegions;
pub use cycle_equiv::{
    cycle_equiv_slow_directed, cycle_equiv_slow_undirected, CycleEquiv, CycleEquivError,
};
pub use dot::pst_to_dot;
pub use incremental::{insert_edge, EdgeInsertion, InsertEdgeError};
pub use pst::{ProgramStructureTree, PstSignature, RegionId};
pub use sese::{canonical_regions, CanonicalRegions, OrderedClasses, SeseRegion};
pub use slow_brackets::cycle_equiv_slow_brackets;
pub use stats::PstStats;
