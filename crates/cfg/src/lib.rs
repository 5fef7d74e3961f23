//! Control-flow-graph substrate for the Program Structure Tree workspace.
//!
//! This crate provides the graph data structures and elementary traversals
//! that every other crate in the reproduction of Johnson, Pearson &
//! Pingali's *"The Program Structure Tree: Computing Control Regions in
//! Linear Time"* (PLDI 1994) builds upon:
//!
//! * [`Graph`] — a directed **multigraph** (parallel edges and self-loops
//!   allowed) with dense [`NodeId`]/[`EdgeId`] indices, stored as one flat
//!   edge array plus compressed-row adjacency built on first query,
//! * [`Cfg`] — a validated control flow graph with unique `entry`/`exit`
//!   satisfying the paper's Definition 1,
//! * [`canonicalize`] — a repair pass that turns an *arbitrary* digraph
//!   (unreachable code, multiple returns, infinite loops) into a valid
//!   [`Cfg`] plus a [`CanonicalizationReport`] of every repair,
//! * [`Dfs`] — directed depth-first search with full edge classification,
//! * [`UndirectedDfs`] — the undirected traversal at the heart of the
//!   linear-time cycle-equivalence algorithm (tree edges + backedges only),
//! * [`Sccs`] — strongly connected components,
//! * [`Postorder`] / [`Dominators`] — the one depth-first postorder from
//!   one or more roots and the one iterative (Cooper–Harvey–Kennedy)
//!   dominator routine over it, for callers walking their own adjacency,
//! * [`reducibility`] / [`is_reducible`] — the reducibility test used by
//!   the region classifier, with irreducible retreating edges as witness,
//! * [`EdgeSplit`] — the edge-subdivision transform used as a definitional
//!   oracle for edge dominance,
//! * [`group_rows`] — grouping into compressed rows, the layout of
//!   [`Graph`]'s adjacency and of the core's flat arrays,
//! * [`Budget`] — the one work limit (steps and/or a deadline) every
//!   superlinear stage spends from, and
//! * DOT export helpers for debugging and the examples.
//!
//! # Examples
//!
//! Build the CFG of `if (c) { t } else { e }` and close it into the strongly
//! connected graph `S` of the paper's Theorem 2:
//!
//! ```
//! use pst_cfg::CfgBuilder;
//! # fn main() -> Result<(), pst_cfg::ValidateCfgError> {
//! let mut b = CfgBuilder::new();
//! let (entry, cond, t, e, exit) = (
//!     b.add_node(), b.add_node(), b.add_node(), b.add_node(), b.add_node(),
//! );
//! b.add_edge(entry, cond);
//! b.add_edge(cond, t);
//! b.add_edge(cond, e);
//! b.add_edge(t, exit);
//! b.add_edge(e, exit);
//! let cfg = b.finish(entry, exit)?;
//! let (s, back) = cfg.to_strongly_connected();
//! assert!(pst_cfg::is_strongly_connected(&s));
//! assert_eq!(s.source(back), exit);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod canonicalize;
mod cfg;
mod dfs;
mod dot;
mod graph;
mod group;
mod ids;
mod postorder;
mod reducibility;
mod scc;
mod split;
mod undirected;

pub use budget::{Budget, Exhausted};
pub use canonicalize::{
    canonicalize, CanonicalizationReport, CanonicalizeError, CanonicalizeOptions, Canonicalized,
    Repair, RepairCounts, UnreachablePolicy,
};
pub use cfg::{
    parse_edge_list, parse_edge_list_graph, parse_edge_list_with, Cfg, CfgBuilder, EdgeListOptions,
    ValidateCfgError,
};
pub use dfs::{Dfs, DirectedEdgeKind};
pub use dot::{cfg_to_dot, graph_to_dot, graph_to_dot_with};
pub use graph::Graph;
pub use group::group_rows;
pub use ids::{EdgeId, NodeId};
pub use postorder::{Dominators, Postorder};
pub use reducibility::{is_reducible, reducibility, Reducibility};
pub use scc::{is_strongly_connected, Sccs};
pub use split::EdgeSplit;
pub use undirected::{UndirectedDfs, UndirectedEdgeKind};
