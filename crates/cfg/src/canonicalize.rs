//! CFG canonicalization: repairing arbitrary digraphs into valid [`Cfg`]s.
//!
//! The paper's algorithms assume Definition-1 control flow graphs — unique
//! entry with no predecessors, unique exit with no successors, every node
//! on an entry→exit path. Graphs extracted from real programs routinely
//! break every one of those assumptions: unreachable code, functions with
//! several `return`s, infinite loops that never reach the exit, spin
//! self-loops on the entry block. [`canonicalize`] takes such a graph plus
//! a designated entry node and produces a valid [`Cfg`] together with a
//! [`CanonicalizationReport`] recording every repair it performed:
//!
//! * **pruning** (or, with [`UnreachablePolicy::Tether`], tethering) nodes
//!   unreachable from the entry,
//! * inserting a **synthetic entry** when the entry has predecessors,
//! * **merging multiple exits** (sink nodes) through a fresh sink,
//! * inserting a **synthetic exit** when no sink exists at all,
//! * adding **virtual `loop→exit` edges** from every terminal strongly
//!   connected component that cannot reach the exit (infinite loops), and
//! * optionally **splitting self-loops** through a fresh latch node.
//!
//! Canonicalizing an already-valid CFG is the identity: the returned graph
//! has the same node/edge ids and the report is empty. The pass is
//! idempotent, and its output always validates — the property tests in
//! `tests/canonicalize.rs` prove both claims over random degenerate
//! digraphs. See `docs/CANONICALIZATION.md` for how each repair affects
//! SESE regions and control regions, and for the deviation from the
//! paper's Definition 1 this introduces.

use std::error::Error;
use std::fmt;

use crate::{Cfg, Graph, NodeId, Sccs, ValidateCfgError};

/// What to do with nodes unreachable from the entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UnreachablePolicy {
    /// Drop unreachable nodes (and their edges) from the output graph.
    ///
    /// This compacts node ids; use [`Canonicalized::node_map`] to translate
    /// input ids to output ids.
    #[default]
    Prune,
    /// Keep unreachable nodes, connecting each unreachable source component
    /// to the entry with a virtual edge.
    ///
    /// Analyses then see the unreachable code as if the entry could branch
    /// into it, which preserves node ids and keeps dead regions analyzable.
    Tether,
}

/// Tuning knobs for [`canonicalize`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CanonicalizeOptions {
    /// Policy for nodes unreachable from the entry.
    pub unreachable: UnreachablePolicy,
    /// Replace each self-loop `v→v` with `v→latch→v` through a fresh latch
    /// node. Off by default: the PST algorithms handle self-loops natively
    /// (each is a singleton cycle-equivalence class), but some downstream
    /// consumers (e.g. textbook dominator-based loop detectors) prefer
    /// loops with distinct header and latch.
    pub split_self_loops: bool,
}

/// One repair performed by [`canonicalize`].
///
/// All node ids refer to the **output** graph except
/// [`Repair::PrunedUnreachable`], whose node no longer exists and is
/// therefore named by its **input** id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Repair {
    /// An unreachable input node was dropped ([`UnreachablePolicy::Prune`]).
    PrunedUnreachable {
        /// The dropped node, in input-graph ids.
        node: NodeId,
    },
    /// A virtual `entry→node` edge was added to make an unreachable
    /// component reachable ([`UnreachablePolicy::Tether`]).
    TetheredUnreachable {
        /// Target of the virtual edge: one representative per unreachable
        /// source component.
        node: NodeId,
    },
    /// The designated entry had predecessors, so a fresh entry node with a
    /// single edge to it was inserted.
    SyntheticEntry {
        /// The original entry (now an interior node).
        old_entry: NodeId,
        /// The fresh node that is now the entry.
        new_entry: NodeId,
    },
    /// The graph had no sink at all, so a fresh exit node was created
    /// (virtual `loop→exit` edges then connect it).
    SyntheticExit {
        /// The fresh exit node.
        exit: NodeId,
    },
    /// One of several sinks was routed into the fresh merged exit.
    MergedExit {
        /// A sink of the input graph.
        sink: NodeId,
        /// The fresh exit node all sinks now lead to.
        exit: NodeId,
    },
    /// A node that could not reach the exit (an infinite loop) got a
    /// virtual edge to the exit.
    VirtualLoopExit {
        /// Source of the virtual edge: one representative per terminal
        /// strongly connected component that cannot reach the exit.
        from: NodeId,
    },
    /// A self-loop `node→node` was replaced by `node→latch→node`.
    SplitSelfLoop {
        /// The node that carried the self-loop.
        node: NodeId,
        /// The fresh latch node.
        latch: NodeId,
    },
}

impl fmt::Display for Repair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Repair::PrunedUnreachable { node } => {
                write!(f, "pruned unreachable node {node} (input id)")
            }
            Repair::TetheredUnreachable { node } => {
                write!(f, "tethered unreachable node {node} to the entry")
            }
            Repair::SyntheticEntry {
                old_entry,
                new_entry,
            } => write!(
                f,
                "inserted synthetic entry {new_entry} (node {old_entry} had predecessors)"
            ),
            Repair::SyntheticExit { exit } => {
                write!(f, "inserted synthetic exit {exit} (graph had no sink)")
            }
            Repair::MergedExit { sink, exit } => {
                write!(f, "merged exit: routed sink {sink} into fresh exit {exit}")
            }
            Repair::VirtualLoopExit { from } => {
                write!(
                    f,
                    "added virtual loop exit edge {from}->exit (infinite loop)"
                )
            }
            Repair::SplitSelfLoop { node, latch } => {
                write!(f, "split self-loop on {node} through latch {latch}")
            }
        }
    }
}

/// Per-kind totals of the repairs in a [`CanonicalizationReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairCounts {
    /// Unreachable nodes dropped.
    pub pruned_unreachable: usize,
    /// Unreachable components tethered to the entry.
    pub tethered_unreachable: usize,
    /// Synthetic entry nodes inserted (0 or 1).
    pub synthetic_entries: usize,
    /// Synthetic exit nodes inserted for sink-less graphs (0 or 1).
    pub synthetic_exits: usize,
    /// Sinks merged into a fresh exit.
    pub merged_exits: usize,
    /// Virtual `loop→exit` edges added.
    pub virtual_loop_exits: usize,
    /// Self-loops split through latch nodes.
    pub split_self_loops: usize,
}

/// Everything [`canonicalize`] did to make the input a valid [`Cfg`].
///
/// Renders as one line per repair via [`fmt::Display`]; an empty report
/// means the input was already valid and was returned unchanged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CanonicalizationReport {
    repairs: Vec<Repair>,
}

impl CanonicalizationReport {
    /// The individual repairs, in the order they were performed.
    pub fn repairs(&self) -> &[Repair] {
        &self.repairs
    }

    /// True when no repair was needed: the input was already a valid CFG
    /// and the output graph is identical to it (same node and edge ids).
    pub fn is_identity(&self) -> bool {
        self.repairs.is_empty()
    }

    /// Per-kind totals.
    pub fn counts(&self) -> RepairCounts {
        let mut c = RepairCounts::default();
        for r in &self.repairs {
            match r {
                Repair::PrunedUnreachable { .. } => c.pruned_unreachable += 1,
                Repair::TetheredUnreachable { .. } => c.tethered_unreachable += 1,
                Repair::SyntheticEntry { .. } => c.synthetic_entries += 1,
                Repair::SyntheticExit { .. } => c.synthetic_exits += 1,
                Repair::MergedExit { .. } => c.merged_exits += 1,
                Repair::VirtualLoopExit { .. } => c.virtual_loop_exits += 1,
                Repair::SplitSelfLoop { .. } => c.split_self_loops += 1,
            }
        }
        c
    }

    fn push(&mut self, repair: Repair) {
        match repair {
            Repair::PrunedUnreachable { .. } => pst_obs::counter!("canon_pruned_unreachable"),
            Repair::TetheredUnreachable { .. } => pst_obs::counter!("canon_tethered_unreachable"),
            Repair::SyntheticEntry { .. } => pst_obs::counter!("canon_synthetic_entries"),
            Repair::SyntheticExit { .. } => pst_obs::counter!("canon_synthetic_exits"),
            Repair::MergedExit { .. } => pst_obs::counter!("canon_merged_exits"),
            Repair::VirtualLoopExit { .. } => pst_obs::counter!("canon_virtual_loop_exits"),
            Repair::SplitSelfLoop { .. } => pst_obs::counter!("canon_split_self_loops"),
        }
        self.repairs.push(repair);
    }
}

impl fmt::Display for CanonicalizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.repairs.is_empty() {
            return writeln!(f, "no repairs: input was already a valid CFG");
        }
        for r in &self.repairs {
            writeln!(f, "- {r}")?;
        }
        Ok(())
    }
}

/// Result of a successful [`canonicalize`] run.
#[derive(Clone, Debug)]
pub struct Canonicalized {
    /// The repaired, validated control flow graph.
    pub cfg: Cfg,
    /// Every repair performed, in order.
    pub report: CanonicalizationReport,
    /// Input node id → output node id; `None` for pruned nodes. Output
    /// nodes beyond the mapped range are synthetic (entry/exit/latches).
    pub node_map: Vec<Option<NodeId>>,
}

/// Why [`canonicalize`] could not even start repairing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CanonicalizeError {
    /// The input graph has no nodes; there is nothing to designate as entry.
    Empty,
    /// The designated entry is not a node of the input graph.
    UnknownEntry(NodeId),
    /// The repaired graph still failed validation. This indicates a bug in
    /// the canonicalizer itself (the property tests assert it never
    /// happens) but is reported as an error rather than a panic so that no
    /// input can crash a caller.
    Unrepairable(ValidateCfgError),
}

impl fmt::Display for CanonicalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanonicalizeError::Empty => write!(f, "cannot canonicalize an empty graph"),
            CanonicalizeError::UnknownEntry(n) => {
                write!(f, "entry node {n} is not a node of the graph")
            }
            CanonicalizeError::Unrepairable(e) => {
                write!(f, "canonicalization left the graph invalid: {e}")
            }
        }
    }
}

impl Error for CanonicalizeError {}

/// Repairs an arbitrary directed graph with a designated entry into a
/// valid [`Cfg`], recording every repair.
///
/// Runs in `O(V + E)` time: one forward reachability pass, at most two
/// SCC computations, and one backward reachability pass.
///
/// # Errors
///
/// Only [`CanonicalizeError::Empty`] and [`CanonicalizeError::UnknownEntry`]
/// occur in practice; any directed graph with at least one node and a
/// valid entry id canonicalizes successfully.
///
/// # Examples
///
/// A two-exit graph with an unreachable node and an infinite loop:
///
/// ```
/// use pst_cfg::{canonicalize, CanonicalizeOptions, Graph};
/// let mut g = Graph::new();
/// let n = g.add_nodes(6);
/// g.add_edge(n[0], n[1]); // entry -> sink 1
/// g.add_edge(n[0], n[2]); // entry -> sink 2
/// g.add_edge(n[0], n[3]);
/// g.add_edge(n[3], n[4]); // 3 <-> 4: infinite loop
/// g.add_edge(n[4], n[3]);
/// // n[5] is unreachable
/// let c = canonicalize(&g, n[0], &CanonicalizeOptions::default()).unwrap();
/// let counts = c.report.counts();
/// assert_eq!(counts.pruned_unreachable, 1);
/// assert_eq!(counts.merged_exits, 2);
/// assert_eq!(counts.virtual_loop_exits, 1);
/// assert_eq!(c.cfg.graph().in_degree(c.cfg.entry()), 0);
/// assert_eq!(c.cfg.graph().out_degree(c.cfg.exit()), 0);
/// ```
pub fn canonicalize(
    input: &Graph,
    entry: NodeId,
    options: &CanonicalizeOptions,
) -> Result<Canonicalized, CanonicalizeError> {
    let _span = pst_obs::Span::enter("canonicalize");
    pst_obs::gauge!("canonicalize_input_nodes", input.node_count());
    pst_obs::gauge!("canonicalize_input_edges", input.edge_count());
    if input.is_empty() {
        return Err(CanonicalizeError::Empty);
    }
    if entry.index() >= input.node_count() {
        return Err(CanonicalizeError::UnknownEntry(entry));
    }
    let mut report = CanonicalizationReport::default();

    // 1. Copy the graph, pruning nodes unreachable from the entry if asked.
    //    Reachable nodes keep their relative order, so a fully-reachable
    //    input round-trips with identical ids.
    let prune = options.unreachable == UnreachablePolicy::Prune;
    let reachable = input.reachable_from(entry);
    let mut g = Graph::with_capacity(input.node_count() + 2, input.edge_count() + 2);
    let mut node_map: Vec<Option<NodeId>> = vec![None; input.node_count()];
    for n in input.nodes() {
        if !prune || reachable[n.index()] {
            node_map[n.index()] = Some(g.add_node());
        } else {
            report.push(Repair::PrunedUnreachable { node: n });
        }
    }
    for e in input.edges() {
        let (s, t) = input.endpoints(e);
        let (Some(s), Some(t)) = (node_map[s.index()], node_map[t.index()]) else {
            // An edge with a pruned endpoint. Its source is necessarily
            // pruned too (a reachable source would make the target
            // reachable), so dropping it loses nothing reachable.
            continue;
        };
        if s == t && options.split_self_loops {
            let latch = g.add_node();
            g.add_edge(s, latch);
            g.add_edge(latch, s);
            report.push(Repair::SplitSelfLoop { node: s, latch });
        } else {
            g.add_edge(s, t);
        }
    }
    let mut entry = node_map[entry.index()].expect("entry is trivially reachable from itself");

    // 2. Tether: virtually branch from the entry into each unreachable
    //    *source* component. Every unreachable node has only unreachable
    //    ancestors, so one edge per source SCC of the unreachable
    //    subgraph reconnects everything in a single pass.
    if !prune {
        let reach = g.reachable_from(entry);
        if reach.iter().any(|&r| !r) {
            let sccs = Sccs::new(&g);
            let mut external_pred = vec![false; sccs.count()];
            for e in g.edges() {
                let (s, t) = g.endpoints(e);
                if sccs.component(s) != sccs.component(t) {
                    external_pred[sccs.component(t)] = true;
                }
            }
            let mut rep: Vec<Option<NodeId>> = vec![None; sccs.count()];
            for n in g.nodes() {
                let c = sccs.component(n);
                if !reach[n.index()] && !external_pred[c] && rep[c].is_none() {
                    rep[c] = Some(n);
                }
            }
            for node in rep.into_iter().flatten() {
                g.add_edge(entry, node);
                report.push(Repair::TetheredUnreachable { node });
            }
        }
    }

    // 3. The entry must have no predecessors (self-loops on the entry
    //    count). Insert a synthetic entry above it if it does.
    if g.in_degree(entry) > 0 {
        let new_entry = g.add_node();
        g.add_edge(new_entry, entry);
        report.push(Repair::SyntheticEntry {
            old_entry: entry,
            new_entry,
        });
        entry = new_entry;
    }

    // 4. Choose the exit. Sinks are nodes with no successors; the entry is
    //    never eligible (entry == exit is invalid).
    let sinks: Vec<NodeId> = g
        .nodes()
        .filter(|&n| g.out_degree(n) == 0 && n != entry)
        .collect();
    let exit = match sinks.as_slice() {
        [unique] => *unique,
        [] => {
            let exit = g.add_node();
            report.push(Repair::SyntheticExit { exit });
            exit
        }
        _ => {
            let exit = g.add_node();
            for &sink in &sinks {
                g.add_edge(sink, exit);
                report.push(Repair::MergedExit { sink, exit });
            }
            exit
        }
    };

    // 5. Virtual loop→exit edges. A node that cannot reach the exit can
    //    reach some *terminal* SCC of the condensation (a sink of that
    //    DAG), and a terminal SCC either is the exit's or cannot reach the
    //    exit at all. One virtual edge per offending terminal SCC therefore
    //    connects every infinite loop — and, when the exit was synthesized
    //    in step 4, makes the fresh exit reachable — in a single pass.
    let reaches_exit = g.reaching(exit);
    if reaches_exit.iter().any(|&r| !r) {
        let sccs = Sccs::new(&g);
        let mut external_succ = vec![false; sccs.count()];
        for e in g.edges() {
            let (s, t) = g.endpoints(e);
            if sccs.component(s) != sccs.component(t) {
                external_succ[sccs.component(s)] = true;
            }
        }
        let mut rep: Vec<Option<NodeId>> = vec![None; sccs.count()];
        for n in g.nodes() {
            let c = sccs.component(n);
            if !reaches_exit[n.index()] && !external_succ[c] && rep[c].is_none() {
                rep[c] = Some(n);
            }
        }
        for from in rep.into_iter().flatten() {
            g.add_edge(from, exit);
            report.push(Repair::VirtualLoopExit { from });
        }
    }

    pst_obs::gauge!("canonicalize_output_nodes", g.node_count());
    pst_obs::gauge!("canonicalize_output_edges", g.edge_count());
    let cfg = Cfg::from_graph(g, entry, exit).map_err(CanonicalizeError::Unrepairable)?;
    Ok(Canonicalized {
        cfg,
        report,
        node_map,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(g: &Graph, entry: NodeId) -> Canonicalized {
        canonicalize(g, entry, &CanonicalizeOptions::default()).unwrap()
    }

    #[test]
    fn valid_cfg_is_identity() {
        // Diamond: already a valid CFG.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[0], n[2]);
        g.add_edge(n[1], n[3]);
        g.add_edge(n[2], n[3]);
        let c = canon(&g, n[0]);
        assert!(c.report.is_identity());
        assert_eq!(c.cfg.graph(), &g);
        assert_eq!(c.cfg.entry(), n[0]);
        assert_eq!(c.cfg.exit(), n[3]);
        assert!(c
            .node_map
            .iter()
            .enumerate()
            .all(|(i, m)| m.map(|x| x.index() == i).unwrap_or(false)));
    }

    #[test]
    fn prunes_unreachable_cycle() {
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[2], n[3]); // unreachable pair
        g.add_edge(n[3], n[2]);
        let c = canon(&g, n[0]);
        assert_eq!(c.cfg.node_count(), 2);
        assert_eq!(c.report.counts().pruned_unreachable, 2);
        assert_eq!(c.node_map[2], None);
        assert_eq!(c.node_map[3], None);
    }

    #[test]
    fn tethers_unreachable_cycle_with_one_edge() {
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[2], n[3]);
        g.add_edge(n[3], n[2]);
        let opts = CanonicalizeOptions {
            unreachable: UnreachablePolicy::Tether,
            ..Default::default()
        };
        let c = canonicalize(&g, n[0], &opts).unwrap();
        let counts = c.report.counts();
        assert_eq!(counts.pruned_unreachable, 0);
        // One tether edge for the {2,3} source component.
        assert_eq!(counts.tethered_unreachable, 1);
        assert!(c.node_map.iter().all(|m| m.is_some()));
        // The cycle cannot reach any sink, so it also needs a virtual exit.
        assert_eq!(counts.virtual_loop_exits, 1);
    }

    #[test]
    fn entry_with_predecessor_gets_synthetic_entry() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[0]); // back into the entry
        g.add_edge(n[1], n[2]);
        let c = canon(&g, n[0]);
        assert_eq!(c.report.counts().synthetic_entries, 1);
        assert_eq!(c.cfg.graph().in_degree(c.cfg.entry()), 0);
        assert_ne!(c.cfg.entry(), n[0]);
    }

    #[test]
    fn entry_self_loop_forces_synthetic_entry() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_edge(n[0], n[0]);
        g.add_edge(n[0], n[1]);
        let c = canon(&g, n[0]);
        assert_eq!(c.report.counts().synthetic_entries, 1);
        assert_eq!(c.cfg.graph().in_degree(c.cfg.entry()), 0);
    }

    #[test]
    fn multiple_returns_merge_into_fresh_exit() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[0], n[2]); // two sinks: 1 and 2
        let c = canon(&g, n[0]);
        assert_eq!(c.report.counts().merged_exits, 2);
        assert_eq!(c.cfg.graph().in_degree(c.cfg.exit()), 2);
        assert_eq!(c.cfg.graph().out_degree(c.cfg.exit()), 0);
    }

    #[test]
    fn infinite_loop_gets_virtual_exit_edge() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[2]);
        g.add_edge(n[2], n[1]); // 1 <-> 2 never terminates
        let c = canon(&g, n[0]);
        let counts = c.report.counts();
        assert_eq!(counts.synthetic_exits, 1);
        assert_eq!(counts.virtual_loop_exits, 1);
    }

    #[test]
    fn chained_loops_get_one_virtual_edge_from_the_terminal_scc() {
        // 0 -> 1 <-> 2 -> 3 <-> 4: only the terminal loop {3,4} needs the
        // virtual edge; {1,2} reaches the exit through it.
        let mut g = Graph::new();
        let n = g.add_nodes(5);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[2]);
        g.add_edge(n[2], n[1]);
        g.add_edge(n[2], n[3]);
        g.add_edge(n[3], n[4]);
        g.add_edge(n[4], n[3]);
        let c = canon(&g, n[0]);
        assert_eq!(c.report.counts().virtual_loop_exits, 1);
    }

    #[test]
    fn single_node_graph_canonicalizes() {
        let mut g = Graph::new();
        let n = g.add_node();
        let c = canon(&g, n);
        assert_eq!(c.cfg.node_count(), 2);
        assert_eq!(c.report.counts().synthetic_exits, 1);
    }

    #[test]
    fn single_node_self_loop_canonicalizes() {
        let mut g = Graph::new();
        let n = g.add_node();
        g.add_edge(n, n);
        let c = canon(&g, n);
        let counts = c.report.counts();
        assert_eq!(counts.synthetic_entries, 1);
        assert_eq!(counts.synthetic_exits, 1);
        assert_eq!(counts.virtual_loop_exits, 1);
    }

    #[test]
    fn split_self_loops_option() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[1]);
        g.add_edge(n[1], n[2]);
        let opts = CanonicalizeOptions {
            split_self_loops: true,
            ..Default::default()
        };
        let c = canonicalize(&g, n[0], &opts).unwrap();
        assert_eq!(c.report.counts().split_self_loops, 1);
        let out = c.cfg.graph();
        assert!(out.edges().all(|e| !out.is_self_loop(e)));
        assert_eq!(out.node_count(), 4);
    }

    #[test]
    fn idempotent_on_repaired_output() {
        let mut g = Graph::new();
        let n = g.add_nodes(6);
        g.add_edge(n[0], n[1]);
        g.add_edge(n[0], n[2]);
        g.add_edge(n[3], n[4]); // unreachable
        g.add_edge(n[1], n[1]); // self-loop
        g.add_edge(n[2], n[0]); // entry predecessor
                                // n[5] isolated
        let c = canon(&g, n[0]);
        let again = canon(c.cfg.graph(), c.cfg.entry());
        assert!(again.report.is_identity());
        assert_eq!(again.cfg.graph(), c.cfg.graph());
    }

    #[test]
    fn empty_and_unknown_entry_are_errors() {
        let g = Graph::new();
        let err =
            canonicalize(&g, NodeId::from_index(0), &CanonicalizeOptions::default()).unwrap_err();
        assert_eq!(err, CanonicalizeError::Empty);
        let mut g = Graph::new();
        g.add_node();
        let ghost = NodeId::from_index(9);
        let err = canonicalize(&g, ghost, &CanonicalizeOptions::default()).unwrap_err();
        assert_eq!(err, CanonicalizeError::UnknownEntry(ghost));
    }

    #[test]
    fn report_renders_one_line_per_repair() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_edge(n[0], n[1]);
        // n[2] unreachable
        let c = canon(&g, n[0]);
        let text = c.report.to_string();
        assert!(text.contains("pruned unreachable node n2"), "{text}");
        let id = canon(c.cfg.graph(), c.cfg.entry());
        assert!(id.report.to_string().contains("no repairs"));
    }
}
