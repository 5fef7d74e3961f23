//! Direct CFG family generators.
//!
//! These produce the parameterized graph families used by the scaling
//! benchmarks: straight-line chains (the worst case for region *count*),
//! diamond ladders, nested repeat-until loops (the paper's quadratic
//! dominance-frontier example from §6.1), irreducible meshes (exercising
//! the "arbitrary flow graphs" claim), and seeded random CFGs.

use std::error::Error;
use std::fmt;

use pst_cfg::{Cfg, CfgBuilder, Graph, NodeId, ValidateCfgError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A straight-line chain of `n ≥ 2` nodes.
///
/// Every edge is cycle equivalent to every other, so the PST is a maximal
/// chain of sequentially composed regions — the stress case for region
/// bookkeeping.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn linear_chain(n: usize) -> Cfg {
    assert!(n >= 2, "a CFG needs at least entry and exit");
    let mut b = CfgBuilder::with_capacity(n, n - 1);
    let nodes = b.add_nodes(n);
    for w in nodes.windows(2) {
        b.add_edge(w[0], w[1]);
    }
    b.finish(nodes[0], nodes[n - 1]).expect("chain is valid")
}

/// `k` sequential if-then-else diamonds.
pub fn diamond_ladder(k: usize) -> Cfg {
    let mut b = CfgBuilder::with_capacity(3 * k + 2, 4 * k + 1);
    let entry = b.add_node();
    let mut prev = entry;
    for _ in 0..k {
        let cond = prev;
        let t = b.add_node();
        let e = b.add_node();
        let join = b.add_node();
        b.add_edge(cond, t);
        b.add_edge(cond, e);
        b.add_edge(t, join);
        b.add_edge(e, join);
        prev = join;
    }
    let exit = b.add_node();
    b.add_edge(prev, exit);
    b.finish(entry, exit).expect("ladder is valid")
}

/// `depth` nested while loops with a single innermost body block.
pub fn nested_while_loops(depth: usize) -> Cfg {
    let mut b = CfgBuilder::new();
    let entry = b.add_node();
    let mut headers = Vec::with_capacity(depth);
    let mut prev = entry;
    for _ in 0..depth {
        let h = b.add_node();
        b.add_edge(prev, h);
        headers.push(h);
        prev = h;
    }
    let body = b.add_node();
    b.add_edge(prev, body);
    let mut inner = body;
    // Close the loops inside-out: body -> innermost header, and each
    // header's "done" edge steps to the enclosing header or onwards.
    let exit_chain: Vec<NodeId> = (0..depth).map(|_| b.add_node()).collect();
    for (i, &h) in headers.iter().enumerate().rev() {
        b.add_edge(inner, h); // backedge
        b.add_edge(h, exit_chain[i]); // loop exit
        inner = exit_chain[i];
    }
    let exit = b.add_node();
    b.add_edge(exit_chain[0], exit);
    b.finish(entry, exit).expect("nest is valid")
}

/// `depth` nested repeat-until (do-while) loops — the shape whose
/// dominance frontiers grow quadratically (Cytron et al., cited in §6.1),
/// which the PST-based SSA construction sidesteps.
pub fn nested_repeat_until(depth: usize) -> Cfg {
    assert!(depth >= 1);
    let mut b = CfgBuilder::new();
    let entry = b.add_node();
    // Headers going down: h1 .. hd, then latches coming back up l_d .. l_1;
    // latch l_i has a backedge to h_i and continues to l_{i-1} (or exit).
    let headers: Vec<NodeId> = (0..depth).map(|_| b.add_node()).collect();
    b.add_edge(entry, headers[0]);
    for w in headers.windows(2) {
        b.add_edge(w[0], w[1]);
    }
    let mut prev = headers[depth - 1];
    let mut latches = Vec::with_capacity(depth);
    for i in (0..depth).rev() {
        let l = b.add_node();
        b.add_edge(prev, l);
        b.add_edge(l, headers[i]); // repeat
        latches.push(l);
        prev = l;
    }
    let exit = b.add_node();
    b.add_edge(prev, exit);
    b.finish(entry, exit).expect("repeat-until nest is valid")
}

/// An irreducible "mesh": `k` nodes forming a clique-like cycle entered at
/// two different points from the entry.
pub fn irreducible_mesh(k: usize) -> Cfg {
    assert!(k >= 2);
    let mut b = CfgBuilder::new();
    let entry = b.add_node();
    let ring: Vec<NodeId> = (0..k).map(|_| b.add_node()).collect();
    // Two entries into the ring: classic irreducibility.
    b.add_edge(entry, ring[0]);
    b.add_edge(entry, ring[k / 2]);
    for i in 0..k {
        b.add_edge(ring[i], ring[(i + 1) % k]);
    }
    let exit = b.add_node();
    b.add_edge(ring[k - 1], exit);
    b.add_edge(ring[k / 2], exit);
    b.finish(entry, exit).expect("mesh is valid")
}

/// Why [`random_cfg`] could not produce a valid CFG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RandomCfgError {
    /// `n < 3`: a CFG needs entry, exit and at least one interior node.
    TooSmall(usize),
    /// The repair loop could not converge to a valid CFG for this seed.
    /// Structurally unreachable for the generator's edge discipline, but
    /// reported as an error rather than a panic.
    Unrepairable {
        /// The seed that produced the pathological graph.
        seed: u64,
        /// The invariant still violated when the loop gave up.
        violation: ValidateCfgError,
    },
}

impl fmt::Display for RandomCfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RandomCfgError::TooSmall(n) => write!(
                f,
                "random_cfg needs n >= 3 (entry, exit, one interior node), got {n}"
            ),
            RandomCfgError::Unrepairable { seed, violation } => {
                write!(f, "seed {seed} produced an unrepairable graph: {violation}")
            }
        }
    }
}

impl Error for RandomCfgError {}

/// A seeded random valid CFG over `n` nodes with roughly `extra` additional
/// edges beyond a guaranteed skeleton.
///
/// Node 0 is the entry and node `n-1` the exit; extra edges may create
/// loops, parallel edges, self-loops and irreducible shapes. The same
/// `(n, extra, seed)` triple always yields the same graph.
///
/// # Errors
///
/// Returns [`RandomCfgError::TooSmall`] for `n < 3`. The repair loop runs
/// to a fixed point and re-validates after every pass, so
/// [`RandomCfgError::Unrepairable`] is a defensive error path rather than
/// an expected outcome.
pub fn random_cfg(n: usize, extra: usize, seed: u64) -> Result<Cfg, RandomCfgError> {
    if n < 3 {
        return Err(RandomCfgError::TooSmall(n));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CfgBuilder::new();
    let nodes = b.add_nodes(n);
    // Skeleton tree from the entry over interior nodes.
    b.add_edge(nodes[0], nodes[1]);
    for i in 2..n {
        let p = 1 + rng.gen_range(0..i - 1);
        b.add_edge(nodes[p], nodes[i]);
    }
    b.add_edge(nodes[n - 2], nodes[n - 1]);
    // Random extra edges between interior nodes (never from exit, never
    // into entry).
    for _ in 0..extra {
        let s = rng.gen_range(1..n - 1);
        let t = rng.gen_range(1..n);
        b.add_edge(nodes[s], nodes[t]);
    }
    // Repair to a fixed point: link forward any interior node that cannot
    // reach the exit, then recompute reachability on the *repaired* graph
    // rather than trusting a single pre-repair snapshot. Each pass adds a
    // direct edge to the exit for every offender, so one pass suffices in
    // practice; the loop guard keeps pathological seeds from panicking.
    for _pass in 0..n {
        let g = b.graph();
        let back = g.reaching(nodes[n - 1]);
        let offenders: Vec<usize> = (1..n - 1).filter(|&i| !back[i]).collect();
        if offenders.is_empty() {
            break;
        }
        for i in offenders {
            b.add_edge(nodes[i], nodes[n - 1]);
        }
    }
    b.finish(nodes[0], nodes[n - 1])
        .map_err(|violation| RandomCfgError::Unrepairable { seed, violation })
}

/// Shape of the arbitrary digraphs emitted by [`random_digraph`].
///
/// The base graph is `nodes` nodes with `edges` uniformly random directed
/// edges (self-loops and parallels included) and node 0 designated as the
/// entry. Each `force_*` switch then injects a dedicated violation of one
/// Definition-1 invariant, so tests can produce graphs that break each
/// invariant *on purpose* rather than by chance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DigraphConfig {
    /// Nodes in the random base graph (≥ 1; 0 is bumped to 1).
    pub nodes: usize,
    /// Uniformly random edges in the base graph.
    pub edges: usize,
    /// Add a backedge into the entry, violating "entry has no predecessors".
    pub force_entry_predecessor: bool,
    /// Add a two-node cycle with no incoming edges, violating "every node
    /// is reachable from the entry".
    pub force_unreachable: bool,
    /// Add a reachable two-node cycle with no path onwards, violating
    /// "every node reaches the exit".
    pub force_infinite_loop: bool,
    /// Add two fresh sinks fed from the entry, violating "unique exit".
    pub force_multiple_exits: bool,
    /// Add a self-loop on a reachable node.
    pub force_self_loop: bool,
}

impl Default for DigraphConfig {
    fn default() -> Self {
        DigraphConfig {
            nodes: 8,
            edges: 12,
            force_entry_predecessor: false,
            force_unreachable: false,
            force_infinite_loop: false,
            force_multiple_exits: false,
            force_self_loop: false,
        }
    }
}

/// A seeded arbitrary digraph with **no** CFG invariants: the fuzz input
/// for `pst_cfg::canonicalize`.
///
/// Returns the graph and its designated entry (node 0). The same
/// `(config, seed)` pair always yields the same graph. With all `force_*`
/// switches off the result is a uniformly random digraph, which already
/// violates Definition 1 with high probability; the switches make each
/// violation certain.
pub fn random_digraph(config: &DigraphConfig, seed: u64) -> (Graph, NodeId) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let n = config.nodes.max(1);
    let mut g = Graph::new();
    let nodes = g.add_nodes(n);
    for _ in 0..config.edges {
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        g.add_edge(nodes[s], nodes[t]);
    }
    let entry = nodes[0];
    // A random node that is reachable by construction: the entry itself
    // when the base graph is too sparse to pick from.
    let reachable_node = |g: &Graph, rng: &mut StdRng| {
        let reach = g.reachable_from(entry);
        let candidates: Vec<usize> = (0..g.node_count()).filter(|&i| reach[i]).collect();
        NodeId::from_index(candidates[rng.gen_range(0..candidates.len())])
    };
    if config.force_entry_predecessor {
        let from = reachable_node(&g, &mut rng);
        g.add_edge(from, entry);
    }
    if config.force_unreachable {
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, a);
    }
    if config.force_infinite_loop {
        let from = reachable_node(&g, &mut rng);
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(from, a);
        g.add_edge(a, b);
        g.add_edge(b, a);
    }
    if config.force_multiple_exits {
        let s1 = g.add_node();
        let s2 = g.add_node();
        g.add_edge(entry, s1);
        g.add_edge(entry, s2);
    }
    if config.force_self_loop {
        let on = reachable_node(&g, &mut rng);
        g.add_edge(on, on);
    }
    (g, entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pst_cfg::is_reducible;

    #[test]
    fn chain_shape() {
        let c = linear_chain(10);
        assert_eq!(c.node_count(), 10);
        assert_eq!(c.edge_count(), 9);
    }

    #[test]
    fn ladder_shape() {
        let c = diamond_ladder(3);
        assert_eq!(c.node_count(), 3 * 3 + 2);
        assert_eq!(c.edge_count(), 4 * 3 + 1);
        assert!(is_reducible(c.graph(), c.entry()));
    }

    #[test]
    fn while_nest_is_reducible_and_cyclic() {
        let c = nested_while_loops(4);
        assert!(is_reducible(c.graph(), c.entry()));
        let dfs = pst_cfg::Dfs::new(c.graph(), c.entry());
        let backs = c
            .graph()
            .edges()
            .filter(|&e| dfs.edge_kind(e) == Some(pst_cfg::DirectedEdgeKind::Back))
            .count();
        assert_eq!(backs, 4);
    }

    #[test]
    fn repeat_until_nest_shape() {
        let c = nested_repeat_until(5);
        assert!(is_reducible(c.graph(), c.entry()));
        let dfs = pst_cfg::Dfs::new(c.graph(), c.entry());
        let backs = c
            .graph()
            .edges()
            .filter(|&e| dfs.edge_kind(e) == Some(pst_cfg::DirectedEdgeKind::Back))
            .count();
        assert_eq!(backs, 5);
    }

    #[test]
    fn mesh_is_irreducible() {
        let c = irreducible_mesh(6);
        assert!(!is_reducible(c.graph(), c.entry()));
    }

    #[test]
    fn random_cfg_is_deterministic() {
        let a = random_cfg(20, 15, 42).unwrap();
        let b = random_cfg(20, 15, 42).unwrap();
        assert_eq!(a, b);
        let c = random_cfg(20, 15, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn random_cfgs_are_valid_across_seeds() {
        for seed in 0..50 {
            let c = random_cfg(4 + (seed as usize % 30), seed as usize % 40, seed).unwrap();
            // CfgBuilder::finish already validated; sanity-check entry/exit.
            assert_eq!(c.graph().in_degree(c.entry()), 0);
            assert_eq!(c.graph().out_degree(c.exit()), 0);
        }
    }

    #[test]
    fn random_cfg_rejects_tiny_n() {
        assert_eq!(
            random_cfg(2, 5, 1).unwrap_err(),
            RandomCfgError::TooSmall(2)
        );
        assert!(random_cfg(0, 0, 1)
            .unwrap_err()
            .to_string()
            .contains("n >= 3"));
    }

    #[test]
    fn random_digraph_is_deterministic_and_forces_violations() {
        let config = DigraphConfig {
            force_entry_predecessor: true,
            force_unreachable: true,
            force_infinite_loop: true,
            force_multiple_exits: true,
            force_self_loop: true,
            ..DigraphConfig::default()
        };
        let (a, entry_a) = random_digraph(&config, 9);
        let (b, entry_b) = random_digraph(&config, 9);
        assert_eq!(entry_a, entry_b);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        // Entry gained a predecessor.
        assert!(a.in_degree(entry_a) > 0);
        // The forced unreachable pair really is unreachable.
        let reach = a.reachable_from(entry_a);
        assert!(reach.iter().any(|&r| !r));
        // At least two sinks exist (the forced exits).
        let sinks = a.nodes().filter(|&n| a.out_degree(n) == 0).count();
        assert!(sinks >= 2);
        // A self-loop exists.
        assert!(a.edges().any(|e| {
            let (u, v) = a.endpoints(e);
            u == v
        }));
    }

    #[test]
    fn random_digraph_plain_config_is_just_a_digraph() {
        let (g, entry) = random_digraph(&DigraphConfig::default(), 3);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(entry.index(), 0);
    }
}
