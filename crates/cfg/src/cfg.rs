//! Control flow graphs: a [`Graph`] with distinguished `entry`/`exit` nodes
//! and the structural invariants of the paper's Definition 1.
//!
//! A valid [`Cfg`] guarantees that
//! * `entry` has no predecessors,
//! * `exit` has no successors, and
//! * every node lies on some path from `entry` to `exit`.
//!
//! These are exactly the preconditions the PST algorithms rely on: adding a
//! single `exit -> entry` edge then makes the graph strongly connected
//! (Theorem 2 of the paper).

use std::error::Error;
use std::fmt;

use crate::{EdgeId, Graph, NodeId};

/// Why a proposed control flow graph is not a valid [`Cfg`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateCfgError {
    /// The graph has no nodes at all.
    Empty,
    /// The designated entry node has at least one incoming edge.
    EntryHasPredecessor(NodeId),
    /// The designated exit node has at least one outgoing edge.
    ExitHasSuccessor(NodeId),
    /// Some node is not reachable from the entry node.
    UnreachableFromEntry(NodeId),
    /// Some node cannot reach the exit node.
    CannotReachExit(NodeId),
    /// Entry and exit are the same node.
    EntryIsExit(NodeId),
}

impl fmt::Display for ValidateCfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateCfgError::Empty => write!(f, "control flow graph has no nodes"),
            ValidateCfgError::EntryHasPredecessor(n) => {
                write!(f, "entry node {n} has a predecessor")
            }
            ValidateCfgError::ExitHasSuccessor(n) => write!(f, "exit node {n} has a successor"),
            ValidateCfgError::UnreachableFromEntry(n) => {
                write!(f, "node {n} is unreachable from entry")
            }
            ValidateCfgError::CannotReachExit(n) => write!(f, "node {n} cannot reach exit"),
            ValidateCfgError::EntryIsExit(n) => {
                write!(f, "entry and exit are the same node {n}")
            }
        }
    }
}

impl Error for ValidateCfgError {}

/// A validated control flow graph.
///
/// `Cfg` owns its underlying [`Graph`] and exposes it read-only; once
/// validated, a `Cfg` can never be mutated back into an invalid state.
/// Construct one with [`CfgBuilder`] or [`Cfg::from_graph`].
///
/// # Examples
///
/// Building the smallest interesting CFG, a diamond:
///
/// ```
/// use pst_cfg::CfgBuilder;
/// # fn main() -> Result<(), pst_cfg::ValidateCfgError> {
/// let mut b = CfgBuilder::new();
/// let [entry, t, e, exit] = [b.add_node(), b.add_node(), b.add_node(), b.add_node()];
/// b.add_edge(entry, t);
/// b.add_edge(entry, e);
/// b.add_edge(t, exit);
/// b.add_edge(e, exit);
/// let cfg = b.finish(entry, exit)?;
/// assert_eq!(cfg.entry(), entry);
/// assert_eq!(cfg.exit(), exit);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cfg {
    graph: Graph,
    entry: NodeId,
    exit: NodeId,
}

impl Cfg {
    /// Validates `graph` as a control flow graph with the given entry/exit.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateCfgError`] describing the first violated
    /// invariant (see the module docs for the full list).
    pub fn from_graph(graph: Graph, entry: NodeId, exit: NodeId) -> Result<Self, ValidateCfgError> {
        if graph.is_empty() {
            return Err(ValidateCfgError::Empty);
        }
        if entry == exit {
            return Err(ValidateCfgError::EntryIsExit(entry));
        }
        if graph.in_degree(entry) != 0 {
            return Err(ValidateCfgError::EntryHasPredecessor(entry));
        }
        if graph.out_degree(exit) != 0 {
            return Err(ValidateCfgError::ExitHasSuccessor(exit));
        }
        let forward = graph.reachable_from(entry);
        if let Some(n) = graph.nodes().find(|n| !forward[n.index()]) {
            return Err(ValidateCfgError::UnreachableFromEntry(n));
        }
        let backward = graph.reaching(exit);
        if let Some(n) = graph.nodes().find(|n| !backward[n.index()]) {
            return Err(ValidateCfgError::CannotReachExit(n));
        }
        Ok(Cfg { graph, entry, exit })
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The unique entry node (no predecessors).
    #[inline]
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// The unique exit node (no successors).
    #[inline]
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// Number of nodes. Convenience forward to the underlying graph.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of edges. Convenience forward to the underlying graph.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Builds the strongly connected graph `S = G + (exit -> entry)` of
    /// Theorem 2 and returns it together with the id of the added edge.
    ///
    /// Node and edge ids of `G` are preserved; the returned edge id is the
    /// single fresh edge. Only the edge array is copied: `S` builds its
    /// own adjacency index on its first adjacency query, and cycle
    /// equivalence, which reads only endpoints, never asks for one.
    pub fn to_strongly_connected(&self) -> (Graph, EdgeId) {
        let _span = pst_obs::Span::enter("strongly_connect");
        let mut g = self.graph.clone_reserving(1);
        let back = g.add_edge(self.exit, self.entry);
        (g, back)
    }
}

/// Incremental builder for [`Cfg`]s.
///
/// Mirrors [`Graph`]'s mutation API and performs validation in
/// [`CfgBuilder::finish`]. See [`Cfg`] for an example.
#[derive(Clone, Debug, Default)]
pub struct CfgBuilder {
    graph: Graph,
}

impl CfgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CfgBuilder::default()
    }

    /// Creates an empty builder with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        CfgBuilder {
            graph: Graph::with_capacity(nodes, edges),
        }
    }

    /// Adds a node. See [`Graph::add_node`].
    pub fn add_node(&mut self) -> NodeId {
        self.graph.add_node()
    }

    /// Adds `count` nodes. See [`Graph::add_nodes`].
    pub fn add_nodes(&mut self, count: usize) -> Vec<NodeId> {
        self.graph.add_nodes(count)
    }

    /// Adds an edge. See [`Graph::add_edge`].
    pub fn add_edge(&mut self, source: NodeId, target: NodeId) -> EdgeId {
        self.graph.add_edge(source, target)
    }

    /// Read access to the graph built so far.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Validates and returns the finished CFG.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateCfgError`] if the built graph violates any CFG
    /// invariant.
    pub fn finish(self, entry: NodeId, exit: NodeId) -> Result<Cfg, ValidateCfgError> {
        Cfg::from_graph(self.graph, entry, exit)
    }
}

/// Parses a compact edge-list description into a [`Cfg`]; test/bench helper.
///
/// The description is a whitespace-separated list of `a->b` pairs of
/// non-negative node numbers. Node 0 is the entry; the highest-numbered node
/// is the exit. All nodes in `0..=max` are created.
///
/// # Errors
///
/// Returns an error string when the syntax is malformed, and a
/// [`ValidateCfgError`] (stringified) when the edge list is not a valid CFG.
///
/// # Examples
///
/// ```
/// let cfg = pst_cfg::parse_edge_list("0->1 1->2 0->2").unwrap();
/// assert_eq!(cfg.node_count(), 3);
/// assert_eq!(cfg.edge_count(), 3);
/// ```
pub fn parse_edge_list(description: &str) -> Result<Cfg, String> {
    parse_edge_list_with(description, &EdgeListOptions::default())
}

/// Options for [`parse_edge_list_with`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeListOptions {
    /// Reject an edge token that repeats an earlier `a->b` pair verbatim.
    ///
    /// Off by default so that multigraph edges stay expressible; turn it on
    /// when the input is hand-written and a repeated token is more likely a
    /// typo than an intentional parallel edge.
    pub reject_duplicate_edges: bool,
}

/// A parsed edge token: the `(source, target)` pair plus the byte offset of
/// the token in the input, for diagnostics.
#[derive(Debug, PartialEq, Eq)]
struct EdgeToken {
    source: usize,
    target: usize,
    offset: usize,
}

/// Splits an edge-list description into `a->b` pairs with token offsets.
///
/// Whitespace is whatever [`char::is_whitespace`] accepts. A token of the
/// common form `digits->digits` that ends the input or is followed by
/// whitespace is scanned byte by byte ([`scan_pair`]); every other token
/// goes through [`parse_token`], which defines the syntax and every error.
fn tokenize_edge_list(description: &str) -> Result<Vec<EdgeToken>, String> {
    let mut tokens = Vec::new();
    let mut at = skip_whitespace(description, 0);
    while at < description.len() {
        let (token, end) = match scan_pair(description, at) {
            Some(scanned) => scanned,
            None => {
                let end = at + token_at(description, at).len();
                (parse_token(&description[at..end], at)?, end)
            }
        };
        tokens.push(token);
        at = skip_whitespace(description, end);
    }
    if tokens.is_empty() {
        return Err("empty edge list".to_string());
    }
    Ok(tokens)
}

/// Parses the whitespace-free `token` found at byte `offset`.
fn parse_token(token: &str, offset: usize) -> Result<EdgeToken, String> {
    let (a, b) = token
        .split_once("->")
        .ok_or_else(|| format!("malformed edge token `{token}` at byte {offset}"))?;
    let source: usize = a
        .parse()
        .map_err(|_| format!("bad node number `{a}` in `{token}` at byte {offset}"))?;
    let target: usize = b
        .parse()
        .map_err(|_| format!("bad node number `{b}` in `{token}` at byte {offset}"))?;
    Ok(EdgeToken {
        source,
        target,
        offset,
    })
}

/// The longest decimal number [`scan_number`] reads: any 18 digits fit in
/// a `u64`. Longer runs go to `str::parse`, which reports overflow.
const MAX_SCANNED_DIGITS: usize = 18;

/// The byte-scan fast path of [`tokenize_edge_list`]: the token
/// `digits->digits` at byte `at` and the byte after it, when that byte
/// ends the input or starts whitespace. `None` hands the token to
/// [`parse_token`].
fn scan_pair(description: &str, at: usize) -> Option<(EdgeToken, usize)> {
    let bytes = description.as_bytes();
    let (source, arrow) = scan_number(bytes, at)?;
    if bytes.get(arrow..arrow + 2) != Some(b"->".as_slice()) {
        return None;
    }
    let (target, end) = scan_number(bytes, arrow + 2)?;
    if end < bytes.len() && whitespace_len(description, end).is_none() && !lax_follower() {
        return None;
    }
    let token = EdgeToken {
        source,
        target,
        offset: at,
    };
    Some((token, end))
}

/// The number spelled by the 1 to [`MAX_SCANNED_DIGITS`] ASCII digits at
/// byte `at`, and the byte after them.
fn scan_number(bytes: &[u8], at: usize) -> Option<(usize, usize)> {
    let mut value = 0u64;
    let mut end = at;
    while let Some(&b) = bytes.get(end).filter(|b| b.is_ascii_digit()) {
        if end - at == MAX_SCANNED_DIGITS {
            return None;
        }
        value = value * 10 + u64::from(b - b'0');
        end += 1;
    }
    if end == at {
        return None;
    }
    Some((usize::try_from(value).ok()?, end))
}

/// The byte length of the whitespace char at byte `at`, a char boundary,
/// or `None` when there is no whitespace there. ASCII bytes are tested
/// directly (VT and FF count, as for [`char::is_whitespace`]); others
/// are decoded.
#[inline]
fn whitespace_len(description: &str, at: usize) -> Option<usize> {
    let b = *description.as_bytes().get(at)?;
    if b.is_ascii() {
        return char::from(b).is_whitespace().then_some(1);
    }
    let c = description[at..].chars().next()?;
    c.is_whitespace().then(|| c.len_utf8())
}

/// The first byte at or after `at` that does not start whitespace.
fn skip_whitespace(description: &str, mut at: usize) -> usize {
    while let Some(len) = whitespace_len(description, at) {
        at += len;
    }
    at
}

#[cfg(test)]
thread_local! {
    /// Test-only mutation: the fast path accepts a token followed by a
    /// non-whitespace byte, so the oracle comparison can be shown to fail.
    static LAX_FOLLOWER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the test-only `LAX_FOLLOWER` mutation is on; never outside
/// tests.
#[inline(always)]
fn lax_follower() -> bool {
    #[cfg(test)]
    if LAX_FOLLOWER.with(std::cell::Cell::get) {
        return true;
    }
    false
}

/// The token slice of `description` starting at `offset`.
fn token_at(description: &str, offset: usize) -> &str {
    let tail = &description[offset..];
    &tail[..tail.find(char::is_whitespace).unwrap_or(tail.len())]
}

/// [`parse_edge_list`] with explicit [`EdgeListOptions`].
///
/// Beyond the base syntax checks this reports *isolated* nodes — node
/// numbers the dense `0..=max` numbering implies but that appear in no edge
/// token — pointing at the token that implied them, instead of the opaque
/// `UnreachableFromEntry` a gap in the numbering used to produce. With
/// [`EdgeListOptions::reject_duplicate_edges`] it also rejects verbatim
/// repeats of an earlier edge token.
///
/// # Errors
///
/// Returns an error string for malformed syntax, isolated node numbers,
/// rejected duplicates, and (stringified) [`ValidateCfgError`]s.
pub fn parse_edge_list_with(description: &str, options: &EdgeListOptions) -> Result<Cfg, String> {
    let tokens = tokenize_edge_list(description)?;
    let max = tokens
        .iter()
        .map(|t| t.source.max(t.target))
        .max()
        .expect("tokenize rejects empty lists");

    // A node number inside 0..=max that no token mentions was almost
    // certainly not intended: name the gap and the token that implied it.
    // The tokens mention at most 2·tokens numbers, so if 0..=max has a gap
    // the first one is at most 2·tokens: the bitmap never needs more room,
    // whatever number the input names.
    let limit = max.min(2 * tokens.len());
    let mut mentioned = vec![false; limit + 1];
    for t in &tokens {
        for v in [t.source, t.target] {
            if v <= limit {
                mentioned[v] = true;
            }
        }
    }
    if let Some(missing) = mentioned.iter().position(|&m| !m) {
        let culprit = tokens
            .iter()
            .find(|t| t.source > missing || t.target > missing)
            .expect("some token mentions a number above the gap");
        return Err(format!(
            "node {missing} appears in no edge (node numbers are dense 0..={max}, \
             implied by `{}` at byte {})",
            token_at(description, culprit.offset),
            culprit.offset
        ));
    }

    if options.reject_duplicate_edges {
        let mut first_at: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        for t in &tokens {
            if let Some(&prev) = first_at.get(&(t.source, t.target)) {
                return Err(format!(
                    "duplicate edge `{}` at byte {} (first at byte {prev}); \
                     parallel edges need reject_duplicate_edges off",
                    token_at(description, t.offset),
                    t.offset
                ));
            }
            first_at.insert((t.source, t.target), t.offset);
        }
    }

    let mut builder = CfgBuilder::with_capacity(max + 1, tokens.len());
    let nodes = builder.add_nodes(max + 1);
    for t in &tokens {
        builder.add_edge(nodes[t.source], nodes[t.target]);
    }
    builder
        .finish(nodes[0], nodes[max])
        .map_err(|e| e.to_string())
}

/// Parses an edge list into a raw [`Graph`] with **no** CFG validation.
///
/// Node 0 is the designated entry; the graph may freely violate every
/// Definition-1 invariant (isolated nodes, multiple sinks, infinite loops,
/// edges into node 0). This is the input side of the
/// [`canonicalize`](crate::canonicalize) pipeline: parse degenerate input
/// here, then repair it into a valid [`Cfg`].
///
/// Every node in `0..=max` is created, so a node number must be below the
/// description's length in bytes: parsing then allocates `O(input bytes)`
/// however large a number the input names.
///
/// # Errors
///
/// Returns an error string only for malformed syntax, an empty list, or
/// a node number not below the description's length.
///
/// # Examples
///
/// ```
/// let (g, entry) = pst_cfg::parse_edge_list_graph("0->2").unwrap();
/// assert_eq!(g.node_count(), 3); // node 1 exists but is isolated
/// assert_eq!(entry.index(), 0);
/// ```
pub fn parse_edge_list_graph(description: &str) -> Result<(Graph, NodeId), String> {
    let tokens = tokenize_edge_list(description)?;
    let len = description.len();
    if let Some(t) = tokens.iter().find(|t| t.source.max(t.target) >= len) {
        return Err(format!(
            "node number {} in `{}` at byte {} is not below the input length of {len} bytes",
            t.source.max(t.target),
            token_at(description, t.offset),
            t.offset
        ));
    }
    let max = tokens
        .iter()
        .map(|t| t.source.max(t.target))
        .max()
        .expect("tokenize rejects empty lists");
    let mut graph = Graph::with_capacity(max + 1, tokens.len());
    let nodes = graph.add_nodes(max + 1);
    for t in &tokens {
        graph.add_edge(nodes[t.source], nodes[t.target]);
    }
    Ok((graph, nodes[0]))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn builder_accepts_diamond() {
        let cfg = parse_edge_list("0->1 0->2 1->3 2->3").unwrap();
        assert_eq!(cfg.node_count(), 4);
        assert_eq!(cfg.entry().index(), 0);
        assert_eq!(cfg.exit().index(), 3);
    }

    #[test]
    fn rejects_empty() {
        assert!(parse_edge_list("").is_err());
        let b = CfgBuilder::new();
        let g = b.graph().clone();
        assert_eq!(
            Cfg::from_graph(g, NodeId::from_index(0), NodeId::from_index(1)),
            Err(ValidateCfgError::Empty)
        );
    }

    #[test]
    fn rejects_entry_with_predecessor() {
        let err = parse_edge_list("0->1 1->0 0->2 1->2").unwrap_err();
        assert!(err.contains("entry"), "{err}");
    }

    #[test]
    fn rejects_exit_with_successor() {
        let mut b = CfgBuilder::new();
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1]);
        b.add_edge(n[1], n[2]);
        b.add_edge(n[1], n[1]); // self-loop is fine
        b.add_edge(n[2], n[1]);
        let err = b.finish(n[0], n[2]).unwrap_err();
        assert_eq!(err, ValidateCfgError::ExitHasSuccessor(n[2]));
    }

    #[test]
    fn rejects_unreachable_node() {
        let mut b = CfgBuilder::new();
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[2]);
        b.add_edge(n[1], n[2]); // n1 unreachable from entry
        let err = b.finish(n[0], n[2]).unwrap_err();
        assert_eq!(err, ValidateCfgError::UnreachableFromEntry(n[1]));
    }

    #[test]
    fn rejects_node_that_cannot_reach_exit() {
        let mut b = CfgBuilder::new();
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1]);
        b.add_edge(n[0], n[2]);
        // n1 is a dead end
        let err = b.finish(n[0], n[2]).unwrap_err();
        assert_eq!(err, ValidateCfgError::CannotReachExit(n[1]));
    }

    #[test]
    fn rejects_entry_equals_exit() {
        let mut b = CfgBuilder::new();
        let n = b.add_node();
        let err = b.finish(n, n).unwrap_err();
        assert_eq!(err, ValidateCfgError::EntryIsExit(n));
    }

    #[test]
    fn strongly_connected_closure() {
        let cfg = parse_edge_list("0->1 1->2").unwrap();
        let (s, back) = cfg.to_strongly_connected();
        assert_eq!(s.edge_count(), cfg.edge_count() + 1);
        assert_eq!(s.source(back), cfg.exit());
        assert_eq!(s.target(back), cfg.entry());
        // Now every node reaches every other.
        for n in s.nodes() {
            assert!(s.reachable_from(n).iter().all(|&r| r));
        }
    }

    #[test]
    fn error_messages_are_lowercase_prose() {
        let msg = ValidateCfgError::EntryHasPredecessor(NodeId::from_index(0)).to_string();
        assert!(msg.starts_with("entry node"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn parse_edge_list_reports_syntax_errors() {
        assert!(parse_edge_list("0=>1").is_err());
        assert!(parse_edge_list("a->b").is_err());
    }

    #[test]
    fn parse_edge_list_names_isolated_nodes_and_culprit_token() {
        let err = parse_edge_list("0->2").unwrap_err();
        assert!(err.contains("node 1 appears in no edge"), "{err}");
        assert!(err.contains("`0->2` at byte 0"), "{err}");
        // The culprit is the first token mentioning a number above the gap.
        let err = parse_edge_list("0->1 1->4 4->2").unwrap_err();
        assert!(err.contains("node 3 appears in no edge"), "{err}");
        assert!(err.contains("`1->4` at byte 5"), "{err}");
    }

    #[test]
    fn parse_edge_list_duplicate_tokens_are_opt_in_rejected() {
        let strict = EdgeListOptions {
            reject_duplicate_edges: true,
        };
        // Parallel edges stay expressible by default…
        let cfg = parse_edge_list("0->1 0->1 1->2").unwrap();
        assert_eq!(cfg.edge_count(), 3);
        // …and are caught with the flag, pointing at both occurrences.
        let err = parse_edge_list_with("0->1 0->1 1->2", &strict).unwrap_err();
        assert!(err.contains("duplicate edge `0->1` at byte 5"), "{err}");
        assert!(err.contains("first at byte 0"), "{err}");
        // Distinct edges are unaffected by the flag.
        assert!(parse_edge_list_with("0->1 1->2", &strict).is_ok());
    }

    #[test]
    fn parse_edge_list_graph_accepts_degenerate_input() {
        let (g, entry) = parse_edge_list_graph("0->1 1->0 2->2 0->3 0->4").unwrap();
        assert_eq!(entry.index(), 0);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 5);
        assert!(g.in_degree(entry) > 0); // no validation happened
        assert!(parse_edge_list_graph("").is_err());
        assert!(parse_edge_list_graph("0=>1").is_err());
    }

    #[test]
    fn huge_node_numbers_are_rejected_without_allocating_for_them() {
        let err = parse_edge_list("0->4000000000").unwrap_err();
        assert!(err.contains("node 1 appears in no edge"), "{err}");
        assert!(err.contains("`0->4000000000` at byte 0"), "{err}");
        // A bitmap over every number named would need 10¹⁴ bytes here.
        let err = parse_edge_list("0->1 1->100000000000000").unwrap_err();
        assert!(err.contains("node 2 appears in no edge"), "{err}");
        // The first gap lies past the tokens' own numbers.
        let err = parse_edge_list("0->1 1->50").unwrap_err();
        assert!(err.contains("node 2 appears in no edge"), "{err}");
        assert!(err.contains("`1->50` at byte 5"), "{err}");

        let err = parse_edge_list_graph("0->1\n1->4000000000").unwrap_err();
        assert!(err.contains("node number 4000000000"), "{err}");
        assert!(err.contains("`1->4000000000` at byte 5"), "{err}");
        assert!(parse_edge_list_graph("0->1 0->13").is_err());
        assert_eq!(
            parse_edge_list_graph("0->1 0->8").unwrap().0.node_count(),
            9
        );
    }

    /// The tokenizer before its byte-scan fast path, kept as the oracle
    /// for it: every token through `find(char::is_whitespace)` and
    /// `str::parse`.
    fn tokenize_oracle(description: &str) -> Result<Vec<EdgeToken>, String> {
        let mut tokens = Vec::new();
        let mut rest = description;
        let mut base = 0usize;
        while let Some(start) = rest.find(|c: char| !c.is_whitespace()) {
            let tail = &rest[start..];
            let len = tail.find(char::is_whitespace).unwrap_or(tail.len());
            let token = &tail[..len];
            let offset = base + start;
            let (a, b) = token
                .split_once("->")
                .ok_or_else(|| format!("malformed edge token `{token}` at byte {offset}"))?;
            let source: usize = a
                .parse()
                .map_err(|_| format!("bad node number `{a}` in `{token}` at byte {offset}"))?;
            let target: usize = b
                .parse()
                .map_err(|_| format!("bad node number `{b}` in `{token}` at byte {offset}"))?;
            tokens.push(EdgeToken {
                source,
                target,
                offset,
            });
            base = offset + len;
            rest = &rest[start + len..];
        }
        if tokens.is_empty() {
            return Err("empty edge list".to_string());
        }
        Ok(tokens)
    }

    /// Pieces of edge lists: numbers (leading zeros, 18 to 21 digits,
    /// `usize` overflow), arrows and signs, ASCII and Unicode whitespace,
    /// multi-byte non-whitespace, and arbitrary chars.
    fn fragment() -> impl Strategy<Value = String> {
        let char_in = |lo: u32, hi: u32| {
            (lo..hi).prop_map(|c| char::from_u32(c).unwrap_or('\u{FFFD}').to_string())
        };
        let pieces = [
            "->",
            "-",
            ">",
            "+",
            "0",
            "007",
            " ",
            "\t",
            "\n",
            "\r",
            "\u{B}",
            "\u{C}",
            "\u{1C}",
            "\u{85}",
            "\u{A0}",
            "\u{1680}",
            "\u{2028}",
            "\u{3000}",
            "\u{200B}",
            "é",
            "→",
            "日",
            "\u{1F600}",
            "999999999999999999",
            "1000000000000000000",
            "0000000000000000007",
            "18446744073709551615",
            "18446744073709551616",
            "123456789012345678901",
        ];
        prop_oneof![
            (0usize..2000).prop_map(|n| n.to_string()),
            (0usize..2000).prop_map(|n| format!("{n}->")),
            proptest::sample::select(pieces.map(String::from).to_vec()),
            proptest::sample::select(pieces.map(String::from).to_vec()),
            char_in(0, 0x80),
            char_in(0x80, 0x3100),
        ]
    }

    fn edge_list() -> impl Strategy<Value = String> {
        proptest::collection::vec(fragment(), 0..24).prop_map(|parts| parts.concat())
    }

    proptest! {
        #[test]
        fn tokenizer_matches_its_oracle(text in edge_list()) {
            prop_assert_eq!(tokenize_edge_list(&text), tokenize_oracle(&text), "{:?}", text);
        }
    }

    #[test]
    fn a_lax_fast_path_is_caught_by_the_oracle() {
        let cases = [
            "1->2x",
            "0->1 3->4é",
            "5->6-",
            "7->8\u{200B} 9->10",
            "1->2->3",
        ];
        let agree = || {
            cases
                .iter()
                .all(|c| tokenize_edge_list(c) == tokenize_oracle(c))
        };
        assert!(agree());
        LAX_FOLLOWER.with(|m| m.set(true));
        let mutated = agree();
        LAX_FOLLOWER.with(|m| m.set(false));
        assert!(
            !mutated,
            "the oracle missed a token the fast path cut short"
        );
    }
}
