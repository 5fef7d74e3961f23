//! One depth-first postorder and one iterative dominator routine. Both
//! read adjacency through closures, so each caller walks its own layout
//! in place: a [`Graph`](crate::Graph) in either direction, or compressed
//! rows. Lengauer–Tarjan in `pst-dominators` is the dominators' oracle.

use std::ops::Range;

/// No postorder number: a node no root reaches.
const UNREACHED: u32 = u32::MAX;

/// A depth-first postorder of the nodes `0..n` reached from a sequence of
/// roots, visiting successors in the order the caller yields them.
///
/// Each root's search numbers only the nodes no earlier root reached, so
/// every root's nodes get one contiguous range of numbers that ends at
/// the root itself; a root an earlier root reached gets none. See
/// [`Dominators`] for an example.
#[derive(Clone, Debug)]
pub struct Postorder {
    /// Node → number, `UNREACHED` if no root reaches it.
    number: Vec<u32>,
    /// Number → node.
    nodes: Vec<u32>,
}

impl Postorder {
    /// Numbers the nodes `0..n` that `roots` reach, searched in turn,
    /// where `succ(v)` yields the successors of `v`.
    pub fn new<I: Iterator<Item = usize>>(
        n: usize,
        roots: impl IntoIterator<Item = usize>,
        succ: impl Fn(usize) -> I,
    ) -> Self {
        Postorder::each_root(n, roots, succ, |_, _| {})
    }

    /// [`Postorder::new`], handing `done` the order so far and the range
    /// of numbers each root's search gave.
    fn each_root<I: Iterator<Item = usize>>(
        n: usize,
        roots: impl IntoIterator<Item = usize>,
        succ: impl Fn(usize) -> I,
        mut done: impl FnMut(&Postorder, Range<u32>),
    ) -> Self {
        let mut order = Postorder {
            number: vec![UNREACHED; n],
            nodes: Vec::with_capacity(n),
        };
        let mut stack: Vec<(usize, I)> = Vec::new();
        for root in roots {
            if order.number[root] != UNREACHED {
                continue;
            }
            let first = order.nodes.len() as u32;
            // Any number but UNREACHED marks a node on the stack.
            order.number[root] = 0;
            stack.push((root, succ(root)));
            while let Some((v, succs)) = stack.last_mut() {
                if let Some(w) = succs.next() {
                    if order.number[w] == UNREACHED {
                        order.number[w] = 0;
                        stack.push((w, succ(w)));
                    }
                } else {
                    order.number[*v] = order.nodes.len() as u32;
                    order.nodes.push(*v as u32);
                    stack.pop();
                }
            }
            done(&order, first..order.nodes.len() as u32);
        }
        order
    }

    /// The number of nodes, reached or not: the `n` of `0..n`.
    pub fn node_count(&self) -> usize {
        self.number.len()
    }

    /// The postorder number of `node`, or `None` if no root reaches it.
    pub fn number(&self, node: usize) -> Option<u32> {
        let k = self.number[node];
        (k != UNREACHED).then_some(k)
    }

    /// The reached nodes in postorder (index = number).
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }
}

/// Immediate dominators over a [`Postorder`], by Cooper, Harvey &
/// Kennedy's iterative algorithm (*"A Simple, Fast Dominance
/// Algorithm"*).
///
/// Each root dominates its range. Edges into a range from nodes that
/// only a later root reaches are ignored, so roots that reach disjoint
/// node sets, such as the synthetic entries of collapsed regions, get
/// one dominator tree each.
///
/// # Examples
///
/// ```
/// use pst_cfg::Dominators;
/// // A diamond 0 -> {1, 2} -> 3, then a second component 4 -> 5.
/// let succ = [vec![1, 2], vec![3], vec![3], vec![], vec![5], vec![]];
/// let pred = [vec![], vec![0], vec![0], vec![1, 2], vec![], vec![4]];
/// let (s, p) = (|v: usize| succ[v].iter().copied(), |v: usize| pred[v].iter().copied());
/// let dom = Dominators::new(6, [0, 4], s, p);
/// assert_eq!(dom.order().nodes(), &[3, 1, 2, 0, 5, 4]);
/// assert_eq!((dom.idom(3), dom.idom(0), dom.idom(5)), (Some(0), None, Some(4)));
/// assert!(dom.dominates(0, 3) && !dom.dominates(1, 3) && !dom.dominates(0, 5));
/// ```
#[derive(Clone, Debug)]
pub struct Dominators {
    order: Postorder,
    /// Number → its immediate dominator's number; a root's is itself.
    idom: Vec<u32>,
}

impl Dominators {
    /// The immediate dominators of the nodes `0..n` that `roots` reach,
    /// where `succ(v)` yields the successors of `v` and `pred(v)` its
    /// predecessors.
    pub fn new<I: Iterator<Item = usize>, J: Iterator<Item = usize>>(
        n: usize,
        roots: impl IntoIterator<Item = usize>,
        succ: impl Fn(usize) -> I,
        pred: impl Fn(usize) -> J,
    ) -> Self {
        Dominators::with_meet(n, roots, succ, pred, intersect)
    }

    /// [`Dominators::new`] with the meet of two fingers given, so that a
    /// test can break it.
    fn with_meet<I: Iterator<Item = usize>, J: Iterator<Item = usize>>(
        n: usize,
        roots: impl IntoIterator<Item = usize>,
        succ: impl Fn(usize) -> I,
        pred: impl Fn(usize) -> J,
        meet: fn(&[u32], u32, u32) -> u32,
    ) -> Self {
        let mut idom = Vec::with_capacity(n);
        // A predecessor of a node in a root's range is in the range or not
        // numbered yet: an earlier root searched all that it reached.
        let order = Postorder::each_root(n, roots, succ, |order, range| {
            let root = range.end - 1;
            idom.resize(root as usize, UNREACHED);
            idom.push(root);
            let mut changed = true;
            while changed {
                changed = false;
                for k in (range.start..root).rev() {
                    let mut new = UNREACHED;
                    for p in pred(order.nodes[k as usize] as usize) {
                        let pk = order.number[p];
                        if pk != UNREACHED && idom[pk as usize] != UNREACHED {
                            new = match new {
                                UNREACHED => pk,
                                _ => meet(&idom, new, pk),
                            };
                        }
                    }
                    if new != UNREACHED && idom[k as usize] != new {
                        idom[k as usize] = new;
                        changed = true;
                    }
                }
            }
        });
        Dominators { order, idom }
    }

    /// The postorder the dominators are numbered in.
    pub fn order(&self) -> &Postorder {
        &self.order
    }

    /// The immediate dominator of `node`; `None` for a root or an
    /// unreached node.
    pub fn idom(&self, node: usize) -> Option<usize> {
        let k = self.order.number(node)?;
        let up = self.idom[k as usize];
        (up != k).then(|| self.order.nodes[up as usize] as usize)
    }

    /// Whether `a` dominates `b` (reflexively); `false` when either is
    /// unreached.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        let (Some(a), Some(mut b)) = (self.order.number(a), self.order.number(b)) else {
            return false;
        };
        // Numbers increase up the tree, and a root is its own idom.
        while b < a && self.idom[b as usize] != b {
            b = self.idom[b as usize];
        }
        b == a
    }
}

/// The nearest common dominator of two numbers: the lower finger climbs
/// until the two meet.
fn intersect(idom: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a < b {
            a = idom[a as usize];
        }
        while b < a {
            b = idom[b as usize];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    /// For each of twenty seeded random CFGs that Lengauer–Tarjan shows
    /// irreducible (a retreating edge whose target does not dominate its
    /// source), whether the kernel with `meet` agrees with it.
    fn agreement(meet: fn(&[u32], u32, u32) -> u32) -> Vec<bool> {
        (0u64..)
            .filter_map(|seed| {
                let cfg = pst_workloads::random_cfg(12, 10, seed).unwrap();
                let g = cfg.graph();
                let (succ, pred): (Vec<Vec<usize>>, Vec<Vec<usize>>) = g
                    .nodes()
                    .map(|v| {
                        let succ = g.successors(v).map(|s| s.index()).collect();
                        (succ, g.predecessors(v).map(|p| p.index()).collect())
                    })
                    .unzip();
                let dom = Dominators::with_meet(
                    succ.len(),
                    [cfg.entry().index()],
                    |v| succ[v].iter().copied(),
                    |v| pred[v].iter().copied(),
                    meet,
                );
                let lt = pst_dominators::dominator_tree(g, cfg.entry());
                let irreducible = g.edges().any(|e| {
                    let (s, t) = g.endpoints(e);
                    let number = |v: usize| dom.order().number(v);
                    number(t.index()) >= number(s.index()) && !lt.dominates(t, s)
                });
                irreducible.then(|| {
                    g.nodes()
                        .all(|v| dom.idom(v.index()) == lt.idom(v).map(|d| d.index()))
                })
            })
            .take(20)
            .collect()
    }

    #[test]
    fn a_one_finger_meet_fails_the_lengauer_tarjan_comparison() {
        // Only the first finger climbs, so a meet whose first finger
        // starts above the second returns it unchanged.
        fn one_finger(idom: &[u32], mut a: u32, b: u32) -> u32 {
            while a < b {
                a = idom[a as usize];
            }
            a
        }
        assert!(agreement(intersect).iter().all(|&agrees| agrees));
        let caught = agreement(one_finger).contains(&false);
        assert!(caught, "a one-finger intersect went unnoticed");
    }
}
