//! The `BracketList` abstract data type of the paper's §3.5.
//!
//! The fast cycle-equivalence algorithm maintains, per tree node, a list of
//! *brackets* — backedges that span the tree edge into that node — with the
//! operations `create`, `size`, `push`, `top`, `delete`, `concat`, all in
//! constant time. Following the paper, the concrete representation is a
//! doubly-linked list (here arena-backed, with `u32` indices instead of
//! pointers and [`NONE`] for a missing link) plus an explicit size; a
//! bracket's cell holds its own links, so deletion from the middle is O(1).
//!
//! Cells also carry the bookkeeping fields of the paper's Figure 4:
//! `recentSize` and `recentClass`, the compact `<top bracket, set size>`
//! naming device. A backedge's own `class` lives with the caller, which
//! indexes brackets by edge id (see [`CycleEquiv`](crate::CycleEquiv)), and
//! one spare link per cell chains capping brackets by destination.

/// The missing link, size or class of every `u32` field in this module.
pub const NONE: u32 = u32::MAX;

/// Index of a bracket in a [`BracketArena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BracketId(u32);

impl BracketId {
    /// The bracket with index `index`.
    pub fn new(index: u32) -> Self {
        BracketId(index)
    }

    /// The dense index of this bracket.
    pub fn index(self) -> u32 {
        self.0
    }

    fn at(self) -> usize {
        self.0 as usize
    }

    /// `Some(b)` unless `raw` is [`NONE`].
    fn from_raw(raw: u32) -> Option<Self> {
        (raw != NONE).then_some(BracketId(raw))
    }
}

/// One list cell plus the algorithm's per-bracket fields; every field is
/// [`NONE`] until set.
#[derive(Clone, Copy, Debug)]
struct BracketCell {
    prev: u32,
    next: u32,
    /// `e.recentSize` of Figure 4.
    recent_size: u32,
    /// `e.recentClass` of Figure 4.
    recent_class: u32,
    /// Caller-owned singly linked successor (capping brackets with the
    /// same destination, in [`CycleEquiv`](crate::CycleEquiv)).
    chain: u32,
}

const FRESH: BracketCell = BracketCell {
    prev: NONE,
    next: NONE,
    recent_size: NONE,
    recent_class: NONE,
    chain: NONE,
};

/// Arena owning every bracket cell of one run of the cycle-equivalence
/// algorithm.
///
/// Lists ([`BracketList`]) are lightweight handles (head, tail, size) into
/// this arena. All list operations take the arena explicitly, which keeps
/// the borrow checker happy without `Rc<RefCell<_>>` overhead.
///
/// # Examples
///
/// ```
/// use pst_core::bracket::{BracketArena, BracketId, BracketList};
/// let mut arena = BracketArena::with_brackets(2);
/// let mut list = BracketList::new();
/// let (a, b) = (BracketId::new(0), BracketId::new(1));
/// arena.push(&mut list, a);
/// arena.push(&mut list, b);
/// assert_eq!(list.size(), 2);
/// assert_eq!(arena.top(&list), Some(b));
/// arena.delete(&mut list, a); // delete from the *bottom*
/// assert_eq!(list.size(), 1);
/// assert_eq!(arena.top(&list), Some(b));
/// ```
#[derive(Clone, Debug)]
pub struct BracketArena {
    cells: Vec<BracketCell>,
}

/// A handle to one bracket list: head (top), tail (bottom) and size.
#[derive(Clone, Copy, Debug)]
pub struct BracketList {
    head: u32,
    tail: u32,
    size: u32,
}

impl Default for BracketList {
    fn default() -> Self {
        BracketList::new()
    }
}

impl BracketArena {
    /// Creates an arena of `count` fresh, unlinked brackets with ids
    /// `0..count`.
    pub fn with_brackets(count: usize) -> Self {
        BracketArena {
            cells: vec![FRESH; count],
        }
    }

    /// `recentSize` bookkeeping field ([`NONE`] = undefined).
    #[inline]
    pub fn recent_size(&self, b: BracketId) -> u32 {
        self.cells[b.at()].recent_size
    }

    /// `recentClass` bookkeeping field ([`NONE`] = undefined).
    #[inline]
    pub fn recent_class(&self, b: BracketId) -> u32 {
        self.cells[b.at()].recent_class
    }

    /// Sets both `recentSize` and `recentClass`.
    #[inline]
    pub fn set_recent(&mut self, b: BracketId, size: u32, class: u32) {
        let c = &mut self.cells[b.at()];
        c.recent_size = size;
        c.recent_class = class;
    }

    /// The caller-owned chain link of `b` ([`NONE`] = end of chain).
    #[inline]
    pub fn chain(&self, b: BracketId) -> u32 {
        self.cells[b.at()].chain
    }

    /// Sets the caller-owned chain link of `b`.
    #[inline]
    pub fn set_chain(&mut self, b: BracketId, next: u32) {
        self.cells[b.at()].chain = next;
    }

    /// Pushes `b` on top of `list`. O(1).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `b` is already linked into some list.
    #[inline]
    pub fn push(&mut self, list: &mut BracketList, b: BracketId) {
        debug_assert!(
            self.cells[b.at()].prev == NONE && self.cells[b.at()].next == NONE,
            "bracket already linked"
        );
        if list.head == NONE {
            list.tail = b.0;
        } else {
            self.cells[b.at()].next = list.head;
            self.cells[list.head as usize].prev = b.0;
        }
        list.head = b.0;
        list.size += 1;
    }

    /// The topmost bracket of `list`, if any. O(1).
    #[inline]
    pub fn top(&self, list: &BracketList) -> Option<BracketId> {
        BracketId::from_raw(list.head)
    }

    /// Deletes `b` from anywhere inside `list`. O(1).
    ///
    /// The caller must ensure `b` is currently an element of `list` (the
    /// algorithm guarantees this: a backedge is deleted exactly once, at its
    /// upper endpoint, from the one list that has absorbed it).
    #[inline]
    pub fn delete(&mut self, list: &mut BracketList, b: BracketId) {
        let BracketCell { prev, next, .. } = self.cells[b.at()];
        if prev == NONE {
            list.head = next;
        } else {
            self.cells[prev as usize].next = next;
        }
        if next == NONE {
            list.tail = prev;
        } else {
            self.cells[next as usize].prev = prev;
        }
        let c = &mut self.cells[b.at()];
        c.prev = NONE;
        c.next = NONE;
        debug_assert!(list.size > 0, "delete from empty bracket list");
        list.size -= 1;
    }

    /// Concatenates two lists in O(1): `upper` ends up on top of `lower`.
    /// Both inputs are consumed.
    #[inline]
    pub fn concat(&mut self, upper: BracketList, lower: BracketList) -> BracketList {
        if upper.head == NONE {
            return lower;
        }
        if lower.head == NONE {
            return upper;
        }
        self.cells[upper.tail as usize].next = lower.head;
        self.cells[lower.head as usize].prev = upper.tail;
        BracketList {
            head: upper.head,
            tail: lower.tail,
            size: upper.size + lower.size,
        }
    }

    /// The elements of `list` from top to bottom (O(n); test helper).
    pub fn elements(&self, list: &BracketList) -> Vec<BracketId> {
        let mut out = Vec::with_capacity(list.size as usize);
        let mut cur = list.head;
        while let Some(b) = BracketId::from_raw(cur) {
            out.push(b);
            cur = self.cells[b.at()].next;
        }
        out
    }
}

impl BracketList {
    /// Creates an empty list (`create()` of the paper).
    pub const fn new() -> Self {
        BracketList {
            head: NONE,
            tail: NONE,
            size: 0,
        }
    }

    /// Number of brackets in the list (`size()` of the paper). O(1).
    #[inline]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(n: usize) -> (BracketArena, Vec<BracketId>) {
        let a = BracketArena::with_brackets(n);
        (a, (0..n as u32).map(BracketId::new).collect())
    }

    #[test]
    fn push_top_size() {
        let (mut a, bs) = fresh(3);
        let mut l = BracketList::new();
        assert!(l.is_empty());
        assert_eq!(a.top(&l), None);
        for &b in &bs {
            a.push(&mut l, b);
        }
        assert_eq!(l.size(), 3);
        assert_eq!(a.top(&l), Some(bs[2]));
        assert_eq!(a.elements(&l), vec![bs[2], bs[1], bs[0]]);
    }

    #[test]
    fn delete_from_middle() {
        let (mut a, bs) = fresh(3);
        let mut l = BracketList::new();
        for &b in &bs {
            a.push(&mut l, b);
        }
        a.delete(&mut l, bs[1]);
        assert_eq!(l.size(), 2);
        assert_eq!(a.elements(&l), vec![bs[2], bs[0]]);
    }

    #[test]
    fn delete_top_and_bottom() {
        let (mut a, bs) = fresh(3);
        let mut l = BracketList::new();
        for &b in &bs {
            a.push(&mut l, b);
        }
        a.delete(&mut l, bs[2]); // top
        assert_eq!(a.top(&l), Some(bs[1]));
        a.delete(&mut l, bs[0]); // bottom
        assert_eq!(a.elements(&l), vec![bs[1]]);
        a.delete(&mut l, bs[1]);
        assert!(l.is_empty());
        assert_eq!(a.top(&l), None);
    }

    #[test]
    fn concat_order_and_size() {
        let (mut a, bs) = fresh(4);
        let mut upper = BracketList::new();
        let mut lower = BracketList::new();
        a.push(&mut lower, bs[0]);
        a.push(&mut lower, bs[1]);
        a.push(&mut upper, bs[2]);
        a.push(&mut upper, bs[3]);
        let l = a.concat(upper, lower);
        assert_eq!(l.size(), 4);
        assert_eq!(a.elements(&l), vec![bs[3], bs[2], bs[1], bs[0]]);
    }

    #[test]
    fn concat_with_empty() {
        let (mut a, bs) = fresh(1);
        let mut only = BracketList::new();
        let b = bs[0];
        a.push(&mut only, b);
        let l = a.concat(BracketList::new(), only);
        assert_eq!(l.size(), 1);
        let l2 = a.concat(l, BracketList::new());
        assert_eq!(l2.size(), 1);
        assert_eq!(a.top(&l2), Some(b));
    }

    #[test]
    fn delete_after_concat() {
        let (mut a, bs) = fresh(4);
        let mut upper = BracketList::new();
        let mut lower = BracketList::new();
        a.push(&mut lower, bs[0]);
        a.push(&mut lower, bs[1]);
        a.push(&mut upper, bs[2]);
        a.push(&mut upper, bs[3]);
        let mut l = a.concat(upper, lower);
        // Delete one element from what used to be each constituent list.
        a.delete(&mut l, bs[1]);
        a.delete(&mut l, bs[3]);
        assert_eq!(a.elements(&l), vec![bs[2], bs[0]]);
        assert_eq!(l.size(), 2);
    }

    #[test]
    fn reuse_after_delete() {
        // A bracket deleted from one list can be pushed onto another — the
        // algorithm never does this, but the cell state must stay clean.
        let (mut a, bs) = fresh(1);
        let mut l1 = BracketList::new();
        let mut l2 = BracketList::new();
        a.push(&mut l1, bs[0]);
        a.delete(&mut l1, bs[0]);
        a.push(&mut l2, bs[0]);
        assert_eq!(a.elements(&l2), vec![bs[0]]);
    }

    #[test]
    fn bookkeeping_fields_roundtrip() {
        let (mut a, bs) = fresh(2);
        let b = bs[1];
        assert_eq!(a.recent_size(b), NONE);
        assert_eq!(a.recent_class(b), NONE);
        assert_eq!(a.chain(b), NONE);
        a.set_recent(b, 2, 7);
        a.set_chain(b, 0);
        assert_eq!(a.recent_size(b), 2);
        assert_eq!(a.recent_class(b), 7);
        assert_eq!(a.chain(b), 0);
        // Links and bookkeeping are independent.
        let mut l = BracketList::new();
        a.push(&mut l, b);
        assert_eq!(a.chain(b), 0);
        assert_eq!(a.recent_size(bs[0]), NONE);
    }
}
