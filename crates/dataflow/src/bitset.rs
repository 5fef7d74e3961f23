//! A fixed-universe bit set for bit-vector data-flow analysis.

use std::hash::{Hash, Hasher};

/// Words kept inline: universes of up to `64 * INLINE_WORDS` facts need
/// no heap allocation.
const INLINE_WORDS: usize = 2;

/// Storage of a [`BitSet`]. The variant is a function of the universe
/// size alone, so two sets over one universe always share a variant.
#[derive(Clone, Debug)]
enum Words {
    /// Universes of at most `64 * INLINE_WORDS` facts; words past the
    /// universe stay zero.
    Inline([u64; INLINE_WORDS]),
    /// Larger universes, one word per 64 facts.
    Heap(Vec<u64>),
}

/// A set over a fixed universe `0..len`, packed 64 facts per word.
///
/// Universes of up to 128 facts are stored inline, so the per-variable
/// instances of sparse data-flow analysis allocate nothing per set.
///
/// # Examples
///
/// ```
/// use pst_dataflow::BitSet;
/// let mut a = BitSet::new(130);
/// a.insert(0);
/// a.insert(129);
/// let mut b = BitSet::new(130);
/// b.insert(129);
/// assert!(a.is_superset(&b));
/// a.subtract(&b);
/// assert_eq!(a.iter().collect::<Vec<_>>(), vec![0]);
/// ```
#[derive(Debug)]
pub struct BitSet {
    words: Words,
    len: usize,
}

impl BitSet {
    /// Creates an empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        let words = if len <= 64 * INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; len.div_ceil(64)])
        };
        BitSet { words, len }
    }

    /// Creates a full set over the universe `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = BitSet::new(len);
        s.words_mut().fill(!0u64);
        s.trim();
        s
    }

    /// The words covering the universe.
    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => &w[..self.len.div_ceil(64)],
            Words::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => &mut w[..self.len.div_ceil(64)],
            Words::Heap(w) => w,
        }
    }

    fn trim(&mut self) {
        let extra = self.len.div_ceil(64) * 64 - self.len;
        if extra > 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= !0u64 >> extra;
            }
        }
    }

    /// Removes every element.
    pub(crate) fn clear(&mut self) {
        self.words_mut().fill(0);
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Adds `bit`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the universe.
    pub fn insert(&mut self, bit: usize) -> bool {
        assert!(bit < self.len, "bit {bit} outside universe {}", self.len);
        let w = &mut self.words_mut()[bit / 64];
        let mask = 1u64 << (bit % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `bit`.
    pub fn remove(&mut self, bit: usize) {
        assert!(bit < self.len);
        self.words_mut()[bit / 64] &= !(1u64 << (bit % 64));
    }

    /// Membership test.
    pub fn contains(&self, bit: usize) -> bool {
        bit < self.len && self.words()[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// `self ∪= other`; returns whether `self` changed.
    pub fn union(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self ∩= other`; returns whether `self` changed.
    pub fn intersect(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            let new = *a & b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self ∖= other`.
    pub fn subtract(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// Whether `self ⊇ other`.
    pub fn is_superset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & b == *b)
    }

    /// Applies a gen/kill transfer: `self = gen ∪ (self ∖ kill)`.
    pub fn apply(&mut self, gen: &BitSet, kill: &BitSet) {
        debug_assert_eq!(self.len, gen.len);
        debug_assert_eq!(self.len, kill.len);
        for ((a, g), k) in self
            .words_mut()
            .iter_mut()
            .zip(gen.words())
            .zip(kill.words())
        {
            *a = g | (*a & !k);
        }
    }

    /// Iterates over the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            len: self.len,
        }
    }

    /// Reuses `self`'s heap buffer when both sets are heap-backed, so the
    /// solvers can overwrite values without allocating.
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.words, &source.words) {
            (Words::Heap(a), Words::Heap(b)) => a.clone_from(b),
            (a, b) => *a = b.clone(),
        }
        self.len = source.len;
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BitSet {}

impl Hash for BitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().hash(state);
        self.len.hash(state);
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects bits into a set sized to the maximum element + 1.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(len);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(100);
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(!s.insert(63));
        assert!(s.contains(63) && s.contains(64));
        assert!(!s.contains(65));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn full_respects_universe_boundary() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(!s.contains(70));
        let e = BitSet::full(0);
        assert!(e.is_empty());
    }

    #[test]
    fn set_algebra() {
        let mut a: BitSet = [1usize, 3, 5].into_iter().collect();
        // Align universes manually.
        let mut b = BitSet::new(6);
        b.insert(3);
        b.insert(4);
        let mut u = a.clone();
        assert!(u.union(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5]);
        assert!(!u.union(&b));
        let mut i = a.clone();
        assert!(i.intersect(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 5]);
    }

    #[test]
    fn superset() {
        let a: BitSet = [1usize, 2, 3].into_iter().collect();
        let mut b = BitSet::new(4);
        b.insert(2);
        assert!(a.is_superset(&b));
        assert!(!b.is_superset(&a));
        assert!(a.is_superset(&a.clone()));
    }

    #[test]
    fn gen_kill_application() {
        let mut x: BitSet = [0usize, 1, 2].into_iter().collect();
        let mut gen = BitSet::new(3);
        gen.insert(1);
        let mut kill = BitSet::new(3);
        kill.insert(0);
        kill.insert(1);
        x.apply(&gen, &kill);
        assert_eq!(x.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }
}
