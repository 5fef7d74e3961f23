//! `BitSet` against a `Vec<bool>` model over universes of 0..=200 facts,
//! which crosses both the 64-fact word boundary and the 128-fact boundary
//! between the inline and the heap representation.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use pst_dataflow::BitSet;

/// splitmix64: the operation stream of one case.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn hash_of(s: &BitSet) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// A random set over `len` facts and its model.
fn random_set(len: usize, rng: &mut Stream) -> (BitSet, Vec<bool>) {
    let mut set = BitSet::new(len);
    let mut model = vec![false; len];
    for (i, m) in model.iter_mut().enumerate() {
        if rng.below(3) == 0 {
            set.insert(i);
            *m = true;
        }
    }
    (set, model)
}

fn assert_matches(set: &BitSet, model: &[bool]) {
    assert_eq!(set.universe(), model.len());
    let expect: Vec<usize> = (0..model.len()).filter(|&i| model[i]).collect();
    assert_eq!(set.iter().collect::<Vec<_>>(), expect);
    assert_eq!(set.count(), expect.len());
    assert_eq!(set.is_empty(), expect.is_empty());
    for i in 0..model.len() + 2 {
        assert_eq!(
            set.contains(i),
            model.get(i).copied().unwrap_or(false),
            "bit {i}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn bitset_matches_a_vec_bool_model(len in 0usize..=200, seed in 0u64..u64::MAX) {
        let mut rng = Stream(seed);
        let (mut a, mut ma) = random_set(len, &mut rng);
        let (b, mb) = random_set(len, &mut rng);
        assert_matches(&a, &ma);
        assert_matches(&BitSet::full(len), &vec![true; len]);
        for _ in 0..40 {
            match rng.below(7) {
                0 | 1 if len > 0 => {
                    let i = rng.below(len);
                    if rng.below(2) == 0 {
                        prop_assert_eq!(a.insert(i), !ma[i]);
                        ma[i] = true;
                    } else {
                        a.remove(i);
                        ma[i] = false;
                    }
                }
                2 => {
                    let next: Vec<bool> = ma.iter().zip(&mb).map(|(x, y)| x | y).collect();
                    prop_assert_eq!(a.union(&b), next != ma);
                    ma = next;
                }
                3 => {
                    let next: Vec<bool> = ma.iter().zip(&mb).map(|(x, y)| x & y).collect();
                    prop_assert_eq!(a.intersect(&b), next != ma);
                    ma = next;
                }
                4 => {
                    a.subtract(&b);
                    ma = ma.iter().zip(&mb).map(|(x, y)| x & !y).collect();
                }
                5 => {
                    // gen = b, kill = complement of b shifted by one fact.
                    let kill_model: Vec<bool> = (0..len).map(|i| !mb[(i + 1) % len]).collect();
                    let mut kill = BitSet::new(len);
                    for i in (0..len).filter(|&i| kill_model[i]) {
                        kill.insert(i);
                    }
                    a.apply(&b, &kill);
                    ma = (0..len).map(|i| mb[i] || (ma[i] && !kill_model[i])).collect();
                }
                _ => {}
            }
            assert_matches(&a, &ma);
            let superset = ma.iter().zip(&mb).all(|(x, y)| *x || !*y);
            prop_assert_eq!(a.is_superset(&b), superset);
            prop_assert!(a.is_superset(&a.clone()));
        }
    }

    /// `Eq` and `Hash` depend on the universe and the members only, so
    /// they agree however a set was produced: built directly, cloned, or
    /// overwritten with `clone_from` across the inline and heap forms in
    /// either direction.
    #[test]
    fn eq_and_hash_agree_across_representations(
        small in 0usize..=128,
        large in 129usize..=200,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Stream(seed);
        let (inline, m_inline) = random_set(small, &mut rng);
        let (heap, m_heap) = random_set(large, &mut rng);
        let (other_heap, _) = random_set(129 + rng.below(72), &mut rng);
        let (other_inline, _) = random_set(rng.below(129), &mut rng);
        for (source, model) in [(&inline, &m_inline), (&heap, &m_heap)] {
            let copy = source.clone();
            prop_assert_eq!(&copy, source);
            prop_assert_eq!(hash_of(&copy), hash_of(source));
            for start in [&inline, &heap, &other_heap, &other_inline] {
                let mut target = start.clone();
                target.clone_from(source);
                assert_matches(&target, model);
                prop_assert_eq!(&target, source);
                prop_assert_eq!(hash_of(&target), hash_of(source));
            }
            // The same members collected another way.
            let mut rebuilt = BitSet::full(source.universe());
            for i in (0..model.len()).filter(|&i| !model[i]) {
                rebuilt.remove(i);
            }
            prop_assert_eq!(&rebuilt, source);
            prop_assert_eq!(hash_of(&rebuilt), hash_of(source));
        }
        // Different universes never compare equal, even when both are
        // empty and share a representation.
        prop_assert_ne!(BitSet::new(small), BitSet::new(small + 1));
        prop_assert_ne!(BitSet::new(large), BitSet::new(large - 1));
    }
}
