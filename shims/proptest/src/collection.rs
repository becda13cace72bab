//! Collection strategies: `vec`, `btree_map`, `btree_set`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Size bounds for a generated collection (half-open, like `0..6`).
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max_exclusive: usize,
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        rng.usize_in(self.min, self.max_exclusive)
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(range: Range<usize>) -> Self {
        assert!(range.start < range.end, "empty collection size range");
        SizeRange {
            min: range.start,
            max_exclusive: range.end,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        SizeRange {
            min: exact,
            max_exclusive: exact + 1,
        }
    }
}

/// Strategy for `Vec`s whose length falls in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.pick(rng);
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}

/// Strategy for `BTreeMap`s with `size.pick()` distinct keys (fewer only
/// if the key space is too small to provide them).
pub fn btree_map<K: Strategy, V: Strategy>(
    key: K,
    value: V,
    size: impl Into<SizeRange>,
) -> BTreeMapStrategy<K, V>
where
    K::Value: Ord,
{
    BTreeMapStrategy {
        key,
        value,
        size: size.into(),
    }
}

/// See [`btree_map`].
pub struct BTreeMapStrategy<K, V> {
    key: K,
    value: V,
    size: SizeRange,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        let target = self.size.pick(rng);
        let mut map = BTreeMap::new();
        // Duplicate keys collapse; bound the retries so tiny key spaces
        // still terminate.
        let mut attempts = 0;
        while map.len() < target && attempts < target * 10 + 16 {
            map.insert(self.key.new_value(rng), self.value.new_value(rng));
            attempts += 1;
        }
        map
    }
}

/// Strategy for `BTreeSet`s, with the same size semantics as
/// [`btree_map`].
pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// See [`btree_set`].
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        let target = self.size.pick(rng);
        let mut set = BTreeSet::new();
        let mut attempts = 0;
        while set.len() < target && attempts < target * 10 + 16 {
            set.insert(self.element.new_value(rng));
            attempts += 1;
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Just;

    #[test]
    fn vec_lengths_cover_the_range() {
        let strat = vec(Just(0u8), 0..4);
        let mut rng = TestRng::from_seed(11);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[strat.new_value(&mut rng).len()] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn btree_set_tolerates_tiny_key_spaces() {
        // Only 3 possible values but up to 10 requested: must terminate.
        let strat = btree_set(0u8..3, 1..10);
        let mut rng = TestRng::from_seed(12);
        for _ in 0..50 {
            let s = strat.new_value(&mut rng);
            assert!(!s.is_empty() && s.len() <= 3);
        }
    }
}
