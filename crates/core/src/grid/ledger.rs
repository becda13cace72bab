use std::fmt;
use std::iter::{Chain, FlatMap};
use std::slice;
use std::sync::Arc;

/// Entries per sealed chunk. A clone copies at most this many entries
/// (the open tail) and bumps one reference count per sealed chunk.
const CHUNK: usize = 64;

/// An append-only log whose clones share their history: the root's
/// award, completion and re-brokering logs, the interface grid's alert
/// sink, and the [`GridReport`](crate::grid::GridReport) snapshots of
/// them.
///
/// Entries live in sealed, immutable `Arc<[T]>` chunks plus one open
/// tail. A clone bumps one reference count per sealed chunk and copies
/// only the tail, so a snapshot of a long log costs O(chunks), not
/// O(entries). A snapshot never changes: the original's later entries
/// land in its own tail and in chunks it seals itself.
///
/// `==` compares entries, whatever the chunking.
///
/// # Examples
///
/// ```
/// use agentgrid::grid::Ledger;
///
/// let mut log: Ledger<u32> = (0..1000).collect();
/// let snapshot = log.clone();
/// log.push(1000);
/// assert_eq!(snapshot.len(), 1000);
/// assert_eq!(log.last(), Some(&1000));
/// assert!(snapshot.iter().eq(log.iter().take(1000)));
/// ```
pub struct Ledger<T> {
    /// Sealed chunks in log order; none is empty.
    sealed: Vec<Arc<[T]>>,
    /// Entries in `sealed`.
    sealed_len: usize,
    /// The open chunk, sealed once it holds [`CHUNK`] entries.
    tail: Vec<T>,
}

impl<T> Ledger<T> {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger {
            sealed: Vec::new(),
            sealed_len: 0,
            tail: Vec::new(),
        }
    }

    /// Appends `entry`.
    pub fn push(&mut self, entry: T) {
        self.tail.push(entry);
        if self.tail.len() >= CHUNK {
            self.seal();
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.sealed_len + self.tail.len()
    }

    /// Whether the ledger has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The latest entry.
    pub fn last(&self) -> Option<&T> {
        self.tail.last().or_else(|| self.sealed.last()?.last())
    }

    /// The entries in log order.
    pub fn iter(&self) -> LedgerIter<'_, T> {
        let sealed: fn(&Arc<[T]>) -> &[T] = |chunk| chunk;
        LedgerIter {
            inner: self.sealed.iter().flat_map(sealed).chain(&self.tail),
        }
    }

    /// Moves the open tail, if any, into a sealed chunk.
    fn seal(&mut self) {
        if !self.tail.is_empty() {
            let chunk: Arc<[T]> = std::mem::take(&mut self.tail).into();
            self.sealed_len += chunk.len();
            self.sealed.push(chunk);
        }
    }
}

impl<T: Clone> Ledger<T> {
    /// Appends every entry of `other`, in order, sharing its sealed
    /// chunks: one reference count per chunk plus a copy of its tail.
    pub fn extend_shared(&mut self, other: &Ledger<T>) {
        self.seal();
        self.sealed.extend(other.sealed.iter().cloned());
        self.sealed_len += other.sealed_len;
        self.tail.extend_from_slice(&other.tail);
    }
}

impl<T> Default for Ledger<T> {
    fn default() -> Self {
        Ledger::new()
    }
}

impl<T: Clone> Clone for Ledger<T> {
    fn clone(&self) -> Self {
        Ledger {
            sealed: self.sealed.clone(),
            sealed_len: self.sealed_len,
            tail: self.tail.clone(),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Ledger<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<T: PartialEq<U>, U> PartialEq<Ledger<U>> for Ledger<T> {
    fn eq(&self, other: &Ledger<U>) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

impl<T: PartialEq<U>, U> PartialEq<[U]> for Ledger<T> {
    fn eq(&self, other: &[U]) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

impl<T: PartialEq<U>, U, const N: usize> PartialEq<[U; N]> for Ledger<T> {
    fn eq(&self, other: &[U; N]) -> bool {
        *self == other[..]
    }
}

impl<T> FromIterator<T> for Ledger<T> {
    fn from_iter<I: IntoIterator<Item = T>>(entries: I) -> Self {
        let mut ledger = Ledger::new();
        for entry in entries {
            ledger.push(entry);
        }
        ledger
    }
}

impl<'a, T> IntoIterator for &'a Ledger<T> {
    type Item = &'a T;
    type IntoIter = LedgerIter<'a, T>;

    fn into_iter(self) -> LedgerIter<'a, T> {
        self.iter()
    }
}

/// The entries of a ledger's sealed chunks.
type SealedIter<'a, T> = FlatMap<slice::Iter<'a, Arc<[T]>>, &'a [T], fn(&'a Arc<[T]>) -> &'a [T]>;

/// The entries of a [`Ledger`] in log order (see [`Ledger::iter`]).
#[derive(Clone)]
pub struct LedgerIter<'a, T> {
    inner: Chain<SealedIter<'a, T>, slice::Iter<'a, T>>,
}

impl<'a, T> Iterator for LedgerIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<T> DoubleEndedIterator for LedgerIter<'_, T> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.inner.next_back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ledger(range: std::ops::Range<u32>) -> Ledger<u32> {
        range.collect()
    }

    #[test]
    fn pushes_seal_full_chunks_and_keep_order() {
        let log = ledger(0..2 * CHUNK as u32 + 5);
        assert_eq!(log.sealed.len(), 2);
        assert!(log.sealed.iter().all(|c| c.len() == CHUNK));
        assert_eq!(log.tail.len(), 5);
        assert_eq!(log.len(), 2 * CHUNK + 5);
        assert!(log.iter().copied().eq(0..2 * CHUNK as u32 + 5));
        assert!(log
            .iter()
            .rev()
            .copied()
            .eq((0..2 * CHUNK as u32 + 5).rev()));
        assert_eq!(log.last(), Some(&(2 * CHUNK as u32 + 4)));
        // A full tail is sealed at once, so `last` reads a sealed chunk.
        assert_eq!(ledger(0..CHUNK as u32).last(), Some(&(CHUNK as u32 - 1)));
    }

    #[test]
    fn empty_ledger_has_nothing() {
        let log: Ledger<u32> = Ledger::new();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.last(), None);
        assert_eq!(log.iter().next(), None);
        assert_eq!(format!("{log:?}"), "[]");
        assert_eq!(log, []);
    }

    #[test]
    fn a_clone_shares_sealed_chunks_and_stays_a_snapshot() {
        let mut log = ledger(0..CHUNK as u32 + 3);
        let snapshot = log.clone();
        assert!(Arc::ptr_eq(&log.sealed[0], &snapshot.sealed[0]));
        for i in 0..CHUNK as u32 {
            log.push(1000 + i);
        }
        assert_eq!(snapshot, ledger(0..CHUNK as u32 + 3));
        assert_eq!(
            snapshot.sealed.len(),
            1,
            "the original sealed its own chunk"
        );
        assert_eq!(log.sealed.len(), 2);
        assert!(Arc::ptr_eq(&log.sealed[0], &snapshot.sealed[0]));
    }

    #[test]
    fn extend_shared_appends_in_order_and_shares_chunks() {
        let (a, b) = (
            ledger(0..CHUNK as u32 + 2),
            ledger(100..100 + CHUNK as u32 + 7),
        );
        let mut joined = Ledger::new();
        joined.extend_shared(&a);
        joined.extend_shared(&b);
        assert!(joined.iter().eq(a.iter().chain(&b)));
        assert_eq!(joined.len(), a.len() + b.len());
        assert!(Arc::ptr_eq(&joined.sealed[0], &a.sealed[0]));
        assert!(Arc::ptr_eq(joined.sealed.last().unwrap(), &b.sealed[0]));
        assert_eq!(joined.tail, b.tail);
    }

    #[test]
    fn equality_ignores_chunking_and_debug_prints_a_list() {
        let mut split = Ledger::new();
        split.extend_shared(&ledger(0..3));
        split.extend_shared(&ledger(3..5));
        assert_eq!(split.sealed.len(), 1, "a partial chunk sealed by the join");
        assert_eq!(split, ledger(0..5));
        assert_ne!(split, ledger(0..4));
        assert_ne!(split, ledger(1..6));
        assert_eq!(split, [0, 1, 2, 3, 4]);
        assert_eq!(format!("{split:?}"), "[0, 1, 2, 3, 4]");
        let ids: Ledger<String> = ["t1".to_owned()].into_iter().collect();
        assert_eq!(ids, ["t1"]);
    }

    /// One step of the model run: a push, a join of another ledger, or
    /// a snapshot that must survive every later step unchanged.
    #[derive(Debug, Clone)]
    enum Op {
        Push(u32),
        Join(u32),
        Snapshot,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..1000).prop_map(Op::Push),
            (0u32..2 * CHUNK as u32 + 8).prop_map(Op::Join),
            Just(Op::Snapshot),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A ledger reads as the `Vec` of the same pushes and joins at
        /// every step, across chunk boundaries, and every snapshot
        /// still reads as the `Vec` it was taken from.
        #[test]
        fn ledger_matches_a_vec_model(ops in prop::collection::vec(op(), 0..150)) {
            let (mut log, mut model) = (Ledger::new(), Vec::new());
            let mut snapshots: Vec<(Ledger<u32>, Vec<u32>)> = Vec::new();
            for op in ops {
                match op {
                    Op::Push(x) => {
                        log.push(x);
                        model.push(x);
                    }
                    Op::Join(n) => {
                        let other = ledger(5000..5000 + n);
                        log.extend_shared(&other);
                        model.extend(5000..5000 + n);
                    }
                    Op::Snapshot => {
                        let snapshot = log.clone();
                        prop_assert!(snapshot
                            .sealed
                            .iter()
                            .zip(&log.sealed)
                            .all(|(a, b)| Arc::ptr_eq(a, b)));
                        snapshots.push((snapshot, model.clone()));
                    }
                }
                prop_assert_eq!(log.len(), model.len());
                prop_assert_eq!(log.is_empty(), model.is_empty());
                prop_assert_eq!(log.last(), model.last());
                prop_assert!(log.iter().eq(&model));
                prop_assert!(log.iter().rev().eq(model.iter().rev()));
                prop_assert!(log == model[..]);
                prop_assert!(log.sealed.iter().all(|c| !c.is_empty() && c.len() <= CHUNK));
            }
            prop_assert_eq!(format!("{log:?}"), format!("{model:?}"));
            let rebuilt: Ledger<u32> = model.iter().copied().collect();
            prop_assert!(rebuilt == log);
            for (snapshot, then) in &snapshots {
                prop_assert!(*snapshot == then[..]);
            }
        }
    }
}
