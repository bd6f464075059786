//! Flat, dense protocol-state tables.
//!
//! Every identifier the protocols key state by — page ids (byte address /
//! page size over a zero-based bump allocator), lock ids, barrier ids — is a
//! small dense integer. The former `HashMap`/`HashSet` state tables paid
//! hashing and pointer-chasing on the hottest paths of every simulated
//! access; at 256 nodes that dominates the host profile. [`FlatMap`] and
//! [`IdSet`] replace them with direct-indexed flat arrays: O(1) without
//! hashing, one cache line per touch, and deterministic ascending iteration
//! order (the old hash iteration order was per-process random, which is why
//! no simulated output could ever depend on it — every order-sensitive
//! consumer already sorts; see DESIGN.md §15).

use std::sync::Arc;

use crate::diff::Diff;
use crate::page::PageId;
use crate::vtime::IntervalId;

/// A dense map from a small integer id to `V`, backed by a flat slot array.
///
/// Ids are expected to be allocated densely from zero (page ids from the
/// bump allocator, lock/barrier ids from the workload). The slot array grows
/// to the largest inserted id; a sanity ceiling catches runaway ids loudly
/// instead of exhausting host memory.
#[derive(Debug)]
pub(crate) struct FlatMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

/// Largest admissible id: 16M slots. Real runs stay orders of magnitude
/// below this (pages = heap bytes / 4 KB); hitting it means a corrupted id.
const MAX_ID: u64 = 1 << 24;

impl<V> Default for FlatMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FlatMap<V> {
    /// An empty table.
    pub fn new() -> Self {
        FlatMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    fn index(id: impl Into<u64>) -> usize {
        let id = id.into();
        // invariant: ids come from dense allocators (addresses / page size,
        // workload lock numbers) — an id past the ceiling is corrupt state
        assert!(id < MAX_ID, "flat table id {id} out of range");
        id as usize
    }

    /// The value stored for `id`, if any.
    pub fn get(&self, id: impl Into<u64>) -> Option<&V> {
        self.slots.get(Self::index(id)).and_then(|s| s.as_ref())
    }

    /// Mutable access to the value stored for `id`, if any.
    pub fn get_mut(&mut self, id: impl Into<u64>) -> Option<&mut V> {
        self.slots.get_mut(Self::index(id)).and_then(|s| s.as_mut())
    }

    /// Whether `id` has a value.
    pub fn contains(&self, id: impl Into<u64>) -> bool {
        self.get(id).is_some()
    }

    /// Inserts (or replaces) the value for `id`, returning the old value.
    pub fn insert(&mut self, id: impl Into<u64>, value: V) -> Option<V> {
        let idx = Self::index(id);
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value for `id`.
    pub fn remove(&mut self, id: impl Into<u64>) -> Option<V> {
        let idx = Self::index(id);
        let old = self.slots.get_mut(idx).and_then(|s| s.take());
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The value for `id`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&mut self, id: impl Into<u64>, make: impl FnOnce() -> V) -> &mut V {
        let idx = Self::index(id);
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let slot = &mut self.slots[idx];
        if slot.is_none() {
            *slot = Some(make());
            self.len += 1;
        }
        // invariant: filled just above when it was empty
        slot.as_mut().expect("slot filled")
    }

    /// Iterates `(id, &value)` in ascending id order (deterministic, unlike
    /// the hash tables this type replaced).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u64, v)))
    }

    /// Number of stored values.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table stores nothing.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<V: Default> FlatMap<V> {
    /// The value for `id`, inserting `V::default()` first if absent.
    pub fn get_or_default(&mut self, id: impl Into<u64>) -> &mut V {
        self.get_or_insert_with(id, V::default)
    }
}

/// Per-node store of self-created diffs, keyed by `(page, interval)`: a flat
/// page table of short interval lists. A page is dirtied by a handful of
/// intervals between synchronizations, so a linear scan of its list beats
/// hashing the compound key.
///
/// Diffs are stored as `Arc` handles: a diff reply ships a handle to the
/// stored diff rather than a copy. A later merge into a stored diff goes
/// through [`Arc::make_mut`], so it copies the diff first whenever a reply
/// still holds it — receivers always see the diff as it was when sent.
#[derive(Debug, Default)]
pub(crate) struct DiffTable {
    pages: FlatMap<Vec<(IntervalId, Arc<Diff>)>>,
}

impl DiffTable {
    /// An empty store.
    pub fn new() -> Self {
        DiffTable {
            pages: FlatMap::new(),
        }
    }

    /// The stored diff for `(page, ivl)`, if any.
    pub fn get(&self, page: PageId, ivl: IntervalId) -> Option<&Arc<Diff>> {
        self.pages
            .get(page)?
            .iter()
            .find(|(i, _)| *i == ivl)
            .map(|(_, d)| d)
    }

    /// Whether a diff for `(page, ivl)` is stored.
    pub fn contains(&self, page: PageId, ivl: IntervalId) -> bool {
        self.get(page, ivl).is_some()
    }

    /// Stores `diff`, merging into an existing diff for the same
    /// (page, interval) if an invalidation forced one early. The merge
    /// copies the stored diff first if a sent reply still shares it.
    pub fn merge_or_insert(&mut self, diff: Diff) {
        let list = self.pages.get_or_default(diff.page);
        match list.iter_mut().find(|(i, _)| *i == diff.interval) {
            Some((_, d)) => Arc::make_mut(d).merge(&diff),
            None => list.push((diff.interval, Arc::new(diff))),
        }
    }
}

/// A dense set of small integer ids, backed by a flat bit array.
#[derive(Debug, Default)]
pub(crate) struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    /// An empty set.
    pub fn new() -> Self {
        IdSet { words: Vec::new() }
    }

    fn split(id: impl Into<u64>) -> (usize, u64) {
        let id = id.into();
        // invariant: same dense-id contract as `FlatMap`
        assert!(id < MAX_ID, "id set id {id} out of range");
        ((id >> 6) as usize, 1u64 << (id & 63))
    }

    /// Adds `id`; returns whether it was newly inserted.
    pub fn insert(&mut self, id: impl Into<u64>) -> bool {
        let (w, bit) = Self::split(id);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Removes `id`; returns whether it was present.
    pub fn remove(&mut self, id: impl Into<u64>) -> bool {
        let (w, bit) = Self::split(id);
        match self.words.get_mut(w) {
            Some(word) => {
                let had = *word & bit != 0;
                *word &= !bit;
                had
            }
            None => false,
        }
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: impl Into<u64>) -> bool {
        let (w, bit) = Self::split(id);
        self.words.get(w).is_some_and(|word| word & bit != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_map_round_trip() {
        let mut m: FlatMap<String> = FlatMap::new();
        assert!(m.is_empty());
        assert!(m.get(3u64).is_none());
        assert_eq!(m.insert(3u64, "a".into()), None);
        assert_eq!(m.insert(3u64, "b".into()), Some("a".into()));
        assert_eq!(m.len(), 1);
        assert!(m.contains(3u64));
        m.get_or_insert_with(7u64, || "c".into()).push('!');
        assert_eq!(m.get(7u64).map(String::as_str), Some("c!"));
        assert_eq!(m.len(), 2);
        let ids: Vec<u64> = m.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![3, 7]);
        assert_eq!(m.remove(3u64), Some("b".into()));
        assert_eq!(m.remove(3u64), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn flat_map_get_or_default_counts_once() {
        let mut m: FlatMap<u32> = FlatMap::new();
        *m.get_or_default(5u32) += 1;
        *m.get_or_default(5u32) += 1;
        assert_eq!(m.get(5u32), Some(&2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn id_set_round_trip() {
        let mut s = IdSet::new();
        assert!(!s.contains(70u32));
        assert!(s.insert(70u32));
        assert!(!s.insert(70u32));
        assert!(s.contains(70u32));
        assert!(!s.contains(6u32));
        assert!(s.remove(70u32));
        assert!(!s.remove(70u32));
        assert!(!s.contains(70u32));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn runaway_id_is_loud() {
        let mut m: FlatMap<u8> = FlatMap::new();
        m.insert(u64::MAX, 0);
    }
}
