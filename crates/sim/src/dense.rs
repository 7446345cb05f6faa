//! Interned dense indices: the hot-path replacements for per-packet
//! `BTreeMap` lookups.
//!
//! Two structures, both fully deterministic:
//!
//! * [`DenseMap`] — a hash-indexed map whose entries live in dense,
//!   insertion-ordered storage split into pages of [`PAGE`] entries:
//!   past the first page, growth appends a page and moves no entry.
//!   Lookups probe a private open-addressing table keyed by a **fixed**
//!   multiply-xor hash (no per-process randomization, unlike
//!   `std::collections::HashMap`); iteration walks the pages in order,
//!   never the hash table.
//! * [`Interner`] — values deduplicated through a `DenseMap` into `u32`
//!   ids, so big per-packet tables store 4 bytes instead of the value.
//!
//! ## Determinism argument
//!
//! `clippy.toml` disallows `HashMap`/`HashSet` because determinism
//! requires ordered *iteration*, not ordered *lookup*: a lookup by key
//! returns the same value whatever the bucket layout, so
//! hash-distributing the index is free. Iteration
//! order here is a pure function of the insert/remove call sequence
//! (insertion order, with `swap_remove` backfill on removal) — same
//! seed, same calls, same order, every run, on every platform. What the
//! map does **not** provide is key-sorted order; call sites whose output
//! is order-visible must sort explicitly (see `DESIGN.md`).

use std::hash::{Hash, Hasher};

/// A deterministic, fixed-key `fx`-style hasher: multiply-xor over the
/// written words. Quality is ample for the short keys used on the
/// datapath (ids, 5-tuples) and hashing is a few cycles — the point of
/// replacing the `BTreeMap`'s pointer-chasing comparisons.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher64 {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher64 {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so low bits depend on every input word (the
        // index table masks to low bits).
        let mut h = self.state;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 32;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// Hashes one key with the fixed-seed [`FxHasher64`].
#[inline]
pub fn fx_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = FxHasher64::default();
    key.hash(&mut h);
    h.finish()
}

// Index slot encoding: one `u32` per slot, `b = log2(index.len())`.
//
//  31   30 ........ b   b-1 ........ 0
// [ 0 |  hash tag     |  dense position ]
//
// The position is `< keys.len() < index.len() = 2^b`; the tag is the
// top `31 - b` bits of the key's `fx_hash` (the home slot is its low
// `b` bits, so the two are independent). A probe compares tags and
// opens `keys[pos]` only on a tag match: a hit costs one key compare
// and a miss none, bar one false match per `2^(31 - b)` occupied slots
// walked (2^-14 in a 131 072-slot table).
//
// Bit 31 of a live slot is always clear — the tag is cut from a 31-bit
// value and the position sits below it — and set in both sentinels, so
// no live slot can equal either at any table size: from the minimum 8,
// where position 6 under an all-ones 29-bit tag would read as
// `TOMBSTONE`, up to `MAX_SLOTS`, where `b = 31` leaves no tag at all.
const EMPTY: u32 = u32::MAX;
const TOMBSTONE: u32 = u32::MAX - 1;
const MAX_SLOTS: usize = 1 << 31;

/// A key's home slot and tag in a table of `mask + 1` slots.
#[inline]
fn home_and_tag(hash: u64, mask: u32) -> (usize, u32) {
    ((hash as u32 & mask) as usize, (hash >> 33) as u32 & !mask)
}

const PAGE_BITS: u32 = 12;

/// Entries per page of a [`DenseMap`]'s storage. Past the first page,
/// which grows like a `Vec`, storage grows a whole page at a time and
/// never moves an entry: a doubling `Vec` would copy the table at every
/// step, and glibc serves those copies below its mmap threshold from the
/// brk heap, where the old copy stays resident. A page of 64-byte session
/// entries is 256 KiB, of 20-byte session keys 80 KiB.
pub const PAGE: usize = 1 << PAGE_BITS;

/// `(page, offset)` of dense position `i`.
#[inline]
fn split(i: usize) -> (usize, usize) {
    (i >> PAGE_BITS, i & (PAGE - 1))
}

/// One page of entries: keys and values in parallel `Vec`s of at most
/// [`PAGE`] each. A probe opens only the key it returns, so the split is
/// about bytes, not compare stride: one `Vec<(K, V)>` pads a session
/// entry 100 -> 104 B (+3.4 MB `peak_rss_mb` on `crr_offloaded`) and
/// measured -3 % / +3 % `run_wall_s` on `fastpath_wide` /
/// `synflood_offloaded`.
#[derive(Clone, Debug)]
struct Page<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
}

/// A [`DenseMap`]'s entries in dense order: entry `i` is at offset
/// `i % PAGE` of page `i / PAGE`. Every page before the last entry's is
/// full; pages after it are empty spares (at most one once
/// [`Pages::truncate`] or [`Pages::swap_remove`] has run).
#[derive(Clone, Debug)]
struct Pages<K, V> {
    /// Page 0, held inline and grown like a `Vec`: a map that never
    /// outgrows it (every per-packet map but the session tables and the
    /// FE flow caches) allocates what a pair of `Vec`s would, and reaches
    /// an entry without first loading a page from a list.
    first: Page<K, V>,
    /// Page `p >= 1` is `rest[p - 1]`.
    rest: Vec<Page<K, V>>,
    len: usize,
}

impl<K, V> Pages<K, V> {
    #[inline]
    fn page(&self, p: usize) -> &Page<K, V> {
        match p.checked_sub(1) {
            None => &self.first,
            Some(r) => &self.rest[r],
        }
    }

    #[inline]
    fn page_mut(&mut self, p: usize) -> &mut Page<K, V> {
        match p.checked_sub(1) {
            None => &mut self.first,
            Some(r) => &mut self.rest[r],
        }
    }

    #[inline]
    fn key(&self, i: usize) -> &K {
        let (p, o) = split(i);
        &self.page(p).keys[o]
    }

    #[inline]
    fn value(&self, i: usize) -> &V {
        let (p, o) = split(i);
        &self.page(p).values[o]
    }

    #[inline]
    fn value_mut(&mut self, i: usize) -> &mut V {
        let (p, o) = split(i);
        &mut self.page_mut(p).values[o]
    }

    fn iter(&self) -> impl Iterator<Item = &Page<K, V>> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Page<K, V>> {
        std::iter::once(&mut self.first).chain(&mut self.rest)
    }

    /// Appends an entry at position `len`, returning its value.
    fn push(&mut self, key: K, value: V) -> &mut V {
        let (p, o) = split(self.len);
        if p > self.rest.len() {
            // Every page after the inline first is allocated whole.
            self.rest.push(Page {
                keys: Vec::with_capacity(PAGE),
                values: Vec::with_capacity(PAGE),
            });
        }
        self.len += 1;
        let page = self.page_mut(p);
        page.keys.push(key);
        page.values.push(value);
        &mut page.values[o]
    }

    /// Swaps entries `a <= b`.
    fn swap(&mut self, a: usize, b: usize) {
        let ((pa, oa), (pb, ob)) = (split(a), split(b));
        if pa == pb {
            let page = self.page_mut(pa);
            page.keys.swap(oa, ob);
            page.values.swap(oa, ob);
            return;
        }
        let (front, back) = self.rest.split_at_mut(pb - 1);
        let first = match pa.checked_sub(1) {
            None => &mut self.first,
            Some(r) => &mut front[r],
        };
        let last = &mut back[0];
        std::mem::swap(&mut first.keys[oa], &mut last.keys[ob]);
        std::mem::swap(&mut first.values[oa], &mut last.values[ob]);
    }

    /// Removes entry `i`, moving the last entry into its place
    /// (`Vec::swap_remove` semantics). A page it empties stays as the
    /// spare; a spare after that one is freed.
    fn swap_remove(&mut self, i: usize) -> V {
        self.len -= 1;
        let (p, o) = split(self.len);
        let page = self.page_mut(p);
        // `o` is the page's last offset: both calls pop.
        let key = page.keys.swap_remove(o);
        let value = page.values.swap_remove(o);
        if o == 0 {
            self.rest.truncate(p);
        }
        if i == self.len {
            return value;
        }
        let (p, o) = split(i);
        let page = self.page_mut(p);
        page.keys[o] = key;
        std::mem::replace(&mut page.values[o], value)
    }

    /// Keeps the first `len` entries, freeing every page past them but
    /// one empty spare, so inserting and removing across a page boundary
    /// does not allocate each time.
    fn truncate(&mut self, len: usize) {
        self.rest.truncate(len.div_ceil(PAGE));
        for (p, page) in self.iter_mut().enumerate() {
            let keep = len.saturating_sub(p << PAGE_BITS).min(PAGE);
            page.keys.truncate(keep);
            page.values.truncate(keep);
        }
        self.len = len;
    }

    /// Drops every entry, keeping every page.
    fn clear(&mut self) {
        for page in self.iter_mut() {
            page.keys.clear();
            page.values.clear();
        }
        self.len = 0;
    }

    fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().flat_map(|page| &page.keys)
    }
}

/// A hash-indexed map with dense, insertion-ordered storage.
///
/// * `get`/`insert`/`remove` are O(1) expected via open addressing;
/// * `iter` walks entries in deterministic (insertion, with removal
///   backfill) order — never the hash table;
/// * once the map holds [`PAGE`] entries, growing it moves none of them
///   in memory (only `remove` and `retain` move entries, as their order
///   contract says);
/// * at most `2^30` entries (the index doubles up to `2^31` slots).
#[derive(Clone, Debug)]
pub struct DenseMap<K, V> {
    entries: Pages<K, V>,
    index: Vec<u32>,
    tombstones: usize,
}

impl<K: Hash + Eq, V> std::ops::Index<&K> for DenseMap<K, V> {
    type Output = V;

    /// Panics when `key` is absent, like the standard maps.
    #[expect(
        clippy::expect_used,
        reason = "`Index` has no fallible form; callers that can miss use `get`"
    )]
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        DenseMap {
            entries: Pages {
                first: Page {
                    keys: Vec::new(),
                    values: Vec::new(),
                },
                rest: Vec::new(),
                len: 0,
            },
            index: Vec::new(),
            tombstones: 0,
        }
    }
}

impl<K: Hash + Eq, V> DenseMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        DenseMap::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.len == 0
    }

    #[inline]
    fn mask(&self) -> u32 {
        (self.index.len() - 1) as u32
    }

    /// Finds `key`: `Ok((index_slot, dense_position))` when present,
    /// `Err((first_free_slot, tag))` when absent.
    #[inline]
    fn probe(&self, key: &K) -> Result<(usize, usize), (usize, u32)> {
        debug_assert!(!self.index.is_empty());
        let mask = self.mask();
        let (mut slot, tag) = home_and_tag(fx_hash(key), mask);
        let mut first_free = None;
        loop {
            let word = self.index[slot];
            if word & !mask == tag {
                let pos = (word & mask) as usize;
                if self.entries.key(pos) == key {
                    return Ok((slot, pos));
                }
            } else if word == EMPTY {
                return Err((first_free.unwrap_or(slot), tag));
            } else if word == TOMBSTONE {
                first_free.get_or_insert(slot);
            }
            slot = (slot + 1) & mask as usize;
        }
    }

    fn rebuild_index(&mut self, size: usize) {
        debug_assert!(size.is_power_of_two() && size > self.len());
        assert!(size <= MAX_SLOTS, "DenseMap full");
        self.index.clear();
        self.index.resize(size, EMPTY);
        self.tombstones = 0;
        let mask = self.mask();
        for (i, k) in self.entries.keys().enumerate() {
            let (mut slot, tag) = home_and_tag(fx_hash(k), mask);
            while self.index[slot] != EMPTY {
                slot = (slot + 1) & mask as usize;
            }
            self.index[slot] = tag | i as u32;
        }
    }

    /// Grows/cleans the index when load (live + tombstones) passes 7/8.
    fn maybe_grow(&mut self) {
        if self.index.is_empty() {
            self.rebuild_index(8);
        } else if (self.len() + self.tombstones) * 8 >= self.index.len() * 7 {
            let target = (self.len() * 2).next_power_of_two().max(8);
            self.rebuild_index(target.max(self.index.len()));
        }
    }

    /// Looks up a key.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.index_of(key).map(|i| self.entries.value(i))
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.index_of(key).map(|i| self.entries.value_mut(i))
    }

    /// The dense-storage position of `key`'s entry, for callers that
    /// come back to the same entry several times ([`DenseMap::value_at`],
    /// [`DenseMap::value_at_mut`]) without probing again. Inserts leave
    /// it valid; `remove`, `retain` and `clear` do not.
    #[inline]
    pub fn index_of(&self, key: &K) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        self.probe(key).ok().map(|(_, pos)| pos)
    }

    /// The value at dense position `i` (from [`DenseMap::index_of`]).
    #[inline]
    pub fn value_at(&self, i: usize) -> &V {
        self.entries.value(i)
    }

    /// Mutable access to the value at dense position `i`.
    #[inline]
    pub fn value_at_mut(&mut self, i: usize) -> &mut V {
        self.entries.value_mut(i)
    }

    /// True when `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        !self.is_empty() && self.probe(key).is_ok()
    }

    /// Inserts, returning the previous value for `key` if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.insert_entry(key, value).1
    }

    /// Inserts, returning the stored value in place plus the previous
    /// value for `key` if any — the caller keeps working on the entry
    /// without probing for it again.
    pub fn insert_entry(&mut self, key: K, value: V) -> (&mut V, Option<V>) {
        self.maybe_grow();
        match self.probe(&key) {
            Ok((_, pos)) => {
                let v = self.entries.value_mut(pos);
                let old = std::mem::replace(v, value);
                (v, Some(old))
            }
            Err((free, tag)) => {
                if self.index[free] == TOMBSTONE {
                    self.tombstones -= 1;
                }
                self.index[free] = tag | self.len() as u32;
                (self.entries.push(key, value), None)
            }
        }
    }

    /// Removes `key`, backfilling the dense storage from the last entry
    /// (`swap_remove`) so storage stays gap-free. Iteration order after
    /// a removal is therefore not insertion order, but it remains a pure
    /// function of the call sequence — deterministic across runs.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if self.is_empty() {
            return None;
        }
        let (slot, dense) = self.probe(key).ok()?;
        self.index[slot] = TOMBSTONE;
        self.tombstones += 1;
        let v = self.entries.swap_remove(dense);
        if dense < self.len() {
            // The former last entry moved into `dense`; walk its probe
            // chain for the slot still holding its old dense position
            // (whole-word compare: its tag rides along unchanged).
            let mask = self.mask();
            let (mut slot, tag) = home_and_tag(fx_hash(self.entries.key(dense)), mask);
            let moved_old = tag | self.len() as u32;
            while self.index[slot] != moved_old {
                slot = (slot + 1) & mask as usize;
            }
            self.index[slot] = tag | dense as u32;
        }
        Some(v)
    }

    /// Keeps only entries for which `f` returns true, preserving the
    /// relative order of survivors; the index is rebuilt afterwards,
    /// unless nothing was removed. Pages left empty are freed, bar one.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        let mut w = 0;
        for r in 0..self.len() {
            let (p, o) = split(r);
            let page = self.entries.page_mut(p);
            if f(&page.keys[o], &mut page.values[o]) {
                if w < r {
                    self.entries.swap(w, r);
                }
                w += 1;
            }
        }
        if w == self.len() {
            return;
        }
        self.entries.truncate(w);
        self.rebuild_index(self.index.len());
    }

    /// Drops all entries, keeping allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        for s in &mut self.index {
            *s = EMPTY;
        }
        self.tombstones = 0;
    }

    /// Iterates `(key, value)` in dense-storage order (deterministic;
    /// not key-sorted — see the module docs).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries
            .iter()
            .flat_map(|page| page.keys.iter().zip(&page.values))
    }

    /// Mutable iteration in dense-storage order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries
            .iter_mut()
            .flat_map(|page| page.keys.iter().zip(&mut page.values))
    }

    /// Iterates values in dense-storage order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().flat_map(|page| &page.values)
    }

    /// Mutable value iteration in dense-storage order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().flat_map(|page| &mut page.values)
    }

    /// Iterates keys in dense-storage order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.keys()
    }
}

/// A value interner: deduplicates equal values into a dense, append-only
/// table and hands out `u32` ids.
///
/// Hot-path consumers store the 4-byte id instead of the value itself —
/// a cached-flow table whose entries embed a 64-byte pre-action pair
/// shrinks to a quarter of its footprint when the distinct values number
/// in the hundreds, which is what keeps big per-packet lookup tables
/// cache-resident. Ids are assigned in first-intern order, so like
/// everything else in this module the id sequence is a pure function of
/// the call sequence, and `resolve` is a bare slice index.
#[derive(Clone, Debug)]
pub struct Interner<T> {
    values: Vec<T>,
    ids: DenseMap<T, u32>,
}

impl<T: Hash + Eq> Default for Interner<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Hash + Eq> Interner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            values: Vec::new(),
            ids: DenseMap::new(),
        }
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl<T: Hash + Eq + Copy> Interner<T> {
    /// Returns the id for `value`, assigning the next dense id on first
    /// sight.
    #[expect(
        clippy::expect_used,
        reason = "2^32 distinct interned values is beyond any simulated run; ids are u32 to keep entries small"
    )]
    pub fn intern(&mut self, value: T) -> u32 {
        if let Some(&id) = self.ids.get(&value) {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("interner overflow");
        self.values.push(value);
        self.ids.insert(value, id);
        id
    }

    /// The value behind `id`.
    ///
    /// Panics when `id` was not produced by this interner.
    #[inline]
    pub fn resolve(&self, id: u32) -> &T {
        &self.values[id as usize]
    }

    /// Forgets every value, keeping the allocations. Every id handed out
    /// so far dies: call only once nothing holds one (a cache that just
    /// dropped all its entries).
    pub fn clear(&mut self) {
        self.values.clear();
        self.ids.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = DenseMap::new();
        assert_eq!(m.insert("a", 1), None);
        assert_eq!(m.insert("b", 2), None);
        assert_eq!(m.insert("a", 10), Some(1));
        assert_eq!(m.get(&"a"), Some(&10));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&"a"), Some(10));
        assert_eq!(m.remove(&"a"), None);
        assert_eq!(m.get(&"a"), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tracks_btreemap_through_mixed_ops() {
        // Deterministic pseudo-random op mix, mirrored into a BTreeMap.
        let mut dense: DenseMap<u64, u64> = DenseMap::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x: u64 = 0x1234_5678;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 512;
            match x % 3 {
                0 | 1 => {
                    assert_eq!(dense.insert(key, i), model.insert(key, i));
                }
                _ => {
                    assert_eq!(dense.remove(&key), model.remove(&key));
                }
            }
            assert_eq!(dense.len(), model.len());
        }
        for (k, v) in model.iter() {
            assert_eq!(dense.get(k), Some(v));
        }
        let mut seen: Vec<u64> = dense.keys().copied().collect();
        seen.sort_unstable();
        let expect: Vec<u64> = model.keys().copied().collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn iteration_is_insertion_ordered_without_removals() {
        let mut m = DenseMap::new();
        for k in [5u32, 3, 9, 1, 7] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![5, 3, 9, 1, 7]);
    }

    #[test]
    fn iteration_order_is_reproducible() {
        let build = || {
            let mut m = DenseMap::new();
            for k in 0u64..200 {
                m.insert(k * 7 % 101, k);
            }
            for k in 0u64..50 {
                m.remove(&(k * 13 % 101));
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn retain_preserves_survivor_order() {
        let mut m = DenseMap::new();
        for k in 0u32..100 {
            m.insert(k, k);
        }
        m.retain(|k, _| k % 3 == 0);
        let keys: Vec<u32> = m.keys().copied().collect();
        let expect: Vec<u32> = (0..100).filter(|k| k % 3 == 0).collect();
        assert_eq!(keys, expect);
        assert_eq!(m.get(&33), Some(&33));
        assert_eq!(m.get(&34), None);
    }

    #[test]
    fn clear_resets() {
        let mut m = DenseMap::new();
        m.insert(1u8, 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&1), None);
        m.insert(1u8, 2);
        assert_eq!(m.get(&1), Some(&2));
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "`Hash::hash` takes no context: a test-local counter is the only way to count calls"
    )]
    fn dense_retain_that_keeps_everything_hashes_and_allocates_nothing() {
        thread_local!(static HASHES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) });
        #[derive(PartialEq, Eq)]
        struct CountedHash(u32);
        impl Hash for CountedHash {
            fn hash<H: Hasher>(&self, state: &mut H) {
                HASHES.with(|h| h.set(h.get() + 1));
                state.write_u32(self.0);
            }
        }
        let mut m = DenseMap::new();
        for k in 0..100 {
            m.insert(CountedHash(k), k);
        }
        let before = HASHES.with(|h| h.get());
        m.retain(|_, _| true);
        assert_eq!(HASHES.with(|h| h.get()), before, "no-op sweep re-hashed");
        m.retain(|k, _| k.0 != 0);
        assert_eq!(HASHES.with(|h| h.get()), before + 99, "real sweep re-seats");
        assert_eq!(m.get(&CountedHash(99)), Some(&99));

        let mut idle: DenseMap<u32, u32> = DenseMap::new();
        idle.retain(|_, _| true);
        assert_eq!(idle.index.capacity(), 0, "never-used map grew an index");
    }

    #[test]
    fn dense_retain_and_removal_leave_at_most_one_empty_page() {
        let pages = |m: &DenseMap<u64, u64>| 1 + m.entries.rest.len();
        let empty_pages =
            |m: &DenseMap<u64, u64>| m.entries.iter().filter(|page| page.keys.is_empty()).count();
        let n = 3 * PAGE as u64 + 17;
        let mut m = DenseMap::new();
        for k in 0..n {
            m.insert(k, k);
        }
        assert_eq!(pages(&m), 4);
        assert_eq!(empty_pages(&m), 0);
        m.retain(|k, _| k % 1000 == 0);
        assert_eq!(m.len(), 13);
        assert_eq!(pages(&m), 2, "emptied pages stayed resident");
        assert_eq!(empty_pages(&m), 1);
        assert_eq!(m.get(&12_000), Some(&12_000));

        // At a page boundary the spare takes the churn: an insert and a
        // remove across it neither allocate a page nor free one.
        let fill = n..n + PAGE as u64 - 13;
        for k in fill.clone() {
            m.insert(k, k);
        }
        assert_eq!(m.len(), PAGE);
        for _ in 0..3 {
            m.insert(u64::MAX, 0);
            assert_eq!((pages(&m), empty_pages(&m)), (2, 0));
            m.remove(&u64::MAX);
            assert_eq!((pages(&m), empty_pages(&m)), (2, 1));
        }
        for k in (0..n).chain(fill) {
            m.remove(&k);
        }
        assert!(m.is_empty());
        assert_eq!(pages(&m), 1);
        assert_eq!(empty_pages(&m), 1);
    }

    #[test]
    fn dense_live_slots_never_read_as_sentinels() {
        // Smallest table, all-ones hash, highest position a size-8 table
        // can hold: without the reserved bit this word is `TOMBSTONE`.
        let (home, tag) = home_and_tag(u64::MAX, 7);
        assert_eq!(home, 7);
        assert_eq!(tag | 6, TOMBSTONE & !(1 << 31));
        for b in 3..=31 {
            let mask = ((1u64 << b) - 1) as u32;
            let (_, tag) = home_and_tag(u64::MAX, mask);
            assert_eq!(tag & mask, 0, "tag overlaps the position bits");
            assert!(tag | mask < 1 << 31, "live slot with bit 31 set");
        }
        assert_eq!(home_and_tag(u64::MAX, (MAX_SLOTS - 1) as u32).1, 0);
    }

    #[test]
    fn fx_hash_is_stable_across_calls() {
        let k = (7u64, 9u32);
        assert_eq!(fx_hash(&k), fx_hash(&k));
        assert_ne!(fx_hash(&(1u64, 2u32)), fx_hash(&(2u64, 1u32)));
    }
}
