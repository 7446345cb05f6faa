//! Property tests of the interned dense-index structures that replaced
//! per-packet `BTreeMap` lookups on the datapath.
//!
//! Four contracts are pinned here:
//!
//! * **Round-trip** — after any insert/remove/retain sequence, a
//!   [`DenseMap`] agrees with a `BTreeMap` model on length, membership,
//!   and every value — for ordinary keys and for keys whose hashes are
//!   crafted against the index's slot encoding (one home slot, one tag,
//!   all-ones top bits, full 64-bit collisions) — and an [`Interner`]
//!   resolves every id back to its value.
//! * **One key compare per hit** — a probe rejects colliding slots from
//!   the tag in the index word, counted with a key whose `==` counts.
//! * **D3 iteration order** — determinism requires ordered *iteration*,
//!   not ordered *lookup*: iteration order must be a pure function of
//!   the call sequence (insertion order with `swap_remove` backfill),
//!   regression-checked against an explicit model on three fixed seeds,
//!   and by a property past three storage pages (inserts, removals,
//!   `retain`s that free whole pages or cut into one, `clear`).
//! * **Entries stay put** — growth appends a page; an entry's address
//!   does not change while the map grows.

use nezha_sim::dense::{fx_hash, DenseMap, Interner, PAGE};
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// The `u64` whose `fx_hash` is `target`: the hasher's one-word mix and
/// its final avalanche are bijections (odd multipliers, 32-bit
/// xor-shifts), so they invert. Self-checking — a change to the hasher
/// fails the assert here, not the properties below.
fn fx_preimage(target: u64) -> u64 {
    fn inverse(odd: u64) -> u64 {
        // Newton's iteration doubles the correct low bits each round.
        (0..6).fold(odd, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(x)))
        })
    }
    let mut h = target;
    h ^= h >> 32;
    h = h.wrapping_mul(inverse(0xd6e8_feb8_6659_fd93));
    h ^= h >> 32;
    let word = h.wrapping_mul(inverse(0x51_7c_c1_b7_27_22_0a_95));
    assert_eq!(
        fx_hash(&word),
        target,
        "FxHasher64 changed; fix fx_preimage"
    );
    word
}

/// A key that hashes to whatever the test says: its hand-written `Hash`
/// feeds the hasher the preimage of the wanted hash; equality is by `id`
/// (each maker below derives the hash from the id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Crafted {
    id: u16,
    word: u64,
}

impl Crafted {
    fn hashing_to(id: u16, hash: u64) -> Self {
        let word = fx_preimage(hash);
        Crafted { id, word }
    }
}

impl Hash for Crafted {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.word);
    }
}

/// Every key shares its low 32 hash bits — one home slot at every table
/// size, one ever-longer probe run — and differs in the tag.
fn same_home(id: u16) -> Crafted {
    Crafted::hashing_to(id, ((id as u64) << 48) | 0x2a)
}

/// Every key shares its top 31 hash bits — one tag at every table size,
/// so the tag filters nothing — set to all ones: at the minimum table a
/// live slot is then as close to `EMPTY`/`TOMBSTONE` as one can get.
fn same_tag(id: u16) -> Crafted {
    Crafted::hashing_to(id, (!0 << 33) | (id as u64).wrapping_mul(0x9e37_79b9))
}

/// Full 64-bit collisions: same home, same tag, only `==` tells keys
/// apart.
fn same_hash(id: u16) -> Crafted {
    Crafted::hashing_to(id, !0)
}

/// Dense-index ↔ BTreeMap round-trip: both maps see the same op
/// sequence (five in eight insert, two remove, one `retain` by value
/// residue) and must agree on every observable on the way and
/// afterwards. 64 keys take the index through 8, 16, 32, 64 and 128
/// slots; after every removal the entry `swap_remove` moved is looked
/// up, since its slot was re-pointed.
fn check_against_model<K: Hash + Ord + Copy + std::fmt::Debug>(
    key: fn(u16) -> K,
    ops: &[(u16, u8, u32)],
) -> Result<(), TestCaseError> {
    let mut dense: DenseMap<K, u32> = DenseMap::new();
    let mut model: BTreeMap<K, u32> = BTreeMap::new();
    for &(id, op, val) in ops {
        let k = key(id);
        match op {
            0..=4 => prop_assert_eq!(dense.insert(k, val), model.insert(k, val)),
            5 | 6 => {
                let moved = dense.keys().last().copied();
                prop_assert_eq!(dense.remove(&k), model.remove(&k));
                if let Some(moved) = moved {
                    prop_assert_eq!(dense.get(&moved), model.get(&moved), "moved entry lost");
                }
            }
            _ => {
                dense.retain(|_, v| *v % 3 != val % 3);
                model.retain(|_, v| *v % 3 != val % 3);
            }
        }
        prop_assert_eq!(dense.len(), model.len());
    }
    for id in 0u16..64 {
        let k = key(id);
        prop_assert_eq!(
            dense.get(&k),
            model.get(&k),
            "lookup diverged at key {}",
            id
        );
        prop_assert_eq!(dense.contains_key(&k), model.contains_key(&k));
    }
    // Same contents, independent of each map's own order.
    let mut got: Vec<(K, u32)> = dense.iter().map(|(k, v)| (*k, *v)).collect();
    got.sort_unstable();
    let want: Vec<(K, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Ordinary keys, then the same ops under each crafted hash.
    #[test]
    fn dense_map_matches_btreemap(
        ops in prop::collection::vec((0u16..64, 0u8..8, 0u32..1000), 1..400),
    ) {
        check_against_model(|id| id, &ops)?;
        check_against_model(same_home, &ops)?;
        check_against_model(same_tag, &ops)?;
        check_against_model(same_hash, &ops)?;
    }

    /// Interner round-trip: every id resolves back to the value it was
    /// minted for, re-interning is stable, and distinct values get
    /// distinct ids.
    #[test]
    fn interner_round_trip(vals in prop::collection::vec(0u64..50, 1..200)) {
        let mut interner: Interner<u64> = Interner::new();
        let ids: Vec<u32> = vals.iter().map(|&v| interner.intern(v)).collect();
        for (&v, &id) in vals.iter().zip(&ids) {
            prop_assert_eq!(*interner.resolve(id), v);
            prop_assert_eq!(interner.intern(v), id, "re-intern must be stable");
        }
        let distinct: std::collections::BTreeSet<u64> = vals.iter().copied().collect();
        prop_assert_eq!(interner.len(), distinct.len());
    }
}

/// A fixed-seed splitmix-style generator so the regression sequences
/// below never change between runs or platforms.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// D3 regression on three seeds: iteration order equals the documented
/// discipline — insertion order, `swap_remove` backfill on removal,
/// relative order preserved by `retain` — replayed against an explicit
/// `Vec` model of that discipline.
#[test]
fn iteration_order_follows_swap_remove_discipline() {
    for seed in [0x4e5a_0001u64, 0x4e5a_0002, 0x4e5a_0003] {
        let mut state = seed;
        let mut dense: DenseMap<u64, u64> = DenseMap::new();
        // The model: exactly the order the map documents, maintained by
        // the same primitive (Vec::swap_remove) the map uses internally.
        let mut order: Vec<u64> = Vec::new();
        for step in 0..600u64 {
            let key = lcg(&mut state) % 96;
            match lcg(&mut state) % 7 {
                0 | 1 => {
                    if dense.remove(&key).is_some() {
                        let pos = order.iter().position(|&k| k == key).unwrap();
                        order.swap_remove(pos);
                    }
                }
                2 => {
                    dense.retain(|k, _| k % 3 != key % 3);
                    order.retain(|k| k % 3 != key % 3);
                }
                _ => {
                    if dense.insert(key, step).is_none() {
                        order.push(key);
                    }
                }
            }
            let got: Vec<u64> = dense.keys().copied().collect();
            assert_eq!(got, order, "seed {seed:#x} diverged at step {step}");
        }
        assert!(!order.is_empty(), "seed {seed:#x} ended empty — weak test");
    }
}

/// Keys of the page-crossing property: three full pages and part of a
/// fourth.
const KEYS: u64 = 3 * PAGE as u64 + 17;

/// The documented iteration order, kept by hand: keys in dense order,
/// each key's position in it, and `Vec::swap_remove` on removal.
#[derive(Default)]
struct OrderModel {
    order: Vec<u64>,
    pos: BTreeMap<u64, usize>,
}

impl OrderModel {
    fn push(&mut self, k: u64) {
        self.pos.insert(k, self.order.len());
        self.order.push(k);
    }

    fn swap_remove(&mut self, k: u64) {
        let i = self.pos.remove(&k).unwrap();
        self.order.swap_remove(i);
        if let Some(&moved) = self.order.get(i) {
            self.pos.insert(moved, i);
        }
    }

    fn retain(&mut self, keep: &BTreeSet<u64>) {
        self.order.retain(|k| keep.contains(k));
        self.pos = self
            .order
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i))
            .collect();
    }
}

/// Inserts `count` consecutive keys from `start` (wrapping at `KEYS`)
/// into the map and both models.
fn insert_run(
    dense: &mut DenseMap<u64, u64>,
    model: &mut BTreeMap<u64, u64>,
    order: &mut OrderModel,
    (start, count): (u64, u64),
    val: u64,
) -> Result<(), TestCaseError> {
    for k in (start..start + count).map(|k| k % KEYS) {
        prop_assert_eq!(dense.insert(k, val), model.insert(k, val), "insert {}", k);
        if !order.pos.contains_key(&k) {
            order.push(k);
        }
    }
    Ok(())
}

/// Removes `k`, present or not, from the map and both models.
fn remove_key(
    dense: &mut DenseMap<u64, u64>,
    model: &mut BTreeMap<u64, u64>,
    order: &mut OrderModel,
    k: u64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(dense.remove(&k), model.remove(&k), "remove {}", k);
    if order.pos.contains_key(&k) {
        order.swap_remove(k);
    }
    Ok(())
}

/// One page-crossing case: a fill of `first` keys, then `ops`, each
/// `(kind, arg)` drawing its keys from an LCG seeded with `seed`.
fn check_across_pages(seed: u64, first: u64, ops: &[(u8, u32)]) -> Result<(), TestCaseError> {
    let mut state = seed;
    let mut dense: DenseMap<u64, u64> = DenseMap::new();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut order = OrderModel::default();
    insert_run(&mut dense, &mut model, &mut order, (0, first), 0)?;
    for (step, &(kind, arg)) in ops.iter().enumerate() {
        let (arg, len) = (arg as usize, dense.len());
        let retained = match kind {
            // A run of consecutive keys (new and present).
            0..=3 => {
                let start = lcg(&mut state) % KEYS;
                let count = arg as u64 % (2 * PAGE as u64) + 1;
                insert_run(
                    &mut dense,
                    &mut model,
                    &mut order,
                    (start, count),
                    step as u64,
                )?;
                None
            }
            // Scattered removals, some of absent keys.
            4 | 5 => {
                for _ in 0..arg % 64 + 1 {
                    let k = lcg(&mut state) % KEYS;
                    remove_key(&mut dense, &mut model, &mut order, k)?;
                }
                None
            }
            // A run of consecutive keys removed: drains across pages.
            6 => {
                let start = lcg(&mut state) % KEYS;
                for k in (start..start + (arg % PAGE) as u64).map(|k| k % KEYS) {
                    remove_key(&mut dense, &mut model, &mut order, k)?;
                }
                None
            }
            // Keep a page-aligned prefix: the last page, and maybe
            // more, emptied whole.
            7 => Some(order.order[..arg % len.div_ceil(PAGE).max(1) * PAGE].to_vec()),
            // Keep any prefix: usually cuts into a page.
            8 => Some(order.order[..arg % (len + 1)].to_vec()),
            // Drop one residue class: survivors compact across pages.
            9 | 10 => Some(
                order
                    .order
                    .iter()
                    .copied()
                    .filter(|k| !(k + arg as u64).is_multiple_of(5))
                    .collect(),
            ),
            _ => {
                dense.clear();
                model.clear();
                order = OrderModel::default();
                None
            }
        };
        if let Some(keep) = retained {
            let keep: BTreeSet<u64> = keep.into_iter().collect();
            dense.retain(|k, _| keep.contains(k));
            model.retain(|k, _| keep.contains(k));
            order.retain(&keep);
        }
        let got: Vec<(u64, u64)> = dense.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u64, u64)> = order.order.iter().map(|k| (*k, model[k])).collect();
        prop_assert!(got == want, "step {} (kind {}) diverged", step, kind);
    }
    for k in 0..KEYS + 8 {
        prop_assert_eq!(dense.get(&k), model.get(&k), "lookup diverged at key {}", k);
        prop_assert_eq!(dense.contains_key(&k), model.contains_key(&k));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BTreeMap agreement and D3 order past three storage pages: each
    /// case fills 2·PAGE + 1 up to `KEYS` keys, then mixes insert runs,
    /// removals, `retain`s and an occasional `clear`.
    #[test]
    fn dense_order_and_contents_hold_across_pages(
        seed in any::<u64>(),
        first in (2 * PAGE as u64 + 1)..=KEYS,
        ops in prop::collection::vec((0u8..12, any::<u32>()), 1..24),
    ) {
        check_across_pages(seed, first, &ops)?;
    }
}

/// Growth appends a page: an entry's address holds while the map grows
/// from one full page past two.
#[test]
fn dense_entries_stay_put_while_the_map_grows() {
    let mut map: DenseMap<u64, u64> = DenseMap::new();
    for k in 0..=PAGE as u64 {
        map.insert(k, k);
    }
    let (first, second): (*const u64, *const u64) = (map.value_at(0), map.value_at(PAGE));
    for k in PAGE as u64 + 1..KEYS {
        map.insert(k, k);
    }
    assert!(std::ptr::eq(first, map.value_at(0)), "entry 0 moved");
    assert!(
        std::ptr::eq(second, map.value_at(PAGE)),
        "entry {PAGE} moved"
    );
}

thread_local!(
    #[expect(
        clippy::disallowed_types,
        reason = "`PartialEq::eq` takes no context: a test-local counter is the only way to count calls"
    )]
    static KEY_COMPARES: Cell<u64> = const { Cell::new(0) }
);

/// A key whose `==` counts itself.
#[derive(Clone, Copy, Debug, Eq)]
struct CountedEq(u64);

impl Hash for CountedEq {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0);
    }
}

impl PartialEq for CountedEq {
    fn eq(&self, other: &Self) -> bool {
        KEY_COMPARES.with(|c| c.set(c.get() + 1));
        self.0 == other.0
    }
}

fn key_compares_during(f: impl FnOnce()) -> u64 {
    let before = KEY_COMPARES.with(Cell::get);
    f();
    KEY_COMPARES.with(Cell::get) - before
}

/// The clock-free pin of the tag filter: at the highest load a table
/// reaches (one entry short of the 7/8 that doubles it), a hit opens
/// the key it returns and a miss opens none, give or take a false tag
/// match. Comparing every occupied slot on the way costs about 4.5
/// compares per hit and 30 per miss at this load.
#[test]
fn dense_probe_compares_one_key_per_hit_and_none_per_miss() {
    for slots in [1u64 << 12, 1 << 16] {
        let n = slots / 8 * 7 - 1;
        let mut map: DenseMap<CountedEq, u64> = DenseMap::new();
        for k in 0..n {
            map.insert(CountedEq(k), k);
        }
        let hits = key_compares_during(|| {
            for k in 0..n {
                assert_eq!(map.get(&CountedEq(k)), Some(&k));
            }
        });
        let misses = key_compares_during(|| {
            for k in n..2 * n {
                assert_eq!(map.get(&CountedEq(k)), None);
            }
        });
        let (per_hit, per_miss) = (hits as f64 / n as f64, misses as f64 / n as f64);
        assert!(
            per_hit <= 1.05,
            "{slots} slots: {per_hit} key compares per hit"
        );
        assert!(
            per_miss <= 0.05,
            "{slots} slots: {per_miss} key compares per miss"
        );
    }
}
