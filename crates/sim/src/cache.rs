//! A generic set-associative, write-back, write-allocate cache model with
//! LRU replacement.
//!
//! The same structure models the per-core L1 and L2 data caches (payload:
//! 64-byte line images) and the shared counter cache (payload:
//! [`nvmm_crypto::CounterLine`]). Payloads are carried so that evictions
//! and `clwb`s hand *real bytes* to the memory controller — crash
//! recovery decrypts what was actually written.

use std::hash::Hash;

/// Result of inserting a line into the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction<K, V> {
    /// Tag of the evicted line.
    pub key: K,
    /// Payload of the evicted line.
    pub value: V,
    /// Whether the evicted line was dirty (must be written back).
    pub dirty: bool,
}

#[derive(Debug, Clone)]
struct Way<K, V> {
    key: K,
    value: V,
    dirty: bool,
    /// Monotonic use stamp for LRU.
    used: u64,
}

/// A set-associative LRU cache keyed by `K` with per-line payload `V`.
///
/// # Examples
///
/// ```
/// use nvmm_sim::cache::SetAssocCache;
/// let mut c: SetAssocCache<u64, u32> = SetAssocCache::new(2, 2);
/// assert!(c.get(&1).is_none());
/// c.insert(1, 10, false);
/// assert_eq!(c.get(&1), Some(&10));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<K, V> {
    sets: Vec<Vec<Way<K, V>>>,
    ways: usize,
    tick: u64,
}

impl<K: Eq + Hash + Copy, V> SetAssocCache<K, V> {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && ways > 0,
            "cache must have at least one set and one way"
        );
        Self {
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            tick: 0,
        }
    }

    fn set_index(&self, key: &K) -> usize {
        // Keys are line indexes in practice; mixing avoids pathological
        // striding when regions are page-aligned.
        (fxhash::hash64(key) % self.sets.len() as u64) as usize
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up `key`, refreshing its LRU position on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let si = self.set_index(key);
        let tick = self.bump();
        let set = &mut self.sets[si];
        set.iter_mut().find(|w| w.key == *key).map(|w| {
            w.used = tick;
            &w.value
        })
    }

    /// Looks up `key` without disturbing LRU state.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let si = self.set_index(key);
        self.sets[si]
            .iter()
            .find(|w| w.key == *key)
            .map(|w| &w.value)
    }

    /// Mutable lookup; refreshes LRU and optionally marks the line dirty.
    pub fn get_mut(&mut self, key: &K, mark_dirty: bool) -> Option<&mut V> {
        let si = self.set_index(key);
        let tick = self.bump();
        let set = &mut self.sets[si];
        set.iter_mut().find(|w| w.key == *key).map(|w| {
            w.used = tick;
            if mark_dirty {
                w.dirty = true;
            }
            &mut w.value
        })
    }

    /// Returns whether `key` is present and dirty.
    pub fn is_dirty(&self, key: &K) -> bool {
        let si = self.set_index(key);
        self.sets[si].iter().any(|w| w.key == *key && w.dirty)
    }

    /// Clears the dirty bit of `key` (after a write-back that keeps the
    /// line valid, i.e. `clwb` semantics). No-op if absent.
    pub fn clean(&mut self, key: &K) {
        let si = self.set_index(key);
        if let Some(w) = self.sets[si].iter_mut().find(|w| w.key == *key) {
            w.dirty = false;
        }
    }

    /// Inserts (or updates) `key`, returning the victim if a line had to
    /// be evicted. Updating an existing line ORs in `dirty`.
    pub fn insert(&mut self, key: K, value: V, dirty: bool) -> Option<Eviction<K, V>> {
        let si = self.set_index(&key);
        let tick = self.bump();
        if let Some(w) = self.sets[si].iter_mut().find(|w| w.key == key) {
            w.value = value;
            w.dirty |= dirty;
            w.used = tick;
            return None;
        }
        self.fill(si, key, value, dirty, tick)
    }

    /// Places absent `key` in set `si` at LRU stamp `tick`, evicting the
    /// set's least recently used line when it is full.
    fn fill(
        &mut self,
        si: usize,
        key: K,
        value: V,
        dirty: bool,
        tick: u64,
    ) -> Option<Eviction<K, V>> {
        let ways = self.ways;
        let set = &mut self.sets[si];
        let victim = (set.len() == ways).then(|| {
            let (vi, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.used)
                .expect("set is non-empty");
            let v = set.swap_remove(vi);
            Eviction {
                key: v.key,
                value: v.value,
                dirty: v.dirty,
            }
        });
        set.push(Way {
            key,
            value,
            dirty,
            used: tick,
        });
        victim
    }

    /// Records a use of `key` whose dirty bit becomes `dirty` (clean =
    /// its current value just persisted), inserting it on a miss.
    /// Returns whether it hit, plus the victim a miss evicted. One
    /// probe and one LRU tick: the relative LRU order, hits, victims
    /// and dirty bits are those of a `get`, a `clean` on a clean hit,
    /// and an `insert`.
    pub fn touch(&mut self, key: K, value: V, dirty: bool) -> (bool, Option<Eviction<K, V>>) {
        let si = self.set_index(&key);
        let tick = self.bump();
        if let Some(w) = self.sets[si].iter_mut().find(|w| w.key == key) {
            w.value = value;
            w.dirty = dirty;
            w.used = tick;
            return (true, None);
        }
        (false, self.fill(si, key, value, dirty, tick))
    }

    /// Removes `key`, returning its payload and dirty bit.
    pub fn invalidate(&mut self, key: &K) -> Option<(V, bool)> {
        let si = self.set_index(key);
        let set = &mut self.sets[si];
        let pos = set.iter().position(|w| w.key == *key)?;
        let w = set.swap_remove(pos);
        Some((w.value, w.dirty))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all resident `(key, payload, dirty)` triples in
    /// unspecified order. Used when flushing at end of run.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V, bool)> {
        self.sets
            .iter()
            .flatten()
            .map(|w| (&w.key, &w.value, w.dirty))
    }

    /// Drains the cache, yielding every resident line.
    pub fn drain(&mut self) -> Vec<Eviction<K, V>> {
        self.sets
            .iter_mut()
            .flat_map(|s| s.drain(..))
            .map(|w| Eviction {
                key: w.key,
                value: w.value,
                dirty: w.dirty,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hit_and_miss() {
        let mut c: SetAssocCache<u64, u8> = SetAssocCache::new(4, 2);
        assert!(c.get(&1).is_none());
        assert!(c.insert(1, 7, false).is_none());
        assert_eq!(c.get(&1), Some(&7));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct-mapped single set to force eviction order.
        let mut c: SetAssocCache<u8, u8> = SetAssocCache::new(1, 2);
        c.insert(1, 1, false);
        c.insert(2, 2, false);
        c.get(&1); // 2 becomes LRU
        let ev = c.insert(3, 3, false).expect("set is full");
        assert_eq!(ev.key, 2);
        assert!(c.peek(&1).is_some());
        assert!(c.peek(&3).is_some());
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c: SetAssocCache<u8, u8> = SetAssocCache::new(1, 1);
        c.insert(1, 1, true);
        let ev = c.insert(2, 2, false).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.value, 1);
    }

    #[test]
    fn update_existing_ors_dirty() {
        let mut c: SetAssocCache<u8, u8> = SetAssocCache::new(1, 2);
        c.insert(1, 1, true);
        assert!(c.insert(1, 5, false).is_none());
        assert!(c.is_dirty(&1));
        assert_eq!(c.peek(&1), Some(&5));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clean_clears_dirty_keeps_line() {
        let mut c: SetAssocCache<u8, u8> = SetAssocCache::new(1, 2);
        c.insert(1, 1, true);
        c.clean(&1);
        assert!(!c.is_dirty(&1));
        assert_eq!(c.peek(&1), Some(&1));
    }

    #[test]
    fn get_mut_marks_dirty() {
        let mut c: SetAssocCache<u8, u8> = SetAssocCache::new(1, 2);
        c.insert(1, 1, false);
        *c.get_mut(&1, true).unwrap() = 9;
        assert!(c.is_dirty(&1));
        assert_eq!(c.peek(&1), Some(&9));
    }

    #[test]
    fn invalidate_removes() {
        let mut c: SetAssocCache<u8, u8> = SetAssocCache::new(2, 2);
        c.insert(1, 1, true);
        assert_eq!(c.invalidate(&1), Some((1, true)));
        assert!(c.peek(&1).is_none());
        assert_eq!(c.invalidate(&1), None);
    }

    #[test]
    fn drain_yields_everything() {
        let mut c: SetAssocCache<u8, u8> = SetAssocCache::new(2, 2);
        for i in 0..4 {
            c.insert(i, i, i % 2 == 0);
        }
        // Hashing may map several keys to one set and evict; drain must
        // yield exactly what is resident.
        let resident = c.len();
        assert!(resident >= 2);
        let drained = c.drain();
        assert_eq!(drained.len(), resident);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut c: SetAssocCache<u8, u8> = SetAssocCache::new(1, 2);
        c.insert(1, 1, false);
        c.insert(2, 2, false);
        c.peek(&1); // must NOT refresh: 1 stays LRU
        let ev = c.insert(3, 3, false).unwrap();
        assert_eq!(ev.key, 1);
    }

    #[test]
    fn capacity_respected() {
        let mut c: SetAssocCache<u64, ()> = SetAssocCache::new(8, 2);
        for i in 0..1000 {
            c.insert(i, (), false);
        }
        assert!(c.len() <= 16);
    }

    #[test]
    #[should_panic]
    fn zero_ways_rejected() {
        let _: SetAssocCache<u8, u8> = SetAssocCache::new(1, 0);
    }

    /// The metadata cache's former touch: a `get`, a `clean` on a
    /// clean hit, and an `insert` — three probes and two LRU ticks.
    fn touch_by_parts(
        c: &mut SetAssocCache<u8, ()>,
        key: u8,
        dirty: bool,
    ) -> (bool, Option<Eviction<u8, ()>>) {
        let hit = c.get(&key).is_some();
        if hit && !dirty {
            c.clean(&key);
        }
        (hit, c.insert(key, (), dirty))
    }

    fn resident(c: &SetAssocCache<u8, ()>) -> Vec<(u8, bool)> {
        let mut lines: Vec<(u8, bool)> = c.iter().map(|(k, _, d)| (*k, d)).collect();
        lines.sort_unstable();
        lines
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// `touch` is the three-call sequence it replaced: the same hits,
        /// victims and dirty bits at every step — with plain `insert`s
        /// and dirtying `get_mut`s from other users interleaved — and the
        /// same LRU order afterwards, read off the order in which fresh
        /// keys evict what is left.
        #[test]
        fn touch_matches_get_clean_insert(
            steps in prop::collection::vec((0u8..24, prop::bool::ANY, 0u8..8), 1..200),
            sets in 1usize..4,
            ways in 1usize..5,
        ) {
            let mut old: SetAssocCache<u8, ()> = SetAssocCache::new(sets, ways);
            let mut new: SetAssocCache<u8, ()> = SetAssocCache::new(sets, ways);
            for (key, dirty, op) in steps {
                match op {
                    0 => prop_assert_eq!(old.insert(key, (), dirty), new.insert(key, (), dirty)),
                    1 => prop_assert_eq!(
                        old.get_mut(&key, dirty).is_some(),
                        new.get_mut(&key, dirty).is_some()
                    ),
                    _ => prop_assert_eq!(touch_by_parts(&mut old, key, dirty), new.touch(key, (), dirty)),
                }
                prop_assert_eq!(resident(&old), resident(&new));
            }
            for fresh in 100u8..(100 + (sets * ways * 4) as u8) {
                prop_assert_eq!(old.insert(fresh, (), false), new.insert(fresh, (), false));
            }
        }
    }
}
