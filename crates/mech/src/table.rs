//! A small set-associative, LRU-managed lookup table — the building block
//! of almost every mechanism's hardware state (prediction tables, history
//! tables, victim buffers).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A set-associative table mapping `u64` keys to payloads of type `V`,
/// with per-set LRU replacement.
///
/// `ways == 0` means fully associative (a single set). Fully associative
/// tables keep a key index and a recency list beside the slots, so a
/// lookup, insert or remove costs the same at 1024 entries as at 16
/// instead of a scan of every slot. Both layouts make the same choices:
/// every touch takes a fresh clock value, so the least-recently-used
/// entry is unique and the recency list's oldest entry is exactly the
/// minimum-clock slot a scan would pick; a new key takes the lowest free
/// slot either way.
///
/// # Examples
///
/// ```
/// use microlib_mech::AssocTable;
///
/// let mut t: AssocTable<u32> = AssocTable::new(4, 2);
/// t.insert(1, 10);
/// t.insert(2, 20);
/// assert_eq!(t.get(&1), Some(&10));
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct AssocTable<V> {
    sets: usize,
    ways: usize,
    slots: Vec<Option<Slot<V>>>,
    clock: u64,
    /// Present exactly for fully associative tables.
    index: Option<Box<KeyIndex>>,
}

#[derive(Clone, Debug)]
struct Slot<V> {
    key: u64,
    value: V,
    lru: u64,
}

/// Multiply-and-fold hasher for the key index: keys are line addresses,
/// whose low bits are all zero, so the fold moves the well-mixed high
/// half of the product into the bits the map buckets on.
#[derive(Clone, Copy, Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// Null link in the recency list.
const NIL: u32 = u32::MAX;

/// The fully associative table's index: key → slot, a doubly linked
/// recency list over the occupied slots, and an occupancy bitset.
#[derive(Clone, Debug)]
struct KeyIndex {
    slot_of: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    /// Next-older / next-newer occupied slot.
    older: Vec<u32>,
    newer: Vec<u32>,
    /// Least and most recently touched occupied slots.
    oldest: u32,
    newest: u32,
    /// One bit per occupied slot.
    occupied: Vec<u64>,
}

impl KeyIndex {
    fn new(slots: usize) -> Self {
        KeyIndex {
            slot_of: HashMap::with_capacity_and_hasher(slots, Default::default()),
            older: vec![NIL; slots],
            newer: vec![NIL; slots],
            oldest: NIL,
            newest: NIL,
            occupied: vec![0; slots.div_ceil(64)],
        }
    }

    fn unlink(&mut self, s: u32) {
        let (o, n) = (self.older[s as usize], self.newer[s as usize]);
        match o {
            NIL => self.oldest = n,
            o => self.newer[o as usize] = n,
        }
        match n {
            NIL => self.newest = o,
            n => self.older[n as usize] = o,
        }
    }

    fn push_newest(&mut self, s: u32) {
        self.older[s as usize] = self.newest;
        self.newer[s as usize] = NIL;
        match self.newest {
            NIL => self.oldest = s,
            n => self.newer[n as usize] = s,
        }
        self.newest = s;
    }

    fn touch(&mut self, s: u32) {
        if self.newest != s {
            self.unlink(s);
            self.push_newest(s);
        }
    }

    /// Lowest unoccupied slot below `capacity`, if any.
    fn first_free(&self, capacity: usize) -> Option<u32> {
        self.occupied
            .iter()
            .enumerate()
            .find(|(_, w)| **w != u64::MAX)
            .map(|(i, w)| (i * 64) as u32 + w.trailing_ones())
            .filter(|s| (*s as usize) < capacity)
    }

    fn occupy(&mut self, key: u64, s: u32) {
        self.slot_of.insert(key, s);
        self.occupied[s as usize / 64] |= 1 << (s % 64);
        self.push_newest(s);
    }

    fn vacate(&mut self, key: u64) -> Option<u32> {
        let s = self.slot_of.remove(&key)?;
        self.occupied[s as usize / 64] &= !(1 << (s % 64));
        self.unlink(s);
        Some(s)
    }
}

impl<V> AssocTable<V> {
    /// Creates a table of `sets` sets × `ways` ways (`ways == 0` collapses
    /// to one fully associative set of `sets` entries).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two.
    pub fn new(sets: usize, ways: usize) -> Self {
        let index = (ways == 0).then(|| Box::new(KeyIndex::new(sets)));
        let (sets, ways) = if ways == 0 { (1, sets) } else { (sets, ways) };
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be positive");
        AssocTable {
            sets,
            ways,
            slots: (0..sets * ways).map(|_| None).collect(),
            clock: 0,
            index,
        }
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        match &self.index {
            Some(index) => index.slot_of.len(),
            None => self.slots.iter().filter(|s| s.is_some()).count(),
        }
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        // Multiplicative hash spreads structured keys (line addresses).
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (self.sets - 1)
    }

    fn range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// Looks up `key`, refreshing its LRU position.
    pub fn get(&mut self, key: &u64) -> Option<&V> {
        self.get_mut(key).map(|v| &*v)
    }

    /// Mutable lookup, refreshing LRU.
    pub fn get_mut(&mut self, key: &u64) -> Option<&mut V> {
        self.clock += 1;
        let clock = self.clock;
        let slot = match &mut self.index {
            Some(index) => {
                let i = *index.slot_of.get(key)?;
                index.touch(i);
                self.slots[i as usize].as_mut()
            }
            None => {
                let range = self.range(self.set_of(*key));
                self.slots[range]
                    .iter_mut()
                    .flatten()
                    .find(|s| s.key == *key)
            }
        }?;
        slot.lru = clock;
        Some(&mut slot.value)
    }

    /// Lookup without touching replacement state.
    pub fn peek(&self, key: &u64) -> Option<&V> {
        let slot = match &self.index {
            Some(index) => self.slots[*index.slot_of.get(key)? as usize].as_ref(),
            None => self.slots[self.range(self.set_of(*key))]
                .iter()
                .flatten()
                .find(|s| s.key == *key),
        };
        slot.map(|s| &s.value)
    }

    /// Inserts (or replaces) `key`; returns the evicted (key, value) if a
    /// valid entry was displaced.
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        self.clock += 1;
        let clock = self.clock;
        if self.index.is_some() {
            return self.insert_indexed(key, value, clock);
        }
        let set = self.set_of(key);
        let range = self.range(set);
        // Existing entry: replace in place.
        if let Some(slot) = self.slots[range.clone()]
            .iter_mut()
            .flatten()
            .find(|s| s.key == key)
        {
            slot.lru = clock;
            let old = std::mem::replace(&mut slot.value, value);
            return Some((key, old));
        }
        // Free slot.
        if let Some(slot) = self.slots[range.clone()].iter_mut().find(|s| s.is_none()) {
            *slot = Some(Slot {
                key,
                value,
                lru: clock,
            });
            return None;
        }
        // Evict LRU.
        let victim_idx = range
            .clone()
            .min_by_key(|i| self.slots[*i].as_ref().map(|s| s.lru).unwrap_or(0))
            .expect("nonempty range");
        let old = self.slots[victim_idx].take().map(|s| (s.key, s.value));
        self.slots[victim_idx] = Some(Slot {
            key,
            value,
            lru: clock,
        });
        old
    }

    /// [`insert`](Self::insert) for a fully associative table: the same
    /// three cases (replace, lowest free slot, LRU victim) served by the
    /// index.
    fn insert_indexed(&mut self, key: u64, value: V, lru: u64) -> Option<(u64, V)> {
        let index = self.index.as_mut().expect("fully associative table");
        if let Some(&i) = index.slot_of.get(&key) {
            index.touch(i);
            let slot = self.slots[i as usize]
                .as_mut()
                .expect("indexed slot is occupied");
            slot.lru = lru;
            return Some((key, std::mem::replace(&mut slot.value, value)));
        }
        let target = index.first_free(self.slots.len()).unwrap_or(index.oldest);
        let old = self.slots[target as usize].take().map(|s| (s.key, s.value));
        if let Some((victim, _)) = &old {
            index.vacate(*victim);
        }
        index.occupy(key, target);
        self.slots[target as usize] = Some(Slot { key, value, lru });
        old
    }

    /// Removes `key`, returning its payload.
    pub fn remove(&mut self, key: &u64) -> Option<V> {
        if let Some(index) = &mut self.index {
            let i = index.vacate(*key)?;
            return self.slots[i as usize].take().map(|s| s.value);
        }
        let set = self.set_of(*key);
        let range = self.range(set);
        for i in range {
            if self.slots[i]
                .as_ref()
                .map(|s| s.key == *key)
                .unwrap_or(false)
            {
                return self.slots[i].take().map(|s| s.value);
            }
        }
        None
    }

    /// Whether `key` is present (no LRU update).
    pub fn contains(&self, key: &u64) -> bool {
        self.peek(key).is_some()
    }

    /// Clears all entries.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.clock = 0;
        if let Some(index) = &mut self.index {
            **index = KeyIndex::new(self.slots.len());
        }
    }

    /// Iterates over (key, value) pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots.iter().flatten().map(|s| (s.key, &s.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_round_trip() {
        let mut t: AssocTable<&str> = AssocTable::new(8, 2);
        assert!(t.insert(5, "five").is_none());
        assert_eq!(t.get(&5), Some(&"five"));
        assert_eq!(t.peek(&6), None);
        assert!(t.contains(&5));
    }

    #[test]
    fn replace_returns_old_value() {
        let mut t: AssocTable<u32> = AssocTable::new(4, 1);
        t.insert(1, 10);
        let old = t.insert(1, 11);
        assert_eq!(old, Some((1, 10)));
        assert_eq!(t.get(&1), Some(&11));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        // Fully associative with 2 entries.
        let mut t: AssocTable<u32> = AssocTable::new(2, 0);
        t.insert(1, 1);
        t.insert(2, 2);
        t.get(&1); // 2 is now LRU
        let evicted = t.insert(3, 3);
        assert_eq!(evicted, Some((2, 2)));
        assert!(t.contains(&1) && t.contains(&3));
    }

    #[test]
    fn remove_frees_slot() {
        let mut t: AssocTable<u32> = AssocTable::new(1, 0);
        t.insert(9, 99);
        assert_eq!(t.remove(&9), Some(99));
        assert!(t.is_empty());
        assert_eq!(t.remove(&9), None);
    }

    #[test]
    fn capacity_bounds_occupancy() {
        let mut t: AssocTable<u64> = AssocTable::new(4, 2);
        for k in 0..100 {
            t.insert(k, k);
        }
        assert!(t.len() <= t.capacity());
        assert_eq!(t.capacity(), 8);
    }

    #[test]
    fn fully_associative_mode() {
        let mut t: AssocTable<u64> = AssocTable::new(16, 0);
        for k in 0..16 {
            assert!(t.insert(k, k).is_none());
        }
        assert_eq!(t.len(), 16);
        assert!(t.insert(99, 99).is_some(), "17th entry evicts");
    }

    #[test]
    fn clear_empties() {
        let mut t: AssocTable<u8> = AssocTable::new(2, 2);
        t.insert(1, 1);
        t.clear();
        assert!(t.is_empty());
    }

    /// The indexed fully associative table against the same table served
    /// by the plain slot scan (the set-associative path over one set):
    /// every lookup, insert, eviction, remove and clear must agree, down
    /// to which slot each key lands in.
    #[test]
    fn indexed_matches_linear_scan() {
        for capacity in [1usize, 2, 16, 64, 1024] {
            let mut fast: AssocTable<u64> = AssocTable::new(capacity, 0);
            let mut slow = AssocTable {
                index: None,
                ..AssocTable::new(capacity, 0)
            };
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ capacity as u64;
            let keys = (capacity as u64 * 3 / 2).max(4);
            for step in 0..20_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let key = (x >> 8) % keys * 64;
                match x % 100 {
                    0..=39 => assert_eq!(fast.insert(key, step), slow.insert(key, step)),
                    40..=64 => assert_eq!(fast.get(&key), slow.get(&key)),
                    65..=79 => assert_eq!(fast.remove(&key), slow.remove(&key)),
                    80..=89 => assert_eq!(fast.peek(&key), slow.peek(&key)),
                    90..=98 => assert_eq!(fast.contains(&key), slow.contains(&key)),
                    _ if step % 7 == 0 => {
                        fast.clear();
                        slow.clear();
                    }
                    _ => {}
                }
                assert_eq!(fast.len(), slow.len());
                if step % 97 == 0 {
                    assert!(fast.iter().eq(slow.iter()), "slot layouts diverged");
                }
            }
        }
    }
}
