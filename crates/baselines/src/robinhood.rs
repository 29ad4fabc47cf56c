//! Robin-Hood open-addressing hash table keyed by packed k-mers.
//!
//! The improved kmerind of Pan et al. stores k-mers in cache-optimised Robin-Hood
//! tables (the paper runs its `ROBINHOOD, MURMUR64avx, CRC32C` variant, §4.4). This is a
//! straightforward Robin-Hood implementation: linear probing where an inserting entry
//! displaces any resident entry that is closer to its home slot ("rich"), keeping probe
//! distances short and predictable.

use hysortk_dna::kmer::KmerCode;

use crate::hash_kmer;

#[derive(Debug, Clone, Copy)]
struct Slot<K> {
    key: K,
    value: u64,
    /// Probe distance from the home slot plus one; 0 marks an empty slot.
    dib: u32,
}

/// A Robin-Hood hash table mapping canonical k-mers to counts.
#[derive(Debug, Clone)]
pub struct RobinHoodTable<K: KmerCode> {
    slots: Vec<Slot<K>>,
    mask: usize,
    len: usize,
    max_load: f64,
    seed: u32,
}

impl<K: KmerCode> RobinHoodTable<K> {
    /// Create a table with capacity for roughly `expected` entries at the default load
    /// factor of 0.7 (the figure the paper quotes for hash-table memory overhead).
    pub fn with_expected(expected: usize) -> Self {
        let capacity = ((expected.max(8) as f64 / 0.7).ceil() as usize).next_power_of_two();
        RobinHoodTable {
            slots: vec![
                Slot {
                    key: K::zero(),
                    value: 0,
                    dib: 0
                };
                capacity
            ],
            mask: capacity - 1,
            len: 0,
            max_load: 0.7,
            seed: 0xC0FFEE,
        }
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated capacity in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Resident memory of the table in bytes (slots only).
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot<K>>()
    }

    #[inline]
    fn home(&self, key: &K) -> usize {
        (hash_kmer(key, self.seed) as usize) & self.mask
    }

    /// Add `delta` to the count of `key`, inserting it if absent.
    pub fn add(&mut self, key: K, delta: u64) {
        if (self.len + 1) as f64 > self.slots.len() as f64 * self.max_load {
            self.grow();
        }
        let mut pos = self.home(&key);
        let mut entry = Slot {
            key,
            value: delta,
            dib: 1,
        };
        loop {
            let slot = &mut self.slots[pos];
            if slot.dib == 0 {
                *slot = entry;
                self.len += 1;
                return;
            }
            if slot.key == entry.key && slot.dib > 0 && entry.dib <= slot.dib {
                // Same key can only be met on its own probe path; accumulate.
                slot.value += entry.value;
                return;
            }
            if slot.dib < entry.dib {
                std::mem::swap(slot, &mut entry);
            }
            pos = (pos + 1) & self.mask;
            entry.dib += 1;
        }
    }

    /// Look up the count of `key`.
    pub fn get(&self, key: &K) -> Option<u64> {
        let mut pos = self.home(key);
        let mut dib = 1u32;
        loop {
            let slot = &self.slots[pos];
            if slot.dib == 0 || slot.dib < dib {
                return None;
            }
            if slot.key == *key {
                return Some(slot.value);
            }
            pos = (pos + 1) & self.mask;
            dib += 1;
        }
    }

    fn grow(&mut self) {
        let new_capacity = self.slots.len() * 2;
        let old = std::mem::replace(
            &mut self.slots,
            vec![
                Slot {
                    key: K::zero(),
                    value: 0,
                    dib: 0
                };
                new_capacity
            ],
        );
        self.mask = self.slots.len() - 1;
        self.len = 0;
        for slot in old {
            if slot.dib != 0 {
                self.add(slot.key, slot.value);
            }
        }
    }

    /// Drain the table into a sorted `(key, count)` vector.
    pub fn into_sorted_counts(self) -> Vec<(K, u64)> {
        let mut out: Vec<(K, u64)> = self
            .slots
            .into_iter()
            .filter(|s| s.dib != 0)
            .map(|s| (s.key, s.value))
            .collect();
        out.sort_by_key(|a| a.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_dna::Kmer1;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn random_kmer(rng: &mut StdRng) -> Kmer1 {
        let s: Vec<u8> = (0..21).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
        Kmer1::from_ascii(&s)
    }

    #[test]
    fn add_and_get_match_a_reference_map() {
        let mut rng = StdRng::seed_from_u64(1);
        let keys: Vec<Kmer1> = (0..500).map(|_| random_kmer(&mut rng)).collect();
        let mut table = RobinHoodTable::with_expected(64);
        let mut reference: HashMap<Kmer1, u64> = HashMap::new();
        for _ in 0..20_000 {
            let key = keys[rng.gen_range(0..keys.len())];
            let delta = rng.gen_range(1..4u64);
            table.add(key, delta);
            *reference.entry(key).or_insert(0) += delta;
        }
        assert_eq!(table.len(), reference.len());
        for (k, v) in &reference {
            assert_eq!(table.get(k), Some(*v));
        }
        assert_eq!(
            table
                .get(&Kmer1::from_ascii(b"AAAAAAAAAAAAAAAAAAAAA"))
                .is_some(),
            reference.contains_key(&Kmer1::from_ascii(b"AAAAAAAAAAAAAAAAAAAAA"))
        );
    }

    #[test]
    fn growth_preserves_contents() {
        let mut table = RobinHoodTable::with_expected(8);
        let mut rng = StdRng::seed_from_u64(2);
        let keys: Vec<Kmer1> = (0..5_000).map(|_| random_kmer(&mut rng)).collect();
        for k in &keys {
            table.add(*k, 1);
        }
        for k in &keys {
            assert!(table.get(k).is_some());
        }
        assert!(table.capacity() > 8);
    }

    #[test]
    fn into_sorted_counts_is_sorted_and_complete() {
        let mut table = RobinHoodTable::with_expected(16);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000 {
            table.add(random_kmer(&mut rng), 1);
        }
        let counts = table.clone().into_sorted_counts();
        assert_eq!(counts.len(), table.len());
        assert!(counts.windows(2).all(|w| w[0].0 < w[1].0));
        let total: u64 = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn missing_keys_return_none() {
        let table: RobinHoodTable<Kmer1> = RobinHoodTable::with_expected(8);
        assert!(table.is_empty());
        assert_eq!(
            table.get(&Kmer1::from_ascii(b"ACGTACGTACGTACGTACGTA")),
            None
        );
    }
}
