//! The Bloom filter of the two-pass hash-table baseline.
//!
//! The two-pass hash-table pipeline (paper §2.2) exchanges bare k-mers in its first
//! pass and inserts them into a Bloom filter on the destination rank; only k-mers seen
//! at least twice survive into the hash table, which filters out most sequencing-error
//! singletons at the cost of an extra exchange round. HySortK needs no filter — the
//! sorting approach makes singleton removal a by-product of the linear scan — but
//! [`crate::hashtable`] reproduces the classic design, including its memory footprint.

use hysortk_supermer::mmer::murmur3_x64_128;

/// Derive the `i`-th of `k` hash values from a 128-bit base hash (Kirsch–Mitzenmacher
/// double hashing).
#[inline]
fn nth_hash(h1: u64, h2: u64, i: u64) -> u64 {
    h1.wrapping_add(i.wrapping_mul(h2))
        .wrapping_add(i.wrapping_mul(i))
}

/// A standard Bloom filter over byte-slice items.
#[derive(Debug, Clone)]
pub(crate) struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    num_hashes: u32,
}

impl BloomFilter {
    /// Build a filter sized for `expected_items` at the requested false-positive rate.
    pub(crate) fn with_rate(expected_items: usize, fp_rate: f64) -> Self {
        let n = expected_items.max(1) as f64;
        let p = fp_rate.clamp(1e-9, 0.5);
        let ln2 = std::f64::consts::LN_2;
        let num_bits = ((-n * p.ln()) / (ln2 * ln2)).ceil().max(64.0) as usize;
        let num_hashes = ((num_bits as f64 / n) * ln2).round().clamp(1.0, 16.0) as u32;
        // Round the bit count up to a multiple of 64 (one machine word).
        let num_bits = num_bits.div_ceil(64) * 64;
        BloomFilter {
            bits: vec![0u64; num_bits / 64],
            num_bits,
            num_hashes,
        }
    }

    /// Size of the bit array in bytes (used for peak-memory accounting).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    #[inline]
    fn positions<'a>(&'a self, item: &[u8]) -> impl Iterator<Item = usize> + 'a {
        let (h1, h2) = murmur3_x64_128(item, 0xb100f);
        let n = self.num_bits as u64;
        (0..u64::from(self.num_hashes)).map(move |i| (nth_hash(h1, h2, i) % n) as usize)
    }

    /// Insert an item, returning whether it was (probably) already present — i.e. all of
    /// its bits were already set. The two-pass pipeline uses this return value to decide
    /// which k-mers are non-singletons.
    pub(crate) fn insert(&mut self, item: &[u8]) -> bool {
        let positions: Vec<usize> = self.positions(item).collect();
        let mut already = true;
        for pos in positions {
            let (w, b) = (pos / 64, pos % 64);
            if self.bits[w] & (1u64 << b) == 0 {
                already = false;
                self.bits[w] |= 1u64 << b;
            }
        }
        already
    }

    /// Membership query (false positives possible, false negatives impossible).
    #[cfg(test)]
    fn contains(&self, item: &[u8]) -> bool {
        self.positions(item)
            .all(|pos| self.bits[pos / 64] & (1u64 << (pos % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::with_rate(10_000, 0.01);
        for i in 0..10_000u64 {
            bf.insert(&i.to_le_bytes());
        }
        for i in 0..10_000u64 {
            assert!(bf.contains(&i.to_le_bytes()), "false negative for {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_design_point() {
        let n = 20_000;
        let mut bf = BloomFilter::with_rate(n, 0.01);
        for i in 0..n as u64 {
            bf.insert(&i.to_le_bytes());
        }
        let mut fp = 0usize;
        let probes = 20_000u64;
        for i in 0..probes {
            if bf.contains(&(i + 1_000_000).to_le_bytes()) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.03, "false positive rate too high: {rate}");
    }

    #[test]
    fn insert_reports_probable_duplicates() {
        let mut bf = BloomFilter::with_rate(1_000, 0.01);
        assert!(!bf.insert(b"ACGTACGTACGT"));
        assert!(bf.insert(b"ACGTACGTACGT"));
    }
}
