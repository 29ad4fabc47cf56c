//! HyperLogLog cardinality estimator.
//!
//! The conventional distributed k-mer counting pipeline (Georganas et al., paper §2.2)
//! starts by estimating the number of distinct k-mers: each rank builds a HyperLogLog
//! sketch locally, the sketches are merged with an all-reduce (register-wise max), and
//! the merged estimate sizes the Bloom filter used in the first exchange pass. HySortK
//! does not need this stage — that is part of its advantage — but the hash-table
//! baseline ([`crate::hashtable`]) reproduces it faithfully, including the (tiny,
//! k-independent) merge traffic: the sketch's [`Wire`] encoding is its precision and
//! its registers.

use hysortk_dmem::Wire;
use hysortk_supermer::mmer::fmix64;

/// HyperLogLog sketch with `2^precision` one-byte registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Create a sketch. `precision` must be in `4..=16`; the register array has
    /// `2^precision` bytes (the paper's implementations use 12, ~4 KiB).
    pub(crate) fn new(precision: u8) -> Self {
        assert!((4..=16).contains(&precision), "precision out of range");
        HyperLogLog {
            precision,
            registers: vec![0u8; 1 << precision],
        }
    }

    /// Insert a pre-hashed 64-bit item. Callers hash k-mers with
    /// [`crate::hash_kmer`] first; an extra `fmix64` decorrelates the register index
    /// from the rank bits.
    #[inline]
    pub(crate) fn insert_hash(&mut self, hash: u64) {
        let h = fmix64(hash);
        let p = u32::from(self.precision);
        let idx = (h >> (64 - p)) as usize;
        let rest = h << p;
        // Number of leading zeros of the remaining bits, plus one; saturates at 64-p+1.
        let rank = if rest == 0 {
            64 - self.precision + 1
        } else {
            (rest.leading_zeros() + 1) as u8
        };
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Merge another sketch into this one (register-wise max). Panics if precisions
    /// differ. This is exactly the reduction operator of the distributed merge.
    pub(crate) fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge sketches of different precision"
        );
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// Cardinality estimate with the standard bias corrections (linear counting for
    /// small ranges, the HLL large-range correction above 2^32/30).
    pub(crate) fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2f64.powi(-i32::from(r)))
            .sum();
        let raw = alpha * m * m / sum;

        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros != 0 {
                // Linear counting.
                return m * (m / zeros as f64).ln();
            }
            raw
        } else if raw <= (1u64 << 32) as f64 / 30.0 {
            raw
        } else {
            let two32 = (1u64 << 32) as f64;
            -two32 * (1.0 - raw / two32).ln()
        }
    }
}

impl Wire for HyperLogLog {
    fn encode(&self, out: &mut Vec<u8>) {
        self.precision.encode(out);
        out.extend_from_slice(&self.registers);
    }

    /// `None` unless the precision is in `4..=16` and `2^precision` register bytes
    /// follow; nothing is allocated before they are known to be there.
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let precision = u8::decode(input)?;
        if !(4..=16).contains(&precision) {
            return None;
        }
        let len = 1usize << precision;
        if input.len() < len {
            return None;
        }
        let (registers, rest) = input.split_at(len);
        *input = rest;
        Some(HyperLogLog {
            precision,
            registers: registers.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_dmem::wire::{from_bytes, to_bytes};
    use hysortk_supermer::mmer::murmur3_x64_128;

    /// The pre-hashed item `i`.
    fn item(i: u64) -> u64 {
        murmur3_x64_128(&i.to_le_bytes(), 0x5eed).0
    }

    fn estimate_of_n_distinct(n: u64, precision: u8) -> f64 {
        let mut hll = HyperLogLog::new(precision);
        for i in 0..n {
            hll.insert_hash(item(i));
        }
        hll.estimate()
    }

    #[test]
    fn small_cardinalities_are_close_to_exact() {
        for &n in &[10u64, 100, 500] {
            let est = estimate_of_n_distinct(n, 12);
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.1, "n={n} est={est} err={err}");
        }
    }

    #[test]
    fn large_cardinalities_within_four_standard_errors() {
        let n = 200_000u64;
        let est = estimate_of_n_distinct(n, 12);
        let err = (est - n as f64).abs() / n as f64;
        // 1.04/sqrt(4096) ≈ 1.6 %; allow 4 sigma.
        assert!(err < 0.065, "est={est} err={err}");
    }

    #[test]
    fn duplicates_do_not_inflate_the_estimate() {
        let mut hll = HyperLogLog::new(10);
        for i in 0..1000u64 {
            for _ in 0..50 {
                hll.insert_hash(item(i));
            }
        }
        let est = hll.estimate();
        assert!((est - 1000.0).abs() / 1000.0 < 0.15, "est={est}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(11);
        let mut b = HyperLogLog::new(11);
        let mut union = HyperLogLog::new(11);
        for i in 0..5_000u64 {
            a.insert_hash(item(i));
            union.insert_hash(item(i));
        }
        for i in 2_500..7_500u64 {
            b.insert_hash(item(i));
            union.insert_hash(item(i));
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merging_mismatched_precisions_panics() {
        let mut a = HyperLogLog::new(10);
        let b = HyperLogLog::new(12);
        a.merge(&b);
    }

    #[test]
    fn wire_size_is_independent_of_inserted_volume() {
        let mut hll = HyperLogLog::new(12);
        let before = to_bytes(&hll).len();
        for i in 0..100_000u64 {
            hll.insert_hash(item(i));
        }
        assert_eq!(to_bytes(&hll).len(), before);
    }

    #[test]
    fn wire_decode_round_trips_and_rejects_malformed_sketches() {
        let mut hll = HyperLogLog::new(4);
        for i in 0..100u64 {
            hll.insert_hash(item(i));
        }
        let bytes = to_bytes(&hll);
        assert_eq!(from_bytes::<HyperLogLog>(&bytes), Some(hll));
        // Every truncation: a missing precision or a short register array.
        for len in 0..bytes.len() {
            assert_eq!(
                from_bytes::<HyperLogLog>(&bytes[..len]),
                None,
                "prefix {len}"
            );
        }
        // Precisions outside 4..=16, including ones whose register count overflows.
        for precision in [0u8, 3, 17, 64, 255] {
            let mut forged = bytes.clone();
            forged[0] = precision;
            assert_eq!(
                from_bytes::<HyperLogLog>(&forged),
                None,
                "precision {precision}"
            );
        }
    }
}
