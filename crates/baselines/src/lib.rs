//! Baseline k-mer counters the paper compares HySortK against.
//!
//! Each baseline re-implements the *strategy* of the corresponding tool on the same
//! substrates (simulated cluster, performance model, synthetic datasets), so the
//! comparisons isolate the algorithmic differences the paper discusses:
//!
//! * [`hashtable`] — the classic two-pass distributed hash-table pipeline of Georganas
//!   et al. (HipMer / ELBA's original counter): HyperLogLog cardinality estimate, Bloom
//!   filter first pass, hash-table second pass (§2.2). The sketch and the filter are
//!   private to it: HySortK itself needs neither.
//! * [`kmerind`] — a one-pass distributed counter with a Robin-Hood open-addressing
//!   table and communication/computation overlap, modelling the improved kmerind of Pan
//!   et al. (§4.4, Figures 7–8), including its out-of-memory behaviour at low node
//!   counts.
//! * [`kmc3`] — a shared-memory sorting-based counter in the spirit of KMC3 (§4.3,
//!   Figure 6): one process, bins by minimizer, per-bin radix sort, no task layer.
//! * [`mhm2`] — the GPU supermer counter of MetaHipMer2 (§4.4, Figure 9), whose GPU
//!   kernels and PCIe transfers are represented by the GPU cost model.
//! * [`robinhood`] — the Robin-Hood hash table used by the kmerind baseline (also a
//!   reusable component in its own right).
//!
//! The hash-based baselines place and probe k-mers with [`hash_kmer`], MurmurHash3 over
//! the packed words.
//!
//! All baselines produce exact counts (verified against the reference counter); what
//! differs is the modeled time, memory and traffic each projects for itself — the same
//! [`Projection`] HySortK's runs get from `hysortk_core::model::project`.

#![forbid(unsafe_code)]

mod bloom;
pub mod hashtable;
mod hyperloglog;
pub mod kmc3;
pub mod kmerind;
pub mod mhm2;
pub mod robinhood;

pub use hashtable::two_pass_hash_count;
pub use kmc3::kmc3_count;
pub use kmerind::{kmerind_count, KmerindOutcome};
pub use mhm2::mhm2_count;
pub use robinhood::RobinHoodTable;

use hysortk_core::result::KmerHistogram;
use hysortk_dna::kmer::KmerCode;
use hysortk_perfmodel::Projection;
use hysortk_supermer::mmer::murmur3_x64_128;

/// Result of a baseline counting run: exact counts plus what the baseline's model
/// projects for it at full scale.
#[derive(Debug, Clone)]
pub struct BaselineResult<K: KmerCode> {
    /// `(canonical k-mer, count)` pairs within the configured band, sorted by k-mer.
    pub counts: Vec<(K, u64)>,
    /// Histogram over all distinct k-mers.
    pub histogram: KmerHistogram,
    /// Modeled time, memory and traffic at full scale.
    pub modeled: Projection,
}

/// Hash a packed k-mer with MurmurHash3 (x64_128, low word): the destination of a k-mer
/// in the hash-table and kmerind baselines, and the slot hash of [`RobinHoodTable`].
#[inline]
pub fn hash_kmer<K: KmerCode>(kmer: &K, seed: u32) -> u64 {
    let words = kmer.word_slice();
    let mut bytes = [0u8; 16];
    match words.len() {
        1 => {
            bytes[..8].copy_from_slice(&words[0].to_le_bytes());
            murmur3_x64_128(&bytes[..8], seed).0
        }
        _ => {
            bytes[..8].copy_from_slice(&words[0].to_le_bytes());
            bytes[8..16].copy_from_slice(&words[1].to_le_bytes());
            murmur3_x64_128(&bytes[..16], seed).0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_dna::Kmer1;

    #[test]
    fn kmer_hash_is_deterministic_and_spreads() {
        let a = Kmer1::from_ascii(b"ACGTACGTACGTACG");
        let b = Kmer1::from_ascii(b"ACGTACGTACGTACC");
        assert_eq!(hash_kmer(&a, 7), hash_kmer(&a, 7));
        assert_ne!(hash_kmer(&a, 7), hash_kmer(&b, 7));
        assert_ne!(hash_kmer(&a, 7), hash_kmer(&a, 8));
    }

    #[test]
    fn two_word_kmer_hash_uses_both_words() {
        use hysortk_dna::Kmer2;
        let mut s1: Vec<u8> = (0..55).map(|i| b"ACGT"[i % 4]).collect();
        let s2 = s1.clone();
        s1[54] = b'T'; // differs only in the least significant word
        let a = Kmer2::from_ascii(&s1);
        let b = Kmer2::from_ascii(&s2);
        assert_ne!(hash_kmer(&a, 0), hash_kmer(&b, 0));
    }
}
