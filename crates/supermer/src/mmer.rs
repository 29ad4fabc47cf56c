//! m-mer extraction and scoring.
//!
//! An m-mer is a length-m subsequence (m < k). HySortK scores every m-mer with
//! MurmurHash3 and calls the lowest-scoring m-mer of a k-mer its *minimizer*; the same
//! hash value (mod the number of targets) then decides the k-mer's destination (§3.2).
//! Scoring the **canonical** form of each m-mer (the smaller of the m-mer and its
//! reverse complement) makes the minimizer — and therefore the destination — identical
//! for a k-mer and its reverse complement, which is what makes canonical counting
//! correct across ranks.

use hysortk_dna::sequence::DnaSeq;

pub use crate::murmur3::{fmix64, hash_mmer, murmur3_x64_128};

/// The m-mer score function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreFunction {
    /// MurmurHash3 of the canonical packed m-mer (HySortK's choice).
    Hash {
        /// Hash seed (changing it re-shuffles the partition).
        seed: u32,
    },
    /// The canonical packed m-mer value itself (lexicographic ordering, the classic
    /// KMC/MSP choice). Kept for the load-balance comparison in §3.2.
    Lexicographic,
}

impl ScoreFunction {
    /// Score a canonical packed m-mer.
    #[inline]
    pub fn score(&self, canonical_packed: u64) -> u64 {
        match self {
            ScoreFunction::Hash { seed } => hash_mmer(canonical_packed, *seed),
            ScoreFunction::Lexicographic => canonical_packed,
        }
    }
}

/// Rolling extractor of canonical m-mers and their scores over a sequence.
#[derive(Debug, Clone)]
pub struct MmerScorer {
    m: usize,
    score_fn: ScoreFunction,
}

/// One scored m-mer occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoredMmer {
    /// Index of the m-mer within the read (0-based; the m-mer covers bases
    /// `index..index + m`).
    pub index: usize,
    /// Canonical packed value (2 bits per base, right-aligned).
    pub canonical: u64,
    /// Score under the configured score function (lower is better).
    pub score: u64,
}

impl MmerScorer {
    /// Create a scorer for m-mers of length `m` (1 ≤ m ≤ 32).
    pub fn new(m: usize, score_fn: ScoreFunction) -> Self {
        assert!((1..=32).contains(&m), "m must be in 1..=32");
        MmerScorer { m, score_fn }
    }

    /// The m-mer length.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The configured score function.
    pub fn score_fn(&self) -> ScoreFunction {
        self.score_fn
    }

    /// Score every m-mer of `seq` in order. Returns an empty vector if the sequence is
    /// shorter than m.
    pub fn score_sequence(&self, seq: &DnaSeq) -> Vec<ScoredMmer> {
        let m = self.m;
        let n = seq.len();
        if n < m {
            return Vec::new();
        }
        let mask: u64 = if m == 32 {
            u64::MAX
        } else {
            (1u64 << (2 * m)) - 1
        };
        let mut fwd: u64 = 0;
        let mut rev: u64 = 0;
        let mut out = Vec::with_capacity(n - m + 1);
        for i in 0..n {
            let code = u64::from(seq.get_code(i));
            fwd = ((fwd << 2) | code) & mask;
            rev = (rev >> 2) | ((3 - code) << (2 * (m - 1)));
            if i + 1 >= m {
                let canonical = fwd.min(rev);
                let index = i + 1 - m;
                out.push(ScoredMmer {
                    index,
                    canonical,
                    score: self.score_fn.score(canonical),
                });
            }
        }
        out
    }
}

/// Convenience: the canonical packed m-mers of a sequence (without scores).
pub fn canonical_mmers(seq: &DnaSeq, m: usize) -> Vec<u64> {
    MmerScorer::new(m, ScoreFunction::Lexicographic)
        .score_sequence(seq)
        .into_iter()
        .map(|s| s.canonical)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_dna::sequence::DnaSeq;

    fn pack(seq: &str) -> u64 {
        seq.bytes().fold(0u64, |acc, c| {
            (acc << 2) | u64::from(hysortk_dna::encode_base(c))
        })
    }

    #[test]
    fn forward_packing_matches_manual_packing() {
        let seq = DnaSeq::from_ascii(b"ACGTGA");
        let scorer = MmerScorer::new(3, ScoreFunction::Lexicographic);
        let scored = scorer.score_sequence(&seq);
        assert_eq!(scored.len(), 4);
        // First 3-mer is ACG; its reverse complement is CGT; canonical = min.
        assert_eq!(scored[0].canonical, pack("ACG").min(pack("CGT")));
        assert_eq!(scored[0].index, 0);
    }

    #[test]
    fn canonical_mmers_are_strand_invariant() {
        let fwd = DnaSeq::from_ascii(b"ACGTTGCAACGTGGGTTTAAACC");
        let rev = fwd.reverse_complement();
        let m = 7;
        let mut a = canonical_mmers(&fwd, m);
        let mut b = canonical_mmers(&rev, m);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn too_short_sequences_produce_nothing() {
        let seq = DnaSeq::from_ascii(b"ACG");
        assert!(MmerScorer::new(5, ScoreFunction::Hash { seed: 1 })
            .score_sequence(&seq)
            .is_empty());
    }

    #[test]
    fn hash_scores_differ_from_lexicographic_scores() {
        let seq = DnaSeq::from_ascii(b"ACGTACGTACGTACGTACGT");
        let lex = MmerScorer::new(9, ScoreFunction::Lexicographic).score_sequence(&seq);
        let hash = MmerScorer::new(9, ScoreFunction::Hash { seed: 0 }).score_sequence(&seq);
        assert_eq!(lex.len(), hash.len());
        // The canonical values agree; the scores do not (hashing decorrelates them).
        assert!(lex
            .iter()
            .zip(&hash)
            .all(|(a, b)| a.canonical == b.canonical));
        assert!(lex.iter().zip(&hash).any(|(a, b)| a.score != b.score));
    }

    #[test]
    fn m_equals_32_does_not_overflow() {
        let long: Vec<u8> = (0..64).map(|i| b"ACGT"[(i * 5 + 1) % 4]).collect();
        let seq = DnaSeq::from_ascii(&long);
        let scored = MmerScorer::new(32, ScoreFunction::Hash { seed: 3 }).score_sequence(&seq);
        assert_eq!(scored.len(), 64 - 32 + 1);
    }

    #[test]
    #[should_panic(expected = "m must be in 1..=32")]
    fn oversized_m_panics() {
        MmerScorer::new(33, ScoreFunction::Lexicographic);
    }
}
