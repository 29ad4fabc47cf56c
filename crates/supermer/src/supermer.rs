//! Supermer construction and destination assignment.
//!
//! Consecutive k-mers of a read that map to the same destination are shipped as a single
//! *supermer* — the contiguous stretch of bases covering all of them — so their
//! overlapping `k - 1` bases are never transmitted twice (§2.4). The destination of a
//! k-mer is `hash(minimizer) mod targets` (§3.2); because the same hash provides both
//! the minimizer score and the destination, hash collisions between the m-mers of one
//! k-mer cannot send equal-valued k-mers to different targets.

use crate::minimizer::{minimizers_deque, MinimizerRun};
use crate::mmer::MmerScorer;
use hysortk_dna::kmer::KmerCode;
use hysortk_dna::readset::Read;
use hysortk_dna::sequence::DnaSeq;

/// Length byte that announces a four-byte length: a supermer of this many bases or more
/// does not fit the one-byte header.
pub const LONG_SUPERMER: u8 = u8::MAX;

/// Bytes a supermer of `len` bases occupies in an exchange block — the one definition
/// the encoder, the decoder's tests and the modeled figures share. With `provenance`
/// (extension runs) the header is `(read id, start, length)` as three `u32`s; without,
/// it is one length byte, followed by a `u32` length when that byte is
/// [`LONG_SUPERMER`]. The bases follow, four per byte.
pub fn supermer_wire_len(len: usize, provenance: bool) -> usize {
    let header = match (provenance, len < usize::from(LONG_SUPERMER)) {
        (true, _) => 12,
        (false, true) => 1,
        (false, false) => 5,
    };
    header + len.div_ceil(4)
}

/// A supermer: a contiguous run of bases of one read whose k-mers all share a target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supermer {
    /// Id of the read the supermer was cut from.
    pub read_id: u32,
    /// Offset of the first base within the read.
    pub start: u32,
    /// The packed bases (length ≥ k).
    pub seq: DnaSeq,
    /// Destination target (task id in HySortK; rank id in the simpler pipelines).
    pub target: u32,
}

impl Supermer {
    /// Number of k-mers contained for a given k.
    pub fn num_kmers(&self, k: usize) -> usize {
        self.seq.num_kmers(k)
    }

    /// Bytes this supermer occupies on the wire, with or without its provenance
    /// header ([`supermer_wire_len`]).
    pub fn wire_bytes(&self, provenance: bool) -> usize {
        supermer_wire_len(self.seq.len(), provenance)
    }

    /// Extract the canonical k-mers (with their absolute positions in the read).
    pub fn canonical_kmers_with_pos<K: KmerCode>(&self, k: usize) -> Vec<(K, u32)> {
        self.seq
            .kmers::<K>(k)
            .enumerate()
            .map(|(i, km)| (km.canonical(k), self.start + i as u32))
            .collect()
    }
}

/// Build the supermers of one read for `targets` destinations.
///
/// `scorer` fixes m and the score function; `k` is the k-mer length. Reads shorter than
/// k yield no supermers.
pub fn build_supermers(read: &Read, k: usize, scorer: &MmerScorer, targets: u32) -> Vec<Supermer> {
    assert!(targets > 0, "at least one target required");
    let runs = minimizers_deque(&read.seq, k, scorer);
    group_runs_into_supermers(read, k, &runs, targets)
}

fn group_runs_into_supermers(
    read: &Read,
    k: usize,
    runs: &[MinimizerRun],
    targets: u32,
) -> Vec<Supermer> {
    let mut out = Vec::new();
    if runs.is_empty() {
        return out;
    }
    let target_of = |run: &MinimizerRun| (run.score % u64::from(targets)) as u32;

    let mut group_start = 0usize; // index into runs
    let mut current_target = target_of(&runs[0]);
    for i in 1..=runs.len() {
        let boundary = i == runs.len() || target_of(&runs[i]) != current_target;
        if boundary {
            let first_kmer = runs[group_start].kmer_index;
            let last_kmer = runs[i - 1].kmer_index;
            let start = first_kmer;
            let end = last_kmer + k; // exclusive, in bases
                                     // Word-level subrange copy: 32 bases per shift/OR instead of per-base pushes.
            let seq = read.seq.subseq(start, end - start);
            out.push(Supermer {
                read_id: read.id,
                start: start as u32,
                seq,
                target: current_target,
            });
            if i < runs.len() {
                group_start = i;
                current_target = target_of(&runs[i]);
            }
        }
    }
    out
}

/// Statistics describing how evenly a partitioning spreads k-mers over targets
/// (used to reproduce the §3.2 load-balance comparison between the hash score and the
/// lexicographic score).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionStats {
    /// k-mers assigned to each target.
    pub per_target: Vec<u64>,
    /// Mean k-mers per target.
    pub mean: f64,
    /// Standard deviation of the per-target counts.
    pub std_dev: f64,
    /// Max/min ratio (∞ becomes `f64::INFINITY` if a target received nothing).
    pub max_min_ratio: f64,
}

/// Compute partition statistics from per-target k-mer counts.
pub fn partition_stats(per_target: &[u64]) -> PartitionStats {
    assert!(!per_target.is_empty());
    let n = per_target.len() as f64;
    let mean = per_target.iter().sum::<u64>() as f64 / n;
    let var = per_target
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    let max = *per_target.iter().max().unwrap() as f64;
    let min = *per_target.iter().min().unwrap() as f64;
    PartitionStats {
        per_target: per_target.to_vec(),
        mean,
        std_dev: var.sqrt(),
        max_min_ratio: if min == 0.0 { f64::INFINITY } else { max / min },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmer::ScoreFunction;
    use hysortk_dna::kmer::Kmer1;
    use hysortk_dna::readset::Read;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_read(id: u32, len: usize, seed: u64) -> Read {
        let mut rng = StdRng::seed_from_u64(seed);
        let bases: Vec<u8> = (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
        Read::from_ascii(id, format!("r{id}"), &bases)
    }

    fn scorer(m: usize) -> MmerScorer {
        MmerScorer::new(m, ScoreFunction::Hash { seed: 31 })
    }

    #[test]
    fn supermers_cover_every_kmer_exactly_once() {
        let read = random_read(3, 1000, 7);
        let k = 31;
        let supermers = build_supermers(&read, k, &scorer(13), 64);
        let total: usize = supermers.iter().map(|s| s.num_kmers(k)).sum();
        assert_eq!(total, read.seq.num_kmers(k));

        // The multiset of canonical k-mers must be identical to direct extraction.
        let mut from_supermers: Vec<Kmer1> = supermers
            .iter()
            .flat_map(|s| {
                s.canonical_kmers_with_pos::<Kmer1>(k)
                    .into_iter()
                    .map(|(km, _)| km)
            })
            .collect();
        let mut direct: Vec<Kmer1> = read.seq.canonical_kmers(k).collect();
        from_supermers.sort();
        direct.sort();
        assert_eq!(from_supermers, direct);
    }

    #[test]
    fn kmers_inside_a_supermer_share_its_target() {
        let read = random_read(0, 600, 11);
        let k = 31;
        let m = 13;
        let targets = 16u32;
        let sc = scorer(m);
        let supermers = build_supermers(&read, k, &sc, targets);
        // Re-derive the destination of every k-mer independently and compare.
        let runs = minimizers_deque(&read.seq, k, &sc);
        for s in &supermers {
            for (i, _) in s.seq.kmers::<Kmer1>(k).enumerate() {
                let kmer_index = s.start as usize + i;
                let run = &runs[kmer_index];
                assert_eq!((run.score % u64::from(targets)) as u32, s.target);
            }
        }
    }

    #[test]
    fn positions_recorded_match_the_read() {
        let read = random_read(5, 400, 13);
        let k = 21;
        let supermers = build_supermers(&read, k, &scorer(9), 8);
        for s in &supermers {
            for (km, pos) in s.canonical_kmers_with_pos::<Kmer1>(k) {
                // Extract the k-mer directly from the read at `pos` and canonicalise.
                let mut direct = Kmer1::zero();
                for p in pos as usize..pos as usize + k {
                    direct = direct.push_base(k, read.seq.get_code(p));
                }
                assert_eq!(km, direct.canonical(k));
            }
        }
    }

    #[test]
    fn supermer_compression_saves_a_lot_of_traffic() {
        // §3.2: the supermer strategy reduced communication by ~80 % at k = 31.
        let read = random_read(1, 20_000, 5);
        let k = 31;
        let supermers = build_supermers(&read, k, &scorer(13), 256);
        let supermer_bytes: usize = supermers.iter().map(|s| s.wire_bytes(false)).sum();
        let naive_bytes = read.seq.num_kmers(k) * 8; // one packed word per k-mer
        let saving = 1.0 - supermer_bytes as f64 / naive_bytes as f64;
        assert!(saving > 0.6, "supermer saving only {saving:.2}");
    }

    #[test]
    fn short_reads_produce_no_supermers() {
        let read = random_read(9, 20, 3);
        assert!(build_supermers(&read, 31, &scorer(13), 4).is_empty());
    }

    #[test]
    fn hash_score_balances_targets_better_than_lexicographic() {
        // §3.2: the Murmur-based score yields a far more even partition than the
        // lexicographic score.
        let reads: Vec<Read> = (0..40)
            .map(|i| random_read(i, 2_000, 100 + u64::from(i)))
            .collect();
        let targets = 64u32;
        let k = 31;
        let count = |score_fn: ScoreFunction| {
            let sc = MmerScorer::new(13, score_fn);
            let mut per_target = vec![0u64; targets as usize];
            for r in &reads {
                for s in build_supermers(r, k, &sc, targets) {
                    per_target[s.target as usize] += s.num_kmers(k) as u64;
                }
            }
            partition_stats(&per_target)
        };
        let hash_stats = count(ScoreFunction::Hash { seed: 31 });
        let lex_stats = count(ScoreFunction::Lexicographic);
        assert!(
            hash_stats.std_dev * 2.0 < lex_stats.std_dev,
            "hash σ={} lex σ={}",
            hash_stats.std_dev,
            lex_stats.std_dev
        );
        assert!(hash_stats.max_min_ratio < lex_stats.max_min_ratio);
    }

    #[test]
    fn partition_stats_basic_properties() {
        let stats = partition_stats(&[10, 10, 10, 10]);
        assert_eq!(stats.std_dev, 0.0);
        assert_eq!(stats.max_min_ratio, 1.0);
        let skewed = partition_stats(&[0, 20]);
        assert!(skewed.max_min_ratio.is_infinite());
    }
}
