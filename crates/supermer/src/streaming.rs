//! Fused, allocation-free supermer extraction (streaming stage 1).
//!
//! [`build_supermers`](crate::supermer::build_supermers) runs three passes over a read
//! and materialises three heap structures: every scored m-mer
//! ([`score_sequence`](crate::mmer::MmerScorer::score_sequence)), every k-mer's
//! minimizer ([`minimizers_deque`](crate::minimizer::minimizers_deque), via a heap
//! `VecDeque`), and finally the supermer base copies. [`for_each_supermer`] fuses all
//! three into **one** segmented pass: canonical m-mer scores are produced in bulk by
//! the SIMD kernel in [`crate::simd`], the sliding-window minimum comes from a
//! branchless van Herk–Gil-Werman two-scan (three `min`s per m-mer, no
//! data-dependent deque traffic), and supermer spans are emitted through a callback
//! the moment their destination run ends. The only state is a reusable
//! [`SupermerScratch`] holding two cache-resident segment buffers, so a thread
//! parsing millions of reads allocates them once.
//!
//! The vec-based pipeline is kept as the reference implementation; the property tests
//! assert both produce byte-identical supermers.

use crate::mmer::MmerScorer;
use hysortk_dna::sequence::DnaSeq;

/// Reusable per-thread scratch of the streaming extractor: the segment score buffer
/// and its blockwise suffix minima (both a few KiB, cache-resident). Construct once,
/// pass to every [`for_each_supermer`] call on the same thread.
#[derive(Debug, Clone, Default)]
pub struct SupermerScratch {
    scores: Vec<u64>,
    suffix: Vec<u64>,
}

impl SupermerScratch {
    /// Fresh scratch (allocates nothing until first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// One supermer span emitted by [`for_each_supermer`]: the read-relative base range
/// `start..end` (always ≥ k bases) whose k-mers all map to `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupermerSpan {
    /// First base of the supermer within the read.
    pub start: u32,
    /// One past the last base within the read.
    pub end: u32,
    /// Destination target of every k-mer in the span.
    pub target: u32,
}

impl SupermerSpan {
    /// Length of the span in bases.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Spans always cover at least one k-mer, so they are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of k-mers the span covers.
    #[inline]
    pub fn num_kmers(&self, k: usize) -> usize {
        self.len() + 1 - k
    }
}

/// Number of k-mers (windows) processed per segment. Each segment scores
/// `SEGMENT_KMERS + window - 1` m-mers into the scratch buffer (re-scoring the
/// `window - 1` overlap with the next segment, a sub-percent overhead), so the working
/// set stays a few tens of KiB regardless of read length.
const SEGMENT_KMERS: usize = 4096;

/// Stream the supermers of `seq` for `targets` destinations in one fused pass.
///
/// Equivalent to [`build_supermers`](crate::supermer::build_supermers) — same spans,
/// same targets, same order — but scoring, window minimisation and run grouping happen
/// in one segmented pass whose only buffers live in `scratch` (reused across calls).
/// m-mer scores are computed in bulk per segment by the SIMD kernel in [`crate::simd`]
/// (AVX2 when available, scalar otherwise — byte-identical either way), and the
/// sliding-window minimum is a branchless blockwise suffix/prefix two-scan rather
/// than a serial monotone deque. Reads shorter than k emit nothing.
pub fn for_each_supermer(
    seq: &DnaSeq,
    k: usize,
    scorer: &MmerScorer,
    targets: u32,
    scratch: &mut SupermerScratch,
    mut emit: impl FnMut(SupermerSpan),
) {
    let m = scorer.m();
    assert!(m <= k, "m must not exceed k");
    assert!(targets > 0, "at least one target required");
    let n = seq.len();
    if n < k {
        return;
    }
    debug_assert!(n <= u32::MAX as usize, "read longer than u32 indices");
    let score_fn = scorer.score_fn();
    let window = k - m + 1;

    let words = seq.words();
    let num_kmers = n + 1 - k;
    // Destination assignment is one modulo per k-mer; for the common power-of-two
    // target counts it reduces to a mask (a 64-bit division costs tens of cycles).
    let targets64 = u64::from(targets);
    let target_mask = if targets.is_power_of_two() {
        Some(targets64 - 1)
    } else {
        None
    };
    let seg_cap = SEGMENT_KMERS.min(num_kmers) + window - 1;
    if scratch.scores.len() < seg_cap {
        scratch.scores.resize(seg_cap, 0);
        scratch.suffix.resize(seg_cap, 0);
    }
    let mut run_start = 0u32;
    let mut run_target = 0u32;
    let mut in_run = false;

    // The window minimum is computed with the van Herk–Gil-Werman two-scan scheme
    // instead of a monotone deque: split each segment's score buffer into blocks of
    // `window`, precompute blockwise *suffix* minima right-to-left, roll blockwise
    // *prefix* minima left-to-right inside the main loop, and every window's minimum
    // is `min(suffix[t], prefix[t + window - 1])` — the window always spans the tail
    // of one block plus the head of the next. Three branchless `min`s per m-mer
    // replace the deque's data-dependent push/pop/expire loops, and only the *score*
    // of the winner is needed downstream (targets hash the score, not the index), so
    // tie-breaking order is irrelevant and the spans stay byte-identical.
    let mut g = 0usize; // global index of the segment's first k-mer
    while g < num_kmers {
        let seg_kmers = (num_kmers - g).min(SEGMENT_KMERS);
        let seg_len = seg_kmers + window - 1; // m-mer scores the segment needs
        let scores = &mut scratch.scores[..seg_len];
        crate::simd::fill_scores(words, g, seg_len, m, score_fn, scores);
        let scores = &scratch.scores[..seg_len];
        let suffix = &mut scratch.suffix[..seg_len];
        let mut block_start = 0usize;
        while block_start < seg_len {
            let block_end = (block_start + window).min(seg_len);
            let mut run = u64::MAX;
            for j in (block_start..block_end).rev() {
                run = run.min(scores[j]);
                suffix[j] = run;
            }
            block_start = block_end;
        }
        let suffix = &scratch.suffix[..seg_len];

        // Warm the prefix over block 0's first `window - 1` scores, then walk the
        // windows: at local window t, the prefix cursor sits on score t + window - 1
        // and resets whenever it crosses into a new block — at t = 1 (cursor hits
        // block 1) and every `window` steps after.
        let mut prefix = u64::MAX;
        for &s in &scores[..window - 1] {
            prefix = prefix.min(s);
        }
        let mut until_reset = 2usize;
        for (t, (&sfx, &lead)) in suffix[..seg_kmers]
            .iter()
            .zip(&scores[window - 1..])
            .enumerate()
        {
            until_reset -= 1;
            if until_reset == 0 {
                prefix = u64::MAX;
                until_reset = window;
            }
            prefix = prefix.min(lead);
            let min_score = sfx.min(prefix);
            let target = match target_mask {
                Some(mask) => (min_score & mask) as u32,
                None => (min_score % targets64) as u32,
            };
            let kmer_index = (g + t) as u32;
            if !in_run {
                in_run = true;
                run_start = kmer_index;
                run_target = target;
            } else if target != run_target {
                emit(SupermerSpan {
                    start: run_start,
                    end: kmer_index - 1 + k as u32,
                    target: run_target,
                });
                run_start = kmer_index;
                run_target = target;
            }
        }
        g += seg_kmers;
    }
    if in_run {
        emit(SupermerSpan {
            start: run_start,
            end: n as u32,
            target: run_target,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmer::ScoreFunction;
    use crate::supermer::build_supermers;
    use hysortk_dna::readset::Read;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_read(id: u32, len: usize, seed: u64) -> Read {
        let mut rng = StdRng::seed_from_u64(seed);
        let bases: Vec<u8> = (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
        Read::from_ascii(id, format!("r{id}"), &bases)
    }

    /// Materialise streamed spans into full supermers for comparison with the vec path.
    fn streamed_supermers(
        read: &Read,
        k: usize,
        scorer: &MmerScorer,
        targets: u32,
        scratch: &mut SupermerScratch,
    ) -> Vec<crate::supermer::Supermer> {
        let mut out = Vec::new();
        for_each_supermer(&read.seq, k, scorer, targets, scratch, |span| {
            out.push(crate::supermer::Supermer {
                read_id: read.id,
                start: span.start,
                seq: read.seq.subseq(span.start as usize, span.len()),
                target: span.target,
            });
        });
        out
    }

    #[test]
    fn streaming_matches_vec_path_on_random_reads() {
        let mut scratch = SupermerScratch::new();
        for seed in 0..8u64 {
            let read = random_read(seed as u32, 700, seed);
            for (k, m, targets) in [
                (31, 13, 64),
                (17, 7, 7),
                (55, 23, 256),
                (9, 3, 2),
                (21, 21, 5),
            ] {
                let scorer = MmerScorer::new(m, ScoreFunction::Hash { seed: 31 });
                assert_eq!(
                    streamed_supermers(&read, k, &scorer, targets, &mut scratch),
                    build_supermers(&read, k, &scorer, targets),
                    "k={k} m={m} targets={targets} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn streaming_matches_vec_path_on_tie_heavy_scorers() {
        // Lexicographic scoring with tiny m has only 4^m distinct scores, so windows
        // are full of ties — the adversarial case for deque tie-breaking. Low-entropy
        // reads (AT repeats with occasional other bases) make it worse.
        let mut scratch = SupermerScratch::new();
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..10 {
            let bases: Vec<u8> = (0..400)
                .map(|_| {
                    if rng.gen_range(0..5) == 0 {
                        b"ACGT"[rng.gen_range(0..4)]
                    } else {
                        b"AT"[rng.gen_range(0..2)]
                    }
                })
                .collect();
            let read = Read::from_ascii(trial, "tie", &bases);
            for (k, m) in [(15, 2), (31, 1), (11, 3)] {
                for score_fn in [
                    ScoreFunction::Lexicographic,
                    ScoreFunction::Hash { seed: 0 },
                ] {
                    let scorer = MmerScorer::new(m, score_fn);
                    assert_eq!(
                        streamed_supermers(&read, k, &scorer, 16, &mut scratch),
                        build_supermers(&read, k, &scorer, 16),
                        "k={k} m={m} trial={trial} {score_fn:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn reads_shorter_than_k_emit_nothing() {
        let mut scratch = SupermerScratch::new();
        let scorer = MmerScorer::new(9, ScoreFunction::Hash { seed: 1 });
        for len in [0, 1, 8, 20, 30] {
            let read = random_read(0, len, len as u64);
            let mut spans = 0usize;
            for_each_supermer(&read.seq, 31, &scorer, 4, &mut scratch, |_| spans += 1);
            assert_eq!(spans, 0, "len={len}");
        }
        // Exactly k bases: one span covering the whole read.
        let read = random_read(0, 31, 5);
        let mut spans = Vec::new();
        for_each_supermer(&read.seq, 31, &scorer, 4, &mut scratch, |s| spans.push(s));
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].start, spans[0].end), (0, 31));
    }

    #[test]
    fn spans_partition_the_kmers_of_the_read() {
        let mut scratch = SupermerScratch::new();
        let read = random_read(0, 2_000, 13);
        let k = 31;
        let scorer = MmerScorer::new(13, ScoreFunction::Hash { seed: 31 });
        let mut total_kmers = 0usize;
        let mut next_kmer = 0u32;
        for_each_supermer(&read.seq, k, &scorer, 64, &mut scratch, |span| {
            assert_eq!(span.start, next_kmer, "spans must tile the k-mer axis");
            assert!(span.len() >= k);
            total_kmers += span.num_kmers(k);
            next_kmer = span.end - (k as u32 - 1);
        });
        assert_eq!(total_kmers, read.seq.num_kmers(k));
    }

    #[test]
    fn scratch_reuse_across_varying_windows_is_clean() {
        // A large window followed by a small one must not leak stale entries.
        let mut scratch = SupermerScratch::new();
        let read = random_read(3, 300, 21);
        for (k, m) in [(55, 5), (9, 3), (31, 13), (15, 15)] {
            let scorer = MmerScorer::new(m, ScoreFunction::Hash { seed: 9 });
            assert_eq!(
                streamed_supermers(&read, k, &scorer, 32, &mut scratch),
                build_supermers(&read, k, &scorer, 32),
                "k={k} m={m}"
            );
        }
    }
}
