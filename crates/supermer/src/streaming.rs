//! Fused, allocation-free supermer extraction (streaming stage 1).
//!
//! [`build_supermers`](crate::supermer::build_supermers) runs three passes over a read
//! and materialises three heap structures: every scored m-mer
//! ([`score_sequence`](crate::mmer::MmerScorer::score_sequence)), every k-mer's
//! minimizer ([`minimizers_deque`](crate::minimizer::minimizers_deque), via a heap
//! `VecDeque`), and finally the supermer base copies. [`for_each_supermer`] fuses all
//! three into **one** segmented pass that emits supermer spans through a callback the
//! moment their destination run ends. Its only state is a reusable [`SupermerScratch`]
//! of cache-resident segment buffers, so a thread parsing millions of reads allocates
//! them once.
//!
//! A segment's window minima come from one of two paths:
//!
//! * the lane kernel of [`crate::simd`], which scores, minimises and marks where the
//!   minimum changes in eight lanes at once, built for AVX-512 or AVX2 — the tier
//!   [`hysortk_dna::simd`] detected;
//! * the scalar path, for reads too short to repay the lanes' overlap
//!   ([`Tier::pays_for`]), under `HYSORTK_NO_SIMD=1` and on CPUs without AVX2:
//!   canonical m-mer scores for the whole segment, then a branchless van
//!   Herk–Gil-Werman two-scan (three `min`s per m-mer, no data-dependent deque
//!   traffic).
//!
//! Either way a k-mer's target, `minimum % targets`, is only computed where its window
//! minimum differs from the previous k-mer's; elsewhere the target cannot change.
//!
//! The vec-based pipeline is kept as the reference implementation; the property tests
//! assert all paths produce byte-identical supermers.

use crate::mmer::MmerScorer;
use crate::simd::{LaneBuffers, LaneShape, Tier, LANES};
use hysortk_dna::sequence::DnaSeq;

/// Reusable per-thread scratch of the streaming extractor: the scalar path's segment
/// scores and their blockwise suffix minima, and the lane kernel's buffers (each a few
/// tens of KiB at most, cache-resident). Construct once, pass to every
/// [`for_each_supermer`] call on the same thread.
#[derive(Debug, Clone, Default)]
pub struct SupermerScratch {
    scores: Vec<u64>,
    suffix: Vec<u64>,
    lanes: LaneBuffers,
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
/// The window minima come from the lane kernel of [`crate::simd`] in the tier this CPU
/// has (AVX-512 or AVX2), or from the scalar path — byte-identical either way. Reads
/// shorter than k emit nothing.
pub fn for_each_supermer(
    seq: &DnaSeq,
    k: usize,
    scorer: &MmerScorer,
    targets: u32,
    scratch: &mut SupermerScratch,
    emit: impl FnMut(SupermerSpan),
) {
    let kmers = (seq.len() + 1).saturating_sub(k);
    let window = (k + 1).saturating_sub(scorer.m());
    let tier = Tier::detected().filter(|tier| tier.pays_for(kmers, window));
    extract(tier, seq, k, scorer, targets, scratch, emit)
}

/// [`for_each_supermer`] on a chosen path: the `tier` build of the lane kernel, or the
/// scalar path for `None`.
pub(crate) fn extract(
    tier: Option<Tier>,
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
    let num_kmers = n + 1 - k;
    let targets = u64::from(targets);
    let mut runs = Runs {
        k: k as u32,
        targets,
        mask: targets.is_power_of_two().then_some(targets - 1),
        open: None,
        emit: &mut emit,
    };
    match tier {
        Some(tier) => lane_segments(
            tier,
            seq,
            k,
            scorer,
            num_kmers,
            &mut scratch.lanes,
            &mut runs,
        ),
        None => scalar_segments(seq, k, scorer, num_kmers, scratch, &mut runs),
    }
    if let Some(run) = runs.open {
        emit(SupermerSpan {
            start: run.start,
            end: n as u32,
            target: run.target,
        });
    }
}

/// The run of k-mers with one target that is growing into a supermer.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u32,
    target: u32,
}

/// The run state of one read, fed in k-mer order with every k-mer whose window
/// minimum may differ from its predecessor's (the first k-mer included).
struct Runs<'e, E> {
    k: u32,
    targets: u64,
    /// `targets - 1` when `targets` is a power of two: a mask in place of a 64-bit
    /// division, which costs tens of cycles.
    mask: Option<u64>,
    open: Option<Run>,
    emit: &'e mut E,
}

impl<E: FnMut(SupermerSpan)> Runs<'_, E> {
    /// k-mer `kmer` has window minimum `min`: emit the open run if its target,
    /// `min % targets`, differs.
    #[inline]
    fn at(&mut self, kmer: u32, min: u64) {
        let target = match self.mask {
            Some(mask) => (min & mask) as u32,
            None => (min % self.targets) as u32,
        };
        if let Some(run) = self.open {
            if run.target == target {
                return;
            }
            (self.emit)(SupermerSpan {
                start: run.start,
                end: kmer - 1 + self.k,
                target: run.target,
            });
        }
        self.open = Some(Run {
            start: kmer,
            target,
        });
    }
}

/// The lane path: each segment's k-mers in [`LANES`] contiguous lanes through the
/// `tier` build of the kernel, then its marked k-mers lane by lane, in read order.
fn lane_segments<E: FnMut(SupermerSpan)>(
    tier: Tier,
    seq: &DnaSeq,
    k: usize,
    scorer: &MmerScorer,
    num_kmers: usize,
    lanes: &mut LaneBuffers,
    runs: &mut Runs<'_, E>,
) {
    let shape = LaneShape {
        m: scorer.m(),
        window: k - scorer.m() + 1,
        score_fn: scorer.score_fn(),
    };
    // Segments of equal size, so that no short tail segment pays the lanes' overlap.
    let seg_cap = num_kmers.div_ceil(num_kmers.div_ceil(SEGMENT_KMERS));
    let mut g = 0usize; // the segment's first k-mer
    while g < num_kmers {
        let seg_kmers = (num_kmers - g).min(seg_cap);
        let len = seg_kmers.div_ceil(LANES);
        crate::simd::lane_pass(tier, seq.words(), shape, g, len, lanes);
        for j in 0..LANES {
            let lane_first = j * len;
            if lane_first >= seg_kmers {
                break;
            }
            let lane_kmers = (seg_kmers - lane_first).min(len);
            for (i, word) in lanes.changed[..lane_kmers.div_ceil(64)].iter().enumerate() {
                // A lane's first k-mer has no predecessor in the lane: always look.
                let mut bits = word[j] | u64::from(i == 0);
                if lane_kmers - 64 * i < 64 {
                    bits &= (1 << (lane_kmers - 64 * i)) - 1;
                }
                while bits != 0 {
                    let t = 64 * i + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    runs.at((g + lane_first + t) as u32, lanes.mins[t][j]);
                }
            }
        }
        g += seg_kmers;
    }
}

/// The scalar path: each segment's m-mer scores, then the window minima by a
/// van Herk–Gil-Werman two-scan.
fn scalar_segments<E: FnMut(SupermerSpan)>(
    seq: &DnaSeq,
    k: usize,
    scorer: &MmerScorer,
    num_kmers: usize,
    scratch: &mut SupermerScratch,
    runs: &mut Runs<'_, E>,
) {
    let (m, score_fn) = (scorer.m(), scorer.score_fn());
    let window = k - m + 1;
    let seg_cap = SEGMENT_KMERS.min(num_kmers) + window - 1;
    if scratch.scores.len() < seg_cap {
        scratch.scores.resize(seg_cap, 0);
        scratch.suffix.resize(seg_cap, 0);
    }
    let mut last_min = None;

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
        crate::simd::fill_scores_scalar(seq.words(), g, seg_len, m, score_fn, scores);
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
            let min = sfx.min(prefix);
            if last_min != Some(min) {
                last_min = Some(min);
                runs.at((g + t) as u32, min);
            }
        }
        g += seg_kmers;
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

/// Every tier of the lane kernel this CPU can run, against the scalar path and the
/// vec-based reference.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::mmer::ScoreFunction;
    use crate::supermer::build_supermers;
    use hysortk_dna::readset::Read;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spans(
        tier: Option<Tier>,
        read: &Read,
        k: usize,
        scorer: &MmerScorer,
        targets: u32,
    ) -> Vec<SupermerSpan> {
        let mut out = Vec::new();
        let mut scratch = SupermerScratch::new();
        extract(tier, &read.seq, k, scorer, targets, &mut scratch, |s| {
            out.push(s)
        });
        out
    }

    /// The tiers to check; each one this CPU lacks says it was skipped.
    fn tiers() -> Vec<Tier> {
        let (runs, skipped): (Vec<Tier>, Vec<Tier>) =
            Tier::ALL.into_iter().partition(|t| t.runs_here());
        for tier in skipped {
            eprintln!("skipped: this CPU cannot run the {tier:?} lane kernel");
        }
        runs
    }

    /// The scalar path's spans, checked against [`build_supermers`], then every tier's
    /// against them.
    fn check(tiers: &[Tier], read: &Read, k: usize, scorer: &MmerScorer, targets: u32) {
        let what = format!(
            "len={} k={k} m={} targets={targets} {:?}",
            read.len(),
            scorer.m(),
            scorer.score_fn()
        );
        let scalar = spans(None, read, k, scorer, targets);
        let reference: Vec<SupermerSpan> = build_supermers(read, k, scorer, targets)
            .into_iter()
            .map(|s| SupermerSpan {
                start: s.start,
                end: s.start + s.seq.len() as u32,
                target: s.target,
            })
            .collect();
        assert_eq!(scalar, reference, "scalar path, {what}");
        for &tier in tiers {
            assert_eq!(
                spans(Some(tier), read, k, scorer, targets),
                scalar,
                "{tier:?}, {what}"
            );
        }
    }

    fn read_of(bases: &[u8]) -> Read {
        Read::from_ascii(0, "r", bases)
    }

    #[test]
    fn every_tier_matches_the_scalar_path_at_every_edge() {
        let tiers = tiers();
        let mut rng = StdRng::seed_from_u64(44);
        // (31, 15) and (21, 10) are the benchmark's shapes; (21, 21) has w = 1.
        for (k, m) in [(31, 15), (21, 10), (21, 21), (55, 23), (17, 7)] {
            let w = k - m + 1;
            let lengths = [
                k - 1,
                k,
                k + 1,
                8 * w - 1,
                8 * w + 1,
                SEGMENT_KMERS - 1,
                SEGMENT_KMERS + 1,
                // A segment's worth of k-mers, one short and one over.
                SEGMENT_KMERS + k - 2,
                SEGMENT_KMERS + k,
                2 * SEGMENT_KMERS + w,
            ];
            for len in lengths {
                let bases: Vec<u8> = (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
                let read = read_of(&bases);
                for targets in [1, 64, 768] {
                    let scorer = MmerScorer::new(m, ScoreFunction::Hash { seed: 31 });
                    check(&tiers, &read, k, &scorer, targets);
                }
            }
        }
    }

    #[test]
    fn every_tier_matches_the_scalar_path_on_tie_heavy_reads() {
        // Lexicographic scores of tiny m-mers on AT-rich reads: windows full of ties.
        let tiers = tiers();
        let mut rng = StdRng::seed_from_u64(45);
        for (k, m) in [(15, 2), (31, 1), (11, 3), (4, 4)] {
            let w = k - m + 1;
            for len in [8 * w - 1, 8 * w + 1, 300, SEGMENT_KMERS + w] {
                let bases: Vec<u8> = (0..len)
                    .map(|_| match rng.gen_range(0..5) {
                        0 => b"ACGT"[rng.gen_range(0..4)],
                        _ => b"AT"[rng.gen_range(0..2)],
                    })
                    .collect();
                let read = read_of(&bases);
                for targets in [1, 16, 768] {
                    let scorer = MmerScorer::new(m, ScoreFunction::Lexicographic);
                    check(&tiers, &read, k, &scorer, targets);
                }
            }
        }
    }
}
