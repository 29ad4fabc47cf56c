//! The lane kernel of the streaming supermer extractor, and the scalar scorer of its
//! reference path.
//!
//! [`for_each_supermer`](crate::streaming::for_each_supermer) needs, for every k-mer of
//! a read, the minimum score over its `w = k - m + 1` canonical m-mers. Computed one
//! m-mer after another, each step waits on the last (the rolling window, the window
//! minimum). Following SimdMinimizers (Groot Koerkamp & Martayan, SEA 2025), the
//! kernel here cuts a segment of `n` k-mers into [`LANES`] contiguous chunks of
//! `⌈n / 8⌉` k-mers and walks all eight at once, one step per m-mer. Neighbouring
//! chunks overlap by `w - 1` m-mers, which each lane scores before its first k-mer. At
//! every step, a lane:
//!
//! * rolls its forward and reverse-complement m-mer words by one base and takes the
//!   smaller, the canonical m-mer;
//! * scores it: [`hash_mmer`](crate::mmer::hash_mmer), 64-bit MurmurHash3, or the
//!   m-mer itself under the lexicographic score;
//! * takes the window minimum with the van Herk–Gil-Werman scheme online: a ring of the
//!   last `w` scores whose suffix minima are rebuilt once every `w` steps, and a running
//!   prefix minimum of the scores since;
//! * sets one bit when that minimum differs from the lane's previous one.
//!
//! The kernel writes the minima and the bits ([`LaneBuffers`]); the emitter in
//! `streaming` walks the set bits and reduces only those minima to targets. Every
//! score is the scalar path's, so the supermers are bit-identical.
//!
//! The kernel is plain safe Rust over `[u64; 8]` arrays, which the compiler turns into
//! vector code. [`lane_pass`] runs one of three builds of it, a [`Tier`]: under
//! `#[target_feature(enable = "avx512f,avx512dq")]` (native 64-bit multiply and
//! unsigned minimum), under `avx2`, and — in tests only — for the baseline target.
//! The streaming extractor takes the tier from the workspace's one detection,
//! [`hysortk_dna::simd`], for reads long enough to repay the lanes' overlap
//! ([`Tier::pays_for`]). Everywhere else — short reads, `HYSORTK_NO_SIMD=1`, CPUs
//! without AVX2 — it runs its scalar path, which scores with [`fill_scores_scalar`]
//! and is the reference the tests pin every tier to.

use crate::mmer::{hash_mmer, ScoreFunction};

/// Reverse the 32 2-bit groups of a word (group `j` ↔ group `31 - j`).
#[inline]
pub fn pair_reverse(x: u64) -> u64 {
    let x = x.swap_bytes();
    let x = ((x >> 4) & 0x0F0F_0F0F_0F0F_0F0F) | ((x & 0x0F0F_0F0F_0F0F_0F0F) << 4);
    ((x >> 2) & 0x3333_3333_3333_3333) | ((x & 0x3333_3333_3333_3333) << 2)
}

/// The 64-bit window of packed bases starting at base `s` (bases `s..s+32`; bits past
/// the end of `words` read as zero).
#[inline]
fn window(words: &[u64], s: usize) -> u64 {
    let (idx, shift) = (s / 32, 2 * (s % 32));
    let lo = words.get(idx).map_or(0, |w| w >> shift);
    match words.get(idx + 1) {
        Some(hi) if shift > 0 => lo | (hi << (64 - shift)),
        _ => lo,
    }
}

/// The mask of `m` bases' 2-bit codes (`0 ≤ m ≤ 32`).
#[inline]
fn base_mask(m: usize) -> u64 {
    if m >= 32 {
        u64::MAX
    } else {
        (1 << (2 * m)) - 1
    }
}

/// Scalar scorer: fill `out[..count]` with the scores of the `count` m-mers starting
/// at `s0` (m-mer `s` covers bases `s..s+m`), rolling the forward/reverse words from
/// the first window one base at a time.
pub(crate) fn fill_scores_scalar(
    words: &[u64],
    s0: usize,
    count: usize,
    m: usize,
    score_fn: ScoreFunction,
    out: &mut [u64],
) {
    if count == 0 {
        return;
    }
    let mask = base_mask(m);
    let rc_shift = 2 * (m - 1);
    let w0 = window(words, s0) & mask;
    let mut fwd = pair_reverse(w0) >> (64 - 2 * m);
    let mut rev = w0 ^ mask;
    out[0] = score_fn.score(fwd.min(rev));
    for (j, slot) in out.iter_mut().enumerate().take(count).skip(1) {
        let i = s0 + j + m - 1; // newest base of m-mer s0 + j
        let code = (words[i / 32] >> (2 * (i % 32))) & 0b11;
        fwd = ((fwd << 2) | code) & mask;
        rev = (rev >> 2) | ((3 - code) << rc_shift);
        *slot = score_fn.score(fwd.min(rev));
    }
}

/// Lanes of the kernel.
pub(crate) const LANES: usize = 8;

/// One value per lane.
pub(crate) type Lanes = [u64; LANES];

/// What [`lane_pass`] leaves for the emitter, and the kernel's ring; reused across
/// calls. Lane `j`'s `t`-th k-mer is the segment's k-mer `j · len + t`.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneBuffers {
    /// `mins[t][j]`: the window minimum of lane `j`'s k-mer `t`.
    pub(crate) mins: Vec<Lanes>,
    /// `changed[t / 64][j]` bit `t % 64`: `mins[t][j] != mins[t - 1][j]`. Bit 0 of a
    /// lane compares against an arbitrary value.
    pub(crate) changed: Vec<Lanes>,
    /// The last `w` scores of each lane (suffix minima after a block completes).
    ring: Vec<Lanes>,
}

/// The build of the lane kernel a call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// Compiled with AVX-512 F and DQ enabled.
    Avx512,
    /// Compiled with AVX2 enabled.
    Avx2,
    /// Compiled for the baseline target. It runs slower than the scalar path (no
    /// baseline x86-64 or AArch64 vector unit has a 64-bit multiply), so it only
    /// checks the kernel's logic apart from any target feature.
    #[cfg(test)]
    Baseline,
}

impl Tier {
    /// Every tier, widest first.
    #[cfg(test)]
    pub(crate) const ALL: [Tier; 3] = [Tier::Avx512, Tier::Avx2, Tier::Baseline];

    /// The tier [`hysortk_dna::simd`] chose for this process; `None` under
    /// `HYSORTK_NO_SIMD=1` or on a CPU without AVX2, where the scalar path runs.
    #[inline]
    pub(crate) fn detected() -> Option<Tier> {
        if hysortk_dna::simd::avx512() {
            Some(Tier::Avx512)
        } else if hysortk_dna::simd::avx2() {
            Some(Tier::Avx2)
        } else {
            None
        }
    }

    /// Whether a read of `kmers` k-mers, whose windows span `w` m-mers, is faster
    /// in this tier's lanes than on the scalar path. Each lane scores `w - 1` m-mers
    /// before its first k-mer, which a short read does not repay: on 150-bp reads
    /// (k = 21, m = 10) and shorter, the lanes broke even at about 3 windows' worth of
    /// k-mers under AVX-512 and about 10 under AVX2.
    pub(crate) fn pays_for(self, kmers: usize, w: usize) -> bool {
        let windows = match self {
            Tier::Avx512 => 3,
            Tier::Avx2 => 10,
            #[cfg(test)]
            Tier::Baseline => 0,
        };
        kmers >= windows * w
    }

    /// Whether this CPU can run the tier (whatever `HYSORTK_NO_SIMD` says).
    pub(crate) fn runs_here(self) -> bool {
        match self {
            #[cfg(test)]
            Tier::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// What every lane pass over a read shares: m, the window `w = k - m + 1` and the
/// score function.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneShape {
    pub(crate) m: usize,
    pub(crate) window: usize,
    pub(crate) score_fn: ScoreFunction,
}

/// Run the `tier` build of the kernel over the `8 · len` k-mers from k-mer `first` of
/// the read packed in `words`: lane `j` takes k-mers `first + j · len ..` `+ len`. Fills
/// `out.mins[..len]` and `out.changed[..⌈len / 64⌉]`. A lane's k-mers past the read's
/// end see bases of zero; the caller ignores them.
///
/// Panics if the CPU cannot run `tier` ([`Tier::runs_here`]).
#[allow(unsafe_code)]
pub(crate) fn lane_pass(
    tier: Tier,
    words: &[u64],
    shape: LaneShape,
    first: usize,
    len: usize,
    out: &mut LaneBuffers,
) {
    assert!(tier.runs_here(), "{tier:?} lane kernel on a CPU without it");
    assert!(len > 0 && (1..=32).contains(&shape.m) && shape.window > 0);
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runs_here` above held, so this CPU has the features the tier's build
        // is compiled with (AVX-512 F and DQ for `Avx512`, AVX2 for `Avx2`).
        Tier::Avx512 | Tier::Avx2 => unsafe {
            match tier {
                Tier::Avx512 => x86::avx512(words, shape, first, len, out),
                _ => x86::avx2(words, shape, first, len, out),
            }
        },
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Avx512 | Tier::Avx2 => unreachable!("no x86 tier runs on this CPU"),
        #[cfg(test)]
        Tier::Baseline => lanes(words, shape, first, len, out),
    }
}

/// The x86 builds of the kernel.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{LaneBuffers, LaneShape};

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn avx512(w: &[u64], s: LaneShape, first: usize, len: usize, out: &mut LaneBuffers) {
        super::lanes(w, s, first, len, out)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn avx2(w: &[u64], s: LaneShape, first: usize, len: usize, out: &mut LaneBuffers) {
        super::lanes(w, s, first, len, out)
    }
}

/// The kernel, once per score function; inlined into each tier's build.
#[inline(always)]
fn lanes(words: &[u64], shape: LaneShape, first: usize, len: usize, out: &mut LaneBuffers) {
    match shape.score_fn {
        ScoreFunction::Hash { seed } => {
            lanes_scored(words, shape, first, len, out, |x| hash_mmer(x, seed))
        }
        ScoreFunction::Lexicographic => lanes_scored(words, shape, first, len, out, |x| x),
    }
}

#[inline(always)]
fn lanes_scored(
    words: &[u64],
    shape: LaneShape,
    first: usize,
    len: usize,
    out: &mut LaneBuffers,
    score: impl Fn(u64) -> u64,
) {
    let LaneShape { m, window: w, .. } = shape;
    let mask = base_mask(m);
    let head = base_mask(m - 1);
    let rc_shift = 2 * (m - 1);
    let start: [usize; LANES] = std::array::from_fn(|j| first + j * len);
    // Each lane holds its m-mer's first m - 1 bases, so that step 0 adds the m-th:
    // `fwd` with the oldest base in the highest group, `rev` the complement with the
    // oldest base in the lowest.
    let mut fwd: Lanes = [0; LANES];
    let mut rev: Lanes = [0; LANES];
    for j in 0..LANES {
        let w0 = window(words, start[j]) & head;
        fwd[j] = if m > 1 {
            pair_reverse(w0) >> (66 - 2 * m)
        } else {
            0
        };
        rev[j] = (w0 ^ head) << 2;
    }
    let ring = &mut out.ring;
    ring.clear();
    ring.resize(w, [u64::MAX; LANES]);
    if out.mins.len() < len {
        out.mins.resize(len, [0; LANES]);
    }
    if out.changed.len() < len.div_ceil(64) {
        out.changed.resize(len.div_ceil(64), [0; LANES]);
    }
    let mins = &mut out.mins[..len];
    let changed = &mut out.changed[..len.div_ceil(64)];

    let mut prefix: Lanes = [u64::MAX; LANES];
    let mut prev: Lanes = [0; LANES];
    let mut bits: Lanes = [0; LANES];
    let mut slot = 0usize;
    let steps = len + w - 1;
    // 32 steps at a time, one word of bases per lane: first every step's score — the
    // hashes of consecutive steps are independent, so their multiply chains overlap —
    // then the window minima over them.
    for chunk in (0..steps).step_by(32) {
        // Step `s` adds base `start + m - 1 + s`.
        let mut bases: Lanes = std::array::from_fn(|j| window(words, start[j] + m - 1 + chunk));
        let mut scores = [[0u64; LANES]; 32];
        for lanes in &mut scores[..(steps - chunk).min(32)] {
            for j in 0..LANES {
                let code = bases[j] & 0b11;
                bases[j] >>= 2;
                fwd[j] = ((fwd[j] << 2) | code) & mask;
                rev[j] = (rev[j] >> 2) | ((code ^ 0b11) << rc_shift);
                lanes[j] = score(fwd[j].min(rev[j]));
            }
        }
        for (step, &scored) in (chunk..steps).zip(&scores) {
            for j in 0..LANES {
                prefix[j] = prefix[j].min(scored[j]);
            }
            ring[slot] = scored;
            slot += 1;
            // The window ending at this step: the block in progress (`prefix`) plus
            // the tail of the last completed one (`ring[slot]`, its suffix minimum).
            let min: Lanes = if slot == w {
                let min = prefix;
                let mut suffix = [u64::MAX; LANES];
                for lanes in ring.iter_mut().rev() {
                    for (s, x) in suffix.iter_mut().zip(lanes.iter_mut()) {
                        *s = (*s).min(*x);
                        *x = *s;
                    }
                }
                prefix = [u64::MAX; LANES];
                slot = 0;
                min
            } else {
                std::array::from_fn(|j| ring[slot][j].min(prefix[j]))
            };
            if step + 1 >= w {
                let t = step + 1 - w;
                mins[t] = min;
                for j in 0..LANES {
                    bits[j] |= u64::from(min[j] != prev[j]) << (t % 64);
                }
                prev = min;
                if t % 64 == 63 || t + 1 == len {
                    changed[t / 64] = bits;
                    bits = [0; LANES];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_dna::sequence::DnaSeq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, seed: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(seed);
        let bases: Vec<u8> = (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
        DnaSeq::from_ascii(&bases)
    }

    /// Per-m-mer reference straight from the rolling definition in `MmerScorer`.
    fn reference_scores(seq: &DnaSeq, m: usize, score_fn: ScoreFunction) -> Vec<u64> {
        crate::mmer::MmerScorer::new(m, score_fn)
            .score_sequence(seq)
            .into_iter()
            .map(|s| s.score)
            .collect()
    }

    #[test]
    fn pair_reverse_is_an_involution_and_reverses_groups() {
        let x = 0x0123_4567_89AB_CDEFu64;
        assert_eq!(pair_reverse(pair_reverse(x)), x);
        for j in 0..32 {
            let v = 0b11u64 << (2 * j);
            assert_eq!(pair_reverse(v), 0b11u64 << (2 * (31 - j)), "group {j}");
        }
    }

    #[test]
    fn base_mask_covers_m_bases() {
        assert_eq!(base_mask(0), 0);
        for m in 1..32 {
            assert_eq!(base_mask(m), (1u64 << (2 * m)) - 1, "m={m}");
        }
        assert_eq!(base_mask(32), u64::MAX);
    }

    #[test]
    fn scalar_block_fill_matches_rolling_reference() {
        for (len, m) in [(100usize, 13usize), (64, 32), (40, 1), (333, 7), (70, 31)] {
            let seq = random_seq(len, (len * m) as u64);
            let want = reference_scores(&seq, m, ScoreFunction::Hash { seed: 31 });
            let total = len + 1 - m;
            for block in [1usize, 3, 64] {
                let mut got = vec![0u64; total];
                let mut s0 = 0usize;
                while s0 < total {
                    let cnt = (total - s0).min(block);
                    fill_scores_scalar(
                        seq.words(),
                        s0,
                        cnt,
                        m,
                        ScoreFunction::Hash { seed: 31 },
                        &mut got[s0..s0 + cnt],
                    );
                    s0 += cnt;
                }
                assert_eq!(got, want, "len={len} m={m} block={block}");
            }
        }
    }

    /// The window minima of every k-mer of `seq`, from the reference scores.
    fn reference_minima(seq: &DnaSeq, m: usize, w: usize, score_fn: ScoreFunction) -> Vec<u64> {
        let scores = reference_scores(seq, m, score_fn);
        scores
            .windows(w)
            .map(|win| *win.iter().min().unwrap())
            .collect()
    }

    #[test]
    fn every_tier_computes_every_lanes_window_minima() {
        for tier in Tier::ALL {
            if !tier.runs_here() {
                eprintln!("skipped: this CPU cannot run the {tier:?} lane kernel");
                continue;
            }
            let mut out = LaneBuffers::default();
            for (m, w) in [(1usize, 1usize), (13, 19), (32, 1), (7, 64), (10, 12)] {
                for score_fn in [
                    ScoreFunction::Hash { seed: 7 },
                    ScoreFunction::Lexicographic,
                ] {
                    for (first, len) in [(0usize, 1usize), (3, 40), (0, 130), (33, 64)] {
                        let n = first + 8 * len + w + m - 2;
                        let seq = random_seq(n, (n * m + w) as u64);
                        let want = reference_minima(&seq, m, w, score_fn);
                        let shape = LaneShape {
                            m,
                            window: w,
                            score_fn,
                        };
                        lane_pass(tier, seq.words(), shape, first, len, &mut out);
                        for (j, t) in (0..LANES).flat_map(|j| (0..len).map(move |t| (j, t))) {
                            let at = first + j * len + t;
                            let what = format!("{tier:?} m={m} w={w} k-mer {at} {score_fn:?}");
                            assert_eq!(out.mins[t][j], want[at], "{what}");
                            if t > 0 {
                                let bit = out.changed[t / 64][j] >> (t % 64) & 1;
                                assert_eq!(bit == 1, want[at] != want[at - 1], "{what}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_lane_past_the_read_end_reads_zeros_and_does_not_panic() {
        // 38 k-mers of 13 bases in lanes of 40: every lane but the first runs past the
        // end, and the first's last two k-mers do.
        let seq = random_seq(50, 3);
        let score_fn = ScoreFunction::Hash { seed: 1 };
        let want = reference_minima(&seq, 9, 5, score_fn);
        let mut out = LaneBuffers::default();
        let shape = LaneShape {
            m: 9,
            window: 5,
            score_fn,
        };
        for tier in Tier::ALL.into_iter().filter(|t| t.runs_here()) {
            lane_pass(tier, seq.words(), shape, 0, 40, &mut out);
            let lane0: Vec<u64> = out.mins[..want.len()].iter().map(|l| l[0]).collect();
            assert_eq!(lane0, want, "{tier:?}");
        }
    }
}
