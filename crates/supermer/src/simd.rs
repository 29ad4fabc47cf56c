//! Vectorised canonical m-mer scoring for the streaming supermer extractor.
//!
//! The rolling scan in [`streaming`](crate::streaming) consumed one base per iteration:
//! roll the forward/reverse 2-bit windows, take the canonical minimum, MurmurHash it,
//! feed the monotone deque. The deque update is inherently serial, but everything
//! before it is not: this module computes the scores of a whole block of consecutive
//! m-mers at once, four per AVX2 iteration, and the deque pass then consumes
//! precomputed scores.
//!
//! The key identities that make the windows data-parallel (instead of a serial roll):
//! with `W` the little-position-order 2-bit window of `m` bases starting at `s`
//! (a plain shifted load from the packed words),
//!
//! * `rev = W ^ mask` — complementing a base is `code ^ 0b11`, so the rolled
//!   reverse-complement word is just the bitwise NOT of the window, masked;
//! * `fwd = pair_reverse(W) >> (64 - 2m)` — the rolled forward word stores the oldest
//!   base in the highest 2-bit group, i.e. the window with its 2-bit groups reversed.
//!
//! The MurmurHash3_x64_128 of an 8-byte input reduces to a short fixed sequence of
//! 64-bit multiplies, rotates and xors (no block loop), replicated here lane-wise with
//! the classic three-`mul_epu32` 64-bit multiply decomposition — bit-identical to
//! [`hash_mmer`](crate::mmer::hash_mmer), which the property tests pin.
//!
//! The AVX2 kernels are safe `#[target_feature]` functions over slices; [`fill_scores`]
//! is the one place they are entered. It follows [`hysortk_dna::simd::avx2`] (one
//! detection for the whole workspace, `HYSORTK_NO_SIMD=1` honoured); the scalar path
//! is the reference.

use crate::mmer::ScoreFunction;

/// Reverse the 32 2-bit groups of a word (group `j` ↔ group `31 - j`).
#[inline]
pub fn pair_reverse(x: u64) -> u64 {
    let x = x.swap_bytes();
    let x = ((x >> 4) & 0x0F0F_0F0F_0F0F_0F0F) | ((x & 0x0F0F_0F0F_0F0F_0F0F) << 4);
    ((x >> 2) & 0x3333_3333_3333_3333) | ((x & 0x3333_3333_3333_3333) << 2)
}

/// The 64-bit window of packed bases starting at base `s` (bases `s..s+32`, clipped at
/// the end of `words`; bits beyond the sequence read as zero).
#[inline]
fn window(words: &[u64], s: usize) -> u64 {
    let shift = 2 * (s % 32);
    let idx = s / 32;
    let lo = words[idx] >> shift;
    if shift > 0 && idx + 1 < words.len() {
        lo | (words[idx + 1] << (64 - shift))
    } else {
        lo
    }
}

/// Scalar reference: fill `out[..count]` with the scores of the `count` m-mers starting
/// at `s0` (m-mer `s` covers bases `s..s+m`). Rolls the forward/reverse words exactly
/// like the original streaming loop after seeding them from the first window.
fn fill_scores_scalar(
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
    let mask: u64 = if m == 32 {
        u64::MAX
    } else {
        (1u64 << (2 * m)) - 1
    };
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

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::ScoreFunction;
    use core::arch::x86_64::*;

    /// The packed words as the little-endian byte stream they hold (`x86_64` is
    /// little-endian), so a group of windows can start at any byte.
    #[allow(unsafe_code)]
    fn as_bytes(words: &[u64]) -> &[u8] {
        // SAFETY: the view covers exactly the `size_of_val(words)` initialised bytes of
        // `words` and borrows them for as long as `words`; `u8` has alignment 1 and
        // no invalid bit pattern, and shared bytes cannot be written through the view.
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), std::mem::size_of_val(words)) }
    }

    /// Lane-wise 64-bit `wrapping_mul` by a broadcast constant `c` (with `c_hi` its
    /// lanes shifted right 32), via three 32×32→64 multiplies.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul64(x: __m256i, c: __m256i, c_hi: __m256i) -> __m256i {
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(x, c_hi),
            _mm256_mul_epu32(_mm256_srli_epi64::<32>(x), c),
        );
        _mm256_add_epi64(_mm256_mul_epu32(x, c), _mm256_slli_epi64::<32>(cross))
    }

    /// Lane-wise `fmix64` (the MurmurHash3 finaliser).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn fmix64x4(mut k: __m256i) -> __m256i {
        const M1: i64 = 0xff51afd7ed558ccdu64 as i64;
        const M2: i64 = 0xc4ceb9fe1a85ec53u64 as i64;
        let m1 = _mm256_set1_epi64x(M1);
        let m1h = _mm256_srli_epi64::<32>(m1);
        let m2 = _mm256_set1_epi64x(M2);
        let m2h = _mm256_srli_epi64::<32>(m2);
        k = _mm256_xor_si256(k, _mm256_srli_epi64::<33>(k));
        k = mul64(k, m1, m1h);
        k = _mm256_xor_si256(k, _mm256_srli_epi64::<33>(k));
        k = mul64(k, m2, m2h);
        _mm256_xor_si256(k, _mm256_srli_epi64::<33>(k))
    }

    /// Lane-wise [`hash_mmer`](crate::mmer::hash_mmer): the low word of MurmurHash3_x64_128 over
    /// the 8 little-endian bytes of each lane — the 8-byte specialisation has no block
    /// loop, only the `k1` tail fold and the finalisation.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hash_mmer_x4(packed: __m256i, seed: u32) -> __m256i {
        const C1: i64 = 0x87c37b91114253d5u64 as i64;
        const C2: i64 = 0x4cf5ad432745937fu64 as i64;
        let c1 = _mm256_set1_epi64x(C1);
        let c1h = _mm256_srli_epi64::<32>(c1);
        let c2 = _mm256_set1_epi64x(C2);
        let c2h = _mm256_srli_epi64::<32>(c2);

        let mut k1 = mul64(packed, c1, c1h);
        k1 = _mm256_or_si256(_mm256_slli_epi64::<31>(k1), _mm256_srli_epi64::<33>(k1));
        k1 = mul64(k1, c2, c2h);

        let mut h1 = _mm256_xor_si256(_mm256_set1_epi64x(i64::from(seed)), k1);
        h1 = _mm256_xor_si256(h1, _mm256_set1_epi64x(8));
        let mut h2 = _mm256_set1_epi64x((u64::from(seed) ^ 8) as i64);
        h1 = _mm256_add_epi64(h1, h2);
        h2 = _mm256_add_epi64(h2, h1);
        h1 = fmix64x4(h1);
        h2 = fmix64x4(h2);
        _mm256_add_epi64(h1, h2)
    }

    /// Reverse the 2-bit groups of each 64-bit lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn pair_reverse_x4(x: __m256i) -> __m256i {
        let bswap = _mm256_setr_epi8(
            7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, //
            7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8,
        );
        let x = _mm256_shuffle_epi8(x, bswap);
        let lo4 = _mm256_set1_epi8(0x0F);
        let x = _mm256_or_si256(
            _mm256_slli_epi64::<4>(_mm256_and_si256(x, lo4)),
            _mm256_and_si256(_mm256_srli_epi64::<4>(x), lo4),
        );
        let m2 = _mm256_set1_epi8(0x33);
        _mm256_or_si256(
            _mm256_slli_epi64::<2>(_mm256_and_si256(x, m2)),
            _mm256_and_si256(_mm256_srli_epi64::<2>(x), m2),
        )
    }

    /// Write the four lanes of `v` to `out` (one unaligned store).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store4(v: __m256i, out: &mut [u64]) {
        out.copy_from_slice(&[
            _mm256_extract_epi64::<0>(v) as u64,
            _mm256_extract_epi64::<1>(v) as u64,
            _mm256_extract_epi64::<2>(v) as u64,
            _mm256_extract_epi64::<3>(v) as u64,
        ]);
    }

    /// AVX2 block scorer: groups of four consecutive m-mer windows are carved out of
    /// 16 bytes of the packed byte stream (two broadcast words, then per-lane variable
    /// shifts — the shift vector is loop-invariant because the group stride is 4 bases
    /// = 1 byte), canonicalised and hashed lane-wise; the in-bounds tail falls back to
    /// the scalar reference (identical values).
    #[target_feature(enable = "avx2")]
    pub(super) fn fill_scores_avx2(
        words: &[u64],
        s0: usize,
        count: usize,
        m: usize,
        score_fn: ScoreFunction,
        out: &mut [u64],
    ) {
        let bytes = as_bytes(words);
        // Each group reads 16 bytes starting at byte `s / 4`, so the last SIMD-safe
        // group-leading m-mer index satisfies `s / 4 + 16 <= bytes.len()`.
        let simd_last = if bytes.len() >= 16 {
            (bytes.len() - 16) * 4 + 3
        } else {
            0
        };
        let mask: u64 = if m == 32 {
            u64::MAX
        } else {
            (1u64 << (2 * m)) - 1
        };
        let mask_v = _mm256_set1_epi64x(mask as i64);
        let top = _mm256_set1_epi64x(i64::MIN);
        let fwd_shift = _mm_cvtsi32_si128((64 - 2 * m) as i32);
        // Lane j's window starts `2 * j` bits past the group's base bit offset.
        let bit0 = (2 * (s0 % 4)) as i64;
        let rsh = _mm256_set_epi64x(bit0 + 6, bit0 + 4, bit0 + 2, bit0);
        let lsh = _mm256_sub_epi64(_mm256_set1_epi64x(64), rsh);

        // Canonical m-mers of the four windows starting at the group's base byte `p`.
        let canon4 = |p: usize| -> __m256i {
            let word = |at: usize| i64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let lo = _mm256_set1_epi64x(word(p));
            let hi = _mm256_set1_epi64x(word(p + 8));
            // `sllv` with a count of 64 (bit offset 0) yields zero, the right carry.
            let carry = _mm256_sllv_epi64(hi, lsh);
            let w = _mm256_and_si256(_mm256_or_si256(_mm256_srlv_epi64(lo, rsh), carry), mask_v);
            let rev = _mm256_xor_si256(w, mask_v);
            let fwd = _mm256_srl_epi64(pair_reverse_x4(w), fwd_shift);
            // Unsigned 64-bit min via the sign-flip compare.
            let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(fwd, top), _mm256_xor_si256(rev, top));
            _mm256_blendv_epi8(fwd, rev, gt)
        };

        let mut j = 0usize;
        // Two independent groups per iteration: the emulated 64-bit multiply chain of
        // the hash is latency-bound, so interleaving two chains roughly doubles the
        // hash throughput.
        while j + 8 <= count && (bytes.len() >= 16 && s0 + j + 7 <= simd_last) {
            let p = (s0 + j) / 4;
            let (a, b) = (canon4(p), canon4(p + 1));
            let (sa, sb) = match score_fn {
                ScoreFunction::Hash { seed } => (hash_mmer_x4(a, seed), hash_mmer_x4(b, seed)),
                ScoreFunction::Lexicographic => (a, b),
            };
            store4(sa, &mut out[j..j + 4]);
            store4(sb, &mut out[j + 4..j + 8]);
            j += 8;
        }
        while j + 4 <= count && (bytes.len() >= 16 && s0 + j + 3 <= simd_last) {
            let canonical = canon4((s0 + j) / 4);
            let score = match score_fn {
                ScoreFunction::Hash { seed } => hash_mmer_x4(canonical, seed),
                ScoreFunction::Lexicographic => canonical,
            };
            store4(score, &mut out[j..j + 4]);
            j += 4;
        }
        super::fill_scores_scalar(words, s0 + j, count - j, m, score_fn, &mut out[j..]);
    }
}

/// Fill `out[..count]` with the scores of the `count` m-mers starting at `s0`, via the
/// active SIMD path. Byte-identical to the scalar reference (property-tested).
/// Panics if `out` is shorter than `count`.
#[inline]
#[allow(unsafe_code)]
pub fn fill_scores(
    words: &[u64],
    s0: usize,
    count: usize,
    m: usize,
    score_fn: ScoreFunction,
    out: &mut [u64],
) {
    let out = &mut out[..count];
    #[cfg(target_arch = "x86_64")]
    if hysortk_dna::simd::avx2() {
        // SAFETY: `avx2()` is true only after `is_x86_feature_detected!("avx2")` held.
        return unsafe { x86::fill_scores_avx2(words, s0, count, m, score_fn, out) };
    }
    fill_scores_scalar(words, s0, count, m, score_fn, out)
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

    #[test]
    fn dispatched_fill_matches_scalar_across_lengths_offsets_and_tails() {
        // Lengths spanning 0..=4× the lane width past the window, every block offset
        // (unaligned starts), both score functions, m covering 1..=32.
        for m in [1usize, 2, 7, 13, 16, 31, 32] {
            for extra in [0usize, 1, 3, 15, 16, 63, 64, 200, 256] {
                let len = m + extra;
                let seq = random_seq(len, (m * 1000 + extra) as u64);
                let total = len + 1 - m;
                for score_fn in [
                    ScoreFunction::Hash { seed: 31 },
                    ScoreFunction::Lexicographic,
                ] {
                    let mut want = vec![0u64; total];
                    fill_scores_scalar(seq.words(), 0, total, m, score_fn, &mut want);
                    for s0 in [0usize, 1, 2, 3, 5, 17] {
                        if s0 >= total {
                            continue;
                        }
                        let cnt = total - s0;
                        let mut got = vec![0u64; cnt];
                        fill_scores(seq.words(), s0, cnt, m, score_fn, &mut got);
                        assert_eq!(got, want[s0..], "m={m} len={len} s0={s0} {score_fn:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn an_out_buffer_shorter_than_count_panics() {
        let seq = random_seq(200, 5);
        let mut out = vec![0u64; 100];
        let sf = ScoreFunction::Lexicographic;
        fill_scores(seq.words(), 0, 150, 13, sf, &mut out);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_hash_lanes_match_hash_mmer() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // The lane-wise murmur must agree with the scalar hash for adversarial values.
        let seq = random_seq(4096 + 13, 0xC0FFEE);
        let total = seq.len() + 1 - 13;
        let mut got = vec![0u64; total];
        let mut want = vec![0u64; total];
        for seed in [0u32, 31, 0xFFFF_FFFF] {
            let sf = ScoreFunction::Hash { seed };
            fill_scores(seq.words(), 0, total, 13, sf, &mut got);
            fill_scores_scalar(seq.words(), 0, total, 13, sf, &mut want);
            assert_eq!(got, want, "seed={seed}");
        }
    }
}
