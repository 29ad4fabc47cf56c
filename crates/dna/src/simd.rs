//! Runtime-dispatched SIMD kernels for the ASCII hot paths of the DNA layer.
//!
//! Stage 1 of the pipeline spends its time in three byte-granular inner loops: ASCII →
//! 2-bit packing ([`DnaSeq::from_ascii`](crate::sequence::DnaSeq::from_ascii) and the
//! streaming readers' fragment splitter), ambiguity scanning (the `io.rs` readers cut
//! fragments at every non-`ACGT` character), and the wire re-packing of
//! [`append_packed_range`](crate::sequence::DnaSeq::append_packed_range). This module
//! provides AVX2 kernels for all three with `core::arch::x86_64` intrinsics, selected
//! once at runtime via `is_x86_feature_detected!` and cached. The scalar loops are the
//! path of every other CPU **and** the reference the property tests pin the AVX2
//! kernels against, byte for byte.
//!
//! The kernels are safe `#[target_feature(enable = "avx2")]` functions over slices and
//! arrays: they build vectors from values and write results back as values, which
//! compiles to the same unaligned vector loads and stores as pointer intrinsics. The
//! one obligation left — run a kernel only on a CPU that has AVX2 — is discharged once
//! per dispatcher ([`pack_block32`], [`first_non_acgt`], [`shift_word_stream`]), each
//! the only place its kernel is entered.
//!
//! Dispatch hygiene: the tier is decided exactly once per process (a `OnceLock`),
//! honouring the `HYSORTK_NO_SIMD=1` escape hatch that forces the scalar path;
//! [`avx2`] and [`avx512`] read it, and [`path_name`] is the label the pipeline
//! surfaces in `RunReport`. The AVX-512 tier is only used by the supermer crate's
//! lane kernel; the kernels here take their AVX2 path on it.

use crate::base::encode_base;

struct Dispatch {
    avx2: bool,
    avx512: bool,
    name: &'static str,
}

static DISPATCH: std::sync::OnceLock<Dispatch> = std::sync::OnceLock::new();

/// The tier of a process: `no_simd` is the value of `HYSORTK_NO_SIMD`, `avx2` and
/// `avx512` what the CPU was detected to have (`avx512` meaning AVX-512 F and DQ).
fn choose(no_simd: Option<std::ffi::OsString>, avx2: bool, avx512: bool) -> Dispatch {
    let forced_off = no_simd.is_some_and(|v| !v.is_empty() && v != "0");
    let (avx2, avx512, name) = match (forced_off, avx2, avx512) {
        (true, ..) => (false, false, "scalar (HYSORTK_NO_SIMD)"),
        (false, true, true) => (true, true, "avx512"),
        (false, true, false) => (true, false, "avx2"),
        (false, false, _) => (false, false, "scalar"),
    };
    Dispatch { avx2, avx512, name }
}

fn detect() -> Dispatch {
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512) = (false, false);
    choose(std::env::var_os("HYSORTK_NO_SIMD"), avx2, avx512)
}

/// Whether the dispatched kernels of the workspace take their AVX2 path: `true` only
/// if `is_x86_feature_detected!("avx2")` held for this process, decided once and
/// cached. `HYSORTK_NO_SIMD=1` (read at first use) forces `false`. Every dispatcher
/// that enters an AVX2 kernel checks this first.
#[inline]
pub fn avx2() -> bool {
    DISPATCH.get_or_init(detect).avx2
}

/// Whether the kernels that have an AVX-512 build take it: `true` only if AVX2,
/// AVX-512 F and AVX-512 DQ were all detected for this process, decided once with
/// [`avx2`] and cached. `HYSORTK_NO_SIMD=1` forces `false`. The supermer extractor
/// picks its lane kernel's AVX-512 build by this.
#[inline]
pub fn avx512() -> bool {
    DISPATCH.get_or_init(detect).avx512
}

/// Human-readable name of the active tier (`"avx512"`, `"avx2"`, `"scalar"`, or
/// `"scalar (HYSORTK_NO_SIMD)"`) — reported in `RunReport`.
#[inline]
pub fn path_name() -> &'static str {
    DISPATCH.get_or_init(detect).name
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// The 32 bytes of `chunk` as a vector. Built in ascending `setr` order, it compiles
    /// to one unaligned load (the descending `set` order did not).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load32(chunk: &[u8; 32]) -> __m256i {
        let word = |i: usize| i64::from_le_bytes(chunk[8 * i..8 * i + 8].try_into().unwrap());
        _mm256_setr_epi64x(word(0), word(1), word(2), word(3))
    }

    /// The four words of `words` as a vector (one unaligned load, as in [`load32`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load4(words: &[u64; 4]) -> __m256i {
        let [a, b, c, d] = words.map(|w| w as i64);
        _mm256_setr_epi64x(a, b, c, d)
    }

    /// Clearing bit 5 maps lowercase onto uppercase and nothing else onto A/C/G/T.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn upper(v: __m256i) -> __m256i {
        _mm256_and_si256(v, _mm256_set1_epi8(!0x20u8 as i8))
    }

    /// Pack 32 ASCII bases into one word (same contract as
    /// [`pack_block32_scalar`](super::pack_block32_scalar)).
    #[target_feature(enable = "avx2")]
    pub(super) fn pack_block32_avx2(chunk: &[u8; 32]) -> u64 {
        let up = upper(load32(chunk));
        let is_c = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'C' as i8));
        let is_g = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'G' as i8));
        let is_t = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'T' as i8));
        let codes = _mm256_or_si256(
            _mm256_and_si256(is_c, _mm256_set1_epi8(1)),
            _mm256_or_si256(
                _mm256_and_si256(is_g, _mm256_set1_epi8(2)),
                _mm256_and_si256(is_t, _mm256_set1_epi8(3)),
            ),
        );
        // Horizontal pack: byte pairs → `b0 + 4*b1` in u16 lanes, u16 pairs →
        // `p0 + 16*p1` in u32 lanes, then gather each u32 lane's low byte.
        let pairs = _mm256_maddubs_epi16(codes, _mm256_set1_epi16(0x0401));
        let quads = _mm256_madd_epi16(pairs, _mm256_set1_epi32(0x0010_0001));
        let gather = _mm256_setr_epi8(
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        );
        let packed = _mm256_shuffle_epi8(quads, gather);
        let lo = _mm256_extract_epi32::<0>(packed) as u32;
        let hi = _mm256_extract_epi32::<4>(packed) as u32;
        u64::from(lo) | (u64::from(hi) << 32)
    }

    /// Bitmask of the bytes of `chunk` that are valid `ACGT`/`acgt` characters (bit `j`
    /// set ⇔ byte `j` valid).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn valid_mask32(chunk: &[u8; 32]) -> u32 {
        let up = upper(load32(chunk));
        let is_a = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'A' as i8));
        let is_c = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'C' as i8));
        let is_g = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'G' as i8));
        let is_t = _mm256_cmpeq_epi8(up, _mm256_set1_epi8(b'T' as i8));
        let valid = _mm256_or_si256(_mm256_or_si256(is_a, is_c), _mm256_or_si256(is_g, is_t));
        _mm256_movemask_epi8(valid) as u32
    }

    /// [`first_non_acgt`](super::first_non_acgt) 32 bytes per step; the scalar
    /// reference finishes the tail.
    #[target_feature(enable = "avx2")]
    pub(super) fn first_non_acgt_avx2(s: &[u8]) -> usize {
        let mut chunks = s.chunks_exact(32);
        for (i, chunk) in (&mut chunks).enumerate() {
            let mask = valid_mask32(chunk.try_into().unwrap());
            if mask != u32::MAX {
                return 32 * i + (!mask).trailing_zeros() as usize;
            }
        }
        let tail = chunks.remainder();
        s.len() - tail.len() + super::first_non_acgt_scalar(tail)
    }

    /// Shift the 64-bit word stream `words` right by `shift` bits (0, 2, …, 62) with
    /// carry-in from the following word, writing groups of four output words at a time.
    /// Returns the number of output words produced; the caller finishes the tail with
    /// the scalar loop. Requires `shift < 64`.
    #[target_feature(enable = "avx2")]
    pub(super) fn shift_words_avx2(words: &[u64], shift: u32, dst: &mut [u64]) -> usize {
        let lo_shift = _mm_cvtsi32_si128(shift as i32);
        let hi_shift = _mm_cvtsi32_si128(64 - shift as i32);
        let mut done = 0;
        // Output group g needs words[4g..4g + 5]: lane w reads words[w] and words[w + 1].
        for (out, window) in dst.chunks_exact_mut(4).zip(words.windows(5).step_by(4)) {
            let lo = load4(window[..4].try_into().unwrap());
            let hi = load4(window[1..].try_into().unwrap());
            // `_mm256_sll_epi64` with a count of 64 (shift == 0) yields zero, exactly
            // the carry the scalar path takes in that case.
            let v = _mm256_or_si256(
                _mm256_srl_epi64(lo, lo_shift),
                _mm256_sll_epi64(hi, hi_shift),
            );
            out.copy_from_slice(&[
                _mm256_extract_epi64::<0>(v) as u64,
                _mm256_extract_epi64::<1>(v) as u64,
                _mm256_extract_epi64::<2>(v) as u64,
                _mm256_extract_epi64::<3>(v) as u64,
            ]);
            done += 4;
        }
        done
    }
}

// ---------------------------------------------------------------------------------------
// ASCII → 2-bit packing (32 bases per call)
// ---------------------------------------------------------------------------------------

/// Scalar reference: pack 32 ASCII bases into one little-position-order word (base `j`
/// at bits `2*j`), mapping unknown characters to `A` exactly like
/// [`encode_base`](crate::base::encode_base).
#[inline]
fn pack_block32_scalar(chunk: &[u8; 32]) -> u64 {
    let mut w = 0u64;
    for (j, &c) in chunk.iter().enumerate() {
        w |= u64::from(encode_base(c)) << (2 * j);
    }
    w
}

/// Pack 32 ASCII bases into one little-position-order word via the active SIMD path.
#[inline]
#[allow(unsafe_code)]
pub fn pack_block32(chunk: &[u8; 32]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` is true only after `is_x86_feature_detected!("avx2")` held.
        return unsafe { x86::pack_block32_avx2(chunk) };
    }
    pack_block32_scalar(chunk)
}

// ---------------------------------------------------------------------------------------
// Ambiguity scanning
// ---------------------------------------------------------------------------------------

/// Scalar reference for [`first_non_acgt`].
#[inline]
fn first_non_acgt_scalar(s: &[u8]) -> usize {
    s.iter()
        .position(|&c| crate::base::Base::from_ascii(c).is_none())
        .unwrap_or(s.len())
}

/// Index of the first character that is not `ACGT`/`acgt` (or `s.len()` if all are
/// valid) — the fragment splitter's cut scanner, vectorised.
#[inline]
#[allow(unsafe_code)]
pub fn first_non_acgt(s: &[u8]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` is true only after `is_x86_feature_detected!("avx2")` held.
        return unsafe { x86::first_non_acgt_avx2(s) };
    }
    first_non_acgt_scalar(s)
}

// ---------------------------------------------------------------------------------------
// Wire re-packing (append_packed_range)
// ---------------------------------------------------------------------------------------

/// Produce `dst.len()` words of the stream `words >> shift` (each output word `w` is
/// `(words[w] >> shift) | (words[w+1] << (64 - shift))`, with missing high words read
/// as zero). `shift` must be even and < 64. AVX2 processes four words per iteration;
/// the scalar loop is the reference and the tail handler.
#[allow(unsafe_code)]
pub fn shift_word_stream(words: &[u64], shift: u32, dst: &mut [u64]) {
    debug_assert!(shift < 64);
    let mut done = 0usize;
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` is true only after `is_x86_feature_detected!("avx2")` held.
        done = unsafe { x86::shift_words_avx2(words, shift, dst) };
    }
    for (w, slot) in dst.iter_mut().enumerate().skip(done) {
        let lo = words[w] >> shift;
        *slot = if shift > 0 && w + 1 < words.len() {
            lo | (words[w + 1] << (64 - shift))
        } else {
            lo
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned_ascii(len: usize, salt: usize) -> Vec<u8> {
        // Mixed-case valid bases with occasional ambiguity characters.
        (0..len)
            .map(|i| match (i * 7 + salt) % 11 {
                0 => b'a',
                1 => b'N',
                2 => b'c',
                3 => b'g',
                4 => b't',
                5 => b'X',
                k => b"ACGT"[k % 4],
            })
            .collect()
    }

    #[test]
    fn detection_is_cached_and_consistent() {
        assert_eq!(avx2(), avx2());
        assert_eq!(avx512(), avx512());
        assert!(!avx512() || avx2(), "the AVX-512 tier implies the AVX2 one");
        let name = path_name();
        match (avx2(), avx512()) {
            (true, true) => assert_eq!(name, "avx512"),
            (true, false) => assert_eq!(name, "avx2"),
            _ => assert!(name.starts_with("scalar")),
        }
    }

    #[test]
    fn no_simd_wins_over_both_tiers() {
        for (avx2, avx512) in [(true, true), (true, false), (false, false)] {
            let off = choose(Some("1".into()), avx2, avx512);
            assert!(!off.avx2 && !off.avx512);
            assert_eq!(off.name, "scalar (HYSORTK_NO_SIMD)");
            // An empty or `0` value leaves detection alone.
            for value in [None, Some(""), Some("0")] {
                let on = choose(value.map(Into::into), avx2, avx512);
                assert_eq!((on.avx2, on.avx512), (avx2, avx512));
            }
        }
        assert_eq!(choose(None, true, true).name, "avx512");
        assert_eq!(choose(None, true, false).name, "avx2");
        assert_eq!(choose(None, false, false).name, "scalar");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_available_pack_kernel_matches_scalar() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // All 256 byte values appear at every lane, pinning the unknown→A policy byte
        // for byte.
        let mut data = vec![0u8; 256 + 32];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 256) as u8;
        }
        for off in 0..=256 {
            let chunk: &[u8; 32] = data[off..off + 32].try_into().unwrap();
            assert_eq!(
                pack_block32(chunk),
                pack_block32_scalar(chunk),
                "avx2 off={off}"
            );
        }
    }

    #[test]
    fn ambiguity_scan_matches_scalar_at_every_length_and_offset() {
        // Lengths 0..=128 (4× the AVX2 lane width) with the ambiguity character swept
        // across every position, plus unaligned starting offsets.
        for len in 0..=128usize {
            let clean: Vec<u8> = (0..len).map(|i| b"acgtACGT"[i % 8]).collect();
            assert_eq!(first_non_acgt(&clean), len, "clean len={len}");
            for bad in 0..len {
                let mut s = clean.clone();
                s[bad] = b'N';
                assert_eq!(first_non_acgt(&s), bad, "len={len} bad={bad}");
                assert_eq!(first_non_acgt_scalar(&s), bad);
            }
        }
        // Every byte value at every position of one and of two full lanes: only the
        // eight `ACGTacgt` characters may pass the scan.
        for len in [32usize, 64] {
            let clean: Vec<u8> = (0..len).map(|i| b"acgtACGT"[i % 8]).collect();
            for pos in 0..len {
                for byte in 0..=255u8 {
                    let mut s = clean.clone();
                    s[pos] = byte;
                    let want = [pos, len][usize::from(b"ACGTacgt".contains(&byte))];
                    for got in [first_non_acgt_scalar(&s), first_non_acgt(&s)] {
                        assert_eq!(got, want, "len={len} pos={pos} byte={byte}");
                    }
                }
            }
        }
        let big = patterned_ascii(513, 3);
        for off in 0..67 {
            assert_eq!(
                first_non_acgt(&big[off..]),
                first_non_acgt_scalar(&big[off..]),
                "off={off}"
            );
        }
    }

    #[test]
    fn shift_word_stream_matches_scalar_reference() {
        let words: Vec<u64> = (0..23u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for shift in (0..64u32).step_by(2) {
            for out_len in [0usize, 1, 3, 4, 5, 8, 15, 23] {
                let mut fast = vec![0u64; out_len];
                shift_word_stream(&words, shift, &mut fast);
                let mut slow = vec![0u64; out_len];
                for (w, slot) in slow.iter_mut().enumerate() {
                    let lo = words[w] >> shift;
                    *slot = if shift > 0 && w + 1 < words.len() {
                        lo | (words[w + 1] << (64 - shift))
                    } else {
                        lo
                    };
                }
                assert_eq!(fast, slow, "shift={shift} out_len={out_len}");
            }
        }
    }
}
