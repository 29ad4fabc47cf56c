//! Packed k-mer representation.
//!
//! A [`Kmer<W>`] packs up to `32 * W` bases, 2 bits each, into `W` 64-bit words. The
//! packing is *right-aligned, most-significant-word-first*: the logical 2k-bit value
//! occupies the low `2k` bits of the `[u64; W]` array interpreted as a big integer with
//! `words[0]` the most significant word. With the `A=0 < C=1 < G=2 < T=3` base encoding
//! this makes the derived `Ord` (array lexicographic order) identical to the
//! lexicographic order of the underlying DNA strings of equal length — the property the
//! radix-sort-based counter relies on.
//!
//! Most pipeline code is generic over [`KmerCode`], so the same counting code handles
//! `k ≤ 32` with one word ([`Kmer1`]) and `k ≤ 64` with two words ([`Kmer2`], used for
//! the paper's `k = 55` experiments).

use std::fmt;
use std::hash::Hash;

use hysortk_sort::RadixKey;

use crate::base::{complement_code, decode_base, encode_base};

/// A fixed-size packed k-mer over `W` 64-bit words.
///
/// The value of `k` itself is *not* stored; it is threaded through the APIs that need it
/// (as in the paper's C++ implementation, where k is a runtime parameter shared by the
/// whole pipeline). Unused high bits are always zero, which keeps `Eq`/`Ord`/`Hash`
/// consistent regardless of k.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Kmer<const W: usize> {
    words: [u64; W],
}

impl<const W: usize> Default for Kmer<W> {
    fn default() -> Self {
        Self::zero()
    }
}

/// One-word k-mer: supports k ≤ 32 (covers the paper's k = 17 and k = 31).
pub type Kmer1 = Kmer<1>;
/// Two-word k-mer: supports k ≤ 64 (covers the paper's k = 55).
pub type Kmer2 = Kmer<2>;

impl<const W: usize> Kmer<W> {
    /// The all-`A` k-mer (all bits zero).
    #[inline]
    pub fn zero() -> Self {
        Kmer { words: [0u64; W] }
    }

    /// Construct from raw words (most significant first). The caller must guarantee the
    /// unused high bits are zero for the intended k.
    #[inline]
    pub fn from_words(words: [u64; W]) -> Self {
        Kmer { words }
    }

    /// Raw packed words, most significant first.
    #[inline]
    pub fn words(&self) -> &[u64; W] {
        &self.words
    }

    /// Number of bases representable.
    #[inline]
    pub const fn capacity() -> usize {
        32 * W
    }

    /// Shift the whole value left by two bits (dropping into the next-more-significant
    /// word as needed) and insert `code` as the new least significant base, then mask to
    /// `k` bases. This is the rolling-window primitive used during read parsing.
    #[inline]
    pub fn push_base(mut self, k: usize, code: u8) -> Self {
        debug_assert!(k <= Self::capacity());
        // Multi-word shift left by 2.
        for i in 0..W - 1 {
            self.words[i] = (self.words[i] << 2) | (self.words[i + 1] >> 62);
        }
        self.words[W - 1] = (self.words[W - 1] << 2) | u64::from(code & 0b11);
        self.mask(k);
        self
    }

    /// Zero every bit above the low `2k` bits.
    #[inline]
    fn mask(&mut self, k: usize) {
        let total_bits = 2 * k;
        for i in 0..W {
            // Bits held by words[i] span logical positions
            // [(W-1-i)*64, (W-i)*64) counted from the least significant end.
            let low = (W - 1 - i) * 64;
            if total_bits <= low {
                self.words[i] = 0;
            } else {
                let bits_here = (total_bits - low).min(64);
                if bits_here < 64 {
                    self.words[i] &= (1u64 << bits_here) - 1;
                }
            }
        }
    }

    /// Rolling-window update of the **reverse-complement** strand: drop the least
    /// significant base (the complement of the window's oldest base) and insert the
    /// complement of `code` as the new most significant base (position `k - 1`).
    ///
    /// Keeping the forward window with [`Kmer::push_base`] and the reverse window with
    /// this primitive makes the canonical k-mer of every window position an O(1)
    /// `min(fwd, rc)` instead of an O(k) [`Kmer::reverse_complement`] rebuild — the
    /// trick the streaming supermer extractor uses for m-mers, applied to full k-mers
    /// by the receive-side decoder.
    #[inline]
    pub fn push_base_rc(mut self, k: usize, code: u8) -> Self {
        debug_assert!(k <= Self::capacity());
        // Multi-word shift right by 2.
        for i in (1..W).rev() {
            self.words[i] = (self.words[i] >> 2) | (self.words[i - 1] << 62);
        }
        self.words[0] >>= 2;
        // Insert the complement at logical bit position 2(k - 1).
        let bit = 2 * (k - 1);
        let word = W - 1 - bit / 64;
        let shift = bit % 64;
        self.words[word] |= u64::from(3 - (code & 0b11)) << shift;
        self
    }

    /// Build a k-mer from a slice of 2-bit base codes (`codes.len()` is k).
    #[inline]
    pub fn from_codes(codes: &[u8]) -> Self {
        let k = codes.len();
        assert!(k <= Self::capacity(), "k = {k} exceeds Kmer<{W}> capacity");
        let mut km = Self::zero();
        for &c in codes {
            km = km.push_base(k, c);
        }
        km
    }

    /// Build a k-mer from an ASCII DNA string (unknown characters map to `A`).
    pub fn from_ascii(seq: &[u8]) -> Self {
        let codes: Vec<u8> = seq.iter().map(|&c| encode_base(c)).collect();
        Self::from_codes(&codes)
    }

    /// The 2-bit code of base `i` (0-based from the 5' end / leftmost base).
    #[inline]
    pub fn base_at(&self, k: usize, i: usize) -> u8 {
        debug_assert!(i < k);
        let bit = 2 * (k - 1 - i);
        let word = W - 1 - bit / 64;
        let shift = bit % 64;
        ((self.words[word] >> shift) & 0b11) as u8
    }

    /// Reverse complement for a given k.
    pub fn reverse_complement(&self, k: usize) -> Self {
        let mut rc = Self::zero();
        for i in (0..k).rev() {
            rc = rc.push_base(k, complement_code(self.base_at(k, i)));
        }
        rc
    }

    /// Canonical form: the smaller of the k-mer and its reverse complement. Counting
    /// canonical k-mers merges the two strands, as every tool in the paper does.
    #[inline]
    pub fn canonical(&self, k: usize) -> Self {
        let rc = self.reverse_complement(k);
        if rc < *self {
            rc
        } else {
            *self
        }
    }

    /// Number of meaningful bytes for a given k (`⌈2k / 8⌉`).
    #[inline]
    pub const fn bytes_for(k: usize) -> usize {
        (2 * k).div_ceil(8)
    }

    /// Render as an ASCII DNA string of length k.
    pub fn to_string_k(&self, k: usize) -> String {
        (0..k)
            .map(|i| decode_base(self.base_at(k, i)) as char)
            .collect()
    }
}

impl<const W: usize> fmt::Debug for Kmer<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kmer<{}>{:x?}", W, self.words)
    }
}

/// A k-mer's packed words *are* its big-endian radix key, so the monomorphized radix
/// kernels (`hysortk_sort::raduls_sort` / `paradis_sort`) can sort k-mers — and
/// `(k-mer, payload)` records — with direct shift/mask word access. Levels above the
/// meaningful `2k` bits read as zero and are skipped by the kernels.
impl<const W: usize> RadixKey for Kmer<W> {
    const KEY_WORDS: usize = W;

    #[inline(always)]
    fn key_word(&self, w: usize) -> u64 {
        self.words[w]
    }
}

/// Abstraction over packed k-mer widths so pipeline code can be written once and
/// instantiated for `k ≤ 32` ([`Kmer1`]) or `k ≤ 64` ([`Kmer2`]).
///
/// `RadixKey` is a supertrait: every k-mer width sorts through the monomorphized
/// radix kernels without a digit closure.
pub trait KmerCode:
    Copy + Clone + Eq + Ord + Hash + Send + Sync + fmt::Debug + Default + RadixKey + 'static
{
    /// Number of 64-bit words in the representation.
    const WORDS: usize;

    /// Maximum supported k.
    fn max_k() -> usize;
    /// The all-`A` k-mer.
    fn zero() -> Self;
    /// Rolling push of one base code.
    fn push_base(self, k: usize, code: u8) -> Self;
    /// Rolling push on the reverse-complement strand (see [`Kmer::push_base_rc`]):
    /// rolling both strands makes the canonical form an O(1) `min(fwd, rc)`.
    fn push_base_rc(self, k: usize, code: u8) -> Self;
    /// Build from base codes.
    fn from_codes(codes: &[u8]) -> Self;
    /// Reconstruct from raw packed words (most significant first, exactly
    /// [`KmerCode::word_slice`]'s layout). The caller must guarantee the unused high
    /// bits are zero, as `word_slice` always produces.
    fn from_word_slice(words: &[u64]) -> Self;
    /// Base code at position `i`.
    fn base_at(&self, k: usize, i: usize) -> u8;
    /// Reverse complement.
    fn reverse_complement(&self, k: usize) -> Self;
    /// Canonical (strand-merged) form.
    fn canonical(&self, k: usize) -> Self;
    /// Packed words, most significant first.
    fn word_slice(&self) -> &[u64];
    /// Number of radix bytes for a given k.
    fn num_bytes(k: usize) -> usize;
    /// ASCII rendering.
    fn to_dna_string(&self, k: usize) -> String;
}

impl<const W: usize> KmerCode for Kmer<W> {
    const WORDS: usize = W;

    #[inline]
    fn max_k() -> usize {
        Self::capacity()
    }
    #[inline]
    fn zero() -> Self {
        Kmer::zero()
    }
    #[inline]
    fn push_base(self, k: usize, code: u8) -> Self {
        Kmer::push_base(self, k, code)
    }
    #[inline]
    fn push_base_rc(self, k: usize, code: u8) -> Self {
        Kmer::push_base_rc(self, k, code)
    }
    #[inline]
    fn from_codes(codes: &[u8]) -> Self {
        Kmer::from_codes(codes)
    }
    #[inline]
    fn from_word_slice(words: &[u64]) -> Self {
        assert_eq!(
            words.len(),
            W,
            "word slice length must match the k-mer width"
        );
        let mut out = [0u64; W];
        out.copy_from_slice(words);
        Kmer::from_words(out)
    }
    #[inline]
    fn base_at(&self, k: usize, i: usize) -> u8 {
        Kmer::base_at(self, k, i)
    }
    #[inline]
    fn reverse_complement(&self, k: usize) -> Self {
        Kmer::reverse_complement(self, k)
    }
    #[inline]
    fn canonical(&self, k: usize) -> Self {
        Kmer::canonical(self, k)
    }
    #[inline]
    fn word_slice(&self) -> &[u64] {
        &self.words
    }
    #[inline]
    fn num_bytes(k: usize) -> usize {
        Self::bytes_for(k)
    }
    #[inline]
    fn to_dna_string(&self, k: usize) -> String {
        self.to_string_k(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ascii_and_back() {
        let s = b"ACGTACGTACGTACGTACGTACGTACGTACG"; // 31 bases
        let km = Kmer1::from_ascii(s);
        assert_eq!(km.to_string_k(31), String::from_utf8_lossy(s));
    }

    #[test]
    fn two_word_round_trip() {
        let s: Vec<u8> = (0..55).map(|i| b"ACGT"[i % 4]).collect();
        let km = Kmer2::from_ascii(&s);
        assert_eq!(km.to_string_k(55), String::from_utf8_lossy(&s));
    }

    #[test]
    fn ordering_matches_string_ordering() {
        let a = Kmer1::from_ascii(b"AACGT");
        let b = Kmer1::from_ascii(b"AACTT");
        let c = Kmer1::from_ascii(b"TACGT");
        assert!(a < b);
        assert!(b < c);
        // Cross-check against string comparison for a larger sample.
        let strings = [
            "ACGTA", "AAAAA", "TTTTT", "GATCA", "CCCCC", "GGGGT", "ATATA",
        ];
        let mut by_str: Vec<&str> = strings.to_vec();
        by_str.sort();
        let mut by_kmer: Vec<&str> = strings.to_vec();
        by_kmer.sort_by_key(|s| Kmer1::from_ascii(s.as_bytes()));
        assert_eq!(by_str, by_kmer);
    }

    #[test]
    fn push_base_is_a_sliding_window() {
        let seq = b"ACGTTGCAGTACGTAA";
        let k = 5;
        let mut rolling = Kmer1::zero();
        for (i, &c) in seq.iter().enumerate() {
            rolling = rolling.push_base(k, encode_base(c));
            if i + 1 >= k {
                let expected = Kmer1::from_ascii(&seq[i + 1 - k..=i]);
                assert_eq!(rolling, expected, "window ending at {i}");
            }
        }
    }

    #[test]
    fn push_base_rc_rolls_the_reverse_complement_window() {
        // Rolling both strands must reproduce the O(k) rebuild at every window
        // position, for both one- and two-word k-mers (including word-straddling k).
        let seq = b"ACGTTGCAGTACGTAACCGGTTAAGCATGCATGGCTAGCTAACGTTGCAGTACGTAACCGGTT";
        for k in [3usize, 5, 31, 32] {
            let mut fwd = Kmer1::zero();
            let mut rc = Kmer1::zero();
            for (i, &c) in seq.iter().enumerate() {
                let code = encode_base(c);
                fwd = fwd.push_base(k, code);
                rc = rc.push_base_rc(k, code);
                if i + 1 >= k {
                    assert_eq!(rc, fwd.reverse_complement(k), "k={k}, window ending {i}");
                }
            }
        }
        for k in [33usize, 40, 55, 64] {
            let mut fwd = Kmer2::zero();
            let mut rc = Kmer2::zero();
            for (i, &c) in seq.iter().enumerate() {
                let code = encode_base(c);
                fwd = fwd.push_base(k, code);
                rc = rc.push_base_rc(k, code);
                if i + 1 >= k {
                    assert_eq!(rc, fwd.reverse_complement(k), "k={k}, window ending {i}");
                }
            }
        }
    }

    #[test]
    fn reverse_complement_involution_and_value() {
        let km = Kmer1::from_ascii(b"ACGTT");
        assert_eq!(km.reverse_complement(5).to_string_k(5), "AACGT");
        assert_eq!(km.reverse_complement(5).reverse_complement(5), km);

        let long: Vec<u8> = (0..55).map(|i| b"ACGGTTAC"[i % 8]).collect();
        let km2 = Kmer2::from_ascii(&long);
        assert_eq!(km2.reverse_complement(55).reverse_complement(55), km2);
    }

    #[test]
    fn canonical_is_min_of_strands() {
        let km = Kmer1::from_ascii(b"TTTTT");
        assert_eq!(km.canonical(5).to_string_k(5), "AAAAA");
        let km = Kmer1::from_ascii(b"AAAAA");
        assert_eq!(km.canonical(5).to_string_k(5), "AAAAA");
        // A palindromic (reverse-complement-symmetric) k-mer maps to itself.
        let km = Kmer1::from_ascii(b"ACGT");
        assert_eq!(km.canonical(4), km);
    }

    #[test]
    fn byte_ordering_matches_kmer_ordering() {
        // Sorting by the radix digits, most significant byte first, must agree with
        // Ord: the radix sorts depend on it, on both widths and across the word seam.
        fn check<K: KmerCode>(kmers: Vec<K>) {
            let mut by_ord = kmers.clone();
            by_ord.sort();
            let mut by_bytes = kmers;
            by_bytes.sort_by(|a, b| {
                (0..K::KEY_LEVELS)
                    .map(|l| hysortk_sort::radix_digit(a, l))
                    .cmp((0..K::KEY_LEVELS).map(|l| hysortk_sort::radix_digit(b, l)))
            });
            assert_eq!(by_ord, by_bytes);
        }
        check(
            [
                "ACGTACGTACGTA",
                "TTTTTTTTTTTTT",
                "AAAAAAAAAAAAA",
                "GGGGGCCCCCAAA",
            ]
            .map(|s| Kmer1::from_ascii(s.as_bytes()))
            .to_vec(),
        );
        check(
            ["TGCA", "TGCC", "ATTT", "GGGA", "CATG"]
                .map(|unit| {
                    let seq: Vec<u8> = unit.bytes().cycle().take(55).collect();
                    Kmer2::from_ascii(&seq)
                })
                .to_vec(),
        );
    }

    #[test]
    fn radix_key_words_match_packed_words_and_sort_like_ord() {
        let seq: Vec<u8> = (0..55).map(|i| b"TGAC"[i % 4]).collect();
        let km = Kmer2::from_ascii(&seq);
        assert_eq!(km.key_word(0), km.words()[0]);
        assert_eq!(km.key_word(1), km.words()[1]);

        let mut kmers: Vec<Kmer1> = ["ACGTA", "AAAAA", "TTTTT", "GATCA", "CCCCC"]
            .iter()
            .map(|s| Kmer1::from_ascii(s.as_bytes()))
            .collect();
        let mut by_ord = kmers.clone();
        by_ord.sort();
        hysortk_sort::raduls_sort(&mut kmers);
        assert_eq!(kmers, by_ord);
    }

    #[test]
    fn from_word_slice_round_trips() {
        let km = Kmer1::from_ascii(b"GATTACAGATTACAGATTACA");
        assert_eq!(Kmer1::from_word_slice(km.word_slice()), km);
        let long: Vec<u8> = (0..55).map(|i| b"ACGGTTAC"[i % 8]).collect();
        let km2 = Kmer2::from_ascii(&long);
        assert_eq!(Kmer2::from_word_slice(km2.word_slice()), km2);
    }

    #[test]
    fn base_at_reads_back_positions() {
        let km = Kmer1::from_ascii(b"GATTACA");
        let expected = [2u8, 0, 3, 3, 0, 1, 0];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(km.base_at(7, i), e);
        }
    }
}
