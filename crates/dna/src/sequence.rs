//! Packed DNA sequences (reads) and rolling k-mer extraction.

use crate::base::{complement_code, decode_base};
use crate::kmer::KmerCode;

/// A DNA sequence packed 2 bits per base.
///
/// Sequences are append-only; the counting pipelines only ever parse them forwards.
/// Bases are stored 32 per `u64` word in *little* position order (base `i` lives in bits
/// `2*(i % 32)` of word `i / 32`), which makes `push`/`get` cheap. Ordering of whole
/// sequences is never required, unlike for [`crate::kmer::Kmer`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DnaSeq {
    words: Vec<u64>,
    len: usize,
}

impl DnaSeq {
    /// Empty sequence.
    pub fn new() -> Self {
        DnaSeq {
            words: Vec::new(),
            len: 0,
        }
    }

    /// Empty sequence with room for `n` bases.
    pub fn with_capacity(n: usize) -> Self {
        DnaSeq {
            words: Vec::with_capacity(n.div_ceil(32)),
            len: 0,
        }
    }

    /// Parse from ASCII (unknown characters become `A`). Packs 32 bases per iteration
    /// through the dispatched SIMD kernel (see [`crate::simd`]); byte-identical to one
    /// `encode_base` per character.
    pub fn from_ascii(seq: &[u8]) -> Self {
        let mut s = Self::with_capacity(seq.len());
        s.extend_from_ascii(seq);
        s
    }

    /// The scalar reference parser the unit tests pin [`DnaSeq::from_ascii`] against:
    /// one `encode_base` per character.
    #[cfg(test)]
    fn from_ascii_scalar(seq: &[u8]) -> Self {
        let mut s = Self::with_capacity(seq.len());
        for &c in seq {
            s.push_code(crate::base::encode_base(c));
        }
        s
    }

    /// Append ASCII bases (unknown characters become `A`), 32 at a time: each chunk is
    /// packed to one word by the active SIMD kernel — the last one padded with `A`s,
    /// whose code is 0 — and spliced in with two shifts, so appending is O(len/32) word
    /// operations at any alignment.
    pub fn extend_from_ascii(&mut self, seq: &[u8]) {
        self.words.reserve((self.len % 32 + seq.len()).div_ceil(32));
        let mut chunks = seq.chunks_exact(32);
        for chunk in &mut chunks {
            let block: &[u8; 32] = chunk.try_into().expect("exact 32-byte chunk");
            self.append_codes_word(crate::simd::pack_block32(block), 32);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut block = [b'A'; 32];
            block[..rest.len()].copy_from_slice(rest);
            self.append_codes_word(crate::simd::pack_block32(&block), rest.len());
        }
    }

    /// Append `count` (1..=32) base codes packed little-position-order in `w` (base `j`
    /// of the group at bits `2*j`; bits at and above `2*count` must be zero).
    #[inline]
    fn append_codes_word(&mut self, w: u64, count: usize) {
        debug_assert!((1..=32).contains(&count));
        debug_assert!(count == 32 || w >> (2 * count) == 0);
        let r = self.len % 32;
        if r == 0 {
            self.words.push(w);
        } else {
            *self.words.last_mut().expect("len % 32 != 0 implies a word") |= w << (2 * r);
            if r + count > 32 {
                self.words.push(w >> (2 * (32 - r)));
            }
        }
        self.len += count;
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the sequence holds no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every base, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Append one 2-bit base code.
    #[inline]
    pub fn push_code(&mut self, code: u8) {
        let word = self.len / 32;
        let shift = 2 * (self.len % 32);
        if word == self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= u64::from(code & 0b11) << shift;
        self.len += 1;
    }

    /// The 2-bit code of base `i`.
    #[inline]
    pub fn get_code(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        let word = i / 32;
        let shift = 2 * (i % 32);
        ((self.words[word] >> shift) & 0b11) as u8
    }

    /// The backing packed words (base `i` lives in bits `2*(i % 32)` of word `i / 32`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Copy bases `start..start + len` into a new sequence, moving whole packed words
    /// (32 bases per shift/OR, four words per AVX2 iteration) instead of one base at a
    /// time.
    pub fn subseq(&self, start: usize, len: usize) -> DnaSeq {
        assert!(start + len <= self.len, "subrange out of bounds");
        let nwords = len.div_ceil(32);
        let mut words = vec![0u64; nwords];
        if nwords > 0 {
            let shift = (2 * (start % 32)) as u32;
            crate::simd::shift_word_stream(&self.words[start / 32..], shift, &mut words);
        }
        let stray = len % 32;
        if stray != 0 {
            let last = words.last_mut().expect("len > 0 implies a word");
            *last &= (1u64 << (2 * stray)) - 1;
        }
        DnaSeq { words, len }
    }

    /// Append the wire encoding of bases `start..start + len` to `out`
    /// ([`DnaSeq::write_packed_range`]).
    pub fn append_packed_range(&self, start: usize, len: usize, out: &mut Vec<u8>) {
        let at = out.len();
        out.resize(at + len.div_ceil(4), 0);
        self.write_packed_range(start, len, &mut out[at..]);
    }

    /// Write the wire encoding of bases `start..start + len` to the first
    /// `len.div_ceil(4)` bytes of `out`: 4 bases per byte, base `j` of the range at bits
    /// `2*(j % 4)` of byte `j / 4` — the layout the exchange stage ships. Each output
    /// word of 32 bases is two shifted source words; a long range goes 16 words at a
    /// time through the SIMD word shifter ([`crate::simd::shift_word_stream`]). Stray
    /// high bits of the final byte are zeroed.
    #[inline]
    pub fn write_packed_range(&self, start: usize, len: usize, out: &mut [u8]) {
        assert!(start + len <= self.len, "subrange out of bounds");
        let nbytes = len.div_ceil(4);
        let shift = (2 * (start % 32)) as u32;
        let words = &self.words[start / 32..];
        let (mut rest, mut w) = (&mut out[..nbytes], 0);
        const BATCH: usize = 16;
        while rest.len() >= 8 * BATCH {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(8 * BATCH);
            let mut batch = [0u64; BATCH];
            crate::simd::shift_word_stream(&words[w..], shift, &mut batch);
            for (bytes, word) in head.chunks_exact_mut(8).zip(batch) {
                bytes.copy_from_slice(&word.to_le_bytes());
            }
            rest = tail;
            w += BATCH;
        }
        for bytes in rest.chunks_mut(8) {
            let word = match words.get(w + 1) {
                Some(high) if shift > 0 => (words[w] >> shift) | (high << (64 - shift)),
                _ => words[w] >> shift,
            };
            bytes.copy_from_slice(&word.to_le_bytes()[..bytes.len()]);
            w += 1;
        }
        let stray = len % 4;
        if stray != 0 {
            out[nbytes - 1] &= (1u8 << (2 * stray)) - 1;
        }
    }

    /// Iterate over the 2-bit base codes.
    pub fn codes(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.len).map(move |i| self.get_code(i))
    }

    /// Render as an ASCII string.
    pub fn to_ascii(&self) -> Vec<u8> {
        self.codes().map(decode_base).collect()
    }

    /// Reverse complement of the whole sequence.
    pub fn reverse_complement(&self) -> Self {
        let mut rc = Self::with_capacity(self.len);
        for i in (0..self.len).rev() {
            rc.push_code(complement_code(self.get_code(i)));
        }
        rc
    }

    /// Number of k-mers in this sequence (0 if shorter than k).
    #[inline]
    pub fn num_kmers(&self, k: usize) -> usize {
        if self.len < k {
            0
        } else {
            self.len - k + 1
        }
    }

    /// Rolling iterator over all k-mers (in forward orientation).
    pub fn kmers<K: KmerCode>(&self, k: usize) -> KmerIter<'_, K> {
        assert!(
            k >= 1 && k <= K::max_k(),
            "k = {k} out of range for this k-mer width"
        );
        KmerIter {
            seq: self,
            k,
            next_base: 0,
            current: K::zero(),
        }
    }

    /// Rolling iterator over canonical k-mers.
    pub fn canonical_kmers<K: KmerCode>(&self, k: usize) -> impl Iterator<Item = K> + '_ {
        self.kmers::<K>(k).map(move |km| km.canonical(k))
    }
}

/// Rolling k-mer iterator produced by [`DnaSeq::kmers`].
pub struct KmerIter<'a, K: KmerCode> {
    seq: &'a DnaSeq,
    k: usize,
    next_base: usize,
    current: K,
}

impl<K: KmerCode> Iterator for KmerIter<'_, K> {
    type Item = K;

    fn next(&mut self) -> Option<K> {
        // Warm up the window until it holds k bases, then emit one k-mer per base.
        while self.next_base < self.seq.len() {
            let code = self.seq.get_code(self.next_base);
            self.current = self.current.push_base(self.k, code);
            self.next_base += 1;
            if self.next_base >= self.k {
                return Some(self.current);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = if self.seq.len() < self.k {
            0
        } else {
            self.seq.len() + 1 - self.k.max(self.next_base + 1) + 1
        };
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::encode_base;
    use crate::kmer::Kmer1;

    #[test]
    fn ascii_round_trip() {
        let s = b"ACGTTGCAACGTGGGTTTAAACCC";
        let seq = DnaSeq::from_ascii(s);
        assert_eq!(seq.len(), s.len());
        assert_eq!(seq.to_ascii(), s.to_vec());
    }

    #[test]
    fn push_and_get_across_word_boundaries() {
        let long: Vec<u8> = (0..100).map(|i| b"ACGT"[(i * 7 + 3) % 4]).collect();
        let seq = DnaSeq::from_ascii(&long);
        for (i, &c) in long.iter().enumerate() {
            assert_eq!(decode_base(seq.get_code(i)), c);
        }
    }

    #[test]
    fn reverse_complement_involution() {
        let seq = DnaSeq::from_ascii(b"ACGTTGCAACGTGGGTTTAAACCCTAGCAT");
        assert_eq!(seq.reverse_complement().reverse_complement(), seq);
        assert_eq!(
            DnaSeq::from_ascii(b"ACGT").reverse_complement().to_ascii(),
            b"ACGT".to_vec()
        );
        assert_eq!(
            DnaSeq::from_ascii(b"AAACC").reverse_complement().to_ascii(),
            b"GGTTT".to_vec()
        );
    }

    #[test]
    fn kmer_iteration_matches_slices() {
        let s = b"ACGTTGCAACGTGGGTTTAAACCC";
        let seq = DnaSeq::from_ascii(s);
        let k = 7;
        let kmers: Vec<Kmer1> = seq.kmers(k).collect();
        assert_eq!(kmers.len(), s.len() - k + 1);
        for (i, km) in kmers.iter().enumerate() {
            assert_eq!(km.to_string_k(k), String::from_utf8_lossy(&s[i..i + k]));
        }
    }

    #[test]
    fn short_sequences_yield_no_kmers() {
        let seq = DnaSeq::from_ascii(b"ACG");
        assert_eq!(seq.num_kmers(5), 0);
        assert_eq!(seq.kmers::<Kmer1>(5).count(), 0);
        assert_eq!(seq.num_kmers(3), 1);
    }

    #[test]
    fn canonical_kmers_are_strand_invariant() {
        let s = b"ACGTTGCAACGTGGGTTTAAACCCTAG";
        let k = 9;
        let fwd = DnaSeq::from_ascii(s);
        let rev = fwd.reverse_complement();
        let mut a: Vec<Kmer1> = fwd.canonical_kmers(k).collect();
        let mut b: Vec<Kmer1> = rev.canonical_kmers(k).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    fn patterned(len: usize) -> DnaSeq {
        let bases: Vec<u8> = (0..len).map(|i| b"ACGT"[(i * 7 + i / 3) % 4]).collect();
        DnaSeq::from_ascii(&bases)
    }

    #[test]
    fn subseq_matches_per_base_copy_at_every_alignment() {
        let seq = patterned(200);
        for start in [0, 1, 31, 32, 33, 63, 64, 97] {
            for len in [0, 1, 3, 31, 32, 33, 64, 100] {
                if start + len > seq.len() {
                    continue;
                }
                let fast = seq.subseq(start, len);
                let mut slow = DnaSeq::with_capacity(len);
                for i in start..start + len {
                    slow.push_code(seq.get_code(i));
                }
                assert_eq!(fast, slow, "start={start} len={len}");
            }
        }
    }

    /// Ranges long enough for the batched word shifter, at every start alignment, and
    /// the slice writer leaves the bytes past the range alone.
    #[test]
    fn write_packed_range_matches_per_base_packing_on_long_ranges() {
        let seq = patterned(2_000);
        for start in [0, 1, 2, 31, 32, 33, 100] {
            for len in [511usize, 512, 513, 640, 1_025, 1_899] {
                let mut fast = vec![0xAAu8; len.div_ceil(4) + 3];
                seq.write_packed_range(start, len, &mut fast);
                let mut slow: Vec<u8> = (0..len.div_ceil(4))
                    .map(|byte| {
                        (0..4)
                            .filter(|j| 4 * byte + j < len)
                            .map(|j| seq.get_code(start + 4 * byte + j) << (2 * j))
                            .sum()
                    })
                    .collect();
                slow.extend([0xAA; 3]);
                assert_eq!(fast, slow, "start={start} len={len}");
            }
        }
    }

    #[test]
    fn append_packed_range_matches_per_base_packing() {
        let seq = patterned(150);
        for start in [0, 2, 30, 32, 45, 64] {
            for len in [0, 1, 4, 5, 29, 32, 63, 80] {
                if start + len > seq.len() {
                    continue;
                }
                let mut fast = vec![0xAAu8]; // pre-existing bytes must survive
                seq.append_packed_range(start, len, &mut fast);
                let mut slow = vec![0xAAu8];
                let mut byte = 0u8;
                let mut filled = 0usize;
                for i in start..start + len {
                    byte |= seq.get_code(i) << (2 * filled);
                    filled += 1;
                    if filled == 4 {
                        slow.push(byte);
                        byte = 0;
                        filled = 0;
                    }
                }
                if filled > 0 {
                    slow.push(byte);
                }
                assert_eq!(fast, slow, "start={start} len={len}");
            }
        }
    }

    #[test]
    fn simd_from_ascii_matches_scalar_for_all_lengths_and_bytes() {
        // Lengths 0..=128 (4× the AVX2 lane width) over mixed-case bases with
        // ambiguity characters sprinkled in — the unknown→A policy must be identical.
        for len in 0..=128usize {
            let ascii: Vec<u8> = (0..len)
                .map(|i| b"acgtACGTNnXum-."[(i * 5 + len) % 15])
                .collect();
            assert_eq!(
                DnaSeq::from_ascii(&ascii),
                DnaSeq::from_ascii_scalar(&ascii),
                "len={len}"
            );
        }
        // Every byte value at least once.
        let all: Vec<u8> = (0u8..=255).collect();
        assert_eq!(DnaSeq::from_ascii(&all), DnaSeq::from_ascii_scalar(&all));
    }

    #[test]
    fn extend_from_ascii_matches_scalar_pushes_at_every_alignment() {
        // Start from every residue 0..=33 of a prefix, then append tails of lengths
        // straddling the 32-base block size — the shifted word splice must agree with
        // per-base pushes bit for bit (tail residues and unaligned offsets).
        let tail_src: Vec<u8> = (0..140).map(|i| b"ACGTacgtN"[(i * 11 + 3) % 9]).collect();
        for prefix in 0..=33usize {
            for tail_len in [0usize, 1, 15, 16, 31, 32, 33, 63, 64, 65, 128, 130] {
                let mut fast = patterned(prefix);
                let mut slow = fast.clone();
                fast.extend_from_ascii(&tail_src[..tail_len]);
                for &c in &tail_src[..tail_len] {
                    slow.push_code(encode_base(c));
                }
                assert_eq!(fast, slow, "prefix={prefix} tail={tail_len}");
            }
        }
    }
}
