//! MurmurHash3_x64_128, the m-mer score function of HySortK §3.2.
//!
//! The implementation follows Austin Appleby's reference (public domain).
//! [`hash_mmer`] is its 8-byte case written out straight, so that the lane kernel in
//! [`crate::simd`] can run it on eight m-mers at once.

/// 64-bit finaliser (fmix64) of MurmurHash3. Useful on its own as a cheap high-quality
/// mixer for already-packed integers.
#[inline(always)]
pub fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51afd7ed558ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ceb9fe1a85ec53);
    k ^= k >> 33;
    k
}

/// MurmurHash3_x64_128: returns the 128-bit hash as a `(low, high)` pair of 64-bit words.
pub fn murmur3_x64_128(data: &[u8], seed: u32) -> (u64, u64) {
    const C1: u64 = 0x87c37b91114253d5;
    const C2: u64 = 0x4cf5ad432745937f;

    let nblocks = data.len() / 16;
    let mut h1 = u64::from(seed);
    let mut h2 = u64::from(seed);

    for i in 0..nblocks {
        let mut k1 = u64::from_le_bytes(data[16 * i..16 * i + 8].try_into().unwrap());
        let mut k2 = u64::from_le_bytes(data[16 * i + 8..16 * i + 16].try_into().unwrap());

        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
        h1 = h1.rotate_left(27);
        h1 = h1.wrapping_add(h2);
        h1 = h1.wrapping_mul(5).wrapping_add(0x52dce729);

        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2 = k2.wrapping_mul(C1);
        h2 ^= k2;
        h2 = h2.rotate_left(31);
        h2 = h2.wrapping_add(h1);
        h2 = h2.wrapping_mul(5).wrapping_add(0x38495ab5);
    }

    let tail = &data[16 * nblocks..];
    let mut k1: u64 = 0;
    let mut k2: u64 = 0;
    let rem = tail.len();

    if rem >= 9 {
        for i in (8..rem).rev() {
            k2 ^= u64::from(tail[i]) << (8 * (i - 8));
        }
        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2 = k2.wrapping_mul(C1);
        h2 ^= k2;
    }
    if rem >= 1 {
        for i in (0..rem.min(8)).rev() {
            k1 ^= u64::from(tail[i]) << (8 * i);
        }
        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
    }

    h1 ^= data.len() as u64;
    h2 ^= data.len() as u64;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    (h1, h2)
}

/// Hash a packed m-mer (m ≤ 32, stored in a single `u64`) with MurmurHash3. This is the
/// minimizer *score function* of HySortK §3.2: the low word of [`murmur3_x64_128`] over
/// the 8 little-endian bytes of `packed`. An 8-byte input has no block loop, only the
/// `k1` tail fold and the finalisation, which is all this computes.
#[inline(always)]
pub fn hash_mmer(packed: u64, seed: u32) -> u64 {
    const C1: u64 = 0x87c37b91114253d5;
    const C2: u64 = 0x4cf5ad432745937f;
    let k1 = packed.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
    let h2 = u64::from(seed) ^ 8;
    let h1 = (u64::from(seed) ^ k1 ^ 8).wrapping_add(h2);
    let h2 = h2.wrapping_add(h1);
    fmix64(h1).wrapping_add(fmix64(h2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x64_128_empty_input_is_zero_with_zero_seed() {
        assert_eq!(murmur3_x64_128(b"", 0), (0, 0));
    }

    #[test]
    fn x64_128_avalanche_on_single_bit_flip() {
        // Flipping one input bit should flip roughly half of the 128 output bits.
        let a = b"ACGTACGTACGTACGTACGTACGTACGTACG".to_vec();
        let mut b = a.clone();
        b[17] ^= 1;
        let (a1, a2) = murmur3_x64_128(&a, 0);
        let (b1, b2) = murmur3_x64_128(&b, 0);
        let flipped = (a1 ^ b1).count_ones() + (a2 ^ b2).count_ones();
        assert!(
            (40..=88).contains(&flipped),
            "poor avalanche: {flipped} bits flipped"
        );
    }

    #[test]
    fn x64_128_no_collisions_on_dense_small_inputs() {
        let mut seen = std::collections::HashSet::new();
        for v in 0u32..20_000 {
            assert!(seen.insert(murmur3_x64_128(&v.to_le_bytes(), 3)));
        }
    }

    #[test]
    fn tail_lengths_all_differ() {
        // Exercise every tail length 0..=15 and make sure nearby inputs do not collide.
        let data: Vec<u8> = (0u8..64).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=32 {
            let h = murmur3_x64_128(&data[..len], 42);
            assert!(seen.insert(h), "collision at length {len}");
        }
    }

    #[test]
    fn fmix64_is_bijective_on_samples() {
        // fmix64 is invertible; sanity-check injectivity on a sample.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(fmix64(i.wrapping_mul(0x9E3779B97F4A7C15))));
        }
    }

    #[test]
    fn hash_mmer_is_the_8_byte_murmur() {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for seed in [0u32, 1, 31, 0xFFFF_FFFF] {
            for v in [0, 1, u64::MAX, 1 << 63] {
                assert_eq!(
                    hash_mmer(v, seed),
                    murmur3_x64_128(&v.to_le_bytes(), seed).0
                );
            }
            for _ in 0..1_000 {
                x = fmix64(x.wrapping_add(0x9E3779B97F4A7C15));
                assert_eq!(
                    hash_mmer(x, seed),
                    murmur3_x64_128(&x.to_le_bytes(), seed).0
                );
            }
        }
    }

    #[test]
    fn mmer_hash_differs_from_identity() {
        // The whole point of a hash score function is to decorrelate the score from the
        // lexicographic value (paper §3.2): adjacent m-mers should not get adjacent
        // scores.
        let h0 = hash_mmer(0, 0);
        let h1 = hash_mmer(1, 0);
        assert_ne!(h1.wrapping_sub(h0), 1);
    }
}
