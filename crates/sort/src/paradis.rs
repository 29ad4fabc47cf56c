//! In-place MSD parallel radix sort (PARADIS-like).
//!
//! PARADIS (Cho et al., VLDB 2015) sorts in place by partitioning the array into the
//! 256 destination buckets of the current digit with a *speculative* parallel
//! permutation — each thread owns one stripe of every bucket and permutes only within
//! its own stripes — followed by a *repair* pass that fixes the elements the speculation
//! could not place, and finally recurses into the buckets in parallel.
//!
//! This implementation follows that structure (stripe-parallel speculation, serial
//! repair, parallel recursion) without PARADIS's adaptive stripe rebalancing; the
//! speculative phase is written entirely with safe disjoint sub-slices obtained by
//! repeated `split_at_mut`.
//!
//! The monomorphized [`RadixKey`] kernel ([`paradis_sort`]) additionally replaces the
//! two-pass repair (collect misplaced positions, then cycle-follow) with a **single
//! serial finalisation pass**: an American-flag-style cycle chase that visits every slot
//! exactly once, skip-advances bucket heads past elements already home, and issues a
//! software prefetch for the next destination slot before chasing into it (the scatter
//! is a random walk over the whole slice, so nearly every hop is a cache miss without
//! it). Because the pass touches each element exactly once anyway, it also bins the
//! element's *next* radix digit on the fly, handing each child bucket its histogram for
//! free — the recursion skips an entire counting pass per level.

use rayon::prelude::*;

use crate::{radix_digit, ClosureDigits, DigitSource, KeyDigits, RadixKey};

const RADIX: usize = 256;
/// Below this length a comparison sort on the remaining digits is faster than another
/// radix pass.
const SMALL_SORT_THRESHOLD: usize = 128;
/// Work below this size is not worth another layer of rayon tasks.
const PARALLEL_THRESHOLD: usize = 8 * 1024;

/// Sort `data` in place by the radix digits supplied by `digit`.
///
/// * `levels` — number of radix digits; `digit(item, 0)` is the most significant.
/// * The sort is not stable (neither is PARADIS); k-mer counting only needs grouping.
pub fn paradis_sort_by<T, F>(data: &mut [T], levels: usize, digit: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, usize) -> u8 + Sync,
{
    if levels == 0 || data.len() <= 1 {
        return;
    }
    sort_level(data, 0, levels, &ClosureDigits(digit));
}

/// Monomorphized in-place MSD radix sort for [`RadixKey`] types: the digit loop is a
/// compile-time shift/mask on the raw key words instead of a callback, the permutation
/// is a prefetched single-pass cycle chase, and each level's scatter computes the next
/// level's bucket histograms as a side effect.
pub fn paradis_sort<T: RadixKey>(data: &mut [T]) {
    paradis_sort_from(data, 0);
}

/// Like [`paradis_sort`], but starting at `first_level`, skipping the leading key bytes
/// the caller knows to be constant (e.g. the zero padding above a `2k`-bit k-mer).
/// Skipped levels would be detected as single-bucket anyway, but each detection costs a
/// full histogram pass; the hint removes those passes.
pub fn paradis_sort_from<T: RadixKey>(data: &mut [T], first_level: usize) {
    let levels = T::KEY_LEVELS;
    if data.len() <= 1 || first_level >= levels {
        return;
    }
    sort_level_keyed(data, first_level, levels, None);
}

fn sort_level<T, D>(data: &mut [T], level: usize, levels: usize, digits: &D)
where
    T: Copy + Send + Sync,
    D: DigitSource<T>,
{
    if data.len() <= 1 || level >= levels {
        return;
    }
    if data.len() <= SMALL_SORT_THRESHOLD {
        comparison_sort_remaining(data, level, levels, digits);
        return;
    }

    // ---- Histogram of the current digit --------------------------------------------
    let histogram = parallel_histogram(data, level, digits);

    // If every element falls into one bucket this level is a no-op; recurse directly.
    if histogram.contains(&data.len()) {
        sort_level(data, level + 1, levels, digits);
        return;
    }

    // ---- Bucket boundaries ----------------------------------------------------------
    let mut bucket_start = [0usize; RADIX + 1];
    for b in 0..RADIX {
        bucket_start[b + 1] = bucket_start[b] + histogram[b];
    }

    // ---- Speculative parallel permutation + repair -----------------------------------
    permute_in_place(data, &bucket_start, level, digits);

    // ---- Parallel recursion into buckets ---------------------------------------------
    if level + 1 < levels {
        let mut buckets: Vec<&mut [T]> = Vec::with_capacity(RADIX);
        let mut rest = data;
        let mut prev = 0usize;
        for b in 0..RADIX {
            let len = bucket_start[b + 1] - prev;
            prev = bucket_start[b + 1];
            let (head, tail) = rest.split_at_mut(len);
            buckets.push(head);
            rest = tail;
        }
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        if total >= PARALLEL_THRESHOLD {
            buckets
                .into_par_iter()
                .for_each(|bucket| sort_level(bucket, level + 1, levels, digits));
        } else {
            for bucket in buckets {
                sort_level(bucket, level + 1, levels, digits);
            }
        }
    }
}

/// The [`RadixKey`]-specialised level sorter. Structurally the same MSD recursion as
/// [`sort_level`], with three kernel-level differences:
///
/// * `hint` carries the bucket histogram computed by the **parent** level's scatter, so
///   only the root level ever pays a standalone counting pass;
/// * the permutation is [`finalize_keyed`] — a prefetched single-pass cycle chase —
///   instead of speculation plus a two-pass repair;
/// * the small-slice cutoff compares whole keys word-by-word (valid because every
///   element in the slice agrees on all digits above `level`).
fn sort_level_keyed<T: RadixKey>(
    data: &mut [T],
    level: usize,
    levels: usize,
    hint: Option<&[usize]>,
) {
    if data.len() <= 1 || level >= levels {
        return;
    }
    if data.len() <= SMALL_SORT_THRESHOLD {
        comparison_sort_keyed(data);
        return;
    }

    let owned;
    let histogram: &[usize] = match hint {
        Some(h) => h,
        None => {
            owned = parallel_histogram(data, level, &KeyDigits);
            &owned
        }
    };
    if histogram.contains(&data.len()) {
        sort_level_keyed(data, level + 1, levels, None);
        return;
    }

    let mut bucket_start = [0usize; RADIX + 1];
    for b in 0..RADIX {
        bucket_start[b + 1] = bucket_start[b] + histogram[b];
    }

    let n = data.len();
    let threads = if n >= PARALLEL_THRESHOLD {
        rayon::current_num_threads().max(1)
    } else {
        1
    };
    if threads > 1 {
        speculate_stripes(data, &bucket_start, level, &KeyDigits, threads);
    }

    // Fused child histograms pay off when the children are big enough to need one; for
    // small inputs the 256×256 table costs more than the counting passes it saves.
    let fuse = level + 1 < levels && n >= PARALLEL_THRESHOLD;
    let mut child_hist = if fuse {
        vec![0usize; RADIX * RADIX]
    } else {
        Vec::new()
    };
    if fuse {
        finalize_keyed::<T, true>(data, &bucket_start, level, &mut child_hist);
    } else {
        finalize_keyed::<T, false>(data, &bucket_start, level, &mut child_hist);
    }

    if level + 1 < levels {
        let mut buckets: Vec<(&mut [T], Option<&[usize]>)> = Vec::with_capacity(RADIX);
        let mut rest = data;
        let mut prev = 0usize;
        for b in 0..RADIX {
            let len = bucket_start[b + 1] - prev;
            prev = bucket_start[b + 1];
            let (head, tail) = rest.split_at_mut(len);
            let hint = if fuse {
                Some(&child_hist[b * RADIX..(b + 1) * RADIX])
            } else {
                None
            };
            buckets.push((head, hint));
            rest = tail;
        }
        if n >= PARALLEL_THRESHOLD {
            buckets
                .into_par_iter()
                .for_each(|(bucket, hint)| sort_level_keyed(bucket, level + 1, levels, hint));
        } else {
            for (bucket, hint) in buckets {
                sort_level_keyed(bucket, level + 1, levels, hint);
            }
        }
    }
}

/// Comparison cutoff for the keyed kernel: elements in one recursion slice agree on all
/// digits above `level`, so comparing the full concatenated key words lexicographically
/// orders exactly by the remaining digits — one branchy `u64` compare per word instead
/// of up to eight digit extractions.
fn comparison_sort_keyed<T: RadixKey>(data: &mut [T]) {
    data.sort_unstable_by(|a, b| {
        for w in 0..T::KEY_WORDS {
            match a.key_word(w).cmp(&b.key_word(w)) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// Prefetch the cache line holding `data[idx]` (no-op off x86_64, and on
/// out-of-bounds indices, which the chase can produce on its final hop).
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch_slot<T>(data: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if idx < data.len() {
            // SAFETY: `idx` is in bounds; prefetch has no architectural effect beyond
            // the cache and is available on every x86_64 (SSE is baseline).
            unsafe {
                core::arch::x86_64::_mm_prefetch(
                    data.as_ptr().add(idx) as *const i8,
                    core::arch::x86_64::_MM_HINT_T0,
                );
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, idx);
    }
}

/// Single-pass in-place bucket permutation for the keyed kernel (replaces the two-pass
/// collect-then-repair of the generic path): an American-flag cycle chase over bucket
/// heads.
///
/// Buckets are completed in ascending order, so while bucket `b` is being processed
/// every element with digit `< b` is already home; any foreign element found in `b`
/// therefore chases into a bucket `> b`, and by pigeonhole that bucket still has a
/// non-finalised slot for it. Each loop iteration finalises exactly one slot — the pass
/// is `O(n)` swaps total, each preceded by a prefetch of the next destination. When
/// `BIN` is set, every finalised element's next-level digit is counted into
/// `child_hist[bucket * RADIX + digit]`, which becomes the recursion's histogram hint.
fn finalize_keyed<T: RadixKey, const BIN: bool>(
    data: &mut [T],
    bucket_start: &[usize; RADIX + 1],
    level: usize,
    child_hist: &mut [usize],
) {
    let mut heads: [usize; RADIX] = [0; RADIX];
    heads.copy_from_slice(&bucket_start[..RADIX]);
    for b in 0..RADIX {
        let end_b = bucket_start[b + 1];
        while heads[b] < end_b {
            let hole = heads[b];
            let mut e = data[hole];
            let mut d = radix_digit(&e, level) as usize;
            if d == b {
                if BIN {
                    child_hist[(b << 8) | radix_digit(&e, level + 1) as usize] += 1;
                }
                heads[b] += 1;
                continue;
            }
            loop {
                // Elements already sitting in their home bucket are finalised in place.
                debug_assert!(heads[d] < bucket_start[d + 1]);
                while radix_digit(&data[heads[d]], level) as usize == d {
                    if BIN {
                        child_hist[(d << 8) | radix_digit(&data[heads[d]], level + 1) as usize] +=
                            1;
                    }
                    heads[d] += 1;
                    debug_assert!(heads[d] < bucket_start[d + 1]);
                }
                let dest = heads[d];
                let displaced = data[dest];
                data[dest] = e;
                if BIN {
                    child_hist[(d << 8) | radix_digit(&e, level + 1) as usize] += 1;
                }
                heads[d] += 1;
                e = displaced;
                d = radix_digit(&e, level) as usize;
                if d == b {
                    data[hole] = e;
                    if BIN {
                        child_hist[(b << 8) | radix_digit(&e, level + 1) as usize] += 1;
                    }
                    heads[b] += 1;
                    break;
                }
                prefetch_slot(data, heads[d]);
            }
        }
    }
}

fn comparison_sort_remaining<T, D>(data: &mut [T], level: usize, levels: usize, digits: &D)
where
    T: Copy,
    D: DigitSource<T>,
{
    data.sort_unstable_by(|a, b| {
        for l in level..levels {
            match digits.digit(a, l).cmp(&digits.digit(b, l)) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    });
}

fn parallel_histogram<T, D>(data: &[T], level: usize, digits: &D) -> Vec<usize>
where
    T: Copy + Send + Sync,
    D: DigitSource<T>,
{
    if data.len() < PARALLEL_THRESHOLD {
        let mut hist = vec![0usize; RADIX];
        for item in data {
            hist[digits.digit(item, level) as usize] += 1;
        }
        return hist;
    }
    data.par_chunks(64 * 1024)
        .map(|chunk| {
            let mut hist = vec![0usize; RADIX];
            for item in chunk {
                hist[digits.digit(item, level) as usize] += 1;
            }
            hist
        })
        .reduce(
            || vec![0usize; RADIX],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        )
}

/// Partition `data` so that bucket `b` occupies `bucket_start[b]..bucket_start[b+1]`.
///
/// Phase 1 splits every bucket region into one stripe per rayon thread and lets each
/// thread permute within the stripes it owns (safe: the stripes are disjoint sub-slices).
/// Phase 2 serially repairs whatever the speculation could not place — the repair
/// workload is the sum of stripe imbalances, normally a small fraction of `n`.
fn permute_in_place<T, D>(
    data: &mut [T],
    bucket_start: &[usize; RADIX + 1],
    level: usize,
    digits: &D,
) where
    T: Copy + Send + Sync,
    D: DigitSource<T>,
{
    let n = data.len();
    let threads = if n >= PARALLEL_THRESHOLD {
        rayon::current_num_threads().max(1)
    } else {
        1
    };

    if threads > 1 {
        speculate_stripes(data, bucket_start, level, digits, threads);
    }

    // --- repair phase (also the whole permutation when running single stripe) --------
    // Collect, per bucket, the positions still holding a foreign element, then fix them
    // with cycle-following swaps. Each swap finalises at least one position.
    let mut misplaced: Vec<Vec<usize>> = vec![Vec::new(); RADIX];
    for b in 0..RADIX {
        let range = bucket_start[b]..bucket_start[b + 1];
        for (off, item) in data[range.clone()].iter().enumerate() {
            if digits.digit(item, level) as usize != b {
                misplaced[b].push(range.start + off);
            }
        }
    }
    let mut cursor = [0usize; RADIX];
    for b in 0..RADIX {
        for idx in 0..misplaced[b].len() {
            let pos = misplaced[b][idx];
            loop {
                let d = digits.digit(&data[pos], level) as usize;
                if d == b {
                    break;
                }
                // Find the next slot in bucket d that still holds a foreign element.
                let dest = misplaced[d][cursor[d]];
                cursor[d] += 1;
                data.swap(pos, dest);
            }
        }
    }
}

/// The speculative parallel phase shared by the closure and keyed permutations: each
/// rayon thread owns one stripe of every bucket region and permutes only within its own
/// stripes (safe: the stripes are disjoint sub-slices). Whatever the speculation cannot
/// place is fixed by the caller's serial pass.
fn speculate_stripes<T, D>(
    data: &mut [T],
    bucket_start: &[usize; RADIX + 1],
    level: usize,
    digits: &D,
    threads: usize,
) where
    T: Copy + Send + Sync,
    D: DigitSource<T>,
{
    let n = data.len();
    {
        // --- carve the slice into (thread, bucket) stripes --------------------------
        // stripe t of bucket b covers an equal share of the bucket's region.
        #[derive(Clone, Copy)]
        struct StripeMeta {
            start: usize,
            len: usize,
            bucket: usize,
            thread: usize,
        }
        let mut metas: Vec<StripeMeta> = Vec::with_capacity(threads * RADIX);
        for b in 0..RADIX {
            let start = bucket_start[b];
            let len = bucket_start[b + 1] - start;
            let per = len / threads;
            let mut off = start;
            for t in 0..threads {
                let this = if t + 1 == threads {
                    bucket_start[b + 1] - off
                } else {
                    per
                };
                metas.push(StripeMeta {
                    start: off,
                    len: this,
                    bucket: b,
                    thread: t,
                });
                off += this;
            }
        }
        metas.sort_by_key(|m| m.start);

        // Successive split_at_mut over the ordered, disjoint, covering stripes.
        let mut stripe_slices: Vec<(StripeMeta, &mut [T])> = Vec::with_capacity(metas.len());
        {
            let mut rest: &mut [T] = data;
            let mut consumed = 0usize;
            for m in &metas {
                debug_assert_eq!(m.start, consumed);
                let (head, tail) = rest.split_at_mut(m.len);
                stripe_slices.push((*m, head));
                rest = tail;
                consumed += m.len;
            }
            debug_assert_eq!(consumed, n);
        }

        // Group stripes per thread, indexed by bucket.
        let mut per_thread: Vec<Vec<Option<&mut [T]>>> = (0..threads)
            .map(|_| (0..RADIX).map(|_| None).collect())
            .collect();
        for (m, slice) in stripe_slices {
            per_thread[m.thread][m.bucket] = Some(slice);
        }

        // --- speculative phase -------------------------------------------------------
        per_thread.into_par_iter().for_each(|mut stripes| {
            let mut heads = [0usize; RADIX];
            for b in 0..RADIX {
                let mut i = heads[b];
                loop {
                    let len_b = stripes[b].as_ref().map_or(0, |s| s.len());
                    if i >= len_b {
                        break;
                    }
                    let e = stripes[b].as_ref().unwrap()[i];
                    let d = digits.digit(&e, level) as usize;
                    if d == b {
                        i += 1;
                        continue;
                    }
                    // Advance the destination head past elements already in place.
                    let len_d = stripes[d].as_ref().map_or(0, |s| s.len());
                    while heads[d] < len_d {
                        let v = stripes[d].as_ref().unwrap()[heads[d]];
                        if digits.digit(&v, level) as usize == d {
                            heads[d] += 1;
                        } else {
                            break;
                        }
                    }
                    if heads[d] < len_d {
                        // Swap the misplaced element into its destination stripe.
                        let incoming = stripes[d].as_ref().unwrap()[heads[d]];
                        stripes[d].as_mut().unwrap()[heads[d]] = e;
                        stripes[b].as_mut().unwrap()[i] = incoming;
                        heads[d] += 1;
                        // Re-examine position i with the incoming element.
                    } else {
                        // Destination stripe is full: leave for the repair phase.
                        i += 1;
                    }
                }
                heads[b] = heads[b].max(i);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_sorts_u64(v: &mut Vec<u64>) {
        let mut expected = v.clone();
        expected.sort_unstable();
        paradis_sort_by(v, 8, |x, l| (x >> (8 * (7 - l))) as u8);
        assert_eq!(*v, expected);
    }

    #[test]
    fn sorts_empty_and_singleton() {
        let mut v: Vec<u64> = vec![];
        check_sorts_u64(&mut v);
        let mut v = vec![42u64];
        check_sorts_u64(&mut v);
    }

    #[test]
    fn sorts_small_random() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v: Vec<u64> = (0..100).map(|_| rng.gen()).collect();
        check_sorts_u64(&mut v);
    }

    #[test]
    fn sorts_large_random() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut v: Vec<u64> = (0..200_000).map(|_| rng.gen()).collect();
        check_sorts_u64(&mut v);
    }

    #[test]
    fn sorts_skewed_distribution() {
        // Heavy-hitter-like input: 90 % of the items share one value.
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u64> = (0..100_000)
            .map(|_| {
                if rng.gen_bool(0.9) {
                    0xDEADBEEF
                } else {
                    rng.gen()
                }
            })
            .collect();
        check_sorts_u64(&mut v);
    }

    #[test]
    fn sorts_already_sorted_and_reversed() {
        let mut v: Vec<u64> = (0..50_000).collect();
        check_sorts_u64(&mut v);
        let mut v: Vec<u64> = (0..50_000).rev().collect();
        check_sorts_u64(&mut v);
    }

    #[test]
    fn sorts_with_few_distinct_leading_bytes() {
        // All values share the top 5 bytes, exercising the trivial-level skip.
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<u64> = (0..30_000).map(|_| rng.gen::<u64>() & 0xFF_FFFF).collect();
        check_sorts_u64(&mut v);
    }

    #[test]
    fn keyed_kernel_matches_closure_path() {
        let mut rng = StdRng::seed_from_u64(6);
        for n in [0usize, 1, 100, 5_000, 150_000] {
            let original: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let mut a = original.clone();
            let mut b = original;
            paradis_sort(&mut a);
            paradis_sort_by(&mut b, 8, |x, l| (x >> (8 * (7 - l))) as u8);
            assert_eq!(a, b, "n = {n}");
        }
    }

    #[test]
    fn keyed_kernel_survives_cycle_adversaries() {
        // Inputs engineered to stress the cycle chase: every element's destination
        // bucket is a fixed rotation of the bucket it starts in (one giant cycle per
        // residue class), reversed buckets (all 2-cycles), and a skewed distribution
        // where one bucket swallows 90 % of the input.
        let mut rng = StdRng::seed_from_u64(9);
        let n = 100_000usize;
        let rotated: Vec<u64> = (0..n)
            .map(|i| {
                let bucket = ((i % 256) as u64 + 17) % 256;
                (bucket << 56) | (rng.gen::<u64>() >> 8)
            })
            .collect();
        let reversed: Vec<u64> = (0..n)
            .map(|i| {
                let bucket = 255 - (i % 256) as u64;
                (bucket << 56) | (rng.gen::<u64>() >> 8)
            })
            .collect();
        let skewed: Vec<u64> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.9) {
                    0xAB00_0000_0000_0000 | (rng.gen::<u64>() >> 8)
                } else {
                    rng.gen()
                }
            })
            .collect();
        for (name, input) in [
            ("rotated", rotated),
            ("reversed", reversed),
            ("skewed", skewed),
        ] {
            let mut v = input;
            let mut expected = v.clone();
            expected.sort_unstable();
            paradis_sort(&mut v);
            assert_eq!(v, expected, "{name}");
        }
    }

    #[test]
    fn keyed_kernel_sorts_u128_and_honours_skip_hint() {
        let mut rng = StdRng::seed_from_u64(7);
        // Keys confined to the low 6 bytes: first 10 of 16 levels are constant zero.
        let mut v: Vec<u128> = (0..80_000)
            .map(|_| rng.gen::<u128>() & 0xFFFF_FFFF_FFFF)
            .collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        let mut with_hint = v.clone();
        paradis_sort_from(&mut with_hint, 10);
        paradis_sort(&mut v);
        assert_eq!(v, expected);
        assert_eq!(with_hint, expected);
    }

    #[test]
    fn keyed_kernel_groups_tagged_records_by_key() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut v: Vec<(u32, u32)> = (0..50_000).map(|i| (rng.gen::<u32>() % 1000, i)).collect();
        paradis_sort(&mut v);
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        let mut payloads: Vec<u32> = v.iter().map(|x| x.1).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, (0..50_000).collect::<Vec<u32>>());
    }

    #[test]
    fn sorts_pairs_by_key_only() {
        // Items carry a payload; sorting must group by key while ignoring the payload.
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<(u32, u32)> = (0..50_000).map(|i| (rng.gen::<u32>() % 1000, i)).collect();
        paradis_sort_by(&mut v, 4, |x, l| (x.0 >> (8 * (3 - l))) as u8);
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // All payloads must survive (it is a permutation).
        let mut payloads: Vec<u32> = v.iter().map(|x| x.1).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, (0..50_000).collect::<Vec<u32>>());
    }
}
