//! In-place MSD parallel radix sort (PARADIS-like).
//!
//! PARADIS (Cho et al., VLDB 2015) sorts in place by partitioning the array into the
//! 256 destination buckets of the current digit with a *speculative* parallel
//! permutation — each thread owns one stripe of every bucket and permutes only within
//! its own stripes — followed by a *repair* pass that places what the speculation could
//! not, and finally recurses into the buckets in parallel.
//!
//! This kernel follows that structure without PARADIS's adaptive stripe rebalancing.
//! The speculation is safe code over disjoint sub-slices from repeated `split_at_mut`.
//! The repair is one serial American-flag cycle chase that visits every slot once,
//! prefetches the next destination slot before chasing into it (the scatter is a random
//! walk over the whole slice), and bins each element's *next* digit on the way, so the
//! recursion into a bucket needs no counting pass of its own.

use rayon::prelude::*;

use crate::{radix_digit, RadixKey};

const RADIX: usize = 256;
/// Below this length a comparison sort on the remaining digits is faster than another
/// radix pass.
const SMALL_SORT_THRESHOLD: usize = 128;
/// Work below this size is not worth another layer of rayon tasks.
const PARALLEL_THRESHOLD: usize = 8 * 1024;

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
    sort_level(data, first_level, levels, None);
}

/// Sort `data` on digits `level..levels`, MSD first.
///
/// * `hint` carries the bucket histogram the **parent** level's scatter computed, so
///   only the root level pays a standalone counting pass;
/// * the small-slice cutoff compares whole keys word by word (valid because every
///   element in the slice agrees on all digits above `level`).
fn sort_level<T: RadixKey>(data: &mut [T], level: usize, levels: usize, hint: Option<&[usize]>) {
    if data.len() <= 1 || level >= levels {
        return;
    }
    if data.len() <= SMALL_SORT_THRESHOLD {
        comparison_sort(data);
        return;
    }

    let owned;
    let histogram: &[usize] = match hint {
        Some(h) => h,
        None => {
            owned = parallel_histogram(data, level);
            &owned
        }
    };
    if histogram.contains(&data.len()) {
        sort_level(data, level + 1, levels, None);
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
        speculate_stripes(data, &bucket_start, level, threads);
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
        finalize::<T, true>(data, &bucket_start, level, &mut child_hist);
    } else {
        finalize::<T, false>(data, &bucket_start, level, &mut child_hist);
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
                .for_each(|(bucket, hint)| sort_level(bucket, level + 1, levels, hint));
        } else {
            for (bucket, hint) in buckets {
                sort_level(bucket, level + 1, levels, hint);
            }
        }
    }
}

/// Comparison cutoff: elements in one recursion slice agree on all digits above
/// `level`, so comparing the full concatenated key words lexicographically
/// orders exactly by the remaining digits — one branchy `u64` compare per word instead
/// of up to eight digit extractions.
fn comparison_sort<T: RadixKey>(data: &mut [T]) {
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

/// Single-pass in-place bucket permutation, and the repair of the speculation: an
/// American-flag cycle chase over bucket heads.
///
/// Buckets are completed in ascending order, so while bucket `b` is being processed
/// every element with digit `< b` is already home; any foreign element found in `b`
/// therefore chases into a bucket `> b`, and by pigeonhole that bucket still has a
/// non-finalised slot for it. Each loop iteration finalises exactly one slot — the pass
/// is `O(n)` swaps total, each preceded by a prefetch of the next destination. When
/// `BIN` is set, every finalised element's next-level digit is counted into
/// `child_hist[bucket * RADIX + digit]`, which becomes the recursion's histogram hint.
fn finalize<T: RadixKey, const BIN: bool>(
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

fn parallel_histogram<T: RadixKey>(data: &[T], level: usize) -> Vec<usize> {
    if data.len() < PARALLEL_THRESHOLD {
        let mut hist = vec![0usize; RADIX];
        for item in data {
            hist[radix_digit(item, level) as usize] += 1;
        }
        return hist;
    }
    data.par_chunks(64 * 1024)
        .map(|chunk| {
            let mut hist = vec![0usize; RADIX];
            for item in chunk {
                hist[radix_digit(item, level) as usize] += 1;
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

/// The speculative parallel phase: each rayon thread owns one stripe of every bucket
/// region and permutes only within its own stripes (safe: the stripes are disjoint
/// sub-slices). Whatever the speculation cannot place is fixed by [`finalize`].
fn speculate_stripes<T: RadixKey>(
    data: &mut [T],
    bucket_start: &[usize; RADIX + 1],
    level: usize,
    threads: usize,
) {
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
                    let d = radix_digit(&e, level) as usize;
                    if d == b {
                        i += 1;
                        continue;
                    }
                    // Advance the destination head past elements already in place.
                    let len_d = stripes[d].as_ref().map_or(0, |s| s.len());
                    while heads[d] < len_d {
                        let v = stripes[d].as_ref().unwrap()[heads[d]];
                        if radix_digit(&v, level) as usize == d {
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
        paradis_sort(v);
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
        // Below the comparison cutoff, and between it and the parallel threshold.
        let mut rng = StdRng::seed_from_u64(1);
        for n in [100, 5_000] {
            let mut v: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            check_sorts_u64(&mut v);
        }
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
        // Two-word keys with a payload, few distinct keys spread over both words: the
        // sort groups by key and ignores the payload.
        let mut rng = StdRng::seed_from_u64(5);
        let keys: Vec<u128> = (0..1000).map(|_| rng.gen()).collect();
        let mut v: Vec<(u128, u32)> = (0..50_000)
            .map(|i| (keys[rng.gen_range(0..keys.len())], i))
            .collect();
        paradis_sort(&mut v);
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // All payloads must survive (it is a permutation).
        let mut payloads: Vec<u32> = v.iter().map(|x| x.1).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, (0..50_000).collect::<Vec<u32>>());
    }
}
