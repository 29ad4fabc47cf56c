//! Digit-cut parallel multiway merge: the result assembly beside the bucket store.
//!
//! HySortK's tasks own disjoint key *sets* (a k-mer's task is a hash of its minimizer),
//! not key ranges, so the sorted `(k-mer, count)` runs the count jobs emit have to be
//! merged into the one ascending result table. What *is* range-disjoint across every
//! run is a digit of the key — the splitter set of a parallel multiway merge (Singler,
//! Sanders, Putze, "MCSTL", Euro-Par 2007) — and [`multiway_merge`] is that merge:
//!
//! 1. **Cut.** The digit is the top eight bits in which the smallest and the largest key
//!    of the input differ ([`BucketDigit`]; for canonical k-mers, the top eight of
//!    their `2k` bits — the digit stage 3 bucketed the same keys on). Every run is cut
//!    at the 256 digit boundaries with `partition_point`; *piece* `d` is the `d`-th
//!    slice of every run.
//! 2. **Place.** Piece sizes prefix-sum into disjoint slices of the destination, carved
//!    with `split_at_mut` from the spare capacity of a fresh `Vec`, so nothing fills the
//!    destination before the merge writes it.
//! 3. **Merge.** Consecutive pieces are handed out as one run of about equal entry
//!    count per thread of the caller's rayon budget ([`map_balanced_runs`]; fewer
//!    threads when a share would be smaller than one cache-sized piece). A thread
//!    merges each of its pieces with a **pairwise cascade**: adjacent source slices are
//!    merged two by two into one scratch vector, those results into a second, and so on
//!    — `⌈log2 runs⌉` passes, the last one writing the piece's destination slice. The
//!    two-way merge runs one dependency chain from each end of its inputs. A piece
//!    whose sources and destination together exceed [`IN_CACHE_BYTES`] is first cut
//!    finer, at keys sampled from its largest source, so the scratch vectors stay
//!    cache-sized whatever the total; the thread that merges a piece is also the one
//!    that first touches its pages.
//!
//! Ties between runs break toward the lower run index, so the result is exactly the
//! stable sort of the concatenated runs. The cascade was chosen by measurement on the
//! two shapes the benchmark has — 6.7 M 24-byte entries with two-word keys in 6 runs
//! and 2.0 M 16-byte entries in 48 runs: a tournament tree over the slices pays one
//! dependent load chain per entry and was no faster on either; concatenating a piece
//! and radix-sorting it wins on the many-run shape and loses by 2× on two-word keys
//! (CHANGES.md, PR 17).
//!
//! The one `unsafe` operation is the final `set_len`: every merge reports the slots it
//! wrote, counted where they are written, and hard `assert!`s compare that with each
//! piece's slice and with the total before the length is set. Unsorted runs cost the
//! order of the output, never memory safety: the cuts are monotone by construction and
//! every merge writes exactly as many entries as it was handed.

use std::mem::MaybeUninit;

use crate::buckets::{map_balanced_runs, BucketDigit};
use crate::raduls::IN_CACHE_BYTES;
use crate::RadixKey;

/// Merge sorted `runs` into one sorted vector: the stable sort, by key, of their
/// concatenation. Parallel under the caller's rayon budget; see the module docs.
#[allow(unsafe_code)]
pub fn multiway_merge<T: RadixKey>(runs: &[&[T]]) -> Vec<T> {
    let total: usize = runs.iter().map(|run| run.len()).sum();
    let mut out: Vec<T> = Vec::with_capacity(total);

    // ---- cut every run at the digit boundaries -----------------------------------------
    let least =
        (runs.iter().filter_map(|run| run.first())).reduce(|a, b| if key_lt(b, a) { b } else { a });
    let greatest =
        (runs.iter().filter_map(|run| run.last())).reduce(|a, b| if key_lt(a, b) { b } else { a });
    let (Some(least), Some(greatest)) = (least, greatest) else {
        return out;
    };
    let digit = BucketDigit::top_bits::<T>(varying_width(least, greatest));
    let stride = digit.buckets() + 1;
    let mut cuts: Vec<usize> = Vec::with_capacity(runs.len() * stride);
    for run in runs {
        let mut at = 0;
        cuts.push(at);
        for bucket in 1..digit.buckets() {
            at += run[at..].partition_point(|item| usize::from(digit.of(item)) < bucket);
            cuts.push(at);
        }
        cuts.push(run.len());
    }
    let source = |run: usize, bucket: usize| {
        &runs[run][cuts[run * stride + bucket]..cuts[run * stride + bucket + 1]]
    };

    // ---- place: one destination slice per piece ----------------------------------------
    let mut rest = &mut out.spare_capacity_mut()[..total];
    let pieces: Vec<(usize, &mut [MaybeUninit<T>])> = (0..digit.buckets())
        .map(|bucket| {
            let len = (0..runs.len()).map(|run| source(run, bucket).len()).sum();
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            (bucket, dst)
        })
        .filter(|(_, dst)| !dst.is_empty())
        .collect();

    // ---- merge: one run of pieces per thread --------------------------------------------
    let mut lanes: Vec<Lane<T>> = Vec::new();
    let written: usize = map_balanced_runs(
        pieces,
        |(_, dst)| dst.len(),
        // A thread is worth starting for a cache-sized piece or more.
        IN_CACHE_BYTES / 2 / std::mem::size_of::<T>().max(1),
        &mut lanes,
        Lane::default,
        |pieces, lane| {
            let mut written = 0;
            for (bucket, dst) in pieces {
                let mut sources: Vec<&[T]> = (0..runs.len())
                    .map(|run| source(run, bucket))
                    .filter(|slice| !slice.is_empty())
                    .collect();
                let len = dst.len();
                let merged = merge_piece(&mut sources, dst, lane);
                assert_eq!(
                    merged, len,
                    "multiway merge: slots written for piece {bucket} vs its destination slice"
                );
                written += merged;
            }
            written
        },
    )
    .into_iter()
    .sum();
    assert_eq!(
        written, total,
        "multiway merge: slots written vs entries in the runs"
    );
    // SAFETY: `total` is within the capacity reserved above. The pieces' destination
    // slices are consecutive `split_at_mut` cuts of `spare_capacity_mut()[..total]`,
    // the first starting at slot 0. Each merge counts a slot when it writes it, through
    // an iterator that yields the slot once; by the first assert every piece wrote each
    // slot of its slice, and by the second those slices hold `total` slots between
    // them — so they are slots `0..total`, all initialised. `T` is `Copy`: no
    // destructor can observe a slot, written or not, when a merge unwinds.
    unsafe { out.set_len(total) };
    out
}

/// `a`'s key is smaller than `b`'s: the big-endian comparison of the key words.
#[inline(always)]
fn key_lt<T: RadixKey>(a: &T, b: &T) -> bool {
    match T::KEY_WORDS {
        1 => a.key_word(0) < b.key_word(0),
        2 => {
            let wide = |x: &T| (u128::from(x.key_word(0)) << 64) | u128::from(x.key_word(1));
            wide(a) < wide(b)
        }
        _ => (0..T::KEY_WORDS)
            .map(|w| (a.key_word(w), b.key_word(w)))
            .find(|(x, y)| x != y)
            .is_some_and(|(x, y)| x < y),
    }
}

/// Width, counted from the least significant bit, of the key bits in which `least` and
/// `greatest` differ; every key between them shares the bits above.
fn varying_width<T: RadixKey>(least: &T, greatest: &T) -> u32 {
    (0..T::KEY_WORDS)
        .find_map(|w| {
            let differing = least.key_word(w) ^ greatest.key_word(w);
            let below = 64 * (T::KEY_WORDS - 1 - w) as u32;
            (differing != 0).then(|| below + 64 - differing.leading_zeros())
        })
        .unwrap_or(0)
}

/// Where a merge writes: initialised scratch, or the destination's fresh capacity.
trait Slot<T> {
    fn set(&mut self, value: T);
}

impl<T> Slot<T> for T {
    #[inline(always)]
    fn set(&mut self, value: T) {
        *self = value;
    }
}

impl<T> Slot<T> for MaybeUninit<T> {
    #[inline(always)]
    fn set(&mut self, value: T) {
        self.write(value);
    }
}

/// One thread's two cascade buffers, each as long as the largest piece it merged.
#[derive(Debug)]
struct Lane<T> {
    cur: Vec<T>,
    idle: Vec<T>,
}

impl<T> Default for Lane<T> {
    fn default() -> Self {
        Lane {
            cur: Vec::new(),
            idle: Vec::new(),
        }
    }
}

/// Merge the non-empty, sorted `sources` of one piece into `dst`, in cache-sized parts;
/// returns the slots written. `sources` is consumed from the front, part by part.
fn merge_piece<T: RadixKey, S: Slot<T>>(
    sources: &mut [&[T]],
    dst: &mut [S],
    lane: &mut Lane<T>,
) -> usize {
    let parts = (2 * std::mem::size_of_val(dst)).div_ceil(IN_CACHE_BYTES);
    let largest = *(sources.iter())
        .max_by_key(|slice| slice.len())
        .expect("a piece has a source");
    let mut part: Vec<&[T]> = Vec::with_capacity(sources.len());
    let mut rest = dst;
    let mut written = 0;
    for p in 1..=parts {
        // Keys below the splitter go to this part, in every source: the parts hold
        // disjoint key ranges, so merging them one after the other is the merge.
        let splitter = (p < parts).then(|| &largest[p * largest.len() / parts]);
        part.clear();
        for slice in sources.iter_mut() {
            let cut = splitter.map_or(slice.len(), |s| slice.partition_point(|x| key_lt(x, s)));
            let (head, tail) = slice.split_at(cut);
            *slice = tail;
            if !head.is_empty() {
                part.push(head);
            }
        }
        let len = part.iter().map(|slice| slice.len()).sum();
        let (head, tail) = rest.split_at_mut(len);
        rest = tail;
        written += cascade(&part, head, lane);
    }
    written
}

/// Merge `runs` into `dst` through the lane's two buffers; returns the slots written.
fn cascade<T: RadixKey, S: Slot<T>>(runs: &[&[T]], dst: &mut [S], lane: &mut Lane<T>) -> usize {
    if runs.len() <= 2 {
        return merge_adjacent(runs, dst).iter().sum();
    }
    let n = dst.len();
    if lane.cur.len() < n {
        // Any value will do: a slot is written by a merge before a later one reads it.
        let filler = runs[0][0];
        lane.cur.resize(n, filler);
        lane.idle.resize(n, filler);
    }
    let Lane { cur, idle } = lane;
    let mut lens = merge_adjacent(runs, &mut cur[..n]);
    loop {
        let mut rest = &cur[..];
        let merged: Vec<&[T]> = (lens.iter())
            .map(|&len| {
                let (run, tail) = rest.split_at(len);
                rest = tail;
                run
            })
            .collect();
        if merged.len() <= 2 {
            return merge_adjacent(&merged, dst).iter().sum();
        }
        lens = merge_adjacent(&merged, &mut idle[..n]);
        std::mem::swap(cur, idle);
    }
}

/// One level of the cascade: merge `runs` two by two, left to right, into consecutive
/// regions of `out` (an odd last run is copied). Returns the slots written to each
/// region — the lengths of the next level's runs.
fn merge_adjacent<T: RadixKey, S: Slot<T>>(runs: &[&[T]], out: &mut [S]) -> Vec<usize> {
    let mut rest = out;
    (runs.chunks(2))
        .map(|pair| {
            let len = pair.iter().map(|run| run.len()).sum();
            let (region, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            match pair {
                [a, b] => merge_two(a, b, region),
                _ => copy_into(pair.iter().copied().flatten(), region),
            }
        })
        .collect()
}

/// Write `items` into the slots of `out`, in order; returns the slots written.
fn copy_into<'a, T: Copy + 'a, S: Slot<T>>(
    items: impl Iterator<Item = &'a T>,
    out: &mut [S],
) -> usize {
    let mut written = 0;
    for (slot, item) in out.iter_mut().zip(items) {
        slot.set(*item);
        written += 1;
    }
    written
}

/// Stable two-way merge of sorted `a` and `b` into `out`, which must hold exactly as many
/// slots as they have entries; on equal keys `a`'s entry goes first. Returns the slots
/// written.
///
/// The first `s` entries of the result depend only on the fronts of the runs and the last
/// `s` only on their backs, and while `2 s` is at most the length of the shorter run
/// neither end can exhaust a run or meet the other — so the merge advances from both
/// ends at once, two independent chains of compare, select and load per iteration
/// instead of one, with no exhaustion test inside the loop.
fn merge_two<T: RadixKey, S: Slot<T>>(a: &[T], b: &[T], out: &mut [S]) -> usize {
    assert_eq!(out.len(), a.len() + b.len(), "merge output size");
    // `a[i..ie]` and `b[j..je]` are unmerged; they belong into `out[k..ke]`.
    let (mut i, mut ie, mut j, mut je) = (0, a.len(), 0, b.len());
    let (mut k, mut ke) = (0, out.len());
    let mut written = 0;
    loop {
        let steps = (ie - i).min(je - j) / 2;
        if steps == 0 {
            break;
        }
        let (front, back) = out[k..ke].split_at_mut(steps);
        let skip = back.len() - steps;
        for (low, high) in front.iter_mut().zip(back[skip..].iter_mut().rev()) {
            let (x, y) = (a[i], b[j]);
            let from_b = key_lt(&y, &x);
            low.set(if from_b { y } else { x });
            i += usize::from(!from_b);
            j += usize::from(from_b);

            let (x, y) = (a[ie - 1], b[je - 1]);
            let from_a = key_lt(&y, &x);
            high.set(if from_a { x } else { y });
            ie -= usize::from(from_a);
            je -= usize::from(!from_a);
        }
        // `front` and `back[skip..]` hold `steps` slots each, all of them visited.
        written += 2 * steps;
        k += steps;
        ke -= steps;
    }
    // What is left of the shorter run is at most one entry: plain forward steps.
    let mut rest = out[k..ke].iter_mut();
    while i < ie && j < je {
        let (x, y) = (a[i], b[j]);
        let from_b = key_lt(&y, &x);
        let slot = rest.next().expect("as many slots as unmerged entries");
        slot.set(if from_b { y } else { x });
        i += usize::from(!from_b);
        j += usize::from(from_b);
        written += 1;
    }
    written + copy_into(a[i..ie].iter().chain(&b[j..je]), rest.into_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The safe oracle: concatenate the runs in order and sort them stably by key.
    fn stable_concat_sort<T: Copy, K: Ord>(runs: &[Vec<T>], key: impl Fn(&T) -> K) -> Vec<T> {
        let mut all = runs.concat();
        all.sort_by_key(key);
        all
    }

    /// Whole-record equality with the oracle under thread budgets of 1, 2, 3 and 5.
    fn check<T, K>(runs: &[Vec<T>], key: impl Fn(&T) -> K + Copy, what: &str)
    where
        T: RadixKey + PartialEq + std::fmt::Debug,
        K: Ord,
    {
        assert!(runs.iter().all(|run| run.is_sorted_by_key(key)), "{what}");
        let expected = stable_concat_sort(runs, key);
        let slices: Vec<&[T]> = runs.iter().map(Vec::as_slice).collect();
        for threads in [1usize, 2, 3, 5] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let merged = pool.install(|| multiway_merge(&slices));
            assert!(
                merged == expected,
                "{what}: {} runs, {} entries, {threads} threads",
                runs.len(),
                expected.len()
            );
        }
    }

    /// How the keys of a test input are distributed.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// Few distinct keys over the whole width: ties within and across runs, and
        /// every third run empty.
        Ties,
        /// All keys share everything but their low four bits.
        OneDigit,
        /// Run 0 holds everything but one entry per other run.
        OneRun,
        /// Distinct keys, a third of them in one narrow range: that digit's piece alone
        /// is larger than the cache and is cut finer at sampled keys.
        HotPiece,
    }

    /// `runs` sorted runs of `(key, id)` records with keys of `key_bits` bits; `id` is
    /// unique, so whole-record equality pins the order of equal keys.
    fn shaped_runs(
        rng: &mut StdRng,
        shape: Shape,
        runs: usize,
        entries: usize,
        key_bits: u32,
    ) -> Vec<Vec<(u128, u32)>> {
        let top = 128 - key_bits;
        let pool: Vec<u128> = (0..40).map(|_| rng.gen::<u128>() >> top).collect();
        let mut out: Vec<Vec<(u128, u32)>> = vec![Vec::new(); runs];
        for id in 0..entries as u32 {
            if runs == 0 {
                break;
            }
            let run = match shape {
                Shape::Ties => match rng.gen_range(0..runs) {
                    run if run % 3 == 1 => 0,
                    run => run,
                },
                Shape::OneRun if id as usize >= runs => 0,
                Shape::OneRun => id as usize,
                _ => rng.gen_range(0..runs),
            };
            let key = match shape {
                Shape::Ties => pool[rng.gen_range(0..pool.len())],
                Shape::OneDigit => (pool[0] & !0xf) | u128::from(rng.gen_range(0..16u8)),
                Shape::HotPiece if id % 3 == 0 => {
                    (pool[0] & !0xffff_ffff) | u128::from(rng.gen::<u32>())
                }
                _ => rng.gen::<u128>() >> top,
            };
            out[run].push((key, id));
        }
        for run in &mut out {
            run.sort_by_key(|record| record.0);
        }
        out
    }

    #[test]
    fn matches_the_stable_sort_of_the_concatenation_on_every_shape_and_record_type() {
        let mut rng = StdRng::seed_from_u64(171);
        for runs in [0usize, 1, 2, 3, 6, 48] {
            for shape in [Shape::Ties, Shape::OneDigit, Shape::OneRun, Shape::HotPiece] {
                // 62 bits: one word; 66 to 70: the digit straddles the two words of a
                // k = 33…35 key; 110: k = 55.
                for key_bits in [62u32, 66, 68, 70, 110] {
                    let entries = [0, 1, 700, 60_000][rng.gen_range(0..4)];
                    let wide = shaped_runs(&mut rng, shape, runs, entries, key_bits);
                    let what = format!("{shape:?}, {key_bits}-bit keys");
                    check(&wide, |record| record.0, &what);
                    let bare: Vec<Vec<u128>> = (wide.iter())
                        .map(|run| run.iter().map(|record| record.0).collect())
                        .collect();
                    check(&bare, |key| *key, &what);
                    if key_bits <= 64 {
                        let narrow: Vec<Vec<(u64, u32)>> = (wide.iter())
                            .map(|run| run.iter().map(|&(key, id)| (key as u64, id)).collect())
                            .collect();
                        check(&narrow, |record| record.0, &what);
                        let bare: Vec<Vec<u64>> = (narrow.iter())
                            .map(|run| run.iter().map(|record| record.0).collect())
                            .collect();
                        check(&bare, |key| *key, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn pieces_around_and_above_the_cache_size_are_cut_finer_and_merge_the_same() {
        let mut rng = StdRng::seed_from_u64(172);
        // A piece of `(u64, u32)` records — sources plus destination — fills the cache at
        // this many entries; every sixth entry lands in the hot piece.
        let in_cache = IN_CACHE_BYTES / 2 / std::mem::size_of::<(u64, u32)>();
        for runs in [2usize, 3, 6, 48] {
            for hot in [in_cache - 1, in_cache, in_cache + 1, 3 * in_cache + 7] {
                let wide = shaped_runs(&mut rng, Shape::HotPiece, runs, 3 * hot, 62);
                let narrow: Vec<Vec<(u64, u32)>> = (wide.iter())
                    .map(|run| run.iter().map(|&(key, id)| (key as u64, id)).collect())
                    .collect();
                check(&narrow, |record| record.0, "hot piece");
            }
            // Equal keys cannot be cut finer: one part takes the whole piece.
            let equal: Vec<Vec<(u64, u32)>> = (0..runs as u32)
                .map(|run| (0..in_cache as u32).map(|i| (7, run << 20 | i)).collect())
                .collect();
            check(&equal, |record| record.0, "one key");
        }
    }

    #[test]
    fn one_lane_serves_growing_and_shrinking_pieces() {
        let mut rng = StdRng::seed_from_u64(173);
        let mut lane = Lane::default();
        for entries in [10usize, 40_000, 300, 90_000, 0, 5, 40_000] {
            for runs in [1usize, 3, 4, 7] {
                let sorted = shaped_runs(&mut rng, Shape::Ties, runs, entries, 100);
                let expected = stable_concat_sort(&sorted, |record| record.0);
                let mut sources: Vec<&[(u128, u32)]> = (sorted.iter())
                    .map(Vec::as_slice)
                    .filter(|run| !run.is_empty())
                    .collect();
                let mut merged = vec![(0u128, 0u32); expected.len()];
                if !sources.is_empty() {
                    let written = merge_piece(&mut sources, &mut merged[..], &mut lane);
                    assert_eq!(written, expected.len());
                }
                assert!(merged == expected, "{runs} runs of {entries} entries");
                assert!(lane.cur.len() <= 90_000 && lane.idle.len() == lane.cur.len());
            }
        }
    }

    #[test]
    fn two_way_merge_is_stable_at_every_length_and_overlap() {
        let mut rng = StdRng::seed_from_u64(174);
        for (a_len, b_len) in [(0, 0), (0, 5), (1, 1), (1, 9), (2, 2), (3, 64), (65, 64)] {
            for distinct in [1u64, 3, 1_000] {
                let run = |rng: &mut StdRng, len: usize, tag: u32| {
                    let mut run: Vec<(u64, u32)> = (0..len as u32)
                        .map(|i| (rng.gen_range(0..distinct), tag + i))
                        .collect();
                    run.sort_by_key(|record| record.0);
                    run
                };
                let (a, b) = (run(&mut rng, a_len, 0), run(&mut rng, b_len, 1_000));
                let expected = stable_concat_sort(&[a.clone(), b.clone()], |record| record.0);
                let mut merged = vec![(0u64, 0u32); a_len + b_len];
                assert_eq!(merge_two(&a, &b, &mut merged[..]), a_len + b_len);
                assert_eq!(merged, expected, "{a_len} + {b_len}, {distinct} keys");
            }
        }
    }

    #[test]
    fn unsorted_runs_come_out_as_some_permutation_of_themselves() {
        let mut rng = StdRng::seed_from_u64(175);
        let runs: Vec<Vec<u64>> = (0..5)
            .map(|_| (0..20_000).map(|_| rng.gen()).collect())
            .collect();
        let slices: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
        let mut merged = multiway_merge(&slices);
        let mut expected = runs.concat();
        merged.sort_unstable();
        expected.sort_unstable();
        assert_eq!(merged, expected);
    }

    #[test]
    fn the_digit_is_the_top_of_the_bits_that_vary() {
        assert_eq!(varying_width(&5u64, &5u64), 0);
        assert_eq!(varying_width(&0u64, &1u64), 1);
        assert_eq!(varying_width(&(1u64 << 63), &(1u64 << 63 | 0x1ff)), 9);
        assert_eq!(varying_width(&0u128, &(1u128 << 67)), 68);
        assert_eq!(
            varying_width(&(3u128 << 100), &(3u128 << 100 | 1 << 64)),
            65
        );
        assert!(key_lt(&(1u128 << 64), &(1u128 << 64 | 1)) && !key_lt(&7u64, &7u64));
        assert!(key_lt(&(u128::MAX >> 64), &(1u128 << 64)));
    }
}
