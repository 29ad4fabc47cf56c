//! Out-of-place stable radix sort (RADULS-like): an auxiliary buffer the size of the
//! input buys stable counting passes that need no in-place permutation.
//!
//! RADULS (Kokot, Deorowicz, Długosz, BDAS 2017 — the sorter of KMC3) is MSD-first:
//! partition once out of cache, then finish buckets that fit in cache. The kernel
//! here is that recursion, with one rule per range of keys:
//!
//! 1. **Plan from the data.** One streaming read ORs `key ^ first key` into a per-word
//!    mask of the bits that vary. The digit is the top bits of the most significant
//!    varying word's span (never straddling two words), so zero padding above `2k`
//!    bits, a shared prefix, or a bucket holding one distinct key (satellite repeats,
//!    poly-A: mask zero, done after that one read) never cost a pass.
//! 2. **Out of cache** (more than `IN_CACHE_BYTES` of keys): one stable counting pass
//!    on an 8-bit digit from the range into the other buffer — per-chunk histograms,
//!    destination carved into one slice per (chunk, bucket), parallel under the
//!    caller's rayon budget — then every bucket is sorted with the buffer roles
//!    swapped, buckets being the parallel unit.
//! 3. **In cache**: the same pass, serial, with `u32` cursors and a digit of
//!    `log2 n − 3` bits (4 to 11), i.e. buckets of about eight keys.
//! 4. **At most 32 keys**: stable insertion sort; one copy if the parity of the
//!    recursion left the range in the wrong buffer.
//!
//! Every step is stable, so the sort is. The pass count follows `log2 n`, not the key
//! width. A 4 Mi-key task of k = 31 (62 varying bits, 32 MiB): two streaming reads
//! (mask, histogram), one out-of-cache scatter into 256 buckets of ~16 Ki keys
//! (128 KiB), then per bucket, in L2: mask, count, one 11-bit scatter into ~8-key
//! buckets, insertion sort — **2 scatters per key, 1 of them out of cache**, where a
//! byte-wise LSD sort does 8 out-of-cache scatters. A 2 Mi-key task of k = 55
//! (46 + 64 varying bits, 16-byte keys, 32 MiB): 256 buckets of ~8 Ki keys
//! (128 KiB), one 10-bit in-cache scatter, insertion sort — again **2 scatters per
//! key** against LSD's 14. Wider in-cache LSD digits over the remaining bits were
//! measured too (5 passes at k = 31, 10 at k = 55) and lose to this on every
//! workload of the benchmark; see CHANGES.md, PR 13.
//!
//! A caller that can cut its keys into cache-sized pieces before sorting takes step 2
//! out of the kernel's hands; HySortK's stage 3 does — stage 1 cut every task into
//! minimizer sections, and stage 3 hands the kernel one section at a time. The
//! out-of-cache path here then only runs for a section that skew made larger than the
//! cache, and for callers with a finished array (the KMC3 baseline's bins).

use rayon::prelude::*;

use crate::buckets::cut_into_runs;
use crate::RadixKey;

/// A range of at most this many bytes of keys is partitioned "in cache": its two
/// buffers together fit a 1 MiB L2. Measured at 128 KiB to 4 MiB on the benchmark host
/// (4 MiB L2): 512 KiB and up tie, smaller loses on two-word keys. Not configurable.
/// Public because HySortK sizes the minimizer sections stage 3 sorts one at a time from
/// it (an average section holds half of it, so the section and its RADULS buffer fit it
/// together), and its performance model charges it.
pub const IN_CACHE_BYTES: usize = 512 * 1024;
/// Ranges of at most this many keys are insertion-sorted.
const INSERTION_MAX: usize = 32;
/// Digit width of an out-of-cache partition: 256 write streams stay within the TLB
/// and L1.
const MSD_BITS: u32 = 8;
/// In-cache digits aim at buckets of about eight keys (`log2 n - 3` bits) within these
/// widths: below 16 buckets a pass costs more than it splits, and 2048 `u32` cursors
/// still sit in L1.
const IN_CACHE_MIN_BITS: u32 = 4;
const IN_CACHE_MAX_BITS: u32 = 11;

/// Stable MSD radix sort for [`RadixKey`] types. See the module docs for the design.
/// Allocates the auxiliary buffer per call; [`raduls_sort_with_aux`] reuses one.
pub fn raduls_sort<T: RadixKey + Default>(data: &mut [T]) {
    let mut aux = Vec::new();
    raduls_sort_with_aux(data, &mut aux);
}

/// [`raduls_sort`] with a caller-owned auxiliary buffer, so a worker sorting many
/// arrays (one per task) reuses one ping-pong allocation instead of mapping fresh
/// pages per sort. `aux` is grown to `data.len()` when shorter (never for inputs small
/// enough to insertion-sort) and its contents are unspecified afterwards.
pub fn raduls_sort_with_aux<T: RadixKey + Default>(data: &mut [T], aux: &mut Vec<T>) {
    let n = data.len();
    if n <= INSERTION_MAX {
        return insertion_sort(data);
    }
    if aux.len() < n {
        aux.resize(n, T::default());
    }
    sort_range(data, &mut aux[..n], true, &mut Scratch::default());
}

/// `bits` key bits starting `shift` bits above the bottom of key word `word`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Digit {
    word: usize,
    shift: u32,
    bits: u32,
}

impl Digit {
    fn buckets(self) -> usize {
        1 << self.bits
    }

    #[inline(always)]
    fn of<T: RadixKey>(self, item: &T) -> usize {
        (item.key_word(self.word) >> self.shift) as usize & (self.buckets() - 1)
    }
}

/// Per-thread working memory of the kernel, reused from range to range.
#[derive(Default)]
struct Scratch {
    /// Per key word, the bits in which the keys of the range being planned differ.
    varying: Vec<u64>,
    /// A stack of cursor arrays, one per in-cache partition level in progress.
    cursors: Vec<u32>,
}

/// Sort the keys in `cur`, with `other` (same length) as the second buffer, and leave
/// the result in `cur` if `result_in_cur`, else in `other`.
///
/// One partition pass moves the range into `other` split by its top varying bits;
/// each bucket is then sorted with the buffer roles swapped, which lands it where the
/// caller wants the whole range. Ranges that are small or hold one distinct key end
/// the recursion, with one copy if they sit in the wrong buffer.
fn sort_range<T: RadixKey>(
    cur: &mut [T],
    other: &mut [T],
    result_in_cur: bool,
    scratch: &mut Scratch,
) {
    debug_assert_eq!(cur.len(), other.len());
    let n = cur.len();
    if n <= INSERTION_MAX {
        insertion_sort(cur);
    } else {
        varying_bits(cur, &mut scratch.varying);
        let in_cache = std::mem::size_of_val(cur) <= IN_CACHE_BYTES;
        let width = if in_cache {
            (n.ilog2() - 3).clamp(IN_CACHE_MIN_BITS, IN_CACHE_MAX_BITS)
        } else {
            MSD_BITS
        };
        match top_digit(&scratch.varying, width) {
            // Every key of the range is the same: one read, nothing to sort.
            None => {}
            Some(digit) if in_cache => {
                // This level's cursors go on top of the callers'; the levels below push
                // and pop theirs above them while this one walks its buckets.
                let base = scratch.cursors.len();
                scratch.cursors.resize(base + digit.buckets(), 0);
                partition_in_cache(cur, other, digit, &mut scratch.cursors[base..]);
                let mut start = 0;
                for bucket in 0..digit.buckets() {
                    let end = scratch.cursors[base + bucket] as usize;
                    if start < end {
                        let (bucket, spare) = (&mut other[start..end], &mut cur[start..end]);
                        sort_range(bucket, spare, !result_in_cur, scratch);
                    }
                    start = end;
                }
                scratch.cursors.truncate(base);
                return;
            }
            Some(digit) => {
                let sizes = partition_out_of_cache(cur, other, digit);
                // Buckets are the parallel unit: consecutive buckets are grouped into
                // runs of about equal key count (k-mer buckets are skewed), a few per
                // thread. At a thread budget of one this is a plain loop.
                let buckets = split_by_sizes(other, &sizes)
                    .into_iter()
                    .zip(split_by_sizes(cur, &sizes));
                let run_keys = n.div_ceil(4 * rayon::current_num_threads());
                let runs = cut_into_runs(buckets, run_keys, |(bucket, _)| bucket.len());
                runs.into_par_iter().for_each(|run| {
                    let mut scratch = Scratch::default();
                    for (bucket, spare) in run {
                        sort_range(bucket, spare, !result_in_cur, &mut scratch);
                    }
                });
                return;
            }
        }
    }
    if !result_in_cur {
        other.copy_from_slice(cur);
    }
}

/// Stable insertion sort by key, for ranges too small to pay for a counting pass.
fn insertion_sort<T: RadixKey>(data: &mut [T]) {
    let less = |a: &T, b: &T| {
        for w in 0..T::KEY_WORDS {
            if a.key_word(w) != b.key_word(w) {
                return a.key_word(w) < b.key_word(w);
            }
        }
        false
    };
    for i in 1..data.len() {
        let item = data[i];
        let mut j = i;
        while j > 0 && less(&item, &data[j - 1]) {
            data[j] = data[j - 1];
            j -= 1;
        }
        data[j] = item;
    }
}

/// One streaming read: per key word, OR together `key ^ first key`. A zero word is
/// constant over `data`; all words zero means every key is the same.
fn varying_bits<T: RadixKey>(data: &[T], varying: &mut Vec<u64>) {
    varying.clear();
    varying.resize(T::KEY_WORDS, 0);
    let first = data[0];
    // Word-outer over L1-sized blocks, so each inner loop is a plain OR reduction.
    for block in data.chunks(1024) {
        for (w, bits) in varying.iter_mut().enumerate() {
            let reference = first.key_word(w);
            *bits |= block
                .iter()
                .fold(0, |acc, item| acc | (item.key_word(w) ^ reference));
        }
    }
}

/// The top `max_bits` of the varying span of the most significant varying word (the
/// whole span when it is narrower: a digit never straddles two words).
fn top_digit(varying: &[u64], max_bits: u32) -> Option<Digit> {
    let (word, &bits) = varying.iter().enumerate().find(|(_, &bits)| bits != 0)?;
    let top = 64 - bits.leading_zeros();
    let width = (top - bits.trailing_zeros()).min(max_bits);
    Some(Digit {
        word,
        shift: top - width,
        bits: width,
    })
}

/// One stable counting pass of `src` into `dst` on `digit`, serial, with `u32` cursors
/// (zero on entry); on return `cursors[b]` is the end offset of bucket `b` in `dst`.
fn partition_in_cache<T: RadixKey>(src: &[T], dst: &mut [T], digit: Digit, cursors: &mut [u32]) {
    debug_assert!(cursors.len() == digit.buckets() && dst.len() == src.len());
    for item in src {
        cursors[digit.of(item)] += 1;
    }
    let mut next = 0u32;
    for cursor in cursors.iter_mut() {
        next += std::mem::replace(cursor, next);
    }
    for item in src {
        let cursor = &mut cursors[digit.of(item)];
        dst[*cursor as usize] = *item;
        *cursor += 1;
    }
}

/// One stable counting pass of `src` into `dst` on `digit`; returns the bucket sizes.
/// Parallel over equal chunks of `src` under the caller's rayon budget (one chunk, no
/// thread, at a budget of one): per-chunk histograms, then `dst` is carved bucket-major,
/// chunk-minor into one slice per (chunk, bucket), so every chunk scatters, in order,
/// into slices it alone owns.
#[allow(unsafe_code)]
fn partition_out_of_cache<T: RadixKey>(src: &[T], dst: &mut [T], digit: Digit) -> Vec<usize> {
    let chunk_len = src.len().div_ceil(rayon::current_num_threads());
    let chunks: Vec<&[T]> = src.chunks(chunk_len).collect();
    let histograms: Vec<Vec<usize>> = chunks
        .par_iter()
        .map(|chunk| {
            let mut histogram = vec![0usize; digit.buckets()];
            for item in chunk.iter() {
                histogram[digit.of(item)] += 1;
            }
            histogram
        })
        .collect();

    let mut sizes = vec![0usize; digit.buckets()];
    let mut dests: Vec<Vec<&mut [T]>> = chunks
        .iter()
        .map(|_| Vec::with_capacity(digit.buckets()))
        .collect();
    let mut rest = dst;
    for (bucket, size) in sizes.iter_mut().enumerate() {
        for (histogram, dests) in histograms.iter().zip(&mut dests) {
            let (dest, tail) = rest.split_at_mut(histogram[bucket]);
            dests.push(dest);
            rest = tail;
            *size += histogram[bucket];
        }
    }

    chunks
        .into_par_iter()
        .zip(dests)
        .for_each(|(chunk, mut dests)| {
            // Both pointers of a slice come from one borrow of it, and `dests` is not
            // touched again while they are in use.
            let (mut cursors, ends): (Vec<*mut T>, Vec<*mut T>) = dests
                .iter_mut()
                .map(|dest| {
                    let range = dest.as_mut_ptr_range();
                    (range.start, range.end)
                })
                .unzip();
            for item in chunk {
                let bucket = digit.of(item);
                let cursor = &mut cursors[bucket];
                assert!(*cursor < ends[bucket], "key digit changed between passes");
                // SAFETY: `*cursor` starts at the head of `dests[bucket]`, a slice this
                // closure owns exclusively, only ever advances by one element, and was
                // just checked to be below that slice's end.
                unsafe {
                    cursor.write(*item);
                    *cursor = cursor.add(1);
                }
            }
        });
    sizes
}

/// Cut `data` into consecutive slices of the given sizes.
fn split_by_sizes<'a, T>(mut data: &'a mut [T], sizes: &[usize]) -> Vec<&'a mut [T]> {
    sizes
        .iter()
        .map(|&size| {
            let (head, tail) = std::mem::take(&mut data).split_at_mut(size);
            data = tail;
            head
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_sorts_u64(v: &mut Vec<u64>) {
        let mut expected = v.clone();
        expected.sort();
        raduls_sort(v);
        assert_eq!(*v, expected);
    }

    #[test]
    fn sorts_empty_singleton_and_duplicates() {
        let mut v: Vec<u64> = vec![];
        check_sorts_u64(&mut v);
        let mut v = vec![7u64];
        check_sorts_u64(&mut v);
        let mut v = vec![3u64; 1000];
        check_sorts_u64(&mut v);
    }

    #[test]
    fn sorts_large_random() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<u64> = (0..300_000).map(|_| rng.gen()).collect();
        check_sorts_u64(&mut v);
    }

    #[test]
    fn sorts_low_entropy_keys() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut v: Vec<u64> = (0..100_000).map(|_| rng.gen_range(0..=255u64)).collect();
        check_sorts_u64(&mut v);
    }

    #[test]
    fn odd_number_of_active_levels_lands_back_in_data() {
        // Keys confined to 3 bytes -> 3 active levels (odd), forcing the final copy-back.
        let mut rng = StdRng::seed_from_u64(13);
        let mut v: Vec<u64> = (0..60_000).map(|_| rng.gen::<u64>() & 0xFF_FFFF).collect();
        check_sorts_u64(&mut v);
    }

    #[test]
    fn stability_within_equal_keys() {
        // Stable: payload order inside equal keys must be preserved.
        let mut rng = StdRng::seed_from_u64(14);
        let mut v: Vec<(u16, u32)> = (0..50_000u32)
            .map(|i| (rng.gen_range(0..32u16), i))
            .collect();
        raduls_sort(&mut v);
        for w in v.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    #[test]
    fn agrees_with_paradis_on_random_input() {
        let mut rng = StdRng::seed_from_u64(15);
        let original: Vec<u64> = (0..80_000).map(|_| rng.gen()).collect();
        let mut a = original.clone();
        let mut b = original;
        raduls_sort(&mut a);
        crate::paradis_sort(&mut b);
        assert_eq!(a, b);
    }

    // ---- the RadixKey kernel ----------------------------------------------------------

    use std::fmt::Debug;

    /// The kernel against std's stable sort by key. Whole records are compared, so
    /// payload order inside equal keys (stability) is pinned too.
    fn check_kernel<T>(input: &[T], aux: &mut Vec<T>, context: &str)
    where
        T: RadixKey + Default + PartialEq + Debug,
    {
        let key = |x: &T| (0..T::KEY_WORDS).map(|w| x.key_word(w)).collect::<Vec<_>>();
        let mut expected = input.to_vec();
        expected.sort_by(|a, b| {
            (0..T::KEY_WORDS)
                .map(|w| a.key_word(w))
                .cmp((0..T::KEY_WORDS).map(|w| b.key_word(w)))
        });
        let mut by_kernel = input.to_vec();
        raduls_sort_with_aux(&mut by_kernel, aux);
        if let Some(i) = (0..input.len()).find(|&i| by_kernel[i] != expected[i]) {
            panic!(
                "{context}: kernel differs from std at {i}: key {:x?}, expected {:x?}",
                key(&by_kernel[i]),
                key(&expected[i])
            );
        }
    }

    /// Key shapes over `bits`-wide keys (64 or 128), as `u128`s.
    fn shapes(rng: &mut StdRng, n: usize, bits: u32) -> Vec<(&'static str, Vec<u128>)> {
        let top = bits - 1;
        let wide = |rng: &mut StdRng| rng.gen::<u128>() >> (128 - bits);
        let random: Vec<u128> = (0..n).map(|_| wide(rng)).collect();
        let pool: Vec<u128> = (0..n / 20 + 1).map(|_| wide(rng) >> 2).collect();
        let mut sorted = random.clone();
        sorted.sort_unstable();
        let hot = wide(rng);
        vec![
            ("all equal", vec![hot; n]),
            (
                "one hot key among random keys",
                (0..n)
                    .map(|i| if i % 4 == 3 { wide(rng) } else { hot })
                    .collect(),
            ),
            (
                "20 copies per key",
                (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect(),
            ),
            ("lowest bit only", random.iter().map(|x| x & 1).collect()),
            (
                "lowest byte only",
                random.iter().map(|x| x & 0xFF).collect(),
            ),
            (
                "few distinct leading bytes",
                random.iter().map(|x| x & 0xFF_FFFF).collect(),
            ),
            (
                "highest bit only",
                random.iter().map(|x| (x & 1) << top).collect(),
            ),
            (
                "one bit per word",
                random
                    .iter()
                    .map(|x| (x & 1) | ((x >> 1) & 1) << (top - 1))
                    .collect(),
            ),
            (
                // Outliers pin the top digit, so nearly everything lands in bucket 0
                // and large inputs take a second out-of-cache level.
                "narrow keys with a few wide outliers",
                (0..n)
                    .map(|i| (wide(rng) & 0xFF_FFFF_FFFF) | u128::from(i % 1000 == 7) << top)
                    .collect(),
            ),
            ("reversed", sorted.iter().rev().copied().collect()),
            ("sorted", sorted),
            ("random", random),
        ]
    }

    /// Sizes around every threshold of the kernel for a `key_bytes`-wide key, in an
    /// order that makes a reused `aux` both grow and be larger than needed.
    fn sizes(key_bytes: usize) -> Vec<usize> {
        let in_cache = IN_CACHE_BYTES / key_bytes;
        vec![
            0,
            in_cache + 1,
            1,
            INSERTION_MAX + 1,
            2 * in_cache + 1000,
            INSERTION_MAX,
            in_cache,
            INSERTION_MAX + 2,
            2,
            1000,
            in_cache - 1,
            10_000,
        ]
    }

    /// Every shape at every size, one `aux` reused throughout. Ranges that go out of
    /// cache run under thread budgets of 1 (plain loops) and 3 (chunked partition,
    /// bucket runs); the in-cache code never looks at the budget.
    fn check_all<T: RadixKey + Default + PartialEq + Debug>(
        seed: u64,
        bits: u32,
        make: impl Fn(u128, usize) -> T,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut aux = Vec::new();
        for n in sizes(std::mem::size_of::<T>()) {
            for (shape, keys) in shapes(&mut rng, n, bits) {
                let input: Vec<T> = keys
                    .into_iter()
                    .enumerate()
                    .map(|(i, key)| make(key, i))
                    .collect();
                let out_of_cache = std::mem::size_of_val(&input[..]) > IN_CACHE_BYTES;
                for threads in if out_of_cache { vec![1, 3] } else { vec![1] } {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let context = format!("shape `{shape}`, n = {n}, {threads} threads");
                    pool.install(|| check_kernel(&input, &mut aux, &context));
                    assert!(n <= INSERTION_MAX || aux.len() >= n);
                }
            }
        }
    }

    #[test]
    fn kernel_matches_std_on_u64() {
        check_all(16, 64, |key, _| key as u64);
    }

    #[test]
    fn kernel_matches_std_on_u128() {
        check_all(17, 128, |key, _| key);
    }

    #[test]
    fn kernel_is_stable_on_tagged_records() {
        // The payload is the input position: equal keys must keep it ascending, which
        // the whole-record comparison against std's stable sort checks.
        check_all(18, 64, |key, i| (key as u64, i as u32));
        check_all(19, 128, |key, i| (key, i as u32));
    }

    #[test]
    fn kernel_sorts_narrow_key_types() {
        // Key words are zero above the type's width; the varying mask never looks there.
        check_all(20, 64, |key, i| (key as u32, i as u32));
        let mut rng = StdRng::seed_from_u64(21);
        let input: Vec<u16> = (0..IN_CACHE_BYTES).map(|_| rng.gen()).collect();
        check_kernel(&input, &mut Vec::new(), "random u16");
    }

    #[test]
    fn digits_come_from_the_varying_bits_only() {
        // k = 31 in one word: 62 varying bits, the top 8 of them.
        assert_eq!(
            top_digit(&[(1 << 62) - 1], MSD_BITS),
            Some(Digit {
                word: 0,
                shift: 54,
                bits: 8
            })
        );
        // k = 33: the first word varies in 2 bits only, and the digit stops there.
        assert_eq!(
            top_digit(&[0b11, u64::MAX], MSD_BITS),
            Some(Digit {
                word: 0,
                shift: 0,
                bits: 2
            })
        );
        // A constant first word is skipped; the span is cut at its lowest varying bit.
        assert_eq!(
            top_digit(&[0, 0b1011_0000], 11),
            Some(Digit {
                word: 1,
                shift: 4,
                bits: 4
            })
        );
        assert_eq!(top_digit(&[0, 0], MSD_BITS), None);

        let mut varying = Vec::new();
        varying_bits(
            &[0xF0u128 << 64 | 5, 0xF1u128 << 64 | 4, 0xF0u128 << 64 | 7],
            &mut varying,
        );
        assert_eq!(varying, [0x01, 0b11]);
    }
}
