//! Parallel radix sorting substrate.
//!
//! HySortK replaces the distributed hash table with "sort the receive buffer, then scan
//! it linearly" (paper §3.1). Two radix sorts are provided, mirroring the two the paper
//! uses, plus the multiway merge that assembles the sorted outputs into one table:
//!
//! * [`paradis::paradis_sort_by`] — an **in-place MSD** radix sort modelled on PARADIS
//!   (Cho et al., VLDB 2015): speculative parallel permutation into bucket stripes, a
//!   repair pass, then parallel recursion into buckets. Requires no auxiliary array, so
//!   it is the sorter HySortK falls back to when memory is tight.
//! * [`raduls`] — **out-of-place, stable** radix sorts modelled on RADULS (Kokot et al.,
//!   BDAS 2017): faster, but they need a second buffer of the same size. The
//!   [`RadixKey`] kernel [`raduls::raduls_sort`] is MSD-first — one out-of-cache
//!   partition pass on the top varying bits, then each cache-resident bucket is
//!   finished in L2 by one wide-digit pass and insertion sort: 2 scatters per key for
//!   a 4 Mi-key k = 31 task (byte-wise LSD: 8, all out of cache) and 2 for a 2 Mi-key
//!   k = 55 task (LSD: 14). [`raduls::raduls_sort_by`] is the byte-wise LSD closure
//!   path the KMC3 baseline uses, and the kernel's test oracle.
//!
//!   HySortK's stage 3 (`hysortk_core::stage3`) never hands either kernel a task: stage 1
//!   cut every task into minimizer *sections* of about half of [`IN_CACHE_BYTES`] on
//!   average, so stage 3 decodes one section into a reused buffer, sorts it there with
//!   either kernel and scans it while it is still in L2, section after section — the
//!   sorter choice only picks the in-section kernel.
//! * [`multiway::multiway_merge`] — the sorted runs the sections emit hold disjoint key
//!   *sets*, not ranges, so the result table is a merge of all of them; the runs are
//!   cut at the boundaries of the top-bits digit ([`BucketDigit`], the one thing that
//!   is range-disjoint across every run), each piece gets its slice of the destination,
//!   and threads merge pieces in cache — a pairwise cascade of two-ended two-way merges
//!   — straight into those slices. One parallel pass from the runs of every rank to the
//!   final `Vec`, first-touched by the threads that fill it.
//!
//! Two kinds of entry points are provided:
//!
//! * **Closure-generic**: the caller supplies the number of radix levels and a
//!   `digit(item, level) -> u8` closure with level 0 the **most significant** digit.
//!   This keeps the crate independent of the k-mer representation (k is a runtime
//!   value) and is what the baselines use.
//! * **Monomorphized kernels** ([`raduls::raduls_sort`], [`paradis::paradis_sort`]):
//!   for types implementing [`RadixKey`] — keys exposed as raw big-endian `u64` words —
//!   digit extraction compiles down to a shift/mask word access with no
//!   per-item-per-level indirection, and the RADULS kernel plans its digits from the
//!   bits that actually vary in the data. These are the pipeline's hot paths.
//!
//! [`runs::count_sorted_runs`] is the linear counting scan applied after sorting, and
//! [`runs::merge_runs_with_counts`] the same scan with pre-counted entries merged in.
//! The paper's memory-aware choice between the two radix sorts is made by the pipeline
//! (`hysortk_perfmodel::MemoryModel::raduls_fits`); since stage 3 sorts section by
//! section it only picks the in-section kernel.

#![deny(unsafe_code)]

pub mod buckets;
pub mod multiway;
pub mod paradis;
pub mod raduls;
pub mod runs;

pub use buckets::{map_balanced_runs, BucketDigit};
pub use multiway::multiway_merge;
pub use paradis::{paradis_sort, paradis_sort_by, paradis_sort_from};
pub use raduls::{raduls_sort, raduls_sort_by, raduls_sort_with_aux, IN_CACHE_BYTES};
pub use runs::{count_sorted_runs, for_each_sorted_run, merge_runs_with_counts};

/// Keys that can expose themselves as raw big-endian `u64` words, enabling the
/// monomorphized radix kernels.
///
/// The logical key is the concatenation `key_word(0) ‖ key_word(1) ‖ …` compared as a
/// big integer; radix level `l` is byte `l` of that concatenation, most significant
/// first. Types whose meaningful bits occupy only the low end (e.g. a `2k`-bit k-mer in
/// `⌈k/32⌉` words) simply expose leading zero bytes — both kernels skip key bits that
/// are constant across the input, so the padding costs one check, not a scatter pass.
pub trait RadixKey: Copy + Send + Sync {
    /// Number of 64-bit key words, most significant first.
    const KEY_WORDS: usize;
    /// Total radix levels (bytes) in the key: `8 * KEY_WORDS`.
    const KEY_LEVELS: usize = 8 * Self::KEY_WORDS;
    /// The `w`-th key word (`w < KEY_WORDS`), most significant first.
    fn key_word(&self, w: usize) -> u64;
}

/// Branch-free digit extraction for [`RadixKey`] types: byte `level` of the
/// concatenated key words, most significant first.
#[inline(always)]
pub fn radix_digit<T: RadixKey>(item: &T, level: usize) -> u8 {
    (item.key_word(level >> 3) >> ((7 - (level & 7)) << 3)) as u8
}

impl RadixKey for u64 {
    const KEY_WORDS: usize = 1;
    #[inline(always)]
    fn key_word(&self, _w: usize) -> u64 {
        *self
    }
}

impl RadixKey for u32 {
    const KEY_WORDS: usize = 1;
    #[inline(always)]
    fn key_word(&self, _w: usize) -> u64 {
        u64::from(*self)
    }
}

impl RadixKey for u16 {
    const KEY_WORDS: usize = 1;
    #[inline(always)]
    fn key_word(&self, _w: usize) -> u64 {
        u64::from(*self)
    }
}

impl RadixKey for u128 {
    const KEY_WORDS: usize = 2;
    #[inline(always)]
    fn key_word(&self, w: usize) -> u64 {
        if w == 0 {
            (*self >> 64) as u64
        } else {
            *self as u64
        }
    }
}

/// Records sort by their first field; the payload rides along. This is how the pipeline
/// sorts `(k-mer, extension)` pairs without a closure in the inner loop.
impl<K: RadixKey, P: Copy + Send + Sync> RadixKey for (K, P) {
    const KEY_WORDS: usize = K::KEY_WORDS;
    #[inline(always)]
    fn key_word(&self, w: usize) -> u64 {
        self.0.key_word(w)
    }
}

/// Internal abstraction that lets one sorter implementation serve both the
/// closure-generic entry points and the monomorphized [`RadixKey`] kernels: each
/// instantiation monomorphizes the inner loops, so the `KeyDigits` path compiles to a
/// direct shift/mask with no closure in sight.
pub(crate) trait DigitSource<T>: Sync {
    fn digit(&self, item: &T, level: usize) -> u8;
}

pub(crate) struct ClosureDigits<F>(pub F);

impl<T, F: Fn(&T, usize) -> u8 + Sync> DigitSource<T> for ClosureDigits<F> {
    #[inline(always)]
    fn digit(&self, item: &T, level: usize) -> u8 {
        (self.0)(item, level)
    }
}

pub(crate) struct KeyDigits;

impl<T: RadixKey> DigitSource<T> for KeyDigits {
    #[inline(always)]
    fn digit(&self, item: &T, level: usize) -> u8 {
        radix_digit(item, level)
    }
}
