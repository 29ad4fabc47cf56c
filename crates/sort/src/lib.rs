//! Parallel radix sorting substrate.
//!
//! HySortK replaces the distributed hash table with "sort the receive buffer, then scan
//! it linearly" (paper §3.1). The two radix sorts the paper uses are provided, each
//! once, for keys that expose themselves as raw big-endian `u64` words ([`RadixKey`]),
//! so a digit is a shift and a mask on a key word:
//!
//! * [`paradis`] — **in place, unstable**, modelled on PARADIS (Cho et al., VLDB 2015).
//!   It needs no auxiliary array, so it is the sorter the paper's HySortK falls back to
//!   when memory is tight.
//! * [`raduls`] — **out of place, stable**, modelled on RADULS (Kokot et al., BDAS
//!   2017): faster, but it needs a second buffer of the same size.
//!
//! Stage 3 (`hysortk_core::stage3`) sorts one cache-sized minimizer section at a time,
//! so RADULS's second buffer is one section per thread: the pipeline always sorts with
//! it, and only the performance model still picks PARADIS for a modeled node whose
//! memory is tight. [`multiway::multiway_merge`] assembles the sorted runs the
//! sections emit into one table, and [`runs`] holds the linear counting scans applied
//! after sorting.

#![deny(unsafe_code)]

pub mod buckets;
pub mod multiway;
pub mod paradis;
pub mod raduls;
pub mod runs;

pub use buckets::{map_balanced_runs, BucketDigit};
pub use multiway::multiway_merge;
pub use paradis::{paradis_sort, paradis_sort_from};
pub use raduls::{raduls_sort, raduls_sort_with_aux, IN_CACHE_BYTES};
pub use runs::{count_sorted_runs, merge_runs_with_counts};

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
