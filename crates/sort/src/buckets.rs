//! The top-bits digit of a key and the balanced cutting of skewed work into runs: the
//! two pieces the multiway merge ([`crate::multiway`]) and the RADULS kernel
//! ([`crate::raduls`]) share.
//!
//! * [`BucketDigit`] — the top (at most eight) bits of a key of known width, e.g. `2k`
//!   for a k-mer. It is fixed by the key width alone, needs no pass over the data, may
//!   straddle two key words, and ascends with the key, which is what makes the boundaries
//!   of its values a range-disjoint cut of any set of sorted runs.
//! * [`map_balanced_runs`] (over `cut_into_runs`) — consecutive jobs of skewed weight
//!   (k-mer buckets, a task's sections) cut into about one run of equal weight per
//!   thread of the caller's rayon budget, each run mapped with its own reusable lane.

use rayon::prelude::*;

use crate::RadixKey;

/// Digit width of the partition: 256 write streams stay within the TLB and L1 (the
/// RADULS kernel's out-of-cache width).
const MSD_BITS: u32 = 8;

/// The top (at most eight) bits of a key whose meaningful bits are its low `key_bits`.
/// Unlike the kernel's data-derived digits this one may straddle two key words: it is
/// fixed by the key width alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketDigit {
    key_bits: u32,
    word: usize,
    shift: u32,
    straddles: bool,
    mask: u64,
}

impl BucketDigit {
    /// The digit for `T` keys of `key_bits` meaningful bits (`2k` for a k-mer). Bits
    /// above `key_bits` must be zero in every key, or bucket order is not key order.
    pub fn top_bits<T: RadixKey>(key_bits: u32) -> Self {
        assert!(
            key_bits as usize <= 64 * T::KEY_WORDS,
            "{key_bits} key bits do not fit {} key words",
            T::KEY_WORDS
        );
        let bits = key_bits.min(MSD_BITS);
        let low = key_bits - bits;
        let shift = low % 64;
        BucketDigit {
            key_bits,
            word: T::KEY_WORDS - 1 - (low / 64) as usize,
            shift,
            straddles: shift + bits > 64,
            mask: (1u64 << bits) - 1,
        }
    }

    /// Number of buckets (256 unless the key has fewer than eight bits).
    pub fn buckets(self) -> usize {
        self.mask as usize + 1
    }

    /// The bucket of `item`.
    #[inline(always)]
    pub fn of<T: RadixKey>(self, item: &T) -> u8 {
        let mut digit = item.key_word(self.word) >> self.shift;
        if self.straddles {
            digit |= item.key_word(self.word - 1) << (64 - self.shift);
        }
        (digit & self.mask) as u8
    }

    /// Whether `item`'s key is zero above its `key_bits` meaningful bits, which is what
    /// makes bucket order key order. The largest key of a set answers for all of it.
    pub fn holds<T: RadixKey>(self, item: &T) -> bool {
        (0..T::KEY_WORDS).all(|w| {
            let below = 64 * (T::KEY_WORDS - 1 - w) as u32;
            let meaningful = self.key_bits.saturating_sub(below);
            meaningful >= 64 || item.key_word(w) >> meaningful == 0
        })
    }
}

/// Cut `jobs`, in order, into runs of consecutive jobs whose weights add up to about
/// `run_weight` each: a run is closed by the job that fills it. This is how both the
/// RADULS kernel and [`map_balanced_runs`] turn skewed k-mer buckets into parallel
/// units of about equal work.
pub(crate) fn cut_into_runs<J>(
    jobs: impl IntoIterator<Item = J>,
    run_weight: usize,
    weight: impl Fn(&J) -> usize,
) -> Vec<Vec<J>> {
    let run_weight = run_weight.max(1);
    let mut runs: Vec<Vec<J>> = Vec::new();
    let mut filled = run_weight;
    for job in jobs {
        if filled >= run_weight {
            runs.push(Vec::new());
            filled = 0;
        }
        filled += weight(&job);
        runs.last_mut().expect("pushed above").push(job);
    }
    runs
}

/// The parallel unit of stage 3's section phase and of the multiway merge: `jobs` (a
/// task's sections, or digit buckets, in order) are cut into at most one run of about
/// equal total `weight` per thread of the caller's rayon budget — fewer when a share
/// would weigh less than `min_run_weight`, so a small input does not fan out over a
/// wide budget — and every run is mapped together with its own element of `lanes` — the
/// thread's reusable buffers, created by `new_lane` when there are fewer lanes than
/// runs. Results come back in run order, so concatenating them keeps job order. With
/// one run this is a plain call of `f` on all the jobs. (It lives here, not with its
/// caller in stage 3, because this crate is the one that runs on rayon.)
pub fn map_balanced_runs<J, L, R>(
    jobs: Vec<J>,
    weight: impl Fn(&J) -> usize,
    min_run_weight: usize,
    lanes: &mut Vec<L>,
    new_lane: impl FnMut() -> L,
    f: impl Fn(Vec<J>, &mut L) -> R + Sync,
) -> Vec<R>
where
    J: Send,
    L: Send,
    R: Send,
{
    let total: usize = jobs.iter().map(&weight).sum();
    let run_weight = total.div_ceil(rayon::current_num_threads());
    let runs = cut_into_runs(jobs, run_weight.max(min_run_weight), weight);
    if lanes.len() < runs.len() {
        lanes.resize_with(runs.len(), new_lane);
    }
    runs.into_par_iter()
        .zip(lanes.par_iter_mut())
        .map(|(run, lane)| f(run, lane))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn digits_straddling_two_key_words_keep_key_order() {
        // 66..=70 key bits put part of the digit in each word of a 128-bit key.
        let mut rng = StdRng::seed_from_u64(33);
        for key_bits in [65u32, 66, 69, 70, 71, 72, 110, 128] {
            let keys: Vec<u128> = (0..20_000)
                .map(|_| rng.gen::<u128>() >> (128 - key_bits))
                .collect();
            let digit = BucketDigit::top_bits::<u128>(key_bits);
            for key in &keys {
                assert_eq!(digit.of(key), (key >> (key_bits - 8)) as u8);
            }
            assert_eq!(digit.buckets(), 256);
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert!(sorted
                .windows(2)
                .all(|w| digit.of(&w[0]) <= digit.of(&w[1])));
            assert_eq!(digit.of(&(u128::MAX >> (128 - key_bits))), 255);
        }
    }

    #[test]
    fn holds_rejects_exactly_the_keys_with_bits_above_the_key_width() {
        let narrow = BucketDigit::top_bits::<u64>(62);
        assert!(narrow.holds(&((1u64 << 62) - 1)) && !narrow.holds(&(1u64 << 62)));
        assert!(BucketDigit::top_bits::<u64>(64).holds(&u64::MAX));
        let wide = BucketDigit::top_bits::<u128>(66);
        assert!(wide.holds(&((1u128 << 66) - 1)) && !wide.holds(&(1u128 << 66)));
        let one_word_of_two = BucketDigit::top_bits::<u128>(40);
        assert!(one_word_of_two.holds(&((1u128 << 40) - 1)));
        assert!(!one_word_of_two.holds(&(1u128 << 64)) && !one_word_of_two.holds(&(1u128 << 40)));
        assert!(BucketDigit::top_bits::<u128>(128).holds(&u128::MAX));
    }

    #[test]
    fn balanced_runs_keep_job_order_and_give_every_run_its_own_lane() {
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for weights in [vec![], vec![0, 0], vec![5; 40], vec![100, 1, 1, 1, 100, 1]] {
                let jobs: Vec<(usize, usize)> = weights.iter().copied().enumerate().collect();
                let mut lanes: Vec<Vec<usize>> = Vec::new();
                let runs: Vec<Vec<usize>> = pool.install(|| {
                    map_balanced_runs(
                        jobs,
                        |job| job.1,
                        0,
                        &mut lanes,
                        Vec::new,
                        |run, lane| {
                            lane.extend(run.iter().map(|job| job.0));
                            run.iter().map(|job| job.0).collect()
                        },
                    )
                });
                assert!(runs.len() <= threads.max(1), "{threads} threads: {runs:?}");
                assert!(lanes.len() >= runs.len());
                assert_eq!(runs.concat(), (0..weights.len()).collect::<Vec<_>>());
                assert_eq!(&lanes[..runs.len()], &runs[..], "one lane per run");
            }
            // A floor on a run's weight caps the fan-out: 200 over runs of at least 90.
            let jobs: Vec<usize> = vec![5; 40];
            let runs = pool.install(|| {
                map_balanced_runs(jobs, |job| *job, 90, &mut Vec::new(), || (), |run, _| run)
            });
            assert_eq!(runs.len(), threads.min(3), "{threads} threads");
            assert_eq!(runs.concat().len(), 40);
        }
    }
}
