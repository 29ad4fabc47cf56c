//! A chunked MSD bucket store: the out-of-cache partition pass of the RADULS kernel,
//! run *while the keys are produced* instead of over a finished array.
//!
//! KMC3 bins k-mers by prefix as it reads them and sorts one bin at a time; RADULS
//! partitions once out of cache and finishes every bucket in cache
//! ([`crate::raduls`]). A producer that knows the key width up front — a k-mer decoder
//! knows `2k` — needs neither the varying-bits read nor the histogram read of that
//! partition pass: the digit is the top eight bits of the key
//! ([`BucketDigit::top_bits`]), and not knowing the bucket sizes is paid for with
//! chunked buckets.
//!
//! * **Layout.** One pool of records, reused from task to task, cut into chunks of
//!   `chunk_len` records. A bucket is a linked list of chunks, bump-allocated from the
//!   pool as the bucket fills. Every bucket wastes less than one chunk, so a task of
//!   `n` records needs `⌈n / chunk_len⌉ + buckets` chunks; `chunk_len = n / 4096`
//!   (at least 16) keeps that slack at or below `n / 16` records however large the
//!   task is, and a small task does not pay 256 half-empty large chunks.
//! * **Scatter.** [`BucketStore::push`] only writes into an L1-resident staging buffer;
//!   every 512 records the buffer is scattered in one tight loop — digit,
//!   cursor, store — which keeps several destination-line misses in flight. Scattering
//!   straight from a decoder's closure leaves ~40 instructions between two stores and
//!   measured 18–19 ns per key against 6 (decode) + 5.5 (scatter) staged.
//! * **Gather.** [`BucketStore::gather`] copies one bucket's chunks, in push order,
//!   into a caller-owned buffer that stays cache-resident from bucket to bucket: the
//!   caller sorts it there ([`crate::raduls_sort_with_aux`] or
//!   [`crate::paradis_sort_from`]) and consumes it before the next gather evicts it.
//!   Buckets ascend with the key, so visiting them in index order visits the keys in
//!   sorted order. The record array is thus written once and read once.
//!
//! Every pool write is a checked slice index and chunk allocation asserts against the
//! announced capacity, so a producer that pushes more than it announced panics instead
//! of writing out of bounds; [`BucketStore::len`] is summed from the chunk lists and
//! [`BucketStore::pushed`] counts the pushes, so the caller can compare both with the
//! total it expected.

use rayon::prelude::*;

use crate::RadixKey;

/// Records staged in L1 between two scatter loops.
const STAGE_LEN: usize = 512;
/// Digit width of the partition: 256 write streams stay within the TLB and L1 (the
/// RADULS kernel's out-of-cache width).
const MSD_BITS: u32 = 8;
/// Shortest chunk, in records: two cache lines of 8-byte keys.
const MIN_CHUNK_LEN: usize = 16;
/// `chunk_len = n / CHUNKS_PER_TASK`: 256 buckets × < 1 wasted chunk ≤ `n / 16`.
const CHUNKS_PER_TASK: usize = 4096;
const NO_CHUNK: u32 = u32::MAX;

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

/// See the module docs. One store serves any number of tasks, one at a time:
/// [`begin`](BucketStore::begin), [`push`](BucketStore::push) every record,
/// [`finish`](BucketStore::finish), then [`gather`](BucketStore::gather) the buckets.
#[derive(Debug)]
pub struct BucketStore<T> {
    digit: BucketDigit,
    chunk_len: usize,
    /// Chunks the current task may use; chunk `c` is `pool[c * chunk_len..][..chunk_len]`.
    chunk_cap: usize,
    chunks_used: usize,
    pool: Vec<T>,
    /// Per chunk: the next chunk of the same bucket.
    next: Vec<u32>,
    /// Per bucket: first and last chunk, and how many.
    head: [u32; 256],
    tail: [u32; 256],
    chunks: [u32; 256],
    /// Per bucket: pool index of the next write and of the end of its last chunk.
    /// Both zero for a bucket without a chunk, so its first write allocates.
    cursor: [u32; 256],
    end: [u32; 256],
    stage: Vec<T>,
    staged: usize,
    pushed: usize,
}

impl<T: RadixKey + Default> Default for BucketStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: RadixKey + Default> BucketStore<T> {
    /// An empty store; nothing is allocated before the first [`begin`](Self::begin).
    pub fn new() -> Self {
        BucketStore {
            digit: BucketDigit::top_bits::<T>(0),
            chunk_len: MIN_CHUNK_LEN,
            chunk_cap: 0,
            chunks_used: 0,
            pool: Vec::new(),
            next: Vec::new(),
            head: [NO_CHUNK; 256],
            tail: [NO_CHUNK; 256],
            chunks: [0; 256],
            cursor: [0; 256],
            end: [0; 256],
            stage: Vec::new(),
            staged: 0,
            pushed: 0,
        }
    }

    /// Start a task of exactly `records` records whose keys have `key_bits` meaningful
    /// bits. The pool grows to `records` plus the chunk slack when it is smaller and is
    /// never shrunk; chunks are handed out from its start, so a small task after a
    /// large one touches only the pages it needs.
    pub fn begin(&mut self, records: usize, key_bits: u32) {
        self.digit = BucketDigit::top_bits::<T>(key_bits);
        self.chunk_len = (records / CHUNKS_PER_TASK).max(MIN_CHUNK_LEN);
        self.chunk_cap = records.div_ceil(self.chunk_len) + self.digit.buckets();
        let pool_len = self.chunk_cap * self.chunk_len;
        assert!(
            u32::try_from(pool_len).is_ok(),
            "a task of {records} records exceeds the bucket store's u32 index range"
        );
        if self.pool.len() < pool_len {
            // Exactly: amortised doubling would map a second task-sized region.
            self.pool.reserve_exact(pool_len - self.pool.len());
            self.pool.resize(pool_len, T::default());
        }
        self.stage.resize(STAGE_LEN, T::default());
        if self.next.len() < self.chunk_cap {
            self.next.resize(self.chunk_cap, NO_CHUNK);
        }
        self.chunks_used = 0;
        self.head = [NO_CHUNK; 256];
        self.tail = [NO_CHUNK; 256];
        self.chunks = [0; 256];
        self.cursor = [0; 256];
        self.end = [0; 256];
        self.staged = 0;
        self.pushed = 0;
    }

    /// Add one record to the current task.
    #[inline(always)]
    pub fn push(&mut self, item: T) {
        self.stage[self.staged] = item;
        self.staged += 1;
        if self.staged == STAGE_LEN {
            self.scatter();
        }
    }

    /// Scatter what is still staged; call once, after the last push.
    pub fn finish(&mut self) {
        self.scatter();
    }

    /// Move the staged records to their buckets, in push order.
    fn scatter(&mut self) {
        let digit = self.digit;
        // Out of `self` for the loop, so that `grow` can borrow the rest mutably.
        let stage = std::mem::take(&mut self.stage);
        for item in &stage[..self.staged] {
            let bucket = usize::from(digit.of(item));
            let mut at = self.cursor[bucket];
            if at == self.end[bucket] {
                at = self.grow(bucket);
            }
            self.pool[at as usize] = *item;
            self.cursor[bucket] = at + 1;
        }
        self.stage = stage;
        self.pushed += self.staged;
        self.staged = 0;
    }

    /// Append a fresh chunk to `bucket`; returns the pool index of its first record.
    #[cold]
    fn grow(&mut self, bucket: usize) -> u32 {
        assert!(
            self.chunks_used < self.chunk_cap,
            "bucket store overflow: more records pushed than the task announced"
        );
        let chunk = self.chunks_used as u32;
        self.chunks_used += 1;
        self.next[chunk as usize] = NO_CHUNK;
        match self.chunks[bucket] {
            0 => self.head[bucket] = chunk,
            _ => self.next[self.tail[bucket] as usize] = chunk,
        }
        self.tail[bucket] = chunk;
        self.chunks[bucket] += 1;
        // `begin` checked that the whole pool is addressable with `u32`.
        let start = chunk * self.chunk_len as u32;
        self.end[bucket] = start + self.chunk_len as u32;
        start
    }

    /// Records pushed since [`begin`](Self::begin) and scattered.
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Records held by `bucket`, from its chunk list.
    pub fn bucket_len(&self, bucket: usize) -> usize {
        let unfilled = (self.end[bucket] - self.cursor[bucket]) as usize;
        self.chunks[bucket] as usize * self.chunk_len - unfilled
    }

    /// Records held by all buckets together, from the chunk lists.
    pub fn len(&self) -> usize {
        (0..self.digit.buckets())
            .map(|bucket| self.bucket_len(bucket))
            .sum()
    }

    /// True when no bucket holds a record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replace the contents of `out` with the records of `bucket`, in push order.
    pub fn gather(&self, bucket: usize, out: &mut Vec<T>) {
        let len = self.bucket_len(bucket);
        out.clear();
        out.reserve(len);
        let mut chunk = self.head[bucket];
        for _ in 0..self.chunks[bucket] {
            let start = chunk as usize * self.chunk_len;
            let take = self.chunk_len.min(len - out.len());
            out.extend_from_slice(&self.pool[start..start + take]);
            chunk = self.next[chunk as usize];
        }
        assert_eq!(
            out.len(),
            len,
            "bucket {bucket}: chunk list and cursor disagree"
        );
    }

    /// Records the pool can hold without growing (for memory accounting and tests).
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
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

/// The parallel unit of the bucket phase and of the multiway merge: `jobs` (buckets, in
/// order) are cut into at most one run of about equal total `weight` per thread of the
/// caller's rayon budget — fewer when a share would weigh less than `min_run_weight`,
/// so a small input does not fan out over a wide budget — and every run is mapped
/// together with its own element of `lanes` — the thread's reusable buffers, created by
/// `new_lane` when there are fewer lanes than runs. Results come back in run order, so
/// concatenating them keeps bucket order. With one run this is a plain call of `f` on
/// all the jobs. (It lives here, not with its caller in stage 3, because this crate is
/// the one that runs on rayon.)
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

    /// Push `keys`, then check the store against a stable sort by bucket.
    fn check_store<T>(store: &mut BucketStore<T>, keys: &[T], key_bits: u32)
    where
        T: RadixKey + Default + PartialEq + std::fmt::Debug,
    {
        store.begin(keys.len(), key_bits);
        for &key in keys {
            store.push(key);
        }
        store.finish();
        assert_eq!(store.pushed(), keys.len());
        assert_eq!(store.len(), keys.len());
        assert_eq!(store.is_empty(), keys.is_empty());
        let digit = BucketDigit::top_bits::<T>(key_bits);
        let mut expected = keys.to_vec();
        expected.sort_by_key(|key| digit.of(key));
        let mut got = Vec::new();
        let mut bucket_buf = Vec::new();
        for bucket in 0..digit.buckets() {
            store.gather(bucket, &mut bucket_buf);
            assert_eq!(bucket_buf.len(), store.bucket_len(bucket));
            assert!(bucket_buf
                .iter()
                .all(|key| digit.of(key) as usize == bucket));
            got.extend_from_slice(&bucket_buf);
        }
        assert_eq!(got, expected, "{} keys of {key_bits} bits", keys.len());
    }

    #[test]
    fn gathers_every_bucket_in_push_order_across_reuse() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut store = BucketStore::<(u64, u32)>::new();
        // Growing and shrinking tasks through one store; sizes around the staging
        // length and the chunk length, and one large enough for chunks above 16.
        for n in [
            0,
            1,
            511,
            512,
            513,
            10_000,
            3,
            200_000,
            70_000,
            0,
            4096 * 16,
        ] {
            for key_bits in [1u32, 7, 8, 9, 42, 62, 64] {
                let keys: Vec<(u64, u32)> = (0..n)
                    .map(|i| (rng.gen::<u64>() >> (64 - key_bits), i as u32))
                    .collect();
                check_store(&mut store, &keys, key_bits);
            }
        }
    }

    #[test]
    fn skewed_and_single_bucket_tasks_fit_the_announced_pool() {
        let mut store = BucketStore::<u64>::new();
        check_store(&mut store, &vec![0u64; 100_000], 62);
        check_store(&mut store, &vec![(1u64 << 62) - 1; 100_000], 62);
        let mut rng = StdRng::seed_from_u64(32);
        let hot: Vec<u64> = (0..150_000)
            .map(|i| if i % 3 == 0 { rng.gen::<u64>() >> 2 } else { 7 })
            .collect();
        check_store(&mut store, &hot, 62);
    }

    #[test]
    fn digits_straddling_two_key_words_keep_key_order() {
        // 66..=70 key bits put part of the digit in each word of a 128-bit key.
        let mut rng = StdRng::seed_from_u64(33);
        let mut store = BucketStore::<u128>::new();
        for key_bits in [65u32, 66, 69, 70, 71, 72, 110, 128] {
            let keys: Vec<u128> = (0..20_000)
                .map(|_| rng.gen::<u128>() >> (128 - key_bits))
                .collect();
            check_store(&mut store, &keys, key_bits);
            let digit = BucketDigit::top_bits::<u128>(key_bits);
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
    fn chunk_slack_is_at_most_a_sixteenth_of_a_large_task() {
        let mut store = BucketStore::<u64>::new();
        for n in [100_000usize, 430_000, 4_200_000] {
            store.begin(n, 62);
            let slack = store.chunk_cap * store.chunk_len - n;
            assert!(slack <= n / 16 + store.chunk_len, "n = {n}: slack {slack}");
        }
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

    #[test]
    #[should_panic(expected = "bucket store overflow")]
    fn pushing_far_more_than_announced_panics_instead_of_overrunning() {
        let mut store = BucketStore::<u64>::new();
        store.begin(10, 62);
        for i in 0..1_000_000u64 {
            store.push(i << 40);
        }
        store.finish();
    }
}
