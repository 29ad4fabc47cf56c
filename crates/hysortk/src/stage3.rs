//! Stage 3: sort & count, one pass per task, straight from the receive buffer.
//!
//! The receive side of the exchange hands this module one borrowed byte segment per
//! source rank. Counting proceeds in three steps:
//!
//! 1. **Block index** ([`build_block_index`]) — one cheap pass over the validated
//!    block structure groups every payload view by task and sums the *exact* record
//!    totals from the block headers alone (supermer headers are walked, their packed
//!    bases are not decoded). No payload byte is touched.
//! 2. **Decode → partition → sort → count, per task** ([`count_task`], driven in
//!    parallel by [`count_blocks_parallel`]). A task never exists as one sorted array:
//!    * *decode-scatter* — the word-level wire decode
//!      ([`crate::wire::SupermerView::for_each_canonical_kmer`]) pushes every record
//!      into the worker's [`hysortk_sort::BucketStore`]: 256 chunked buckets on the top
//!      eight bits of the `2k`-bit key, fed through an L1 staging buffer, carved from
//!      one pool of `records + records / 16` entries that the worker reuses for all its
//!      tasks. The digit is known from `k`, so there is no varying-bits read and no
//!      histogram read. Heavy-hitter kmerlist entries go to a small side list, sorted
//!      once. One stream per task — tasks are the parallel unit of this phase.
//!    * *bucket-sort-count* — buckets ascend with the key, so in bucket order each one
//!      is gathered into a reused buffer of about [`IN_CACHE_BYTES`], sorted there by
//!      the kernel `params.sorter` names (RADULS with an equally small auxiliary
//!      buffer, or PARADIS in place — the only place the choice is consulted; a skewed
//!      bucket larger than the cache goes through the kernel's own out-of-cache
//!      recursion), and scanned while still in L2 by the streaming run merge
//!      ([`hysortk_sort::merge_runs_with_counts`]) against the bucket's slice of the
//!      kmerlist entries, which emits straight into the task's output and the
//!      histogram. With extensions on, the sorted bucket is appended to the task's
//!      record array and each retained k-mer keeps a *range* into it. Under a thread
//!      budget above one (`threads_per_worker`), consecutive buckets are cut into one
//!      run of about equal record count per thread, each with its own buffers, and the
//!      runs' outputs are concatenated in bucket order.
//!
//!    Every task takes this one path, whatever its size (chunks shrink with the task,
//!    down to 16 records). A record is written once and read once, and nothing of a
//!    task's size exists beside the pool. The totals the block index read from the
//!    headers size the pool, so they are hard-checked: every pool write is
//!    bounds-checked, and the decoded total and the kmerlist total are compared with
//!    the slot's — a mismatch is a [`WireError::CountMismatch`] naming the task instead
//!    of a short count — as is, by `assert!`, the total the chunk lists hold.
//! 3. **Assemble** ([`assemble_tasks`]) — every task's output is a sorted run, and tasks
//!    hold disjoint k-mer *sets* (a task is a hash of the minimizer), not key ranges, so
//!    the runs are merged: [`hysortk_sort::multiway_merge`] cuts every run at the
//!    boundaries of the top-bits digit — the range-disjoint cut — and merges each piece
//!    in cache, straight into its slice of the result, in parallel under the caller's
//!    thread budget. The pipeline does **not** do this for a run without extensions:
//!    ranks ship their runs unmerged and the runs themselves are the result
//!    ([`crate::KmerRuns`], whose `sorted_vec()` is this merge for a caller that wants
//!    the array). Only an extension run is assembled — once, at the root, over the task
//!    runs of every rank: `(k-mer, count, task, index)` items go through the same
//!    merge and the extension lists, parallel to the merged table, are materialised
//!    from the tasks' sorted record arrays in one pass. [`merge_task_counts`] is the
//!    same call over one rank's tasks. Histograms and work counters merge once per
//!    worker scratch, not once per task.
//!
//! [`count_blocks_reference`] keeps the original sequential implementation
//! (`BTreeMap` decode, whole-task sort, per-k-mer extension vectors) as the
//! property-test reference: both paths must produce byte-identical results.

use std::collections::BTreeMap;

use hysortk_dna::extension::Extension;
use hysortk_dna::kmer::KmerCode;
use hysortk_perfmodel::SortAlgorithm;
use hysortk_sort::{
    map_balanced_runs, merge_runs_with_counts, multiway_merge, paradis_sort_from, raduls_sort,
    raduls_sort_with_aux, BucketDigit, BucketStore, RadixKey, IN_CACHE_BYTES,
};
use hysortk_task::WorkerPool;
use hysortk_trace as trace;

use crate::result::KmerHistogram;
use crate::wire::{read_blocks, PayloadView, WireError};

/// Everything [`count_task`] needs to know about the run.
#[derive(Debug, Clone, Copy)]
pub struct CountParams {
    /// First meaningful radix level of the k-mer key (leading bytes above the 2k
    /// meaningful bits are constant zero and skipped).
    pub first_radix_level: usize,
    /// Which radix sorter the memory-aware selection picked.
    pub sorter: SortAlgorithm,
    /// Lowest multiplicity kept in the output.
    pub min_count: u64,
    /// Highest multiplicity kept in the output.
    pub max_count: u64,
    /// Whether extension (provenance) lists are produced.
    pub with_extension: bool,
}

impl CountParams {
    /// Build the parameters for k-mer width `K` at word size `k`.
    pub fn for_kmer<K: KmerCode>(
        k: usize,
        sorter: SortAlgorithm,
        min_count: u64,
        max_count: u64,
        with_extension: bool,
    ) -> Self {
        CountParams {
            first_radix_level: K::WORDS * 8 - K::num_bytes(k),
            sorter,
            min_count,
            max_count,
            with_extension,
        }
    }
}

/// One task's entry in the block index: its payload views (in source order) plus the
/// exact record totals read from the block headers.
#[derive(Debug, Clone)]
pub struct TaskSlot<'a, K: KmerCode> {
    /// Task id.
    pub task: u32,
    /// Exact number of `(k-mer, extension)` records the supermer and record blocks
    /// will decode to.
    pub records: usize,
    /// Exact number of pre-counted kmerlist entries (heavy-hitter blocks).
    pub precounted: usize,
    /// The task's payload views, borrowing the receive buffer.
    pub blocks: Vec<PayloadView<'a, K>>,
}

/// The per-task block index over one rank's receive segments.
#[derive(Debug, Clone)]
pub struct BlockIndex<'a, K: KmerCode> {
    /// One slot per task that received at least one block, in ascending task order.
    pub slots: Vec<TaskSlot<'a, K>>,
}

impl<K: KmerCode> BlockIndex<'_, K> {
    /// Total work per task (records + precounted entries), for LPT scheduling.
    pub fn task_sizes(&self) -> Vec<u64> {
        self.slots
            .iter()
            .map(|s| (s.records + s.precounted) as u64)
            .collect()
    }

    /// Exact k-mer *instances* each slot's blocks represent: decoded records plus the
    /// pre-counted multiplicities of kmerlist entries. Accumulate these into `totals`
    /// (round by round in the pipeline's round loop) and hand the map to
    /// [`verify_decoded_totals`] once the exchange is over.
    pub fn accumulate_instances(&self, totals: &mut BTreeMap<u32, u64>) {
        for slot in &self.slots {
            let mut n = slot.records as u64;
            for block in &slot.blocks {
                if let PayloadView::KmerList(view) = block {
                    n += view.iter().map(|(_, count)| count).sum::<u64>();
                }
            }
            *totals.entry(slot.task).or_insert(0) += n;
        }
    }
}

/// Cross-check the decoded per-task k-mer totals of one rank against the globally
/// allreduced task sizes for the tasks it owns. Structure and checksums validate each
/// *block*, but a segment cut at an exact block boundary (or dropped entirely) still
/// parses as a clean shorter stream — this end-of-exchange reconciliation is what
/// turns that silent loss into a typed [`WireError::CountMismatch`].
pub fn verify_decoded_totals(
    decoded: &BTreeMap<u32, u64>,
    owned_tasks: &[usize],
    global_sizes: &[u64],
) -> Result<(), WireError> {
    for &task in owned_tasks {
        let expected = global_sizes.get(task).copied().unwrap_or(0);
        let got = decoded.get(&(task as u32)).copied().unwrap_or(0);
        if got != expected {
            return Err(WireError::CountMismatch {
                task: task as u32,
                expected,
                got,
            });
        }
    }
    Ok(())
}

/// Incremental builder of a [`BlockIndex`]: segments are added one at a time (e.g.
/// round by round as the non-blocking exchange completes them), each extending the
/// per-task slots, and [`BlockIndexBuilder::finish`] closes the index. The pipeline's
/// round loop uses this to index batch *r−1*'s received segments while round *r* is in
/// flight; [`build_block_index`] is the one-shot wrapper over it, for whole receive
/// buffers (the benchmark replay, [`count_received_parallel`], tests).
#[derive(Debug)]
pub struct BlockIndexBuilder<'a, K: KmerCode> {
    by_task: BTreeMap<u32, TaskSlot<'a, K>>,
    provenance_required: bool,
}

impl<K: KmerCode> Default for BlockIndexBuilder<'_, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, K: KmerCode> BlockIndexBuilder<'a, K> {
    /// An empty builder.
    pub fn new() -> Self {
        BlockIndexBuilder {
            by_task: BTreeMap::new(),
            provenance_required: false,
        }
    }

    /// Index for a run that produces extension lists (`required`): a supermer block
    /// without provenance headers then fails [`add_segment`](Self::add_segment) with
    /// [`WireError::MissingProvenance`] instead of decoding to extensions of zeros.
    pub fn requiring_provenance(mut self, required: bool) -> Self {
        self.provenance_required = required;
        self
    }

    /// Add one source segment: validate its stream structure and checksums, group its
    /// payload views by task and extend the header-derived record totals. Returns the
    /// [`WireError`] naming the defect on a malformed stream (the builder must then be
    /// discarded).
    pub fn add_segment(&mut self, segment: &'a [u8], k: usize) -> Result<(), WireError> {
        for block in read_blocks::<K>(segment)? {
            if let PayloadView::Supermers(view) = &block.payload {
                if self.provenance_required && !view.has_provenance() {
                    return Err(WireError::MissingProvenance { task: block.task });
                }
            }
            let slot = self.by_task.entry(block.task).or_insert_with(|| TaskSlot {
                task: block.task,
                records: 0,
                precounted: 0,
                blocks: Vec::new(),
            });
            match &block.payload {
                PayloadView::Supermers(view) => slot.records += view.total_kmers(k),
                PayloadView::KmerList(view) => slot.precounted += view.len(),
                PayloadView::Records(view) => slot.records += view.len(),
            }
            slot.blocks.push(block.payload);
        }
        Ok(())
    }

    /// Close the index: one slot per task seen, in ascending task order.
    pub fn finish(self) -> BlockIndex<'a, K> {
        BlockIndex {
            slots: self.by_task.into_values().collect(),
        }
    }
}

/// Build the per-task block index from one byte segment per source rank: validate the
/// stream structure, group the payload views by task and sum the exact record totals
/// from the headers. Returns the [`WireError`] naming the defect on a malformed stream.
pub fn build_block_index<'a, K, I>(segments: I, k: usize) -> Result<BlockIndex<'a, K>, WireError>
where
    K: KmerCode,
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut builder = BlockIndexBuilder::new();
    for segment in segments {
        builder.add_segment(segment, k)?;
    }
    Ok(builder.finish())
}

/// Per-worker reusable state: the bucket pool and the per-thread bucket buffers (one
/// set per record type — only the one the run uses ever allocates), the kmerlist
/// staging buffer, the histogram and the work counters. One scratch lives per worker
/// thread for the whole stage, so a worker maps its buffers once and then counts every
/// one of its tasks without allocating beyond the retained output — and histograms
/// merge once per worker, not once per task.
#[derive(Debug)]
pub struct CountScratch<K: KmerCode> {
    /// Buffers of the no-extension path (bare keys).
    keys: TaskBuffers<K>,
    /// Buffers of the provenance path.
    tagged: TaskBuffers<(K, Extension)>,
    /// Reusable staging for the task's pre-counted kmerlist entries.
    pre: Vec<(K, u64)>,
    /// Multiplicity histogram over every distinct k-mer this worker counted.
    pub histogram: KmerHistogram,
    /// Records decoded from supermer/record blocks.
    pub received_records: u64,
    /// Kmerlist entries decoded from heavy-hitter blocks.
    pub precounted_records: u64,
}

impl<K: KmerCode> CountScratch<K> {
    /// Create a scratch whose histogram caps at `max_count` (same bucket layout the
    /// sequential reference uses).
    pub fn new(max_count: u64) -> Self {
        CountScratch {
            keys: TaskBuffers::default(),
            tagged: TaskBuffers::default(),
            pre: Vec::new(),
            histogram: KmerHistogram::new(max_count as usize + 2),
            received_records: 0,
            precounted_records: 0,
        }
    }
}

/// What counting tasks of record type `T` reuses: the task-sized pool, and one
/// [`Lane`] per thread of the bucket phase.
#[derive(Debug)]
struct TaskBuffers<T> {
    store: BucketStore<T>,
    lanes: Vec<Lane<T>>,
}

impl<T: RadixKey + Default> Default for TaskBuffers<T> {
    fn default() -> Self {
        TaskBuffers {
            store: BucketStore::new(),
            lanes: Vec::new(),
        }
    }
}

/// One thread's cache-resident working set: the bucket being sorted and counted, the
/// RADULS ping-pong buffer of the same size, and the histogram of what it emitted
/// (folded into the scratch's when the task ends).
#[derive(Debug)]
struct Lane<T> {
    bucket: Vec<T>,
    aux: Vec<T>,
    histogram: KmerHistogram,
}

impl<T> Lane<T> {
    /// An empty lane whose histogram has the bucket layout of `like`.
    fn new(like: &KmerHistogram) -> Self {
        Lane {
            bucket: Vec::new(),
            aux: Vec::new(),
            histogram: KmerHistogram::new(like.buckets().len()),
        }
    }
}

/// A record of the task being counted: a bare k-mer, or a k-mer with its provenance.
/// [`count_records`] is the one driver; this is everything it needs to know about the
/// difference.
trait Record<K: KmerCode>: RadixKey + Default {
    /// Whether the sorted records are part of the output (extension ranges).
    const TAGGED: bool;
    fn new(kmer: K, ext: Extension) -> Self;
    fn kmer(&self) -> K;
    /// Order one run of equal k-mers by extension (no-op without extensions).
    fn sort_run(run: &mut [Self]);
    /// This record type's buffers in the scratch.
    fn buffers<'s>(
        keys: &'s mut TaskBuffers<K>,
        tagged: &'s mut TaskBuffers<(K, Extension)>,
    ) -> &'s mut TaskBuffers<Self>;
}

impl<K: KmerCode> Record<K> for K {
    const TAGGED: bool = false;
    #[inline(always)]
    fn new(kmer: K, _: Extension) -> Self {
        kmer
    }
    #[inline(always)]
    fn kmer(&self) -> K {
        *self
    }
    fn sort_run(_: &mut [Self]) {}
    fn buffers<'s>(
        keys: &'s mut TaskBuffers<K>,
        _: &'s mut TaskBuffers<(K, Extension)>,
    ) -> &'s mut TaskBuffers<Self> {
        keys
    }
}

impl<K: KmerCode> Record<K> for (K, Extension) {
    const TAGGED: bool = true;
    #[inline(always)]
    fn new(kmer: K, ext: Extension) -> Self {
        (kmer, ext)
    }
    #[inline(always)]
    fn kmer(&self) -> K {
        self.0
    }
    fn sort_run(run: &mut [Self]) {
        run.sort_unstable_by_key(|&(_, ext)| ext);
    }
    fn buffers<'s>(
        _: &'s mut TaskBuffers<K>,
        tagged: &'s mut TaskBuffers<(K, Extension)>,
    ) -> &'s mut TaskBuffers<Self> {
        tagged
    }
}

/// Extension output of one task: provenance as ranges into the task's sorted record
/// array instead of one vector per k-mer.
#[derive(Debug, Clone)]
pub struct TaskExtensions<K: KmerCode> {
    /// The sorted records; within every retained run the extensions are sorted.
    pub records: Vec<(K, Extension)>,
    /// `(start, len)` into `records` for every retained k-mer, parallel to `counts`.
    pub ranges: Vec<(u32, u32)>,
}

impl<K: KmerCode> TaskExtensions<K> {
    /// The records of the `i`-th retained k-mer.
    pub fn records_of(&self, i: usize) -> &[(K, Extension)] {
        let (start, len) = self.ranges[i];
        &self.records[start as usize..][..len as usize]
    }
}

/// Output of counting one task.
#[derive(Debug, Clone)]
pub struct TaskCounts<K: KmerCode> {
    /// Retained `(k-mer, count)` pairs in ascending k-mer order.
    pub counts: Vec<(K, u64)>,
    /// Extension ranges, when the run was configured with extensions.
    pub ext: Option<TaskExtensions<K>>,
}

/// Decode, partition, sort and count one task — see the module docs. `rank` labels the
/// `decode-scatter` and `bucket-sort-count` spans (children of the caller's
/// `count-task` span). With `with_extension` off the records are bare k-mer keys —
/// half the bytes through the scatter and every sort pass.
///
/// Fails with [`WireError::CountMismatch`], naming the task, when the slot's
/// header-derived totals are not what its blocks decode to; the scratch stays usable.
pub fn count_task<K: KmerCode>(
    slot: &TaskSlot<'_, K>,
    k: usize,
    params: &CountParams,
    rank: u32,
    scratch: &mut CountScratch<K>,
) -> Result<TaskCounts<K>, WireError> {
    Ok(if params.with_extension {
        let out = count_records::<K, (K, Extension)>(slot, k, params, rank, scratch)?;
        TaskCounts {
            counts: out.counts,
            ext: Some(TaskExtensions {
                records: out.records,
                ranges: out.ranges,
            }),
        }
    } else {
        let out = count_records::<K, K>(slot, k, params, rank, scratch)?;
        TaskCounts {
            counts: out.counts,
            ext: None,
        }
    })
}

/// What one run of buckets emitted; runs concatenate in bucket order.
#[derive(Default)]
struct RunOutput<K, T> {
    counts: Vec<(K, u64)>,
    /// The sorted records ([`Record::TAGGED`] only) and, parallel to `counts`, each
    /// retained k-mer's `(start, len)` in them.
    records: Vec<T>,
    ranges: Vec<(u32, u32)>,
}

/// One bucket's worth of work for the bucket phase.
struct BucketJob {
    /// The store's bucket to gather.
    bucket: usize,
    records: usize,
    /// The bucket's slice of the sorted kmerlist entries.
    pre: std::ops::Range<usize>,
}

/// Feed the task's records to `push` and its kmerlist entries to `pre`; returns how many
/// records the blocks decode to. No more than `limit` of them are pushed — the caller
/// sized its buffer from that total — and a longer decode is counted to its end.
fn decode_blocks<K: KmerCode, T: Record<K>>(
    slot: &TaskSlot<'_, K>,
    k: usize,
    pre: &mut Vec<(K, u64)>,
    limit: usize,
    mut push: impl FnMut(T),
) -> usize {
    let mut decoded = 0usize;
    let mut sink = |record: T| {
        if decoded < limit {
            push(record);
        }
        decoded += 1;
    };
    for block in &slot.blocks {
        match block {
            PayloadView::Supermers(view) => {
                for sm in view.iter() {
                    let read_id = sm.read_id;
                    sm.for_each_canonical_kmer::<K>(k, |km, pos| {
                        sink(T::new(km, Extension::new(read_id, pos)));
                    });
                }
            }
            PayloadView::KmerList(view) => pre.extend(view.iter()),
            PayloadView::Records(view) => {
                // Malformed streams cannot reach here: structure and checksum were
                // verified when `read_blocks` built the index.
                let exts = if T::TAGGED {
                    view.decode_extensions()
                        .expect("validated by read_blocks checksum")
                } else {
                    None
                };
                match exts {
                    Some(exts) => view
                        .kmers()
                        .zip(exts)
                        .for_each(|(km, ext)| sink(T::new(km, ext))),
                    None => view
                        .kmers()
                        .for_each(|km| sink(T::new(km, Extension::default()))),
                }
            }
        }
    }
    decoded
}

/// The driver behind [`count_task`], generic over the record type.
fn count_records<K: KmerCode, T: Record<K>>(
    slot: &TaskSlot<'_, K>,
    k: usize,
    params: &CountParams,
    rank: u32,
    scratch: &mut CountScratch<K>,
) -> Result<RunOutput<K, T>, WireError> {
    let CountScratch {
        keys,
        tagged,
        pre,
        histogram,
        received_records,
        precounted_records,
    } = scratch;
    let TaskBuffers { store, lanes } = T::buffers(keys, tagged);
    let task = slot.task;
    let records = slot.records;
    // Extension ranges are u32 offsets into the task's record array; make the limit
    // explicit rather than silently wrapping on absurdly large tasks.
    assert!(
        !T::TAGGED || u32::try_from(records).is_ok(),
        "task {task} with {records} records exceeds the u32 extension-range limit"
    );
    let digit = BucketDigit::top_bits::<T>(2 * k as u32);

    // ---- decode-scatter ---------------------------------------------------------------
    pre.clear();
    pre.reserve(slot.precounted);
    let decoded = {
        let _span = trace::span!(
            "decode-scatter",
            trace::Detail::Task,
            rank,
            task = task,
            records = records,
        );
        store.begin(records, 2 * k as u32);
        let decoded = decode_blocks(slot, k, pre, records, |record| store.push(record));
        store.finish();
        decoded
    };
    // What the block headers announce against what the blocks decode to: records, then
    // kmerlist entries.
    for (expected, got) in [(records, decoded), (slot.precounted, pre.len())] {
        if expected != got {
            return Err(WireError::CountMismatch {
                task,
                expected: expected as u64,
                got: got as u64,
            });
        }
    }
    assert_eq!(
        (store.pushed(), store.len()),
        (records, records),
        "task {task}: records pushed to the bucket store, and held by its chunk lists"
    );
    *received_records += records as u64;
    *precounted_records += pre.len() as u64;
    // Kmerlists arrive per source; sort so the run merge can sum duplicates streamed.
    pre.sort_unstable();
    assert!(
        pre.last().is_none_or(|(km, _)| digit.holds(km)),
        "task {task}: a kmerlist k-mer is wider than 2k bits"
    );

    // ---- plan: the non-empty buckets ---------------------------------------------------
    let mut pre_end = 0;
    let jobs: Vec<BucketJob> = (0..digit.buckets())
        .filter_map(|bucket| {
            let pre_start = pre_end;
            pre_end += pre[pre_start..]
                .iter()
                .take_while(|(km, _)| usize::from(digit.of(km)) == bucket)
                .count();
            let records = store.bucket_len(bucket);
            (records + pre_end - pre_start > 0).then_some(BucketJob {
                bucket,
                records,
                pre: pre_start..pre_end,
            })
        })
        .collect();
    // `pre` is sorted and buckets ascend with the key, so the walk consumed all of it.
    assert_eq!(
        jobs.iter().map(|job| job.pre.len()).sum::<usize>(),
        pre.len(),
        "task {task}: kmerlist entries left over after the last bucket"
    );
    let _span = trace::span!(
        "bucket-sort-count",
        trace::Detail::Task,
        rank,
        task = task,
        records = records,
        buckets = jobs.len(),
        max_bucket = jobs.iter().map(|job| job.records).max().unwrap_or(0),
    );

    // ---- bucket-sort-count: one run of buckets per thread; at a budget of one, a loop ---
    let (store, pre, like) = (&*store, &pre[..], &*histogram);
    let outputs: Vec<RunOutput<K, T>> = map_balanced_runs(
        jobs,
        |job| job.records + job.pre.len(),
        0,
        lanes,
        || Lane::new(like),
        |run, lane| {
            let mut out = RunOutput::default();
            if T::TAGGED {
                out.records
                    .reserve_exact(run.iter().map(|job| job.records).sum());
            }
            for job in run {
                store.gather(job.bucket, &mut lane.bucket);
                assert_eq!(
                    lane.bucket.len(),
                    job.records,
                    "task {task}: records gathered for a bucket vs held by its chunk list"
                );
                match params.sorter {
                    SortAlgorithm::Raduls => raduls_sort_with_aux(&mut lane.bucket, &mut lane.aux),
                    _ => paradis_sort_from(&mut lane.bucket, params.first_radix_level),
                }
                assert!(
                    lane.bucket.last().is_none_or(|record| digit.holds(record)),
                    "task {task}: a decoded k-mer is wider than 2k bits"
                );
                count_sorted_bucket(
                    &mut lane.bucket,
                    &pre[job.pre],
                    params,
                    &mut lane.histogram,
                    &mut out,
                );
            }
            out
        },
    );
    for lane in lanes.iter_mut() {
        histogram.merge(&lane.histogram);
        lane.histogram.clear();
        // A skewed bucket grew the buffers past the cache; do not keep that.
        let cache_len = IN_CACHE_BYTES / std::mem::size_of::<T>();
        lane.bucket.clear();
        lane.bucket.shrink_to(cache_len);
        lane.aux.truncate(cache_len);
        lane.aux.shrink_to(cache_len);
    }

    let mut outputs = outputs.into_iter();
    let mut out = outputs.next().unwrap_or_default();
    for next in outputs {
        let base = out.records.len() as u32;
        out.counts.extend(next.counts);
        out.ranges
            .extend(next.ranges.iter().map(|&(start, len)| (base + start, len)));
        out.records.extend(next.records);
    }
    Ok(out)
}

/// Scan one sorted bucket against its slice of the kmerlist entries: every distinct
/// k-mer goes to the histogram, the retained ones to `out`. With extensions, each
/// retained run is ordered by extension (keys are equal within a run, so the bucket
/// stays sorted by k-mer) and the bucket is appended to the output records.
fn count_sorted_bucket<K: KmerCode, T: Record<K>>(
    bucket: &mut [T],
    pre: &[(K, u64)],
    params: &CountParams,
    histogram: &mut KmerHistogram,
    out: &mut RunOutput<K, T>,
) {
    let base = out.records.len();
    let first_range = out.ranges.len();
    merge_runs_with_counts(bucket, T::kmer, pre, |km, total, range| {
        histogram.record(total);
        if total >= params.min_count && total <= params.max_count {
            out.counts.push((km, total));
            if T::TAGGED {
                out.ranges
                    .push(((base + range.start) as u32, range.len() as u32));
            }
        }
    });
    if T::TAGGED {
        for &(start, len) in &out.ranges[first_range..] {
            T::sort_run(&mut bucket[start as usize - base..][..len as usize]);
        }
        out.records.extend_from_slice(bucket);
    }
}

/// The counted tasks of one rank, before the per-rank merge.
#[derive(Debug)]
pub struct Stage3Output<K: KmerCode> {
    /// Per-task outputs, in slot order.
    pub tasks: Vec<TaskCounts<K>>,
    /// Merged multiplicity histogram.
    pub histogram: KmerHistogram,
    /// Total records decoded from supermer/record blocks.
    pub received_records: u64,
    /// Total kmerlist entries decoded.
    pub precounted_records: u64,
}

impl<K: KmerCode> Stage3Output<K> {
    /// Assemble the stage output from per-task results and the worker scratches that
    /// produced them: histograms and work counters merge once per scratch, not once
    /// per task. The pipeline's round loop accumulates `tasks` round by round and
    /// drains its [`hysortk_task::ScratchBank`] once at the end;
    /// [`count_blocks_parallel`] assembles from its one pool call.
    pub fn assemble(
        tasks: Vec<TaskCounts<K>>,
        scratches: Vec<CountScratch<K>>,
        max_count: u64,
    ) -> Self {
        let mut histogram = KmerHistogram::new(max_count as usize + 2);
        let mut received_records = 0u64;
        let mut precounted_records = 0u64;
        for scratch in scratches {
            histogram.merge(&scratch.histogram);
            received_records += scratch.received_records;
            precounted_records += scratch.precounted_records;
        }
        Stage3Output {
            tasks,
            histogram,
            received_records,
            precounted_records,
        }
    }
}

/// Count every task of the block index on the worker pool: tasks are independent work
/// items, so decode of one task overlaps sort+count of another, and each worker thread
/// reuses one [`CountScratch`] (bucket pool, bucket buffers, kmerlist staging,
/// histogram) across all its tasks.
///
/// Not a product path: the pipeline's round loop (`crate::overlap`) runs [`count_task`]
/// in its own job lists and returns a slot whose header-derived totals are not what
/// its blocks decode to as [`WireError::CountMismatch`]. This wrapper serves the frozen
/// benchmark harness's layer replay (which pins its signature),
/// [`count_received_parallel`] and the tests, and **panics**, naming the task, on such
/// a slot.
pub fn count_blocks_parallel<K: KmerCode>(
    index: &BlockIndex<'_, K>,
    k: usize,
    params: &CountParams,
    pool: &WorkerPool,
) -> Stage3Output<K> {
    let work: Vec<&TaskSlot<'_, K>> = index.slots.iter().collect();
    let rank = pool.rank();
    let (tasks, scratches) = pool.execute_with_scratch(
        work,
        || CountScratch::new(params.max_count),
        |scratch, slot| {
            let _span = trace::span!(
                "count-task",
                trace::Detail::Task,
                rank,
                task = slot.task,
                records = slot.records,
            );
            count_task(slot, k, params, rank, scratch).unwrap_or_else(|e| panic!("{e}"))
        },
    );
    Stage3Output::assemble(tasks, scratches, params.max_count)
}

/// One rank's merged stage-3 result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankCounts<K: KmerCode> {
    /// Retained `(k-mer, count)` pairs in ascending k-mer order.
    pub counts: Vec<(K, u64)>,
    /// Extension lists parallel to `counts`, when configured.
    pub extensions: Option<Vec<Vec<Extension>>>,
    /// Multiplicity histogram over all distinct k-mers.
    pub histogram: KmerHistogram,
    /// Records decoded from supermer/record blocks.
    pub received_records: u64,
    /// Kmerlist entries decoded.
    pub precounted_records: u64,
}

/// Assemble sorted task runs into the one ascending table of retained k-mers and, with
/// `with_extension`, the extension lists parallel to it. `tasks` may come from any
/// number of ranks: a k-mer is counted by exactly one task of the run. The merge is
/// [`hysortk_sort::multiway_merge`], parallel under the caller's rayon budget; with
/// extensions it moves `(k-mer, (count, task, index))` items, and one pass then copies
/// each k-mer's extensions out of its task's sorted record array (a task that carries
/// none contributes empty lists).
#[allow(clippy::type_complexity)]
pub fn assemble_tasks<K: KmerCode>(
    tasks: &[TaskCounts<K>],
    with_extension: bool,
) -> (Vec<(K, u64)>, Option<Vec<Vec<Extension>>>) {
    if !with_extension {
        let runs: Vec<&[(K, u64)]> = tasks.iter().map(|t| &t.counts[..]).collect();
        return (multiway_merge(&runs), None);
    }
    let items: Vec<Vec<(K, (u64, u32, u32))>> = (tasks.iter().enumerate())
        .map(|(ti, t)| {
            assert!(
                u32::try_from(t.counts.len().max(tasks.len())).is_ok(),
                "more tasks, or k-mers in a task, than the u32 merge items can index"
            );
            (t.counts.iter().enumerate())
                .map(|(ci, &(km, c))| (km, (c, ti as u32, ci as u32)))
                .collect()
        })
        .collect();
    let runs: Vec<&[(K, (u64, u32, u32))]> = items.iter().map(Vec::as_slice).collect();
    let merged = multiway_merge(&runs);
    let mut counts = Vec::with_capacity(merged.len());
    let mut extensions = Vec::with_capacity(merged.len());
    for (km, (c, ti, ci)) in merged {
        counts.push((km, c));
        extensions.push(match &tasks[ti as usize].ext {
            Some(ext) => (ext.records_of(ci as usize).iter())
                .map(|&(_, e)| e)
                .collect(),
            None => Vec::new(),
        });
    }
    (counts, Some(extensions))
}

/// Merge the per-task outputs of one rank: [`assemble_tasks`] over its tasks.
pub fn merge_task_counts<K: KmerCode>(out: Stage3Output<K>, params: &CountParams) -> RankCounts<K> {
    let (counts, extensions) = assemble_tasks(&out.tasks, params.with_extension);
    RankCounts {
        counts,
        extensions,
        histogram: out.histogram,
        received_records: out.received_records,
        precounted_records: out.precounted_records,
    }
}

/// Run the full parallel stage 3 on one rank's receive segments: index, fused
/// parallel decode+sort+count, merge.
pub fn count_received_parallel<'a, K, I>(
    segments: I,
    k: usize,
    params: &CountParams,
    pool: &WorkerPool,
) -> Result<(RankCounts<K>, Vec<u64>), WireError>
where
    K: KmerCode,
    I: IntoIterator<Item = &'a [u8]>,
{
    let index = build_block_index::<K, _>(segments, k)?;
    let task_sizes = index.task_sizes();
    let out = count_blocks_parallel(&index, k, params, pool);
    Ok((merge_task_counts(out, params), task_sizes))
}

/// The original sequential stage 3, kept as the correctness reference: decode
/// every block into per-task `BTreeMap` entries (with `entry().extend` growth and an
/// O(k)-per-k-mer canonical rebuild), sort and scan each task into a
/// `(k-mer, count, Vec<Extension>)` vector, merge the kmerlist contributions through
/// intermediate vectors, and merge the rank output through an index permutation. Slow
/// by design — the property tests assert the parallel path is byte-identical to this.
pub fn count_blocks_reference<'a, K, I>(
    segments: I,
    k: usize,
    params: &CountParams,
) -> Result<RankCounts<K>, WireError>
where
    K: KmerCode,
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut task_records: BTreeMap<u32, Vec<(K, Extension)>> = BTreeMap::new();
    let mut task_precounted: BTreeMap<u32, Vec<(K, u64)>> = BTreeMap::new();
    for segment in segments {
        for block in read_blocks::<K>(segment)? {
            match block.payload {
                PayloadView::Supermers(view) => {
                    let entry = task_records.entry(block.task).or_default();
                    for sm in view.iter() {
                        // The naive decode: the supermer materialised base by base,
                        // its k-mers canonicalised with an O(k) reverse complement each.
                        let kmers = sm.to_supermer(block.task).canonical_kmers_with_pos(k);
                        let with_read = |(km, pos)| (km, Extension::new(sm.read_id, pos));
                        entry.extend(kmers.into_iter().map(with_read));
                    }
                }
                PayloadView::KmerList(view) => {
                    task_precounted
                        .entry(block.task)
                        .or_default()
                        .extend(view.iter());
                }
                PayloadView::Records(view) => {
                    let entry = task_records.entry(block.task).or_default();
                    match view.decode_extensions()? {
                        Some(exts) => entry.extend(view.kmers().zip(exts)),
                        None => entry.extend(view.kmers().map(|km| (km, Extension::default()))),
                    }
                }
            }
        }
    }

    let mut task_ids: Vec<u32> = task_records
        .keys()
        .copied()
        .chain(task_precounted.keys().copied())
        .collect();
    task_ids.sort_unstable();
    task_ids.dedup();

    let mut received_records = 0u64;
    let mut precounted_records = 0u64;
    let mut histogram = KmerHistogram::new(params.max_count as usize + 2);
    let mut counts: Vec<(K, u64)> = Vec::new();
    let mut extensions: Option<Vec<Vec<Extension>>> = if params.with_extension {
        Some(Vec::new())
    } else {
        None
    };
    for t in &task_ids {
        let records = task_records.remove(t).unwrap_or_default();
        let pre = task_precounted.remove(t).unwrap_or_default();
        received_records += records.len() as u64;
        precounted_records += pre.len() as u64;
        let (task_counts, task_exts, task_hist) = reference_count_one_task(records, pre, params);
        counts.extend(task_counts);
        if let (Some(all), Some(mine)) = (extensions.as_mut(), task_exts) {
            all.extend(mine);
        }
        histogram.merge(&task_hist);
    }

    // Index-permutation merge, as the original pipeline did it.
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|&a, &b| counts[a].0.cmp(&counts[b].0));
    let counts: Vec<(K, u64)> = order.iter().map(|&i| counts[i]).collect();
    let extensions = extensions.map(|ext| order.iter().map(|&i| ext[i].clone()).collect());

    Ok(RankCounts {
        counts,
        extensions,
        histogram,
        received_records,
        precounted_records,
    })
}

/// The original `count_one_task` body (sort, per-k-mer extension vectors, two-vector
/// kmerlist merge), preserved for the reference path.
#[allow(clippy::type_complexity)]
fn reference_count_one_task<K: KmerCode>(
    mut records: Vec<(K, Extension)>,
    mut pre: Vec<(K, u64)>,
    params: &CountParams,
) -> (Vec<(K, u64)>, Option<Vec<Vec<Extension>>>, KmerHistogram) {
    match params.sorter {
        SortAlgorithm::Raduls => raduls_sort(&mut records),
        _ => paradis_sort_from(&mut records, params.first_radix_level),
    }
    let mut counted: Vec<(K, u64, Vec<Extension>)> = Vec::new();
    hysortk_sort::for_each_sorted_run(
        &records,
        |(km, _)| *km,
        |range| {
            let km = records[range.start].0;
            let exts: Vec<Extension> = if params.with_extension {
                records[range.clone()].iter().map(|(_, e)| *e).collect()
            } else {
                Vec::new()
            };
            counted.push((km, range.len() as u64, exts));
        },
    );

    if !pre.is_empty() {
        pre.sort_by_key(|a| a.0);
        let mut merged_pre: Vec<(K, u64)> = Vec::with_capacity(pre.len());
        for (km, c) in pre {
            match merged_pre.last_mut() {
                Some((last, lc)) if *last == km => *lc += c,
                _ => merged_pre.push((km, c)),
            }
        }
        let mut result: Vec<(K, u64, Vec<Extension>)> =
            Vec::with_capacity(counted.len() + merged_pre.len());
        let mut i = 0;
        let mut j = 0;
        while i < counted.len() || j < merged_pre.len() {
            if j >= merged_pre.len() {
                result.push(std::mem::replace(
                    &mut counted[i],
                    (K::zero(), 0, Vec::new()),
                ));
                i += 1;
            } else if i >= counted.len() {
                result.push((merged_pre[j].0, merged_pre[j].1, Vec::new()));
                j += 1;
            } else {
                match counted[i].0.cmp(&merged_pre[j].0) {
                    std::cmp::Ordering::Less => {
                        result.push(std::mem::replace(
                            &mut counted[i],
                            (K::zero(), 0, Vec::new()),
                        ));
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        result.push((merged_pre[j].0, merged_pre[j].1, Vec::new()));
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        let (km, c, exts) =
                            std::mem::replace(&mut counted[i], (K::zero(), 0, Vec::new()));
                        result.push((km, c + merged_pre[j].1, exts));
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        counted = result;
    }

    let mut histogram = KmerHistogram::new(params.max_count as usize + 2);
    let mut counts = Vec::new();
    let mut extensions = if params.with_extension {
        Some(Vec::new())
    } else {
        None
    };
    for (km, c, exts) in counted {
        histogram.record(c);
        if c >= params.min_count && c <= params.max_count {
            counts.push((km, c));
            if let Some(all) = extensions.as_mut() {
                let mut exts = exts;
                exts.sort();
                all.push(exts);
            }
        }
    }
    (counts, extensions, histogram)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{write_block, SupermerBlockWriter, TaskPayload};
    use hysortk_dna::kmer::{Kmer1, Kmer2};
    use hysortk_dna::readset::Read;
    use hysortk_dna::sequence::DnaSeq;
    use hysortk_sort::count_sorted_runs;
    use hysortk_supermer::mmer::{MmerScorer, ScoreFunction};
    use hysortk_supermer::supermer::build_supermers;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params(with_extension: bool) -> CountParams {
        CountParams::for_kmer::<Kmer1>(15, SortAlgorithm::Raduls, 1, 1_000_000, with_extension)
    }

    /// Every slot of the index through one scratch, one after another, on this thread.
    fn count_blocks_sequential<K: KmerCode>(
        index: &BlockIndex<'_, K>,
        k: usize,
        params: &CountParams,
    ) -> Stage3Output<K> {
        let mut scratch = CountScratch::new(params.max_count);
        let tasks = (index.slots.iter())
            .map(|slot| count_task(slot, k, params, 0, &mut scratch).expect("consistent slot"))
            .collect();
        Stage3Output::assemble(tasks, vec![scratch], params.max_count)
    }

    /// Two source segments with supermer blocks partitioned by minimizer target, one
    /// kmerlist-only task and one structurally empty supermer block.
    fn sample_segments(tasks: u32) -> Vec<Vec<u8>> {
        let k = 15;
        let scorer = MmerScorer::new(7, ScoreFunction::Hash { seed: 3 });
        let reads = [
            Read::from_ascii(0, "a", b"ACGTTGCAACGTGGGTTTAAACCCTAGCATACGTACGGTACCATGG"),
            Read::from_ascii(1, "b", b"TTACGATCGATCGAATTCCGGACGTTGCAACGTGGGTTTAAACCCT"),
        ];
        let mut segments = vec![Vec::new(), Vec::new()];
        for (src, read) in reads.iter().enumerate() {
            let mut per_task: Vec<Vec<hysortk_supermer::supermer::Supermer>> =
                vec![Vec::new(); tasks as usize];
            for sm in build_supermers(read, k, &scorer, tasks) {
                per_task[sm.target as usize].push(sm);
            }
            for (t, sms) in per_task.into_iter().enumerate() {
                if !sms.is_empty() {
                    write_block::<Kmer1>(
                        &mut segments[src],
                        t as u32,
                        &TaskPayload::Supermers(sms),
                    );
                }
            }
        }
        // A kmerlist-only task beyond the supermer targets, contributed by both sources.
        let mut heavy: Vec<Kmer1> = (0..40u32)
            .map(|i| {
                let s: Vec<u8> = (0..15)
                    .map(|j| b"ACGT"[((i / 4 + j) % 4) as usize])
                    .collect();
                Kmer1::from_ascii(&s).canonical(15)
            })
            .collect();
        heavy.sort_unstable();
        let list = count_sorted_runs(&heavy, |km| *km);
        write_block(
            &mut segments[0],
            tasks,
            &TaskPayload::KmerList(list.clone()),
        );
        write_block(&mut segments[1], tasks, &TaskPayload::KmerList(list));
        // A structurally empty supermer block (zero supermers) on another task.
        let _ = SupermerBlockWriter::new(&mut segments[1], tasks + 1, 0);
        segments
    }

    #[test]
    fn block_index_totals_match_decoded_totals() {
        let segments = sample_segments(4);
        let index = build_block_index::<Kmer1, _>(segments.iter().map(Vec::as_slice), 15).unwrap();
        assert!(!index.slots.is_empty());
        let p = params(false);
        for slot in &index.slots {
            let mut scratch = CountScratch::new(p.max_count);
            let before = (scratch.received_records, scratch.precounted_records);
            count_task(slot, 15, &p, 0, &mut scratch).unwrap();
            assert_eq!(
                scratch.received_records - before.0,
                slot.records as u64,
                "task {}",
                slot.task
            );
            assert_eq!(
                scratch.precounted_records - before.1,
                slot.precounted as u64,
                "task {}",
                slot.task
            );
        }
        // The empty supermer block produced a slot with zero records.
        assert!(index
            .slots
            .iter()
            .any(|s| s.records == 0 && s.precounted == 0));
    }

    #[test]
    fn incremental_builder_matches_one_shot_index_and_counts() {
        // Feeding the segments one at a time through the builder (as the overlapped
        // pipeline does round by round) must index and count exactly like the one-shot
        // build over all segments.
        let segments = sample_segments(4);
        let k = 15;
        let p = params(false);

        let one_shot =
            build_block_index::<Kmer1, _>(segments.iter().map(Vec::as_slice), k).unwrap();
        let mut builder = BlockIndexBuilder::<Kmer1>::new();
        for segment in &segments {
            builder.add_segment(segment, k).unwrap();
        }
        let incremental = builder.finish();

        assert_eq!(incremental.slots.len(), one_shot.slots.len());
        assert_eq!(incremental.task_sizes(), one_shot.task_sizes());
        let count = |index: &BlockIndex<'_, Kmer1>| {
            merge_task_counts(count_blocks_sequential(index, k, &p), &p)
        };
        assert_eq!(count(&incremental), count(&one_shot));

        // A malformed segment poisons the builder.
        let mut builder = BlockIndexBuilder::<Kmer1>::new();
        assert!(builder.add_segment(&[9, 9, 9], k).is_err());
    }

    #[test]
    fn parallel_and_sequential_match_the_reference() {
        let segments = sample_segments(4);
        let k = 15;
        for with_ext in [false, true] {
            let p = params(with_ext);
            let reference =
                count_blocks_reference::<Kmer1, _>(segments.iter().map(Vec::as_slice), k, &p)
                    .unwrap();
            let index =
                build_block_index::<Kmer1, _>(segments.iter().map(Vec::as_slice), k).unwrap();
            let sequential = merge_task_counts(count_blocks_sequential(&index, k, &p), &p);
            let pool = WorkerPool::new(2, 1);
            let (parallel, sizes) = count_received_parallel::<Kmer1, _>(
                segments.iter().map(Vec::as_slice),
                k,
                &p,
                &pool,
            )
            .unwrap();
            assert_eq!(
                sequential, reference,
                "sequential vs reference, ext={with_ext}"
            );
            assert_eq!(parallel, reference, "parallel vs reference, ext={with_ext}");
            assert_eq!(sizes.len(), index.slots.len());
            assert!(reference.received_records > 0);
            assert!(reference.precounted_records > 0);
        }
    }

    #[test]
    fn malformed_segments_are_rejected() {
        let bad: &[&[u8]] = &[&[9, 9, 9]];
        assert!(build_block_index::<Kmer1, _>(bad.iter().copied(), 15).is_err());
        let p = params(false);
        assert!(count_blocks_reference::<Kmer1, _>(bad.iter().copied(), 15, &p).is_err());
    }

    #[test]
    fn a_bare_supermer_block_in_an_extension_run_is_a_typed_error_naming_the_task() {
        // One supermer of 20 bases, by hand: the length byte, then five bytes of bases.
        let body = [20u8, 0x1b, 0xe4, 0x39, 0x93, 0x6c];
        let mut segment = Vec::new();
        crate::wire::write_supermer_block(&mut segment, 7, false, 1, &body);

        let mut plain = BlockIndexBuilder::<Kmer1>::new().requiring_provenance(false);
        plain.add_segment(&segment, 15).unwrap();
        let slot = &plain.finish().slots[0];
        assert_eq!((slot.task, slot.records), (7, 6));

        let mut with_extension = BlockIndexBuilder::<Kmer1>::new().requiring_provenance(true);
        assert_eq!(
            with_extension.add_segment(&segment, 15),
            Err(WireError::MissingProvenance { task: 7 })
        );
    }

    #[test]
    fn empty_segments_produce_empty_output() {
        let segments: Vec<&[u8]> = vec![&[], &[]];
        let p = params(false);
        let index = build_block_index::<Kmer1, _>(segments.iter().copied(), 15).unwrap();
        assert!(index.slots.is_empty());
        let out = count_blocks_sequential(&index, 15, &p);
        let merged = merge_task_counts(out, &p);
        assert!(merged.counts.is_empty());
        assert_eq!(merged.histogram.distinct(), 0);
    }

    #[test]
    fn count_filter_band_is_applied() {
        // One task, one record block with a k-mer appearing 3 times and one appearing
        // once; min_count = 2 must retain only the former, while the histogram sees
        // both.
        let km3 = Kmer1::from_ascii(b"ACGTACGTACGTACG");
        let km1 = Kmer1::from_ascii(b"TTTTGGGGCCCCAAA");
        let mut seg = Vec::new();
        write_block(
            &mut seg,
            0,
            &TaskPayload::Records(vec![km3, km1, km3, km3], None),
        );
        let mut p = params(false);
        p.min_count = 2;
        p.max_count = 50;
        let segments: Vec<&[u8]> = vec![&seg];
        let index = build_block_index::<Kmer1, _>(segments.iter().copied(), 15).unwrap();
        let merged = merge_task_counts(count_blocks_sequential(&index, 15, &p), &p);
        assert_eq!(merged.counts, vec![(km3, 3)]);
        assert_eq!(merged.histogram.distinct(), 2);
        assert_eq!(merged.histogram.get(1), 1);
        assert_eq!(merged.histogram.get(3), 1);
    }

    // ---- the one-pass driver against the reference ------------------------------------

    /// Appends blocks of one task to a segment. Keys come out of real supermers (so
    /// they are canonical k-mers of width `k`), out of records blocks and out of
    /// kmerlists; `hot` steers records into one bucket or one key.
    struct TaskBuilder<'a> {
        rng: &'a mut StdRng,
        k: usize,
    }

    impl TaskBuilder<'_> {
        fn random_seq(&mut self, len: usize) -> DnaSeq {
            let ascii: Vec<u8> = (0..len)
                .map(|_| b"ACGT"[self.rng.gen_range(0..4)])
                .collect();
            DnaSeq::from_ascii(&ascii)
        }

        /// A supermer block holding about `kmers` k-mers in supermers of mixed length,
        /// one of them shorter than `k` (it decodes to nothing).
        fn supermers(&mut self, out: &mut Vec<u8>, task: u32, kmers: usize) {
            let mut seqs = vec![self.random_seq(self.k - 1)];
            let mut have = 0;
            while have < kmers {
                let len = self.k + self.rng.gen_range(0..400).min(kmers - have - 1);
                have += len + 1 - self.k;
                seqs.push(self.random_seq(len));
            }
            let mut writer = SupermerBlockWriter::new(out, task, seqs.len() as u32);
            for (i, seq) in seqs.iter().enumerate() {
                writer.push(i as u32, 5 * i as u32, seq, 0, seq.len());
            }
        }

        /// `n` canonical k-mers drawn from a pool of `distinct`, all sharing the top
        /// `fixed_bases` bases (16 → one bucket of the top eight bits; `k` → one key).
        fn kmers<K: KmerCode>(&mut self, n: usize, distinct: usize, fixed_bases: usize) -> Vec<K> {
            let k = self.k;
            let pool: Vec<K> = (0..distinct)
                .map(|_| {
                    // A leading A-run keeps the forward strand the canonical one.
                    let codes: Vec<u8> = (0..k)
                        .map(|i| {
                            if i < fixed_bases {
                                0
                            } else {
                                self.rng.gen_range(0..4)
                            }
                        })
                        .collect();
                    K::from_codes(&codes).canonical(k)
                })
                .collect();
            (0..n)
                .map(|_| pool[self.rng.gen_range(0..pool.len())])
                .collect()
        }

        fn records<K: KmerCode>(&mut self, out: &mut Vec<u8>, task: u32, kmers: Vec<K>) {
            let exts = (0..kmers.len() as u32)
                .map(|i| Extension::new(self.rng.gen_range(0..50), i / 3))
                .collect();
            // Every other block ships without extensions (they default).
            let exts = self.rng.gen_bool(0.5).then_some(exts);
            write_block(out, task, &TaskPayload::Records(kmers, exts));
        }

        fn kmerlist<K: KmerCode>(&mut self, out: &mut Vec<u8>, task: u32, kmers: Vec<K>) {
            let list = (kmers.into_iter())
                .map(|km| (km, self.rng.gen_range(1..9u64)))
                .collect();
            write_block(out, task, &TaskPayload::KmerList(list));
        }
    }

    /// Tasks of every shape the driver distinguishes, in an order that makes one
    /// scratch's pool and buffers grow and shrink. `unit` is a record count just above
    /// what fits `IN_CACHE_BYTES` for bare keys of width `K`.
    fn shaped_segments<K: KmerCode>(seed: u64, k: usize) -> Vec<Vec<u8>> {
        let unit = IN_CACHE_BYTES / std::mem::size_of::<K>() + 1000;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = TaskBuilder { rng: &mut rng, k };
        let mut segments = vec![Vec::new(), Vec::new()];
        let [s0, s1] = &mut segments[..] else {
            unreachable!()
        };
        // 0: small, every block kind, from both sources — shortest chunks.
        b.supermers(s0, 0, 700);
        let small = b.kmers::<K>(300, 40, 0);
        b.records(s1, 0, small.clone());
        b.kmerlist(s1, 0, small[..50].to_vec());
        // 1: out of cache, every block kind; kmerlist keys both among and beside the
        //    decoded ones, duplicated across sources.
        b.supermers(s0, 1, unit);
        let shared = b.kmers::<K>(unit / 4, 2_000, 0);
        b.records(s1, 1, shared.clone());
        b.kmerlist(s0, 1, shared[..500].to_vec());
        b.kmerlist(s1, 1, shared[..500].to_vec());
        let beside = b.kmers::<K>(300, 300, 0);
        b.kmerlist(s1, 1, beside);
        // 2: poly-A and nothing else, out of cache — one key.
        let poly_a = b.kmers::<K>(unit, 1, k);
        b.records(s0, 2, poly_a);
        // 3: structurally empty.
        let _ = SupermerBlockWriter::new(s1, 3, 0);
        // 4: twice the size: one bucket alone is out of cache, the rest is spread.
        let one_bucket = b.kmers::<K>(unit, unit / 20, 16.min(k));
        b.records(s0, 4, one_bucket);
        b.supermers(s1, 4, unit);
        // 5: kmerlist only.
        let only = b.kmers::<K>(2_000, 500, 0);
        b.kmerlist(s0, 5, only);
        // 6: out of cache, records confined to the lowest buckets, kmerlist keys spread
        //    over all of them — most fall into buckets that hold no record.
        let low = b.kmers::<K>(unit, 5_000, 3.min(k));
        b.records(s1, 6, low);
        let spread = b.kmers::<K>(1_000, 1_000, 0);
        b.kmerlist(s0, 6, spread);
        // 7: small again, after the large ones.
        b.supermers(s1, 7, 2_000);
        segments
    }

    fn one_pass_matches_the_reference<K: KmerCode>(seed: u64, k: usize) {
        let segments = shaped_segments::<K>(seed, k);
        let segments = || segments.iter().map(Vec::as_slice);
        let index = build_block_index::<K, _>(segments(), k).unwrap();
        assert_eq!(index.slots.len(), 8);
        // A band that drops the singletons and (k-mers long enough to be rare) the poly-A
        // run, so retained ranges are a strict subset of the runs.
        let max_count = if k > 10 { 5_000 } else { 1 << 40 };
        for with_ext in [false, true] {
            let reference = {
                let p =
                    CountParams::for_kmer::<K>(k, SortAlgorithm::Raduls, 2, max_count, with_ext);
                count_blocks_reference::<K, _>(segments(), k, &p).unwrap()
            };
            let (retained, distinct) = (reference.counts.len(), reference.histogram.distinct());
            assert!(k < 10 || (1_000..distinct as usize).contains(&retained));
            for sorter in [SortAlgorithm::Raduls, SortAlgorithm::Paradis] {
                let p = CountParams::for_kmer::<K>(k, sorter, 2, max_count, with_ext);
                // One slot list, run on one thread under budgets of 1 and 3 threads:
                // the bucket phase is a plain loop, or three runs of buckets.
                for budget in [1usize, 3] {
                    let pool = WorkerPool::new(1, budget);
                    let counted = (pool.execute(vec![()], |()| {
                        merge_task_counts(count_blocks_sequential(&index, k, &p), &p)
                    }))
                    .pop()
                    .unwrap();
                    assert!(
                        counted == reference,
                        "k = {k}, extensions {with_ext}, {sorter:?}, budget {budget}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_pass_counting_matches_the_reference_on_one_word_kmers() {
        one_pass_matches_the_reference::<Kmer1>(41, 31);
        one_pass_matches_the_reference::<Kmer1>(42, 3);
    }

    #[test]
    fn one_pass_counting_matches_the_reference_on_two_word_kmers() {
        one_pass_matches_the_reference::<Kmer2>(43, 55);
        // 2k = 68: the bucket digit straddles the two key words.
        one_pass_matches_the_reference::<Kmer2>(44, 34);
    }

    #[test]
    fn scratch_holds_one_pool_and_cache_sized_buffers_only() {
        let k = 31;
        let mut rng = StdRng::seed_from_u64(45);
        let mut b = TaskBuilder { rng: &mut rng, k };
        let n = 300_000;
        let mut segment = Vec::new();
        b.supermers(&mut segment, 0, n);
        // A second task that is one key: its single bucket outgrows the cache.
        let poly_a = b.kmers::<Kmer1>(n, 1, k);
        b.records(&mut segment, 1, poly_a);
        b.supermers(&mut segment, 2, 1_000);
        let index = build_block_index::<Kmer1, _>([&segment[..]], k).unwrap();
        let p = CountParams::for_kmer::<Kmer1>(k, SortAlgorithm::Raduls, 1, 50, false);
        let mut scratch = CountScratch::new(p.max_count);
        let cache_len = IN_CACHE_BYTES / std::mem::size_of::<Kmer1>();
        for slot in &index.slots {
            count_task(slot, k, &p, 0, &mut scratch).unwrap();
            // No second task-sized array, whatever the task looked like: the pool is the
            // records plus a sixteenth, the per-thread buffers are cache-sized, and the
            // record type the run does not use allocated nothing.
            let pool = scratch.keys.store.pool_capacity();
            assert!(
                (n..=n + n / 16 + 16 * 257).contains(&pool),
                "pool of {pool}"
            );
            assert!(!scratch.keys.lanes.is_empty());
            for lane in &scratch.keys.lanes {
                assert!(lane.bucket.capacity() <= cache_len, "task {}", slot.task);
                assert!(lane.aux.capacity() <= cache_len, "task {}", slot.task);
            }
            assert_eq!(scratch.tagged.store.pool_capacity(), 0);
            assert!(scratch.tagged.lanes.is_empty());
        }
        assert_eq!(scratch.received_records, 2 * n as u64 + 1_000);
    }

    const MISMATCH_K: usize = 21;

    /// One segment holding task 7: a records block of `actual` k-mers and a kmerlist of
    /// ten entries.
    fn task_seven(actual: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(46);
        let mut b = TaskBuilder {
            rng: &mut rng,
            k: MISMATCH_K,
        };
        let mut segment = Vec::new();
        let kmers = b.kmers::<Kmer1>(actual, actual / 10, 0);
        write_block(&mut segment, 7, &TaskPayload::Records(kmers.clone(), None));
        b.kmerlist(&mut segment, 7, kmers[..10].to_vec());
        segment
    }

    /// The four ways a slot's header-derived totals can be at odds with its blocks:
    /// (records announced, kmerlist entries announced, records held).
    const MISMATCHES: [(usize, usize, usize); 4] = [
        (70_000, 10, 100_000),  // the pool is sized too small
        (100_001, 10, 100_000), // the decode comes up short
        (999, 10, 1_000),       // a small task decodes long
        (1_000, 11, 1_000),     // the kmerlist total
    ];

    /// A slot whose header-derived totals are not what its blocks hold must not count
    /// short or write past the pool: counting it is a `CountMismatch` naming the task and
    /// both totals, and the scratch it was counted in still counts the honest slot.
    #[test]
    fn header_totals_that_disagree_with_the_decode_are_a_count_mismatch() {
        let k = MISMATCH_K;
        let p = CountParams::for_kmer::<Kmer1>(k, SortAlgorithm::Raduls, 1, 50, false);
        let mut scratch = CountScratch::new(p.max_count);
        let expected_and_got = [
            (70_000, 100_000),
            (100_001, 100_000),
            (999, 1_000),
            (11, 10),
        ];
        for ((records, precounted, actual), (expected, got)) in
            MISMATCHES.into_iter().zip(expected_and_got)
        {
            let segment = task_seven(actual);
            let mut index = build_block_index::<Kmer1, _>([&segment[..]], k).unwrap();
            let honest = index.slots[0].clone();
            assert_eq!((honest.records, honest.precounted), (actual, 10));
            index.slots[0].records = records;
            index.slots[0].precounted = precounted;
            let counted = count_task(&index.slots[0], k, &p, 0, &mut scratch);
            assert_eq!(
                counted.err(),
                Some(WireError::CountMismatch {
                    task: 7,
                    expected,
                    got,
                })
            );
            let counted = count_task(&honest, k, &p, 0, &mut scratch).unwrap();
            let fresh = count_task(&honest, k, &p, 0, &mut CountScratch::new(p.max_count));
            assert_eq!(counted.counts, fresh.unwrap().counts);
        }
    }

    /// [`count_blocks_parallel`] — the wrapper the benchmark replay and the tests use,
    /// not the product — has no error path in its signature: there the same mismatches
    /// panic, naming the task.
    fn count_in_bulk_with_totals((records, precounted, actual): (usize, usize, usize)) {
        let k = MISMATCH_K;
        let segment = task_seven(actual);
        let mut index = build_block_index::<Kmer1, _>([&segment[..]], k).unwrap();
        index.slots[0].records = records;
        index.slots[0].precounted = precounted;
        let p = CountParams::for_kmer::<Kmer1>(k, SortAlgorithm::Raduls, 1, 50, false);
        count_blocks_parallel(&index, k, &p, &WorkerPool::new(1, 1));
    }

    #[test]
    #[should_panic(expected = "task 7 decoded to 100000 where 70000 were announced")]
    fn a_pool_sized_too_small_panics_with_the_task_id() {
        count_in_bulk_with_totals(MISMATCHES[0]);
    }

    #[test]
    #[should_panic(expected = "task 7 decoded to 100000 where 100001 were announced")]
    fn a_short_decode_panics_with_the_task_id() {
        count_in_bulk_with_totals(MISMATCHES[1]);
    }

    #[test]
    #[should_panic(expected = "task 7 decoded to 1000 where 999 were announced")]
    fn a_long_decode_of_a_small_task_panics_with_the_task_id() {
        count_in_bulk_with_totals(MISMATCHES[2]);
    }

    #[test]
    #[should_panic(expected = "task 7 decoded to 10 where 11 were announced")]
    fn a_kmerlist_total_mismatch_panics_with_the_task_id() {
        count_in_bulk_with_totals(MISMATCHES[3]);
    }

    #[test]
    fn the_model_charges_the_cache_buffers_stage_three_uses() {
        assert_eq!(
            hysortk_perfmodel::memory::STAGE3_CACHE_BUFFER_BYTES,
            IN_CACHE_BYTES as u64
        );
    }
}
