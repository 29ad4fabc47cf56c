//! Stage 3: sort & count, one section at a time, straight from the receive buffer.
//!
//! The receive side of the exchange hands this module one borrowed byte segment per
//! source rank. Counting proceeds in three steps:
//!
//! 1. **Block index** ([`build_block_index`]) — one cheap pass over the validated
//!    block structure groups every payload view by task and, within a task, by
//!    **section** — stage 1 cut every task into `S` sections by minimizer, and a
//!    block carries them behind a section directory (`crate::wire`) — and sums the
//!    *exact* record totals of every section from the block headers alone (supermer
//!    headers are walked, their packed bases are not decoded). No payload byte is
//!    touched. All blocks of a task must agree on `S`
//!    ([`WireError::SectionMismatch`]); kmerlist blocks are unsectioned, so a task
//!    that has any is one section.
//! 2. **Decode → sort → count, per section** ([`count_task`], driven in parallel by
//!    [`count_blocks_parallel`]). A task never exists as one array: its sections hold
//!    disjoint k-mer sets (a canonical k-mer's minimizer fixes its section), so each
//!    section is counted on its own, in cache, into a sorted run of its own. For every
//!    section of the task:
//!    * the word-level wire decode
//!      ([`crate::wire::SupermerView::for_each_canonical_kmer`]) writes the section's
//!      records, from every source block, into a reused lane buffer — or, on a
//!      bare-key lane that has seen the input duplicated, counts them in the lane's
//!      in-cache `(k-mer, count)` table (`crate::table`) and writes only the distinct
//!      keys. That lane first collapses the section's repeated supermers in a second,
//!      supermer-keyed table and decodes each distinct supermer once, adding its k-mers
//!      weighted by how often it arrived (`CountTable::add_supermers`); a supermer over
//!      64 bases is added k-mer by k-mer. A section past the k-mer table's fill bound
//!      is decoded again, record by record;
//!    * the kernel `params.sorter` names sorts the lane buffer there (RADULS with a
//!      reused auxiliary buffer, or PARADIS in place — the only place the choice is
//!      consulted). An average section holds about `SECTION_BYTES` (half of
//!      [`hysortk_sort::IN_CACHE_BYTES`]) of records, so the sort runs in L2;
//!    * the streaming run merge ([`hysortk_sort::merge_runs_with_counts`]) scans the
//!      sorted keys while they are still in cache — a hashed key's count read from the
//!      table, a record's from its run length; at section 0 of an unsectioned task
//!      against the task's heavy-hitter kmerlist entries, sorted once — and emits into
//!      the histogram and into the section's run, copied out exactly sized. With
//!      extensions on, the sorted records are kept with the run and each retained k-mer
//!      holds a *range* into them.
//!
//!    Sections are the parallel unit: under a thread budget above one
//!    (`threads_per_worker`), consecutive sections are cut into one run of about
//!    equal record count per thread, each with its own lane. Every task takes this one
//!    path, and an unsectioned task — every task of a small input — is one section, so
//!    the only buffers sized by records are the lanes, at the largest section seen. A
//!    section with nothing retained emits no run. The decoded total and the kmerlist
//!    total are compared with the slot's header-derived ones — a mismatch is a
//!    [`WireError::CountMismatch`] naming the task instead of a short count.
//! 3. **Assemble** ([`assemble_tasks`]) — every section's output is a sorted run, and
//!    runs hold disjoint k-mer *sets* (a task is a hash of the minimizer), not key ranges, so
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

use hysortk_dmem::Wire;
use hysortk_dna::extension::Extension;
use hysortk_dna::kmer::KmerCode;
use hysortk_perfmodel::SortAlgorithm;
use hysortk_sort::{
    map_balanced_runs, merge_runs_with_counts, multiway_merge, paradis_sort_from, raduls_sort,
    raduls_sort_with_aux, BucketDigit, RadixKey,
};
use hysortk_task::{ScratchBank, WorkerPool};
use hysortk_trace as trace;

use crate::result::KmerHistogram;
use crate::table::{CountTable, Duplication, SupermerTable};
use crate::wire::{read_blocks, KmerListView, PayloadView, SupermersView, WireError};

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

/// One task's entry in the block index: its supermers split by section, its kmerlists,
/// and the exact record totals read from the block headers.
#[derive(Debug, Clone)]
pub struct TaskSlot<'a, K: KmerCode> {
    /// Task id.
    pub task: u32,
    /// Exact number of `(k-mer, extension)` records the supermer blocks will decode to.
    pub records: usize,
    /// Exact number of pre-counted kmerlist entries (heavy-hitter blocks).
    pub precounted: usize,
    /// The task's kmerlist views (in source order), borrowing the receive buffer.
    pub kmerlists: Vec<KmerListView<'a, K>>,
    /// The task's sections, in order: one for an unsectioned task.
    pub sections: Vec<SectionSlot<'a>>,
}

/// One section of a task slot: its byte range of every supermer block of the task, and
/// the records they decode to.
#[derive(Debug, Clone, Default)]
pub struct SectionSlot<'a> {
    /// Exact number of records the section decodes to.
    pub records: usize,
    /// The section's part of each supermer block, in source order.
    pub supermers: Vec<SupermersView<'a>>,
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
            let precounted = (slot.kmerlists.iter())
                .flat_map(|view| view.iter().map(|(_, count)| count))
                .sum::<u64>();
            *totals.entry(slot.task).or_insert(0) += slot.records as u64 + precounted;
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
/// buffers (the benchmark replay, tests).
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
    /// payload views by task and section and extend the header-derived record totals.
    /// Returns the [`WireError`] naming the defect on a malformed stream, or on a block
    /// cut into another number of sections than the task's earlier blocks (the builder
    /// must then be discarded).
    pub fn add_segment(&mut self, segment: &'a [u8], k: usize) -> Result<(), WireError> {
        for block in read_blocks::<K>(segment)? {
            let sections = match &block.payload {
                PayloadView::Supermers(view) => {
                    if self.provenance_required && !view.has_provenance() {
                        return Err(WireError::MissingProvenance { task: block.task });
                    }
                    view.section_count()
                }
                PayloadView::KmerList(_) => 1,
            };
            let slot = self.by_task.entry(block.task).or_insert_with(|| TaskSlot {
                task: block.task,
                records: 0,
                precounted: 0,
                kmerlists: Vec::new(),
                sections: vec![SectionSlot::default(); sections],
            });
            if slot.sections.len() != sections {
                return Err(WireError::SectionMismatch {
                    task: block.task,
                    expected: slot.sections.len() as u32,
                    got: sections as u32,
                });
            }
            match &block.payload {
                PayloadView::Supermers(view) => {
                    for (section, part) in slot.sections.iter_mut().zip(view.sections()) {
                        let records = part.total_kmers(k);
                        section.records += records;
                        slot.records += records;
                        section.supermers.push(part);
                    }
                }
                PayloadView::KmerList(view) => {
                    slot.precounted += view.len();
                    slot.kmerlists.push(*view);
                }
            }
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

/// Per-worker reusable state: one lane per thread of the section phase (one set per
/// record type — only the one the run uses ever allocates), the kmerlist staging
/// buffer, the histogram and the work counters. One scratch lives per worker thread for
/// the whole stage, so a worker grows its buffers to the largest section it meets and
/// then counts every one of its tasks without allocating beyond the retained output —
/// and histograms merge once per worker, not once per task.
#[derive(Debug)]
pub struct CountScratch<K: KmerCode> {
    /// Lanes of the no-extension path (bare keys).
    keys: Vec<Lane<K, K>>,
    /// Lanes of the provenance path.
    tagged: Vec<Lane<K, (K, Extension)>>,
    /// Reusable staging for the task's pre-counted kmerlist entries.
    pre: Vec<(K, u64)>,
    /// Multiplicity histogram over every distinct k-mer this worker counted.
    pub histogram: KmerHistogram,
    /// Records decoded from supermer blocks.
    pub received_records: u64,
    /// Kmerlist entries decoded from heavy-hitter blocks.
    pub precounted_records: u64,
}

impl<K: KmerCode> CountScratch<K> {
    /// Create a scratch whose histogram caps at `max_count` (same bucket layout the
    /// sequential reference uses).
    pub fn new(max_count: u64) -> Self {
        CountScratch {
            keys: Vec::new(),
            tagged: Vec::new(),
            pre: Vec::new(),
            histogram: KmerHistogram::for_max_count(max_count),
            received_records: 0,
            precounted_records: 0,
        }
    }

    /// Bytes the scratch's count buffers hold — lanes and kmerlist staging. None of them
    /// ever shrinks, so this is their high-water mark.
    pub(crate) fn buffer_bytes(&self) -> u64 {
        let lanes = self.keys.iter().map(Lane::bytes).sum::<usize>()
            + self.tagged.iter().map(Lane::bytes).sum::<usize>();
        (lanes + self.pre.capacity() * std::mem::size_of::<(K, u64)>()) as u64
    }
}

/// One thread's working set of the section phase: the section's records — every
/// instance, or the distinct keys its table collapsed them to — sorted in place; the
/// RADULS ping-pong buffer; the k-mer table, the table that collapses a section's
/// repeated supermers before it, and what the lane has seen of the input's
/// duplication; what the count scan emits, before it is copied out exactly sized; and
/// the histogram of what it emitted (folded into the scratch's when the task ends). The
/// buffers grow to the largest section the lane meets and stay there.
#[derive(Debug)]
struct Lane<K, T> {
    records: Vec<T>,
    aux: Vec<T>,
    table: CountTable<K>,
    supermers: SupermerTable,
    dup: Duplication,
    counts: Vec<(K, u64)>,
    ranges: Vec<(u32, u32)>,
    histogram: KmerHistogram,
}

impl<K: KmerCode, T: Record<K>> Lane<K, T> {
    /// An empty lane whose histogram has the bucket layout of `like`.
    fn new(like: &KmerHistogram) -> Self {
        Lane {
            records: Vec::new(),
            aux: Vec::new(),
            table: CountTable::default(),
            supermers: SupermerTable::default(),
            dup: Duplication::default(),
            counts: Vec::new(),
            ranges: Vec::new(),
            histogram: KmerHistogram::new(like.buckets().len()),
        }
    }

    /// Bytes the lane's buffers hold.
    fn bytes(&self) -> usize {
        (self.records.capacity() + self.aux.capacity()) * std::mem::size_of::<T>()
            + self.table.bytes()
            + self.supermers.bytes()
            + self.counts.capacity() * std::mem::size_of::<(K, u64)>()
            + self.ranges.capacity() * std::mem::size_of::<(u32, u32)>()
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
    /// This record type's lanes in the scratch.
    fn lanes<'s>(
        keys: &'s mut Vec<Lane<K, K>>,
        tagged: &'s mut Vec<Lane<K, (K, Extension)>>,
    ) -> &'s mut Vec<Lane<K, Self>>;
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
    fn lanes<'s>(
        keys: &'s mut Vec<Lane<K, K>>,
        _: &'s mut Vec<Lane<K, (K, Extension)>>,
    ) -> &'s mut Vec<Lane<K, Self>> {
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
    fn lanes<'s>(
        _: &'s mut Vec<Lane<K, K>>,
        tagged: &'s mut Vec<Lane<K, (K, Extension)>>,
    ) -> &'s mut Vec<Lane<K, Self>> {
        tagged
    }
}

/// Extension output of one run: provenance as ranges into the run's sorted record
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

/// Output of counting one section of a task: one sorted run.
#[derive(Debug, Clone)]
pub struct TaskCounts<K: KmerCode> {
    /// Retained `(k-mer, count)` pairs in ascending k-mer order.
    pub counts: Vec<(K, u64)>,
    /// Extension ranges, when the run was configured with extensions.
    pub ext: Option<TaskExtensions<K>>,
}

/// The one codec of a counted run, for every run that leaves a rank's memory: home from
/// a forked rank, and into a checkpoint manifest. A length and the `(k-mer, count)`
/// entries, then — when the run carries extensions — every retained k-mer's extension
/// list (of the sorted record array only those travel). K-mer codes go as their packed
/// words (`K::WORDS` per code), extensions as their fixed 8-byte encoding — the same
/// representations the exchange wire format uses.
///
/// `decode` trusts no length it reads: every pre-allocation is bounded by the bytes
/// still in the input, and the extension ranges are rebuilt from the list lengths, so
/// they always lie within the records.
impl<K: KmerCode> Wire for TaskCounts<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.counts.len().encode(out);
        for (code, count) in &self.counts {
            for &w in code.word_slice() {
                w.encode(out);
            }
            count.encode(out);
        }
        match &self.ext {
            None => false.encode(out),
            Some(ext) => {
                true.encode(out);
                for (i, (_, len)) in ext.ranges.iter().enumerate() {
                    len.encode(out);
                    for (_, e) in ext.records_of(i) {
                        out.extend_from_slice(&e.to_bytes());
                    }
                }
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let entries = usize::decode(input)?;
        let mut counts = Vec::with_capacity(entries.min(input.len() / ((K::WORDS + 1) * 8)));
        let mut words = vec![0u64; K::WORDS];
        for _ in 0..entries {
            for w in &mut words {
                *w = u64::decode(input)?;
            }
            counts.push((K::from_word_slice(&words), u64::decode(input)?));
        }
        let ext = if bool::decode(input)? {
            let mut records = Vec::new();
            let mut ranges = Vec::with_capacity(counts.len());
            for &(km, _) in &counts {
                let len = u32::decode(input)?;
                let start = u32::try_from(records.len()).ok()?;
                start.checked_add(len)?;
                let bytes = (len as usize).checked_mul(Extension::WIRE_BYTES)?;
                let (list, rest) = input.split_at_checked(bytes)?;
                *input = rest;
                records.extend(list.chunks_exact(Extension::WIRE_BYTES).map(|e| {
                    let e = e.try_into().expect("chunks of the wire size");
                    (km, Extension::from_bytes(e))
                }));
                ranges.push((start, len));
            }
            Some(TaskExtensions { records, ranges })
        } else {
            None
        };
        Some(TaskCounts { counts, ext })
    }
}

impl<K: KmerCode> TaskCounts<K> {
    /// Decode a `Vec` of runs as [`Wire`] encodes it — a length, then the runs — with
    /// its pre-allocation bounded by the 9 bytes (a length and the extension flag) every
    /// run takes, so a forged length cannot size it beyond 8 bytes per byte left.
    pub(crate) fn decode_runs(input: &mut &[u8]) -> Option<Vec<Self>> {
        let runs = usize::decode(input)?;
        let mut tasks = Vec::with_capacity(runs.min(input.len() / 9));
        for _ in 0..runs {
            tasks.push(Self::decode(input)?);
        }
        Some(tasks)
    }
}

/// Decode, sort and count one task, section by section — see the module docs. Returns
/// one run per section that retained a k-mer, in section order. `rank` labels the
/// `count-section` spans (children of the caller's `count-task` span). With
/// `with_extension` off the records are bare k-mer keys — half the bytes through the
/// decode and every sort pass.
///
/// Fails with [`WireError::CountMismatch`], naming the task, when the slot's
/// header-derived totals are not what its blocks decode to; the scratch stays usable.
pub fn count_task<K: KmerCode>(
    slot: &TaskSlot<'_, K>,
    k: usize,
    params: &CountParams,
    rank: u32,
    scratch: &mut CountScratch<K>,
) -> Result<Vec<TaskCounts<K>>, WireError> {
    Ok(if params.with_extension {
        let runs = count_records::<K, (K, Extension)>(slot, k, params, rank, scratch)?;
        (runs.into_iter())
            .map(|run| TaskCounts {
                counts: run.counts,
                ext: Some(TaskExtensions {
                    records: run.records,
                    ranges: run.ranges,
                }),
            })
            .collect()
    } else {
        let runs = count_records::<K, K>(slot, k, params, rank, scratch)?;
        (runs.into_iter())
            .map(|run| TaskCounts {
                counts: run.counts,
                ext: None,
            })
            .collect()
    })
}

/// What one section emitted.
struct RunOutput<K, T> {
    counts: Vec<(K, u64)>,
    /// The sorted records ([`Record::TAGGED`] only) and, parallel to `counts`, each
    /// retained k-mer's `(start, len)` in them.
    records: Vec<T>,
    ranges: Vec<(u32, u32)>,
}

/// Write section `section`'s records into `out`: its part of every supermer block.
fn decode_section<K: KmerCode, T: Record<K>>(
    slot: &TaskSlot<'_, K>,
    section: usize,
    k: usize,
    out: &mut Vec<T>,
) {
    for view in &slot.sections[section].supermers {
        for sm in view.iter() {
            let read_id = sm.read_id;
            sm.for_each_canonical_kmer::<K>(k, |km, pos| {
                out.push(T::new(km, Extension::new(read_id, pos)));
            });
        }
    }
}

/// The driver behind [`count_task`], generic over the record type.
fn count_records<K: KmerCode, T: Record<K>>(
    slot: &TaskSlot<'_, K>,
    k: usize,
    params: &CountParams,
    rank: u32,
    scratch: &mut CountScratch<K>,
) -> Result<Vec<RunOutput<K, T>>, WireError> {
    let CountScratch {
        keys,
        tagged,
        pre,
        histogram,
        received_records,
        precounted_records,
    } = scratch;
    let lanes = T::lanes(keys, tagged);
    let task = slot.task;
    let digit = BucketDigit::top_bits::<T>(2 * k as u32);

    // ---- the kmerlist entries: arrive per source, sorted so the run merge can sum
    //      duplicates streamed ---------------------------------------------------------
    pre.clear();
    pre.reserve(slot.precounted);
    for view in &slot.kmerlists {
        pre.extend(view.iter());
    }
    if pre.len() != slot.precounted {
        return Err(WireError::CountMismatch {
            task,
            expected: slot.precounted as u64,
            got: pre.len() as u64,
        });
    }
    pre.sort_unstable();
    assert!(
        pre.last().is_none_or(|(km, _)| digit.holds(km)),
        "task {task}: a kmerlist k-mer is wider than 2k bits"
    );
    let pre = &pre[..];

    // ---- the sections with work, one run of them per thread; at a budget of one, a loop
    // Only an unsectioned task carries kmerlist entries; they belong to its section 0.
    let pre_of = |section: usize| if section == 0 { pre } else { &[] };
    let jobs: Vec<usize> = (0..slot.sections.len())
        .filter(|&s| slot.sections[s].records + pre_of(s).len() > 0)
        .collect();
    let like = &*histogram;
    let outputs: Vec<(Vec<RunOutput<K, T>>, usize)> = map_balanced_runs(
        jobs,
        |&s| slot.sections[s].records + pre_of(s).len(),
        0,
        lanes,
        || Lane::new(like),
        |run, lane| {
            let mut out = Vec::with_capacity(run.len());
            let mut decoded = 0;
            for section in run {
                let records = slot.sections[section].records;
                let span = trace::span!(
                    "count-section",
                    trace::Detail::Task,
                    rank,
                    task = task,
                    section = section,
                    records = records,
                );
                // An extension lane needs every record.
                let slots = (!T::TAGGED)
                    .then(|| lane.dup.table_slots::<K>(records))
                    .flatten();
                let counted =
                    count_one_section(lane, slot, section, pre_of(section), k, params, slots);
                span.end_with(&[
                    ("distinct", counted.distinct as u64),
                    ("hashed", u64::from(counted.hashed)),
                    ("supermers", counted.supermers as u64),
                    ("distinct_supermers", counted.distinct_supermers as u64),
                ]);
                decoded += counted.instances;
                out.extend(counted.run);
            }
            (out, decoded)
        },
    );
    // What the block headers announce against what the blocks decode to.
    let decoded: usize = outputs.iter().map(|(_, decoded)| decoded).sum();
    let consistent = decoded == slot.records;
    for lane in lanes.iter_mut() {
        if consistent {
            histogram.merge(&lane.histogram);
        }
        lane.histogram.clear();
    }
    if !consistent {
        return Err(WireError::CountMismatch {
            task,
            expected: slot.records as u64,
            got: decoded as u64,
        });
    }
    *received_records += decoded as u64;
    *precounted_records += pre.len() as u64;
    Ok(outputs.into_iter().flat_map(|(runs, _)| runs).collect())
}

/// How one section was counted: its run (`None` when it retained nothing), the records
/// decoded, the distinct keys among them, whether they were counted in the table, the
/// supermers that arrived and the supermers decoded — each distinct one once on the
/// table path ([`CountTable::add_supermers`]), every one on the sort path.
struct SectionCount<K, T> {
    run: Option<RunOutput<K, T>>,
    instances: usize,
    distinct: usize,
    hashed: bool,
    supermers: usize,
    distinct_supermers: usize,
}

/// Count section `section` of `slot`, with its kmerlist entries `pre`, into one sorted
/// run. With `table_slots` its supermers are collapsed, and each distinct one's k-mers
/// are counted in the lane's table of that many slots
/// ([`CountTable::add_supermers`]); only the distinct keys are sorted. A section whose
/// distinct keys pass the table's fill bound — and every section without
/// `table_slots` — is decoded record by record and sorted whole. Either way the sorted
/// keys go through one scan ([`count_section`]), and the lane's duplication gate learns
/// from what it saw.
fn count_one_section<K: KmerCode, T: Record<K>>(
    lane: &mut Lane<K, T>,
    slot: &TaskSlot<'_, K>,
    section: usize,
    pre: &[(K, u64)],
    k: usize,
    params: &CountParams,
    table_slots: Option<usize>,
) -> SectionCount<K, T> {
    let (task, records) = (slot.task, slot.sections[section].records);
    let views = &slot.sections[section].supermers;
    let supermers = views.iter().map(SupermersView::len).sum();
    // Extension ranges are u32 offsets into the section's records; make the limit
    // explicit rather than silently wrapping.
    assert!(
        !T::TAGGED || u32::try_from(records).is_ok(),
        "task {task}: section {section} of {records} records exceeds the u32 extension-range \
         limit"
    );
    lane.records.clear();
    let hashed = table_slots.and_then(|slots| {
        lane.table.reset(slots);
        let added = lane.table.add_supermers(&mut lane.supermers, views, k)?;
        lane.records.reserve_exact(lane.table.len());
        (lane.records).extend(
            lane.table
                .pairs()
                .map(|(km, _)| T::new(km, Extension::new(0, 0))),
        );
        Some(added)
    });
    let (instances, distinct_supermers) = hashed.unwrap_or_else(|| {
        lane.records.reserve_exact(records);
        decode_section(slot, section, k, &mut lane.records);
        (lane.records.len(), supermers)
    });
    match params.sorter {
        SortAlgorithm::Raduls => {
            let grow = lane.records.len().saturating_sub(lane.aux.len());
            lane.aux.reserve_exact(grow);
            raduls_sort_with_aux(&mut lane.records, &mut lane.aux);
        }
        _ => paradis_sort_from(&mut lane.records, params.first_radix_level),
    }
    let digit = BucketDigit::top_bits::<T>(2 * k as u32);
    assert!(
        lane.records.last().is_none_or(|record| digit.holds(record)),
        "task {task}: a decoded k-mer is wider than 2k bits"
    );
    let (run, distinct) = count_section(lane, pre, hashed.is_some(), params);
    lane.table.clear();
    lane.dup.observe(instances, distinct);
    SectionCount {
        run,
        instances,
        distinct,
        hashed: hashed.is_some(),
        supermers,
        distinct_supermers,
    }
}

/// Scan one sorted section against its kmerlist entries: every distinct k-mer goes to
/// the lane's histogram, the retained ones to the section's run — `None` when nothing
/// is retained. A `hashed` section's records are its distinct keys, each counted in the
/// lane's table. With extensions, each retained run of records is ordered by extension
/// (keys are equal within a run, so the section stays sorted by k-mer) and the records
/// are kept with the run. Also returns the distinct keys among the records.
fn count_section<K: KmerCode, T: Record<K>>(
    lane: &mut Lane<K, T>,
    pre: &[(K, u64)],
    hashed: bool,
    params: &CountParams,
) -> (Option<RunOutput<K, T>>, usize) {
    let Lane {
        records,
        table,
        counts,
        ranges,
        histogram,
        ..
    } = lane;
    counts.clear();
    ranges.clear();
    let mut distinct = 0;
    merge_runs_with_counts(records, T::kmer, pre, |km, total, range| {
        let mut total = total;
        if !range.is_empty() {
            distinct += 1;
            if hashed {
                total += table.count(&km) - 1;
            }
        }
        histogram.record(total);
        if total >= params.min_count && total <= params.max_count {
            counts.push((km, total));
            if T::TAGGED {
                ranges.push((range.start as u32, range.len() as u32));
            }
        }
    });
    if counts.is_empty() {
        return (None, distinct);
    }
    if T::TAGGED {
        for &(start, len) in ranges.iter() {
            T::sort_run(&mut records[start as usize..][..len as usize]);
        }
    }
    let run = RunOutput {
        counts: counts.to_vec(),
        records: if T::TAGGED {
            records.to_vec()
        } else {
            Vec::new()
        },
        ranges: ranges.to_vec(),
    };
    (Some(run), distinct)
}

/// The counted tasks of one rank, before the per-rank merge.
#[derive(Debug)]
pub struct Stage3Output<K: KmerCode> {
    /// The sorted runs the tasks' sections emitted, in slot and section order.
    pub tasks: Vec<TaskCounts<K>>,
    /// Merged multiplicity histogram.
    pub histogram: KmerHistogram,
    /// Total records decoded from supermer blocks.
    pub received_records: u64,
    /// Total kmerlist entries decoded.
    pub precounted_records: u64,
    /// High-water bytes of the count buffers — lanes and kmerlist staging — of the
    /// scratches that counted them, summed.
    pub buffer_bytes: u64,
}

impl<K: KmerCode> Stage3Output<K> {
    /// Assemble the stage output from the counted runs and the worker scratches that
    /// produced them: histograms and work counters merge once per scratch, not once
    /// per task. The pipeline's round loop accumulates `tasks` round by round and
    /// drains its [`ScratchBank`] once at the end; [`count_blocks_parallel`] drains its
    /// own after its one pool call.
    pub fn assemble(
        tasks: Vec<TaskCounts<K>>,
        scratches: Vec<CountScratch<K>>,
        max_count: u64,
    ) -> Self {
        let mut histogram = KmerHistogram::for_max_count(max_count);
        let mut received_records = 0u64;
        let mut precounted_records = 0u64;
        let mut buffer_bytes = 0u64;
        for scratch in scratches {
            histogram.merge(&scratch.histogram);
            received_records += scratch.received_records;
            precounted_records += scratch.precounted_records;
            buffer_bytes += scratch.buffer_bytes();
        }
        Stage3Output {
            tasks,
            histogram,
            received_records,
            precounted_records,
            buffer_bytes,
        }
    }
}

/// Count every task of the block index on the worker pool: tasks are independent work
/// items, so decode of one task overlaps sort+count of another, and each task checks a
/// [`CountScratch`] (lanes, kmerlist staging, histogram) out of one [`ScratchBank`], so
/// a bank holds no more scratches than tasks ran at once.
///
/// Not a product path: the pipeline's round loop (`crate::overlap`) runs [`count_task`]
/// in its own job lists and returns a slot whose header-derived totals are not what
/// its blocks decode to as [`WireError::CountMismatch`]. This wrapper serves the frozen
/// benchmark harness's layer replay (which pins its signature) and the tests, and
/// **panics**, naming the task, on such a slot.
pub fn count_blocks_parallel<K: KmerCode>(
    index: &BlockIndex<'_, K>,
    k: usize,
    params: &CountParams,
    pool: &WorkerPool,
) -> Stage3Output<K> {
    let rank = pool.rank();
    let bank = ScratchBank::new();
    let runs = pool.execute(index.slots.iter().collect(), |slot: &TaskSlot<'_, K>| {
        let _span = trace::span!(
            "count-task",
            trace::Detail::Task,
            rank,
            task = slot.task,
            records = slot.records,
        );
        let mut scratch = bank.checkout(|| CountScratch::new(params.max_count));
        count_task(slot, k, params, rank, &mut scratch).unwrap_or_else(|e| panic!("{e}"))
    });
    Stage3Output::assemble(
        runs.into_iter().flatten().collect(),
        bank.into_scratches(),
        params.max_count,
    )
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
    /// Records decoded from supermer blocks.
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
    let mut histogram = KmerHistogram::for_max_count(params.max_count);
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

    let mut histogram = KmerHistogram::for_max_count(params.max_count);
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
    use crate::wire::{
        push_supermer, write_kmerlist_block, write_supermer_block, SupermerBlockWriter,
    };
    use hysortk_dna::kmer::{Kmer1, Kmer2};
    use hysortk_dna::readset::Read;
    use hysortk_dna::sequence::DnaSeq;
    use hysortk_sort::{count_sorted_runs, IN_CACHE_BYTES};
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
        let runs = (index.slots.iter())
            .flat_map(|slot| count_task(slot, k, params, 0, &mut scratch).expect("consistent slot"))
            .collect();
        Stage3Output::assemble(runs, vec![scratch], params.max_count)
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
                    let segment = &mut segments[src];
                    let mut block = SupermerBlockWriter::new(segment, t as u32, sms.len() as u32);
                    for s in &sms {
                        block.push(s.read_id, s.start, &s.seq, 0, s.seq.len());
                    }
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
        write_kmerlist_block(&mut segments[0], tasks, &list);
        write_kmerlist_block(&mut segments[1], tasks, &list);
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
            assert_eq!(slot.sections.len(), 1, "unsectioned blocks");
            assert_eq!(slot.sections[0].records, slot.records);
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
            let parallel = merge_task_counts(count_blocks_parallel(&index, k, &p, &pool), &p);
            assert_eq!(
                sequential, reference,
                "sequential vs reference, ext={with_ext}"
            );
            assert_eq!(parallel, reference, "parallel vs reference, ext={with_ext}");
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
        write_supermer_block(&mut segment, 7, false, 1, &[(0, 1, &body)]);

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

    /// All blocks of a task are cut into the same number of sections — a sectioned
    /// block beside an unsectioned one (a kmerlist, a one-section supermer block) or
    /// beside one of another `S` is a typed error from the index pass, whichever arrives
    /// first.
    #[test]
    fn blocks_of_one_task_that_disagree_on_sections_are_a_typed_error() {
        let body = [20u8, 0x1b, 0xe4, 0x39, 0x93, 0x6c];
        let sectioned = |sections: u32| {
            let mut block = Vec::new();
            write_supermer_block(&mut block, 3, false, sections, &[(1, 1, &body)]);
            block
        };
        let unsectioned = |kind: usize| {
            let mut block = Vec::new();
            let kmer = Kmer1::from_ascii(b"ACGTACGTACGTACG");
            match kind {
                0 => write_supermer_block(&mut block, 3, false, 1, &[(0, 1, &body)]),
                _ => write_kmerlist_block(&mut block, 3, &[(kmer, 2)]),
            }
            block
        };
        for kind in 0..2 {
            for (first, then, expected, got) in [
                (unsectioned(kind), sectioned(4), 1, 4),
                (sectioned(4), unsectioned(kind), 4, 1),
                (sectioned(4), sectioned(8), 4, 8),
            ] {
                let mut builder = BlockIndexBuilder::<Kmer1>::new();
                builder.add_segment(&first, 15).unwrap();
                assert_eq!(
                    builder.add_segment(&then, 15),
                    Err(WireError::SectionMismatch {
                        task: 3,
                        expected,
                        got
                    })
                );
            }
        }
        // Blocks that agree index section by section.
        let (a, b) = (sectioned(4), sectioned(4));
        let index = build_block_index::<Kmer1, _>([&a[..], &b[..]], 15).unwrap();
        let records: Vec<usize> = index.slots[0].sections.iter().map(|s| s.records).collect();
        assert_eq!(records, [0, 12, 0, 0]);
        assert_eq!(index.slots[0].records, 12);
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
        // One task, one block with a k-mer appearing 3 times and one appearing once;
        // min_count = 2 must retain only the former, while the histogram sees both.
        let km3 = Kmer1::from_ascii(b"ACGTACGTACGTACG");
        let km1 = Kmer1::from_ascii(b"TTTGGGGCCCCAAAA");
        let mut seg = Vec::new();
        kmer_block(&mut seg, 0, 15, &[km3, km1, km3, km3], None);
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

    /// A supermer block in which every k-mer of `kmers` (canonical, of width `k`) is a
    /// supermer of its own — a block of any key multiset. With `from`, supermer `i`
    /// carries the provenance `from[i]`; without, the block is bare and its k-mers decode
    /// to read 0, offset 0.
    fn kmer_block<K: KmerCode>(
        out: &mut Vec<u8>,
        task: u32,
        k: usize,
        kmers: &[K],
        from: Option<&[(u32, u32)]>,
    ) {
        let parts = [(0, kmers.len() as u64, &kmer_body(k, kmers, from)[..])];
        write_supermer_block(out, task, from.is_some(), 1, &parts);
    }

    /// The supermer bytes of [`kmer_block`].
    fn kmer_body<K: KmerCode>(k: usize, kmers: &[K], from: Option<&[(u32, u32)]>) -> Vec<u8> {
        let mut seq = DnaSeq::with_capacity(kmers.len() * k);
        for km in kmers {
            (0..k).for_each(|i| seq.push_code(km.base_at(k, i)));
        }
        let mut body = Vec::new();
        for i in 0..kmers.len() {
            push_supermer(&mut body, from.map(|from| from[i]), &seq, i * k, k);
        }
        body
    }

    // ---- the one-pass driver against the reference ------------------------------------

    /// Appends blocks of one task to a segment. Keys come out of real supermers (so
    /// they are canonical k-mers of width `k`), out of one-k-mer supermers
    /// ([`kmer_block`]) and out of kmerlists; `fixed_bases` steers records into one
    /// top-bits range or one key.
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

        /// A supermer block cut into `kmers.len()` sections, section `s` holding exactly
        /// `kmers[s]` k-mers in supermers of mixed length.
        fn sections(&mut self, out: &mut Vec<u8>, task: u32, kmers: &[usize]) {
            let bodies: Vec<(u32, Vec<u8>)> = (kmers.iter())
                .map(|&n| {
                    let (mut body, mut count, mut have) = (Vec::new(), 0u32, 0);
                    while have < n {
                        let len = self.k + self.rng.gen_range(0..400).min(n - have - 1);
                        have += len + 1 - self.k;
                        let seq = self.random_seq(len);
                        push_supermer(&mut body, Some((count, 5 * count)), &seq, 0, len);
                        count += 1;
                    }
                    (count, body)
                })
                .collect();
            let parts: Vec<(u32, u64, &[u8])> = (bodies.iter().enumerate())
                .map(|(s, (n, body))| (s as u32, u64::from(*n), &body[..]))
                .collect();
            write_supermer_block(out, task, true, kmers.len() as u32, &parts);
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
            let from: Vec<(u32, u32)> = (0..kmers.len() as u32)
                .map(|i| (self.rng.gen_range(0..50), i / 3))
                .collect();
            // Every other block ships bare.
            let from = self.rng.gen_bool(0.5).then_some(&from[..]);
            kmer_block(out, task, self.k, &kmers, from);
        }

        fn kmerlist<K: KmerCode>(&mut self, out: &mut Vec<u8>, task: u32, kmers: Vec<K>) {
            let list: Vec<(K, u64)> = (kmers.into_iter())
                .map(|km| (km, self.rng.gen_range(1..9u64)))
                .collect();
            write_kmerlist_block(out, task, &list);
        }
    }

    /// Tasks of every shape the driver distinguishes, in an order that makes one
    /// scratch's lanes meet small tasks after large ones. `unit` is a record count just
    /// above what fits `IN_CACHE_BYTES` for bare keys of width `K`.
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
        // 4: twice the size: one top-bits range alone is out of cache, the rest spread.
        let one_bucket = b.kmers::<K>(unit, unit / 20, 16.min(k));
        b.records(s0, 4, one_bucket);
        b.supermers(s1, 4, unit);
        // 5: kmerlist only.
        let only = b.kmers::<K>(2_000, 500, 0);
        b.kmerlist(s0, 5, only);
        // 6: out of cache, records confined to the lowest key range, kmerlist keys spread
        //    over all of them — most fall where no record is.
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
                // One slot list, run on one thread under budgets of 1 and 3 threads
                // (each task here is one section, so the budget must change nothing).
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
        // 2k = 68: the key's top bits straddle the two key words.
        one_pass_matches_the_reference::<Kmer2>(44, 34);
    }

    /// Two sources' blocks as a run writes them: reads cut into supermers at
    /// `tasks × sections` minimizer targets, each going to task `target % tasks`,
    /// section `target / tasks`, with provenance. One section is written by the
    /// streamed [`SupermerBlockWriter`] — the harness replay's blocks — more by
    /// [`write_supermer_block`] behind a directory.
    fn minimizer_segments(seed: u64, k: usize, tasks: u32, sections: u32) -> Vec<Vec<u8>> {
        use hysortk_supermer::streaming::{for_each_supermer, SupermerScratch};
        let mut rng = StdRng::seed_from_u64(seed);
        let genome: Vec<u8> = (0..20_000).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
        let m = if k > 32 { 23 } else { k / 2 };
        let scorer = MmerScorer::new(m, ScoreFunction::Hash { seed: 5 });
        let mut scratch = SupermerScratch::new();
        let targets = tasks * sections;
        let mut segments = Vec::new();
        for src in 0..2u32 {
            let reads: Vec<Read> = (0..40)
                .map(|i| {
                    let start = rng.gen_range(0..genome.len() - 1_000);
                    Read::from_ascii(40 * src + i, "r", &genome[start..start + 1_000])
                })
                .collect();
            let mut spans = vec![Vec::new(); targets as usize];
            for read in &reads {
                for_each_supermer(&read.seq, k, &scorer, targets, &mut scratch, |span| {
                    spans[span.target as usize].push((read, span.start, span.len()));
                });
            }
            let mut segment = Vec::new();
            for task in 0..tasks {
                let of_section = |s: u32| &spans[(task + tasks * s) as usize];
                if sections == 1 {
                    let mut writer =
                        SupermerBlockWriter::new(&mut segment, task, of_section(0).len() as u32);
                    for &(read, start, len) in of_section(0) {
                        writer.push(read.id, start, &read.seq, start as usize, len);
                    }
                    continue;
                }
                let bodies: Vec<Vec<u8>> = (0..sections)
                    .map(|s| {
                        let mut body = Vec::new();
                        for &(read, start, len) in of_section(s) {
                            let from = Some((read.id, start));
                            push_supermer(&mut body, from, &read.seq, start as usize, len);
                        }
                        body
                    })
                    .collect();
                let parts: Vec<(u32, u64, &[u8])> = (0..sections)
                    .map(|s| (s, of_section(s).len() as u64, &bodies[s as usize][..]))
                    .collect();
                write_supermer_block(&mut segment, task, true, sections, &parts);
            }
            segments.push(segment);
        }
        segments
    }

    /// A sectioned task counts to what the reference counts from the same supermers,
    /// and so does the same input in unsectioned blocks through
    /// [`count_blocks_parallel`] — the harness replay's call; sections are counted on
    /// one thread and split over two, with and without extensions.
    #[test]
    fn sectioned_and_replay_blocks_count_like_the_reference() {
        fn check<K: KmerCode>(seed: u64, k: usize) {
            let tasks = 3u32;
            for sections in [1u32, 4, 16] {
                let segments = minimizer_segments(seed, k, tasks, sections);
                let segments = || segments.iter().map(Vec::as_slice);
                let index = build_block_index::<K, _>(segments(), k).unwrap();
                assert_eq!(index.slots.len(), tasks as usize);
                for slot in &index.slots {
                    assert_eq!(slot.sections.len(), sections as usize);
                    let records = slot.sections.iter().map(|s| s.records).sum::<usize>();
                    assert_eq!(records, slot.records);
                }
                for with_ext in [false, true] {
                    let p =
                        CountParams::for_kmer::<K>(k, SortAlgorithm::Raduls, 2, 1_000, with_ext);
                    let reference = count_blocks_reference::<K, _>(segments(), k, &p).unwrap();
                    assert!(reference.counts.len() > 1_000, "k = {k}");
                    for threads_per_worker in [1usize, 2] {
                        let pool = WorkerPool::new(2, threads_per_worker);
                        let counted = count_blocks_parallel(&index, k, &p, &pool);
                        // One run per section that retained a k-mer.
                        assert!(counted.tasks.len() <= (tasks * sections) as usize);
                        assert!(counted.tasks.iter().all(|run| !run.counts.is_empty()));
                        assert!(
                            merge_task_counts(counted, &p) == reference,
                            "k = {k}, {sections} sections, extensions {with_ext}, \
                             {threads_per_worker} thread(s) per worker"
                        );
                    }
                }
            }
        }
        check::<Kmer1>(47, 31);
        check::<Kmer1>(48, 15);
        check::<Kmer2>(49, 55);
    }

    /// No buffer of a task's size, whatever the task looks like: a scratch's lane holds
    /// the largest section it has counted — decode buffer and RADULS buffer alike — and
    /// the record type the run does not use allocates nothing.
    #[test]
    fn scratch_holds_lanes_sized_by_the_largest_section_only() {
        let k = 31;
        let mut rng = StdRng::seed_from_u64(45);
        let mut b = TaskBuilder { rng: &mut rng, k };
        let mut segment = Vec::new();
        // 170 000 records in four sections, one of them empty; then an unsectioned task
        // and a one-key task, both larger than the first section and smaller than the
        // largest.
        b.sections(&mut segment, 0, &[40_000, 10_000, 0, 120_000]);
        b.supermers(&mut segment, 1, 60_000);
        let poly_a = b.kmers::<Kmer1>(50_000, 1, k);
        b.records(&mut segment, 2, poly_a);
        let index = build_block_index::<Kmer1, _>([&segment[..]], k).unwrap();
        let sections: Vec<Vec<usize>> = (index.slots.iter())
            .map(|slot| slot.sections.iter().map(|s| s.records).collect())
            .collect();
        assert_eq!(
            sections,
            [vec![40_000, 10_000, 0, 120_000], vec![60_000], vec![50_000]]
        );
        let p = CountParams::for_kmer::<Kmer1>(k, SortAlgorithm::Raduls, 1, 50, false);
        // One thread of budget: one lane.
        let scratch = (WorkerPool::new(1, 1).execute(vec![()], |()| {
            let mut scratch = CountScratch::new(p.max_count);
            for slot in &index.slots {
                count_task(slot, k, &p, 0, &mut scratch).unwrap();
                let [lane] = &scratch.keys[..] else {
                    panic!("one lane at a budget of one thread")
                };
                assert_eq!(lane.records.capacity(), 120_000, "task {}", slot.task);
                assert_eq!(lane.aux.capacity(), 120_000, "task {}", slot.task);
                assert!(scratch.tagged.is_empty());
            }
            scratch
        }))
        .pop()
        .unwrap();
        assert_eq!(scratch.received_records, 170_000 + 60_000 + 50_000);
        // The lane's two record buffers, its staging of what a section retains, and no
        // kmerlist staging.
        let bytes = scratch.buffer_bytes();
        assert!((2 * 120_000 * 8..=2 * 120_000 * 8 + 3 * 120_000 * 16).contains(&bytes));
    }

    // ---- the table path against the sort path and the reference ----------------------

    /// [`kmer_block`] cut into sections, section `s` holding `sections[s]`, bare.
    fn kmer_sections<K: KmerCode>(out: &mut Vec<u8>, task: u32, k: usize, sections: &[Vec<K>]) {
        let bodies: Vec<Vec<u8>> = (sections.iter())
            .map(|kmers| kmer_body(k, kmers, None))
            .collect();
        let parts: Vec<(u32, u64, &[u8])> = (sections.iter().zip(&bodies).enumerate())
            .map(|(s, (kmers, body))| (s as u32, kmers.len() as u64, &body[..]))
            .collect();
        write_supermer_block(out, task, false, sections.len() as u32, &parts);
    }

    /// `n` canonical k-mers drawn from a pool of at most `distinct` (fewer when `k` has
    /// fewer canonical k-mers).
    fn random_kmers<K: KmerCode>(rng: &mut StdRng, k: usize, n: usize, distinct: usize) -> Vec<K> {
        let pool: Vec<K> = (0..distinct)
            .map(|_| {
                let codes: Vec<u8> = (0..k).map(|_| rng.gen_range(0..4)).collect();
                K::from_codes(&codes).canonical(k)
            })
            .collect();
        (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
    }

    /// What [`crate::reference`] counts from `kmers` (each its own read), plus the
    /// kmerlist entries `pre`: the retained run of `params`' band and the histogram.
    fn reference_run<K: KmerCode>(
        kmers: &[K],
        pre: &[(K, u64)],
        k: usize,
        params: &CountParams,
    ) -> (Vec<(K, u64)>, KmerHistogram) {
        let reads: Vec<String> = kmers.iter().map(|km| km.to_dna_string(k)).collect();
        let reads = hysortk_dna::readset::ReadSet::from_ascii_reads(&reads);
        let mut all: BTreeMap<K, u64> = crate::reference::reference_counts::<K>(&reads, k)
            .into_iter()
            .collect();
        for &(km, count) in pre {
            *all.entry(km).or_insert(0) += count;
        }
        let mut histogram = KmerHistogram::for_max_count(params.max_count);
        all.values().for_each(|&count| histogram.record(count));
        let band = params.min_count..=params.max_count;
        (
            all.into_iter().filter(|(_, c)| band.contains(c)).collect(),
            histogram,
        )
    }

    /// Every section counted both ways — in a table of ample size, in a table too small
    /// for it (which must fall back to sorting), and by sorting — emits the same run,
    /// and the task's runs are what the reference counts: all-distinct, all-equal,
    /// duplicated and empty sections, a section-0 kmerlist merge, and bands whose bounds
    /// fall on counts that occur, down to a band of one count.
    #[test]
    fn table_and_sort_paths_count_every_section_like_the_reference() {
        fn check<K: KmerCode>(seed: u64, k: usize) {
            let mut rng = StdRng::seed_from_u64(seed);
            let sectioned: Vec<Vec<K>> = vec![
                random_kmers(&mut rng, k, 3_000, 3_000),
                random_kmers(&mut rng, k, 2_000, 1),
                Vec::new(),
                random_kmers(&mut rng, k, 5_000, 400),
                random_kmers(&mut rng, k, 10, 3),
            ];
            let unsectioned = random_kmers::<K>(&mut rng, k, 4_000, 300);
            let mut pre: Vec<(K, u64)> = (random_kmers::<K>(&mut rng, k, 60, 60).into_iter())
                .chain(unsectioned[..60].iter().copied())
                .map(|km| (km, rng.gen_range(1..30)))
                .collect();
            let mut segment = Vec::new();
            kmer_sections(&mut segment, 0, k, &sectioned);
            kmer_sections(&mut segment, 1, k, std::slice::from_ref(&unsectioned));
            write_kmerlist_block(&mut segment, 1, &pre);
            pre.sort_unstable();
            let index = build_block_index::<K, _>([&segment[..]], k).unwrap();

            for (min_count, max_count) in [(1, u64::MAX), (2, 12), (5, 5), (13, 13)] {
                let p = CountParams::for_kmer::<K>(
                    k,
                    SortAlgorithm::Raduls,
                    min_count,
                    max_count,
                    false,
                );
                let like = KmerHistogram::for_max_count(max_count);
                let tag = format!("k = {k}, band [{min_count}, {max_count}]");
                let (mut runs, mut histogram) =
                    (Vec::new(), KmerHistogram::for_max_count(max_count));
                for (slot, kmers) in index
                    .slots
                    .iter()
                    .zip([&sectioned[..], std::slice::from_ref(&unsectioned)])
                {
                    for (section, kmers) in kmers.iter().enumerate() {
                        let pre = if slot.task == 1 { &pre[..] } else { &[] };
                        let (expected, expected_histogram) = reference_run(kmers, pre, k, &p);
                        let distinct = kmers
                            .iter()
                            .collect::<std::collections::BTreeSet<_>>()
                            .len();
                        let ample = (4 * distinct).next_power_of_two().max(64);
                        for (slots, hashed) in [
                            (None, false),
                            (Some(ample), true),
                            (Some(64), distinct < 48),
                        ] {
                            let mut lane: Lane<K, K> = Lane::new(&like);
                            let counted =
                                count_one_section(&mut lane, slot, section, pre, k, &p, slots);
                            let tag = format!(
                                "{tag}, task {}, section {section}, {slots:?} slots",
                                slot.task
                            );
                            assert_eq!(counted.hashed, hashed, "{tag}");
                            assert_eq!(
                                (counted.instances, counted.distinct),
                                (kmers.len(), distinct),
                                "{tag}"
                            );
                            let run = counted.run.map(|run| run.counts).unwrap_or_default();
                            assert_eq!(run, expected, "{tag}");
                            assert_eq!(lane.histogram, expected_histogram, "{tag}");
                        }
                        runs.extend(expected);
                        histogram.merge(&expected_histogram);
                    }
                }
                // Both tasks through `count_task` on one scratch, whose lane learns the
                // duplication section by section.
                let counted = count_blocks_sequential(&index, k, &p);
                let mut counted = merge_task_counts(counted, &p);
                // Sections of one task here may share keys (a run's never do), so the
                // merged table may hold a key more than once.
                counted.counts.sort_unstable();
                runs.sort_unstable();
                assert_eq!(counted.counts, runs, "{tag}");
                assert_eq!(counted.histogram, histogram, "{tag}");
                // Header totals that lie are a count mismatch on the table path too.
                let mut scratch = CountScratch::new(max_count);
                count_task(&index.slots[1], k, &p, 0, &mut scratch).unwrap();
                let mut lying = index.slots[1].clone();
                lying.records += 1;
                let gate = scratch.keys[0].dup;
                assert!(gate.table_slots::<K>(lying.records).is_some(), "{tag}");
                assert_eq!(
                    count_task(&lying, k, &p, 0, &mut scratch).err(),
                    Some(WireError::CountMismatch {
                        task: 1,
                        expected: 4_001,
                        got: 4_000
                    }),
                    "{tag}"
                );
            }
        }
        for k in [1, 21, 31, 32] {
            check::<Kmer1>(50 + k as u64, k);
        }
        for k in [1, 21, 31, 32, 33, 55, 64] {
            check::<Kmer2>(150 + k as u64, k);
        }
    }

    /// Sections of repeated supermers, some over 64 bases and some shorter than k, count
    /// on the table path — each distinct supermer decoded once — as they do on the sort
    /// path. A section that passes the k-mer table's fill bound partway through falls
    /// back to sorting, and the lane's next sections still count exactly.
    #[test]
    fn collapsed_supermers_count_like_the_sort_path_after_a_fallback_too() {
        let k = 31;
        let mut rng = StdRng::seed_from_u64(62);
        let ascii: Vec<u8> = (0..20_000).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
        let genome = DnaSeq::from_ascii(&ascii);
        // (distinct supermers, copies) per section.
        let shapes = [(40, 3_000), (400, 3_000), (5, 50), (1, 1)];
        let bodies: Vec<(u64, Vec<u8>)> = (shapes.iter())
            .map(|&(distinct, copies)| {
                let cuts: Vec<(usize, usize)> = (0..distinct)
                    .map(|_| (rng.gen_range(0..19_000), rng.gen_range(20..=90)))
                    .collect();
                let mut body = Vec::new();
                for _ in 0..copies {
                    let (start, len) = cuts[rng.gen_range(0..cuts.len())];
                    push_supermer(&mut body, None, &genome, start, len);
                }
                (copies, body)
            })
            .collect();
        let parts: Vec<(u32, u64, &[u8])> = (bodies.iter().enumerate())
            .map(|(s, (copies, body))| (s as u32, *copies, &body[..]))
            .collect();
        let mut segment = Vec::new();
        write_supermer_block(&mut segment, 0, false, shapes.len() as u32, &parts);
        let index = build_block_index::<Kmer1, _>([&segment[..]], k).unwrap();
        let slot = &index.slots[0];
        let p = CountParams::for_kmer::<Kmer1>(k, SortAlgorithm::Raduls, 2, 50, false);
        let like = KmerHistogram::for_max_count(p.max_count);
        let sorted: Vec<(Vec<(Kmer1, u64)>, KmerHistogram)> = (0..shapes.len())
            .map(|section| {
                let mut lane: Lane<Kmer1, Kmer1> = Lane::new(&like);
                let counted = count_one_section(&mut lane, slot, section, &[], k, &p, None);
                assert!(!counted.hashed);
                let supermers = shapes[section].1 as usize;
                assert_eq!(
                    (counted.supermers, counted.distinct_supermers),
                    (supermers, supermers)
                );
                let run = counted.run.map(|run| run.counts).unwrap_or_default();
                (run, lane.histogram)
            })
            .collect();
        // One lane: section 1 in a table too small for it, then every section in ample
        // tables, section 1 again last.
        let mut lane: Lane<Kmer1, Kmer1> = Lane::new(&like);
        let mut histogram = KmerHistogram::for_max_count(p.max_count);
        for (section, slots) in [(1, 64), (0, 1 << 16), (2, 1 << 16), (3, 64), (1, 1 << 16)] {
            let counted = count_one_section(&mut lane, slot, section, &[], k, &p, Some(slots));
            let records = slot.sections[section].records;
            let tag = format!("section {section}, {slots} slots");
            assert_eq!(counted.hashed, slots > 64 || records <= 48, "{tag}");
            assert_eq!(counted.instances, records, "{tag}");
            assert_eq!(counted.supermers, shapes[section].1 as usize, "{tag}");
            // Copies over 64 bases are decoded each time they arrive.
            assert!(counted.distinct_supermers <= counted.supermers, "{tag}");
            if counted.hashed && section < 2 {
                assert!(counted.distinct_supermers < counted.supermers, "{tag}");
            }
            let run = counted.run.map(|run| run.counts).unwrap_or_default();
            assert_eq!(run, sorted[section].0, "{tag}");
            histogram.merge(&sorted[section].1);
            assert_eq!(lane.histogram, histogram, "{tag}");
        }
    }

    /// The gate follows the input inside one task: a lane that has seen duplicated
    /// sections hashes, sorts once sections of distinct keys arrive, and hashes again
    /// when the duplication comes back — and the task counts as the reference does.
    #[test]
    fn a_lane_switches_between_table_and_sort_inside_one_task() {
        let k = 31;
        let mut rng = StdRng::seed_from_u64(60);
        let sections: Vec<Vec<Kmer1>> = [100, 100, 4_000, 4_000, 100, 100, 100, 100]
            .into_iter()
            .map(|distinct| random_kmers(&mut rng, k, 4_000, distinct))
            .collect();
        let mut segment = Vec::new();
        kmer_sections(&mut segment, 0, k, &sections);
        let index = build_block_index::<Kmer1, _>([&segment[..]], k).unwrap();
        let p = CountParams::for_kmer::<Kmer1>(k, SortAlgorithm::Raduls, 2, 50, false);

        let mut lane: Lane<Kmer1, Kmer1> = Lane::new(&KmerHistogram::for_max_count(50));
        let mut runs = Vec::new();
        let hashed: Vec<bool> = (0..sections.len())
            .map(|section| {
                let records = index.slots[0].sections[section].records;
                let slots = lane.dup.table_slots::<Kmer1>(records);
                let counted =
                    count_one_section(&mut lane, &index.slots[0], section, &[], k, &p, slots);
                runs.extend(counted.run.map(|run| run.counts));
                counted.hashed
            })
            .collect();
        assert_eq!(hashed, [false, true, false, false, false, true, true, true]);

        let mut scratch = CountScratch::new(p.max_count);
        let counted = count_task(&index.slots[0], k, &p, 0, &mut scratch).unwrap();
        let counted: Vec<Vec<(Kmer1, u64)>> = counted.into_iter().map(|run| run.counts).collect();
        assert_eq!(counted, runs);
        let all: Vec<Kmer1> = sections.concat();
        let expected = reference_run(&all, &[], k, &p);
        let mut merged: Vec<(Kmer1, u64)> = runs.concat();
        merged.sort_unstable();
        assert_eq!(merged, expected.0);
        assert_eq!(lane.histogram, expected.1);
    }

    const MISMATCH_K: usize = 21;

    /// One segment holding task 7: a block of `actual` one-k-mer supermers and a
    /// kmerlist of ten entries.
    fn task_seven(actual: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(46);
        let mut b = TaskBuilder {
            rng: &mut rng,
            k: MISMATCH_K,
        };
        let mut segment = Vec::new();
        let kmers = b.kmers::<Kmer1>(actual, actual / 10, 0);
        kmer_block(&mut segment, 7, MISMATCH_K, &kmers, None);
        b.kmerlist(&mut segment, 7, kmers[..10].to_vec());
        segment
    }

    /// The four ways a slot's header-derived totals can be at odds with its blocks:
    /// (records announced, kmerlist entries announced, records held).
    const MISMATCHES: [(usize, usize, usize); 4] = [
        (70_000, 10, 100_000),  // the headers announce too few
        (100_001, 10, 100_000), // the decode comes up short
        (999, 10, 1_000),       // a small task decodes long
        (1_000, 11, 1_000),     // the kmerlist total
    ];

    /// A slot whose header-derived totals are not what its blocks hold must not count
    /// short: counting it is a `CountMismatch` naming the task and both totals, and the
    /// scratch it was counted in still counts the honest slot.
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
            let runs = |scratch: &mut CountScratch<Kmer1>| -> Vec<Vec<(Kmer1, u64)>> {
                let runs = count_task(&honest, k, &p, 0, scratch).unwrap();
                runs.into_iter().map(|run| run.counts).collect()
            };
            assert_eq!(
                runs(&mut scratch),
                runs(&mut CountScratch::new(p.max_count))
            );
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
