//! The HySortK counting pipeline.
//!
//! One call to [`count_kmers`] — or to a file entry point of [`crate::ingest`] — runs
//! the full three-stage algorithm of the paper on a simulated cluster. Both are the one
//! run driver ([`run`]) and the one rank driver over an [`Input`], which holds all that
//! depends on the source: the size estimate and how stage 1 is fed.
//!
//!
//! 1. **Parse** — every rank reads its share of the input, finds minimizers with the
//!    monotone-deque sliding window and groups consecutive k-mers into supermers
//!    addressed to one of `s × S` minimizer targets: `s` tasks (`s ≫ p` when the task
//!    layer is on), each cut into `S` **sections** — the target's task is
//!    `target mod s`, exactly the task of an unsectioned run, and its section
//!    `target / s`. `S` is derived from the input size (`derive_sections`): 1 on
//!    small inputs, up to 256 on large ones, so that an average section fits stage 3's
//!    cache. Each supermer is encoded once, where it is found, in wire form; a parse call
//!    of about a mebibase appends it, with the call's other supermers of its section,
//!    to its task's **body** ([`Stage1Parser`], [`parse_supermers_parallel`]). A rank
//!    leaves stage 1 holding one body per task ([`RunReport::staged_bytes`]) and nothing
//!    of the reads.
//! 2. **Exchange** — task sizes are reduced across ranks, tasks are assigned to ranks
//!    with the greedy Partition heuristic, and the per-destination byte streams are
//!    exchanged in task-batched rounds over the non-blocking round engine
//!    ([`crate::overlap`]). Serialising a task ([`SendSerializer`]) is block header +
//!    section directory + the body's sections + checksum and frees the body; only a
//!    heavy-hitter task has work to do — it decodes its own body into an in-cache
//!    `(k-mer, count)` table and ships the distinct pairs as a pre-counted kmerlist.
//! 3. **Sort & count** — one cheap header pass builds a per-task, per-section block
//!    index over each completed round, then the worker pool counts each task one
//!    section at a time: it decodes the section straight from the borrowed wire bytes
//!    into a reused buffer — or, once the lane has seen the input duplicated, into a
//!    small table that keeps only the distinct keys — radix-sorts that buffer
//!    (choosing the in-place or out-of-place sorter by modeled memory pressure) and
//!    counts it with a streaming run merge, filtered to the `[min_count, max_count]`
//!    band, into one sorted run per section (see [`crate::stage3`]).
//!
//! A rank returns its sections' sorted runs as the count jobs emitted them, and once every
//! rank has joined the root moves them into the result as they are
//! ([`merge_outputs`], [`KmerRuns`]): the table is held once, and key order is merged
//! only for a caller that asks ([`KmerRuns::sorted`], [`KmerRuns::sorted_vec`]). Only an
//! extension run assembles at the root — **one** parallel pass over all the runs
//! ([`stage3::assemble_tasks`]) on a pool as wide as the whole run's thread budget —
//! because its extension lists are parallel to one table.
//!
//! All data movement happens through the simulated cluster, so the traffic and work
//! counters in the returned [`RunReport`] are measurements, not estimates; only the
//! conversion to seconds goes through the performance model.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use hysortk_dmem::{Cluster, CommStats, FaultPlan, RankCtx, Wire};
use hysortk_dna::extension::Extension;
use hysortk_dna::io::{IngestOptions, InputFile};
use hysortk_dna::kmer::KmerCode;
use hysortk_dna::readset::{Read, ReadSet};
use hysortk_perfmodel::network::ExchangeProfile;
use hysortk_perfmodel::{PerfModel, SortAlgorithm, StageTimes};
use hysortk_sort::IN_CACHE_BYTES;
use hysortk_supermer::mmer::{MmerScorer, ScoreFunction};
use hysortk_supermer::streaming::{for_each_supermer, SupermerScratch};
use hysortk_task::{
    assign_greedy, detect_heavy_tasks, schedule_lpt, Assignment, ScratchBank, WorkerPool,
};
use hysortk_trace as trace;

use crate::checkpoint::{run_fingerprint, sizes_hash, CountedState, RoundCheckpointer};
use crate::config::HySortKConfig;
use crate::error::HysortkError;
use crate::ingest::ingest_shard;
use crate::result::{CountResult, KmerHistogram, KmerRuns, RunReport, StageWallTimes};
use crate::stage3::{self, CountParams, TaskCounts};
use crate::table;
use crate::wire::{
    push_supermer, write_block, write_supermer_block, SupermersView, TaskPayload, MAX_SECTIONS,
};

/// Measured wall-clock seconds of one rank, bucketed by pipeline stage. The
/// buckets are accumulated with plain `Instant` deltas at a handful of sites
/// per round — cheap enough to stay on unconditionally, independent of the
/// tracing flag — and aggregated across ranks into
/// [`StageWallTimes`] by [`merge_outputs`]. `total` spans the whole rank
/// closure; the un-bucketed residue becomes the `other` stage, so the stages
/// always sum to the rank's wall time.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WallBuckets {
    pub(crate) ingest: f64,
    pub(crate) parse: f64,
    pub(crate) serialize: f64,
    pub(crate) exchange_wait: f64,
    pub(crate) count: f64,
    pub(crate) checkpoint: f64,
    pub(crate) total: f64,
}

impl WallBuckets {
    /// Stage names, in pipeline order, parallel to [`WallBuckets::to_stage_vec`]. A
    /// rank merges nothing — it ships its runs as they are, and the root's share is
    /// [`RunReport::gather_s`].
    pub(crate) const NAMES: [&'static str; 7] = [
        "ingest",
        "parse",
        "serialize",
        "exchange-wait",
        "count",
        "checkpoint",
        "other",
    ];

    /// The per-stage seconds, with everything `total` covers but no named
    /// bucket caught as `other`.
    pub(crate) fn to_stage_vec(self) -> Vec<f64> {
        let named = self.ingest
            + self.parse
            + self.serialize
            + self.exchange_wait
            + self.count
            + self.checkpoint;
        vec![
            self.ingest,
            self.parse,
            self.serialize,
            self.exchange_wait,
            self.count,
            self.checkpoint,
            (self.total - named).max(0.0),
        ]
    }
}

/// Run `f`, adding its wall time to `bucket`.
pub(crate) fn timed<T>(bucket: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *bucket += start.elapsed().as_secs_f64();
    out
}

/// Work counters measured by one rank.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankCounters {
    pub(crate) bases_parsed: u64,
    pub(crate) kmers_parsed: u64,
    heavy_local_sorted: u64,
    received_elements: u64,
    precounted_elements: u64,
    worker_makespan: u64,
    exchange_rounds: usize,
    assignment_imbalance: f64,
    heavy_tasks: usize,
    /// Bytes this rank serialized/counted while a round was in flight.
    overlap_hidden_bytes: u64,
    /// Bytes of the pipeline's fill and drain (round 0 serialize, last round count)
    /// that nothing could hide — with one unbounded round, all of them.
    overlap_exposed_bytes: u64,
    /// Checkpoint epochs this rank committed (zero without a checkpoint directory).
    epochs_committed: u64,
    /// Bytes of stage-1 staging this rank held when stage 1 ended.
    staged_bytes: u64,
    /// Sections stage 1 cut every task into.
    sections: u32,
    /// High-water bytes of this rank's count buffers.
    count_buffer_bytes: u64,
    /// Measured wall-clock seconds of this rank, bucketed by stage.
    pub(crate) wall: WallBuckets,
}

/// Per-rank result of the pipeline: the rank's counted tasks — each a sorted run of
/// retained k-mers, as its count job emitted it — for the root to assemble.
pub(crate) struct RankOutput<K: KmerCode> {
    pub(crate) tasks: Vec<TaskCounts<K>>,
    pub(crate) histogram: KmerHistogram,
    pub(crate) counters: RankCounters,
}

impl Wire for WallBuckets {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self.to_stage_vec() {
            v.encode(out);
        }
        self.total.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let mut stages = [0f64; WallBuckets::NAMES.len()];
        for slot in &mut stages {
            *slot = f64::decode(input)?;
        }
        let [ingest, parse, serialize, exchange_wait, count, checkpoint, _other] = stages;
        Some(WallBuckets {
            ingest,
            parse,
            serialize,
            exchange_wait,
            count,
            checkpoint,
            total: f64::decode(input)?,
        })
    }
}

impl Wire for RankCounters {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bases_parsed.encode(out);
        self.kmers_parsed.encode(out);
        self.heavy_local_sorted.encode(out);
        self.received_elements.encode(out);
        self.precounted_elements.encode(out);
        self.worker_makespan.encode(out);
        self.exchange_rounds.encode(out);
        self.assignment_imbalance.encode(out);
        self.heavy_tasks.encode(out);
        self.overlap_hidden_bytes.encode(out);
        self.overlap_exposed_bytes.encode(out);
        self.epochs_committed.encode(out);
        self.staged_bytes.encode(out);
        self.sections.encode(out);
        self.count_buffer_bytes.encode(out);
        self.wall.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(RankCounters {
            bases_parsed: u64::decode(input)?,
            kmers_parsed: u64::decode(input)?,
            heavy_local_sorted: u64::decode(input)?,
            received_elements: u64::decode(input)?,
            precounted_elements: u64::decode(input)?,
            worker_makespan: u64::decode(input)?,
            exchange_rounds: usize::decode(input)?,
            assignment_imbalance: f64::decode(input)?,
            heavy_tasks: usize::decode(input)?,
            overlap_hidden_bytes: u64::decode(input)?,
            overlap_exposed_bytes: u64::decode(input)?,
            epochs_committed: u64::decode(input)?,
            staged_bytes: u64::decode(input)?,
            sections: u32::decode(input)?,
            count_buffer_bytes: u64::decode(input)?,
            wall: WallBuckets::decode(input)?,
        })
    }
}

/// Codec carrying a rank's entire output home from a forked rank process: its runs
/// ([`TaskCounts`]' codec, extensions included), its histogram and its counters.
impl<K: KmerCode> Wire for RankOutput<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tasks.encode(out);
        self.histogram.encode(out);
        self.counters.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(RankOutput {
            tasks: TaskCounts::decode_runs(input)?,
            histogram: KmerHistogram::decode(input)?,
            counters: RankCounters::decode(input)?,
        })
    }
}

/// One task as stage 1 staged it: its supermers in wire form ([`push_supermer`]), in
/// **one** buffer — what its fill frees in one piece — parse call after parse
/// call, each call's share section after section. With the bytes every section got from
/// each call that staged any, the supermers every section got in all, and the two
/// totals the task-size reduction and the block header need.
#[derive(Debug, Default)]
pub(crate) struct TaskBody {
    pub(crate) bytes: Vec<u8>,
    /// Call `c`'s bytes of section `s` at `c × S + s`.
    call_bytes: Vec<u32>,
    /// Per section.
    section_supermers: Vec<u64>,
    pub(crate) supermers: u64,
    pub(crate) kmers: u64,
}

impl TaskBody {
    /// The staged bytes as `(section, supermers, bytes)` parts for
    /// [`write_supermer_block`]: section by section, within a section call by call (the
    /// section's supermers counted on its first part).
    fn parts(&self) -> Vec<(u32, u64, &[u8])> {
        let sections = self.section_supermers.len().max(1);
        let mut at: Vec<usize> = (self.call_bytes.chunks_exact(sections))
            .scan(0, |start, call| {
                let here = *start;
                *start += call.iter().map(|&bytes| bytes as usize).sum::<usize>();
                Some(here)
            })
            .collect();
        let mut parts = Vec::new();
        for (section, &supermers) in self.section_supermers.iter().enumerate() {
            let mut supermers = supermers;
            for (call, at) in at.iter_mut().enumerate() {
                let bytes = self.call_bytes[call * sections + section] as usize;
                if bytes > 0 {
                    let part = &self.bytes[*at..][..bytes];
                    parts.push((section as u32, std::mem::take(&mut supermers), part));
                    *at += bytes;
                }
            }
        }
        parts
    }
}

/// What a rank stages locally before the exchange: one supermer body per task, ready to
/// be sent, and the number of sections every task is cut into.
pub(crate) struct Stage1 {
    pub(crate) bodies: Vec<TaskBody>,
    pub(crate) sections: u32,
}

impl Stage1 {
    /// K-mers this rank staged for each task.
    pub(crate) fn local_sizes(&self) -> Vec<u64> {
        self.bodies.iter().map(|b| b.kmers).collect()
    }

    /// Bytes the staging holds: the task bodies.
    pub(crate) fn staged_bytes(&self) -> u64 {
        self.bodies.iter().map(|b| b.bytes.len() as u64).sum()
    }
}

/// The send-side serializer: it owns the stage-1 staging and writes **one task's** wire
/// blocks into a buffer on demand, so a task's bytes do not depend on the round it is
/// packed into (which is what makes outputs byte-identical across round plans). A
/// supermer task is *block header, section directory, staged body section by section,
/// seal* — a copy; a heavy-hitter task decodes its staged body into a `(k-mer, count)`
/// table and ships its distinct pairs, sorted, as a kmerlist of `K`s (§3.5; a body that
/// outgrows the table is sorted and scanned). Serialising a task takes its staging with
/// it: each task must be serialised at most once, and its memory is free afterwards.
pub(crate) struct SendSerializer<'a, K: KmerCode> {
    staged: Stage1,
    heavy: &'a [usize],
    cfg: &'a HySortKConfig,
    _kmer: PhantomData<K>,
}

impl<'a, K: KmerCode> SendSerializer<'a, K> {
    pub(crate) fn new(staged: Stage1, heavy: &'a [usize], cfg: &'a HySortKConfig) -> Self {
        SendSerializer {
            staged,
            heavy,
            cfg,
            _kmer: PhantomData,
        }
    }

    /// Append task `t`'s wire blocks to `out` (nothing is written for an empty task).
    /// Returns the k-mers pre-counted locally when `t` is a heavy-hitter task, zero
    /// otherwise.
    pub(crate) fn serialize_task(&mut self, t: usize, out: &mut Vec<u8>) -> u64 {
        let body = std::mem::take(&mut self.staged.bodies[t]);
        if body.supermers == 0 {
            return 0;
        }
        if self.heavy.binary_search(&t).is_err() {
            let (provenance, sections) = (self.cfg.with_extension, self.staged.sections);
            write_supermer_block(out, t as u32, provenance, sections, &body.parts());
            return 0;
        }
        // Heavy-hitter path: pre-count locally, ship a kmerlist (§3.5). Heavy tasks exist
        // only without extensions, so the body is bare supermers back to back, whatever
        // their sections. The few distinct keys of a satellite pile into a few sections,
        // so the whole body is counted in one table, not section by section.
        let view = SupermersView::staged(body.supermers as usize, &body.bytes, false);
        let list = table::precount::<K>(&view, self.cfg.k, body.kmers as usize);
        write_block(out, t as u32, &TaskPayload::<K>::KmerList(list));
        body.kmers
    }
}

/// Bases one parse call stages: [`Stage1Parser::parse`] cuts longer inputs into calls of
/// about this many, and the file feed gathers ingested batches until they hold as many.
/// A call's supermers wait in the workers' scratches until they are folded into the
/// task bodies, and every call adds one entry per section to each task it staged for,
/// so this bounds the one from above and the other from below.
pub(crate) const PARSE_CALL_BASES: usize = 1 << 20;

/// What one worker of the parallel parse keeps between calls: the extractor's segment
/// buffers, and the supermers of the chunk it is parsing — in wire form, in read order,
/// with each one's minimizer target and wire length, and the k-mers per task — until
/// they are folded into the task bodies.
#[derive(Default)]
pub(crate) struct ParseScratch {
    supermer: SupermerScratch,
    bytes: Vec<u8>,
    staged: Vec<(u32, u32)>,
    kmers: Vec<u64>,
}

/// Stage 1 in supermer mode: stream `reads` through the fused extractor
/// ([`for_each_supermer`]) on the rank's worker pool at `tasks × sections` minimizer
/// targets (`tasks` the length of `bodies`) and stage every supermer, in wire form, in
/// its target's section — task `target mod tasks`, section `target / tasks` — written
/// where it is found, while the read is in cache; nothing of `reads` is referenced
/// afterwards. With `provenance` the supermers carry `(read id, start)`
/// ([`push_supermer`]).
///
/// The reads are cut into one contiguous chunk per pool thread; each worker writes its
/// chunk, in read order, into a [`ParseScratch`] checked out of `bank`. The call is then
/// appended to every task it staged for as one region, its sections in order, each
/// holding the chunks' supermers of that section in read order. A section's bytes, call
/// after call, are therefore the ones a sequential parse writes, whatever the pool width
/// and however the reads are cut into calls ([`Stage1Parser::parse`], reusing the
/// scratches).
#[allow(clippy::too_many_arguments)]
pub(crate) fn parse_supermers_parallel(
    reads: &[Read],
    k: usize,
    scorer: &MmerScorer,
    provenance: bool,
    pool: &WorkerPool,
    bank: &ScratchBank<ParseScratch>,
    bodies: &mut [TaskBody],
    sections: u32,
) {
    let (tasks, sections) = (bodies.len(), sections as usize);
    let targets = tasks * sections;
    let per_thread = reads.len().div_ceil(pool.total_threads()).max(1);
    let parsed = pool.execute(reads.chunks(per_thread).collect(), |chunk| {
        let mut scratch = bank.checkout(ParseScratch::default);
        let ParseScratch {
            supermer,
            bytes,
            staged,
            kmers,
        } = &mut *scratch;
        kmers.resize(tasks, 0);
        for read in chunk {
            for_each_supermer(&read.seq, k, scorer, targets as u32, supermer, |span| {
                let before = bytes.len();
                let from = provenance.then_some((read.id, span.start));
                push_supermer(bytes, from, &read.seq, span.start as usize, span.len());
                staged.push((span.target, (bytes.len() - before) as u32));
                kmers[span.target as usize % tasks] += span.num_kmers(k) as u64;
            });
        }
        scratch
    });

    // The call's bytes and supermers per target, and each task's region laid out at the
    // end of its body: a cursor per target.
    let mut counts = vec![(0u32, 0u32); targets];
    for &(target, len) in parsed.iter().flat_map(|scratch| &scratch.staged) {
        let (bytes, supermers) = &mut counts[target as usize];
        *bytes = (bytes.checked_add(len)).expect("a call stages under 4 GiB per section");
        *supermers += 1;
    }
    let mut cursor = vec![0usize; targets];
    for (task, body) in bodies.iter_mut().enumerate() {
        let of = |section: usize| counts[task + tasks * section];
        if (0..sections).all(|section| of(section).1 == 0) {
            continue;
        }
        body.section_supermers.resize(sections, 0);
        let mut at = body.bytes.len();
        for section in 0..sections {
            let (bytes, supermers) = of(section);
            cursor[task + tasks * section] = at;
            at += bytes as usize;
            body.call_bytes.push(bytes);
            body.section_supermers[section] += u64::from(supermers);
            body.supermers += u64::from(supermers);
        }
        body.bytes.resize(at, 0);
    }
    // The chunks in read order, each supermer to its target's cursor. The checkouts go
    // back to the bank, emptied (capacity kept), as they drop.
    for mut scratch in parsed {
        let mut from = 0;
        for &(target, len) in &scratch.staged {
            let (target, len) = (target as usize, len as usize);
            let at = cursor[target];
            bodies[target % tasks].bytes[at..at + len]
                .copy_from_slice(&scratch.bytes[from..from + len]);
            cursor[target] += len;
            from += len;
        }
        for (body, kmers) in bodies.iter_mut().zip(&mut scratch.kmers) {
            body.kmers += std::mem::take(kmers);
        }
        scratch.bytes.clear();
        scratch.staged.clear();
    }
}

/// Count the canonical k-mers of `reads` with the full HySortK pipeline.
///
/// The k-mer width `K` must satisfy `cfg.k <= K::max_k()`; use
/// [`hysortk_dna::Kmer1`] for k ≤ 32 and [`hysortk_dna::Kmer2`] for k ≤ 64.
pub fn count_kmers<K: KmerCode>(reads: &ReadSet, cfg: &HySortKConfig) -> CountResult<K> {
    // Without a fault plan or foreign wire bytes, an invalid configuration and an
    // unwritable checkpoint directory are the failures left: caller errors here.
    let input = Input::Reads(reads, reads.partition_by_bases(cfg.total_ranks()));
    run(input, cfg, None).unwrap_or_else(|e| panic!("in-memory pipeline failed: {e}"))
}

/// Where a run's reads come from — the only part of a run that depends on its source.
pub(crate) enum Input<'a> {
    /// Reads in memory, and each rank's share of them by bases.
    Reads(&'a ReadSet, Vec<Range<usize>>),
    /// Files, each rank streaming its byte shard of them ([`crate::ingest`]).
    Files(&'a [InputFile], IngestOptions),
}

impl Input<'_> {
    /// About how many `(k-mers, bases)` the input holds, from which the sorter and the
    /// sections are derived. Files count their on-disk bytes for both: ASCII bytes ≈
    /// bases ≈ k-mers for FASTA; a mild overestimate for FASTQ, which only makes the
    /// memory-aware choice more conservative and the sections smaller.
    fn size(&self, k: usize) -> (u64, u64) {
        match self {
            Input::Reads(reads, _) => (reads.total_kmers(k) as u64, reads.total_bases() as u64),
            Input::Files(files, _) => {
                let bytes = files.iter().map(|f| f.bytes).sum();
                (bytes, bytes)
            }
        }
    }

    /// Stage 1 of one rank: feed its reads to `parser`. Returns the error that stopped
    /// a file feed, if one did; what was read until then is staged.
    fn stage1(
        &self,
        ctx: &RankCtx,
        cfg: &HySortKConfig,
        parser: &mut Stage1Parser<'_>,
        counters: &mut RankCounters,
    ) -> Result<(), HysortkError> {
        match self {
            Input::Reads(reads, ranges) => {
                let start = Instant::now();
                parser.parse(&reads.reads()[ranges[ctx.rank()].clone()], counters);
                counters.wall.parse += start.elapsed().as_secs_f64();
                Ok(())
            }
            Input::Files(files, opts) => ingest_shard(ctx, files, cfg, opts, parser, counters),
        }
    }
}

/// Run the pipeline on `input` over a cluster of `cfg.total_ranks()` ranks, with `plan`'s
/// faults injected when one is given: validate, derive the sorter and the sections, run
/// every rank ([`rank_pipeline`]), and combine their outputs ([`merge_outputs`]).
///
/// Rank failures (an injected crash and the peer echoes it leaves behind) are the
/// recoverable class: every affected rank unwound through the abort board, so the
/// cluster can respawn the whole generation. A respawn restores from the last committed
/// checkpoint epoch when one is configured, and recounts from scratch when not — both
/// reproduce the fault-free counts exactly. Concrete local defects (wire corruption, I/O
/// exhaustion, config rejection) stay immediate typed aborts, and the error returned is
/// the root cause: a peer-failure echo never displaces a concrete error.
pub(crate) fn run<K: KmerCode>(
    input: Input<'_>,
    cfg: &HySortKConfig,
    plan: Option<Arc<FaultPlan>>,
) -> Result<CountResult<K>, HysortkError> {
    cfg.validate().map_err(HysortkError::Config)?;
    assert!(
        cfg.k <= K::max_k(),
        "k = {} exceeds the chosen k-mer width",
        cfg.k
    );
    let num_tasks = cfg.num_tasks();
    let model = PerfModel::new(cfg.machine.clone(), cfg.execution());
    let (kmers, bases) = input.size(cfg.k);
    let sorter = select_sorter::<K>(cfg, &model, kmers, bases);
    let sections = derive_sections(kmers, record_bytes::<K>(cfg), num_tasks);

    let mut cluster = Cluster::new(cfg.total_ranks()).with_backend(cfg.backend);
    if let Some(plan) = plan {
        cluster = cluster.with_fault_plan(plan);
    }
    let recoverable = |e: &HysortkError| match e {
        HysortkError::Comm(d) => d.is_rank_failure(),
        _ => false,
    };
    let run = cluster.run_recovering_wire(cfg.recovery_attempts, recoverable, |ctx| {
        rank_pipeline::<K>(ctx, &input, cfg, num_tasks, sorter, sections)
    });
    let joined = Instant::now();
    let (outputs, errors): (Vec<_>, Vec<_>) = run.results.into_iter().partition(Result::is_ok);
    // Keep the root cause: a peer-failure echo never displaces a concrete local error.
    let errors = errors.into_iter().filter_map(Result::err);
    if let Some(e) = errors.min_by_key(HysortkError::is_peer_echo) {
        return Err(e);
    }
    let outputs = outputs.into_iter().filter_map(Result::ok).collect();
    Ok(merge_outputs(
        outputs,
        run.comm,
        cfg,
        &model,
        sorter,
        run.recoveries,
        joined,
    ))
}

/// Decide the local sorter the way HySortK does: look at the payload — `kmers` and
/// `bases` of input, projected to full scale — and the node memory. Deterministic, so
/// identical on every rank. Since stage 3 sorts section by section it only picks the
/// in-section kernel — RADULS costs one more section-sized buffer per thread than
/// PARADIS, not a copy of the data.
pub(crate) fn select_sorter<K: KmerCode>(
    cfg: &HySortKConfig,
    model: &PerfModel,
    kmers: u64,
    bases: u64,
) -> SortAlgorithm {
    let nodes = cfg.nodes.max(1) as u64;
    let raduls_ok = model.memory().raduls_fits(
        (kmers as f64 / cfg.data_scale) as u64 / nodes,
        record_bytes::<K>(cfg),
        (bases as f64 / 4.0 / cfg.data_scale) as u64 / nodes,
    );
    if raduls_ok {
        SortAlgorithm::Raduls
    } else {
        SortAlgorithm::Paradis
    }
}

/// Wire size of one k-mer record in the receive buffer (used for the memory projection,
/// the sort-cost byte width and the section size).
fn record_bytes<K: KmerCode>(cfg: &HySortKConfig) -> usize {
    K::WORDS * 8
        + if cfg.with_extension {
            Extension::WIRE_BYTES
        } else {
            0
        }
}

/// What an average section of a task should hold at most: half the range RADULS sorts
/// in cache, so that a section and the kernel's second buffer fit it together.
const SECTION_BYTES: u64 = IN_CACHE_BYTES as u64 / 2;

/// How many sections stage 1 cuts each of `tasks` tasks into, for `records` records of
/// `record_bytes` each in all: the smallest power of two that brings an average
/// section to at most [`SECTION_BYTES`], within `1..=MAX_SECTIONS` and such that the
/// `tasks × S` minimizer targets are `u32`s. A function of the input size and the
/// configuration only, so every rank derives the same `S`, and never set.
fn derive_sections(records: u64, record_bytes: usize, tasks: usize) -> u32 {
    let task_bytes = records
        .div_ceil(tasks.max(1) as u64)
        .saturating_mul(record_bytes as u64);
    let mut sections = (task_bytes.div_ceil(SECTION_BYTES).next_power_of_two())
        .min(u64::from(MAX_SECTIONS)) as u32;
    while sections > 1 && u32::try_from(tasks).map_or(true, |t| t.checked_mul(sections).is_none()) {
        sections /= 2;
    }
    sections
}

/// One rank of the pipeline: stage 1 over its share of the input ([`Input::stage1`]),
/// then the staged supermers go to stages 2 + 3.
///
/// An input error (unreadable file, malformed FASTQ record, …) must **not** make the
/// rank bail out early: the pipeline is SPMD, so a rank that skips the collectives
/// deadlocks every other rank inside the task-size allreduce or the exchange. The
/// rank instead stops reading, runs the remaining stages with whatever it parsed,
/// and reports the input error once the collectives are over — it takes precedence
/// over any later stage error, which can only be downstream fallout.
fn rank_pipeline<K: KmerCode>(
    ctx: &mut RankCtx,
    input: &Input<'_>,
    cfg: &HySortKConfig,
    num_tasks: usize,
    sorter: SortAlgorithm,
    sections: u32,
) -> Result<RankOutput<K>, HysortkError> {
    let rank_start = Instant::now();
    let rank = ctx.rank();
    let mut counters = RankCounters::default();
    let pool = WorkerPool::new(cfg.workers_per_process(), cfg.threads_per_worker).for_rank(rank);

    let ingest_span = trace::span!("stage1-ingest", trace::Detail::Stage, rank);
    let mut parser = Stage1Parser::new(cfg, num_tasks, sections, &pool);
    let ingested = input.stage1(ctx, cfg, &mut parser, &mut counters);
    let stage1 = parser.finish();
    ingest_span.end_with(&[
        ("staged_bytes", stage1.staged_bytes()),
        ("sections", u64::from(sections)),
    ]);

    let output =
        stages_2_and_3(ctx, stage1, counters, cfg, num_tasks, sorter, &pool).map(|mut out| {
            out.counters.wall.total = rank_start.elapsed().as_secs_f64();
            out
        });
    ingested.and(output)
}

/// A rank's stage 1: reads go in, batch by batch, and the per-task staging comes out.
/// Every read streams through the fused scoring→minimizer→supermer extractor,
/// rank-parallel over the worker pool, and each supermer is written in wire form into its
/// section's body ([`parse_supermers_parallel`]). Every [`Input`] feeds the same parser,
/// so the sources cannot diverge on what they stage.
pub(crate) struct Stage1Parser<'a> {
    staged: Stage1,
    bank: ScratchBank<ParseScratch>,
    scorer: MmerScorer,
    cfg: &'a HySortKConfig,
    pool: &'a WorkerPool,
}

impl<'a> Stage1Parser<'a> {
    /// A parser staging `num_tasks` tasks of `sections` sections each.
    pub(crate) fn new(
        cfg: &'a HySortKConfig,
        num_tasks: usize,
        sections: u32,
        pool: &'a WorkerPool,
    ) -> Self {
        Stage1Parser {
            staged: Stage1 {
                bodies: (0..num_tasks).map(|_| TaskBody::default()).collect(),
                sections,
            },
            bank: ScratchBank::new(),
            scorer: MmerScorer::new(cfg.m, ScoreFunction::Hash { seed: cfg.seed }),
            cfg,
            pool,
        }
    }

    /// Stage the k-mers of `reads`, whose ids are final, and count what was parsed into
    /// `counters`. Nothing of `reads` is referenced once this returns.
    pub(crate) fn parse(&mut self, reads: &[Read], counters: &mut RankCounters) {
        let (k, cfg) = (self.cfg.k, self.cfg);
        for read in reads {
            counters.bases_parsed += read.len() as u64;
            counters.kmers_parsed += read.seq.num_kmers(k) as u64;
        }
        let mut rest = reads;
        while !rest.is_empty() {
            let mut bases = 0;
            let call = (rest.iter())
                .position(|read| {
                    bases += read.len();
                    bases >= PARSE_CALL_BASES
                })
                .map_or(rest.len(), |last| last + 1);
            let (call, tail) = rest.split_at(call);
            parse_supermers_parallel(
                call,
                k,
                &self.scorer,
                cfg.with_extension,
                self.pool,
                &self.bank,
                &mut self.staged.bodies,
                self.staged.sections,
            );
            rest = tail;
        }
    }

    /// The staging; the workers' parse scratches are freed.
    pub(crate) fn finish(self) -> Stage1 {
        self.staged
    }
}

/// Stages 2 and 3 of the rank pipeline — task sizing, assignment, heavy-hitter
/// conversion, serialisation, exchange, sort & count — the same for every [`Input`],
/// which is what makes the outputs of the sources identical by construction once stage
/// 1 has staged the same reads.
///
/// Fails with a typed [`HysortkError`] when a collective aborts (a peer failed, a
/// fault fired) or a received segment fails its wire checks; every local failure is
/// published cluster-wide before returning, so no peer is left blocked.
pub(crate) fn stages_2_and_3<K: KmerCode>(
    ctx: &mut RankCtx,
    stage1: Stage1,
    mut counters: RankCounters,
    cfg: &HySortKConfig,
    num_tasks: usize,
    sorter: SortAlgorithm,
    pool: &WorkerPool,
) -> Result<RankOutput<K>, HysortkError> {
    let p = ctx.size();
    let k = cfg.k;
    let workers = cfg.workers_per_process();

    // ---------------- task sizing, assignment, heavy hitters -------------------------
    let local_sizes = stage1.local_sizes();
    counters.staged_bytes = stage1.staged_bytes();
    counters.sections = stage1.sections;
    // The "root retrieves data about the size of each task" step, realised as a
    // butterfly sum all-reduce so every rank computes the same assignment
    // deterministically at O(log p) vector transfers per rank.
    let global_sizes = timed(&mut counters.wall.exchange_wait, || {
        let _span = trace::span!("allreduce-task-sizes", trace::Detail::Stage, ctx.rank());
        ctx.allreduce_sum_u64(&local_sizes, "task-sizes")
    })?;

    let assignment = if cfg.use_task_layer {
        assign_greedy(&global_sizes, p)
    } else {
        identity_assignment(&global_sizes, p)
    };
    counters.assignment_imbalance = assignment.imbalance();

    // Heavy-hitter conversion ships pre-counted kmerlists, which carry no provenance:
    // converting with extensions requested would silently drop the extension lists of
    // every k-mer in a heavy task. The pipeline therefore bypasses the conversion
    // whenever `with_extension` is set (pinned by a regression test below).
    let heavy: Vec<usize> = if !cfg.with_extension {
        detect_heavy_tasks(&global_sizes, &cfg.heavy_hitter)
    } else {
        Vec::new()
    };
    counters.heavy_tasks = heavy.len();

    // ---------------- checkpointing -------------------------------------------------
    // The checkpointer opens after the task-size all-reduce: the fingerprint (config +
    // k-mer width + mode) and the sizes hash (input identity) are what restore
    // validates a manifest chain against. Restore triggers on `--resume` and on
    // recovery respawns (`generation > 0`); a fresh run just records the directory.
    let ckpt_open_start = Instant::now();
    let open_span = cfg
        .checkpoint_dir
        .is_some()
        .then(|| trace::span("checkpoint-open", trace::Detail::Stage, ctx.rank() as u32));
    let (mut ckpt, state) = match &cfg.checkpoint_dir {
        Some(dir) => {
            let fingerprint = run_fingerprint::<K>(cfg, num_tasks);
            match RoundCheckpointer::open(dir, cfg, ctx, fingerprint, sizes_hash(&global_sizes)) {
                Ok((c, state)) => (Some(c), state),
                Err(e) => {
                    // Opening is local-only work before any further collective;
                    // publish so peers already heading into the exchange unblock.
                    ctx.abort(&e.to_string());
                    return Err(e);
                }
            }
        }
        None => (None, CountedState::default()),
    };
    drop(open_span);
    if cfg.checkpoint_dir.is_some() {
        counters.wall.checkpoint += ckpt_open_start.elapsed().as_secs_f64();
    }

    // ---------------- stages 2 + 3: serialise, exchange, sort & count ----------------
    // One schedule — the round loop of [`crate::overlap`] — and `cfg.overlap` picks its
    // round budget. `true` (the paper's §3.3.1 mode) packs tasks into batched rounds of
    // `batch_size` records per rank per destination (global task sizes sum over ranks,
    // hence × p), scaled by `data_scale`: a scaled-down run is a miniature of the
    // full-size one, so its round *structure* must be the miniature of the full-size
    // structure too — otherwise the miniature collapses to one round and the measured
    // overlap fraction would be pure projection instead of measurement. `false` is the
    // bulk-synchronous ablation: no budget, so the plan is one round and the loop's
    // three steps — serialise and post everything, wait, count — are each a barrier.
    let ser = SendSerializer::new(stage1, &heavy, cfg);
    let params =
        CountParams::for_kmer::<K>(k, sorter, cfg.min_count, cfg.max_count, cfg.with_extension);
    let round_budget = if cfg.overlap {
        ((cfg.batch_size as f64 * p as f64 * cfg.data_scale).ceil() as u64).max(1)
    } else {
        u64::MAX
    };
    let run = crate::overlap::exchange_and_count::<K>(
        ctx,
        ser,
        &assignment.tasks_of,
        &global_sizes,
        round_budget,
        k,
        &params,
        pool,
        state,
        ckpt.as_mut(),
        &mut counters.wall,
    )?;
    counters.overlap_hidden_bytes = run.hidden_bytes;
    counters.overlap_exposed_bytes = run.exposed_bytes;
    counters.heavy_local_sorted = run.heavy_local_sorted;
    counters.exchange_rounds = run.rounds;
    counters.epochs_committed = ckpt.as_ref().map_or(0, |c| c.epochs_committed as u64);
    counters.worker_makespan = schedule_lpt(&run.task_sizes, workers).makespan();
    counters.received_elements = run.out.received_records;
    counters.precounted_elements = run.out.precounted_records;
    counters.count_buffer_bytes = run.out.buffer_bytes;

    // The sections' sorted runs go home as they are: together with the other ranks'
    // they are the result (`merge_outputs`), so a rank has nothing to merge.
    Ok(RankOutput {
        tasks: run.out.tasks,
        histogram: run.out.histogram,
        counters,
    })
}

/// The trivial assignment used when the task layer is disabled: task `t` → rank `t`.
fn identity_assignment(sizes: &[u64], ranks: usize) -> Assignment {
    assert_eq!(
        sizes.len(),
        ranks,
        "without the task layer there is one task per rank"
    );
    Assignment {
        rank_of: (0..ranks).collect(),
        tasks_of: (0..ranks).map(|r| vec![r]).collect(),
        load_of: sizes.to_vec(),
    }
}

/// Combine the per-rank outputs into the public result and build the report.
/// `recoveries` is how many times the cluster respawned failed ranks on the way to
/// these outputs (zero for a healthy or non-recovering run); `joined` is when the last
/// rank joined, from which [`RunReport::gather_s`] is measured.
pub(crate) fn merge_outputs<K: KmerCode>(
    outputs: Vec<RankOutput<K>>,
    comm: Vec<CommStats>,
    cfg: &HySortKConfig,
    model: &PerfModel,
    sorter: SortAlgorithm,
    recoveries: usize,
    joined: Instant,
) -> CountResult<K> {
    let scale = 1.0 / cfg.data_scale;

    // ---- collect the result ------------------------------------------------------------
    // Every task of every rank is a sorted run and a k-mer belongs to exactly one of
    // them, so the runs *are* the table: they move into the result as the count jobs
    // emitted them, and key order is merged only for a caller that asks
    // (`KmerRuns::sorted`, `KmerRuns::sorted_vec`). Extension lists are parallel to one
    // table, so an extension run assembles it here — one multiway merge over all the
    // runs, on a pool as wide as the thread budget the ranks (all joined by now) had
    // between them — and holds it as a single run.
    let mut histogram = KmerHistogram::for_max_count(cfg.max_count);
    let mut counters: Vec<RankCounters> = Vec::with_capacity(outputs.len());
    let mut tasks: Vec<TaskCounts<K>> = Vec::new();
    for out in outputs {
        histogram.merge(&out.histogram);
        counters.push(out.counters);
        tasks.extend(out.tasks);
    }
    let (counts, extensions) = if cfg.with_extension {
        let _span = trace::span!(
            "assemble-result",
            trace::Detail::Stage,
            0,
            runs = tasks.len(),
            entries = tasks.iter().map(|t| t.counts.len()).sum::<usize>(),
        );
        let (table, extensions) = WorkerPool::new(cfg.total_ranks() * cfg.threads_per_process, 1)
            .execute(vec![()], |()| stage3::assemble_tasks(&tasks, true))
            .pop()
            .expect("one job, one result");
        drop(tasks);
        (KmerRuns::from_sorted(table), extensions)
    } else {
        (
            KmerRuns::from_runs(tasks.into_iter().map(|t| t.counts)),
            None,
        )
    };

    // ---- projected work counters -----------------------------------------------------
    let max_bases = counters.iter().map(|c| c.bases_parsed).max().unwrap_or(0) as f64 * scale;
    let max_heavy_local = counters
        .iter()
        .map(|c| c.heavy_local_sorted)
        .max()
        .unwrap_or(0) as f64
        * scale;
    let max_makespan = counters
        .iter()
        .map(|c| c.worker_makespan)
        .max()
        .unwrap_or(0) as f64
        * scale;
    let max_received = counters
        .iter()
        .map(|c| c.received_elements + c.precounted_elements)
        .max()
        .unwrap_or(0) as f64
        * scale;
    let total_kmers: u64 =
        (counters.iter().map(|c| c.kmers_parsed).sum::<u64>() as f64 * scale) as u64;
    let heavy_tasks = counters.first().map(|c| c.heavy_tasks).unwrap_or(0);
    let assignment_imbalance = counters
        .first()
        .map(|c| c.assignment_imbalance)
        .unwrap_or(1.0);
    let staged_bytes = counters.iter().map(|c| c.staged_bytes).max().unwrap_or(0);
    let sections = counters.first().map_or(1, |c| c.sections);
    let count_buffer_bytes = (counters.iter())
        .map(|c| c.count_buffer_bytes)
        .max()
        .unwrap_or(0);
    // Ranks commit in lockstep but a failure can interrupt some mid-epoch; the
    // most-advanced rank is the honest "how far did the run durably get" figure.
    let epochs_committed = counters
        .iter()
        .map(|c| c.epochs_committed)
        .max()
        .unwrap_or(0) as usize;

    // ---- exchange traffic --------------------------------------------------------------
    // Project payloads to full scale first, then recompute rounds and padding from the
    // projected figures (padding measured on scaled-down data is an artefact of the
    // fixed batch size and must not be scaled up).
    let p = cfg.total_ranks();
    let batch_bytes = (cfg.batch_size * K::num_bytes(cfg.k)) as u64;
    let exchange_payload =
        |s: &CommStats| s.stage("exchange").map(|st| st.payload_bytes).unwrap_or(0);
    let max_rank_payload =
        (comm.iter().map(&exchange_payload).max().unwrap_or(0) as f64 * scale) as u64;
    let total_payload = (comm.iter().map(exchange_payload).sum::<u64>() as f64 * scale) as u64;
    let max_pair_payload = comm
        .iter()
        .enumerate()
        .map(|(r, s)| {
            s.sent_to
                .iter()
                .enumerate()
                .filter(|(d, _)| *d != r)
                .map(|(_, &b)| b)
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0);
    let max_pair_projected = (max_pair_payload as f64 * scale) as u64;
    let (max_rank_wire, rounds_projected) = hysortk_perfmodel::project_padded_exchange(
        max_rank_payload,
        max_pair_projected,
        batch_bytes,
        p.saturating_sub(1).max(1),
    );
    let total_wire = total_payload + (max_rank_wire - max_rank_payload) * p as u64;
    let off_node = comm
        .iter()
        .enumerate()
        .map(|(r, s)| s.off_node_fraction(r, cfg.processes_per_node))
        .fold(0.0f64, f64::max);

    // ---- modeled stage times -----------------------------------------------------------
    let compute = model.compute();
    let network = model.network();
    let bytes_per_record = record_bytes::<K>(cfg);

    let mut stages = StageTimes::new();
    stages.add("parse", compute.parse_time(max_bases as u64));
    if max_heavy_local > 0.0 {
        stages.add(
            "local-count",
            compute.sort_time_makespan(
                (max_heavy_local as u64).div_ceil(cfg.workers_per_process() as u64),
                K::WORDS * 8,
                sorter,
            ),
        );
    }
    // Encode/decode work that the non-blocking exchange can hide (§3.3.1): moving the
    // wire bytes once more through memory on each side. The hidden share is measured
    // by the round loop: bytes serialized/counted while a round was in flight vs the
    // exposed fill-and-drain bytes at the pipeline's ends. Like padding, the exposed
    // share measured on scaled-down data is an artefact of the fixed batch size (it
    // shrinks as 1/rounds), so it is re-projected through the full-scale round count
    // computed above — except without overlap: that run's one unbounded round is all
    // exposed bytes at any scale, and projecting it would read as almost fully hidden.
    let codec_rate = model.machine.mem_bandwidth_per_node / cfg.processes_per_node as f64 / 4.0;
    let overlappable = max_rank_wire as f64 / codec_rate;
    let hidden: u64 = counters.iter().map(|c| c.overlap_hidden_bytes).sum();
    let exposed: u64 = counters.iter().map(|c| c.overlap_exposed_bytes).sum();
    let overlap_fraction = if cfg.overlap && hidden + exposed > 0 {
        let exposed_local = exposed as f64 / (hidden + exposed) as f64;
        let rounds_local = counters
            .iter()
            .map(|c| c.exchange_rounds)
            .max()
            .unwrap_or(1)
            .max(1);
        let exposed_projected =
            exposed_local * rounds_local as f64 / rounds_projected.max(1) as f64;
        (1.0 - exposed_projected).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let profile = ExchangeProfile {
        max_rank_wire_bytes: max_rank_wire,
        off_node_fraction: off_node,
        rounds: rounds_projected,
        overlappable_compute: overlappable,
        overlap_fraction,
    };
    stages.add("exchange", network.exchange_time(&profile));
    stages.add(
        "task-collectives",
        network.small_collective_time((cfg.num_tasks() * 8) as u64),
    );
    stages.add(
        "sort",
        compute.sort_time_makespan(max_makespan as u64, bytes_per_record, sorter),
    );
    stages.add("scan", compute.scan_time(max_received as u64));

    // ---- memory ------------------------------------------------------------------------
    let elements_per_node = (max_received as u64) * cfg.processes_per_node as u64;
    let concurrent_fraction = 1.0 / cfg.tasks_per_worker.max(1) as f64;
    // Every base is parsed by exactly one rank, so the counter sum is the input size
    // (the file feed has no `ReadSet` to ask).
    let total_bases: u64 = counters.iter().map(|c| c.bases_parsed).sum();
    let input_per_node = (total_bases as f64 / 4.0 * scale) as u64 / cfg.nodes.max(1) as u64;
    let peak = model.memory().sort_counter_peak(
        elements_per_node,
        bytes_per_record,
        sorter == SortAlgorithm::Raduls,
        concurrent_fraction,
    ) + input_per_node;

    // ---- measured wall-clock rollup ----------------------------------------------------
    // Unlike the modeled stage times above these are raw `Instant` deltas, never
    // projected through `data_scale`: they report the run that actually happened.
    let wall_buckets: Vec<Vec<f64>> = counters.iter().map(|c| c.wall.to_stage_vec()).collect();
    let stage_wall = StageWallTimes::from_rank_buckets(&WallBuckets::NAMES, &wall_buckets);

    let retained = counts.len() as u64;
    let report = RunReport {
        stage_times: stages,
        stage_wall,
        comm: CommStats::aggregate(&comm),
        peak_memory_per_node: peak,
        sorter,
        total_kmers,
        distinct_kmers: histogram.distinct(),
        retained_kmers: retained,
        heavy_tasks,
        max_rank_wire_bytes: max_rank_wire,
        total_wire_bytes: total_wire,
        exchange_rounds: rounds_projected,
        assignment_imbalance,
        overlap_fraction,
        recoveries,
        epochs_committed,
        staged_bytes,
        sections,
        count_buffer_bytes,
        simd: hysortk_dna::simd::path_name(),
        result_runs: counts.runs().len(),
        result_bytes: retained * std::mem::size_of::<(K, u64)>() as u64,
        gather_s: joined.elapsed().as_secs_f64(),
    };

    CountResult {
        counts,
        histogram,
        extensions,
        report,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reference::{reference_counts_bounded, reference_extensions};
    use crate::stage3::TaskExtensions;
    use hysortk_dna::kmer::{Kmer1, Kmer2};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_reads(n: usize, len: usize, seed: u64) -> ReadSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let seqs: Vec<Vec<u8>> = (0..n)
            .map(|_| (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect())
            .collect();
        ReadSet::from_ascii_reads(&seqs)
    }

    /// Reads with duplicated regions so that multiplicities above 1 actually occur.
    fn overlapping_reads(seed: u64) -> ReadSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let genome: Vec<u8> = (0..3_000).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
        let reads: Vec<Vec<u8>> = (0..120)
            .map(|_| {
                let start = rng.gen_range(0..genome.len() - 300);
                genome[start..start + 300].to_vec()
            })
            .collect();
        ReadSet::from_ascii_reads(&reads)
    }

    fn small_cfg(k: usize, m: usize, ranks: usize) -> HySortKConfig {
        let mut cfg = HySortKConfig::small(k, m, ranks);
        cfg.min_count = 1;
        cfg.max_count = 1_000_000;
        cfg
    }

    #[test]
    fn matches_reference_on_random_reads() {
        let reads = random_reads(60, 200, 1);
        let cfg = small_cfg(21, 9, 4);
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        let expected = reference_counts_bounded::<Kmer1>(&reads, 21, 1, 1_000_000);
        assert_eq!(result.counts, expected);
    }

    #[test]
    fn matches_reference_with_repeats_and_bounds() {
        let reads = overlapping_reads(2);
        let mut cfg = small_cfg(17, 8, 4);
        cfg.min_count = 2;
        cfg.max_count = 50;
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        let expected = reference_counts_bounded::<Kmer1>(&reads, 17, 2, 50);
        assert_eq!(result.counts, expected);
        assert!(result.report.total_kmers > 0);
    }

    #[test]
    fn two_word_kmers_work_for_large_k() {
        let reads = overlapping_reads(3);
        let cfg = small_cfg(41, 17, 3);
        let result = count_kmers::<Kmer2>(&reads, &cfg);
        let expected = reference_counts_bounded::<Kmer2>(&reads, 41, 1, 1_000_000);
        assert_eq!(result.counts, expected);
    }

    #[test]
    fn extension_mode_returns_correct_provenance() {
        let reads = overlapping_reads(4);
        let mut cfg = small_cfg(19, 9, 4);
        cfg.with_extension = true;
        cfg.min_count = 2;
        cfg.max_count = 60;
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        let expected = reference_extensions::<Kmer1>(&reads, 19, 2, 60);
        assert_eq!(result.counts.len(), expected.len());
        let exts = result.extensions.as_ref().unwrap();
        let [table] = result.counts.runs() else {
            panic!("an extension run holds one table, parallel to `extensions`");
        };
        for (i, (km, expected_exts)) in expected.iter().enumerate() {
            assert_eq!(&table[i].0, km);
            assert_eq!(&exts[i], expected_exts, "extensions of kmer {i}");
        }
    }

    #[test]
    fn all_ablation_paths_agree_with_each_other() {
        let reads = overlapping_reads(5);
        let k = 21;
        let base = small_cfg(k, 9, 4);
        let expected = reference_counts_bounded::<Kmer1>(&reads, k, 1, 1_000_000);

        for (name, cfg) in [
            ("no-task-layer", {
                let mut c = base.clone();
                c.use_task_layer = false;
                c
            }),
            ("no-heavy-hitters", {
                let mut c = base.clone();
                c.heavy_hitter = hysortk_task::HeavyHitterPolicy::disabled();
                c
            }),
            ("no-overlap", {
                let mut c = base.clone();
                c.overlap = false;
                c
            }),
            ("single-rank", {
                let mut c = base.clone();
                c.processes_per_node = 1;
                c
            }),
        ] {
            let result = count_kmers::<Kmer1>(&reads, &cfg);
            assert_eq!(result.counts, expected, "ablation {name}");
        }
    }

    #[test]
    fn heavy_hitter_path_triggers_on_satellite_repeats_and_stays_correct() {
        // Centromere-like (AATGG)n repeats: a huge number of identical k-mers that all
        // land in one task.
        let mut seqs: Vec<Vec<u8>> = Vec::new();
        for _ in 0..40 {
            seqs.push(b"AATGG".repeat(60));
        }
        // Plus some background reads.
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..40 {
            seqs.push((0..300).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect());
        }
        let reads = ReadSet::from_ascii_reads(&seqs);
        let mut cfg = small_cfg(15, 7, 4);
        cfg.heavy_hitter = hysortk_task::HeavyHitterPolicy {
            factor: 2.0,
            enabled: true,
        };
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        assert!(
            result.report.heavy_tasks > 0,
            "expected at least one heavy task"
        );
        let expected = reference_counts_bounded::<Kmer1>(&reads, 15, 1, 1_000_000);
        assert_eq!(result.counts, expected);
    }

    #[test]
    fn heavy_conversion_is_bypassed_when_extensions_are_requested() {
        // Same satellite-repeat workload that triggers the heavy-hitter path — but with
        // extensions requested, the kmerlist conversion must be bypassed (kmerlists
        // carry no provenance, so converting would silently drop extension lists).
        // This test pins that behaviour: no heavy tasks, and full, correct extensions.
        let mut seqs: Vec<Vec<u8>> = Vec::new();
        for _ in 0..40 {
            seqs.push(b"AATGG".repeat(60));
        }
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..40 {
            seqs.push((0..300).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect());
        }
        let reads = ReadSet::from_ascii_reads(&seqs);
        let mut cfg = small_cfg(15, 7, 4);
        cfg.heavy_hitter = hysortk_task::HeavyHitterPolicy {
            factor: 2.0,
            enabled: true,
        };

        // Without extensions this workload does convert heavy tasks.
        let plain = count_kmers::<Kmer1>(&reads, &cfg);
        assert!(plain.report.heavy_tasks > 0, "workload should be heavy");

        cfg.with_extension = true;
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        assert_eq!(
            result.report.heavy_tasks, 0,
            "heavy conversion must be bypassed with extensions on"
        );
        let expected = reference_extensions::<Kmer1>(&reads, 15, 1, 1_000_000);
        assert_eq!(result.counts.len(), expected.len());
        let exts = result.extensions.as_ref().unwrap();
        let [table] = result.counts.runs() else {
            panic!("an extension run holds one table, parallel to `extensions`");
        };
        for (i, (km, expected_exts)) in expected.iter().enumerate() {
            assert_eq!(&table[i].0, km);
            assert_eq!(&table[i].1, &(expected_exts.len() as u64));
            assert_eq!(&exts[i], expected_exts, "extensions of kmer {i}");
        }
    }

    #[test]
    fn overlapped_runs_match_bulk_and_expose_round_engine_traffic() {
        let reads = overlapping_reads(11);
        let mut cfg = small_cfg(21, 9, 4);
        // A batch far below the per-task sizes forces many task-granular rounds.
        cfg.batch_size = 16;

        cfg.overlap = false;
        let bulk = count_kmers::<Kmer1>(&reads, &cfg);
        cfg.overlap = true;
        let overlapped = count_kmers::<Kmer1>(&reads, &cfg);

        assert_eq!(overlapped.counts, bulk.counts);
        assert_eq!(overlapped.histogram, bulk.histogram);

        let engine = overlapped.report.comm.stage("exchange").unwrap();
        let bulk_stage = bulk.report.comm.stage("exchange").unwrap();
        assert!(engine.rounds > 1, "tiny batches must split into rounds");
        assert!(engine.max_inflight_bytes > 0, "rounds must be posted ahead");
        assert_eq!(
            engine.payload_bytes, bulk_stage.payload_bytes,
            "round payloads must conserve the bulk payload"
        );
        // Without overlap the same loop runs one unbounded round, hides nothing, and
        // needs no sizing collective of its own.
        assert_eq!(bulk_stage.rounds, 1);
        assert_eq!(bulk.report.overlap_fraction, 0.0);
        assert!(bulk.report.comm.stage("exchange-sizing").is_none());
        assert!((0.0..=1.0).contains(&overlapped.report.overlap_fraction));
    }

    #[test]
    fn stage_buckets_partition_every_ranks_wall_at_one_and_two_threads() {
        // Two shapes: plain reads, and random reads plus a satellite repeat, which makes
        // one task a heavy hitter that its fill pre-counts.
        let mut rng = StdRng::seed_from_u64(12);
        let mut seqs: Vec<Vec<u8>> = (0..40)
            .map(|_| (0..300).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect())
            .collect();
        seqs.extend((0..40).map(|_| b"AATGG".repeat(60)));
        let shapes = [
            (overlapping_reads(12), false),
            (ReadSet::from_ascii_reads(&seqs), true),
        ];
        for ((reads, heavy), (threads, overlap)) in (shapes.iter()).flat_map(|shape| {
            [(1usize, true), (2, true), (1, false), (2, false)].map(|t| (shape, t))
        }) {
            for ranks in [1usize, 3] {
                let tag =
                    format!("heavy {heavy} threads {threads} overlap {overlap} ranks {ranks}");
                let mut cfg = small_cfg(21, 9, ranks);
                cfg.threads_per_process = threads;
                cfg.batch_size = 64;
                cfg.overlap = overlap;
                cfg.heavy_hitter.factor = 2.0;
                let input = Input::Reads(reads, reads.partition_by_bases(ranks));
                let run = Cluster::new(ranks).run_wire(|ctx| {
                    rank_pipeline::<Kmer1>(
                        ctx,
                        &input,
                        &cfg,
                        cfg.num_tasks(),
                        SortAlgorithm::Raduls,
                        1,
                    )
                });
                let mut precounted = 0;
                for out in run.results {
                    let counters = out.expect("healthy run").counters;
                    assert_eq!(counters.heavy_tasks > 0, *heavy, "{tag}");
                    precounted += counters.heavy_local_sorted;
                    let wall = counters.wall;
                    let stages = wall.to_stage_vec();
                    // One value per name, and no stage that only ever reads zero.
                    assert_eq!(stages.len(), WallBuckets::NAMES.len());
                    assert!(!WallBuckets::NAMES.contains(&"merge"));
                    let other = *stages.last().unwrap();
                    let sum: f64 = stages.iter().sum();
                    // `other` is a clamped residue: the sum can only miss `total` when
                    // the named buckets overshoot it, i.e. when some wall was booked
                    // twice.
                    assert!((sum - wall.total).abs() <= 1e-9, "{tag}: {wall:?}");
                    assert!(
                        other >= 0.0 && wall.serialize > 0.0 && wall.count > 0.0,
                        "{tag}: {wall:?}"
                    );
                }
                assert_eq!(
                    precounted > 0,
                    *heavy,
                    "{tag}: k-mers the fills pre-counted"
                );
            }
        }
    }

    #[test]
    fn rank_walls_and_the_gather_fit_inside_the_wall_the_caller_measures() {
        let reads = overlapping_reads(13);
        for threads in [1usize, 2] {
            for ranks in [1usize, 3] {
                let mut cfg = small_cfg(21, 9, ranks);
                cfg.threads_per_process = threads;
                let start = Instant::now();
                let result = count_kmers::<Kmer1>(&reads, &cfg);
                let wall = start.elapsed().as_secs_f64();
                let report = &result.report;
                assert!(!result.counts.is_empty() && report.gather_s > 0.0);
                assert!(report.stage_wall.get("merge").is_none());
                // The gather starts when the slowest rank has joined. One rank is its
                // own straggler; over several, the per-stage maxima may come from
                // different ranks and add up to more than any of them took, so only
                // the mean rank wall is a bound.
                let rank_wall = match ranks {
                    1 => report.stage_wall.total_max(),
                    _ => report.stage_wall.total_mean(),
                };
                assert!(
                    rank_wall + report.gather_s <= wall,
                    "threads {threads} ranks {ranks}: {rank_wall} + {} > {wall}",
                    report.gather_s
                );
            }
        }
    }

    #[test]
    fn the_result_holds_the_vectors_the_count_jobs_emitted_and_one_table_with_extensions() {
        let reads = overlapping_reads(14);
        for (ranks, with_extension) in [(1usize, false), (3, false), (3, true)] {
            let mut cfg = small_cfg(21, 9, ranks);
            cfg.min_count = 2;
            cfg.with_extension = with_extension;
            let input = Input::Reads(&reads, reads.partition_by_bases(ranks));
            let sorter = SortAlgorithm::Raduls;
            let run = Cluster::new(ranks).run_wire(|ctx| {
                rank_pipeline::<Kmer1>(ctx, &input, &cfg, cfg.num_tasks(), sorter, 1)
            });
            let outputs: Vec<RankOutput<Kmer1>> =
                (run.results.into_iter().map(|r| r.expect("healthy run"))).collect();
            let mut emitted: Vec<*const (Kmer1, u64)> = (outputs.iter())
                .flat_map(|out| &out.tasks)
                .filter(|task| !task.counts.is_empty())
                .map(|task| task.counts.as_ptr())
                .collect();
            assert!(emitted.len() > ranks, "several non-empty tasks per rank");

            let model = PerfModel::new(cfg.machine.clone(), cfg.execution());
            let result = merge_outputs(outputs, run.comm, &cfg, &model, sorter, 0, Instant::now());
            let runs = result.counts.runs();
            let report = &result.report;
            assert_eq!(report.result_runs, runs.len());
            assert_eq!(report.result_bytes, result.counts.len() as u64 * 16);
            assert_eq!(report.retained_kmers, result.counts.len() as u64);
            assert_eq!(
                result.counts,
                reference_counts_bounded::<Kmer1>(&reads, 21, 2, 1_000_000)
            );
            if with_extension {
                // One table, and `extensions` is parallel to it.
                assert_eq!(runs.len(), 1);
                let lists = result.extensions.as_ref().expect("extension run");
                assert_eq!(lists.len(), runs[0].len());
                assert!((runs[0].iter().zip(lists)).all(|(&(_, c), list)| c == list.len() as u64));
            } else {
                // As many runs as non-empty tasks — the very allocations the count jobs
                // pushed into: nothing was copied, merged or sorted on the way.
                let mut held: Vec<*const (Kmer1, u64)> = runs.iter().map(|r| r.as_ptr()).collect();
                held.sort_unstable();
                emitted.sort_unstable();
                assert_eq!(held, emitted, "{ranks} rank(s)");
                assert!(result.extensions.is_none());
            }
        }
    }

    /// A rank output of random sorted runs; with `with_ext`, most runs carry a record
    /// array in which retained k-mers' extension lists (some empty) sit between records
    /// of k-mers that were not retained.
    pub(crate) fn random_rank_output<K: KmerCode>(
        rng: &mut StdRng,
        with_ext: bool,
    ) -> RankOutput<K> {
        let tasks = (0..rng.gen_range(0..5))
            .map(|_| {
                let mut kmers: Vec<K> = (0..rng.gen_range(0..40))
                    .map(|_| {
                        let words: Vec<u64> = (0..K::WORDS).map(|_| rng.gen()).collect();
                        K::from_word_slice(&words)
                    })
                    .collect();
                kmers.sort_unstable();
                let mut ext = (with_ext && rng.gen_bool(0.8)).then(|| TaskExtensions {
                    records: Vec::new(),
                    ranges: Vec::new(),
                });
                let counts = (kmers.into_iter())
                    .map(|km| {
                        if let Some(ext) = &mut ext {
                            let mut list = |km: K, len: u32, rng: &mut StdRng| {
                                let start = ext.records.len() as u32;
                                ext.records.extend(
                                    (0..len).map(|_| (km, Extension::new(rng.gen(), rng.gen()))),
                                );
                                (start, len)
                            };
                            list(K::zero(), rng.gen_range(0..3), rng);
                            let range = list(km, rng.gen_range(0..4), rng);
                            ext.ranges.push(range);
                        }
                        (km, rng.gen_range(1..1_000u64))
                    })
                    .collect();
                TaskCounts { counts, ext }
            })
            .collect();
        let mut histogram = KmerHistogram::new(rng.gen_range(2..40));
        histogram.record(rng.gen_range(1..60));
        let mut counters = RankCounters::default();
        counters.kmers_parsed = rng.gen();
        counters.wall.count = 0.25;
        counters.wall.total = 1.5;
        RankOutput {
            tasks,
            histogram,
            counters,
        }
    }

    /// What the root reads of a rank output: every run's entries and, per retained
    /// k-mer, its extension list.
    #[allow(clippy::type_complexity)]
    fn runs_of<K: KmerCode>(
        out: &RankOutput<K>,
    ) -> Vec<(Vec<(K, u64)>, Option<Vec<Vec<Extension>>>)> {
        (out.tasks.iter())
            .map(|task| {
                let lists = task.ext.as_ref().map(|ext| {
                    (0..ext.ranges.len())
                        .map(|i| ext.records_of(i).iter().map(|&(_, e)| e).collect())
                        .collect()
                });
                (task.counts.clone(), lists)
            })
            .collect()
    }

    fn rank_output_codec_round_trips_and_rejects_damage<K: KmerCode>(seed: u64) {
        use hysortk_dmem::wire::{from_bytes, to_bytes};
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..40 {
            let out = random_rank_output::<K>(&mut rng, case % 2 == 1);
            let bytes = to_bytes(&out);
            let back = from_bytes::<RankOutput<K>>(&bytes).expect("round trip");
            assert_eq!(runs_of(&back), runs_of(&out), "case {case}");
            assert_eq!(back.histogram, out.histogram);
            assert_eq!(back.counters.kmers_parsed, out.counters.kmers_parsed);
            assert_eq!(to_bytes(&back), bytes, "case {case}: re-encoding");

            // Every truncation is rejected, and so is trailing garbage.
            for cut in 0..bytes.len() {
                assert!(
                    from_bytes::<RankOutput<K>>(&bytes[..cut]).is_none(),
                    "case {case}: cut at {cut}"
                );
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(from_bytes::<RankOutput<K>>(&longer).is_none());

            // Bit flips and hostile 64-bit values anywhere decode to a value or to
            // `None`: no panic, and no allocation sized by a number the input claims.
            let hostile = [u64::MAX, 1 << 62, 1 << 40, 1 << 32, bytes.len() as u64 + 1];
            for _ in 0..300 {
                let mut damaged = bytes.clone();
                if rng.gen_bool(0.5) {
                    let bit = rng.gen_range(0..damaged.len() * 8);
                    damaged[bit / 8] ^= 1 << (bit % 8);
                } else {
                    let at = rng.gen_range(0..=damaged.len() - 8);
                    let value = hostile[rng.gen_range(0..hostile.len())];
                    damaged[at..at + 8].copy_from_slice(&value.to_le_bytes());
                }
                let _ = from_bytes::<RankOutput<K>>(&damaged);
            }
            // The run count, and the first run's length, are the first two fields.
            for at in [0, 8] {
                for value in hostile {
                    let mut damaged = bytes.clone();
                    damaged[at..at + 8].copy_from_slice(&value.to_le_bytes());
                    let decoded = from_bytes::<RankOutput<K>>(&damaged);
                    assert!(decoded.is_none(), "case {case}: {value} at {at}");
                }
            }
        }
    }

    #[test]
    fn rank_output_codec_survives_a_seeded_fuzz_loop_on_both_kmer_widths() {
        rank_output_codec_round_trips_and_rejects_damage::<Kmer1>(31);
        rank_output_codec_round_trips_and_rejects_damage::<Kmer2>(32);
    }

    #[test]
    fn the_report_carries_the_fullest_ranks_staged_bytes() {
        let reads = overlapping_reads(14);
        for ranks in [1usize, 3] {
            let cfg = small_cfg(21, 9, ranks);
            let pool = WorkerPool::new(1, 1);
            let fullest = (reads.partition_by_bases(ranks).into_iter())
                .map(|range| {
                    let mut parser = Stage1Parser::new(&cfg, cfg.num_tasks(), 1, &pool);
                    parser.parse(&reads.reads()[range], &mut RankCounters::default());
                    let bodies = parser.finish().bodies;
                    bodies.iter().map(|b| b.bytes.len() as u64).sum::<u64>()
                })
                .max();
            let report = count_kmers::<Kmer1>(&reads, &cfg).report;
            assert!(report.staged_bytes > 0);
            assert_eq!(Some(report.staged_bytes), fullest, "{ranks} rank(s)");
        }
    }

    /// `S` is the smallest power of two that brings an average section to at most
    /// `SECTION_BYTES`: 1 up to that size, doubling with every doubling past it, never
    /// more than `MAX_SECTIONS`, and never so many that `tasks × S` leaves `u32`.
    #[test]
    fn sections_are_derived_from_the_input_size_alone() {
        // Six tasks of `bytes` each, in 8-byte records.
        let six_tasks_of = |bytes: u64| derive_sections(bytes / 8 * 6, 8, 6);
        assert_eq!(six_tasks_of(0), 1);
        assert_eq!(six_tasks_of(SECTION_BYTES), 1);
        assert_eq!(six_tasks_of(SECTION_BYTES + 8), 2);
        assert_eq!(six_tasks_of(2 * SECTION_BYTES), 2);
        assert_eq!(six_tasks_of(2 * SECTION_BYTES + 8), 4);
        assert_eq!(six_tasks_of(128 * SECTION_BYTES), 128);
        assert_eq!(six_tasks_of(256 * SECTION_BYTES), 256);
        assert_eq!(six_tasks_of(1 << 50), 256);
        assert_eq!(derive_sections(u64::MAX, 16, 1), 256);
        // Records are counted per task, rounded up, at their width.
        assert_eq!(derive_sections(SECTION_BYTES / 16 * 6, 16, 6), 1);
        assert_eq!(derive_sections(SECTION_BYTES / 16 * 6 + 1, 16, 6), 2);
        assert_eq!(derive_sections(SECTION_BYTES / 8 * 6, 16, 6), 2);
        // The `tasks × S` minimizer targets stay `u32`s.
        assert_eq!(derive_sections(u64::MAX, 8, 1 << 23), 256);
        assert_eq!(derive_sections(u64::MAX, 8, 1 << 24), 128);
        assert_eq!(derive_sections(u64::MAX, 8, 1 << 25), 64);
        assert_eq!(derive_sections(u64::MAX, 8, u32::MAX as usize), 1);
        assert_eq!(derive_sections(u64::MAX, 8, usize::MAX), 1);
        assert_eq!(derive_sections(1_000, 8, 0), 1);

        // The bundled smoke input is one section on every layout the CLI smoke runs,
        // down to one rank of one thread, for one- and two-word k-mers.
        let smoke = include_bytes!("../../../tests/data/smoke.fa").len() as u64;
        for k in [21, 55] {
            let cfg = HySortKConfig::small_with_threads(k, 11, 1, 1);
            let sections = derive_sections(smoke, record_bytes::<Kmer2>(&cfg), cfg.num_tasks());
            assert_eq!((cfg.num_tasks(), sections), (3, 1));
        }
    }

    #[test]
    fn histogram_and_report_are_consistent() {
        let reads = overlapping_reads(7);
        let cfg = small_cfg(21, 9, 2);
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        assert_eq!(result.report.distinct_kmers, result.histogram.distinct());
        assert_eq!(result.report.retained_kmers, result.counts.len() as u64);
        assert!(result.report.total_time() > 0.0);
        assert!(result.report.total_wire_bytes > 0);
        assert!(result.report.peak_memory_per_node > 0);
    }

    #[test]
    fn data_scale_projects_counters_but_not_counts() {
        let reads = overlapping_reads(8);
        let mut cfg = small_cfg(21, 9, 2);
        let unscaled = count_kmers::<Kmer1>(&reads, &cfg);
        cfg.data_scale = 0.01;
        let scaled = count_kmers::<Kmer1>(&reads, &cfg);
        assert_eq!(unscaled.counts, scaled.counts);
        assert!(scaled.report.total_kmers > unscaled.report.total_kmers * 50);
        assert!(scaled.report.total_time() > unscaled.report.total_time());
    }

    #[test]
    fn empty_and_too_short_inputs_yield_empty_results() {
        let reads = ReadSet::from_ascii_reads(&[b"ACGT".as_slice()]);
        let cfg = small_cfg(21, 9, 2);
        let result = count_kmers::<Kmer1>(&reads, &cfg);
        assert!(result.is_empty());
        assert_eq!(result.report.distinct_kmers, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the chosen k-mer width")]
    fn oversized_k_for_width_panics() {
        let reads = random_reads(2, 100, 9);
        let cfg = small_cfg(40, 15, 2);
        count_kmers::<Kmer1>(&reads, &cfg);
    }
}
