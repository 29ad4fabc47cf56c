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
//!    cache. A rank stages its input window by window, each window cut into one piece
//!    per pool thread ([`Stage1Parser`]): every thread reads, packs and extracts its own
//!    piece (pass 1), the rank's thread lays the window out at the end of each task's
//!    **body**, and every thread encodes its supermers once, in wire form, straight into
//!    their final place (pass 2). A rank leaves stage 1 holding one body per task
//!    ([`RunReport::staged_bytes`]) and nothing of the reads.
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
//!    small table that keeps only the distinct keys — radix-sorts that buffer with
//!    RADULS (`SECTION_SORTER`) and counts it with a streaming run merge, filtered to
//!    the `[min_count, max_count]` band, into one sorted run per section (see
//!    [`crate::stage3`]).
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
//! counters in the returned [`RunReport`] are measurements, not estimates. The run models
//! nothing: projecting them to the paper's full-scale seconds and memory is a separate
//! step after it ([`crate::model::project`]).

use std::io;
use std::marker::PhantomData;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use hysortk_dmem::{Cluster, CommStats, FaultPlan, RankCtx, Wire};
use hysortk_dna::extension::Extension;
use hysortk_dna::io::{Fragments, IngestOptions, InputFile, RangeReader};
use hysortk_dna::kmer::KmerCode;
use hysortk_dna::readset::{Read, ReadSet};
use hysortk_dna::sequence::DnaSeq;
use hysortk_perfmodel::SortAlgorithm;
use hysortk_sort::IN_CACHE_BYTES;
use hysortk_supermer::mmer::{MmerScorer, ScoreFunction};
use hysortk_supermer::streaming::{for_each_supermer, SupermerScratch};
use hysortk_supermer::supermer::supermer_wire_len;
use hysortk_task::{
    assign_greedy, detect_heavy_tasks, schedule_lpt, Assignment, ScratchBank, WorkerPool,
};
use hysortk_trace as trace;

use crate::checkpoint::{run_fingerprint, sizes_hash, CountedState, RoundCheckpointer};
use crate::config::HySortKConfig;
use crate::error::HysortkError;
use crate::ingest::{ingest_shard, window_bytes};
use crate::result::{CountResult, KmerHistogram, KmerRuns, RankWork, RunReport, StageWallTimes};
use crate::stage3::{self, CountParams, TaskCounts};
use crate::table;
use crate::wire::{
    write_kmerlist_block, write_supermer, write_supermer_block, SupermersView, MAX_SECTIONS,
};

/// Measured wall-clock seconds of one rank, bucketed by pipeline stage. The
/// buckets are accumulated with plain `Instant` deltas at a handful of sites
/// per round — cheap enough to stay on unconditionally, independent of the
/// tracing flag — and aggregated across ranks into
/// [`StageWallTimes`] by [`merge_outputs`]. `total` spans the whole rank
/// closure; the un-bucketed residue becomes the `other` stage, so the stages
/// always sum to the rank's wall time.
///
/// Stage 1 is `ingest + parse`: `parse` is the two pool calls of every window (pass 1
/// reads, packs and extracts, pass 2 encodes; [`Stage1Parser`]), and `ingest` the rest
/// of stage 1, on the rank's thread — cutting the windows and laying them out, which
/// grows the task bodies.
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
    /// What the report keeps per rank.
    pub(crate) work: RankWork,
    assignment_imbalance: f64,
    heavy_tasks: usize,
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

impl Wire for RankWork {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bases_parsed.encode(out);
        self.kmers_parsed.encode(out);
        self.heavy_local_sorted.encode(out);
        self.worker_makespan.encode(out);
        self.received_records.encode(out);
        self.hidden_bytes.encode(out);
        self.exposed_bytes.encode(out);
        self.rounds.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(RankWork {
            bases_parsed: u64::decode(input)?,
            kmers_parsed: u64::decode(input)?,
            heavy_local_sorted: u64::decode(input)?,
            worker_makespan: u64::decode(input)?,
            received_records: u64::decode(input)?,
            hidden_bytes: u64::decode(input)?,
            exposed_bytes: u64::decode(input)?,
            rounds: usize::decode(input)?,
        })
    }
}

impl Wire for RankCounters {
    fn encode(&self, out: &mut Vec<u8>) {
        self.work.encode(out);
        self.assignment_imbalance.encode(out);
        self.heavy_tasks.encode(out);
        self.epochs_committed.encode(out);
        self.staged_bytes.encode(out);
        self.sections.encode(out);
        self.count_buffer_bytes.encode(out);
        self.wall.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(RankCounters {
            work: RankWork::decode(input)?,
            assignment_imbalance: f64::decode(input)?,
            heavy_tasks: usize::decode(input)?,
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

/// One task as stage 1 staged it: its supermers in wire form ([`write_supermer`]), in
/// **one** buffer — what its fill frees in one piece — window after window, each
/// window's share section after section. With the bytes every section got from each
/// window that staged any, the supermers every section got in all, and the two totals
/// the task-size reduction and the block header need.
#[derive(Debug, Default)]
pub(crate) struct TaskBody {
    pub(crate) bytes: Vec<u8>,
    /// Window `w`'s bytes of section `s` at `w × S + s`.
    window_bytes: Vec<u32>,
    /// Per section.
    section_supermers: Vec<u64>,
    pub(crate) supermers: u64,
    pub(crate) kmers: u64,
}

impl TaskBody {
    /// The staged bytes as `(section, supermers, bytes)` parts for
    /// [`write_supermer_block`]: section by section, within a section window by window
    /// (the section's supermers counted on its first part).
    fn parts(&self) -> Vec<(u32, u64, &[u8])> {
        let sections = self.section_supermers.len().max(1);
        let mut at: Vec<usize> = (self.window_bytes.chunks_exact(sections))
            .scan(0, |start, window| {
                let here = *start;
                *start += window.iter().map(|&bytes| bytes as usize).sum::<usize>();
                Some(here)
            })
            .collect();
        let mut parts = Vec::new();
        for (section, &supermers) in self.section_supermers.iter().enumerate() {
            let mut supermers = supermers;
            for (window, at) in at.iter_mut().enumerate() {
                let bytes = self.window_bytes[window * sections + section] as usize;
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
        write_kmerlist_block(out, t as u32, &list);
        body.kmers
    }
}

/// Bases a window of in-memory reads holds: [`Stage1Parser::parse`] cuts a rank's reads
/// into windows of about this many. (A file window is `threads ×`
/// [`IngestOptions::block_bytes`] bytes of the rank's shard, and at least this many,
/// [`crate::ingest::window_bytes`].) Every window adds one entry per section to each
/// task it staged for, and its spans wait in the workers' scratches until pass 2, so
/// this bounds the one from below and the other from above.
pub(crate) const PARSE_CALL_BASES: usize = 1 << 20;

/// One pool thread's share of a stage-1 window.
pub(crate) enum Piece<'a> {
    /// In-memory reads, whose ids are final.
    Reads(&'a [Read]),
    /// The records of `files` that start in the byte range `range` of their
    /// concatenation, read through a [`RangeReader`]. Their fragments are numbered in
    /// input order, as one dense sequence per rank ([`Stage1Parser::window`]).
    File {
        files: &'a [InputFile],
        opts: &'a IngestOptions,
        range: Range<u64>,
    },
}

/// One supermer of a piece, as pass 1 finds it and pass 2 writes it: the fragment it
/// lies in (its index in the piece), its bases there, and its minimizer target.
#[derive(Debug, Clone, Copy)]
struct Span {
    fragment: u32,
    start: u32,
    len: u32,
    target: u32,
}

/// What the supermers of one target add up to in a piece, or in a window.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    bytes: u32,
    supermers: u32,
    kmers: u64,
}

impl Tally {
    fn add(self, other: Tally) -> Tally {
        Tally {
            bytes: (self.bytes.checked_add(other.bytes))
                .expect("a window stages under 4 GiB per section"),
            supermers: self.supermers + other.supermers,
            kmers: self.kmers + other.kmers,
        }
    }
}

/// What one pool thread keeps of its piece between the two passes of a window, reused
/// window after window: the extractor's segment buffers; for a file piece, the block
/// buffer and the piece's packed fragments; the piece's supermers as [`Span`]s in input
/// order; and what they add up to — a [`Tally`] per target, fragments and bases.
#[derive(Default)]
pub(crate) struct ParseScratch {
    supermer: SupermerScratch,
    block: Vec<u8>,
    fragments: Fragments,
    spans: Vec<Span>,
    targets: Vec<Tally>,
    fragment_count: u64,
    bases: u64,
}

/// The shape every piece of a rank's stage 1 is extracted at.
struct Extract<'a> {
    k: usize,
    scorer: &'a MmerScorer,
    targets: u32,
    provenance: bool,
}

impl ParseScratch {
    /// Pass 1 of `piece` (the `index`-th of its window): read it, extract its supermers
    /// and tally them. Returns where a file piece stopped reading
    /// ([`RangeReader::reached`]) and the last file it read, or the error that stopped
    /// it, which ends the rank's input.
    fn pass1(
        &mut self,
        piece: &Piece<'_>,
        index: usize,
        ex: &Extract<'_>,
        rank: u32,
    ) -> Result<(u64, Option<PathBuf>), HysortkError> {
        let span = trace::span!(
            "stage1-piece",
            trace::Detail::Task,
            rank,
            pass = 1,
            piece = index
        );
        let ParseScratch {
            supermer,
            block,
            fragments,
            spans,
            targets,
            fragment_count,
            bases,
        } = self;
        spans.clear();
        targets.clear();
        targets.resize(ex.targets as usize, Tally::default());
        fragments.clear();
        *bases = 0;
        let mut extract = |fragment: usize, seq: &DnaSeq| {
            *bases += seq.len() as u64;
            for_each_supermer(seq, ex.k, ex.scorer, ex.targets, supermer, |sm| {
                let len = sm.len();
                let tally = &mut targets[sm.target as usize];
                *tally = tally.add(Tally {
                    bytes: supermer_wire_len(len, ex.provenance) as u32,
                    supermers: 1,
                    kmers: sm.num_kmers(ex.k) as u64,
                });
                spans.push(Span {
                    fragment: fragment as u32,
                    start: sm.start,
                    len: len as u32,
                    target: sm.target,
                });
            });
        };
        let read = match piece {
            Piece::Reads(reads) => {
                reads
                    .iter()
                    .enumerate()
                    .for_each(|(i, read)| extract(i, &read.seq));
                *fragment_count = reads.len() as u64;
                Ok((0, None))
            }
            Piece::File { files, opts, range } => {
                let mut reader =
                    RangeReader::new(files, range.clone(), opts, std::mem::take(block));
                let read = loop {
                    let before = fragments.len();
                    match reader.next_record(fragments) {
                        Ok(true) => {
                            let new = &fragments.as_slice()[before..];
                            (new.iter().enumerate()).for_each(|(i, seq)| extract(before + i, seq));
                        }
                        Ok(false) => {
                            break Ok((reader.reached(), reader.path().map(Path::to_owned)))
                        }
                        Err(source) => {
                            break Err(HysortkError::Io {
                                path: reader
                                    .path()
                                    .map(|p| p.display().to_string())
                                    .unwrap_or_default(),
                                rank: rank as usize,
                                source,
                            })
                        }
                    }
                };
                *fragment_count = fragments.len() as u64;
                *block = reader.into_buffer();
                read
            }
        };
        span.end_with(&[
            ("fragments", *fragment_count),
            ("supermers", spans.len() as u64),
        ]);
        read
    }

    /// Pass 2 of `piece` (the `index`-th of its window): write every supermer pass 1
    /// found, in input order, to the front of its target's slot, and move the slot past
    /// it. A file piece's fragments are numbered from `first`: read id `(first + i) ×
    /// ranks + rank`.
    #[allow(clippy::too_many_arguments)]
    fn pass2(
        &self,
        piece: &Piece<'_>,
        index: usize,
        slots: &mut [&mut [u8]],
        first: u64,
        ranks: u64,
        rank: u32,
        provenance: bool,
    ) {
        let _span = trace::span!(
            "stage1-piece",
            trace::Detail::Task,
            rank,
            pass = 2,
            piece = index
        );
        match piece {
            Piece::Reads(reads) => write_spans(&self.spans, slots, provenance, |fragment| {
                (&reads[fragment].seq, reads[fragment].id)
            }),
            Piece::File { .. } => {
                let fragments = self.fragments.as_slice();
                write_spans(&self.spans, slots, provenance, |fragment| {
                    let id = (first + fragment as u64) * ranks + u64::from(rank);
                    (&fragments[fragment], id as u32)
                })
            }
        }
        debug_assert!(
            slots.iter().all(|slot| slot.is_empty()),
            "pass 1 sized every slot"
        );
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
    /// About how many `(k-mers, bases)` the input holds, from which the sections are
    /// derived; the report keeps both ([`RunReport::input_kmers`]), and the projection's
    /// modeled sorter reads them. Files count their on-disk bytes for both: ASCII bytes
    /// ≈ bases ≈ k-mers for FASTA. FASTQ's quality lines about double the bytes — the
    /// benchmark's 150-bp short-read file holds 2.08 bytes per base — which may cut
    /// twice the sections the k-mers need (ROADMAP item 4(c) measures whether that
    /// costs).
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
        let (start, parse_before) = (Instant::now(), counters.wall.parse);
        let fed = match self {
            Input::Reads(reads, ranges) => {
                parser.parse(&reads.reads()[ranges[ctx.rank()].clone()], counters);
                Ok(())
            }
            Input::Files(files, opts) => {
                let window = window_bytes(parser.threads(), opts.block_bytes);
                ingest_shard(ctx, files, cfg, opts, window, parser, counters)
            }
        };
        // The windows' pool calls are booked to parse; the rest ran on the rank's thread.
        let parse = counters.wall.parse - parse_before;
        counters.wall.ingest += (start.elapsed().as_secs_f64() - parse).max(0.0);
        fed
    }
}

/// Run the pipeline on `input` over a cluster of `cfg.total_ranks()` ranks, with `plan`'s
/// faults injected when one is given: validate, derive the sections, run
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
    let size = input.size(cfg.k);
    let sections = derive_sections(
        size.0,
        record_bytes(K::WORDS, cfg.with_extension),
        num_tasks,
    );

    let mut cluster = Cluster::new(cfg.total_ranks()).with_backend(cfg.backend);
    if let Some(plan) = plan {
        cluster = cluster.with_fault_plan(plan);
    }
    let recoverable = |e: &HysortkError| match e {
        HysortkError::Comm(d) => d.is_rank_failure(),
        _ => false,
    };
    let run = cluster.run_recovering_wire(cfg.recovery_attempts, recoverable, |ctx| {
        rank_pipeline::<K>(ctx, &input, cfg, num_tasks, sections)
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
        size,
        run.recoveries,
        joined,
    ))
}

/// The kernel stage 3 sorts every section with. Sections keep RADULS's second buffer
/// at one section per thread, not a copy of the data, so there is nothing to choose by
/// memory; PARADIS stays reachable through [`CountParams`].
const SECTION_SORTER: SortAlgorithm = SortAlgorithm::Raduls;

/// Size of one decoded k-mer record of `kmer_words` words, with its extension when the
/// run carries them: what the section size is derived from, and the byte width the
/// model prices sorts and memory at.
pub(crate) fn record_bytes(kmer_words: usize, with_extension: bool) -> usize {
    kmer_words * 8
        + if with_extension {
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

    let output = stages_2_and_3(ctx, stage1, counters, cfg, num_tasks, &pool).map(|mut out| {
        out.counters.wall.total = rank_start.elapsed().as_secs_f64();
        out
    });
    ingested.and(output)
}

/// Write `spans`, in order, each to the front of its target's slot, and move the slot
/// past it; `source` gives a span's fragment and read id.
fn write_spans<'s>(
    spans: &[Span],
    slots: &mut [&mut [u8]],
    provenance: bool,
    source: impl Fn(usize) -> (&'s DnaSeq, u32),
) {
    for span in spans {
        let (seq, id) = source(span.fragment as usize);
        let slot = &mut slots[span.target as usize];
        let from = provenance.then_some((id, span.start));
        let written = write_supermer(slot, from, seq, span.start as usize, span.len as usize);
        *slot = &mut std::mem::take(slot)[written..];
    }
}

/// A rank's stage 1: reads go in, window by window, and the per-task staging comes out.
///
/// A window is cut into one [`Piece`] per pool thread and staged in three steps:
/// 1. **pass 1**, on the pool: every thread reads its piece — a file piece packs each
///    fragment into its scratch as it is read — runs the fused
///    scoring→minimizer→supermer extractor ([`for_each_supermer`]) over it at `tasks ×
///    sections` minimizer targets, keeps each supermer as a span and tallies the wire
///    bytes and supermers per target ([`ParseScratch`]);
/// 2. **layout**, on the rank's thread: prefix sums over the tallies give every (task,
///    section, piece) its exact place. The window's region goes at the end of its
///    task's one body, its sections in order, each holding the pieces' supermers of that
///    section in input order — so a section's bytes, window after window, are the ones a
///    sequential parse writes, at any pool width and however the input is cut into
///    windows. The same sums number a file piece's fragments;
/// 3. **pass 2**, on the pool: every thread writes its supermers, in wire form
///    ([`write_supermer`]), straight into its own disjoint slices of the bodies.
///
/// A supermer is task `target mod tasks`, section `target / tasks`, and is written once.
/// Every [`Input`] feeds the same parser, so the sources cannot diverge on what they
/// stage.
pub(crate) struct Stage1Parser<'a> {
    staged: Stage1,
    bank: ScratchBank<ParseScratch>,
    scorer: MmerScorer,
    cfg: &'a HySortKConfig,
    pool: &'a WorkerPool,
    /// File fragments staged so far: the first one's number in the next window.
    fragments: u64,
}

impl<'a> Stage1Parser<'a> {
    /// A parser staging `num_tasks` tasks of `sections` sections each, on `pool` — whose
    /// rank numbers the file fragments, striped over `cfg`'s ranks.
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
            fragments: 0,
        }
    }

    /// Threads of the pool, one piece each per window.
    pub(crate) fn threads(&self) -> usize {
        self.pool.total_threads()
    }

    /// Stage the k-mers of `reads`, whose ids are final, in windows of about
    /// [`PARSE_CALL_BASES`], and count what was parsed into `counters`. Nothing of
    /// `reads` is referenced once this returns.
    pub(crate) fn parse(&mut self, reads: &[Read], counters: &mut RankCounters) {
        let mut rest = reads;
        while !rest.is_empty() {
            let mut bases = 0;
            let window = (rest.iter())
                .position(|read| {
                    bases += read.len();
                    bases >= PARSE_CALL_BASES
                })
                .map_or(rest.len(), |last| last + 1);
            let (window, tail) = rest.split_at(window);
            let per_thread = window.len().div_ceil(self.threads());
            let pieces = window.chunks(per_thread).map(Piece::Reads).collect();
            self.window(pieces, counters)
                .expect("in-memory pieces read no file");
            rest = tail;
        }
    }

    /// Stage one window, cut into `pieces` in input order, and count what was parsed
    /// into `counters`; the two pool calls are booked to `counters.wall.parse`. Returns
    /// how far the file pieces read ([`RangeReader::reached`]; 0 without one), or the
    /// error of the first piece that failed — or ran the rank out of `u32` read ids —
    /// in which case nothing of the window is staged.
    pub(crate) fn window(
        &mut self,
        pieces: Vec<Piece<'_>>,
        counters: &mut RankCounters,
    ) -> Result<u64, HysortkError> {
        let (tasks, sections) = (self.staged.bodies.len(), self.staged.sections as usize);
        let (ranks, rank) = (self.cfg.total_ranks() as u64, self.pool.rank());
        let provenance = self.cfg.with_extension;
        let ex = Extract {
            k: self.cfg.k,
            scorer: &self.scorer,
            targets: (tasks * sections) as u32,
            provenance,
        };
        let span = trace::span!(
            "stage1-window",
            trace::Detail::Round,
            rank,
            pieces = pieces.len()
        );
        let bank = &self.bank;
        let read = timed(&mut counters.wall.parse, || {
            self.pool.execute(
                pieces.into_iter().enumerate().collect(),
                |(index, piece)| {
                    let mut scratch = bank.checkout(ParseScratch::default);
                    let read = scratch.pass1(&piece, index, &ex, rank);
                    (piece, scratch, read)
                },
            )
        });

        // The first failure in input order ends the rank's input; the checkouts go back
        // to the bank as they drop.
        let (mut reached, mut path, mut parsed) = (0, None, Vec::with_capacity(read.len()));
        for (piece, scratch, read) in read {
            let (piece_reached, piece_path) = read?;
            reached = reached.max(piece_reached);
            path = piece_path.or(path);
            parsed.push((piece, scratch));
        }
        // Each piece's first fragment number. Striping multiplies by the rank count, so
        // the u32 id space exhausts at `u32::MAX / ranks` fragments per shard — fail
        // loudly instead of silently wrapping into colliding provenance ids.
        let mut firsts = Vec::with_capacity(parsed.len());
        for (_, scratch) in &parsed {
            firsts.push(self.fragments);
            self.fragments += scratch.fragment_count;
        }
        let files = parsed
            .iter()
            .any(|(piece, _)| matches!(piece, Piece::File { .. }));
        if files
            && self.fragments > 0
            && (self.fragments - 1) * ranks + u64::from(rank) > u64::from(u32::MAX)
        {
            return Err(HysortkError::Io {
                path: path.map(|p| p.display().to_string()).unwrap_or_default(),
                rank: rank as usize,
                source: io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard exceeds {} reads, the striped u32 read-id space",
                        u32::MAX / ranks as u32
                    ),
                ),
            });
        }
        let mut fragments = 0;
        for (_, scratch) in &parsed {
            fragments += scratch.fragment_count;
            counters.work.bases_parsed += scratch.bases;
            counters.work.kmers_parsed += scratch.targets.iter().map(|t| t.kmers).sum::<u64>();
        }

        // Layout: every task's region at the end of its body, cut into one slot per
        // (section, piece) — piece `i`'s slot of a target at `slots[i][target]`.
        let mut slots: Vec<Vec<&mut [u8]>> = (parsed.iter())
            .map(|_| {
                (0..tasks * sections)
                    .map(|_| <&mut [u8]>::default())
                    .collect()
            })
            .collect();
        let mut staged = 0u64;
        for (task, body) in self.staged.bodies.iter_mut().enumerate() {
            // The window's tally of each section of the task, over its pieces.
            let window: Vec<Tally> = (0..sections)
                .map(|section| {
                    (parsed.iter()).fold(Tally::default(), |sum, (_, scratch)| {
                        sum.add(scratch.targets[task + tasks * section])
                    })
                })
                .collect();
            body.kmers += window.iter().map(|tally| tally.kmers).sum::<u64>();
            if window.iter().all(|tally| tally.supermers == 0) {
                continue;
            }
            body.section_supermers.resize(sections, 0);
            let start = body.bytes.len();
            let mut region = 0;
            for (section, tally) in window.iter().enumerate() {
                body.window_bytes.push(tally.bytes);
                body.section_supermers[section] += u64::from(tally.supermers);
                body.supermers += u64::from(tally.supermers);
                region += tally.bytes as usize;
            }
            staged += region as u64;
            body.bytes.resize(start + region, 0);
            let mut region = &mut body.bytes[start..];
            for section in 0..sections {
                let target = task + tasks * section;
                for (piece_slots, (_, scratch)) in slots.iter_mut().zip(&parsed) {
                    let bytes = scratch.targets[target].bytes as usize;
                    let (slot, rest) = std::mem::take(&mut region).split_at_mut(bytes);
                    piece_slots[target] = slot;
                    region = rest;
                }
            }
        }

        let jobs: Vec<_> = parsed
            .into_iter()
            .zip(firsts)
            .zip(slots)
            .enumerate()
            .collect();
        timed(&mut counters.wall.parse, || {
            self.pool
                .execute(jobs, |(index, (((piece, scratch), first), mut slots))| {
                    scratch.pass2(&piece, index, &mut slots, first, ranks, rank, provenance);
                })
        });
        span.end_with(&[("fragments", fragments), ("bytes", staged)]);
        Ok(reached)
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
    let params = CountParams::for_kmer::<K>(
        k,
        SECTION_SORTER,
        cfg.min_count,
        cfg.max_count,
        cfg.with_extension,
    );
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
    counters.work.hidden_bytes = run.hidden_bytes;
    counters.work.exposed_bytes = run.exposed_bytes;
    counters.work.heavy_local_sorted = run.heavy_local_sorted;
    counters.work.rounds = run.rounds;
    counters.work.worker_makespan = schedule_lpt(&run.task_sizes, workers).makespan();
    counters.work.received_records = run.out.received_records + run.out.precounted_records;
    counters.epochs_committed = ckpt.as_ref().map_or(0, |c| c.epochs_committed as u64);
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

/// Combine the per-rank outputs into the public result and its measured report.
/// `comm` is every rank's traffic and `input` the input size the run derived its
/// sections from; `recoveries` is how many times the cluster respawned failed ranks on
/// the way to these outputs (zero for a healthy or non-recovering run); `joined` is when
/// the last rank joined, from which [`RunReport::gather_s`] is measured.
pub(crate) fn merge_outputs<K: KmerCode>(
    outputs: Vec<RankOutput<K>>,
    comm: Vec<CommStats>,
    cfg: &HySortKConfig,
    (input_kmers, input_bases): (u64, u64),
    recoveries: usize,
    joined: Instant,
) -> CountResult<K> {
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

    // ---- the measured rollup -----------------------------------------------------------
    let rank_work: Vec<RankWork> = counters.iter().map(|c| c.work).collect();
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
    let hidden: u64 = rank_work.iter().map(|w| w.hidden_bytes).sum();
    let exposed: u64 = rank_work.iter().map(|w| w.exposed_bytes).sum();
    let overlap_fraction = match hidden + exposed {
        0 => 0.0,
        moved => hidden as f64 / moved as f64,
    };
    let wall_buckets: Vec<Vec<f64>> = counters.iter().map(|c| c.wall.to_stage_vec()).collect();
    let stage_wall = StageWallTimes::from_rank_buckets(&WallBuckets::NAMES, &wall_buckets);
    let total_comm = CommStats::aggregate(&comm);
    let total_wire_bytes = total_comm.stage("exchange").map_or(0, |s| s.payload_bytes);

    let retained = counts.len() as u64;
    let report = RunReport {
        stage_wall,
        comm: total_comm,
        rank_comm: comm,
        total_kmers: rank_work.iter().map(|w| w.kmers_parsed).sum(),
        rank_work,
        input_kmers,
        input_bases,
        kmer_words: K::WORDS,
        sorter: SECTION_SORTER,
        distinct_kmers: histogram.distinct(),
        retained_kmers: retained,
        heavy_tasks,
        total_wire_bytes,
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
    use crate::model::{project, MachineConfig};
    use crate::reference::{reference_counts_bounded, reference_extensions};
    use crate::stage3::TaskExtensions;
    use hysortk_dmem::Backend;
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
    pub(crate) fn overlapping_reads(seed: u64) -> ReadSet {
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
    fn heavy_conversion_is_bypassed_when_extensions_are_requested() {
        // The satellite-repeat workload that triggers the heavy-hitter path (the
        // `properties.rs` heavy-hitter grid runs it without extensions) — but with
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
                let run = Cluster::new(ranks)
                    .run_wire(|ctx| rank_pipeline::<Kmer1>(ctx, &input, &cfg, cfg.num_tasks(), 1));
                let mut precounted = 0;
                for out in run.results {
                    let counters = out.expect("healthy run").counters;
                    assert_eq!(counters.heavy_tasks > 0, *heavy, "{tag}");
                    precounted += counters.work.heavy_local_sorted;
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
            let run = Cluster::new(ranks)
                .run_wire(|ctx| rank_pipeline::<Kmer1>(ctx, &input, &cfg, cfg.num_tasks(), 1));
            let outputs: Vec<RankOutput<Kmer1>> =
                (run.results.into_iter().map(|r| r.expect("healthy run"))).collect();
            let mut emitted: Vec<*const (Kmer1, u64)> = (outputs.iter())
                .flat_map(|out| &out.tasks)
                .filter(|task| !task.counts.is_empty())
                .map(|task| task.counts.as_ptr())
                .collect();
            assert!(emitted.len() > ranks, "several non-empty tasks per rank");

            let result = merge_outputs(outputs, run.comm, &cfg, (0, 0), 0, Instant::now());
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
        counters.work = RankWork {
            bases_parsed: rng.gen(),
            kmers_parsed: rng.gen(),
            heavy_local_sorted: rng.gen(),
            worker_makespan: rng.gen(),
            received_records: rng.gen(),
            hidden_bytes: rng.gen(),
            exposed_bytes: rng.gen(),
            rounds: rng.gen_range(0..1 << 20),
        };
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
            assert_eq!(back.counters.work, out.counters.work);
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
            let record = record_bytes(Kmer2::WORDS, cfg.with_extension);
            let sections = derive_sections(smoke, record, cfg.num_tasks());
            assert_eq!((cfg.num_tasks(), sections), (3, 1));
        }
    }

    /// The report is what the run measured: its wire bytes are the exchange payload
    /// the ranks sent, its overlap fraction the share of the round loop's bytes moved
    /// while a round was in flight — on any layout and either backend.
    #[test]
    fn histogram_and_report_are_consistent() {
        if hysortk_dmem::ran_in_own_process("pipeline::tests::histogram_and_report_are_consistent")
        {
            return;
        }
        let reads = overlapping_reads(7);
        for (ranks, overlap, backend) in [1usize, 2, 3].into_iter().flat_map(|ranks| {
            [true, false].into_iter().flat_map(move |overlap| {
                [Backend::Thread, Backend::Process].map(|backend| (ranks, overlap, backend))
            })
        }) {
            let what = format!("ranks {ranks} overlap {overlap} backend {backend}");
            let mut cfg = small_cfg(21, 9, ranks);
            cfg.batch_size = 64;
            cfg.overlap = overlap;
            cfg.backend = backend;
            let result = count_kmers::<Kmer1>(&reads, &cfg);
            let report = &result.report;
            assert_eq!(report.distinct_kmers, result.histogram.distinct(), "{what}");
            assert_eq!(report.retained_kmers, result.counts.len() as u64, "{what}");
            assert_eq!(
                (report.rank_work.len(), report.rank_comm.len()),
                (ranks, ranks)
            );
            assert_eq!(
                report.total_kmers,
                reads.total_kmers(21) as u64,
                "{what}: every k-mer parsed once, not projected"
            );
            let exchange = report.comm.stage("exchange").map_or(0, |s| s.payload_bytes);
            assert_eq!(report.total_wire_bytes, exchange, "{what}");
            assert_eq!(report.total_wire_bytes > 0, ranks > 1, "{what}");
            let rounds = report.rank_work.iter().map(|w| w.rounds).max().unwrap();
            if overlap && rounds >= 2 {
                assert!(
                    report.overlap_fraction > 0.0 && report.overlap_fraction <= 1.0,
                    "{what}: {}",
                    report.overlap_fraction
                );
            } else {
                assert_eq!(report.overlap_fraction, 0.0, "{what}");
            }
            assert!(!overlap || rounds >= 2, "{what}: the batch cuts rounds");
        }
    }

    #[test]
    fn data_scale_projects_counters_but_not_counts() {
        let reads = overlapping_reads(8);
        let mut cfg = small_cfg(21, 9, 2);
        let machine = MachineConfig::workstation(8, 32);
        let unscaled = count_kmers::<Kmer1>(&reads, &cfg);
        let full = project(&unscaled.report, &cfg, &machine).unwrap();
        cfg.data_scale = 0.01;
        let scaled = count_kmers::<Kmer1>(&reads, &cfg);
        let projected = project(&scaled.report, &cfg, &machine).unwrap();
        assert_eq!(unscaled.counts, scaled.counts);
        // The report is what the run measured, whatever it stands in for.
        assert_eq!(scaled.report.total_kmers, unscaled.report.total_kmers);
        assert_eq!(full.total_kmers, unscaled.report.total_kmers);
        assert!(projected.total_kmers > full.total_kmers * 50);
        assert!(projected.total_time() > full.total_time());
        assert!(full.total_time() > 0.0 && full.peak_memory_per_node > 0);
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
