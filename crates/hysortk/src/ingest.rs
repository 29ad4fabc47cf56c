//! Streaming file ingestion: run the pipeline on real FASTA/FASTQ files.
//!
//! [`count_kmers_from_files`] is the file-fed twin of
//! [`count_kmers`](crate::count_kmers). Instead of requiring a complete in-memory
//! [`ReadSet`](hysortk_dna::ReadSet) up front, every simulated rank opens its own
//! byte shard of the input (see [`hysortk_dna::io::ShardReader`]) and streams it in
//! fixed-size blocks, running stage 1 **as the batches come in** on the rank's worker
//! pool — once the ingested batches hold about a mebibase (`PARSE_CALL_BASES`), so a
//! parse call has the same size however small the batches are; the parse scratches
//! persist across calls ([`Stage1Parser`](crate::pipeline)). Nothing of a batch outlives
//! its parse: every supermer is written in wire form into its task's body while its read
//! is hot, the batch's packed reads are dropped when the parse returns, and the ASCII
//! text is never held beyond one block per rank. What a rank holds when stage 1 ends is
//! its tasks' bodies ([`RunReport::staged_bytes`](crate::RunReport::staged_bytes)).
//!
//! The two entry points produce **identical counts and histograms** on clean
//! (`ACGT`-only) inputs — stage 2 and stage 3 are literally the same code — which the
//! cross-crate property suite pins across rank counts and overlap modes. On real
//! inputs the readers additionally split reads at ambiguous-base runs (`N`, IUPAC
//! codes), so no fabricated k-mer ever enters the pipeline; the in-memory
//! [`fasta`](hysortk_dna::fasta) reference parser keeps its historical map-to-`A`
//! policy instead.
//!
//! Extension (provenance) read ids are rank-striped (`local_index × ranks + rank`)
//! rather than globally dense: dense ids would need a prefix scan over all shards
//! before any rank could start parsing. Counts are unaffected.
//!
//! # Failure behavior
//!
//! Every entry point returns [`HysortkError`] with the offending file, rank and round
//! attached. Transient read failures (`Interrupted`, `TimedOut`, `WouldBlock` — see
//! [`is_transient_io_error`]) are retried up to
//! [`HySortKConfig::io_retries`](crate::HySortKConfig::io_retries) times with jittered
//! exponential backoff (base [`HySortKConfig::io_backoff_ms`]) before they surface;
//! successful retries are tallied in
//! [`RunReport::io_retries`](crate::RunReport::io_retries). Unrecoverable ingest
//! errors do **not** make a rank bail out of the SPMD collectives (that would
//! deadlock its peers): the rank finishes the run with whatever it parsed and the
//! error is surfaced afterwards. [`count_kmers_from_files_faulted`] additionally
//! wires a [`FaultPlan`] into the simulated cluster so chaos tests can inject
//! delays, wire corruption, rank failures and transient I/O errors deterministically.
//!
//! Rank failures — injected crashes and the
//! [`PeerFailed`](hysortk_dmem::DmemError::PeerFailed) echoes they
//! leave on the peers — are the *recoverable* class: the cluster respawns all ranks
//! up to [`HySortKConfig::recovery_attempts`](crate::HySortKConfig::recovery_attempts)
//! times (exponential backoff from `recovery_backoff_ms`) and the respawned
//! generation restores from the last committed checkpoint epoch when
//! `checkpoint_dir` is set, or recounts from scratch when it is not. Either way the
//! counts are byte-identical to a fault-free run; `RunReport::recoveries` records how
//! many respawns it took.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hysortk_dmem::{Cluster, FaultPlan, RankCtx, RecoveryPolicy};
use hysortk_dna::io::{is_transient_io_error, list_inputs, IngestOptions, InputFile, ShardReader};
use hysortk_dna::kmer::KmerCode;
use hysortk_dna::readset::Read;
use hysortk_perfmodel::{PerfModel, SortAlgorithm};
use hysortk_task::WorkerPool;
use hysortk_trace as trace;

use crate::config::HySortKConfig;
use crate::error::HysortkError;
use crate::pipeline::{
    merge_outputs, sections_for, select_sorter, stages_2_and_3, RankCounters, RankOutput,
    Stage1Parser, PARSE_CALL_BASES,
};
use crate::result::CountResult;

/// Count the canonical k-mers of one or more FASTA/FASTQ files with the full HySortK
/// pipeline, streaming each rank's shard of the input in fixed-size blocks.
///
/// Formats are detected per file (extension, falling back to the first byte), so FASTA
/// and FASTQ files can be mixed freely in one run. See [`count_kmers_from_files_with`]
/// to tune the ingestion block and batch sizes.
pub fn count_kmers_from_files<K: KmerCode, P: AsRef<Path>>(
    paths: &[P],
    cfg: &HySortKConfig,
) -> Result<CountResult<K>, HysortkError> {
    count_kmers_from_files_with(paths, cfg, IngestOptions::default())
}

/// [`count_kmers_from_files`] with explicit [`IngestOptions`].
///
/// `opts.min_fragment` is raised to `cfg.k`: a fragment shorter than k contains no
/// k-mer, so dropping it cannot change the counts and keeps the batches lean on
/// `N`-rich inputs.
pub fn count_kmers_from_files_with<K: KmerCode, P: AsRef<Path>>(
    paths: &[P],
    cfg: &HySortKConfig,
    opts: IngestOptions,
) -> Result<CountResult<K>, HysortkError> {
    count_kmers_from_files_inner(paths, cfg, opts, None)
}

/// [`count_kmers_from_files_with`] with a [`FaultPlan`] attached to the simulated
/// cluster — the chaos-testing entry point.
///
/// The plan's faults fire deterministically at their configured rank × stage × round
/// sites: post delays and wire corruption inside the collectives, injected rank
/// failures as [`DmemError::FailRank`-style](hysortk_dmem::DmemError) aborts, and
/// transient I/O errors consumed by the ingest retry loop (see
/// [`FaultPlan::should_fail_io`]). With an empty plan this is byte-for-byte
/// [`count_kmers_from_files_with`].
pub fn count_kmers_from_files_faulted<K: KmerCode, P: AsRef<Path>>(
    paths: &[P],
    cfg: &HySortKConfig,
    opts: IngestOptions,
    plan: Arc<FaultPlan>,
) -> Result<CountResult<K>, HysortkError> {
    count_kmers_from_files_inner(paths, cfg, opts, Some(plan))
}

fn count_kmers_from_files_inner<K: KmerCode, P: AsRef<Path>>(
    paths: &[P],
    cfg: &HySortKConfig,
    mut opts: IngestOptions,
    plan: Option<Arc<FaultPlan>>,
) -> Result<CountResult<K>, HysortkError> {
    cfg.validate().map_err(HysortkError::Config)?;
    assert!(
        cfg.k <= K::max_k(),
        "k = {} exceeds the chosen k-mer width",
        cfg.k
    );
    if paths.is_empty() {
        return Err(HysortkError::Config("no input files given".into()));
    }
    opts.min_fragment = opts.min_fragment.max(cfg.k);

    // Stat the inputs one at a time so an unreadable file is reported by name.
    let mut files: Vec<InputFile> = Vec::with_capacity(paths.len());
    for p in paths {
        let listed = list_inputs(std::slice::from_ref(p)).map_err(|source| HysortkError::Io {
            path: p.as_ref().display().to_string(),
            rank: 0,
            source,
        })?;
        files.extend(listed);
    }
    let total_bytes: u64 = files.iter().map(|f| f.bytes).sum();
    let p = cfg.total_ranks();
    let num_tasks = cfg.num_tasks();
    let model = PerfModel::new(cfg.machine.clone(), cfg.execution());

    // The sorter and the sections are derived as in `count_kmers`, from the on-disk
    // payload: ASCII bytes ≈ bases ≈ k-mers for FASTA; a mild overestimate for FASTQ,
    // which only makes the memory-aware choice more conservative and the sections
    // smaller.
    let sorter = select_sorter::<K>(cfg, &model, total_bytes, total_bytes);
    let sections = sections_for::<K>(cfg, total_bytes);

    let mut cluster = Cluster::new(p).with_backend(cfg.backend);
    if let Some(plan) = plan {
        cluster = cluster.with_fault_plan(plan);
    }
    // Rank failures (an injected crash and the peer echoes it leaves behind) are the
    // recoverable class: every affected rank unwound through the abort board, so the
    // cluster can respawn the whole generation. A respawn restores from the last
    // committed checkpoint epoch when one is configured, and recounts from scratch
    // when not — both reproduce the fault-free counts exactly. Concrete local defects
    // (wire corruption, I/O exhaustion, config rejection) stay immediate typed aborts.
    let policy = RecoveryPolicy {
        max_attempts: cfg.recovery_attempts,
        backoff: Duration::from_millis(cfg.recovery_backoff_ms),
    };
    let recoverable = |e: &HysortkError| match e {
        HysortkError::Comm(d) => d.is_rank_failure(),
        _ => false,
    };
    let run = cluster.run_recovering_wire(&policy, recoverable, |ctx| {
        rank_pipeline_from_files::<K>(ctx, &files, cfg, num_tasks, sorter, sections, &opts)
    });
    let joined = Instant::now();
    let mut outputs = Vec::with_capacity(run.results.len());
    let mut first_error: Option<HysortkError> = None;
    for result in run.results {
        match result {
            Ok(output) => outputs.push(output),
            Err(e) => {
                // Keep the root cause: a peer-failure echo never displaces a concrete
                // local error, and a concrete error always displaces an echo.
                let replace = match &first_error {
                    None => true,
                    Some(current) => current.is_peer_echo() && !e.is_peer_echo(),
                };
                if replace {
                    first_error = Some(e);
                }
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
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

/// A short label for "the input" in shard-level errors whose underlying message
/// already names the precise file (the piece parsers embed the path).
fn input_label(files: &[InputFile]) -> String {
    match files {
        [] => "<no input>".to_string(),
        [only] => only.path.display().to_string(),
        [first, rest @ ..] => format!("{} (+{} more)", first.path.display(), rest.len()),
    }
}

/// Deterministic per-(rank, attempt) jitter in `0..=exp/2`: spreads retry storms
/// without wall-clock randomness, so a replayed run backs off identically.
fn retry_jitter_ms(rank: usize, attempt: u32, exp: u64) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ (rank as u64) << 32 ^ u64::from(attempt);
    h = (h ^ (h >> 27))
        .wrapping_mul(0x0100_0000_01b3)
        .rotate_left(23);
    h % (exp / 2 + 1)
}

/// Fetch the next batch from the shard, absorbing transient failures (real or
/// injected via the cluster's [`FaultPlan`]) up to the configured attempt budget
/// (`cfg.io_retries` attempts in total) with jittered exponential backoff from
/// `cfg.io_backoff_ms`. Each absorbed failure increments `counters.io_retries`.
fn next_batch_with_retry(
    ctx: &RankCtx,
    shard: &mut ShardReader,
    rank: usize,
    cfg: &HySortKConfig,
    counters: &mut RankCounters,
) -> io::Result<Option<Vec<Read>>> {
    let attempts = cfg.io_retries;
    let mut attempt = 0u32;
    loop {
        let injected = ctx.fault_plan().is_some_and(|p| p.should_fail_io(rank));
        let result = if injected {
            Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "injected transient I/O fault",
            ))
        } else {
            shard.next_batch()
        };
        match result {
            Err(e) if is_transient_io_error(&e) && attempt + 1 < attempts => {
                attempt += 1;
                counters.io_retries += 1;
                trace::instant(
                    "io-retry",
                    trace::Detail::Stage,
                    rank as u32,
                    &[("attempt", u64::from(attempt))],
                );
                trace::vlog!(
                    rank,
                    "transient read failure (attempt {attempt}): {e}; retrying"
                );
                // Exponential base doubling per attempt (shift capped so a huge
                // configured budget cannot overflow), plus deterministic jitter so
                // simultaneous retries across ranks decorrelate.
                let exp = cfg.io_backoff_ms.saturating_mul(1 << (attempt - 1).min(10));
                let sleep_ms = exp + retry_jitter_ms(rank, attempt, exp);
                std::thread::sleep(Duration::from_millis(sleep_ms));
            }
            other => return other,
        }
    }
}

/// Stage 1 of one file-fed rank: stream its shard batch by batch, read ids assigned,
/// and parse the reads into `parser`'s staging — once their batches hold about
/// [`PARSE_CALL_BASES`], so that however small the batches, a parse call stages that
/// many — then drop them. Returns the error that stopped the ingest, if one did; what was
/// ingested until then is staged.
fn ingest_shard<K: KmerCode>(
    ctx: &RankCtx,
    files: &[InputFile],
    cfg: &HySortKConfig,
    opts: &IngestOptions,
    parser: &mut Stage1Parser<'_, K>,
    counters: &mut RankCounters,
) -> Result<(), HysortkError> {
    let (rank, p) = (ctx.rank(), ctx.size());
    let io_error = |source: io::Error| HysortkError::Io {
        path: input_label(files),
        rank,
        source,
    };
    let mut shard = ShardReader::open(files, rank, p, opts.clone()).map_err(io_error)?;
    let mut parse = |reads: &mut Vec<Read>, counters: &mut RankCounters| {
        let parse_start = Instant::now();
        let _parse_span = trace::span!(
            "parse-batch",
            trace::Detail::Round,
            rank,
            reads = reads.len(),
        );
        parser.parse(reads, counters);
        // Nothing of a batch outlives its parse; freeing it is part of the parse bucket.
        reads.clear();
        counters.wall.parse += parse_start.elapsed().as_secs_f64();
    };
    // Reads ingested so far: the next batch's first local index. Of them, the ones not
    // parsed yet, and their bases.
    let mut base = 0u64;
    let (mut pending, mut pending_bases) = (Vec::new(), 0usize);
    let ingested = loop {
        let read_start = Instant::now();
        let next = {
            let _span = trace::span!("shard-read", trace::Detail::Round, rank);
            next_batch_with_retry(ctx, &mut shard, rank, cfg, counters)
        };
        counters.wall.ingest += read_start.elapsed().as_secs_f64();
        let mut batch = match next {
            Ok(Some(batch)) => batch,
            Ok(None) => break Ok(()),
            Err(e) => break Err(io_error(e)),
        };
        if batch.is_empty() {
            continue;
        }
        // Striping multiplies by the rank count, so the u32 id space exhausts at
        // `u32::MAX / p` reads per shard — fail loudly instead of silently
        // wrapping into colliding provenance ids.
        let max_id = (base + batch.len() as u64 - 1) * p as u64 + rank as u64;
        if max_id > u64::from(u32::MAX) {
            break Err(io_error(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shard exceeds {} reads, the striped u32 read-id space",
                    u32::MAX / p as u32
                ),
            )));
        }
        for (i, read) in batch.iter_mut().enumerate() {
            read.id = ((base + i as u64) * p as u64 + rank as u64) as u32;
        }
        base += batch.len() as u64;
        pending_bases += batch.iter().map(Read::len).sum::<usize>();
        pending.append(&mut batch);
        if pending_bases >= PARSE_CALL_BASES {
            parse(&mut pending, counters);
            pending_bases = 0;
        }
    };
    if !pending.is_empty() {
        parse(&mut pending, counters);
    }
    ingested
}

/// One rank of the file-fed pipeline: stage 1 over its shard ([`ingest_shard`]), then
/// the staged supermers/records go to the shared stages 2 + 3.
///
/// An I/O error (unreadable file, malformed FASTQ record, …) must **not** make the
/// rank bail out early: the pipeline is SPMD, so a rank that skips the collectives
/// deadlocks every other rank inside the task-size allreduce or the exchange. The
/// rank instead stops ingesting, runs the remaining stages with whatever it parsed,
/// and reports the ingest error once the collectives are over — it takes precedence
/// over any later stage error, which can only be downstream fallout.
fn rank_pipeline_from_files<K: KmerCode>(
    ctx: &mut RankCtx,
    files: &[InputFile],
    cfg: &HySortKConfig,
    num_tasks: usize,
    sorter: SortAlgorithm,
    sections: u32,
    opts: &IngestOptions,
) -> Result<RankOutput<K>, HysortkError> {
    let rank_start = Instant::now();
    let rank = ctx.rank();
    let mut counters = RankCounters::default();
    let pool = WorkerPool::new(cfg.workers_per_process(), cfg.threads_per_worker).for_rank(rank);

    let ingest_span = trace::span!("stage1-ingest", trace::Detail::Stage, rank);
    let mut parser = Stage1Parser::<K>::new(cfg, num_tasks, sections, &pool);
    let ingested = ingest_shard(ctx, files, cfg, opts, &mut parser, &mut counters);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_kmers;
    use hysortk_dmem::FaultKind;
    use hysortk_dna::kmer::Kmer1;
    use hysortk_dna::{fasta, ReadSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hysortk_ingest_{}_{tag}", std::process::id()))
    }

    fn overlapping_reads(seed: u64) -> ReadSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let genome: Vec<u8> = (0..2_500).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
        let reads: Vec<Vec<u8>> = (0..80)
            .map(|_| {
                let start = rng.gen_range(0..genome.len() - 250);
                genome[start..start + 250].to_vec()
            })
            .collect();
        ReadSet::from_ascii_reads(&reads)
    }

    fn small_cfg(ranks: usize) -> HySortKConfig {
        let mut cfg = HySortKConfig::small(21, 9, ranks);
        cfg.min_count = 1;
        cfg.max_count = 1_000_000;
        cfg
    }

    #[test]
    fn file_fed_counts_match_the_in_memory_path() {
        let reads = overlapping_reads(31);
        let path = tmp_path("match.fa");
        fasta::write_fasta_file(&path, &reads, 70).unwrap();
        let cfg = small_cfg(3);
        let expected = count_kmers::<Kmer1>(&reads, &cfg);
        let got = count_kmers_from_files::<Kmer1, _>(&[&path], &cfg).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(got.counts, expected.counts);
        assert_eq!(got.histogram, expected.histogram);
    }

    #[test]
    fn tiny_ingest_blocks_change_nothing() {
        let reads = overlapping_reads(32);
        let path = tmp_path("tinyblocks.fa");
        fasta::write_fasta_file(&path, &reads, 70).unwrap();
        let cfg = small_cfg(2);
        let expected = count_kmers::<Kmer1>(&reads, &cfg);
        let opts = IngestOptions {
            block_bytes: 64,
            batch_records: 5,
            min_fragment: 1,
        };
        let got = count_kmers_from_files_with::<Kmer1, _>(&[&path], &cfg, opts).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(got.counts, expected.counts);
    }

    /// What stage 1 stages is a function of the reads alone: byte for byte the same at
    /// every pool width, however the feed batches the reads, from a file or from
    /// memory — and, block by block, what a sequential parse hands
    /// [`SupermerBlockWriter`] (with extensions; without, the same bases behind
    /// one-byte headers).
    #[test]
    fn staged_bodies_do_not_depend_on_pool_width_batching_or_feed() {
        use crate::pipeline::{SendSerializer, Stage1};
        use crate::wire::{read_blocks, PayloadView, SupermerBlockWriter};
        use hysortk_supermer::mmer::{MmerScorer, ScoreFunction};
        use hysortk_supermer::streaming::{for_each_supermer, SupermerScratch};

        const TASKS: usize = 12;
        let reads = overlapping_reads(36);
        let path = tmp_path("staged.fa");
        fasta::write_fasta_file(&path, &reads, 70).unwrap();
        let files = list_inputs(&[&path]).unwrap();

        // Every task's block as the serializer writes it, and the bytes staged.
        let blocks_of = |stage1: Stage1<Kmer1>, cfg: &HySortKConfig| {
            let (sizes, staged) = (stage1.local_sizes(), stage1.staged_bytes());
            let ser = SendSerializer::new(stage1, &sizes, &[], cfg);
            let blocks: Vec<Vec<u8>> = (0..TASKS)
                .map(|t| {
                    let mut block = Vec::new();
                    ser.serialize_task(t, &mut block);
                    block
                })
                .collect();
            // A block is its body between a 9-byte header and a 4-byte checksum.
            let bodies: usize = blocks.iter().map(|b| b.len().saturating_sub(13)).sum();
            assert_eq!(staged, bodies as u64);
            blocks
        };

        let mut cfg = small_cfg(1);
        let scorer = MmerScorer::new(cfg.m, ScoreFunction::Hash { seed: cfg.seed });
        let mut spans = vec![Vec::new(); TASKS];
        let mut scratch = SupermerScratch::new();
        for read in reads.reads() {
            for_each_supermer(
                &read.seq,
                cfg.k,
                &scorer,
                TASKS as u32,
                &mut scratch,
                |sm| {
                    spans[sm.target as usize].push((read, sm.start, sm.len()));
                },
            );
        }
        let written: Vec<Vec<u8>> = (spans.iter().enumerate())
            .map(|(t, spans)| {
                let mut block = Vec::new();
                let mut writer = SupermerBlockWriter::new(&mut block, t as u32, spans.len() as u32);
                for &(read, start, len) in spans {
                    writer.push(read.id, start, &read.seq, start as usize, len);
                }
                drop(writer);
                block
            })
            .collect();

        for with_extension in [true, false] {
            cfg.with_extension = with_extension;
            let mut staged: Vec<Vec<Vec<u8>>> = Vec::new();
            for width in [1usize, 2, 3, 5] {
                let pool = WorkerPool::new(width, 1);
                let mut parser = Stage1Parser::<Kmer1>::new(&cfg, TASKS, 1, &pool);
                parser.parse(reads.reads(), &mut RankCounters::default());
                staged.push(blocks_of(parser.finish(), &cfg));
                for batch_records in [5usize, 1_024] {
                    let opts = IngestOptions {
                        batch_records,
                        min_fragment: cfg.k,
                        ..IngestOptions::default()
                    };
                    let fed = Cluster::new(1).run(|ctx| {
                        let mut parser = Stage1Parser::<Kmer1>::new(&cfg, TASKS, 1, &pool);
                        let mut counters = RankCounters::default();
                        ingest_shard(ctx, &files, &cfg, &opts, &mut parser, &mut counters).unwrap();
                        parser.finish()
                    });
                    let fed = fed.results.into_iter().next().unwrap();
                    staged.push(blocks_of(fed, &cfg));
                }
            }
            assert!(staged.iter().all(|blocks| blocks == &staged[0]));
            if with_extension {
                assert_eq!(staged[0], written);
                continue;
            }
            for (bare, tagged) in staged[0].iter().zip(&written) {
                let (bare, tagged) = (read_blocks::<Kmer1>(bare), read_blocks::<Kmer1>(tagged));
                for (bare, tagged) in bare.unwrap().iter().zip(&tagged.unwrap()) {
                    assert_eq!(bare.task, tagged.task);
                    let (PayloadView::Supermers(bare), PayloadView::Supermers(tagged)) =
                        (&bare.payload, &tagged.payload)
                    else {
                        panic!("supermer tasks")
                    };
                    assert!(!bare.has_provenance() && tagged.has_provenance());
                    assert_eq!(bare.len(), tagged.len());
                    for (a, b) in bare.iter().zip(tagged.iter()) {
                        assert_eq!(a.to_supermer(0).seq, b.to_supermer(0).seq);
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_ablation_mode_ingests_identically() {
        let reads = overlapping_reads(33);
        let path = tmp_path("records.fa");
        fasta::write_fasta_file(&path, &reads, 70).unwrap();
        let mut cfg = small_cfg(3);
        cfg.use_supermers = false;
        let expected = count_kmers::<Kmer1>(&reads, &cfg);
        let got = count_kmers_from_files::<Kmer1, _>(&[&path], &cfg).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(got.counts, expected.counts);
    }

    #[test]
    fn malformed_input_errors_do_not_deadlock_the_cluster() {
        // Regression: a rank that hits a malformed record used to return before the
        // collectives, deadlocking every other rank inside the task-size allreduce.
        // The erroring rank must complete the SPMD stages and surface the error after
        // the run.
        let path = tmp_path("malformed.fq");
        std::fs::write(&path, "@r\nACGTACGTACGTACGTACGTACGT\n+\nIII\n").unwrap();
        for ranks in [1usize, 4] {
            let cfg = small_cfg(ranks);
            let err = count_kmers_from_files::<Kmer1, _>(&[&path], &cfg).unwrap_err();
            assert_eq!(err.exit_code(), 3, "ranks={ranks}");
            assert!(
                err.to_string().contains("quality length"),
                "ranks={ranks}: unexpected error {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_files_surface_as_errors() {
        let cfg = small_cfg(2);
        let missing = tmp_path("does_not_exist.fa");
        let err = count_kmers_from_files::<Kmer1, _>(&[&missing], &cfg).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(
            err.to_string().contains("does_not_exist"),
            "error must name the file: {err}"
        );
        let none: [&std::path::Path; 0] = [];
        let err = count_kmers_from_files::<Kmer1, _>(&none, &cfg).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn transient_io_failures_are_retried_to_identical_counts() {
        // A reader whose first calls fail transiently must end with byte-identical
        // counts and the retries visible in the run report (satellite: bounded
        // transient-I/O retry).
        let reads = overlapping_reads(34);
        let path = tmp_path("transient.fa");
        fasta::write_fasta_file(&path, &reads, 70).unwrap();
        let cfg = small_cfg(2);
        let healthy = count_kmers_from_files::<Kmer1, _>(&[&path], &cfg).unwrap();
        assert_eq!(healthy.report.io_retries, 0);

        let mut plan = FaultPlan::new();
        plan = plan.with_fault(0, "ingest", 0, FaultKind::TransientIo { failures: 2 });
        let got = count_kmers_from_files_faulted::<Kmer1, _>(
            &[&path],
            &cfg,
            IngestOptions::default(),
            Arc::new(plan),
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(got.counts, healthy.counts);
        assert_eq!(got.histogram, healthy.histogram);
        assert_eq!(got.report.io_retries, 2);
    }

    #[test]
    fn transient_failures_beyond_the_retry_budget_surface_as_io_errors() {
        let reads = overlapping_reads(35);
        let path = tmp_path("exhausted.fa");
        fasta::write_fasta_file(&path, &reads, 70).unwrap();
        let cfg = small_cfg(2);
        // Far more injected failures than one retry loop absorbs.
        let mut plan = FaultPlan::new();
        plan = plan.with_fault(0, "ingest", 0, FaultKind::TransientIo { failures: 1_000 });
        let err = count_kmers_from_files_faulted::<Kmer1, _>(
            &[&path],
            &cfg,
            IngestOptions::default(),
            Arc::new(plan),
        )
        .unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.exit_code(), 3);
        assert!(
            err.to_string().contains("injected transient I/O fault"),
            "unexpected error: {err}"
        );
    }
}
