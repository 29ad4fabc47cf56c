//! Streaming file ingestion: run the pipeline on real FASTA/FASTQ files.
//!
//! [`count_kmers_from_files`] runs the one pipeline driver of
//! [`count_kmers`](crate::count_kmers) on a file source: the only difference is how
//! stage 1 is fed. Instead of slicing a complete in-memory
//! [`ReadSet`](hysortk_dna::ReadSet), every simulated rank opens its own
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
//! The two sources produce **identical counts and histograms** on clean
//! (`ACGT`-only) inputs — everything past stage 1's feed is the same code — which the
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
//! attached. A read error fails where it happens: an interrupted read (`EINTR`) is
//! retried in place by the block reader, and any other error — or a malformed record —
//! ends the rank's shard and surfaces as [`HysortkError::Io`]. Ingest errors do **not**
//! make a rank bail out of the SPMD collectives (that would deadlock its peers): the
//! rank finishes the run with whatever it parsed and the error is surfaced afterwards.
//! [`count_kmers_from_files_faulted`] additionally wires a [`FaultPlan`] into the
//! simulated cluster so chaos tests can inject delays, wire corruption and rank
//! failures deterministically.
//!
//! Rank failures — injected crashes and the
//! [`PeerFailed`](hysortk_dmem::DmemError::PeerFailed) echoes they
//! leave on the peers — are the *recoverable* class: the cluster respawns all ranks
//! up to [`HySortKConfig::recovery_attempts`](crate::HySortKConfig::recovery_attempts)
//! times, and the respawned generation restores from the last committed checkpoint
//! epoch when `checkpoint_dir` is set, or recounts from scratch when it is not. Either way the
//! counts are byte-identical to a fault-free run; `RunReport::recoveries` records how
//! many respawns it took.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hysortk_dmem::{FaultPlan, RankCtx};
use hysortk_dna::io::{list_inputs, IngestOptions, InputFile, ShardReader};
use hysortk_dna::kmer::KmerCode;
use hysortk_dna::readset::Read;
use hysortk_trace as trace;

use crate::config::HySortKConfig;
use crate::error::HysortkError;
use crate::pipeline::{run, Input, RankCounters, Stage1Parser, PARSE_CALL_BASES};
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
    run(Input::Files(&list_files(paths)?, opts), cfg, None)
}

/// [`count_kmers_from_files_with`] with a [`FaultPlan`] attached to the simulated
/// cluster — the chaos-testing entry point.
///
/// The plan's faults fire deterministically at their configured rank × stage × round
/// sites: post delays and wire corruption inside the collectives, and injected rank
/// failures as [`DmemError::FailRank`-style](hysortk_dmem::DmemError) aborts. With an
/// empty plan this is byte-for-byte [`count_kmers_from_files_with`].
pub fn count_kmers_from_files_faulted<K: KmerCode, P: AsRef<Path>>(
    paths: &[P],
    cfg: &HySortKConfig,
    opts: IngestOptions,
    plan: Arc<FaultPlan>,
) -> Result<CountResult<K>, HysortkError> {
    run(Input::Files(&list_files(paths)?, opts), cfg, Some(plan))
}

/// The input files behind `paths`, stat-ed one at a time so an unreadable file is
/// reported by name.
fn list_files<P: AsRef<Path>>(paths: &[P]) -> Result<Vec<InputFile>, HysortkError> {
    if paths.is_empty() {
        return Err(HysortkError::Config("no input files given".into()));
    }
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let listed = list_inputs(std::slice::from_ref(p)).map_err(|source| HysortkError::Io {
            path: p.as_ref().display().to_string(),
            rank: 0,
            source,
        })?;
        files.extend(listed);
    }
    Ok(files)
}

/// Stage 1 of one file-fed rank: stream its shard batch by batch, read ids assigned,
/// and parse the reads into `parser`'s staging — once their batches hold about
/// [`PARSE_CALL_BASES`], so that however small the batches, a parse call stages that
/// many — then drop them. Returns the error that stopped the ingest, if one did; what was
/// ingested until then is staged. `opts.min_fragment` is raised to `cfg.k`: a fragment
/// shorter than k holds no k-mer.
pub(crate) fn ingest_shard(
    ctx: &RankCtx,
    files: &[InputFile],
    cfg: &HySortKConfig,
    opts: &IngestOptions,
    parser: &mut Stage1Parser<'_>,
    counters: &mut RankCounters,
) -> Result<(), HysortkError> {
    let (rank, p) = (ctx.rank(), ctx.size());
    // Named by the file the shard was reading: opening a shard reads nothing, and every
    // read error comes from a piece of one file.
    let io_error = |path: Option<&Path>, source: io::Error| HysortkError::Io {
        path: path.map(|p| p.display().to_string()).unwrap_or_default(),
        rank,
        source,
    };
    let opts = IngestOptions {
        min_fragment: opts.min_fragment.max(cfg.k),
        ..opts.clone()
    };
    let mut shard = ShardReader::open(files, rank, p, opts).map_err(|e| io_error(None, e))?;
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
            shard.next_batch()
        };
        counters.wall.ingest += read_start.elapsed().as_secs_f64();
        let mut batch = match next {
            Ok(Some(batch)) => batch,
            Ok(None) => break Ok(()),
            Err(e) => break Err(io_error(shard.path(), e)),
        };
        if batch.is_empty() {
            continue;
        }
        // Striping multiplies by the rank count, so the u32 id space exhausts at
        // `u32::MAX / p` reads per shard — fail loudly instead of silently
        // wrapping into colliding provenance ids.
        let max_id = (base + batch.len() as u64 - 1) * p as u64 + rank as u64;
        if max_id > u64::from(u32::MAX) {
            break Err(io_error(
                shard.path(),
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard exceeds {} reads, the striped u32 read-id space",
                        u32::MAX / p as u32
                    ),
                ),
            ));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_kmers;
    use hysortk_dmem::Cluster;
    use hysortk_dna::kmer::Kmer1;
    use hysortk_dna::{fasta, ReadSet};
    use hysortk_task::WorkerPool;
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
        let blocks_of = |stage1: Stage1, cfg: &HySortKConfig| {
            let staged = stage1.staged_bytes();
            let mut ser = SendSerializer::<Kmer1>::new(stage1, &[], cfg);
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
                let mut parser = Stage1Parser::new(&cfg, TASKS, 1, &pool);
                parser.parse(reads.reads(), &mut RankCounters::default());
                staged.push(blocks_of(parser.finish(), &cfg));
                for batch_records in [5usize, 1_024] {
                    let opts = IngestOptions {
                        batch_records,
                        min_fragment: cfg.k,
                        ..IngestOptions::default()
                    };
                    let fed = Cluster::new(1).run(|ctx| {
                        let mut parser = Stage1Parser::new(&cfg, TASKS, 1, &pool);
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
    fn zero_threads_per_worker_is_a_config_error_not_a_panic() {
        let path = tmp_path("tpw0.fa");
        fasta::write_fasta_file(&path, &overlapping_reads(37), 70).unwrap();
        let mut cfg = small_cfg(2);
        cfg.threads_per_worker = 0;
        let err = count_kmers_from_files::<Kmer1, _>(&[&path], &cfg).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, HysortkError::Config(_)), "{err}");
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("threads_per_worker"), "{err}");
    }
}
