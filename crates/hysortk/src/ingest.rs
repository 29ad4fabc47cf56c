//! Streaming file ingestion: run the pipeline on real FASTA/FASTQ files.
//!
//! [`count_kmers_from_files`] runs the one pipeline driver of
//! [`count_kmers`](crate::count_kmers) on a file source: the only difference is how
//! stage 1 is fed. Instead of slicing a complete in-memory
//! [`ReadSet`](hysortk_dna::ReadSet), every simulated rank opens its own
//! byte shard of the input ([`shard_byte_ranges`]) and walks it in **windows** of
//! `threads ×` [`IngestOptions::block_bytes`] bytes, at least a mebibyte. Each window is cut into one piece
//! per pool thread by the rule that splits the input across ranks — a record belongs to
//! the piece that holds its first byte — and every thread reads its piece through its
//! own block buffer ([`RangeReader`](hysortk_dna::io::RangeReader)), packs each fragment
//! into its own reused scratch and extracts its supermers while the read is hot; the
//! window's supermers are then written once, in wire form, straight into the tasks'
//! bodies ([`Stage1Parser`](crate::pipeline)). No read outlives its window, and the ASCII
//! text is never held beyond one block per thread. What a rank holds when stage 1 ends
//! is its tasks' bodies ([`RunReport::staged_bytes`](crate::RunReport::staged_bytes)).
//!
//! The two sources produce **identical counts and histograms** on clean
//! (`ACGT`-only) inputs — everything past stage 1's feed is the same code — which the
//! cross-crate property suite pins across rank counts and overlap modes. On real
//! inputs the readers additionally split reads at ambiguous-base runs (`N`, IUPAC
//! codes), so no fabricated k-mer ever enters the pipeline; the in-memory
//! [`fasta`](hysortk_dna::fasta) reference parser keeps its historical map-to-`A`
//! policy instead.
//!
//! Extension (provenance) read ids are rank-striped (`local_index × ranks + rank`, the
//! local index counting the rank's fragments in input order) rather than globally
//! dense: dense ids would need a prefix scan over all shards before any rank could start
//! parsing. Counts are unaffected.
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

use std::path::Path;
use std::sync::Arc;

use hysortk_dmem::{FaultPlan, RankCtx};
use hysortk_dna::io::{list_inputs, shard_byte_ranges, IngestOptions, InputFile};
use hysortk_dna::kmer::KmerCode;

use crate::config::HySortKConfig;
use crate::error::HysortkError;
use crate::pipeline::{run, Input, Piece, RankCounters, Stage1Parser, PARSE_CALL_BASES};
use crate::result::CountResult;

/// Count the canonical k-mers of one or more FASTA/FASTQ files with the full HySortK
/// pipeline, streaming each rank's shard of the input in fixed-size blocks.
///
/// Formats are detected per file (extension, falling back to the first byte), so FASTA
/// and FASTQ files can be mixed freely in one run. See [`count_kmers_from_files_with`]
/// to tune the ingestion block size.
pub fn count_kmers_from_files<K: KmerCode, P: AsRef<Path>>(
    paths: &[P],
    cfg: &HySortKConfig,
) -> Result<CountResult<K>, HysortkError> {
    count_kmers_from_files_with(paths, cfg, IngestOptions::default())
}

/// [`count_kmers_from_files`] with explicit [`IngestOptions`].
///
/// `opts.min_fragment` is raised to `cfg.k`: a fragment shorter than k contains no
/// k-mer, so dropping it cannot change the counts and keeps the windows lean on
/// `N`-rich inputs. `opts.batch_records` shapes only the batches of
/// [`ShardReader`](hysortk_dna::io::ShardReader), which this path does not read.
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

/// Bytes of a rank's shard one stage-1 window covers on a pool of `threads`: a block
/// per thread, and at least [`PARSE_CALL_BASES`] — what an in-memory window holds —
/// because a window costs two pool calls and a layout whatever its size, and adds an
/// entry per section to every task body it stages for. A block smaller than that
/// shortens the readers' refills, not the windows.
pub(crate) fn window_bytes(threads: usize, block_bytes: usize) -> u64 {
    threads.saturating_mul(block_bytes).max(PARSE_CALL_BASES) as u64
}

/// Stage 1 of one file-fed rank: walk its shard (its byte range of the concatenated
/// input, [`shard_byte_ranges`]) in windows of `window` bytes ([`window_bytes`]), each
/// cut into one [`Piece`] per pool thread, and stage them ([`Stage1Parser::window`]). A
/// window that ends inside a record ends where its reader stopped, so the next one
/// starts past the record instead of re-reading it. Returns the error that stopped the
/// ingest, if one did; the windows before it are staged. `opts.min_fragment` is raised
/// to `cfg.k`: a fragment shorter than k holds no k-mer.
pub(crate) fn ingest_shard(
    ctx: &RankCtx,
    files: &[InputFile],
    cfg: &HySortKConfig,
    opts: &IngestOptions,
    window: u64,
    parser: &mut Stage1Parser<'_>,
    counters: &mut RankCounters,
) -> Result<(), HysortkError> {
    let opts = IngestOptions {
        min_fragment: opts.min_fragment.max(cfg.k),
        ..opts.clone()
    };
    let total: u64 = files.iter().map(|f| f.bytes).sum();
    let (mut at, end) = shard_byte_ranges(total, ctx.size())[ctx.rank()];
    let threads = parser.threads();
    let window = window.max(1);
    while at < end {
        let stop = end.min(at + window);
        let pieces = (shard_byte_ranges(stop - at, threads).into_iter())
            .filter(|(lo, hi)| lo < hi)
            .map(|(lo, hi)| Piece::File {
                files,
                opts: &opts,
                range: at + lo..at + hi,
            })
            .collect();
        at = parser.window(pieces, counters)?.max(stop);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_kmers;
    use crate::pipeline::{SendSerializer, Stage1};
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

    /// Every task's block as the serializer writes it, after checking that the bytes
    /// staged are the blocks' bodies.
    fn blocks_of(stage1: Stage1, tasks: usize, cfg: &HySortKConfig) -> Vec<Vec<u8>> {
        let staged = stage1.staged_bytes();
        let mut ser = SendSerializer::<Kmer1>::new(stage1, &[], cfg);
        let blocks: Vec<Vec<u8>> = (0..tasks)
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
    }

    /// What one rank stages from `files` on a pool `width` threads wide, reading
    /// `block_bytes` per thread and window — below [`window_bytes`]' floor, so that a
    /// small file crosses many window edges.
    fn file_fed_blocks(
        files: &[InputFile],
        cfg: &HySortKConfig,
        tasks: usize,
        width: usize,
        block_bytes: usize,
    ) -> Vec<Vec<u8>> {
        let opts = IngestOptions {
            block_bytes,
            ..IngestOptions::default()
        };
        let pool = WorkerPool::new(width, 1);
        let fed = Cluster::new(1).run(|ctx| {
            let mut parser = Stage1Parser::new(cfg, tasks, 1, &pool);
            let mut counters = RankCounters::default();
            let window = (width * block_bytes) as u64;
            ingest_shard(ctx, files, cfg, &opts, window, &mut parser, &mut counters).unwrap();
            parser.finish()
        });
        blocks_of(fed.results.into_iter().next().unwrap(), tasks, cfg)
    }

    /// What stage 1 stages is a function of the reads alone: byte for byte the same at
    /// every pool width, however the feed cuts the input into windows, from a file or
    /// from memory — and, block by block, what a sequential parse hands
    /// [`SupermerBlockWriter`] (with extensions; without, the same bases behind
    /// one-byte headers).
    #[test]
    fn staged_bodies_do_not_depend_on_pool_width_batching_or_feed() {
        use crate::wire::{read_blocks, PayloadView, SupermerBlockWriter};
        use hysortk_supermer::mmer::{MmerScorer, ScoreFunction};
        use hysortk_supermer::streaming::{for_each_supermer, SupermerScratch};

        const TASKS: usize = 12;
        let reads = overlapping_reads(36);
        let path = tmp_path("staged.fa");
        fasta::write_fasta_file(&path, &reads, 70).unwrap();
        let files = list_inputs(&[&path]).unwrap();

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
                staged.push(blocks_of(parser.finish(), TASKS, &cfg));
                for block_bytes in [200usize, 1 << 20] {
                    staged.push(file_fed_blocks(&files, &cfg, TASKS, width, block_bytes));
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

    /// A FASTQ file whose every quality line starts with `@` — so every piece start
    /// that lands on one must not take it for a header — and a wrapped FASTA file, both
    /// with `N` runs that split reads into fragments, some shorter than k.
    fn window_edge_files(seed: u64) -> [PathBuf; 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        let genome: Vec<u8> = (0..1_200).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
        let read = |rng: &mut StdRng| {
            let len = rng.gen_range(20..140);
            let start = rng.gen_range(0..genome.len() - len);
            let mut seq = genome[start..start + len].to_vec();
            if rng.gen_bool(0.3) {
                let at = rng.gen_range(0..len);
                let run = rng.gen_range(1..4).min(len - at);
                seq[at..at + run].fill(b'N');
            }
            String::from_utf8(seq).unwrap()
        };
        let mut fastq = String::new();
        for i in 0..60 {
            let seq = read(&mut rng);
            let quality = format!("@{}", "I".repeat(seq.len() - 1));
            fastq.push_str(&format!("@q{i} x\n{seq}\n+\n{quality}\n"));
        }
        let mut fasta = String::new();
        for i in 0..40 {
            fasta.push_str(&format!(">f{i}\n"));
            for line in read(&mut rng).as_bytes().chunks(13) {
                fasta.push_str(std::str::from_utf8(line).unwrap());
                fasta.push('\n');
            }
        }
        let paths = [
            tmp_path(&format!("edges{seed}.fq")),
            tmp_path(&format!("edges{seed}.fa")),
        ];
        std::fs::write(&paths[0], fastq).unwrap();
        std::fs::write(&paths[1], fasta).unwrap();
        paths
    }

    /// Window and piece edges move nothing. At blocks of 64 and 97 bytes, records
    /// straddle every kind of edge; at 1 MiB one window spans both files. At every pool
    /// width the staged blocks equal the in-memory parse of what `read_paths` reads —
    /// the fragments in input order, with dense ids, which extension runs carry — and the
    /// counts at 1 and 3 ranks equal the oracle's over those fragments.
    #[test]
    fn window_and_piece_edges_change_no_staged_byte_and_no_count() {
        use hysortk_dna::io::read_paths;

        const TASKS: usize = 6;
        let paths = window_edge_files(41);
        let files = list_inputs(&paths).unwrap();
        let mut cfg = HySortKConfig::small(15, 7, 1);
        cfg.min_count = 1;
        cfg.max_count = 1_000_000;
        let opts = IngestOptions {
            min_fragment: cfg.k,
            ..IngestOptions::default()
        };
        let fragments = read_paths(&paths, opts).unwrap();
        assert!(fragments.len() > 100, "{} fragments", fragments.len());
        let expected = crate::reference_counts_bounded::<Kmer1>(&fragments, cfg.k, 1, 1_000_000);
        for with_extension in [false, true] {
            cfg.with_extension = with_extension;
            let pool = WorkerPool::new(1, 1);
            let mut parser = Stage1Parser::new(&cfg, TASKS, 1, &pool);
            parser.parse(fragments.reads(), &mut RankCounters::default());
            let in_memory = blocks_of(parser.finish(), TASKS, &cfg);
            for block_bytes in [64usize, 97, 1 << 20] {
                for width in [1usize, 2, 3] {
                    let got = file_fed_blocks(&files, &cfg, TASKS, width, block_bytes);
                    let context = format!("ext={with_extension} block={block_bytes} width={width}");
                    assert!(got == in_memory, "{context}");
                    for ranks in [1usize, 3] {
                        let mut cfg = HySortKConfig::small_with_threads(15, 7, ranks, width);
                        cfg.min_count = 1;
                        cfg.max_count = 1_000_000;
                        cfg.with_extension = with_extension;
                        let opts = IngestOptions {
                            block_bytes,
                            ..IngestOptions::default()
                        };
                        let got = count_kmers_from_files_with::<Kmer1, _>(&paths, &cfg, opts);
                        assert_eq!(got.unwrap().counts, expected, "{context} ranks={ranks}");
                    }
                }
            }
        }
        paths.iter().for_each(|p| drop(std::fs::remove_file(p)));
    }

    /// A malformed record in the second piece of a window ends the run with exit 3 and
    /// the file's name, on one rank and on four, at pool widths 2 and 3 — and no rank
    /// waits for another forever.
    #[test]
    fn a_malformed_record_in_a_windows_second_piece_fails_by_name_without_deadlock() {
        use hysortk_dna::io::shard_byte_ranges;
        use std::sync::mpsc;
        use std::time::Duration;

        let mut clean = String::new();
        for i in 0..40 {
            clean.push_str(&format!(
                "@r{i}\n{}\n+\n{}\n",
                "ACGTTGCA".repeat(4),
                "I".repeat(32)
            ));
        }
        let path = tmp_path("second_piece.fq");
        for ranks in [1usize, 4] {
            // The record in the middle of the last shard gets a quality line one short.
            let (lo, hi) = *shard_byte_ranges(clean.len() as u64, ranks).last().unwrap();
            let (bad, _) = (clean.match_indices('@'))
                .find(|&(at, _)| at as u64 >= (lo + hi) / 2)
                .unwrap();
            let mut text = clean.clone();
            text.replace_range(
                bad..,
                &clean[bad..].replacen(&"I".repeat(32), &"I".repeat(31), 1),
            );
            std::fs::write(&path, &text).unwrap();
            // The rank's first window starts at its shard: find a block size that puts
            // the record in the window's second piece.
            for width in [2usize, 3] {
                let block_bytes = (1..=hi - lo).find(|&block| {
                    let window = (hi - lo).min(window_bytes(width, block as usize));
                    let (start, end) = shard_byte_ranges(window, width)[1];
                    (lo + start..lo + end).contains(&(bad as u64))
                });
                let block_bytes = block_bytes.unwrap() as usize;
                let (tx, rx) = mpsc::channel();
                let path = path.clone();
                std::thread::spawn(move || {
                    let mut cfg = HySortKConfig::small_with_threads(21, 9, ranks, width);
                    cfg.min_count = 1;
                    let opts = IngestOptions {
                        block_bytes,
                        ..IngestOptions::default()
                    };
                    let got = count_kmers_from_files_with::<Kmer1, _>(&[&path], &cfg, opts);
                    tx.send(got.map(|_| ())).unwrap();
                });
                let context = format!("ranks={ranks} width={width}");
                let err = (rx.recv_timeout(Duration::from_secs(60)))
                    .unwrap_or_else(|e| panic!("{context}: hung or panicked: {e}"))
                    .unwrap_err();
                assert_eq!(err.exit_code(), 3, "{context}");
                let message = err.to_string();
                assert!(message.contains("second_piece.fq"), "{context}: {message}");
                assert!(message.contains("quality length"), "{context}: {message}");
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
