//! End-to-end ingestion tests: real FASTA/FASTQ files on disk, streamed through the
//! chunked rank-sharded readers into the full pipeline — several files, block sizes, the
//! N policy, the bundled smoke golden and a fuzz loop over the readers — and the pipeline
//! grid's (`grid/mod.rs`) rows of a genome preset from memory, FASTA and FASTQ against the
//! oracle across ranks, overlap modes and both backends.

use std::path::PathBuf;

use hysortk_core::ingest::{count_kmers_from_files, count_kmers_from_files_with};
use hysortk_core::{count_kmers, reference_counts_bounded, HySortKConfig};
use hysortk_datasets::DatasetPreset;
use hysortk_dna::io::{write_fastq_file, IngestOptions};
use hysortk_dna::{fasta, Kmer1, ReadSet};

#[macro_use]
mod grid;
use grid::Group;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hysortk_e2e_{}_{tag}", std::process::id()))
}

fn config(k: usize, ranks: usize, overlap: bool) -> HySortKConfig {
    let mut cfg = HySortKConfig::small(k, HySortKConfig::recommended_m(k), ranks);
    cfg.min_count = 1;
    cfg.max_count = 1_000_000;
    cfg.overlap = overlap;
    cfg
}

// Rows of the pipeline grid: the preset from memory, FASTA and FASTQ × ranks {1, 2, 7}
// × overlap on threads, and the file sources on forked ranks, each against the oracle.
grid_tests! {
    file_fed_counts_are_identical_to_in_memory_across_ranks_and_overlap_modes => Group::FileSources;
}

/// Multi-file input: the dataset split into three files (two FASTA, one FASTQ) must
/// count exactly like the single-file and in-memory runs, for shard boundaries both
/// inside and across the files.
#[test]
fn multi_file_mixed_format_input_counts_like_the_concatenation() {
    let data = DatasetPreset::ABaumannii.generate(1.0e-4, 99);
    let third = data.reads.len() / 3;
    let parts: [ReadSet; 3] = [
        data.reads.iter().take(third).cloned().collect(),
        data.reads.iter().skip(third).take(third).cloned().collect(),
        data.reads.iter().skip(2 * third).cloned().collect(),
    ];
    let paths = [
        tmp_path("part0.fa"),
        tmp_path("part1.fq"),
        tmp_path("part2.fa"),
    ];
    fasta::write_fasta_file(&paths[0], &parts[0], 70).unwrap();
    write_fastq_file(&paths[1], &parts[1]).unwrap();
    fasta::write_fasta_file(&paths[2], &parts[2], 70).unwrap();

    let k = 17;
    for ranks in [2usize, 5] {
        let mut cfg = config(k, ranks, true);
        cfg.data_scale = data.data_scale;
        let in_memory = count_kmers::<Kmer1>(&data.reads, &cfg);
        let from_files = count_kmers_from_files::<Kmer1, _>(&paths, &cfg).unwrap();
        assert_eq!(from_files.counts, in_memory.counts, "ranks={ranks}");
        assert_eq!(from_files.histogram, in_memory.histogram, "ranks={ranks}");
    }
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}

/// Tiny ingestion blocks force every record across a block boundary; the counts must
/// not move. Bounded-memory streaming is exercised directly in `hysortk_dna::io`.
#[test]
fn block_size_never_changes_the_counts() {
    let data = DatasetPreset::ABaumannii.generate(0.8e-4, 7);
    let fa = tmp_path("blocks.fa");
    fasta::write_fasta_file(&fa, &data.reads, 80).unwrap();
    let mut cfg = config(21, 3, true);
    cfg.data_scale = data.data_scale;
    let baseline = count_kmers::<Kmer1>(&data.reads, &cfg);
    for block_bytes in [64usize, 4_096] {
        let opts = IngestOptions {
            block_bytes,
            batch_records: 7,
            min_fragment: 1,
        };
        let got = count_kmers_from_files_with::<Kmer1, _>(&[&fa], &cfg, opts).unwrap();
        assert_eq!(got.counts, baseline.counts, "block_bytes={block_bytes}");
    }
    std::fs::remove_file(&fa).ok();
}

/// The N-policy pin: ambiguous bases split reads in the ingestion path, so no k-mer
/// spanning an `N` run is ever counted — unlike the in-memory reference parser,
/// which keeps its historical map-to-`A` policy and fabricates k-mers.
#[test]
fn ambiguous_bases_split_reads_instead_of_fabricating_kmers() {
    let text = ">r1\nACGTACGTACGTNNNNTTTTGGGGCCCC\n>r2\nAAAACCCCNGGGGTTTTACGTACGT\n>r3\nACGTACGTACGTACGT\n";
    let fa = tmp_path("npolicy.fa");
    std::fs::write(&fa, text).unwrap();

    // What a correct counter sees: the fragments between the N runs.
    let fragments = ReadSet::from_ascii_reads(&[
        b"ACGTACGTACGT".as_slice(),
        b"TTTTGGGGCCCC".as_slice(),
        b"AAAACCCC".as_slice(),
        b"GGGGTTTTACGTACGT".as_slice(),
        b"ACGTACGTACGTACGT".as_slice(),
    ]);

    let k = 7;
    let cfg = config(k, 2, true);
    let expected = reference_counts_bounded::<Kmer1>(&fragments, k, 1, 1_000_000);
    let got = count_kmers_from_files::<Kmer1, _>(&[&fa], &cfg).unwrap();
    assert_eq!(
        got.counts, expected,
        "file-fed counts must match the split fragments"
    );

    // The in-memory reference parser maps N→A instead — demonstrably different on
    // this input (it fabricates k-mers across the N runs).
    let mapped = fasta::parse_fasta_str(text);
    let mapped_counts = reference_counts_bounded::<Kmer1>(&mapped, k, 1, 1_000_000);
    assert_ne!(
        got.counts, mapped_counts,
        "the N runs must actually change the spectrum for this pin to mean anything"
    );
    std::fs::remove_file(&fa).ok();
}

/// The CLI smoke contract, tested from the library so tier-1 covers it: counting the
/// bundled `tests/data/smoke.fa` with the smoke parameters must reproduce the
/// checked-in golden histogram byte for byte (CI additionally runs the actual binary
/// and diffs its `--out` file against the same golden).
#[test]
fn bundled_smoke_fasta_reproduces_the_checked_in_golden_histogram() {
    let data_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data");
    let smoke = data_dir.join("smoke.fa");
    let golden = std::fs::read_to_string(data_dir.join("smoke.hist.tsv")).unwrap();

    // Mirror the CLI defaults used by the CI smoke step:
    // `hysortk count tests/data/smoke.fa -k 21 --ranks 4 --min-count 2`.
    let mut cfg = HySortKConfig::small(21, HySortKConfig::recommended_m(21), 4);
    cfg.min_count = 2;
    cfg.max_count = 50;
    let result = count_kmers_from_files::<Kmer1, _>(&[&smoke], &cfg).unwrap();
    assert_eq!(result.histogram.to_tsv(), golden);
    assert!(result.report.distinct_kmers > 0);
}

/// A band open to `u64::MAX` keeps the histogram's full bucket layout: the run records
/// what a band of 100 000 records (both clamp to the same buckets), not one bucket.
#[test]
fn a_max_count_of_u64_max_records_the_full_histogram() {
    let smoke = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/smoke.fa");
    let histogram = |max_count| {
        let mut cfg = HySortKConfig::small(21, HySortKConfig::recommended_m(21), 2);
        cfg.max_count = max_count;
        let result = count_kmers_from_files::<Kmer1, _>(&[&smoke], &cfg).unwrap();
        result.histogram.to_tsv()
    };
    let open = histogram(u64::MAX);
    assert_eq!(open, histogram(100_000));
    assert!(open.lines().count() > 1, "{open}");
}

/// What one shard-reader case ends in: every shard's reads (name and bases, in order),
/// or the first typed error — and the largest block buffer any shard held.
type ShardOutcome = (Result<Vec<(String, Vec<u8>)>, std::io::ErrorKind>, usize);

/// Read `bytes`, written as `name`, through `shards` shard readers one after another.
/// Each shard runs on a thread of its own under a deadline, so a hang fails the case
/// instead of the suite; a shard may take at most one batch per input byte.
fn read_in_shards(name: &str, bytes: &[u8], shards: usize, block_bytes: usize) -> ShardOutcome {
    use hysortk_dna::io::{list_inputs, ShardReader};
    use std::sync::mpsc;
    use std::time::Duration;

    let path = tmp_path(name);
    std::fs::write(&path, bytes).unwrap();
    let files = list_inputs(&[&path]).unwrap();
    let (mut reads, mut peak) = (Vec::new(), 0);
    let mut outcome = Ok(());
    for rank in 0..shards {
        let (files, limit) = (files.clone(), bytes.len() + 2);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let opts = IngestOptions {
                block_bytes,
                batch_records: 5,
                min_fragment: 1,
            };
            let mut shard = ShardReader::open(&files, rank, shards, opts).unwrap();
            let mut reads = Vec::new();
            let mut result = Ok(());
            for _ in 0..limit {
                match shard.next_batch() {
                    Ok(Some(batch)) => reads.extend(batch),
                    Ok(None) => break,
                    Err(e) => {
                        result = Err(e.kind());
                        break;
                    }
                }
            }
            tx.send((result, reads, shard.peak_buffer_bytes())).unwrap();
        });
        let (result, shard_reads, shard_peak) = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("{name}: shard {rank} of {shards} hung or panicked: {e}"));
        peak = peak.max(shard_peak);
        reads.extend(shard_reads.into_iter().map(|r| (r.name, r.seq.to_ascii())));
        outcome = outcome.and(result);
    }
    std::fs::remove_file(&path).ok();
    (outcome.map(|()| reads), peak)
}

/// The ingest trust boundary under a seeded, structure-aware fuzz loop. The inputs are
/// the bundled smoke FASTA and its reads as FASTQ, read on 1–4 shards; the mutations
/// are truncation at every record boundary, bit flips, stray `>`/`@`/`+` lines, CRLF
/// line ends, a 1 MiB line with no newline, and FASTQ quality lines of the wrong
/// length. Every case ends in reads or a typed `io::Error` — no panic, no hang — and
/// no shard's block buffer grows past twice a block plus the input's longest line. Valid
/// inputs (the truncations, CRLF) read to the same records on every shard count.
#[test]
fn shard_readers_survive_a_seeded_fuzz_loop_over_mutated_fasta_and_fastq() {
    use hysortk_dna::io::{read_paths, to_fastq_string};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const BLOCK: usize = 4_096;
    let smoke = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/smoke.fa");
    let fasta_text = std::fs::read(&smoke).unwrap();
    let records = read_paths(&[&smoke], IngestOptions::default()).unwrap();
    let fastq_text = to_fastq_string(&records).into_bytes();
    let mut rng = StdRng::seed_from_u64(0x10a);

    let longest_line = |bytes: &[u8]| bytes.split(|&b| b == b'\n').map(<[u8]>::len).max();
    let check = |name: &str, bytes: &[u8], shards: usize| {
        let (outcome, peak) = read_in_shards(name, bytes, shards, BLOCK);
        // The carry grows a block at a time, by doubling: twice a block past the line.
        let bound = 2 * (BLOCK + longest_line(bytes).unwrap_or(0));
        assert!(
            peak <= bound,
            "{name} on {shards} shards: buffer {peak} > {bound}"
        );
        outcome
    };

    for (ext, text, lines_per_record) in [("fa", &fasta_text, 3), ("fq", &fastq_text, 4)] {
        let lines: Vec<&[u8]> = text.split_inclusive(|&b| b == b'\n').collect();
        let whole = check(&format!("fuzz.{ext}"), text, 1).expect("the clean input reads");
        assert_eq!(whole.len(), records.len());

        // Truncation at every record boundary: a shorter valid file, on every shard count.
        for (cut, record) in (0..=lines.len()).step_by(lines_per_record).zip(0..) {
            let prefix = lines[..cut].concat();
            for shards in 1..=4 {
                let name = format!("fuzz-cut{cut}.{ext}");
                let got = check(&name, &prefix, shards).expect("a record-boundary prefix reads");
                assert_eq!(got, whole[..record], "{name} on {shards} shards");
            }
        }

        // CRLF line ends read to the same records.
        let crlf: Vec<u8> = lines
            .iter()
            .flat_map(|l| l.strip_suffix(b"\n").unwrap_or(l).iter().chain(b"\r\n"))
            .copied()
            .collect();
        for shards in 1..=4 {
            assert_eq!(
                check(&format!("fuzz-crlf.{ext}"), &crlf, shards),
                Ok(whole.clone())
            );
        }

        // A 1 MiB line with no newline at the end of the input.
        let mut long = text.clone();
        long.extend_from_slice(if ext == "fa" { b">long\n" } else { b"@long\n" });
        long.extend((0..1 << 20).map(|i| b"ACGT"[i % 4]));
        for shards in 1..=4 {
            let _ = check(&format!("fuzz-long.{ext}"), &long, shards);
        }

        for case in 0..60 {
            let shards = 1 + case % 4;
            // Bit flips.
            let mut flipped = text.clone();
            for _ in 0..rng.gen_range(1..=8) {
                let bit = rng.gen_range(0..flipped.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            let _ = check(&format!("fuzz-flip{case}.{ext}"), &flipped, shards);

            // A stray header or separator line between two lines.
            let strays: [&[u8]; 6] = [b">\n", b"@\n", b"+\n", b">x\n", b"@x\n", b"+x\n"];
            let stray = strays[rng.gen_range(0..strays.len())];
            let at = rng.gen_range(0..=lines.len());
            let strayed = [&lines[..at].concat()[..], stray, &lines[at..].concat()].concat();
            let _ = check(&format!("fuzz-stray{case}.{ext}"), &strayed, shards);

            // A quality line one base short or long: the record is malformed.
            if ext == "fq" {
                let record = rng.gen_range(0..records.len());
                let mut broken: Vec<Vec<u8>> = lines.iter().map(|l| l.to_vec()).collect();
                let quality = &mut broken[4 * record + 3];
                if rng.gen_bool(0.5) {
                    quality.remove(0);
                } else {
                    quality.insert(0, b'I');
                }
                let err = check(&format!("fuzz-qual{case}.fq"), &broken.concat(), shards);
                assert_eq!(err, Err(std::io::ErrorKind::InvalidData), "case {case}");
            }
        }
    }
}
