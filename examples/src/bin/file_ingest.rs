//! Real-file ingestion: write a synthetic dataset to FASTA + FASTQ files and count
//! them through the chunked, rank-sharded streaming readers — the same path the
//! `hysortk` CLI binary uses.
//!
//! ```text
//! cargo run -p hysortk-examples --release --bin file_ingest
//! ```

use hysortk_core::ingest::count_kmers_from_files_with;
use hysortk_core::{count_kmers, HySortKConfig};
use hysortk_datasets::DatasetPreset;
use hysortk_dna::io::IngestOptions;
use hysortk_dna::Kmer1;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Generate a small synthetic stand-in and write it to disk in both formats.
    let data = DatasetPreset::ABaumannii.generate(1.5e-4, 7);
    let dir = std::env::temp_dir();
    let fa = dir.join("hysortk_example_reads.fa");
    let fq = dir.join("hysortk_example_reads.fq");
    data.write_fasta(&fa, 80)?;
    data.write_fastq(&fq)?;
    println!(
        "wrote {} reads ({:.2} Mbases) to {} and {}",
        data.reads.len(),
        data.reads.total_bases() as f64 / 1e6,
        fa.display(),
        fq.display()
    );

    let mut cfg = HySortKConfig::small(31, 15, 4);
    cfg.min_count = 2;
    cfg.max_count = 50;
    cfg.data_scale = data.data_scale;

    // Stream both files through the pipeline: each of the 4 simulated ranks owns a
    // byte range of the concatenated input (realigned to record starts) and reads it
    // in windows of 64 KiB per thread — the ASCII text is never fully resident.
    let opts = IngestOptions {
        block_bytes: 64 << 10,
        ..IngestOptions::default()
    };
    let result = count_kmers_from_files_with::<Kmer1, _>(&[&fa, &fq], &cfg, opts)?;
    let report = &result.report;
    println!(
        "file-fed:  {} distinct k-mers, {} retained in [2, 50], {} exchange round(s)",
        report.distinct_kmers,
        report.retained_kmers,
        report.comm.stage("exchange").map_or(0, |s| s.rounds)
    );

    // The in-memory entry point on one copy of the same reads (the files together
    // hold the dataset twice, so every multiplicity doubles — retained sets differ,
    // but the pipeline is the same).
    let in_memory = count_kmers::<Kmer1>(&data.reads, &cfg);
    println!(
        "in-memory: {} distinct k-mers, {} retained in [2, 50] (single copy)",
        in_memory.report.distinct_kmers, in_memory.report.retained_kmers
    );

    std::fs::remove_file(&fa).ok();
    std::fs::remove_file(&fq).ok();
    Ok(())
}
