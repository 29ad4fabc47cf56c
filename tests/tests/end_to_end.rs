//! Cross-crate integration tests: every counter against the reference counter, the
//! in-memory FASTA round trip, the report's projection, the ELBA integration, and the
//! pipeline grid's (`grid/mod.rs`) rows of a genome preset at several cluster sizes and
//! at k = 55.

use hysortk_baselines::{
    kmc3_count, kmerind_count, mhm2_count, two_pass_hash_count, KmerindOutcome,
};
use hysortk_core::model::{project, MachineConfig};
use hysortk_core::{count_kmers, reference_counts_bounded, HySortKConfig};
use hysortk_datasets::{DatasetPreset, GeneratedDataset};
use hysortk_dna::{fasta, Kmer1};
use hysortk_elba::{run_elba, CounterChoice, ElbaConfig};

#[macro_use]
mod grid;
use grid::Group;

fn dataset() -> GeneratedDataset {
    DatasetPreset::ABaumannii.generate(1.5e-4, 1234)
}

/// The node the small layouts below are modeled on.
fn workstation() -> MachineConfig {
    MachineConfig::workstation(16, 32)
}

fn config(data: &GeneratedDataset, k: usize, ranks: usize) -> HySortKConfig {
    let mut cfg = HySortKConfig::small(k, HySortKConfig::recommended_m(k), ranks);
    cfg.min_count = 2;
    cfg.max_count = 10_000;
    cfg.data_scale = data.data_scale;
    cfg
}

#[test]
fn every_counter_agrees_with_the_reference_and_each_other() {
    let data = dataset();
    let cfg = config(&data, 21, 4);
    let expected = reference_counts_bounded::<Kmer1>(&data.reads, 21, 2, 10_000);

    let hysortk = count_kmers::<Kmer1>(&data.reads, &cfg);
    assert_eq!(hysortk.counts, expected, "HySortK");

    let hash = two_pass_hash_count::<Kmer1>(&data.reads, &cfg, &workstation());
    assert_eq!(hash.counts, expected, "two-pass hash table");

    let kmc = kmc3_count::<Kmer1>(&data.reads, &cfg, &workstation());
    assert_eq!(kmc.counts, expected, "KMC3-style");

    let gpu = mhm2_count::<Kmer1>(&data.reads, &cfg);
    assert_eq!(gpu.counts, expected, "MHM2-style");

    match kmerind_count::<Kmer1>(&data.reads, &cfg, &workstation()) {
        KmerindOutcome::Completed(res) => assert_eq!(res.counts, expected, "kmerind-style"),
        KmerindOutcome::OutOfMemory { .. } => panic!("kmerind should fit on this tiny dataset"),
    }
}

// Rows of the pipeline grid, each run once against the oracle.
grid_tests! {
    /// The preset at k = 55: two-word k-mers end to end.
    large_k_counting_uses_two_word_kmers_end_to_end => Group::LargeK;
    /// The preset at ranks {1, 2, 5, 8} with 1–3 tasks per worker.
    counting_is_deterministic_across_cluster_sizes_and_layouts => Group::ClusterSizes;
}

#[test]
fn fasta_round_trip_feeds_the_counter() {
    let data = dataset();
    let text = fasta::to_fasta_string(&data.reads, 80);
    let parsed = fasta::parse_fasta_str(&text);
    assert_eq!(parsed.len(), data.reads.len());
    let cfg = config(&data, 17, 2);
    let from_original = count_kmers::<Kmer1>(&data.reads, &cfg);
    let from_fasta = count_kmers::<Kmer1>(&parsed, &cfg);
    assert_eq!(from_original.counts, from_fasta.counts);
}

#[test]
fn reports_expose_consistent_projections() {
    let data = dataset();
    let cfg = config(&data, 21, 4);
    let result = count_kmers::<Kmer1>(&data.reads, &cfg);
    let report = &result.report;
    assert_eq!(report.retained_kmers as usize, result.counts.len());
    assert_eq!(report.distinct_kmers, result.histogram.distinct());
    assert!(report.total_kmers >= report.distinct_kmers);
    // Traffic recorded by the simulated cluster must be non-trivial with 4 ranks.
    assert!(report.comm.payload_bytes > 0);
    let modeled = project(report, &cfg, &workstation()).unwrap();
    assert!(modeled.total_time() > 0.0);
    assert!(modeled.stage_times.get("exchange") > 0.0);
    assert!(modeled.stage_times.get("sort") > 0.0);
    assert!(modeled.peak_memory_per_node > 0);
    assert!(
        modeled.total_kmers > report.total_kmers,
        "projected to full scale"
    );
}

#[test]
fn elba_with_hysortk_assembles_and_is_fastest() {
    let data = dataset();
    let mut best_total = f64::INFINITY;
    let mut hysortk_total = 0.0;
    for (counter, procs, threads) in [
        (CounterChoice::Original, 64, 1),
        (CounterChoice::Original, 4, 16),
        (CounterChoice::HySortK, 4, 16),
    ] {
        let mut cfg = ElbaConfig::figure10(counter, procs, threads);
        cfg.data_scale = data.data_scale;
        let result = run_elba::<Kmer1>(&data.reads, &cfg);
        assert!(!result.contigs.is_empty(), "pipeline produced no contigs");
        if counter == CounterChoice::HySortK {
            hysortk_total = result.total_time();
        }
        best_total = best_total.min(result.total_time());
    }
    assert!(
        (hysortk_total - best_total).abs() < 1e-9,
        "the HySortK-integrated pipeline should be the fastest configuration"
    );
}
