//! Quickstart: count k-mers in a small synthetic long-read dataset with HySortK.
//!
//! ```text
//! cargo run -p hysortk-examples --release --bin quickstart
//! ```

use hysortk_core::model::{project, MachineConfig};
use hysortk_core::{count_kmers, HySortKConfig};
use hysortk_datasets::DatasetPreset;
use hysortk_dna::Kmer1;

fn main() {
    // Generate a ~1/5000-scale synthetic stand-in for the A. baumannii dataset.
    let data = DatasetPreset::ABaumannii.generate(2e-4, 42);
    println!(
        "dataset: {} (scaled ×{:.1e}) — {} reads, {:.2} Mbases",
        data.preset.name(),
        data.data_scale,
        data.reads.len(),
        data.reads.total_bases() as f64 / 1e6
    );

    // Configure HySortK: k = 31, m = 15, 4 simulated ranks, paper-default options.
    let mut cfg = HySortKConfig::small(31, 15, 4);
    cfg.min_count = 2;
    cfg.max_count = 50;
    cfg.data_scale = data.data_scale;

    let result = count_kmers::<Kmer1>(&data.reads, &cfg);

    println!("\n--- counting result -------------------------------------------");
    println!(
        "distinct canonical k-mers : {}",
        result.report.distinct_kmers
    );
    println!(
        "retained in [2, 50]       : {}",
        result.report.retained_kmers
    );
    println!("heavy-hitter tasks        : {}", result.report.heavy_tasks);

    println!("\nmultiplicity histogram (first 10 buckets):");
    for c in 1..=10 {
        println!(
            "  count {c:>2}: {} distinct k-mers",
            result.histogram.get(c)
        );
    }

    // Project the run to the full-size dataset on a Perlmutter CPU node.
    let modeled = project(&result.report, &cfg, &MachineConfig::perlmutter_cpu())
        .expect("4 ranks of 2 threads fit the node");
    println!("\n--- projected full-scale run (Perlmutter model) ----------------");
    println!("local sorter modeled      : {:?}", modeled.sorter);
    println!(
        "exchange volume (max rank): {:.1} MB",
        modeled.max_rank_wire_bytes as f64 / 1e6
    );
    println!(
        "peak memory per node      : {:.1} GB",
        modeled.peak_memory_per_node as f64 / 1e9
    );
    println!(
        "stage breakdown           : {}",
        modeled.stage_times.summary()
    );
    println!("total modeled time        : {:.2} s", modeled.total_time());

    // Show a few of the most frequent retained k-mers.
    let mut top: Vec<_> = result.counts.sorted().collect();
    top.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    println!("\nmost frequent retained k-mers:");
    for (km, c) in top.iter().take(5) {
        println!("  {}  ×{}", km.to_string_k(cfg.k), c);
    }
}
