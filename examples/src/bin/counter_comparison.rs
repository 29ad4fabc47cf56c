//! Compare HySortK against the baseline counters on the same synthetic dataset
//! (a miniature of the paper's §4.3–4.4 comparisons).
//!
//! ```text
//! cargo run -p hysortk-examples --release --bin counter_comparison
//! ```

use hysortk_baselines::{
    kmc3_count, kmerind_count, mhm2_count, two_pass_hash_count, KmerindOutcome,
};
use hysortk_core::model::{project, MachineConfig, Projection};
use hysortk_core::{count_kmers, HySortKConfig};
use hysortk_datasets::DatasetPreset;
use hysortk_dna::Kmer1;

fn main() {
    let data = DatasetPreset::CElegans.generate(5e-5, 7);
    let mut cfg = HySortKConfig::default();
    cfg.k = 31;
    cfg.m = 15;
    cfg.nodes = 4;
    cfg.min_count = 2;
    cfg.max_count = 50;
    cfg.data_scale = data.data_scale;
    // Keep the simulated cluster small; the model projects the 4-node run.
    cfg.processes_per_node = 4;
    cfg.batch_size = 8_192;

    println!(
        "dataset: {} (scaled ×{:.1e}), k = {}, projecting a {}-node Perlmutter run\n",
        data.preset.name(),
        data.data_scale,
        cfg.k,
        cfg.nodes
    );
    println!(
        "{:<22} {:>12} {:>14} {:>14} {:>12}",
        "counter", "time (s)", "exchange (GB)", "memory (GB)", "distinct"
    );

    let perlmutter = MachineConfig::perlmutter_cpu();
    let hysortk = count_kmers::<Kmer1>(&data.reads, &cfg);
    let modeled = project(&hysortk.report, &cfg, &perlmutter).expect("the layout fits the node");
    print_row("HySortK", &modeled, hysortk.histogram.distinct());

    let hash = two_pass_hash_count::<Kmer1>(&data.reads, &cfg, &perlmutter);
    print_row(
        "two-pass hash table",
        &hash.modeled,
        hash.histogram.distinct(),
    );

    match kmerind_count::<Kmer1>(&data.reads, &cfg, &perlmutter) {
        KmerindOutcome::Completed(res) => print_row(
            "kmerind (Robin Hood)",
            &res.modeled,
            res.histogram.distinct(),
        ),
        KmerindOutcome::OutOfMemory {
            projected_peak,
            available,
        } => println!(
            "{:<22} {:>12}   (needs {:.0} GB, node has {:.0} GB)",
            "kmerind (Robin Hood)",
            "OOM",
            projected_peak as f64 / 1e9,
            available as f64 / 1e9
        ),
    }

    let kmc = kmc3_count::<Kmer1>(&data.reads, &cfg, &perlmutter);
    print_row("KMC3 (1 node, SMP)", &kmc.modeled, kmc.histogram.distinct());

    let gpu = mhm2_count::<Kmer1>(&data.reads, &cfg);
    print_row("MetaHipMer2 (GPU)", &gpu.modeled, gpu.histogram.distinct());

    // All counters must agree on the actual counts.
    assert_eq!(hysortk.counts, hash.counts);
    assert_eq!(hysortk.counts, kmc.counts);
    assert_eq!(hysortk.counts, gpu.counts);
    println!("\nall counters produced identical k-mer counts ✔");
}

fn print_row(name: &str, modeled: &Projection, distinct: u64) {
    println!(
        "{:<22} {:>12.2} {:>14.2} {:>14.1} {:>12}",
        name,
        modeled.total_time(),
        modeled.total_wire_bytes as f64 / 1e9,
        modeled.peak_memory_per_node as f64 / 1e9,
        distinct
    );
}
