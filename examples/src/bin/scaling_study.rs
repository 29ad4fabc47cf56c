//! Strong-scaling study of HySortK on a synthetic H. sapiens 10x stand-in
//! (a miniature of the paper's Figure 4).
//!
//! ```text
//! cargo run -p hysortk-examples --release --bin scaling_study
//! ```

use hysortk_core::model::{project, MachineConfig};
use hysortk_core::{count_kmers, HySortKConfig};
use hysortk_datasets::DatasetPreset;
use hysortk_dna::Kmer1;

fn main() {
    let data = DatasetPreset::HSapiens10x.generate(3e-6, 5);
    println!(
        "dataset: {} (scaled ×{:.1e}), k = 31, 16 processes per node\n",
        data.preset.name(),
        data.data_scale
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>10}",
        "nodes", "time (s)", "speedup", "efficiency", "sorter"
    );

    let mut baseline = None;
    for nodes in [1usize, 2, 4, 8, 16] {
        let mut cfg = HySortKConfig::default();
        cfg.k = 31;
        cfg.m = 15;
        cfg.nodes = nodes;
        cfg.min_count = 2;
        cfg.max_count = 50;
        cfg.data_scale = data.data_scale;
        // Simulate a handful of ranks; the model projects the full 16-ppn layout.
        cfg.processes_per_node = 2;
        cfg.batch_size = 8_192;

        let result = count_kmers::<Kmer1>(&data.reads, &cfg);
        let modeled = project(&result.report, &cfg, &MachineConfig::perlmutter_cpu())
            .expect("2 ranks of 8 threads fit the node");
        let time = modeled.total_time();
        let base = *baseline.get_or_insert(time);
        let speedup = base / time;
        let efficiency = speedup / nodes as f64;
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>11.0}% {:>10?}",
            nodes,
            time,
            speedup,
            efficiency * 100.0,
            modeled.sorter
        );
    }
}
