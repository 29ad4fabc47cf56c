//! KMC3-style shared-memory sorting counter (paper §4.3, Figure 6).
//!
//! KMC3 also counts by sorting, but it is a single-process shared-memory tool: reads are
//! cut into super-k-mers, distributed into bins by minimizer, and each bin is sorted and
//! scanned. Run in RAM-only mode (the `-r` flag of the comparison), its algorithmic
//! structure matches HySortK's third stage minus the task abstraction layer: one big
//! thread pool works through the bins, and the whole machine is treated as a flat SMP —
//! which is exactly the NUMA/CCX behaviour the paper credits for HySortK's edge.

use hysortk_core::result::KmerHistogram;
use hysortk_core::HySortKConfig;
use hysortk_dna::kmer::KmerCode;
use hysortk_dna::readset::ReadSet;
use hysortk_perfmodel::{
    ExecutionConfig, MachineConfig, PerfModel, Projection, SortAlgorithm, StageTimes,
};
use hysortk_sort::{count_sorted_runs, raduls_sort};
use hysortk_supermer::mmer::{MmerScorer, ScoreFunction};
use hysortk_supermer::supermer::build_supermers;
use rayon::prelude::*;

use crate::BaselineResult;

/// Number of bins KMC3-style binning uses (the real tool defaults to 512).
const BINS: usize = 512;

/// Count canonical k-mers with the KMC3-like shared-memory strategy. The cluster layout
/// in `cfg` is ignored (KMC3 is single-node, single-process); the time projection models
/// one process spanning every core of a `machine` node.
pub fn kmc3_count<K: KmerCode>(
    reads: &ReadSet,
    cfg: &HySortKConfig,
    machine: &MachineConfig,
) -> BaselineResult<K> {
    cfg.validate().expect("invalid configuration");
    let k = cfg.k;
    let scorer = MmerScorer::new(cfg.m, ScoreFunction::Hash { seed: cfg.seed });

    // ---- bin super-k-mers by minimizer ------------------------------------------------
    let mut bins: Vec<Vec<K>> = (0..BINS).map(|_| Vec::new()).collect();
    let mut bases = 0u64;
    for read in reads.iter() {
        bases += read.len() as u64;
        for sm in build_supermers(read, k, &scorer, BINS as u32) {
            let bin = &mut bins[sm.target as usize];
            for (km, _) in sm.canonical_kmers_with_pos::<K>(k) {
                bin.push(km);
            }
        }
    }

    // ---- sort and scan every bin with one flat thread pool -----------------------------
    let bin_outputs: Vec<(Vec<(K, u64)>, KmerHistogram)> = bins
        .into_par_iter()
        .map(|mut bin| {
            raduls_sort(&mut bin);
            let runs = count_sorted_runs(&bin, |km| *km);
            let mut histogram = KmerHistogram::for_max_count(cfg.max_count);
            let mut counts = Vec::new();
            for (km, c) in runs {
                histogram.record(c);
                if c >= cfg.min_count && c <= cfg.max_count {
                    counts.push((km, c));
                }
            }
            (counts, histogram)
        })
        .collect();

    let mut counts: Vec<(K, u64)> = Vec::new();
    let mut histogram = KmerHistogram::for_max_count(cfg.max_count);
    let mut total_instances = 0u64;
    for (c, h) in &bin_outputs {
        counts.extend(c.iter().cloned());
        histogram.merge(h);
        total_instances += c.iter().map(|(_, n)| *n).sum::<u64>();
    }
    counts.sort_by_key(|a| a.0);

    // ---- model: one process spanning the whole node ------------------------------------
    let scale = 1.0 / cfg.data_scale;
    let exec = ExecutionConfig::new(1, 1, machine.cores_per_node, machine.cores_per_node);
    let model = PerfModel::new(machine.clone(), exec);
    let compute = model.compute();

    let total_kmers = (reads.total_kmers(k) as f64 * scale) as u64;
    let mut stages = StageTimes::new();
    stages.add("parse", compute.parse_time((bases as f64 * scale) as u64));
    // All threads sort the bin queue as one flat pool: monolithic thread scaling, which
    // is where the >16-thread efficiency loss and the cross-CCX penalty bite.
    stages.add(
        "sort",
        compute.sort_time_monolithic(
            (total_instances as f64 * scale) as u64,
            K::WORDS * 8,
            SortAlgorithm::Raduls,
        ),
    );
    stages.add(
        "scan",
        compute.scan_time((total_instances as f64 * scale) as u64),
    );

    // No task layer and no bucket-wise sorting: on top of what a sorting counter needs,
    // the whole-payload out-of-place sort above holds an auxiliary copy of the payload.
    let payload = (total_instances as f64 * scale) as u64;
    let peak = model
        .memory()
        .sort_counter_peak(payload, K::WORDS * 8, true, 1.0)
        + payload * (K::WORDS * 8) as u64;

    let modeled = Projection {
        stage_times: stages,
        peak_memory_per_node: peak,
        sorter: SortAlgorithm::Raduls,
        total_kmers,
        max_rank_wire_bytes: 0,
        total_wire_bytes: 0,
        rounds: 0,
        overlap_fraction: 0.0,
    };

    BaselineResult {
        counts,
        histogram,
        modeled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_core::reference::reference_counts_bounded;
    use hysortk_datasets::DatasetPreset;
    use hysortk_dna::{Kmer1, Kmer2};

    #[test]
    fn matches_reference_counts() {
        // One-word keys at k = 17 and two-word keys at k = 55: the bins sort through
        // both widths of the RADULS kernel.
        fn check<K: KmerCode>(k: usize, m: usize) {
            let data = DatasetPreset::ABaumannii.generate(1e-4, 31);
            let mut cfg = HySortKConfig::small(k, m, 1);
            cfg.min_count = 1;
            cfg.max_count = 1_000_000;
            cfg.data_scale = data.data_scale;
            let result = kmc3_count::<K>(&data.reads, &cfg, &MachineConfig::workstation(8, 32));
            let expected = reference_counts_bounded::<K>(&data.reads, k, 1, 1_000_000);
            assert!(!expected.is_empty(), "k = {k}");
            assert_eq!(result.counts, expected, "k = {k}");
        }
        check::<Kmer1>(17, 8);
        check::<Kmer2>(55, 23);
    }

    #[test]
    fn single_node_hysortk_is_competitive_or_faster() {
        // Figure 6: on one node HySortK matches or beats KMC3 thanks to the task layer.
        let data = DatasetPreset::CElegans.generate(5e-5, 32);
        let mut cfg = HySortKConfig::default();
        cfg.k = 31;
        cfg.m = 15;
        cfg.nodes = 1;
        cfg.data_scale = data.data_scale;
        cfg.min_count = 2;
        cfg.max_count = 50;
        let perlmutter = MachineConfig::perlmutter_cpu();
        let kmc = kmc3_count::<Kmer1>(&data.reads, &cfg, &perlmutter);
        let hysortk = hysortk_core::count_kmers::<Kmer1>(&data.reads, &cfg);
        assert_eq!(kmc.counts, hysortk.counts);
        let hysortk = hysortk_core::model::project(&hysortk.report, &cfg, &perlmutter).unwrap();
        assert!(
            hysortk.total_time() <= kmc.modeled.total_time() * 1.1,
            "hysortk {} vs kmc3 {}",
            hysortk.total_time(),
            kmc.modeled.total_time()
        );
    }
}
