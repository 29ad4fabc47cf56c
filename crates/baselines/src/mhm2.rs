//! MetaHipMer2-style GPU supermer counter (paper §4.4, Figure 9).
//!
//! MHM2's k-mer analysis module builds supermers on the CPU, exchanges them across
//! ranks, and counts them in GPU hash tables. The counting itself is exact (we perform
//! it on the CPU here — the arithmetic is identical), but the *cost* of the GPU path is
//! taken from the GPU cost model: host→device transfers over PCIe, kernel throughput,
//! and per-round launch overheads, plus the CPU-side exchange. The paper's hypothesis —
//! that CPU↔GPU and inter-CPU communication dominate and that the gap narrows as nodes
//! and k grow — falls out of exactly these terms.

use std::collections::BTreeMap;

use hysortk_core::result::KmerHistogram;
use hysortk_core::{HySortKConfig, RunReport};
use hysortk_dmem::{Cluster, CommStats};
use hysortk_dna::kmer::KmerCode;
use hysortk_dna::readset::ReadSet;
use hysortk_perfmodel::network::ExchangeProfile;
use hysortk_perfmodel::{ExecutionConfig, MachineConfig, PerfModel, SortAlgorithm, StageTimes};
use hysortk_supermer::mmer::{MmerScorer, ScoreFunction};
use hysortk_supermer::supermer::build_supermers;

use crate::BaselineResult;

/// Count canonical k-mers with the MHM2-like GPU strategy.
///
/// `cfg.nodes` selects the number of GPU nodes; each node runs one rank per GPU (4 on
/// the Perlmutter GPU partition). The machine model is forced to the GPU preset.
pub fn mhm2_count<K: KmerCode>(reads: &ReadSet, cfg: &HySortKConfig) -> BaselineResult<K> {
    cfg.validate().expect("invalid configuration");
    let machine = MachineConfig::perlmutter_gpu();
    let gpus = machine.gpu.as_ref().expect("gpu preset").gpus_per_node;
    let p = (cfg.nodes * gpus).max(1);
    let k = cfg.k;
    let ranges = reads.partition_by_bases(p);
    let scorer = MmerScorer::new(cfg.m, ScoreFunction::Hash { seed: cfg.seed });

    struct RankOut<K: KmerCode> {
        counts: Vec<(K, u64)>,
        histogram: KmerHistogram,
        bases: u64,
        received_kmers: u64,
    }

    let run = Cluster::new(p).run(|ctx| {
        let rank = ctx.rank();
        let my_reads = &reads.reads()[ranges[rank].clone()];

        // Supermer construction (CPU side), one target per rank (MHM2 has no task layer).
        let mut send: Vec<Vec<u8>> = vec![Vec::new(); ctx.size()];
        let mut bases = 0u64;
        for read in my_reads {
            bases += read.len() as u64;
            for sm in build_supermers(read, k, &scorer, ctx.size() as u32) {
                let dest = sm.target as usize;
                hysortk_core::wire::write_block::<K>(
                    &mut send[dest],
                    sm.target,
                    &hysortk_core::wire::TaskPayload::Supermers(vec![sm]),
                );
            }
        }
        let exchange = ctx
            .alltoall_rounds(send, cfg.batch_size * K::num_bytes(k), "exchange")
            .expect("baseline cluster runs without fault injection");

        // "GPU" counting: exact counting of the received supermers' k-mers.
        let mut table: BTreeMap<K, u64> = BTreeMap::new();
        let mut received_kmers = 0u64;
        for bytes in &exchange.received {
            let blocks = hysortk_core::wire::read_blocks::<K>(bytes).expect("well-formed stream");
            for block in blocks {
                if let hysortk_core::wire::PayloadView::Supermers(view) = block.payload {
                    for sm in view.iter() {
                        sm.for_each_canonical_kmer::<K>(k, |km, _| {
                            received_kmers += 1;
                            *table.entry(km).or_insert(0) += 1;
                        });
                    }
                }
            }
        }

        let mut histogram = KmerHistogram::for_max_count(cfg.max_count);
        let mut counts = Vec::new();
        for (km, c) in table {
            histogram.record(c);
            if c >= cfg.min_count && c <= cfg.max_count {
                counts.push((km, c));
            }
        }
        RankOut {
            counts,
            histogram,
            bases,
            received_kmers,
        }
    });

    // ---- merge and model -----------------------------------------------------------------
    let mut counts: Vec<(K, u64)> = Vec::new();
    let mut histogram = KmerHistogram::for_max_count(cfg.max_count);
    for out in &run.results {
        counts.extend(out.counts.iter().cloned());
        histogram.merge(&out.histogram);
    }
    counts.sort_by_key(|a| a.0);

    let scale = 1.0 / cfg.data_scale;
    let exec = ExecutionConfig::new(cfg.nodes, gpus, machine.cores_per_node / gpus, 4);
    let model = PerfModel::new(machine, exec);
    let compute = model.compute();
    let network = model.network();

    let max_bases = run.results.iter().map(|o| o.bases).max().unwrap_or(0) as f64 * scale;
    let max_received = run
        .results
        .iter()
        .map(|o| o.received_kmers)
        .max()
        .unwrap_or(0) as f64
        * scale;
    let total_kmers = (reads.total_kmers(k) as f64 * scale) as u64;

    let payload = |s: &CommStats| s.stage("exchange").map(|st| st.payload_bytes).unwrap_or(0);
    let max_rank_payload = (run.comm.iter().map(&payload).max().unwrap_or(0) as f64 * scale) as u64;
    let total_payload = (run.comm.iter().map(payload).sum::<u64>() as f64 * scale) as u64;
    let max_pair_payload = run
        .comm
        .iter()
        .enumerate()
        .map(|(r, s)| {
            s.sent_to
                .iter()
                .enumerate()
                .filter(|(d, _)| *d != r)
                .map(|(_, &b)| b)
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0) as f64
        * scale;
    let batch_bytes = (cfg.batch_size * K::num_bytes(k)) as u64;
    let (max_rank_wire, rounds_projected) = hysortk_perfmodel::project_padded_exchange(
        max_rank_payload,
        max_pair_payload as u64,
        batch_bytes,
        p.saturating_sub(1).max(1),
    );
    let max_rank_wire = max_rank_wire as f64;
    let total_wire = (total_payload + (max_rank_wire as u64 - max_rank_payload) * p as u64) as f64;
    let off_node = run
        .comm
        .iter()
        .enumerate()
        .map(|(r, s)| s.off_node_fraction(r, gpus))
        .fold(0.0f64, f64::max);

    let mut stages = StageTimes::new();
    stages.add("parse", compute.parse_time(max_bases as u64));
    let profile = ExchangeProfile {
        max_rank_wire_bytes: max_rank_wire as u64,
        off_node_fraction: off_node,
        rounds: rounds_projected,
        overlappable_compute: 0.0,
        overlap_fraction: 0.0,
    };
    stages.add("exchange", network.exchange_time(&profile));
    // GPU processing: PCIe transfer of the receive buffer plus kernel time, per node.
    let elements_per_node = (max_received as u64) * gpus as u64;
    stages.add(
        "gpu-count",
        compute.gpu_process_time(elements_per_node, K::WORDS * 8, rounds_projected),
    );

    let peak = model.memory().hash_counter_peak(
        (histogram.distinct() as f64 * scale) as u64 / cfg.nodes.max(1) as u64,
        elements_per_node,
        K::WORDS * 8,
        0.7,
        None,
    );

    let report = RunReport {
        stage_times: stages,
        // Modeled baseline: nothing is measured per rank, so no wall attribution.
        stage_wall: Default::default(),
        comm: CommStats::aggregate(&run.comm),
        peak_memory_per_node: peak,
        sorter: SortAlgorithm::HashTable,
        total_kmers,
        distinct_kmers: histogram.distinct(),
        retained_kmers: counts.len() as u64,
        heavy_tasks: 0,
        max_rank_wire_bytes: max_rank_wire as u64,
        total_wire_bytes: total_wire as u64,
        exchange_rounds: rounds_projected,
        assignment_imbalance: 1.0,
        overlap_fraction: 0.0,
        recoveries: 0,
        epochs_committed: 0,
        simd: hysortk_dna::simd::path_name(),
        gather_s: 0.0,
        result_runs: 0,
        result_bytes: 0,
        staged_bytes: 0,
        sections: 0,
        count_buffer_bytes: 0,
    };

    BaselineResult {
        counts,
        histogram,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_core::reference::reference_counts_bounded;
    use hysortk_datasets::DatasetPreset;
    use hysortk_dna::Kmer1;

    #[test]
    fn matches_reference_counts() {
        let data = DatasetPreset::ABaumannii.generate(1e-4, 41);
        let mut cfg = HySortKConfig::small(21, 9, 2);
        cfg.nodes = 1;
        cfg.min_count = 1;
        cfg.max_count = 1_000_000;
        cfg.data_scale = data.data_scale;
        let result = mhm2_count::<Kmer1>(&data.reads, &cfg);
        let expected = reference_counts_bounded::<Kmer1>(&data.reads, 21, 1, 1_000_000);
        assert_eq!(result.counts, expected);
    }

    #[test]
    fn hysortk_beats_the_gpu_baseline_and_the_gap_narrows_with_k() {
        // Figure 9: HySortK is several times faster; larger k (longer supermers, less
        // traffic) narrows the gap.
        let data = DatasetPreset::CElegans.generate(5e-5, 42);
        let speedup_at = |k: usize, m: usize| {
            let mut cfg = HySortKConfig::default();
            cfg.k = k;
            cfg.m = m;
            cfg.nodes = 2;
            cfg.min_count = 2;
            cfg.max_count = 50;
            cfg.data_scale = data.data_scale;
            let gpu = mhm2_count::<Kmer1>(&data.reads, &cfg);
            let cpu = hysortk_core::count_kmers::<Kmer1>(&data.reads, &cfg);
            assert_eq!(gpu.counts, cpu.counts, "k={k}");
            gpu.report.total_time() / cpu.report.total_time()
        };
        let s17 = speedup_at(17, 8);
        let s31 = speedup_at(31, 15);
        assert!(s17 > 1.0, "HySortK should be faster at k=17 (ratio {s17})");
        assert!(s31 > 1.0, "HySortK should be faster at k=31 (ratio {s31})");
    }
}
