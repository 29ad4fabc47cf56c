//! kmerind-style one-pass distributed Robin-Hood hash counter (paper §4.4).
//!
//! The improved kmerind of Pan et al. exchanges raw k-mers (no supermers) in a single
//! pass with communication/computation overlap and inserts them into cache-optimised
//! Robin-Hood hash tables. Its two weaknesses relative to HySortK, both visible in
//! Figures 7 and 8, are reproduced here: the memory footprint (staging buffer + table at
//! load factor 0.7, no singleton filtering), which makes it run out of memory on small
//! node counts, and the lack of a task layer, which makes it stop scaling at high node
//! counts (per-rank message counts explode while per-message sizes shrink).

use hysortk_core::model::{execution, padded_exchange};
use hysortk_core::result::KmerHistogram;
use hysortk_core::HySortKConfig;
use hysortk_dmem::Cluster;
use hysortk_dna::kmer::KmerCode;
use hysortk_dna::readset::ReadSet;
use hysortk_perfmodel::network::ExchangeProfile;
use hysortk_perfmodel::{MachineConfig, PerfModel, Projection, SortAlgorithm, StageTimes};

use crate::robinhood::RobinHoodTable;
use crate::{hash_kmer, BaselineResult};

/// Outcome of a kmerind run: either a result or an out-of-memory verdict (the missing
/// bar of Figure 7).
#[derive(Debug, Clone)]
pub enum KmerindOutcome<K: KmerCode> {
    /// The run fit in memory.
    Completed(Box<BaselineResult<K>>),
    /// The projected peak memory exceeded the node's DRAM; the run would have aborted.
    OutOfMemory {
        /// Projected peak bytes per node.
        projected_peak: u64,
        /// Available bytes per node.
        available: u64,
    },
}

impl<K: KmerCode> KmerindOutcome<K> {
    /// The result, if the run completed.
    pub fn result(&self) -> Option<&BaselineResult<K>> {
        match self {
            KmerindOutcome::Completed(r) => Some(r),
            KmerindOutcome::OutOfMemory { .. } => None,
        }
    }
}

/// Count canonical k-mers with the kmerind-style strategy, the layout of `cfg` modeled on
/// `machine`.
pub fn kmerind_count<K: KmerCode>(
    reads: &ReadSet,
    cfg: &HySortKConfig,
    machine: &MachineConfig,
) -> KmerindOutcome<K> {
    cfg.validate().expect("invalid configuration");
    let p = cfg.total_ranks();
    let k = cfg.k;
    let ranges = reads.partition_by_bases(p);
    let exec = execution(cfg, machine).expect("the layout fits the node");
    let model = PerfModel::new(machine.clone(), exec);
    let scale = 1.0 / cfg.data_scale;

    // ---- memory feasibility check (before doing any work, as the real tool would) -----
    let projected_instances_per_node =
        (reads.total_kmers(k) as f64 * scale) as u64 / cfg.nodes.max(1) as u64;
    // Without counting we do not know the distinct fraction; kmerind sizes tables from
    // the instance stream, so assume a conservative 40 % distinct ratio.
    let projected_distinct_per_node = projected_instances_per_node * 2 / 5;
    let projected_peak = model.memory().hash_counter_peak(
        projected_distinct_per_node,
        projected_instances_per_node,
        K::WORDS * 8,
        0.7,
        None,
    );
    let available = machine.mem_per_node_bytes.saturating_sub(16 * (1 << 30));
    if projected_peak > available {
        return KmerindOutcome::OutOfMemory {
            projected_peak,
            available,
        };
    }

    struct RankOut<K: KmerCode> {
        counts: Vec<(K, u64)>,
        histogram: KmerHistogram,
        bases: u64,
        received: u64,
        table_bytes: u64,
        distinct: u64,
    }

    let run = Cluster::new(p).run(|ctx| {
        let rank = ctx.rank();
        let my_reads = &reads.reads()[ranges[rank].clone()];

        let mut send: Vec<Vec<u64>> = vec![Vec::new(); ctx.size()];
        let mut bases = 0u64;
        for read in my_reads {
            bases += read.len() as u64;
            for km in read.seq.canonical_kmers::<K>(k) {
                let dest = (hash_kmer(&km, cfg.seed) % ctx.size() as u64) as usize;
                for &w in km.word_slice() {
                    send[dest].push(w);
                }
            }
        }
        let exchange = ctx
            .alltoall_rounds(send, cfg.batch_size * K::WORDS, "exchange")
            .expect("baseline cluster runs without fault injection");

        let mut table: RobinHoodTable<K> = RobinHoodTable::with_expected(4096);
        let mut received = 0u64;
        for row in &exchange.received {
            for chunk in row.chunks_exact(K::WORDS) {
                received += 1;
                table.add(crate::hashtable::kmer_from_word_vec::<K>(chunk), 1);
            }
        }
        let table_bytes = table.memory_bytes() as u64;
        let distinct = table.len() as u64;

        let mut histogram = KmerHistogram::for_max_count(cfg.max_count);
        let mut counts = Vec::new();
        for (km, c) in table.into_sorted_counts() {
            histogram.record(c);
            if c >= cfg.min_count && c <= cfg.max_count {
                counts.push((km, c));
            }
        }
        RankOut {
            counts,
            histogram,
            bases,
            received,
            table_bytes,
            distinct,
        }
    });

    // ---- merge -------------------------------------------------------------------------
    let mut counts: Vec<(K, u64)> = Vec::new();
    let mut histogram = KmerHistogram::for_max_count(cfg.max_count);
    for out in &run.results {
        counts.extend(out.counts.iter().cloned());
        histogram.merge(&out.histogram);
    }
    counts.sort_by_key(|a| a.0);

    let compute = model.compute();
    let network = model.network();
    let max_bases = run.results.iter().map(|o| o.bases).max().unwrap_or(0) as f64 * scale;
    let max_received = run.results.iter().map(|o| o.received).max().unwrap_or(0) as f64 * scale;
    let max_distinct = run.results.iter().map(|o| o.distinct).max().unwrap_or(0) as f64 * scale;
    let total_kmers = (reads.total_kmers(k) as f64 * scale) as u64;

    let batch_bytes = (cfg.batch_size * K::WORDS * 8) as u64;
    let exchange = padded_exchange(
        &run.comm,
        "exchange",
        scale,
        batch_bytes,
        cfg.processes_per_node,
    );

    // kmerind overlaps communication with hash insertion.
    let insert_time = compute.hash_insert_time(max_received as u64);
    let mut stages = StageTimes::new();
    stages.add("parse", compute.parse_time(max_bases as u64));
    let profile = ExchangeProfile {
        max_rank_wire_bytes: exchange.max_rank_wire,
        off_node_fraction: exchange.off_node,
        rounds: exchange.rounds,
        overlappable_compute: insert_time,
        overlap_fraction: 1.0,
    };
    stages.add("exchange+insert", network.exchange_time(&profile));
    // Lack of a task layer: the per-rank alltoall message count grows with the total
    // rank count, an overhead HySortK's task layer amortises. Model it as an extra
    // latency term per destination per round.
    let message_overhead = exchange.rounds as f64
        * (p as f64)
        * machine.network_latency
        * (cfg.nodes as f64).log2().max(1.0);
    stages.add("message-overhead", message_overhead);

    let elements_per_node = (max_received as u64) * cfg.processes_per_node as u64;
    let distinct_per_node = (max_distinct as u64) * cfg.processes_per_node as u64;
    let table_measured: u64 = run.results.iter().map(|o| o.table_bytes).max().unwrap_or(0);
    let peak = model
        .memory()
        .hash_counter_peak(
            distinct_per_node,
            elements_per_node,
            K::WORDS * 8,
            0.7,
            None,
        )
        .max(table_measured * cfg.processes_per_node as u64);

    let modeled = Projection {
        stage_times: stages,
        peak_memory_per_node: peak,
        sorter: SortAlgorithm::HashTable,
        total_kmers,
        max_rank_wire_bytes: exchange.max_rank_wire,
        total_wire_bytes: exchange.total_wire,
        rounds: exchange.rounds,
        overlap_fraction: 1.0,
    };

    KmerindOutcome::Completed(Box::new(BaselineResult {
        counts,
        histogram,
        modeled,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_core::reference::reference_counts_bounded;
    use hysortk_datasets::DatasetPreset;
    use hysortk_dna::Kmer1;

    #[test]
    fn matches_reference_counts() {
        let data = DatasetPreset::ABaumannii.generate(2e-4, 21);
        let mut cfg = HySortKConfig::small(21, 9, 4);
        cfg.min_count = 1;
        cfg.max_count = 1_000_000;
        cfg.data_scale = data.data_scale;
        let outcome = kmerind_count::<Kmer1>(&data.reads, &cfg, &MachineConfig::workstation(8, 32));
        let result = outcome.result().expect("should fit in memory");
        let expected = reference_counts_bounded::<Kmer1>(&data.reads, 21, 1, 1_000_000);
        assert_eq!(result.counts, expected);
    }

    #[test]
    fn runs_out_of_memory_on_one_node_with_a_big_dataset() {
        // Figure 7: kmerind cannot run H. sapiens 10x on a single 512 GB node.
        let data = DatasetPreset::HSapiens10x.generate(1e-6, 22);
        let mut cfg = HySortKConfig::default();
        cfg.nodes = 1;
        cfg.data_scale = data.data_scale;
        let perlmutter = MachineConfig::perlmutter_cpu();
        let outcome = kmerind_count::<Kmer1>(&data.reads, &cfg, &perlmutter);
        assert!(
            outcome.result().is_none(),
            "expected an out-of-memory verdict"
        );
        // With 4 nodes it fits.
        cfg.nodes = 4;
        let outcome = kmerind_count::<Kmer1>(&data.reads, &cfg, &perlmutter);
        assert!(outcome.result().is_some());
    }
}
