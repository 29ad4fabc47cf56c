//! Two-pass distributed hash-table counter (Georganas et al., paper §2.2).
//!
//! The classic pipeline HipMer, ELBA and DEDUKT follow:
//!
//! 1. build HyperLogLog sketches locally and all-reduce them to estimate the number of
//!    distinct k-mers, then size a Bloom filter accordingly;
//! 2. **pass 1** — exchange bare k-mers and insert them into the destination's Bloom
//!    filter, remembering which k-mers were seen at least twice;
//! 3. **pass 2** — exchange the k-mers again (with extension information if requested)
//!    and insert only the ones that passed the filter into a hash table that accumulates
//!    the counts.
//!
//! Relative to HySortK this costs a second full exchange, Bloom-filter memory, and
//! random-access hash insertions — exactly the overheads §3.1 and §3.3 describe.

use std::collections::BTreeMap;

use hysortk_core::result::KmerHistogram;
use hysortk_core::{HySortKConfig, RunReport};
use hysortk_dmem::{Cluster, CommStats};
use hysortk_dna::kmer::KmerCode;
use hysortk_dna::readset::ReadSet;
use hysortk_perfmodel::network::ExchangeProfile;
use hysortk_perfmodel::{PerfModel, SortAlgorithm, StageTimes};

use crate::bloom::BloomFilter;
use crate::hyperloglog::HyperLogLog;
use crate::{hash_kmer, BaselineResult};

/// Count canonical k-mers with the two-pass hash-table pipeline.
///
/// Uses `cfg` for k, the cluster layout, the count band and the machine model; the
/// supermer/task-layer/heavy-hitter options are ignored (this baseline has none of them).
/// Note that the two-pass design inherently drops singletons, so `cfg.min_count` must be
/// at least 2 for the output to be meaningful; lower values are clamped to 2.
pub fn two_pass_hash_count<K: KmerCode>(reads: &ReadSet, cfg: &HySortKConfig) -> BaselineResult<K> {
    cfg.validate().expect("invalid configuration");
    let p = cfg.total_ranks();
    let k = cfg.k;
    let min_count = cfg.min_count.max(2);
    let max_count = cfg.max_count;
    let ranges = reads.partition_by_bases(p);

    struct RankOut<K: KmerCode> {
        counts: Vec<(K, u64)>,
        histogram: KmerHistogram,
        bases: u64,
        kmers_sent: u64,
        received: u64,
        bloom_bytes: u64,
        table_distinct: u64,
    }

    let run = Cluster::new(p).run(|ctx| {
        let rank = ctx.rank();
        let my_reads = &reads.reads()[ranges[rank].clone()];

        // ---- HyperLogLog estimate (the "pass 0" whose traffic is k-independent) ------
        let mut hll = HyperLogLog::new(12);
        let mut bases = 0u64;
        for read in my_reads {
            bases += read.len() as u64;
            for km in read.seq.canonical_kmers::<K>(k) {
                hll.insert_hash(hash_kmer(&km, 0x5eed));
            }
        }
        let merged = ctx
            .allreduce(hll, "hll-merge", |mut a, b| {
                a.merge(&b);
                a
            })
            .expect("baseline cluster runs without fault injection");
        let estimated_distinct = merged.estimate().max(64.0) as usize;
        let per_rank_estimate = estimated_distinct / ctx.size() + 1;

        // ---- pass 1: exchange bare k-mers, populate Bloom filters --------------------
        let mut send: Vec<Vec<u64>> = vec![Vec::new(); ctx.size()];
        let mut kmers_sent = 0u64;
        for read in my_reads {
            for km in read.seq.canonical_kmers::<K>(k) {
                let dest = (hash_kmer(&km, cfg.seed) % ctx.size() as u64) as usize;
                kmers_sent += 1;
                // Ship the packed words (1 or 2 u64 per k-mer).
                for &w in km.word_slice() {
                    send[dest].push(w);
                }
            }
        }
        let pass1 = ctx
            .alltoall_rounds(send.clone(), cfg.batch_size * K::WORDS, "pass1")
            .expect("baseline cluster runs without fault injection");

        let mut bloom = BloomFilter::with_rate(per_rank_estimate.max(1024), 0.01);
        let mut seen_twice: std::collections::HashSet<Vec<u64>> = std::collections::HashSet::new();
        // The Bloom filter hashes a k-mer's words as their in-memory bytes.
        let mut bytes = Vec::with_capacity(8 * K::WORDS);
        for row in &pass1.received {
            for chunk in row.chunks_exact(K::WORDS) {
                bytes.clear();
                bytes.extend(chunk.iter().flat_map(|w| w.to_ne_bytes()));
                if bloom.insert(&bytes) {
                    seen_twice.insert(chunk.to_vec());
                }
            }
        }

        // ---- pass 2: exchange again, count in the hash table -------------------------
        let pass2 = ctx
            .alltoall_rounds(send, cfg.batch_size * K::WORDS, "pass2")
            .expect("baseline cluster runs without fault injection");
        let mut table: BTreeMap<Vec<u64>, u64> = BTreeMap::new();
        let mut received = 0u64;
        for row in &pass2.received {
            for chunk in row.chunks_exact(K::WORDS) {
                received += 1;
                if seen_twice.contains(chunk) {
                    *table.entry(chunk.to_vec()).or_insert(0) += 1;
                }
            }
        }

        let mut histogram = KmerHistogram::for_max_count(max_count);
        // Singletons were filtered by the Bloom filter; record what the table holds.
        let mut counts: Vec<(K, u64)> = Vec::new();
        for (words, count) in &table {
            histogram.record(*count);
            if *count >= min_count && *count <= max_count {
                counts.push((kmer_from_word_vec::<K>(words), *count));
            }
        }
        counts.sort_by_key(|a| a.0);

        RankOut {
            counts,
            histogram,
            bases,
            kmers_sent,
            received,
            bloom_bytes: bloom.memory_bytes() as u64,
            table_distinct: table.len() as u64,
        }
    });

    // ---- merge and build the report -----------------------------------------------------
    let scale = 1.0 / cfg.data_scale;
    let model = PerfModel::new(cfg.machine.clone(), cfg.execution());
    let compute = model.compute();
    let network = model.network();

    let mut counts: Vec<(K, u64)> = Vec::new();
    let mut histogram = KmerHistogram::for_max_count(max_count);
    for out in &run.results {
        counts.extend(out.counts.iter().cloned());
        histogram.merge(&out.histogram);
    }
    counts.sort_by_key(|a| a.0);

    let max_bases = run.results.iter().map(|o| o.bases).max().unwrap_or(0) as f64 * scale;
    let max_received = run.results.iter().map(|o| o.received).max().unwrap_or(0) as f64 * scale;
    let total_kmers: u64 =
        (run.results.iter().map(|o| o.kmers_sent).sum::<u64>() as f64 * scale) as u64;
    let max_distinct = run
        .results
        .iter()
        .map(|o| o.table_distinct)
        .max()
        .unwrap_or(0) as f64
        * scale;
    let bloom_bytes = run.results.iter().map(|o| o.bloom_bytes).max().unwrap_or(0) as f64 * scale;

    // Project payloads to full scale, then recompute rounds/padding (see the same logic
    // in the HySortK pipeline): both passes move the same k-mer payload.
    let payload =
        |s: &CommStats, label: &str| s.stage(label).map(|st| st.payload_bytes).unwrap_or(0);
    let per_pass_payload_max = run
        .comm
        .iter()
        .map(|s| payload(s, "pass1"))
        .max()
        .unwrap_or(0) as f64
        * scale;
    let per_pass_pair_max = run
        .comm
        .iter()
        .enumerate()
        .map(|(r, s)| {
            s.sent_to
                .iter()
                .enumerate()
                .filter(|(d, _)| *d != r)
                .map(|(_, &b)| b / 2)
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0) as f64
        * scale;
    let batch_bytes = (cfg.batch_size * K::WORDS * 8) as u64;
    let (per_pass_wire, per_pass_rounds) = hysortk_perfmodel::project_padded_exchange(
        per_pass_payload_max as u64,
        per_pass_pair_max as u64,
        batch_bytes,
        p.saturating_sub(1).max(1),
    );
    let max_rank_wire = (per_pass_wire * 2) as f64;
    let total_wire = run
        .comm
        .iter()
        .map(|s| payload(s, "pass1") + payload(s, "pass2"))
        .sum::<u64>() as f64
        * scale
        + ((per_pass_wire * 2).saturating_sub((per_pass_payload_max * 2.0) as u64) * p as u64)
            as f64;
    let off_node = run
        .comm
        .iter()
        .enumerate()
        .map(|(r, s)| s.off_node_fraction(r, cfg.processes_per_node))
        .fold(0.0f64, f64::max);
    let rounds_projected = per_pass_rounds * 2;

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
    // Bloom insertions (pass 1) + hash-table insertions (pass 2): random-access bound.
    stages.add("bloom", compute.hash_insert_time(max_received as u64));
    stages.add("hash-count", compute.hash_insert_time(max_received as u64));

    let elements_per_node = (max_received as u64) * cfg.processes_per_node as u64;
    let distinct_per_node = (max_distinct as u64) * cfg.processes_per_node as u64;
    let peak = model.memory().hash_counter_peak(
        distinct_per_node,
        elements_per_node,
        K::WORDS * 8,
        0.7,
        Some(10.0),
    ) + (bloom_bytes as u64) * cfg.processes_per_node as u64;

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

/// Rebuild a packed k-mer from its wire words (shared with the kmerind baseline).
pub(crate) fn kmer_from_word_vec<K: KmerCode>(words: &[u64]) -> K {
    let capacity = K::max_k();
    let mut km = K::zero();
    for i in 0..capacity {
        let bit = 2 * (capacity - 1 - i);
        let word_idx = words.len() - 1 - bit / 64;
        let shift = bit % 64;
        let code = ((words[word_idx] >> shift) & 0b11) as u8;
        km = km.push_base(capacity, code);
    }
    km
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_core::reference::reference_counts_bounded;
    use hysortk_datasets::DatasetPreset;
    use hysortk_dna::Kmer1;

    #[test]
    fn matches_reference_above_the_singleton_threshold() {
        let data = DatasetPreset::ABaumannii.generate(2e-4, 11);
        let mut cfg = HySortKConfig::small(21, 9, 4);
        cfg.min_count = 2;
        cfg.max_count = 10_000;
        cfg.data_scale = data.data_scale;
        let result = two_pass_hash_count::<Kmer1>(&data.reads, &cfg);
        let expected = reference_counts_bounded::<Kmer1>(&data.reads, 21, 2, 10_000);
        assert_eq!(result.counts, expected);
        assert!(result.report.total_time() > 0.0);
    }

    #[test]
    fn uses_two_exchange_passes_and_more_wire_bytes_than_hysortk() {
        let data = DatasetPreset::CElegans.generate(5e-5, 12);
        let mut cfg = HySortKConfig::small(21, 9, 4);
        cfg.min_count = 2;
        cfg.max_count = 10_000;
        cfg.data_scale = data.data_scale;
        let hash = two_pass_hash_count::<Kmer1>(&data.reads, &cfg);
        let sort = hysortk_core::count_kmers::<Kmer1>(&data.reads, &cfg);
        assert_eq!(hash.counts, sort.counts);
        // §3.2/§3.3: supermers + one-pass exchange move far fewer bytes.
        assert!(
            hash.report.total_wire_bytes > 2 * sort.report.total_wire_bytes,
            "hash {} vs sort {}",
            hash.report.total_wire_bytes,
            sort.report.total_wire_bytes
        );
        // And the hash-table pipeline needs more memory.
        assert!(hash.report.peak_memory_per_node > sort.report.peak_memory_per_node);
    }
}
