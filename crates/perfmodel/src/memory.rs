//! Peak-memory accounting.
//!
//! Figures 7 and 8 of the paper compare HySortK's peak RAM against kmerind's and report
//! 25–70 % lower usage; §3.1 explains why (no hash-table load-factor overhead, no Bloom
//! filter, in-place sorting when memory is tight). The helpers here compute the modeled
//! per-node footprint of each strategy from the element counts measured by a run.

use crate::machine::{ExecutionConfig, MachineConfig};

/// Size of one of stage 3's per-thread bucket buffers: `hysortk_sort::IN_CACHE_BYTES`
/// (this crate has no dependencies; `hysortk_core::stage3` tests the two for equality).
pub const STAGE3_CACHE_BUFFER_BYTES: u64 = 512 * 1024;

/// Memory model bound to a machine and execution configuration.
#[derive(Debug, Clone)]
pub struct MemoryModel<'a> {
    machine: &'a MachineConfig,
    exec: &'a ExecutionConfig,
}

impl<'a> MemoryModel<'a> {
    /// Bind the model.
    pub fn new(machine: &'a MachineConfig, exec: &'a ExecutionConfig) -> Self {
        MemoryModel { machine, exec }
    }

    /// Peak bytes per node for the sorting-based counter: the k-mer records (modeled,
    /// as in the paper, as one receive buffer of `bytes_per_elem` per element —
    /// wherever they live: wire bytes until a task is counted, its bucket pool while it
    /// is), the pool's chunk slack — a sixteenth — for the tasks being counted
    /// *concurrently* (`concurrent_fraction` of the data; with the task abstraction
    /// layer that is `workers / tasks`), and the cache-resident bucket buffers of every
    /// counting thread ([`STAGE3_CACHE_BUFFER_BYTES`] each): two with the out-of-place
    /// kernel (the bucket and its RADULS ping-pong twin), one with the in-place kernel.
    ///
    /// Stage 3 sorts bucket by bucket, so no kernel needs an auxiliary copy of the data
    /// any more: the sorter choice moves the peak by one cache-sized buffer per thread,
    /// which is the main reason HySortK's footprint stays low even with RADULS.
    pub fn sort_counter_peak(
        &self,
        elements_per_node: u64,
        bytes_per_elem: usize,
        out_of_place: bool,
        concurrent_fraction: f64,
    ) -> u64 {
        let buffer = elements_per_node * bytes_per_elem as u64;
        let slack = (buffer as f64 * concurrent_fraction.clamp(0.0, 1.0) / 16.0) as u64;
        let threads = (self.exec.processes_per_node * self.exec.threads_per_process) as u64;
        let buffers_per_thread = if out_of_place { 2 } else { 1 };
        buffer + slack + threads * buffers_per_thread * STAGE3_CACHE_BUFFER_BYTES
    }

    /// Peak bytes per node for a hash-table counter: table entries at the given load
    /// factor (key + count + metadata) including the ~1.5× transient of growth-by-
    /// doubling, the receive staging buffer, and the Bloom filter of the two-pass scheme
    /// (if used).
    pub fn hash_counter_peak(
        &self,
        distinct_per_node: u64,
        elements_per_node: u64,
        key_bytes: usize,
        load_factor: f64,
        bloom_bits_per_key: Option<f64>,
    ) -> u64 {
        let entry = key_bytes as u64 + 4 /* count */ + 4 /* metadata / chaining */;
        let table = (distinct_per_node as f64 / load_factor.clamp(0.1, 1.0) * 1.5) as u64 * entry;
        let staging = elements_per_node * key_bytes as u64;
        let bloom = bloom_bits_per_key
            .map(|bits| (distinct_per_node as f64 * bits / 8.0) as u64)
            .unwrap_or(0);
        table + staging + bloom
    }

    /// Whether the out-of-place sorter fits on this configuration (HySortK's runtime
    /// check, §3.1), conservatively assuming every task is counted at once.
    /// `input_bytes_per_node` is the resident packed input share. The two kernels
    /// differ by one cache-sized buffer per thread, so this only says "no" where the
    /// in-place kernel would barely fit either.
    pub fn raduls_fits(
        &self,
        elements_per_node: u64,
        bytes_per_elem: usize,
        input_bytes_per_node: u64,
    ) -> bool {
        let need = self.sort_counter_peak(elements_per_node, bytes_per_elem, true, 1.0);
        let have = self
            .machine
            .mem_per_node_bytes
            .saturating_sub(16 * (1u64 << 30))
            .saturating_sub(input_bytes_per_node);
        need <= have
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{ExecutionConfig, MachineConfig};

    fn model() -> (MachineConfig, ExecutionConfig) {
        let m = MachineConfig::perlmutter_cpu();
        let e = ExecutionConfig::fill_node(&m, 1, 16);
        (m, e)
    }

    #[test]
    fn sort_counter_uses_less_memory_than_hash_counter() {
        let (m, e) = model();
        let mm = MemoryModel::new(&m, &e);
        // 1e9 k-mer instances per node, ~2e8 distinct, 8-byte keys; workers count a
        // third of the tasks concurrently (tpw = 3).
        let sort_peak = mm.sort_counter_peak(1_000_000_000, 8, true, 1.0 / 3.0);
        let hash_peak = mm.hash_counter_peak(200_000_000, 1_000_000_000, 8, 0.7, Some(10.0));
        assert!(sort_peak < hash_peak, "sort={sort_peak} hash={hash_peak}");
        // The paper reports 25-70 % lower usage; check we land inside that band.
        let saving = 1.0 - sort_peak as f64 / hash_peak as f64;
        assert!((0.25..=0.70).contains(&saving), "saving {saving}");
        // The records, a sixteenth of the concurrently counted third as chunk slack,
        // and two cache-sized buffers for each of the node's threads — no auxiliary
        // copy of anything.
        let threads = (e.processes_per_node * e.threads_per_process) as u64;
        assert_eq!(
            sort_peak,
            8_000_000_000 + 8_000_000_000 / 48 + threads * 2 * STAGE3_CACHE_BUFFER_BYTES
        );
        // The in-place kernel saves exactly the ping-pong buffer of every thread: the
        // choice of kernel no longer decides whether a data-sized copy exists.
        assert_eq!(
            sort_peak - mm.sort_counter_peak(1_000_000_000, 8, false, 1.0 / 3.0),
            threads * STAGE3_CACHE_BUFFER_BYTES
        );
    }

    #[test]
    fn raduls_fits_small_but_not_huge_payloads() {
        let (m, e) = model();
        let mm = MemoryModel::new(&m, &e);
        assert!(mm.raduls_fits(1_000_000_000, 8, 10 * (1 << 30)));
        assert!(!mm.raduls_fits(60_000_000_000, 8, 100 * (1 << 30)));
        // The boundary is the records plus a sixteenth (every task counted at once)
        // plus the threads' buffers — 1 1/16 times the data and small change, where
        // the auxiliary copy used to make it 2 1/16.
        let have = m.mem_per_node_bytes - 16 * (1u64 << 30);
        let fitting = have / 8 * 16 / 17 - (1 << 25);
        assert!(mm.raduls_fits(fitting, 8, 0));
        assert!(!mm.raduls_fits(fitting + (1 << 26), 8, 0));
    }
}
