//! Compute-side cost model: thread scaling, NUMA/CCX penalties, stage costs.

use crate::machine::{ExecutionConfig, MachineConfig};

/// Which local sorting algorithm a stage used (paper §3.1: RADULS when memory allows,
/// PARADIS otherwise). The in-place sorter pays extra passes for its repair phase, which
/// is how the paper explains the superlinear strong-scaling step in Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortAlgorithm {
    /// Out-of-place radix sort.
    Raduls,
    /// In-place MSD radix sort, ~0.55× the throughput of RADULS.
    Paradis,
    /// Comparison-based sample sort (kmerind's sorting mode), slower still.
    SampleSort,
    /// Hash-table insertion instead of sorting (the baseline counters).
    HashTable,
}

impl SortAlgorithm {
    /// Throughput of this algorithm relative to RADULS.
    pub fn relative_rate(self) -> f64 {
        match self {
            SortAlgorithm::Raduls => 1.0,
            SortAlgorithm::Paradis => 0.55,
            SortAlgorithm::SampleSort => 0.35,
            SortAlgorithm::HashTable => 0.40,
        }
    }
}

/// Parallel efficiency of the radix sorts as a function of thread count.
///
/// The paper reports near-linear scaling up to 16 threads and "poor weak scaling once
/// the number of threads exceeds 16" (§3.4); the task abstraction layer exists precisely
/// to keep each sorting worker at a small thread count. The curve below is near-linear
/// up to 16 threads and saturates beyond.
pub fn thread_efficiency(threads: usize) -> f64 {
    let t = threads.max(1) as f64;
    if threads <= 16 {
        // 2 % loss per doubling — effectively linear.
        0.98f64.powf(t.log2())
    } else {
        let base = thread_efficiency(16);
        // Beyond 16 threads each doubling only delivers ~55 % of the ideal gain.
        let extra_doublings = (t / 16.0).log2();
        base * 0.62f64.powf(extra_doublings)
    }
}

/// Penalty factor (≥ 1) for a process whose threads span multiple CCX/L3 domains.
///
/// With at least one process per CCX (ppn ≥ 16 on Perlmutter) the implicit cross-domain
/// traffic disappears, which is the effect Table 2 measures.
pub fn ccx_penalty(threads_per_process: usize, cores_per_ccx: usize) -> f64 {
    let spanned = threads_per_process.div_ceil(cores_per_ccx.max(1));
    if spanned <= 1 {
        1.0
    } else {
        // Each additional spanned domain adds ~12 % slowdown to memory-bound phases.
        1.0 + 0.12 * (spanned as f64 - 1.0)
    }
}

/// Compute-cost model bound to a machine and an execution configuration.
#[derive(Debug, Clone)]
pub struct ComputeModel<'a> {
    machine: &'a MachineConfig,
    exec: &'a ExecutionConfig,
}

impl<'a> ComputeModel<'a> {
    /// Bind the model.
    pub fn new(machine: &'a MachineConfig, exec: &'a ExecutionConfig) -> Self {
        ComputeModel { machine, exec }
    }

    /// Effective element rate of one process sorting with `threads` threads.
    fn process_rate(&self, base_rate: f64, threads: usize) -> f64 {
        let eff = thread_efficiency(threads);
        let penalty = ccx_penalty(threads, self.machine.cores_per_ccx());
        base_rate * threads as f64 * eff / penalty
    }

    /// Modeled time for the read-parsing / supermer-construction stage on the most
    /// loaded rank (`max_rank_bases` input bases).
    pub fn parse_time(&self, max_rank_bases: u64) -> f64 {
        let rate = self.process_rate(self.machine.core_parse_rate, self.exec.threads_per_process);
        max_rank_bases as f64 / rate
    }

    /// Modeled time to sort `max_rank_elements` records of `bytes_per_elem` bytes on the
    /// most loaded rank. The byte width scales the cost linearly relative to an 8-byte
    /// record (radix sort is O(n · d)).
    #[cfg(test)]
    pub fn sort_time(
        &self,
        max_rank_elements: u64,
        bytes_per_elem: usize,
        algo: SortAlgorithm,
    ) -> f64 {
        // Workers sort independent tasks; each worker runs `threads_per_worker` threads
        // at high efficiency, and the workers of a process run concurrently.
        let tpw = self.exec.threads_per_worker;
        let workers = self.exec.workers_per_process();
        let per_worker_rate =
            self.process_rate(self.machine.core_sort_rate, tpw) * algo.relative_rate();
        let digit_factor = (bytes_per_elem as f64 / 8.0).max(0.25);
        max_rank_elements as f64 * digit_factor / (per_worker_rate * workers as f64)
    }

    /// Modeled time for a worker-scheduled counting stage: `makespan_elements` is the
    /// heaviest worker's total task size (from LPT scheduling), and each worker runs
    /// `threads_per_worker` threads. This is the stage time the task abstraction layer
    /// actually achieves, imbalance included.
    pub fn sort_time_makespan(
        &self,
        makespan_elements: u64,
        bytes_per_elem: usize,
        algo: SortAlgorithm,
    ) -> f64 {
        let per_worker_rate = self
            .process_rate(self.machine.core_sort_rate, self.exec.threads_per_worker)
            * algo.relative_rate();
        let digit_factor = (bytes_per_elem as f64 / 8.0).max(0.25);
        makespan_elements as f64 * digit_factor / per_worker_rate
    }

    /// Modeled time to sort when the process uses all of its threads on one array
    /// (no task layer) — the configuration the §4.1.1 ablation compares against.
    pub fn sort_time_monolithic(
        &self,
        max_rank_elements: u64,
        bytes_per_elem: usize,
        algo: SortAlgorithm,
    ) -> f64 {
        let rate = self.process_rate(self.machine.core_sort_rate, self.exec.threads_per_process)
            * algo.relative_rate();
        let digit_factor = (bytes_per_elem as f64 / 8.0).max(0.25);
        max_rank_elements as f64 * digit_factor / rate
    }

    /// Modeled time for the linear counting scan.
    pub fn scan_time(&self, max_rank_elements: u64) -> f64 {
        let rate = self.process_rate(self.machine.core_scan_rate, self.exec.threads_per_process);
        max_rank_elements as f64 / rate
    }

    /// Modeled time for hash-table insertion of `max_rank_elements` (baseline counters).
    pub fn hash_insert_time(&self, max_rank_elements: u64) -> f64 {
        let rate = self.process_rate(
            self.machine.core_hash_insert_rate,
            self.exec.threads_per_process,
        );
        max_rank_elements as f64 / rate
    }

    /// Modeled time for GPU processing of `elements` records of `bytes_per_elem` bytes
    /// per node (MetaHipMer2 model): host→device transfer plus kernel, per round.
    pub fn gpu_process_time(
        &self,
        elements_per_node: u64,
        bytes_per_elem: usize,
        rounds: usize,
    ) -> f64 {
        let gpu = self
            .machine
            .gpu
            .as_ref()
            .expect("gpu_process_time requires a machine with a GPU config");
        let per_gpu_elements = elements_per_node as f64 / gpu.gpus_per_node as f64;
        let bytes = per_gpu_elements * bytes_per_elem as f64;
        let transfer = bytes / gpu.pcie_bandwidth;
        let kernel = per_gpu_elements / gpu.kernel_rate;
        transfer + kernel + gpu.kernel_launch_overhead * rounds.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{ExecutionConfig, MachineConfig};

    fn model(ppn: usize) -> (MachineConfig, ExecutionConfig) {
        let m = MachineConfig::perlmutter_cpu();
        let e = ExecutionConfig::fill_node(&m, 1, ppn);
        (m, e)
    }

    #[test]
    fn efficiency_is_near_linear_up_to_16_then_degrades() {
        assert!(thread_efficiency(1) > 0.99);
        assert!(thread_efficiency(16) > 0.9);
        assert!(thread_efficiency(32) < 0.75);
        assert!(thread_efficiency(128) < 0.45);
        // Monotonically non-increasing.
        let mut prev = f64::INFINITY;
        for t in [1, 2, 4, 8, 16, 32, 64, 128] {
            let e = thread_efficiency(t);
            assert!(e <= prev + 1e-12);
            prev = e;
        }
    }

    #[test]
    fn ccx_penalty_kicks_in_when_spanning_domains() {
        assert_eq!(ccx_penalty(8, 8), 1.0);
        assert!(ccx_penalty(16, 8) > 1.0);
        assert!(ccx_penalty(64, 8) > ccx_penalty(16, 8));
    }

    #[test]
    fn sixteen_ppn_is_not_slower_than_four_ppn() {
        // Table 2: performance improves as ppn grows to 16.
        let elements = 500_000_000u64;
        let (m4, e4) = model(4);
        let (m16, e16) = model(16);
        let t4 = ComputeModel::new(&m4, &e4).sort_time_monolithic(
            elements / 4,
            8,
            SortAlgorithm::Raduls,
        );
        let t16 = ComputeModel::new(&m16, &e16).sort_time_monolithic(
            elements / 16,
            8,
            SortAlgorithm::Raduls,
        );
        assert!(t16 < t4, "t16={t16} t4={t4}");
    }

    #[test]
    fn task_layer_beats_monolithic_sorting_at_low_ppn() {
        // §3.4: dividing a 32-thread process into 4-thread workers is faster than one
        // 32-thread sort.
        let (m, e) = model(4); // 32 threads per process
        let cm = ComputeModel::new(&m, &e);
        let t_task = cm.sort_time(100_000_000, 8, SortAlgorithm::Raduls);
        let t_mono = cm.sort_time_monolithic(100_000_000, 8, SortAlgorithm::Raduls);
        assert!(t_task < t_mono);
    }

    #[test]
    fn paradis_is_slower_than_raduls() {
        let (m, e) = model(16);
        let cm = ComputeModel::new(&m, &e);
        let r = cm.sort_time(50_000_000, 8, SortAlgorithm::Raduls);
        let p = cm.sort_time(50_000_000, 8, SortAlgorithm::Paradis);
        assert!(p > r);
    }

    #[test]
    fn wider_records_cost_more_to_sort() {
        let (m, e) = model(16);
        let cm = ComputeModel::new(&m, &e);
        assert!(
            cm.sort_time(1_000_000, 16, SortAlgorithm::Raduls)
                > cm.sort_time(1_000_000, 8, SortAlgorithm::Raduls)
        );
    }

    #[test]
    fn gpu_model_requires_gpu_machine_and_scales_with_volume() {
        let m = MachineConfig::perlmutter_gpu();
        let e = ExecutionConfig::fill_node(&m, 1, 4);
        let cm = ComputeModel::new(&m, &e);
        let small = cm.gpu_process_time(10_000_000, 8, 4);
        let large = cm.gpu_process_time(100_000_000, 8, 4);
        assert!(large > small);
    }

    #[test]
    #[should_panic(expected = "requires a machine with a GPU")]
    fn gpu_model_panics_without_gpu() {
        let m = MachineConfig::perlmutter_cpu();
        let e = ExecutionConfig::fill_node(&m, 1, 16);
        ComputeModel::new(&m, &e).gpu_process_time(1, 8, 1);
    }
}
