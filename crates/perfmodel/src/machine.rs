//! Machine descriptions and execution configurations.

/// Description of one node of the modelled machine plus its interconnect.
///
/// The default numbers correspond to a NERSC Perlmutter CPU node: two 64-core AMD EPYC
/// 7763 (Milan) sockets, 8 NUMA domains, 16 CCX sharing an L3 slice, 512 GB of DRAM and
/// a Slingshot-11 NIC on a 3-hop dragonfly (paper §4).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable name used in reports.
    pub name: String,
    /// Physical cores per node.
    pub cores_per_node: usize,
    /// Hardware threads per core (SMT).
    pub hw_threads_per_core: usize,
    /// NUMA domains per node.
    pub numa_domains: usize,
    /// Core complexes (CCX, shared L3) per node.
    pub ccx_per_node: usize,
    /// DRAM per node in bytes.
    pub mem_per_node_bytes: u64,
    /// Aggregate DRAM bandwidth per node, bytes/s.
    pub mem_bandwidth_per_node: f64,
    /// Radix-sort throughput of one core, elements/s (RADULS-style out-of-place).
    pub core_sort_rate: f64,
    /// Read-parsing / supermer-construction throughput of one core, bases/s.
    pub core_parse_rate: f64,
    /// Linear-scan counting throughput of one core, elements/s.
    pub core_scan_rate: f64,
    /// Hash-table insertion throughput of one core, elements/s (for the baselines;
    /// lower than scanning because of random access, cf. §3.1).
    pub core_hash_insert_rate: f64,
    /// Network injection bandwidth per node, bytes/s.
    pub network_bandwidth_per_node: f64,
    /// Per-message network latency, seconds.
    pub network_latency: f64,
    /// Bandwidth between NUMA domains inside a node, bytes/s (implicit communication
    /// penalty when a process spans domains).
    pub cross_numa_bandwidth: f64,
    /// Optional GPU complement (for the MetaHipMer2 comparison).
    pub gpu: Option<GpuConfig>,
}

/// GPU side of a node (Perlmutter GPU partition: 1× EPYC 7763 + 4× A100 + 4 NICs).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// K-mer/supermer processing throughput of one GPU once data is resident, elements/s.
    pub kernel_rate: f64,
    /// Host-to-device (PCIe / NVLink-H) bandwidth per GPU, bytes/s.
    pub pcie_bandwidth: f64,
    /// Fixed kernel-launch plus batching overhead per processing round, seconds.
    pub kernel_launch_overhead: f64,
}

impl MachineConfig {
    /// Perlmutter CPU-partition node (the machine of §4.1–4.5).
    pub fn perlmutter_cpu() -> Self {
        MachineConfig {
            name: "perlmutter-cpu".to_string(),
            cores_per_node: 128,
            hw_threads_per_core: 2,
            numa_domains: 8,
            ccx_per_node: 16,
            mem_per_node_bytes: 512 * (1 << 30),
            mem_bandwidth_per_node: 400e9,
            core_sort_rate: 45e6,
            core_parse_rate: 120e6,
            core_scan_rate: 300e6,
            core_hash_insert_rate: 18e6,
            network_bandwidth_per_node: 22e9,
            network_latency: 2.5e-6,
            cross_numa_bandwidth: 50e9,
            gpu: None,
        }
    }

    /// Perlmutter GPU-partition node (used only by the MetaHipMer2 baseline, Figure 9).
    pub fn perlmutter_gpu() -> Self {
        let mut cfg = Self::perlmutter_cpu();
        cfg.name = "perlmutter-gpu".to_string();
        cfg.cores_per_node = 64; // single EPYC 7763
        cfg.numa_domains = 4;
        cfg.ccx_per_node = 8;
        cfg.mem_per_node_bytes = 256 * (1 << 30);
        cfg.network_bandwidth_per_node = 4.0 * 22e9; // 4 NICs
        cfg.gpu = Some(GpuConfig {
            gpus_per_node: 4,
            kernel_rate: 900e6,
            pcie_bandwidth: 25e9,
            kernel_launch_overhead: 30e-6,
        });
        cfg
    }

    /// A small workstation profile, handy for tests and the quickstart example.
    pub fn workstation(cores: usize, mem_gib: u64) -> Self {
        MachineConfig {
            name: format!("workstation-{cores}c"),
            cores_per_node: cores,
            hw_threads_per_core: 2,
            numa_domains: 1,
            ccx_per_node: (cores / 8).max(1),
            mem_per_node_bytes: mem_gib * (1 << 30),
            mem_bandwidth_per_node: 60e9,
            core_sort_rate: 40e6,
            core_parse_rate: 100e6,
            core_scan_rate: 250e6,
            core_hash_insert_rate: 15e6,
            network_bandwidth_per_node: 10e9,
            network_latency: 5e-6,
            cross_numa_bandwidth: 30e9,
            gpu: None,
        }
    }

    /// Cores per CCX (L3 domain).
    pub fn cores_per_ccx(&self) -> usize {
        (self.cores_per_node / self.ccx_per_node).max(1)
    }
}

/// How the job is laid out on the machine: nodes × processes-per-node × threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// MPI processes (ranks) per node.
    pub processes_per_node: usize,
    /// OpenMP-style threads per process.
    pub threads_per_process: usize,
    /// Threads per worker in the task abstraction layer (paper default: 4).
    pub threads_per_worker: usize,
}

impl ExecutionConfig {
    /// Fill every core of every node: `threads_per_process = cores_per_node / ppn`.
    pub fn fill_node(machine: &MachineConfig, nodes: usize, processes_per_node: usize) -> Self {
        assert!(nodes > 0 && processes_per_node > 0);
        let threads = (machine.cores_per_node / processes_per_node).max(1);
        ExecutionConfig {
            nodes,
            processes_per_node,
            threads_per_process: threads,
            threads_per_worker: 4.min(threads),
        }
    }

    /// Explicit configuration.
    pub fn new(
        nodes: usize,
        ppn: usize,
        threads_per_process: usize,
        threads_per_worker: usize,
    ) -> Self {
        assert!(nodes > 0 && ppn > 0 && threads_per_process > 0 && threads_per_worker > 0);
        ExecutionConfig {
            nodes,
            processes_per_node: ppn,
            threads_per_process,
            threads_per_worker: threads_per_worker.min(threads_per_process),
        }
    }

    /// Total ranks.
    pub fn total_ranks(&self) -> usize {
        self.nodes * self.processes_per_node
    }

    /// Total cores in use.
    pub fn total_cores(&self) -> usize {
        self.total_ranks() * self.threads_per_process
    }

    /// Workers per process in the task abstraction layer.
    pub fn workers_per_process(&self) -> usize {
        (self.threads_per_process / self.threads_per_worker).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perlmutter_cpu_matches_paper_description() {
        let m = MachineConfig::perlmutter_cpu();
        assert_eq!(m.cores_per_node, 128);
        assert_eq!(m.numa_domains, 8);
        assert_eq!(m.ccx_per_node, 16);
        assert_eq!(m.mem_per_node_bytes, 512 * (1 << 30));
        assert_eq!(m.cores_per_ccx(), 8);
    }

    #[test]
    fn gpu_preset_has_gpus_and_more_nics() {
        let g = MachineConfig::perlmutter_gpu();
        let gpu = g.gpu.expect("gpu config");
        assert_eq!(gpu.gpus_per_node, 4);
        assert!(
            g.network_bandwidth_per_node
                > MachineConfig::perlmutter_cpu().network_bandwidth_per_node
        );
    }

    #[test]
    fn fill_node_divides_cores_between_processes() {
        let m = MachineConfig::perlmutter_cpu();
        let e = ExecutionConfig::fill_node(&m, 2, 16);
        assert_eq!(e.threads_per_process, 8);
        assert_eq!(e.total_ranks(), 32);
        assert_eq!(e.total_cores(), 256);
        assert_eq!(e.workers_per_process(), 2);
        let e64 = ExecutionConfig::fill_node(&m, 1, 64);
        assert_eq!(e64.threads_per_process, 2);
        assert_eq!(e64.threads_per_worker, 2);
    }

    #[test]
    fn explicit_config_clamps_worker_threads() {
        let e = ExecutionConfig::new(1, 4, 2, 8);
        assert_eq!(e.threads_per_worker, 2);
    }
}
