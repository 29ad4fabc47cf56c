//! Analytic machine and network performance model.
//!
//! The algorithms in this workspace execute for real (they parse real reads, move real
//! bytes through the simulated cluster, sort real arrays), but the wall-clock numbers of
//! the paper come from 64-node Perlmutter runs that cannot be reproduced on a laptop.
//! This crate converts the *measured work and traffic counters* of a run into
//! **modeled seconds** using a first-order machine model:
//!
//! * [`machine::MachineConfig`] — node description (cores, CCX/NUMA domains, memory,
//!   per-node injection bandwidth, network latency) with presets for the Perlmutter CPU
//!   and GPU partitions used in the paper, plus a [`machine::GpuConfig`] for the
//!   MetaHipMer2 comparison.
//! * [`compute`] — thread-scaling efficiency (near-linear up to 16 threads, degrading
//!   beyond, as the paper observes for PARADIS/RADULS), cross-CCX penalties, and cost
//!   functions for the parse / sort / scan stages.
//! * [`network`] — an α–β model of the round-based padded all-to-all exchange,
//!   including the communication/computation overlap factor of §3.3.1.
//! * [`memory`] — peak-memory accounting used for the HySortK-vs-kmerind memory
//!   comparison (Figures 7 and 8).
//! * [`timing::StageTimes`] — the per-stage breakdown every pipeline in the workspace
//!   reports.
//!
//! The model is deliberately simple — its purpose is to reproduce *shapes* (who wins,
//! where the crossover happens, how efficiency decays), not absolute seconds; `repro
//! list` names the experiments built on it and `tests/data/repro_all.golden.txt` is
//! their committed output.

#![forbid(unsafe_code)]

pub mod compute;
pub mod machine;
pub mod memory;
pub mod network;
pub mod timing;

pub use compute::{ccx_penalty, thread_efficiency, ComputeModel, SortAlgorithm};
pub use machine::{ExecutionConfig, GpuConfig, MachineConfig};
pub use memory::MemoryModel;
pub use network::{project_padded_exchange, NetworkModel};
pub use timing::StageTimes;

/// A complete performance model: machine description plus execution configuration
/// (nodes, processes per node, threads per process).
#[derive(Debug, Clone)]
pub struct PerfModel {
    /// The machine being modelled.
    pub machine: MachineConfig,
    /// The parallel execution configuration.
    pub exec: ExecutionConfig,
}

impl PerfModel {
    /// Create a model from a machine description and an execution configuration.
    pub fn new(machine: MachineConfig, exec: ExecutionConfig) -> Self {
        PerfModel { machine, exec }
    }

    /// Convenience constructor for the Perlmutter CPU partition used in most of the
    /// paper's experiments.
    pub fn perlmutter(nodes: usize, processes_per_node: usize) -> Self {
        let machine = MachineConfig::perlmutter_cpu();
        let exec = ExecutionConfig::fill_node(&machine, nodes, processes_per_node);
        PerfModel::new(machine, exec)
    }

    /// The compute sub-model.
    pub fn compute(&self) -> ComputeModel<'_> {
        ComputeModel::new(&self.machine, &self.exec)
    }

    /// The network sub-model.
    pub fn network(&self) -> NetworkModel<'_> {
        NetworkModel::new(&self.machine, &self.exec)
    }

    /// The memory sub-model.
    pub fn memory(&self) -> MemoryModel<'_> {
        MemoryModel::new(&self.machine, &self.exec)
    }

    /// Total ranks in the execution.
    pub fn total_ranks(&self) -> usize {
        self.exec.nodes * self.exec.processes_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perlmutter_preset_fills_the_node() {
        let m = PerfModel::perlmutter(4, 16);
        assert_eq!(m.total_ranks(), 64);
        assert_eq!(
            m.exec.threads_per_process * m.exec.processes_per_node,
            m.machine.cores_per_node
        );
    }

    #[test]
    fn more_nodes_reduce_modeled_sort_time() {
        let small = PerfModel::perlmutter(1, 16);
        let large = PerfModel::perlmutter(8, 16);
        let elements = 1_000_000_000u64;
        let t_small = small.compute().sort_time(
            elements / small.total_ranks() as u64,
            8,
            SortAlgorithm::Raduls,
        );
        let t_large = large.compute().sort_time(
            elements / large.total_ranks() as u64,
            8,
            SortAlgorithm::Raduls,
        );
        assert!(t_large < t_small);
    }
}
