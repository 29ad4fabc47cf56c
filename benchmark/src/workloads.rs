//! The five frozen workloads: what is generated and how the program is run on it.
//!
//! Ranks × threads is fixed at 2 in total on every workload and never scaled to the
//! host, so numbers from different hosts describe the same run shape.

use std::path::Path;

use hysortk_core::HySortKConfig;
use hysortk_dmem::Backend;

use crate::gen::{Format, InputSpec};

/// Inputs at `--scale 1`, as sized in the issue that defined the benchmark.
pub const INPUTS: [InputSpec; 3] = [
    InputSpec {
        name: "hifi",
        genome_len: 1_000_000,
        satellite: 0.01,
        duplication: 0.05,
        read_len: (10_000, 25_000),
        bases: 48_000_000,
        format: Format::Fasta,
    },
    InputSpec {
        name: "short_fastq",
        genome_len: 4_000_000,
        satellite: 0.10,
        duplication: 0.0,
        read_len: (150, 150),
        bases: 48_000_000,
        format: Format::Fastq,
    },
    InputSpec {
        name: "lowcov",
        genome_len: 16_000_000,
        satellite: 0.0,
        duplication: 0.0,
        read_len: (10_000, 25_000),
        bases: 24_000_000,
        format: Format::Fasta,
    },
];

/// The scale a plain `run` uses. The driver makes 114 runs in 3420 s, each with its
/// own set-up, a warm-up and ten measured seconds; halving every input (one common
/// factor, no workload or sample dropped) gives ~1 s samples, 7–10 of them per run,
/// and keeps the whole schedule under two thirds of the cap.
pub const DEFAULT_SCALE: f64 = 0.5;

/// `--quick`: the issue's inputs ÷ 16.
pub const QUICK_SCALE: f64 = 1.0 / 16.0;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Index into [`INPUTS`].
    pub input: usize,
    pub k: usize,
    pub m: usize,
    pub ranks: usize,
    pub threads_per_rank: usize,
    pub tasks_per_worker: usize,
    pub min_count: u64,
    pub max_count: u64,
    pub backend: Backend,
    pub checkpoint: bool,
}

const HIFI_K31: Workload = Workload {
    name: "hifi_k31",
    input: 0,
    k: 31,
    m: 15,
    ranks: 2,
    threads_per_rank: 1,
    tasks_per_worker: 3,
    min_count: 2,
    max_count: 50,
    backend: Backend::Thread,
    checkpoint: false,
};

pub const WORKLOADS: [Workload; 5] = [
    HIFI_K31,
    Workload {
        name: "short_fastq_k21",
        input: 1,
        k: 21,
        m: 10,
        ranks: 1,
        threads_per_rank: 2,
        tasks_per_worker: 24,
        ..HIFI_K31
    },
    Workload {
        name: "lowcov_k55",
        input: 2,
        k: 55,
        m: 23,
        min_count: 1,
        max_count: 1_000_000,
        ..HIFI_K31
    },
    Workload {
        name: "hifi_k31_proc",
        backend: Backend::Process,
        ..HIFI_K31
    },
    Workload {
        name: "hifi_k31_ckpt",
        checkpoint: true,
        ..HIFI_K31
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn input(&self) -> &'static InputSpec {
        &INPUTS[self.input]
    }

    /// The program configuration of one sample: what `hysortk count` builds
    /// (`HySortKConfig::small`, paper batch size, overlap on), with the run shape the
    /// CLI cannot express — threads per rank and tasks per worker — set explicitly.
    pub fn config(&self, checkpoint_dir: Option<&Path>) -> HySortKConfig {
        let mut cfg = HySortKConfig::small(self.k, self.m, self.ranks);
        cfg.threads_per_process = self.threads_per_rank;
        cfg.threads_per_worker = 1;
        cfg.tasks_per_worker = self.tasks_per_worker;
        cfg.batch_size = 80_000;
        cfg.min_count = self.min_count;
        cfg.max_count = self.max_count;
        cfg.backend = self.backend;
        cfg.checkpoint_dir = checkpoint_dir.map(Path::to_path_buf);
        cfg.checkpoint_every = 1;
        cfg
    }

    /// The plain single-threaded baseline of the same problem (`pipeline.par_eff`).
    pub fn single_threaded(&self) -> Workload {
        Workload {
            ranks: 1,
            threads_per_rank: 1,
            ..*self
        }
    }
}
