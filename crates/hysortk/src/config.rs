//! Configuration of a HySortK run.

use hysortk_dmem::Backend;
use hysortk_task::HeavyHitterPolicy;

/// All tunables of the HySortK pipeline.
///
/// The defaults mirror the paper's recommended settings: 16 processes per node,
/// 4 threads per worker, 3 tasks per worker, a batch size of 80 000 records per round,
/// valid counts in `[2, 50]`, heavy-hitter handling on, overlap on.
#[derive(Debug, Clone)]
pub struct HySortKConfig {
    /// k-mer length.
    pub k: usize,
    /// m-mer (minimizer) length. The paper recommends `m = k/2` for small k and
    /// `m = 23` for large k; [`HySortKConfig::recommended_m`] encodes that rule.
    pub m: usize,
    /// Hash seed used for both the minimizer score and the destination mapping.
    pub seed: u32,
    /// Simulated nodes.
    pub nodes: usize,
    /// MPI ranks per node.
    pub processes_per_node: usize,
    /// Threads per rank (defaults to filling a Perlmutter CPU node, 128 cores ÷ 16 ranks;
    /// `hysortk count --threads`). Together with `threads_per_worker` this is the
    /// width of the rank's worker pool — `(threads_per_process / threads_per_worker)`
    /// workers × `threads_per_worker` threads — which parses the rank's reads in
    /// parallel, runs each exchange round's job list (the count jobs of the round being
    /// drained) and lends its budget to the fill of the next round. It also sets the
    /// task count: `ranks × workers × tasks_per_worker`.
    pub threads_per_process: usize,
    /// Threads per worker in the task abstraction layer (paper default 4). Tasks are
    /// placed one per pool *thread*; when a job list is shorter than the pool is wide,
    /// the spare threads go to the sorts nested inside its jobs, in equal shares.
    pub threads_per_worker: usize,
    /// Average tasks per worker (the `tpw` parameter of §4.1.1; paper default 3).
    pub tasks_per_worker: usize,
    /// Records per rank per destination per communication round (paper default
    /// 80 000). Rounds are task-granular: each destination's tasks are packed, in
    /// assignment order, into rounds of at most `batch_size × ranks` *global* records
    /// (× `data_scale`), and a task bigger than that travels as a round of its own —
    /// so a round holds between one task per destination and all of them, and an
    /// exchange has as many rounds as its busiest destination needs. With `overlap`
    /// off the round loop runs on no budget (one round), and `batch_size` only sizes
    /// the *modeled* padded exchange of [`crate::model::project`].
    pub batch_size: usize,
    /// Lowest k-mer frequency kept in the output (2 filters singletons).
    pub min_count: u64,
    /// Highest k-mer frequency kept in the output (the paper uses 50).
    pub max_count: u64,
    /// Record and return extension information (read id, position). Every supermer then
    /// travels with a `(read id, start)` header, which implies the provenance of each of
    /// its k-mers: there is no separate extension exchange and no extension codec on the
    /// wire. When set, the heavy-hitter kmerlist conversion (§3.5) is bypassed regardless of
    /// [`HySortKConfig::heavy_hitter`]: kmerlists carry no provenance, so converting
    /// would silently drop the extension lists of every k-mer in a heavy task.
    pub with_extension: bool,
    /// Use the task abstraction layer (`s ≫ p` tasks, workers, greedy assignment).
    /// Disabling it reverts to one task per rank (§4.1.1 baseline).
    pub use_task_layer: bool,
    /// Heavy-hitter detection and kmerlist transformation policy (§3.5). Ignored when
    /// `with_extension` is set (see [`HySortKConfig::with_extension`]).
    pub heavy_hitter: HeavyHitterPolicy,
    /// Overlap communication with encode/decode computation (§3.3.1).
    ///
    /// Stages 2 and 3 have one schedule — the round loop of `hysortk_core::overlap`,
    /// over the non-blocking round engine — and this flag picks its **round budget**:
    /// `true` packs tasks into rounds of `batch_size` records per rank per destination,
    /// so serialization of round *r+1* and counting of round *r−1* proceed while round
    /// *r* is in flight; `false` is the bulk-synchronous ablation, the same loop on one
    /// unbounded round — serialise and post everything, wait, count, each step a
    /// barrier. Output is byte-identical for both values; the report carries the
    /// overlap fraction the loop *measured* (zero without overlap).
    pub overlap: bool,
    /// Fraction of the full-size dataset that is actually being processed. It shapes
    /// the run as a miniature of the full-size one: the overlapped round budget is
    /// `batch_size × ranks × data_scale` records, so the miniature's round structure is
    /// the full-size structure scaled down (a budget that `batch_size × ranks` cannot
    /// express, since it is often not a multiple of `ranks`). [`crate::model::project`]
    /// divides the measured work and traffic by it, so a run on a 1/10 000-scale
    /// synthetic dataset still projects the full-size experiment.
    pub data_scale: f64,
    /// Directory that receives the per-rank, epoch-numbered checkpoint manifests of
    /// the file-fed pipeline (`hysortk count --checkpoint <dir>`). `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Write a manifest every N committed exchange rounds (the final round always
    /// commits, so the run ends durable regardless). Default 1: every round.
    pub checkpoint_every: usize,
    /// Load the newest globally-consistent epoch from `checkpoint_dir` before
    /// counting (`hysortk count --resume <dir>`): committed rounds are skipped and
    /// the run continues checkpointing into the same directory. Requires
    /// `checkpoint_dir` to be set.
    pub resume: bool,
    /// In-run rank recovery budget: how many times the simulated cluster respawns all
    /// ranks after a *rank failure* (an injected `fail` fault or a peer death) before
    /// degrading to the typed abort. `0` disables recovery. Local data defects — wire
    /// corruption, I/O errors — are never retried.
    pub recovery_attempts: usize,
    /// How ranks are realised: [`Backend::Thread`] simulates them as threads in this
    /// process (fast, zero-copy boards), [`Backend::Process`] forks one OS process
    /// per rank and moves every exchanged byte over UNIX domain sockets (real
    /// transfer cost, real address-space isolation). Output is byte-identical
    /// between the two; `hysortk count --backend` selects it on the CLI.
    pub backend: Backend,
}

impl Default for HySortKConfig {
    fn default() -> Self {
        HySortKConfig {
            k: 31,
            m: 15,
            seed: 0x9747b28c,
            nodes: 1,
            processes_per_node: 16,
            // Perlmutter's 128 cores ÷ 16 ranks.
            threads_per_process: 8,
            threads_per_worker: 4,
            tasks_per_worker: 3,
            batch_size: 80_000,
            min_count: 2,
            max_count: 50,
            with_extension: false,
            use_task_layer: true,
            heavy_hitter: HeavyHitterPolicy::default(),
            overlap: true,
            data_scale: 1.0,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            recovery_attempts: 2,
            backend: Backend::Thread,
        }
    }
}

impl HySortKConfig {
    /// A configuration for quick local experiments: a handful of ranks of 2 threads
    /// each, small batches, no scaling projection. See
    /// [`HySortKConfig::small_with_threads`].
    pub fn small(k: usize, m: usize, ranks: usize) -> Self {
        Self::small_with_threads(k, m, ranks, 2)
    }

    /// [`HySortKConfig::small`] with `threads` threads per rank (what `hysortk count
    /// --threads` builds); zero threads is left for [`HySortKConfig::validate`] to
    /// reject.
    pub fn small_with_threads(k: usize, m: usize, ranks: usize, threads: usize) -> Self {
        HySortKConfig {
            k,
            m,
            nodes: 1,
            processes_per_node: ranks,
            threads_per_process: threads,
            threads_per_worker: 1,
            tasks_per_worker: 3,
            batch_size: 4_096,
            ..Default::default()
        }
    }

    /// The paper's rule of thumb for m (§4.1.4): `k/2` for small k (at least 3, and
    /// never more than k), 23 for large k.
    pub fn recommended_m(k: usize) -> usize {
        if k <= 34 {
            (k / 2).max(3).min(k)
        } else {
            23
        }
    }

    /// Total simulated ranks.
    pub fn total_ranks(&self) -> usize {
        self.nodes * self.processes_per_node
    }

    /// Workers per rank.
    pub fn workers_per_process(&self) -> usize {
        (self.threads_per_process / self.threads_per_worker).max(1)
    }

    /// Number of tasks the k-mer space is partitioned into.
    pub fn num_tasks(&self) -> usize {
        if self.use_task_layer {
            hysortk_task::num_tasks(
                self.total_ranks(),
                self.workers_per_process(),
                self.tasks_per_worker,
            )
        } else {
            self.total_ranks()
        }
    }

    /// Validate the configuration, returning a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 || self.k > 64 {
            return Err(format!("k = {} out of supported range 1..=64", self.k));
        }
        if self.m == 0 || self.m > 32 {
            return Err(format!("m = {} out of supported range 1..=32", self.m));
        }
        if self.m > self.k {
            return Err(format!("m = {} must not exceed k = {}", self.m, self.k));
        }
        if self.nodes == 0 || self.processes_per_node == 0 {
            return Err("nodes and processes_per_node must be positive".to_string());
        }
        if self.threads_per_process == 0 {
            return Err("threads_per_process must be positive".to_string());
        }
        if self.threads_per_worker == 0 {
            return Err("threads_per_worker must be positive".to_string());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".to_string());
        }
        if self.min_count > self.max_count {
            return Err(format!(
                "min_count {} exceeds max_count {}",
                self.min_count, self.max_count
            ));
        }
        if !(self.data_scale > 0.0 && self.data_scale <= 1.0) {
            return Err(format!("data_scale {} must be in (0, 1]", self.data_scale));
        }
        if self.checkpoint_every == 0 {
            return Err("checkpoint_every must be positive".to_string());
        }
        if self.resume && self.checkpoint_dir.is_none() {
            return Err("resume requires a checkpoint directory".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_paperlike() {
        let cfg = HySortKConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.batch_size, 80_000);
        assert_eq!(cfg.min_count, 2);
        assert_eq!(cfg.max_count, 50);
        assert_eq!(cfg.threads_per_worker, 4);
        assert_eq!(cfg.processes_per_node, 16);
        assert_eq!(cfg.threads_per_process * cfg.processes_per_node, 128);
    }

    #[test]
    fn recommended_m_follows_the_paper_rule() {
        assert_eq!(HySortKConfig::recommended_m(1), 1);
        assert_eq!(HySortKConfig::recommended_m(2), 2);
        assert_eq!(HySortKConfig::recommended_m(17), 8);
        assert_eq!(HySortKConfig::recommended_m(31), 15);
        assert_eq!(HySortKConfig::recommended_m(55), 23);
    }

    #[test]
    fn task_count_depends_on_layer_toggle() {
        let mut cfg = HySortKConfig::default();
        cfg.nodes = 2;
        let with_layer = cfg.num_tasks();
        assert_eq!(with_layer, 2 * 16 * 2 * 3); // ranks × workers × tpw
        cfg.use_task_layer = false;
        assert_eq!(cfg.num_tasks(), 32);
    }

    #[test]
    fn overlap_config_contract_rejects_degenerate_combos() {
        // A zero batch is no round budget with overlap and no modeled exchange
        // without it: one message for both values of the flag.
        let mut cfg = HySortKConfig::default();
        assert!(cfg.overlap, "paper default runs overlapped");
        cfg.batch_size = 0;
        for overlap in [true, false] {
            cfg.overlap = overlap;
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("batch_size must be positive"), "{err}");
        }
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut cfg = HySortKConfig::default();
        cfg.k = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = HySortKConfig::default();
        cfg.m = cfg.k + 1;
        assert!(cfg.validate().is_err());
        let mut cfg = HySortKConfig::default();
        cfg.min_count = 100;
        assert!(cfg.validate().is_err());
        let mut cfg = HySortKConfig::default();
        cfg.data_scale = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn robustness_knobs_are_validated() {
        let mut cfg = HySortKConfig::default();
        cfg.checkpoint_every = 0;
        assert!(cfg.validate().unwrap_err().contains("checkpoint_every"));

        let mut cfg = HySortKConfig::default();
        cfg.resume = true;
        assert!(cfg.validate().unwrap_err().contains("resume"));

        let mut cfg = HySortKConfig::default();
        cfg.checkpoint_dir = Some("ckpt".into());
        cfg.resume = true;
        cfg.validate().unwrap();
    }

    #[test]
    fn small_config_is_valid() {
        HySortKConfig::small(21, 9, 4).validate().unwrap();
        HySortKConfig::small(21, 9, 8).validate().unwrap();
        let wide = HySortKConfig::small_with_threads(21, 9, 3, 5);
        wide.validate().unwrap();
        assert_eq!(wide.threads_per_process, 5);
        assert_eq!(wide.num_tasks(), 3 * 5 * 3);
        let err = HySortKConfig::small_with_threads(21, 9, 3, 0)
            .validate()
            .unwrap_err();
        assert!(err.contains("threads_per_process"), "{err}");
    }

    #[test]
    fn zero_threads_per_worker_is_rejected_before_the_worker_count_divides_by_it() {
        let mut cfg = HySortKConfig::small(21, 9, 2);
        cfg.threads_per_worker = 0;
        assert_eq!(
            cfg.validate().unwrap_err(),
            "threads_per_worker must be positive"
        );
    }
}
