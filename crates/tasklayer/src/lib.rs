//! Task abstraction layer (paper §3.4–3.5).
//!
//! HySortK partitions k-mers into `s` *tasks* where `s` is much larger than the number
//! of ranks; tasks are the unit of scheduling for both the exchange (task → rank
//! assignment) and the local counting (task → worker assignment). The layer provides:
//!
//! * [`assign`] — the greedy threshold-based task → rank assignment that approximates
//!   the NP-complete Partition problem (§3.5), plus the naive modulo assignment used as
//!   a baseline.
//! * [`heavy`] — detection of heavy-hitter tasks from task-size statistics and the
//!   decision threshold (`mean × factor`).
//! * [`worker`] — workers of a fixed thread width (default 4) that process tasks
//!   independently; longest-processing-time scheduling of tasks onto workers and the
//!   resulting makespan, which is what the task layer improves over monolithic sorting.

#![forbid(unsafe_code)]

pub mod assign;
pub mod heavy;
pub mod worker;

pub use assign::{assign_greedy, assign_modulo, max_rank_load, Assignment};
pub use heavy::{detect_heavy_tasks, HeavyHitterPolicy};
pub use worker::{schedule_lpt, Checkout, ScratchBank, WorkerPool, WorkerSchedule};

/// Identifier of a task (a batch of k-mers that always stays together).
pub type TaskId = usize;

/// Choose the number of tasks for a run: `ranks × workers_per_rank × tasks_per_worker`,
/// the sizing rule the paper's `avg_task_per_worker` experiments use (§4.1.1).
pub fn num_tasks(ranks: usize, workers_per_rank: usize, tasks_per_worker: usize) -> usize {
    (ranks * workers_per_rank * tasks_per_worker).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_count_scales_with_all_three_factors() {
        assert_eq!(num_tasks(4, 8, 3), 96);
        assert_eq!(num_tasks(1, 1, 1), 1);
        assert_eq!(num_tasks(0, 8, 3), 1); // degenerate input clamps to one task
    }
}
