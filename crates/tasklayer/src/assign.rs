//! Greedy task → rank assignment (paper §3.5).
//!
//! The root rank gathers every task's size and assigns tasks to ranks so that the
//! largest per-rank sum is minimised — the NP-complete Partition problem. HySortK uses
//! a greedy heuristic: start with a threshold close to the mean load per rank, place
//! tasks (largest first) onto ranks without exceeding the threshold, and if that fails
//! relax the threshold and retry.

use crate::TaskId;

/// A task → rank assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// `rank_of[t]` is the rank that owns task `t`.
    pub rank_of: Vec<usize>,
    /// Tasks owned by each rank.
    pub tasks_of: Vec<Vec<TaskId>>,
    /// Total size assigned to each rank.
    pub load_of: Vec<u64>,
}

impl Assignment {
    /// The heaviest rank load.
    pub fn max_load(&self) -> u64 {
        self.load_of.iter().copied().max().unwrap_or(0)
    }

    /// Imbalance factor: max load divided by the mean load (1.0 is perfect).
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.load_of.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.load_of.len() as f64;
        self.max_load() as f64 / mean
    }
}

/// The naive assignment used by plain distributed hash tables: task `t` goes to rank
/// `t mod ranks`, regardless of size.
pub fn assign_modulo(task_sizes: &[u64], ranks: usize) -> Assignment {
    assert!(ranks > 0);
    let mut tasks_of = vec![Vec::new(); ranks];
    let mut load_of = vec![0u64; ranks];
    let mut rank_of = vec![0usize; task_sizes.len()];
    for (t, &size) in task_sizes.iter().enumerate() {
        let r = t % ranks;
        rank_of[t] = r;
        tasks_of[r].push(t);
        load_of[r] += size;
    }
    Assignment {
        rank_of,
        tasks_of,
        load_of,
    }
}

/// Greedy threshold assignment (§3.5): tasks sorted by decreasing size are placed onto
/// the first rank whose load stays below the threshold; the threshold starts slightly
/// above the mean and is relaxed by 5 % until every task fits.
pub fn assign_greedy(task_sizes: &[u64], ranks: usize) -> Assignment {
    assert!(ranks > 0);
    let total: u64 = task_sizes.iter().sum();
    let mean_per_rank = total as f64 / ranks as f64;

    let mut order: Vec<TaskId> = (0..task_sizes.len()).collect();
    order.sort_by_key(|&t| std::cmp::Reverse(task_sizes[t]));

    // A threshold below the largest task can never succeed; start there or at the mean.
    let largest = task_sizes.iter().copied().max().unwrap_or(0) as f64;
    let mut threshold = mean_per_rank.max(largest).max(1.0) * 1.02;

    loop {
        if let Some(assignment) = try_assign(task_sizes, &order, ranks, threshold) {
            return assignment;
        }
        threshold *= 1.05;
    }
}

fn try_assign(
    task_sizes: &[u64],
    order: &[TaskId],
    ranks: usize,
    threshold: f64,
) -> Option<Assignment> {
    let mut tasks_of = vec![Vec::new(); ranks];
    let mut load_of = vec![0u64; ranks];
    let mut rank_of = vec![usize::MAX; task_sizes.len()];
    for &t in order {
        let size = task_sizes[t];
        // Place on the least-loaded rank that stays under the threshold.
        let candidate = (0..ranks)
            .filter(|&r| load_of[r] as f64 + size as f64 <= threshold)
            .min_by_key(|&r| load_of[r]);
        match candidate {
            Some(r) => {
                rank_of[t] = r;
                tasks_of[r].push(t);
                load_of[r] += size;
            }
            None => return None,
        }
    }
    Some(Assignment {
        rank_of,
        tasks_of,
        load_of,
    })
}

/// Convenience: the heaviest per-rank load a given assignment strategy produces.
pub fn max_rank_load(task_sizes: &[u64], ranks: usize, greedy: bool) -> u64 {
    if greedy {
        assign_greedy(task_sizes, ranks).max_load()
    } else {
        assign_modulo(task_sizes, ranks).max_load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_valid(a: &Assignment, task_sizes: &[u64], ranks: usize) {
        assert_eq!(a.rank_of.len(), task_sizes.len());
        assert_eq!(a.tasks_of.len(), ranks);
        assert_eq!(a.load_of.len(), ranks);
        // Every task assigned exactly once, loads consistent.
        let mut seen = vec![false; task_sizes.len()];
        for (r, tasks) in a.tasks_of.iter().enumerate() {
            let mut load = 0u64;
            for &t in tasks {
                assert!(!seen[t], "task {t} assigned twice");
                seen[t] = true;
                assert_eq!(a.rank_of[t], r);
                load += task_sizes[t];
            }
            assert_eq!(load, a.load_of[r]);
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn greedy_assignment_is_valid_and_balanced() {
        let mut rng = StdRng::seed_from_u64(1);
        let sizes: Vec<u64> = (0..200).map(|_| rng.gen_range(100..10_000)).collect();
        let ranks = 16;
        let a = assign_greedy(&sizes, ranks);
        check_valid(&a, &sizes, ranks);
        assert!(a.imbalance() < 1.1, "imbalance {}", a.imbalance());
    }

    #[test]
    fn greedy_beats_modulo_on_skewed_sizes() {
        // A few huge tasks and many small ones — modulo can stack the big ones.
        let mut sizes = vec![1_000u64; 60];
        sizes[0] = 50_000;
        sizes[4] = 48_000;
        sizes[8] = 52_000; // all ≡ 0 (mod 4)
        let ranks = 4;
        let greedy = assign_greedy(&sizes, ranks);
        let modulo = assign_modulo(&sizes, ranks);
        check_valid(&greedy, &sizes, ranks);
        check_valid(&modulo, &sizes, ranks);
        assert!(greedy.max_load() < modulo.max_load());
    }

    #[test]
    fn single_rank_gets_everything() {
        let sizes = vec![5, 10, 15];
        let a = assign_greedy(&sizes, 1);
        assert_eq!(a.max_load(), 30);
        assert_eq!(a.tasks_of[0].len(), 3);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let a = assign_greedy(&[], 4);
        assert_eq!(a.max_load(), 0);
        assert_eq!(a.imbalance(), 1.0);
    }

    #[test]
    fn huge_single_task_does_not_loop_forever() {
        // One task larger than the mean: the threshold must expand to accommodate it.
        let sizes = vec![1_000_000u64, 1, 1, 1];
        let a = assign_greedy(&sizes, 4);
        check_valid(&a, &sizes, 4);
        assert_eq!(a.max_load(), 1_000_000);
    }

    #[test]
    fn more_ranks_never_increase_the_max_load() {
        let mut rng = StdRng::seed_from_u64(2);
        let sizes: Vec<u64> = (0..128).map(|_| rng.gen_range(1..5_000)).collect();
        let mut prev = u64::MAX;
        for ranks in [1, 2, 4, 8, 16, 32] {
            let load = assign_greedy(&sizes, ranks).max_load();
            assert!(load <= prev);
            prev = load;
        }
    }
}
