//! Workers and task scheduling inside one rank (paper §3.4).
//!
//! Instead of throwing all of a process's threads at one big sort (which scales poorly
//! beyond 16 threads), HySortK splits them into *workers* of a fixed small width
//! (default 4 threads) and gives each worker a queue of tasks. A [`WorkerPool`] is a
//! rank's thread budget, `workers × threads_per_worker`: its calls run rayon adapters
//! with that budget installed, and the adapters scope their threads to the call.
//! [`schedule_lpt`] computes the static longest-processing-time assignment whose
//! makespan the performance model uses, and which [`WorkerPool::execute_balanced`] uses
//! to place a list of unequal jobs — the overlapped exchange's count jobs — onto the
//! pool's threads.

use std::collections::BinaryHeap;
use std::sync::Mutex;

use hysortk_trace as trace;
use rayon::prelude::*;

use crate::TaskId;

/// A pool of workers inside one simulated rank: the rank's thread budget.
#[derive(Debug)]
pub struct WorkerPool {
    pool: rayon::ThreadPool,
    /// Rank attributed to trace events this pool emits: a worker thread serves
    /// whichever rank's call spawned it, so the rank travels with the handle.
    rank: u32,
}

impl WorkerPool {
    /// Create a pool of `workers`, each `threads_per_worker` threads wide (both clamped
    /// to at least one).
    pub fn new(workers: usize, threads_per_worker: usize) -> Self {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers.max(1) * threads_per_worker.max(1))
            .build()
            .expect("failed to build worker thread pool");
        WorkerPool { pool, rank: 0 }
    }

    /// Attribute this pool handle's trace events to `rank` (see the `rank` field).
    pub fn for_rank(mut self, rank: usize) -> Self {
        self.rank = rank as u32;
        self
    }

    /// The rank this handle attributes trace events to (see [`WorkerPool::for_rank`]).
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Total threads the pool may use.
    pub fn total_threads(&self) -> usize {
        self.pool.current_num_threads()
    }

    /// Execute `f` over every task, with the pool's total thread budget. Tasks are
    /// processed independently (the defining property of the task abstraction: k-mers
    /// with equal value never span two tasks, so no cross-task coordination is needed).
    ///
    /// Results are returned in task order. A single task runs on the calling thread with
    /// the pool's whole thread budget for the parallel work nested inside it.
    pub fn execute<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        self.pool.install(|| tasks.into_par_iter().map(f).collect())
    }

    /// Run a list of **unequal jobs** as one call: `sizes[i]` estimates job `i`'s work,
    /// the jobs are placed onto the pool's threads with [`schedule_lpt`], and every
    /// thread runs its jobs in list order. The overlapped pipeline hands the pool the
    /// count jobs of round *r−1* this way while round *r* is in flight. The placement
    /// is static — a thread's whole share is known before it starts — which is what
    /// balances a short list of unequal jobs regardless of how the backing pool splits
    /// work; a pool of one thread runs the list front to back.
    ///
    /// Jobs that need per-worker state check it out of a [`ScratchBank`] themselves
    /// ([`ScratchBank::checkout`]), so a list of jobs of which only some need a
    /// scratch never holds more scratches than such jobs run at once.
    ///
    /// Results are returned in job order.
    pub fn execute_balanced<T, R, F>(&self, jobs: Vec<T>, sizes: &[u64], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        assert_eq!(jobs.len(), sizes.len(), "one size per job required");
        let _span = trace::span!(
            "pool-execute",
            trace::Detail::Task,
            self.rank,
            tasks = jobs.len(),
        );
        let n = jobs.len();
        let mut jobs: Vec<Option<T>> = jobs.into_iter().map(Some).collect();
        let shares: Vec<Vec<(TaskId, T)>> = schedule_lpt(sizes, self.total_threads())
            .tasks_of
            .into_iter()
            .filter(|share| !share.is_empty())
            .map(|mut share| {
                share.sort_unstable();
                share
                    .into_iter()
                    .map(|i| (i, jobs[i].take().expect("LPT places every job once")))
                    .collect()
            })
            .collect();
        let done: Vec<Vec<(TaskId, R)>> = self.pool.install(|| {
            shares
                .into_par_iter()
                .map(|share| share.into_iter().map(|(i, job)| (i, f(job))).collect())
                .collect()
        });
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, result) in done.into_iter().flatten() {
            results[i] = Some(result);
        }
        results
            .into_iter()
            .map(|r| r.expect("every job ran exactly once"))
            .collect()
    }
}

/// A pool of reusable per-worker scratch values that survives *across* pool calls.
///
/// The overlapped pipeline hands the pool one job list per exchange round, and the
/// expensive scratch state (decode buffers, sort ping-pong buffers, histograms) must persist
/// across all of them — as must the parse scratches of the streaming feed, which hands
/// the pool one ingested batch at a time. A `ScratchBank` is that persistence: a job
/// takes a [`Checkout`] and the scratch returns when the checkout drops (a job may hand
/// its checkout back as its result, for the caller to read before it does), so a bank
/// never holds more scratches than were ever in use at once, and
/// [`ScratchBank::into_scratches`] drains them for the final merge.
#[derive(Debug)]
pub struct ScratchBank<S> {
    /// The checked-in scratches, and how many are checked out.
    state: Mutex<(Vec<S>, usize)>,
}

impl<S> Default for ScratchBank<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// A scratch checked out of a [`ScratchBank`]; dereferences to the scratch and returns
/// it to the bank when dropped.
#[derive(Debug)]
pub struct Checkout<'b, S> {
    bank: &'b ScratchBank<S>,
    scratch: Option<S>,
}

impl<S> std::ops::Deref for Checkout<'_, S> {
    type Target = S;
    fn deref(&self) -> &S {
        self.scratch.as_ref().expect("held until drop")
    }
}

impl<S> std::ops::DerefMut for Checkout<'_, S> {
    fn deref_mut(&mut self) -> &mut S {
        self.scratch.as_mut().expect("held until drop")
    }
}

impl<S> Drop for Checkout<'_, S> {
    fn drop(&mut self) {
        // A poisoned bank means a job already panicked; the scratch is dropped and the
        // panic propagates through the pool call.
        if let (Some(scratch), Ok(mut state)) = (self.scratch.take(), self.bank.state.lock()) {
            state.0.push(scratch);
            state.1 -= 1;
        }
    }
}

impl<S> ScratchBank<S> {
    /// An empty bank; scratches are created lazily by the `init` of a checkout.
    pub fn new() -> Self {
        ScratchBank {
            state: Mutex::new((Vec::new(), 0)),
        }
    }

    /// Check a scratch out — a free one, or a fresh `init()` when none is — until the
    /// returned guard drops.
    pub fn checkout(&self, init: impl FnOnce() -> S) -> Checkout<'_, S> {
        let free = {
            let mut state = self.state.lock().expect("scratch bank poisoned");
            state.1 += 1;
            state.0.pop()
        };
        Checkout {
            bank: self,
            scratch: Some(free.unwrap_or_else(init)),
        }
    }

    /// True when every scratch this bank ever handed out is checked back in — the
    /// condition under which [`ScratchBank::for_each`] sees the complete state.
    pub fn all_checked_in(&self) -> bool {
        self.state.lock().expect("scratch bank poisoned").1 == 0
    }

    /// Number of scratches currently checked in.
    pub fn len(&self) -> usize {
        self.state.lock().expect("scratch bank poisoned").0.len()
    }

    /// True when the bank holds no scratches.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain every scratch for the caller's final merge (in no particular order, so the
    /// merge must be commutative).
    pub fn into_scratches(self) -> Vec<S> {
        self.state.into_inner().expect("scratch bank poisoned").0
    }

    /// Visit every checked-in scratch without consuming the bank.
    ///
    /// The overlapped pipeline snapshots worker-local state (histograms, receive
    /// counters) at checkpoint epoch boundaries *between* pool calls, when every
    /// scratch is checked back in ([`ScratchBank::all_checked_in`]); the final merge
    /// still goes through [`ScratchBank::into_scratches`]. Must not be called while a
    /// checkout is outstanding — that scratch is invisible to the visitor.
    pub fn for_each(&self, mut f: impl FnMut(&S)) {
        for scratch in self.state.lock().expect("scratch bank poisoned").0.iter() {
            f(scratch);
        }
    }
}

/// A static schedule of tasks onto workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSchedule {
    /// Tasks assigned to each worker.
    pub tasks_of: Vec<Vec<TaskId>>,
    /// Total size per worker.
    pub load_of: Vec<u64>,
}

impl WorkerSchedule {
    /// The makespan (heaviest worker load), which bounds the stage time.
    pub fn makespan(&self) -> u64 {
        self.load_of.iter().copied().max().unwrap_or(0)
    }

    /// Imbalance: makespan / mean load.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.load_of.iter().sum();
        if total == 0 {
            return 1.0;
        }
        self.makespan() as f64 / (total as f64 / self.load_of.len() as f64)
    }
}

/// Longest-processing-time-first scheduling of tasks onto `workers` workers.
///
/// The lightest worker is tracked in a min-heap, so scheduling `t` tasks is
/// `O(t log w)` instead of the `O(t·w)` linear minimum scan per task. Ties break
/// toward the lowest worker index (the heap key includes it), matching the order the
/// linear scan produced.
pub fn schedule_lpt(task_sizes: &[u64], workers: usize) -> WorkerSchedule {
    let workers = workers.max(1);
    let mut order: Vec<TaskId> = (0..task_sizes.len()).collect();
    order.sort_by_key(|&t| std::cmp::Reverse(task_sizes[t]));
    let mut tasks_of = vec![Vec::new(); workers];
    let mut load_of = vec![0u64; workers];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        (0..workers).map(|w| std::cmp::Reverse((0u64, w))).collect();
    for t in order {
        let std::cmp::Reverse((load, w)) = heap.pop().expect("at least one worker");
        tasks_of[w].push(t);
        load_of[w] = load + task_sizes[t];
        heap.push(std::cmp::Reverse((load_of[w], w)));
    }
    WorkerSchedule { tasks_of, load_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pool_executes_every_task_once_in_order() {
        let pool = WorkerPool::new(2, 2);
        let results = pool.execute((0..100u64).collect(), |x| x * 2);
        assert_eq!(results, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_bank_persists_scratches_across_calls() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let pool = WorkerPool::new(2, 1);
        let bank: ScratchBank<Vec<u64>> = ScratchBank::new();
        let inits = AtomicUsize::new(0);
        let init = || {
            inits.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        };
        for round in 0..6u64 {
            let results = pool.execute((0..40u64).collect(), |x| {
                bank.checkout(init).push(round * 1000 + x);
                x + round
            });
            assert_eq!(results.len(), 40);
            assert!(bank.all_checked_in(), "round {round}");
        }
        // Scratches were reused: the bank never grew beyond the pool parallelism, and
        // the union of everything the scratches saw covers every task of every round.
        let created = inits.load(Ordering::Relaxed);
        assert!(
            created <= pool.total_threads(),
            "created {created} scratches"
        );
        let scratches = bank.into_scratches();
        assert_eq!(scratches.len(), created);
        let mut union: Vec<u64> = scratches.into_iter().flatten().collect();
        union.sort_unstable();
        let mut expected: Vec<u64> = (0..6u64)
            .flat_map(|r| (0..40u64).map(move |x| r * 1000 + x))
            .collect();
        expected.sort_unstable();
        assert_eq!(union, expected);
    }

    #[test]
    fn checkouts_are_lent_until_dropped_and_reuse_free_scratches() {
        let bank: ScratchBank<Vec<u8>> = ScratchBank::new();
        assert!(bank.all_checked_in());
        let mut a = bank.checkout(|| vec![1]);
        let b = bank.checkout(|| vec![2]);
        a.push(10);
        assert!(!bank.all_checked_in());
        assert_eq!(bank.len(), 0, "lent scratches are invisible to the bank");
        drop(a);
        assert!(!bank.all_checked_in(), "b is still out");
        drop(b);
        assert!(bank.all_checked_in());
        assert_eq!(bank.len(), 2);
        // A free scratch is reused, state intact; `init` does not run.
        let again = bank.checkout(|| unreachable!("a free scratch exists"));
        assert_eq!(*again, vec![2]);
        drop(again);
        let mut seen = Vec::new();
        bank.for_each(|s| seen.push(s.clone()));
        seen.sort();
        assert_eq!(seen, vec![vec![1, 10], vec![2]]);
    }

    #[test]
    fn empty_scratch_bank_reports_empty() {
        let bank: ScratchBank<u8> = ScratchBank::default();
        assert!(bank.is_empty());
        assert_eq!(bank.len(), 0);
        assert!(bank.into_scratches().is_empty());
    }

    /// Two kinds of jobs in one list, as the overlapped round loop hands them over.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Serialize(u64),
        Count(u64),
    }

    #[test]
    fn balanced_job_lists_return_results_in_job_order_at_every_width() {
        let mut rng = StdRng::seed_from_u64(11);
        for width in [1usize, 2, 3, 5] {
            let pool = WorkerPool::new(width, 1);
            for jobs in [0usize, 1, 2, 3, 7, 40] {
                let list: Vec<Kind> = (0..jobs as u64)
                    .map(|i| {
                        if i % 3 == 0 {
                            Kind::Count(i)
                        } else {
                            Kind::Serialize(i)
                        }
                    })
                    .collect();
                let sizes: Vec<u64> = (0..jobs).map(|_| rng.gen_range(0..1_000)).collect();
                let results = pool.execute_balanced(list.clone(), &sizes, |job| match job {
                    Kind::Serialize(i) => (i, "serialize"),
                    Kind::Count(i) => (i, "count"),
                });
                let expected: Vec<(u64, &str)> = list
                    .iter()
                    .map(|job| match *job {
                        Kind::Serialize(i) => (i, "serialize"),
                        Kind::Count(i) => (i, "count"),
                    })
                    .collect();
                assert_eq!(results, expected, "width {width}, {jobs} jobs");
            }
        }
    }

    #[test]
    fn a_thread_runs_its_share_of_a_balanced_list_in_list_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // Width 1: the whole list is one share and runs front to back, whatever the
        // sizes say.
        let clock = AtomicUsize::new(0);
        let pool = WorkerPool::new(1, 1);
        let sizes = [5u64, 900, 1, 900, 30, 2];
        let ticks = pool.execute_balanced((0..6usize).collect(), &sizes, |_| {
            clock.fetch_add(1, Ordering::SeqCst)
        });
        assert_eq!(ticks, vec![0, 1, 2, 3, 4, 5]);

        // Width 2: LPT puts the two big jobs on different threads, and each thread
        // still visits its own jobs in ascending list position.
        let pool = WorkerPool::new(2, 1);
        let placed = pool.execute_balanced((0..6usize).collect(), &sizes, |i| {
            (
                std::thread::current().id(),
                clock.fetch_add(1, Ordering::SeqCst),
                i,
            )
        });
        assert_ne!(placed[1].0, placed[3].0, "the two 900s share a thread");
        for a in &placed {
            for b in &placed {
                if a.0 == b.0 && a.2 < b.2 {
                    assert!(a.1 < b.1, "{a:?} ran after {b:?}");
                }
            }
        }
    }

    /// Both parties arrive before either leaves, or the test fails after `patience`.
    struct Rendezvous {
        arrived: Mutex<usize>,
        both: std::sync::Condvar,
    }

    impl Rendezvous {
        fn meet(&self, patience: std::time::Duration) -> bool {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.both.notify_all();
            let (arrived, timeout) = self
                .both
                .wait_timeout_while(arrived, patience, |n| *n < 2)
                .unwrap();
            drop(arrived);
            !timeout.timed_out()
        }
    }

    #[test]
    fn a_serialize_and_a_count_job_of_one_list_run_side_by_side_at_width_two() {
        // No wall-clock threshold: each job blocks until the other has started, which
        // can only happen when the list's two jobs run on two threads at once.
        let meeting = Rendezvous {
            arrived: Mutex::new(0),
            both: std::sync::Condvar::new(),
        };
        let pool = WorkerPool::new(2, 1);
        let met =
            pool.execute_balanced(vec![Kind::Serialize(0), Kind::Count(1)], &[10, 10], |_| {
                (
                    std::thread::current().id(),
                    meeting.meet(std::time::Duration::from_secs(60)),
                )
            });
        assert!(met[0].1 && met[1].1, "the jobs never overlapped");
        assert_ne!(met[0].0, met[1].0);
    }

    #[test]
    fn the_same_list_runs_sequentially_on_one_thread_at_width_one() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let clock = AtomicUsize::new(0);
        let pool = WorkerPool::new(1, 1);
        let ran =
            pool.execute_balanced(vec![Kind::Serialize(0), Kind::Count(1)], &[10, 10], |job| {
                let begin = clock.fetch_add(1, Ordering::SeqCst);
                let end = clock.fetch_add(1, Ordering::SeqCst);
                (job, std::thread::current().id(), begin, end)
            });
        // Serialize first, count second, nothing interleaved, one thread.
        assert_eq!((ran[0].0, ran[0].2, ran[0].3), (Kind::Serialize(0), 0, 1));
        assert_eq!((ran[1].0, ran[1].2, ran[1].3), (Kind::Count(1), 2, 3));
        assert_eq!(ran[0].1, ran[1].1);
    }

    #[test]
    fn pool_dimensions_are_reported() {
        assert_eq!(WorkerPool::new(3, 4).total_threads(), 12);
        // Degenerate values clamp to one.
        assert_eq!(WorkerPool::new(0, 0).total_threads(), 1);
    }

    #[test]
    fn lpt_matches_linear_scan_reference() {
        // The heap-based implementation must reproduce the classic per-task minimum
        // scan exactly (including lowest-index tie-breaking).
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let tasks = rng.gen_range(0..60usize);
            let workers = rng.gen_range(1..10usize);
            let sizes: Vec<u64> = (0..tasks).map(|_| rng.gen_range(0..1_000)).collect();
            let fast = schedule_lpt(&sizes, workers);

            let mut order: Vec<TaskId> = (0..sizes.len()).collect();
            order.sort_by_key(|&t| std::cmp::Reverse(sizes[t]));
            let mut tasks_of = vec![Vec::new(); workers];
            let mut load_of = vec![0u64; workers];
            for t in order {
                let w = (0..workers).min_by_key(|&w| load_of[w]).unwrap();
                tasks_of[w].push(t);
                load_of[w] += sizes[t];
            }
            assert_eq!(fast, WorkerSchedule { tasks_of, load_of });
        }
    }

    #[test]
    fn lpt_schedule_covers_all_tasks_and_balances() {
        let mut rng = StdRng::seed_from_u64(3);
        let sizes: Vec<u64> = (0..96).map(|_| rng.gen_range(1_000..20_000)).collect();
        let schedule = schedule_lpt(&sizes, 8);
        let assigned: usize = schedule.tasks_of.iter().map(|t| t.len()).sum();
        assert_eq!(assigned, sizes.len());
        assert!(
            schedule.imbalance() < 1.15,
            "imbalance {}",
            schedule.imbalance()
        );
    }

    #[test]
    fn more_tasks_per_worker_improve_balance() {
        // The §4.1.1 tpw experiment: more (smaller) tasks per worker yield a better
        // makespan than one big task per worker.
        let mut rng = StdRng::seed_from_u64(4);
        let workers = 8;
        let total: u64 = 8_000_000;
        let mut makespan_for = |tasks: usize| {
            let mut sizes: Vec<u64> = (0..tasks)
                .map(|_| rng.gen_range(total / tasks as u64 / 2..total / tasks as u64 * 2))
                .collect();
            // Normalise to the same total.
            let s: u64 = sizes.iter().sum();
            for x in &mut sizes {
                *x = *x * total / s;
            }
            schedule_lpt(&sizes, workers).makespan()
        };
        let tpw1 = makespan_for(workers);
        let tpw3 = makespan_for(workers * 3);
        assert!(tpw3 <= tpw1, "tpw3={tpw3} tpw1={tpw1}");
    }

    #[test]
    fn makespan_of_empty_schedule_is_zero() {
        let schedule = schedule_lpt(&[], 4);
        assert_eq!(schedule.makespan(), 0);
        assert_eq!(schedule.imbalance(), 1.0);
    }
}
