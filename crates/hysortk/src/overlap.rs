//! The stage-2+3 schedule: batched rounds over the non-blocking round engine.
//!
//! This module is the execution of the paper's flexible hybrid communication (§3.3)
//! and hybrid parallelism (ranks × threads), and the only place that decides how a
//! rank schedules stages 2 and 3: the exchange is split into **batched rounds** and
//! driven through [`hysortk_dmem::RoundExchange`] in steps. Step `s` of a rank touches
//! three rounds:
//!
//! ```text
//!                 ┌──── one job list on the worker pool ────┐
//!   thread 0      │ count task x of round s−2 │ …           │  then, on the rank's thread:
//!   thread 1      │ count task y of round s−2 │ …           │  fill s · post s · commit s−2 · wait s−1
//!   …             └─────────────────────────────────────────┘
//!   round engine    round s−1 posted, in flight while the list runs and round s is filled
//! ```
//!
//! The step's **job list** holds one count job per task slot of round `s−2`; it is
//! handed to the rank's [`WorkerPool`] as a single [`WorkerPool::execute_balanced`]
//! call, which places the jobs onto the pool's threads by their record counts. Once the
//! list has returned, the rank's own thread **fills** round `s`: it writes the round's
//! tasks straight into the recycled engine buffer in wire order (destination-major),
//! under the pool's thread budget. Stage 1 stages supermers in wire form, so most of a
//! fill is block header + body + seal; a heavy-hitter task (§3.5) is pre-counted there,
//! in one in-cache table on this thread (only a body whose distinct keys outgrow the
//! table is sorted, in parallel under that budget). The first step only fills, the last
//! only drains, and a rank of any width runs the same schedule.
//!
//! Rounds are **task-granular**: [`plan_rounds`] packs whole tasks into rounds from
//! the globally-reduced task sizes, so every rank derives the identical task → round
//! mapping without further communication, and a task's blocks are complete the moment
//! its round is. That is what lets counting start after every completed round instead
//! of after the whole exchange.
//!
//! The driver measures how much serialize/count work proceeded while a round was in
//! flight (*hidden* bytes: every list that runs between the post of round `s−1` and
//! its completion) versus the work at the pipeline's ends that nothing could hide —
//! the first round's serialization and the last round's count (*exposed* bytes). The
//! pipeline feeds that measured overlap fraction into the performance model; being a
//! byte counter rather than a wall-clock sample, it is deterministic — independent of
//! the pool width — and projects to full scale like the other traffic counters.
//!
//! `overlap = false` — serialise everything, exchange, then count, each stage a
//! barrier — is this loop with **one unbounded round**: without a budget
//! [`plan_rounds`] packs every task into round 0, so step 0 serializes and posts
//! everything, step 1 waits and step 2 counts, nothing is in flight while a list runs
//! and every byte is exposed. A task's wire bytes do not depend on the round it
//! travels in ([`SendSerializer`](crate::pipeline)) and the per-task record multisets
//! are order-insensitive under stage 3's sort, so the output is **byte-identical**
//! across round budgets and pool widths — pinned by the property suite in `tests/`.
//!
//! A buffer lives until the last step that can use it: the engine — its recycled send
//! buffers (with one round, the rank's whole send side) and the transport's
//! per-exchange state — is closed as soon as its last round has completed, inside the
//! loop, not after the final drain step that only counts.

use std::sync::Arc;

use hysortk_dmem::{FaultPlan, FlatReceived, RankCtx};
use hysortk_dna::kmer::KmerCode;
use hysortk_task::{ScratchBank, WorkerPool};
use hysortk_trace as trace;

use crate::checkpoint::{CountedState, RoundCheckpointer};
use crate::error::HysortkError;
use crate::pipeline::{timed, SendSerializer, WallBuckets};
use crate::stage3::{
    self, BlockIndexBuilder, CountParams, CountScratch, Stage3Output, TaskCounts, TaskSlot,
};

/// The task → round packing of one exchange, identical on every rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPlan {
    /// For every destination rank, its assigned tasks grouped into rounds (in task-list
    /// order; every task appears exactly once, in exactly one round).
    pub per_dest: Vec<Vec<Vec<usize>>>,
    /// Rounds the plan needs: the maximum over destinations. Because the inputs
    /// (assignment, all-reduced global task sizes, budget) are identical on every
    /// rank, this is already the globally agreed round count — no further collective
    /// is required.
    pub local_rounds: usize,
}

/// Pack each destination's task list into rounds of at most `round_budget` *global*
/// records (the sum of the task's size over all ranks, from the task-size all-reduce),
/// always placing at least one task per round. Deterministic given the assignment and
/// the global sizes, so every rank computes the same plan locally.
pub fn plan_rounds(tasks_of: &[Vec<usize>], global_sizes: &[u64], round_budget: u64) -> RoundPlan {
    let budget = round_budget.max(1);
    let mut per_dest = Vec::with_capacity(tasks_of.len());
    let mut local_rounds = 0usize;
    for tasks in tasks_of {
        let mut rounds: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = Vec::new();
        let mut load = 0u64;
        for &t in tasks {
            let size = global_sizes[t];
            if !current.is_empty() && load + size > budget {
                rounds.push(std::mem::take(&mut current));
                load = 0;
            }
            current.push(t);
            load += size;
        }
        if !current.is_empty() {
            rounds.push(current);
        }
        local_rounds = local_rounds.max(rounds.len());
        per_dest.push(rounds);
    }
    RoundPlan {
        per_dest,
        local_rounds,
    }
}

/// What the round loop hands back to the pipeline.
pub(crate) struct OverlapRun<K: KmerCode> {
    /// The counted tasks of this rank, accumulated round by round.
    pub out: Stage3Output<K>,
    /// Per-task record totals (for the worker-makespan counter).
    pub task_sizes: Vec<u64>,
    /// Globally agreed round count of the exchange.
    pub rounds: usize,
    /// Bytes serialized or counted while a round was in flight (hidden work).
    pub hidden_bytes: u64,
    /// Bytes serialized or counted with nothing in flight: the first round's
    /// serialization and the last round's count (the pipeline's unavoidable fill and
    /// drain).
    pub exposed_bytes: u64,
    /// K-mers the heavy-hitter serialize jobs pre-counted locally.
    pub heavy_local_sorted: u64,
}

/// What one step produced.
struct ListOutput<K: KmerCode> {
    /// The filled round, laid out destination-major (`None` when the step fills none).
    send: Option<Vec<u8>>,
    /// The drained round's sorted runs, in slot and section order.
    counted: Vec<TaskCounts<K>>,
    /// K-mers the fill pre-counted locally for heavy-hitter tasks.
    heavy_local_sorted: u64,
}

/// Everything a rank's steps share: what the count jobs read, the bank they check their
/// scratch out of (so decode/sort buffers and histograms persist across rounds), and the
/// serializer the fills take the staged tasks from.
struct JobLists<'a, K: KmerCode> {
    rank: usize,
    k: usize,
    params: &'a CountParams,
    pool: &'a WorkerPool,
    ser: SendSerializer<'a, K>,
    plan: &'a RoundPlan,
    fault: Option<Arc<FaultPlan>>,
    bank: ScratchBank<CountScratch<K>>,
}

impl<K: KmerCode> JobLists<'_, K> {
    /// Decode, sort and count one task slot of the round drained at `step`, section by
    /// section.
    fn count(
        &self,
        slot: &TaskSlot<'_, K>,
        step: usize,
    ) -> Result<Vec<TaskCounts<K>>, HysortkError> {
        let rank = self.rank;
        let _span = trace::span!(
            "count-task",
            trace::Detail::Task,
            rank,
            task = slot.task,
            round = step - 2,
        );
        let mut scratch = self
            .bank
            .checkout(|| CountScratch::new(self.params.max_count));
        stage3::count_task(slot, self.k, self.params, rank as u32, &mut scratch).map_err(|source| {
            HysortkError::Wire {
                rank,
                round: step - 2,
                source,
            }
        })
    }

    /// Fill round `step` into `out`: its tasks one after the other, destination-major —
    /// the wire order — with the bytes per destination in `counts`. Runs on this thread
    /// under the pool's thread budget (a one-job `execute` runs its job on the caller's
    /// thread with the budget installed), so a heavy-hitter pre-count that outgrows its
    /// table sorts in parallel. Returns the k-mers pre-counted.
    fn fill(
        &mut self,
        step: usize,
        out: &mut Vec<u8>,
        counts: &mut [usize],
    ) -> Result<u64, HysortkError> {
        if let Some(plan) = &self.fault {
            plan.fire_control(self.rank, "serialize", step)?;
        }
        let (rank, plan) = (self.rank, self.plan);
        let job = (&mut self.ser, out, counts);
        let filled = self.pool.execute(vec![job], |(ser, out, counts)| {
            let mut heavy_local_sorted = 0;
            for (dest, rounds) in plan.per_dest.iter().enumerate() {
                for &task in rounds.get(step).into_iter().flatten() {
                    let _span = trace::span!(
                        "overlap-serialize",
                        trace::Detail::Task,
                        rank,
                        task = task,
                        round = step,
                    );
                    let before = out.len();
                    heavy_local_sorted += ser.serialize_task(task, out);
                    counts[dest] += out.len() - before;
                }
            }
            heavy_local_sorted
        });
        Ok(filled.into_iter().sum())
    }

    /// Step `step`: run one count job per slot of `slots` — the index of the drained
    /// round `step − 2`, empty when the step drains none — as one job list on the pool,
    /// then, when `send` brings the buffer, fill round `step` into it ([`Self::fill`]);
    /// `counts` receives the bytes per destination. The list's wall time is booked to
    /// `count` and the fill's to `serialize`. A failed count job or fill surfaces once
    /// the list and the fill have returned.
    fn run(
        &mut self,
        step: usize,
        mut send: Option<Vec<u8>>,
        slots: &[TaskSlot<'_, K>],
        counts: &mut Vec<usize>,
        wall: &mut WallBuckets,
    ) -> Result<ListOutput<K>, HysortkError> {
        let sizes: Vec<u64> = (slots.iter())
            .map(|slot| (slot.records + slot.precounted) as u64)
            .collect();
        let counted = timed(&mut wall.count, || {
            (self.pool).execute_balanced(slots.iter().collect(), &sizes, |slot| {
                self.count(slot, step)
            })
        });
        counts.clear();
        counts.resize(self.plan.per_dest.len(), 0);
        let filled = match &mut send {
            Some(out) => timed(&mut wall.serialize, || self.fill(step, out, counts)),
            None => Ok(0),
        };
        let counted: Vec<Vec<TaskCounts<K>>> = counted.into_iter().collect::<Result<_, _>>()?;
        Ok(ListOutput {
            send,
            counted: counted.into_iter().flatten().collect(),
            heavy_local_sorted: filled?,
        })
    }
}

/// Run stages 2 and 3: plan task-granular rounds of at most `round_budget` global
/// records (the plan — and hence the round count — is identical on every rank by
/// construction; `u64::MAX` plans the one round of a bulk-synchronous run), then pipeline
/// serialize → post → count over the non-blocking round engine, reusing the buffers of
/// the send side (recycled engine buffers) and the one [`FlatReceived`] of the receive
/// side. Every step hands the count jobs of the round it drains to the worker pool as
/// **one job list** and then fills the next round on the rank's own thread (see the
/// module docs); the first step only fills, the last only counts.
///
/// On any failure — a peer abort surfacing through the engine, a received segment
/// failing its wire checks (in the index pass, or a count job finding a slot's header
/// totals at odds with its decode), a fault injected into a fill, or a checkpoint commit
/// failing — the error is published as a cluster-wide abort (so no peer stays blocked)
/// and returned; the unfinished engine is simply dropped. A failing count job surfaces
/// only after the whole list returned, so no sibling job outlives the call.
/// Peer-failure echoes are *not* re-published: the failing rank's own root cause is
/// already on the abort board, and keeping it intact is what lets the recovery layer
/// decide whether the failure class is recoverable.
///
/// The loop starts from `state` — what earlier generations (or runs) counted, restored
/// from a checkpoint, or [`Default`] on a fresh start: it resumes at its round cursor
/// (skipping committed rounds entirely — the round engine is sized to the remaining
/// window) and folds its counters into the output. With a checkpointer attached, it
/// commits an epoch manifest after each boundary round completes counting — after the
/// job list returned, when every [`CountScratch`] is back in the bank.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exchange_and_count<K: KmerCode>(
    ctx: &mut RankCtx,
    ser: SendSerializer<'_, K>,
    tasks_of: &[Vec<usize>],
    global_sizes: &[u64],
    round_budget: u64,
    k: usize,
    params: &CountParams,
    pool: &WorkerPool,
    mut state: CountedState<K>,
    mut ckpt: Option<&mut RoundCheckpointer>,
    wall: &mut WallBuckets,
) -> Result<OverlapRun<K>, HysortkError> {
    let _stage_span = trace::span!("stage23-overlap", trace::Detail::Stage, ctx.rank());
    let p = ctx.size();
    let plan = plan_rounds(tasks_of, global_sizes, round_budget);
    // The plan derives from globally identical inputs (the assignment, the all-reduced
    // task sizes, the configured budget), so every rank already holds the same round
    // count — no sizing collective is needed, and the path stays free of
    // synchronisation points until the first data dependency. Should a future change
    // ever let plans diverge, the round board's shape assertion fails loudly.
    let rounds = plan.local_rounds.max(1);
    let rank = ctx.rank();

    // The resume cursor: the rounds before `start` were committed by an earlier
    // generation (or run) and are not re-exchanged. Restore is deterministic over the
    // shared directory, so every rank derives the same cursor — the resumed round
    // window stays SPMD-uniform.
    if let Some(Err(e)) = ckpt.as_deref_mut().map(|c| c.set_rounds_total(rounds)) {
        ctx.abort(&e.to_string());
        return Err(e);
    }
    let start = state.next_round;

    let mut lists = JobLists {
        rank,
        k,
        params,
        pool,
        ser,
        plan: &plan,
        fault: ctx.fault_plan_arc(),
        bank: ScratchBank::new(),
    };
    let mut hidden_bytes = 0u64;
    let mut exposed_bytes = 0u64;
    let mut heavy_local_sorted = 0u64;
    if start < rounds {
        // The engine spans only the remaining window; engine index 0 is absolute
        // round `start`. It is open until its last round has completed.
        const OPEN: &str = "the engine is open until its last round has completed";
        let mut engine = Some(ctx.round_exchange(rounds - start, "exchange"));

        // The last completed round, while its tasks are counted. One buffer: a step's
        // job list — the only reader — has returned, and its block index is dropped,
        // before the same thread completes the next round into it, so the
        // steady-state loop reuses it (sends recycle through the engine).
        let mut received = FlatReceived::empty();
        let mut counts: Vec<usize> = Vec::with_capacity(p);

        let driven = (|| -> Result<(), HysortkError> {
            // Step `s` fills (serializes and posts) round `s`, drains (counts and
            // commits) round `s − 2`, and then completes round `s − 1` — the round in
            // flight while the step's job list runs. The first step only fills and
            // the last only drains: nothing is in flight then, so their bytes are the
            // exposed ones and every other step's are hidden.
            for step in start..rounds + 2 {
                let fill = step < rounds;
                let in_flight = (step > start && step <= rounds).then(|| step - 1);
                let drain = (step >= start + 2).then(|| step - 2);
                let drained_bytes = drain.map_or(0, |_| received.data.len());
                let _span = trace::span!(
                    "overlap-step",
                    trace::Detail::Round,
                    rank,
                    step = step,
                    bytes = drained_bytes,
                );

                // Index the drained round's segments: header walk and checksums.
                let index = match drain {
                    Some(round) => timed(&mut wall.count, || {
                        let mut builder = BlockIndexBuilder::<K>::new()
                            .requiring_provenance(params.with_extension);
                        for src in 0..p {
                            builder
                                .add_segment(received.from_rank(src), k)
                                .map_err(|source| HysortkError::Wire {
                                    rank,
                                    round,
                                    source,
                                })?;
                        }
                        Ok::<_, HysortkError>(builder.finish())
                    })?,
                    None => BlockIndexBuilder::new().finish(),
                };
                state.task_sizes.extend(index.task_sizes());
                index.accumulate_instances(&mut state.decoded);

                let send = fill.then(|| engine.as_ref().expect(OPEN).take_send_buffer());
                let list = lists.run(step, send, &index.slots, &mut counts, wall)?;
                drop(index);
                state.tasks.extend(list.counted);
                heavy_local_sorted += list.heavy_local_sorted;
                let moved = (list.send.as_ref().map_or(0, Vec::len) + drained_bytes) as u64;
                if in_flight.is_some() {
                    hidden_bytes += moved;
                } else {
                    exposed_bytes += moved;
                }

                if let Some(send) = list.send {
                    let open = engine.as_mut().expect(OPEN);
                    open.post_round(step - start, send, &counts)?;
                }
                // Persist the epoch if the drained round is a commit boundary: the
                // job list has returned, so every scratch is checked back into the
                // bank and the snapshot sees the complete cumulative state.
                if let (Some(round), Some(c)) = (drain, ckpt.as_deref_mut()) {
                    if c.should_commit(round) {
                        timed(&mut wall.checkpoint, || {
                            let _span = trace::span!(
                                "checkpoint-commit",
                                trace::Detail::Round,
                                rank,
                                round = round,
                            );
                            c.commit(round, &mut state, &lists.bank)
                        })?;
                    }
                }
                // Complete the round in flight (blocks only if some rank has not
                // posted it yet).
                if let Some(round) = in_flight {
                    let open = engine.as_mut().expect(OPEN);
                    timed(&mut wall.exchange_wait, || {
                        open.wait_round(round - start, &mut received)
                    })?;
                    // Every round is posted and completed now: record the traffic and
                    // release the send buffers and the transport's exchange state
                    // before the last step, which only counts.
                    if round + 1 == rounds {
                        engine.take().expect(OPEN).finish(ctx);
                    }
                }
            }
            Ok(())
        })();
        if let Err(e) = driven {
            // A peer-failure echo was already published cluster-wide by the failing
            // rank; everything local — a wire rejection, a fault injected into a
            // serialize job, a checkpoint I/O failure, an injected mid-commit crash —
            // has to be published here so no peer stays blocked on later rounds.
            if !e.is_peer_echo() {
                ctx.abort(&e.to_string());
            }
            return Err(e);
        }
    }

    // Per-block checksums cannot see a segment cut at an exact block boundary; the
    // end-of-exchange reconciliation against the allreduced sizes can. It covers
    // restored rounds too (their decoded totals rode along in the manifests), so a
    // fully-restored run that skipped the engine is still reconciled.
    if let Err(source) =
        stage3::verify_decoded_totals(&state.decoded, &tasks_of[rank], global_sizes)
    {
        let e = HysortkError::Wire {
            rank,
            round: rounds - 1,
            source,
        };
        ctx.abort(&e.to_string());
        return Err(e);
    }

    // The scratches only saw the rounds this generation counted; the state's counters
    // hold the rest.
    let CountedState {
        tasks,
        task_sizes,
        histogram,
        received_records,
        precounted_records,
        ..
    } = state;
    let mut out = timed(&mut wall.count, || {
        Stage3Output::assemble(tasks, lists.bank.into_scratches(), params.max_count)
    });
    out.histogram.merge(&histogram);
    out.received_records += received_records;
    out.precounted_records += precounted_records;
    Ok(OverlapRun {
        out,
        task_sizes,
        rounds,
        hidden_bytes,
        exposed_bytes,
        heavy_local_sorted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use hysortk_dmem::{DmemError, FaultKind};
    use hysortk_dna::kmer::Kmer1;
    use hysortk_dna::readset::{Read, ReadSet};
    use hysortk_perfmodel::SortAlgorithm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::config::HySortKConfig;
    use crate::pipeline::{RankCounters, Stage1, Stage1Parser};
    use crate::wire::WireError;

    const K: usize = 17;
    const TASKS: usize = 12;
    const DESTS: usize = 3;

    /// Random reads over a small genome, so multiplicities exceed 1.
    fn reads() -> ReadSet {
        let mut rng = StdRng::seed_from_u64(5);
        let genome: Vec<u8> = (0..1_500).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
        let seqs: Vec<Vec<u8>> = (0..50)
            .map(|_| {
                let start = rng.gen_range(0..genome.len() - 200);
                genome[start..start + 200].to_vec()
            })
            .collect();
        ReadSet::from_ascii_reads(&seqs)
    }

    fn stage1(my_reads: &[Read], cfg: &HySortKConfig) -> Stage1 {
        let pool = WorkerPool::new(1, 1);
        let mut parser = Stage1Parser::new(cfg, TASKS, 1, &pool);
        parser.parse(my_reads, &mut RankCounters::default());
        parser.finish()
    }

    /// Index a sent round as its receiver would: one segment per destination.
    fn index_of<'a>(bytes: &'a [u8], per_dest: &[usize]) -> stage3::BlockIndex<'a, Kmer1> {
        let mut at = 0;
        let segments = per_dest.iter().map(|&n| {
            at += n;
            &bytes[at - n..at]
        });
        stage3::build_block_index(segments, K).expect("the serializer wrote it")
    }

    /// Run `f` on one rank's job lists over `reads()`, planned at one task per
    /// destination per round, on a pool `width` threads wide.
    fn with_job_lists(
        width: usize,
        fault: Option<Arc<FaultPlan>>,
        f: impl FnOnce(&mut JobLists<'_, Kmer1>),
    ) {
        let cfg = HySortKConfig::small(K, 8, 1);
        let reads = reads();
        let my_reads = reads.reads();
        let sizes = stage1(my_reads, &cfg).local_sizes();
        let tasks_of: Vec<Vec<usize>> = (0..DESTS)
            .map(|d| (0..TASKS).filter(|t| t % DESTS == d).collect())
            .collect();
        let plan = plan_rounds(&tasks_of, &sizes, 1);
        assert_eq!(plan.local_rounds, TASKS / DESTS);
        let params = CountParams::for_kmer::<Kmer1>(K, SortAlgorithm::Raduls, 1, 50, false);
        f(&mut JobLists {
            rank: 0,
            k: K,
            params: &params,
            pool: &WorkerPool::new(width, 1),
            ser: SendSerializer::new(stage1(my_reads, &cfg), &[], &cfg),
            plan: &plan,
            fault,
            bank: ScratchBank::new(),
        });
    }

    /// Records the count jobs of `lists` decoded so far; every scratch must be back in
    /// the bank, i.e. no job is left running.
    fn records_counted(lists: &JobLists<'_, Kmer1>) -> u64 {
        assert!(lists.bank.all_checked_in());
        let mut counted = 0;
        lists
            .bank
            .for_each(|scratch| counted += scratch.received_records);
        counted
    }

    /// A fault injected into a serialize job surfaces as the typed error once the
    /// whole list — the sibling serialize and count jobs included — has returned.
    #[test]
    fn a_fault_in_a_serialize_job_surfaces_after_its_siblings_finished() {
        for width in [1usize, 2, 3] {
            let fault =
                Arc::new(FaultPlan::new().with_fault(0, "serialize", 2, FaultKind::FailRank));
            with_job_lists(width, Some(Arc::clone(&fault)), |lists| {
                let mut wall = WallBuckets::default();
                let mut counts = Vec::new();
                let round0 = lists
                    .run(0, Some(Vec::new()), &[], &mut counts, &mut wall)
                    .expect("the fault targets step 2");
                let bytes = round0.send.expect("step 0 fills round 0");
                let index = index_of(&bytes, &counts);
                let mut later_counts = Vec::new();
                lists
                    .run(1, Some(Vec::new()), &[], &mut later_counts, &mut wall)
                    .expect("the fault targets step 2");

                // Step 2 fills round 2 (three tasks, in as many serialize jobs as the
                // pool is wide) and drains round 0: the failing job has siblings of both
                // kinds.
                let err = lists
                    .run(
                        2,
                        Some(Vec::new()),
                        &index.slots,
                        &mut later_counts,
                        &mut wall,
                    )
                    .err()
                    .expect("the injected fault must fail the list");
                assert!(
                    matches!(
                        err,
                        HysortkError::Comm(DmemError::InjectedFault {
                            rank: 0,
                            round: 2,
                            ..
                        })
                    ),
                    "width {width}: {err}"
                );
                assert_eq!(fault.fired_count(), 1);
                // The sibling count jobs did run: their records are in the scratches.
                let expected: u64 = index.slots.iter().map(|s| s.records as u64).sum();
                assert!(expected > 0);
                assert_eq!(records_counted(lists), expected, "width {width}");
            });
        }
    }

    /// A slot whose header totals disagree with its decode fails its count job with the
    /// typed wire error — rank, the drained round, the task and both totals — once the
    /// sibling count jobs have finished; nothing panics inside the pool.
    #[test]
    fn a_count_mismatch_in_a_count_job_surfaces_after_its_siblings_finished() {
        for width in [1usize, 2, 3] {
            with_job_lists(width, None, |lists| {
                let mut wall = WallBuckets::default();
                let mut counts = Vec::new();
                let round0 = lists
                    .run(0, Some(Vec::new()), &[], &mut counts, &mut wall)
                    .expect("no fault planned");
                let bytes = round0.send.expect("step 0 fills round 0");
                let mut index = index_of(&bytes, &counts);
                assert_eq!(index.slots.len(), DESTS);
                let (task, records) = (index.slots[1].task, index.slots[1].records as u64);
                index.slots[1].records += 1;

                let err = lists
                    .run(2, None, &index.slots, &mut counts, &mut wall)
                    .err()
                    .expect("the tampered slot must fail the list");
                match err {
                    HysortkError::Wire {
                        rank: 0,
                        round: 0,
                        source:
                            WireError::CountMismatch {
                                task: t,
                                expected,
                                got,
                            },
                    } => assert_eq!((t, expected, got), (task, records + 1, records)),
                    other => panic!("width {width}: {other}"),
                }
                let honest: u64 = [0, 2].iter().map(|&s| index.slots[s].records as u64).sum();
                assert!(honest > 0 && records > 0);
                assert_eq!(records_counted(lists), honest, "width {width}");
            });
        }
    }

    #[test]
    fn plan_covers_every_task_exactly_once_and_respects_the_budget() {
        let tasks_of = vec![vec![0usize, 1, 2, 3], vec![4, 5], vec![]];
        let sizes = vec![10u64, 90, 40, 40, 500, 1];
        let plan = plan_rounds(&tasks_of, &sizes, 100);

        let mut seen: Vec<usize> = plan.per_dest.iter().flatten().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);

        for rounds in &plan.per_dest {
            for round in rounds {
                let load: u64 = round.iter().map(|&t| sizes[t]).sum();
                // Over budget only when a single task alone exceeds it.
                assert!(load <= 100 || round.len() == 1, "round {round:?}");
            }
        }
        // Dest 0: 10+90=100 fits, then 40+40. Dest 1: 500 alone, then 1.
        assert_eq!(plan.per_dest[0], vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(plan.per_dest[1], vec![vec![4], vec![5]]);
        assert!(plan.per_dest[2].is_empty());
        assert_eq!(plan.local_rounds, 2);
    }

    #[test]
    fn oversized_budget_collapses_to_one_round() {
        let tasks_of = vec![vec![0usize, 1, 2]];
        let sizes = vec![7u64, 8, 9];
        let plan = plan_rounds(&tasks_of, &sizes, u64::MAX);
        assert_eq!(plan.per_dest[0], vec![vec![0, 1, 2]]);
        assert_eq!(plan.local_rounds, 1);
    }

    #[test]
    fn unit_budget_yields_one_task_per_round() {
        let tasks_of = vec![vec![3usize, 1, 4]];
        let sizes = vec![0u64, 5, 0, 5, 5];
        let plan = plan_rounds(&tasks_of, &sizes, 1);
        assert_eq!(plan.per_dest[0], vec![vec![3], vec![1], vec![4]]);
        assert_eq!(plan.local_rounds, 3);
    }

    #[test]
    fn empty_assignment_plans_zero_local_rounds() {
        let plan = plan_rounds(&[vec![], vec![]], &[], 10);
        assert_eq!(plan.local_rounds, 0);
        assert!(plan.per_dest.iter().all(|d| d.is_empty()));
    }
}
