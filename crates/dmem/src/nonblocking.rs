//! The non-blocking round engine: an `MPI_Ialltoallv`-style exchange in rounds.
//!
//! The paper's flexible hybrid communication (§3.3.1) splits the k-mer exchange into
//! batched rounds and posts each round with a *non-blocking* all-to-all, so the encode
//! of the next round and the decode of the previous one proceed while a round is in
//! flight. [`RoundExchange`] is that primitive, running over whichever
//! [`Transport`](crate::transport::Transport) backs the cluster:
//!
//! * [`RoundExchange::post_round`] hands one round's flat send segments to the
//!   transport and **returns immediately** — no barrier, no waiting for the
//!   other ranks. A rank may have any number of rounds posted but not yet completed.
//! * [`RoundExchange::wait_round`] blocks (on a condvar or a socket, never a spin)
//!   until every rank's segments of the round are available, then completes it.
//!
//! Completion is **per-round and per-rank**: rank 0 can complete round 0 while rank 1
//! is still serializing round 2. The engine therefore has no synchronisation points at
//! all between `begin` and the last `wait_round` — the only ordering it enforces is
//! the data dependency itself (a round completes once all of its segments exist).
//!
//! Every wait ends on a post, an abort or a peer's exit, and on nothing else (see
//! [`crate::transport`]): when a peer fails (panics, injects a fault, or publishes an
//! error via [`RankCtx::abort`](crate::collectives::RankCtx::abort)) or leaves without
//! posting, waiters return [`DmemError::PeerFailed`] naming it instead of parking
//! forever on a post that will never arrive, and a peer that is merely slow is waited
//! for, however long it takes.
//!
//! Buffers are recycled in both directions: a posted send buffer is handed back to its
//! poster once the transport is done with it ([`RoundExchange::take_send_buffer`]),
//! and receives land in a caller-owned [`FlatReceived`] that is cleared and refilled
//! per round. In steady state a double-buffered caller allocates nothing per round.
//!
//! Traffic accounting: payload bytes per destination sum over rounds to exactly what
//! one round holding all of the same data records (asserted by a unit test below),
//! padding regularises every round to equal-size per-destination messages, and the
//! *max in-flight bytes* statistic records the largest volume a rank ever had
//! posted-but-not-completed at once.

use std::sync::Arc;

use hysortk_trace as trace;

use crate::collectives::FlatReceived;
use crate::error::DmemError;
use crate::fault::FaultPlan;
use crate::transport::Transport;

/// A handle on one in-flight round exchange; created by
/// [`RankCtx::round_exchange`](crate::collectives::RankCtx::round_exchange).
///
/// The caller must post and complete every round exactly once, then call
/// [`RoundExchange::finish`] to record the traffic. Rounds may be posted ahead and
/// completed out of order; the engine never blocks except in
/// [`RoundExchange::wait_round`]. On an error return the exchange is dead — drop the
/// handle without calling `finish` (dropping releases the transport's per-exchange
/// state on every path).
pub struct RoundExchange {
    transport: Arc<dyn Transport>,
    /// The exchange sequence number this handle was opened under; scopes the
    /// transport's per-exchange state and the trace flow-arrow ids so arrows of
    /// successive exchanges never pair.
    seq: u64,
    ranks: usize,
    rounds: usize,
    rank: usize,
    label: String,
    fault: Option<Arc<FaultPlan>>,
    posted: Vec<bool>,
    completed: Vec<bool>,
    /// Own wire bytes (payload + padding) of each posted round, for the in-flight peak.
    round_wire: Vec<u64>,
    per_dest: Vec<u64>,
    padding: u64,
    max_pair: u64,
    inflight: u64,
    max_inflight: u64,
}

impl RoundExchange {
    pub(crate) fn new(
        transport: Arc<dyn Transport>,
        seq: u64,
        rounds: usize,
        rank: usize,
        label: &str,
        fault: Option<Arc<FaultPlan>>,
    ) -> Self {
        let ranks = transport.size();
        RoundExchange {
            transport,
            seq,
            ranks,
            rounds,
            rank,
            label: label.to_string(),
            fault,
            posted: vec![false; rounds],
            completed: vec![false; rounds],
            round_wire: vec![0; rounds],
            per_dest: vec![0; ranks],
            padding: 0,
            max_pair: 0,
            inflight: 0,
            max_inflight: 0,
        }
    }

    /// Number of rounds of this exchange (globally agreed at creation).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Pop a recycled send buffer (cleared, capacity preserved) if a previously posted
    /// round has been fully consumed, or a fresh empty one otherwise. Serializing each
    /// round into a buffer obtained here makes the steady-state send side
    /// allocation-free: two buffers circulate through post → consume → reuse.
    pub fn take_send_buffer(&self) -> Vec<u8> {
        self.transport.round_take_buffer(self.seq)
    }

    /// Post round `round`: segment `dst` of `send` is `send[displs[dst]..displs[dst+1]]`
    /// with `displs` derived from `counts`. Returns immediately; the data moves when the
    /// receivers complete the round. Each `(round, destination)` message is accounted
    /// padded to the round's largest segment, mirroring the regularised batches of the
    /// blocking rounds exchange. Fails fast with [`DmemError::PeerFailed`] once a peer
    /// has aborted, or with the injected error when a fault plan targets this site.
    pub fn post_round(
        &mut self,
        round: usize,
        mut send: Vec<u8>,
        counts: &[usize],
    ) -> Result<(), DmemError> {
        let _span = trace::span!(
            "round-post",
            trace::Detail::Round,
            self.rank,
            round = round,
            bytes = send.len(),
        );
        assert!(round < self.rounds, "round {round} out of range");
        assert!(!self.posted[round], "round {round} posted twice");
        assert_eq!(
            counts.len(),
            self.ranks,
            "one count per destination required"
        );
        if let Some(e) = self.transport.peer_failure(round) {
            return Err(e);
        }
        let mut counts_owned;
        let counts: &[usize] = if let Some(plan) = &self.fault {
            counts_owned = counts.to_vec();
            if let Err(e) =
                plan.apply_to_segments(self.rank, &self.label, round, &mut send, &mut counts_owned)
            {
                self.transport.publish_abort(self.rank, &e.to_string());
                return Err(e);
            }
            &counts_owned
        } else {
            counts
        };
        let mut displs = Vec::with_capacity(counts.len() + 1);
        let mut acc = 0usize;
        displs.push(0);
        for &c in counts {
            acc += c;
            displs.push(acc);
        }
        assert_eq!(acc, send.len(), "counts must sum to the send buffer length");

        // Accounting: per-destination payload, padding up to the round's local maximum
        // segment, the largest single padded pair message, and the in-flight peak.
        let pad_to = counts
            .iter()
            .enumerate()
            .filter(|(d, _)| *d != self.rank)
            .map(|(_, &c)| c as u64)
            .max()
            .unwrap_or(0);
        let mut wire = 0u64;
        for (dst, &c) in counts.iter().enumerate() {
            self.per_dest[dst] += c as u64;
            if dst != self.rank {
                self.padding += pad_to - c as u64;
                wire += pad_to;
            }
        }
        self.max_pair = self.max_pair.max(pad_to);
        self.round_wire[round] = wire;
        self.inflight += wire;
        self.max_inflight = self.max_inflight.max(self.inflight);
        self.posted[round] = true;

        self.transport.round_post(self.seq, round, send, &displs)?;

        // Arrow origin: this post. Every receiver's completion is the target.
        trace::flow(
            "round-flight",
            trace::Detail::Round,
            self.rank as u32,
            self.flow_id(self.rank, round),
            true,
        );
        trace::counter(
            "inflight-bytes",
            trace::Detail::Round,
            self.rank as u32,
            self.inflight,
        );
        Ok(())
    }

    /// Flow-arrow id of `(exchange, poster, round)` — agreed across ranks
    /// because `seq` is assigned in SPMD order.
    fn flow_id(&self, poster: usize, round: usize) -> u64 {
        (self.seq << 32) ^ ((poster as u64) << 20) ^ round as u64
    }

    /// Block until `round` can complete, then complete it into `into` (cleared first).
    ///
    /// The wait has no deadline. Besides the round's last post, two events end it, both
    /// as [`DmemError::PeerFailed`]: a published abort, naming the failing rank, and
    /// the exit of a rank that has not posted the round, naming that rank.
    pub fn wait_round(
        &mut self,
        round: usize,
        into: &mut FlatReceived<u8>,
    ) -> Result<(), DmemError> {
        let _span = trace::span!("round-wait", trace::Detail::Round, self.rank, round = round);
        assert!(round < self.rounds, "round {round} out of range");
        assert!(!self.completed[round], "round {round} completed twice");
        self.transport
            .round_wait(self.seq, round, &mut into.data, &mut into.displs)?;
        // Close the flow arrows and release the round's in-flight volume.
        for src in 0..self.ranks {
            trace::flow(
                "round-flight",
                trace::Detail::Round,
                self.rank as u32,
                self.flow_id(src, round),
                false,
            );
        }
        self.inflight -= self.round_wire[round];
        self.completed[round] = true;
        trace::counter(
            "inflight-bytes",
            trace::Detail::Round,
            self.rank as u32,
            self.inflight,
        );
        Ok(())
    }

    /// Close the exchange and record its traffic into the rank's statistics under this
    /// exchange's label: the summed per-destination payload, the padding, the round
    /// count, the largest padded pair message and the in-flight peak.
    pub fn finish(self, ctx: &mut crate::collectives::RankCtx) {
        assert!(
            self.posted.iter().all(|&p| p) && self.completed.iter().all(|&c| c),
            "round exchange finished with unposted or uncompleted rounds"
        );
        ctx.stats_mut().record_with_inflight(
            &self.label,
            &self.per_dest,
            self.padding,
            self.rounds,
            self.rank,
            self.max_pair,
            self.max_inflight,
        );
    }
}

impl Drop for RoundExchange {
    fn drop(&mut self) {
        // Release the transport's per-exchange state on every path — after a clean
        // `finish` (which consumes `self`) and after an error drop alike. Idempotent.
        self.transport.round_close(self.seq);
    }
}

#[cfg(test)]
mod tests {
    use crate::fault::{FaultKind, FaultPlan};
    use crate::{Cluster, DmemError, FlatReceived};
    use std::sync::Arc;

    /// Deterministic per-(src, dst, round) payload.
    fn segment(src: usize, dst: usize, round: usize) -> Vec<u8> {
        let len = (src * 7 + dst * 3 + round * 5) % 13;
        (0..len)
            .map(|i| (src * 100 + dst * 10 + round + i) as u8)
            .collect()
    }

    fn round_send(p: usize, src: usize, round: usize) -> (Vec<u8>, Vec<usize>) {
        let mut buf = Vec::new();
        let mut counts = Vec::with_capacity(p);
        for dst in 0..p {
            let seg = segment(src, dst, round);
            counts.push(seg.len());
            buf.extend_from_slice(&seg);
        }
        (buf, counts)
    }

    #[test]
    fn rounds_deliver_the_same_bytes_as_one_bulk_exchange() {
        for p in [1usize, 2, 5] {
            let rounds = 4;
            let run = Cluster::new(p).run(|ctx| {
                let mut engine = ctx.round_exchange(rounds, "engine");
                let mut recv = FlatReceived::empty();
                let mut got: Vec<Vec<Vec<u8>>> = Vec::new();
                for r in 0..rounds {
                    let (buf, counts) = round_send(ctx.size(), ctx.rank(), r);
                    engine.post_round(r, buf, &counts).unwrap();
                    engine.wait_round(r, &mut recv).unwrap();
                    got.push(
                        (0..ctx.size())
                            .map(|src| recv.from_rank(src).to_vec())
                            .collect(),
                    );
                }
                engine.finish(ctx);
                got
            });
            for (dst, per_round) in run.results.iter().enumerate() {
                for (r, per_src) in per_round.iter().enumerate() {
                    for (src, bytes) in per_src.iter().enumerate() {
                        assert_eq!(bytes, &segment(src, dst, r), "p={p} r={r} {src}->{dst}");
                    }
                }
            }
        }
    }

    #[test]
    fn posting_ahead_and_out_of_order_completion_work() {
        // Every rank posts all rounds up front, then completes them newest-first.
        let p = 4;
        let rounds = 3;
        let run = Cluster::new(p).run(|ctx| {
            let mut engine = ctx.round_exchange(rounds, "engine");
            for r in 0..rounds {
                let (buf, counts) = round_send(ctx.size(), ctx.rank(), r);
                engine.post_round(r, buf, &counts).unwrap();
            }
            let mut recv = FlatReceived::empty();
            let mut ok = true;
            for r in (0..rounds).rev() {
                engine.wait_round(r, &mut recv).unwrap();
                for src in 0..ctx.size() {
                    ok &= recv.from_rank(src) == segment(src, ctx.rank(), r);
                }
            }
            engine.finish(ctx);
            ok
        });
        assert!(run.results.into_iter().all(|ok| ok));
    }

    #[test]
    fn payload_conserved_against_bulk_and_padding_regularises_rounds() {
        // The summed per-round payload must equal the payload of one round carrying
        // all of the same data — the conservation law the round engine's accounting
        // promises.
        let p = 4;
        let rounds = 3;
        let run = Cluster::new(p).run(|ctx| {
            let mut engine = ctx.round_exchange(rounds, "engine");
            let mut recv = FlatReceived::empty();
            for r in 0..rounds {
                let (buf, counts) = round_send(ctx.size(), ctx.rank(), r);
                engine.post_round(r, buf, &counts).unwrap();
                engine.wait_round(r, &mut recv).unwrap();
            }
            engine.finish(ctx);

            // The same data in one round.
            let mut bulk = Vec::new();
            let mut counts = vec![0usize; ctx.size()];
            for (dst, count) in counts.iter_mut().enumerate() {
                for r in 0..rounds {
                    let seg = segment(ctx.rank(), dst, r);
                    *count += seg.len();
                    bulk.extend_from_slice(&seg);
                }
            }
            let mut once = ctx.round_exchange(1, "bulk");
            once.post_round(0, bulk, &counts).unwrap();
            once.wait_round(0, &mut recv).unwrap();
            once.finish(ctx);

            let engine_stats = ctx.comm_stats().stage("engine").unwrap().clone();
            let bulk_stats = ctx.comm_stats().stage("bulk").unwrap().clone();
            (engine_stats, bulk_stats)
        });
        for (engine, bulk) in run.results {
            assert_eq!(engine.payload_bytes, bulk.payload_bytes, "conservation");
            assert_eq!(engine.rounds, rounds);
            assert!(engine.padding_bytes > 0, "irregular segments must pad");
            assert!(engine.max_inflight_bytes > 0);
        }
    }

    #[test]
    fn inflight_peak_counts_posted_but_uncompleted_rounds() {
        // Posting both rounds before completing either must peak at the sum of both
        // rounds' wire volumes; after completion the exchange records that peak.
        let p = 2;
        let run = Cluster::new(p).run(|ctx| {
            let mut engine = ctx.round_exchange(2, "engine");
            // 8 bytes to the peer per round → wire 8/round, peak 16.
            let (me, peer) = (ctx.rank(), 1 - ctx.rank());
            let mut counts = vec![0usize; 2];
            counts[peer] = 8;
            counts[me] = 0;
            let buf = vec![me as u8; 8];
            let mut send0 = Vec::new();
            let mut send1 = Vec::new();
            for dst in 0..2 {
                if dst == peer {
                    send0.extend_from_slice(&buf);
                    send1.extend_from_slice(&buf);
                }
            }
            engine.post_round(0, send0, &counts).unwrap();
            engine.post_round(1, send1, &counts).unwrap();
            let mut recv = FlatReceived::empty();
            engine.wait_round(0, &mut recv).unwrap();
            engine.wait_round(1, &mut recv).unwrap();
            engine.finish(ctx);
            ctx.comm_stats().stage("engine").unwrap().max_inflight_bytes
        });
        assert_eq!(run.results, vec![16, 16]);
    }

    #[test]
    fn send_buffers_are_recycled_to_their_poster() {
        let p = 3;
        let run = Cluster::new(p).run(|ctx| {
            let mut engine = ctx.round_exchange(2, "engine");
            let mut recv = FlatReceived::empty();
            let (buf, counts) = round_send(p, ctx.rank(), 0);
            let round0_capacity = {
                let mut owned = engine.take_send_buffer();
                owned.extend_from_slice(&buf);
                let cap = owned.capacity();
                engine.post_round(0, owned, &counts).unwrap();
                cap
            };
            engine.wait_round(0, &mut recv).unwrap();
            // Round 0 is complete on this rank, but reclaim needs *every* rank to have
            // read our buffer; poll until it comes back.
            let mut reused = engine.take_send_buffer();
            while reused.capacity() == 0 {
                std::thread::yield_now();
                reused = engine.take_send_buffer();
            }
            let got_back = reused.capacity() >= round0_capacity && reused.is_empty();
            let (buf, counts) = round_send(p, ctx.rank(), 1);
            reused.extend_from_slice(&buf);
            engine.post_round(1, reused, &counts).unwrap();
            engine.wait_round(1, &mut recv).unwrap();
            engine.finish(ctx);
            got_back
        });
        assert!(run.results.into_iter().all(|ok| ok));
    }

    #[test]
    fn successive_exchanges_reuse_fresh_boards() {
        // Two engines back to back: sequence numbers must isolate them.
        let p = 3;
        let run = Cluster::new(p).run(|ctx| {
            let mut total = 0usize;
            for gen in 0..3u8 {
                let mut engine = ctx.round_exchange(1, "loop");
                let send = vec![gen; ctx.size()];
                let counts = vec![1usize; ctx.size()];
                engine.post_round(0, send, &counts).unwrap();
                let mut recv = FlatReceived::empty();
                engine.wait_round(0, &mut recv).unwrap();
                for src in 0..ctx.size() {
                    assert_eq!(recv.from_rank(src), &[gen]);
                }
                engine.finish(ctx);
                total += 1;
            }
            total
        });
        assert_eq!(run.results, vec![3, 3, 3]);
    }

    #[test]
    fn rank_failing_mid_round_unblocks_all_waiters() {
        // The satellite regression: rank 1 dies between round 0 and round 1. Before the
        // abort path existed every peer parked forever in wait_round(1); now each one
        // must return PeerFailed naming rank 1.
        let p = 4;
        let rounds = 2;
        let plan = Arc::new(FaultPlan::new().with_fault(1, "engine", 1, FaultKind::FailRank));
        let run = Cluster::new(p).with_fault_plan(Arc::clone(&plan)).run(
            |ctx| -> Result<(), DmemError> {
                let mut engine = ctx.round_exchange(rounds, "engine");
                let mut recv = FlatReceived::empty();
                for r in 0..rounds {
                    let (buf, counts) = round_send(ctx.size(), ctx.rank(), r);
                    engine.post_round(r, buf, &counts)?;
                    engine.wait_round(r, &mut recv)?;
                }
                engine.finish(ctx);
                Ok(())
            },
        );
        assert_eq!(plan.fired_count(), 1);
        for (rank, res) in run.results.iter().enumerate() {
            let err = res.as_ref().expect_err("every rank must fail");
            if rank == 1 {
                assert!(
                    matches!(
                        err,
                        DmemError::InjectedFault {
                            rank: 1,
                            round: 1,
                            ..
                        }
                    ),
                    "rank 1 got {err}"
                );
            } else {
                assert!(
                    matches!(err, DmemError::PeerFailed { rank: 1, .. }),
                    "rank {rank} got {err}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "posted twice")]
    fn double_post_panics() {
        Cluster::new(1).run(|ctx| {
            let mut engine = ctx.round_exchange(1, "bad");
            engine.post_round(0, Vec::new(), &[0]).unwrap();
            engine.post_round(0, Vec::new(), &[0]).unwrap();
        });
    }

    /// Pins the poisoned-lock fix in the in-process `round_wait`: a rank that dies
    /// while holding the lock the board's waiters block on poisons it, and every
    /// subsequent `Condvar::wait` on it returns a `PoisonError`. The wait must recover
    /// the guard (`unwrap_or_else(|e| e.into_inner())`) and keep waiting — before the
    /// fix it panicked, which cascaded a single rank death into a poisoned panic on
    /// every survivor instead of a typed abort — and the peer's post must still wake
    /// it: the wait has no timeout, so a lost wakeup would park it for good, and the
    /// watchdog fails the test instead. Chaos schedules only hit this path
    /// incidentally; this test constructs it directly. (The process backend has its
    /// own variant of this scenario: a peer killed mid-round, pinned in `process.rs`.)
    #[test]
    fn wait_round_survives_a_poisoned_board_lock() {
        use super::RoundExchange;
        use crate::inprocess::{InProcShared, InProcessTransport};
        use crate::transport::Transport;

        let shared = Arc::new(InProcShared::new(2));
        let t0 = Arc::new(InProcessTransport::new(Arc::clone(&shared), 0));
        let t1 = Arc::new(InProcessTransport::new(Arc::clone(&shared), 1));
        t0.round_open(0, 1);
        t1.round_open(0, 1);
        let mut e0 = RoundExchange::new(t0, 0, 1, 0, "poison", None);
        let mut e1 = RoundExchange::new(t1, 0, 1, 1, "poison", None);

        // Poison the lock — and with it every condvar wait on the board — the way a
        // panicking rank would: by dying while holding it.
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.live.state.lock().unwrap();
            panic!("simulated rank death while holding the board lock");
        })
        .join();
        assert!(
            shared.live.state.is_poisoned(),
            "the lock must actually be poisoned"
        );

        // Rank 0 posts and then waits while the round is still incomplete, so the wait
        // blocks on the poisoned lock before rank 1's post arrives.
        let poster = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            e1.post_round(0, vec![9, 9], &[1, 1]).unwrap();
        });
        let (from0, from1) = crate::tests::within_10s("a wait on a poisoned lock", move || {
            e0.post_round(0, vec![7, 7], &[1, 1]).unwrap();
            let mut recv = FlatReceived::empty();
            e0.wait_round(0, &mut recv).unwrap();
            (recv.from_rank(0).to_vec(), recv.from_rank(1).to_vec())
        });
        poster.join().unwrap();
        assert_eq!(from0, vec![7]);
        assert_eq!(from1, vec![9]);
    }
}
