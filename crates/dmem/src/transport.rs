//! The byte-level point-to-point substrate under the collectives.
//!
//! Everything above this trait — the typed collectives, their traffic accounting,
//! fault injection, and the non-blocking round engine — is transport-agnostic. A
//! [`Transport`] has one data path, the *round board*: an exchange of numbered rounds
//! in which every rank posts one flat byte segment per destination and completes a
//! round once every rank's segment for it is in. It also answers the one cluster-wide
//! control question: has anyone aborted? Two implementations exist:
//!
//! * [`InProcessTransport`](crate::inprocess::InProcessTransport) — every rank is a
//!   thread in one address space, and the round board is shared memory. This is the
//!   original simulator.
//! * [`ProcessTransport`](crate::process::ProcessTransport) — every rank is a
//!   `fork()`ed OS process and segments move as real bytes over UNIX domain
//!   sockets, so overlap wins are *measured* transfer time, not modeled.
//!
//! One `Transport` instance exists per rank; the instance knows its own rank and
//! the cluster size. Exchanges follow MPI's SPMD discipline — every rank opens the
//! same sequence of exchanges — which is what lets the process backend match frames
//! by per-exchange sequence numbers without any negotiation.
//!
//! # Liveness
//!
//! No wait has a timeout, and none needs one: like MPI's waits and ULFM's failure
//! notification, every wait ends on an event. A round wait ends when
//!
//! * every rank has posted the round — the data path;
//! * an abort is published — a rank panicked, hit an injected fault or called
//!   [`RankCtx::abort`](crate::collectives::RankCtx::abort), and its peers hear of it
//!   through the shared `Liveness` (thread backend) or an `ABORT` frame (process
//!   backend); or
//! * a rank whose post is missing has left the run — its closure returned (thread
//!   backend) or its socket said `FIN` or hit EOF (process backend) — so the post will
//!   never come.
//!
//! Each of these is visible to the waiter's check before its notifier takes the
//! `Liveness` lock the waiter checks under and blocks on, so no wakeup is lost. A
//! wait that none of them has ended is waiting for a rank that is still working: a
//! slow rank is never mistaken for a dead one.

use std::sync::{Condvar, Mutex, MutexGuard};

use crate::error::DmemError;

/// Which rank substrate a [`Cluster`](crate::Cluster) runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Ranks are OS threads in one address space (the original simulator).
    #[default]
    Thread,
    /// Ranks are `fork()`ed OS processes exchanging bytes over UNIX domain sockets.
    Process,
}

impl Backend {
    /// Stable lowercase name, as accepted by `hysortk count --backend`.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Thread => "thread",
            Backend::Process => "process",
        }
    }

    /// Parse the CLI spelling.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "thread" => Some(Backend::Thread),
            "process" => Some(Backend::Process),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The detail of the abort recorded when a rank is found gone: it left without
/// posting a round a peer waits on, or it closed its sockets without a goodbye.
pub(crate) fn gone(rank: usize) -> String {
    format!("rank {rank} exited before completing the run")
}

/// What, besides the data itself, ends a wait: the first published abort and the
/// ranks that have left the run, behind the one lock and condvar every wait blocks on
/// (see the module docs). One per cluster generation on the thread backend, one per
/// rank process on the process backend.
pub(crate) struct Liveness {
    /// `pub(crate)` so the poisoned-lock regression test can poison it the way a
    /// dying rank would.
    pub(crate) state: Mutex<LiveState>,
    cv: Condvar,
}

pub(crate) struct LiveState {
    /// The first published abort: the failing rank and its message. First wins, so a
    /// re-published `PeerFailed` never overwrites the root cause.
    abort: Option<(usize, String)>,
    /// Ranks that will post nothing more: on the thread backend their closure
    /// returned, on the process backend their socket said `FIN` or hit EOF.
    pub(crate) left: Vec<bool>,
}

impl LiveState {
    fn failure(&self, round: usize) -> Option<DmemError> {
        self.abort
            .as_ref()
            .map(|(rank, detail)| DmemError::PeerFailed {
                rank: *rank,
                round,
                detail: detail.clone(),
            })
    }
}

impl Liveness {
    pub(crate) fn new(ranks: usize) -> Self {
        Liveness {
            state: Mutex::new(LiveState {
                abort: None,
                left: vec![false; ranks],
            }),
            cv: Condvar::new(),
        }
    }

    /// The state lock. A rank that panicked while holding it left the state whole
    /// (every critical section is a few field writes), so a poisoned lock is taken.
    fn lock(&self) -> MutexGuard<'_, LiveState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wake every waiter: data it may be waiting for has arrived. Taking the lock once
    /// puts this notify after the check of any waiter that missed the data: such a
    /// waiter held the lock from its check until it blocked.
    pub(crate) fn notify(&self) {
        drop(self.lock());
        self.cv.notify_all();
    }

    /// Record that `rank` failed with `detail`, unless an abort is already recorded,
    /// and wake every waiter. Returns whether this call recorded it.
    pub(crate) fn publish(&self, rank: usize, detail: &str) -> bool {
        let mut state = self.lock();
        let first = state.abort.is_none();
        if first {
            state.abort = Some((rank, detail.to_string()));
        }
        drop(state);
        self.cv.notify_all();
        first
    }

    /// Record that `rank` will post nothing more and wake every waiter.
    pub(crate) fn leave(&self, rank: usize) {
        self.lock().left[rank] = true;
        self.cv.notify_all();
    }

    /// The recorded abort as seen by a rank blocked at `round`, if any.
    pub(crate) fn peer_failure(&self, round: usize) -> Option<DmemError> {
        self.lock().failure(round)
    }

    /// Block until `posted(src)` holds for every rank `src`. The wait ends early, with
    /// the recorded abort as `PeerFailed`, once an abort is published or a rank whose
    /// post is missing has left — which records that rank as gone unless an abort is
    /// already recorded. `posted` runs under the state lock; a poster makes its post
    /// visible to `posted` and then calls [`Liveness::notify`].
    pub(crate) fn wait_for_posts(
        &self,
        round: usize,
        mut posted: impl FnMut(usize) -> bool,
    ) -> Result<(), DmemError> {
        let mut state = self.lock();
        loop {
            let mut missing = (0..state.left.len()).filter(|&src| !posted(src)).peekable();
            if missing.peek().is_none() {
                return Ok(());
            }
            if let Some(src) = missing.find(|&src| state.left[src]) {
                state.abort.get_or_insert_with(|| (src, gone(src)));
                self.cv.notify_all();
            }
            if let Some(e) = state.failure(round) {
                return Err(e);
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Block until `rank` has left or an abort is recorded.
    pub(crate) fn await_exit(&self, rank: usize) {
        let mut state = self.lock();
        while state.abort.is_none() && !state.left[rank] {
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Byte-level rank-to-rank substrate. One instance per rank; see the module docs.
///
/// The round-board entry points (`round_*`) operate on an exchange identified by
/// `seq`, the per-rank SPMD sequence number [`RankCtx`](crate::collectives::RankCtx)
/// assigns to every round exchange and every collective call; every rank opens its
/// exchanges in the same order, so equal sequence numbers on different ranks name
/// the same exchange.
pub(crate) trait Transport: Send + Sync {
    /// Number of ranks in the cluster.
    fn size(&self) -> usize;
    /// Which backend this transport implements.
    fn backend(&self) -> Backend;

    /// Open round exchange `seq` with `rounds` rounds. Must be called before any
    /// other `round_*` entry point for that `seq`.
    fn round_open(&self, seq: u64, rounds: usize);

    /// Post one round: segment `dst` of `data` is `data[displs[dst]..displs[dst+1]]`
    /// (`displs.len() == size + 1`). Returns without waiting for receivers.
    fn round_post(
        &self,
        seq: u64,
        round: usize,
        data: Vec<u8>,
        displs: &[usize],
    ) -> Result<(), DmemError>;

    /// Block until every rank's segment of `round` is available, then fill `data` /
    /// `displs` (both cleared first; `displs` gets `size + 1` entries) with the
    /// segments in source-rank order. The wait has no deadline: it ends on the last
    /// post, on a published abort, or on the exit of a rank whose post is missing —
    /// the last two as [`DmemError::PeerFailed`] (see [`Liveness::wait_for_posts`]).
    fn round_wait(
        &self,
        seq: u64,
        round: usize,
        data: &mut Vec<u8>,
        displs: &mut Vec<usize>,
    ) -> Result<(), DmemError>;

    /// Pop a recycled send buffer of exchange `seq` (cleared, capacity preserved),
    /// or an empty one when no posted buffer has been fully consumed yet.
    fn round_take_buffer(&self, seq: u64) -> Vec<u8>;

    /// Release the per-exchange state of `seq`. Idempotent.
    fn round_close(&self, seq: u64);

    /// Publish a cluster-wide abort naming `rank` (fan-out to all peers).
    fn publish_abort(&self, rank: usize, detail: &str);

    /// The published abort as seen by a rank blocked at `round`, if any.
    fn peer_failure(&self, round: usize) -> Option<DmemError>;
}
