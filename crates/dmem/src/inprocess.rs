//! The in-process backend: ranks are OS threads, bytes move through a shared board.
//!
//! This is the original simulator substrate, behind the [`Transport`] trait. Data
//! moves through shared *round boards* — per exchange, `rounds × ranks` slots plus
//! their readers-left counters — so a rank can only observe another rank's bytes by
//! receiving them through an exchange, mirroring real distributed memory.
//! The round engine ([`RoundExchange`](crate::nonblocking::RoundExchange)) and every
//! collective drive the boards through the `round_*` trait entry points.
//!
//! Every wait blocks on the cluster's [`Liveness`], which a post, a published abort
//! and a rank's return all notify: a failing or departed rank unblocks its peers with
//! [`DmemError::PeerFailed`] instead of hanging them, and a slow one is waited for.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::DmemError;
use crate::transport::{Backend, Liveness, Transport};

/// One rank's posted buffer for one round.
struct Posted {
    data: Vec<u8>,
    displs: Vec<usize>,
}

/// One (round, source) cell of the round board.
struct RoundSlot {
    /// `Some` from the post until the last reader takes the buffer back, so a rank
    /// that has not read the round yet sees `Some` exactly when the source posted.
    data: Mutex<Option<Posted>>,
    /// Ranks that still have to read this slot; the last reader recycles the buffer.
    readers_left: AtomicUsize,
}

/// The shared state of one in-flight round exchange: `rounds × ranks` slots.
struct RoundBoard {
    ranks: usize,
    rounds: usize,
    slots: Vec<Vec<RoundSlot>>,
    /// Fully-consumed send buffers, returned to their poster for reuse.
    spent: Vec<Mutex<Vec<Vec<u8>>>>,
}

impl RoundBoard {
    fn new(ranks: usize, rounds: usize) -> Self {
        RoundBoard {
            ranks,
            rounds,
            slots: (0..rounds)
                .map(|_| {
                    (0..ranks)
                        .map(|_| RoundSlot {
                            data: Mutex::new(None),
                            readers_left: AtomicUsize::new(ranks),
                        })
                        .collect()
                })
                .collect(),
            spent: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }
}

/// Process-wide registry of round boards, held by the cluster's shared state. Boards
/// are keyed by the per-rank exchange sequence number: every rank opens its exchanges
/// in the same SPMD order, so the N-th exchange of every rank resolves to the same
/// board without any synchronisation round-trip.
#[derive(Default)]
struct BoardRegistry {
    boards: Mutex<HashMap<u64, (Arc<RoundBoard>, usize)>>,
}

impl BoardRegistry {
    /// Resolve (or create) the board for exchange `seq`. The last of the `ranks`
    /// participants to resolve it removes the registry entry — the `Arc` keeps the
    /// board alive for everyone who already holds it.
    fn checkout(&self, seq: u64, ranks: usize, rounds: usize) -> Arc<RoundBoard> {
        let mut boards = self.boards.lock().unwrap_or_else(|e| e.into_inner());
        let entry = boards
            .entry(seq)
            .or_insert_with(|| (Arc::new(RoundBoard::new(ranks, rounds)), 0));
        let board = Arc::clone(&entry.0);
        assert_eq!(
            (board.ranks, board.rounds),
            (ranks, rounds),
            "round exchange mismatch: ranks disagree on the shape of exchange {seq}"
        );
        entry.1 += 1;
        if entry.1 == ranks {
            boards.remove(&seq);
        }
        board
    }
}

/// State shared by every rank of one in-process cluster generation.
pub(crate) struct InProcShared {
    size: usize,
    /// Round boards of in-flight exchanges.
    round_boards: BoardRegistry,
    /// The cluster's abort record and departed ranks; every wait blocks on it.
    /// `pub(crate)` so the cluster can mark a rank as left when its closure returns.
    pub(crate) live: Liveness,
}

impl InProcShared {
    pub(crate) fn new(size: usize) -> Self {
        InProcShared {
            size,
            round_boards: BoardRegistry::default(),
            live: Liveness::new(size),
        }
    }
}

/// One rank's handle on the in-process substrate.
pub(crate) struct InProcessTransport {
    rank: usize,
    shared: Arc<InProcShared>,
    /// Round boards this rank has opened and not yet closed, by sequence number.
    open: Mutex<HashMap<u64, Arc<RoundBoard>>>,
}

impl InProcessTransport {
    pub(crate) fn new(shared: Arc<InProcShared>, rank: usize) -> Self {
        InProcessTransport {
            rank,
            shared,
            open: Mutex::new(HashMap::new()),
        }
    }

    fn board(&self, seq: u64) -> Arc<RoundBoard> {
        Arc::clone(
            self.open
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(&seq)
                .expect("round exchange used before round_open"),
        )
    }

    /// Copy this rank's segments of `round` out of every poster's buffer. Caller
    /// guarantees every rank has posted the round. The last reader of a slot hands
    /// the spent buffer back to its poster for reuse.
    fn read_round(
        &self,
        board: &RoundBoard,
        round: usize,
        data: &mut Vec<u8>,
        displs: &mut Vec<usize>,
    ) {
        data.clear();
        displs.clear();
        displs.push(0);
        for src in 0..board.ranks {
            let slot = &board.slots[round][src];
            {
                let guard = slot.data.lock().unwrap_or_else(|e| e.into_inner());
                let posted = guard.as_ref().expect("round completed before all posts");
                data.extend_from_slice(
                    &posted.data[posted.displs[self.rank]..posted.displs[self.rank + 1]],
                );
            }
            displs.push(data.len());
            if slot.readers_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last reader: hand the spent buffer back to its poster for reuse.
                let mut guard = slot.data.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(posted) = guard.take() {
                    board.spent[src]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(posted.data);
                }
            }
        }
    }
}

impl Transport for InProcessTransport {
    fn size(&self) -> usize {
        self.shared.size
    }

    fn backend(&self) -> Backend {
        Backend::Thread
    }

    fn round_open(&self, seq: u64, rounds: usize) {
        let board = self
            .shared
            .round_boards
            .checkout(seq, self.shared.size, rounds);
        self.open
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(seq, board);
    }

    fn round_post(
        &self,
        seq: u64,
        round: usize,
        data: Vec<u8>,
        displs: &[usize],
    ) -> Result<(), DmemError> {
        let board = self.board(seq);
        {
            let mut slot = board.slots[round][self.rank]
                .data
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            debug_assert!(slot.is_none(), "round slot already occupied");
            *slot = Some(Posted {
                data,
                displs: displs.to_vec(),
            });
        }
        self.shared.live.notify();
        Ok(())
    }

    fn round_wait(
        &self,
        seq: u64,
        round: usize,
        data: &mut Vec<u8>,
        displs: &mut Vec<usize>,
    ) -> Result<(), DmemError> {
        let board = self.board(seq);
        self.shared.live.wait_for_posts(round, |src| {
            let slot = board.slots[round][src].data.lock();
            slot.unwrap_or_else(|e| e.into_inner()).is_some()
        })?;
        self.read_round(&board, round, data, displs);
        Ok(())
    }

    fn round_take_buffer(&self, seq: u64) -> Vec<u8> {
        let board = self.board(seq);
        let mut spent = board.spent[self.rank]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match spent.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    fn round_close(&self, seq: u64) {
        self.open
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&seq);
    }

    fn publish_abort(&self, rank: usize, detail: &str) {
        self.shared.live.publish(rank, detail);
    }

    fn peer_failure(&self, round: usize) -> Option<DmemError> {
        self.shared.live.peer_failure(round)
    }
}
