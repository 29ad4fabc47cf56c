//! The process backend: ranks are `fork()`ed OS processes, bytes move over
//! UNIX domain sockets.
//!
//! Where the in-process backend simulates distributed memory with threads and a
//! shared board, this backend *is* distributed memory on one host: every rank is
//! a real process with its own address space, every segment of every collective
//! crosses a socket, and the overlap wins the bench reports are measured
//! transfer time, not a model. No external crates — the only FFI is `fork`,
//! `waitpid` and `_exit`.
//!
//! # Topology and framing
//!
//! Before the first fork the parent creates a full mesh of `socketpair`s (one
//! per unordered rank pair) plus one parent↔child *control* pair per rank. Child
//! `r` keeps only its own row of the mesh and its own control socket and closes
//! everything else — that fd hygiene is what makes dead-peer detection work:
//! when a rank dies, its peers' mesh sockets hit EOF because *nobody else*
//! holds the write end open.
//!
//! Peer frames are length-prefixed: `[kind u8][tag u64 LE][len u64 LE][payload]`
//! with kinds `DATA`, `ABORT` (tag = origin rank, payload = detail) and `FIN`
//! (goodbye: tag 0 when its sender saw no abort, else 1 + the origin rank of the
//! abort it saw, with its detail as the payload, and [`FIN_INFERRED`] set when that
//! abort is a departure the sender inferred). A `DATA` tag names one round of
//! one exchange — collectives and round exchanges alike — and the SPMD calling
//! discipline makes the per-rank exchange sequence numbers agree across ranks, so
//! frames match up without any negotiation. A per-peer reader thread drains every
//! frame into a tag-keyed mailbox the moment it arrives — receivers never
//! leave bytes sitting in a kernel socket buffer, which is what rules out
//! buffer-full deadlocks in the all-to-all.
//!
//! # Failure semantics
//!
//! The cluster-wide abort contract is identical to the thread backend, and so is
//! the liveness argument (see [`crate::transport`]): every wait blocks on the rank's
//! [`Liveness`], which the reader threads notify on every frame and on the end of
//! every socket. The first failure fans out as `ABORT` frames; a peer that says
//! `FIN` has left, so a wait that still lacks its post fails naming it; and a rank
//! that dies without a word (killed, `_exit`) surfaces as
//! [`DmemError::PeerFailed`] through EOF-without-`FIN` on its sockets — never a
//! hang, and no clock involved. A rank sees a departure on its own socket, behind the
//! departed rank's last posts, so a goodbye relays one only as whom to blame, never as
//! an abort that could overtake those posts. Rust's startup sets `SIGPIPE` to ignore
//! (inherited across `fork`), so writes to a dead peer fail with `EPIPE` instead of
//! killing the writer, which then blames by evidence: it waits for that peer's reader
//! to end and reports what the peer's stream said (see `send_data`).
//!
//! Child environment (`HYSORTK_NO_SIMD`, `HYSORTK_FAULT`, verbosity) propagates
//! by `fork` inheritance — children are clones of the configured parent, no
//! re-exec, no env marshalling. Fault plans cross the same way; children report
//! their firing state home over the control socket and the parent folds it back
//! with [`FaultPlan::absorb_state`], so recovery generations do not re-fire
//! one-shot faults.
//!
//! # Fork only from a process with no other running thread
//!
//! `fork()` clones the calling thread alone, but every lock in memory as it is: a
//! std-internal lock held by *another* thread at that instant (the backtrace lock of
//! a panicking thread, the thread-info lock inside `thread::spawn`) stays locked in
//! the child forever, the child parks on it in `futex_wait`, and the parent blocks in
//! `read_ctl_to_eof`, which has no deadline. The CLI forks from a single-threaded
//! parent; a libtest binary running tests on parallel threads does not, and was seen
//! to wedge this way. Every test that uses the process backend therefore runs its
//! starts with the [`ran_in_own_process`] guard.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use hysortk_trace as trace;

use crate::collectives::RankCtx;
use crate::error::DmemError;
use crate::fault::FaultPlan;
use crate::stats::CommStats;
use crate::transport::{Backend, Liveness, Transport};
use crate::wire::{self, Wire};

mod ffi {
    extern "C" {
        pub fn fork() -> i32;
        pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        pub fn _exit(status: i32) -> !;
    }
}

const EINTR: i32 = 4;

// Peer-socket frame kinds.
const FRAME_DATA: u8 = 0;
const FRAME_ABORT: u8 = 1;
const FRAME_FIN: u8 = 2;

/// Set in a `FIN` tag when the abort it names is a departure its sender inferred: the
/// receiver blames that rank for the sender's departure and publishes nothing.
const FIN_INFERRED: u64 = 1 << 63;

// Control-socket (child → parent) frame kinds.
const CTL_RESULT: u8 = 0;
const CTL_PANIC: u8 = 1;
const CTL_STATS: u8 = 2;
const CTL_FAULTS: u8 = 3;
const CTL_TRACE: u8 = 4;

/// A payload is read in steps of at least this many bytes (see [`read_payload`]).
const READ_CHUNK: usize = 1 << 20;

/// The 64-bit length field of a frame header. A rank's result frame passes 4 GiB at
/// 180 M retained two-word entries, so the field is as wide as a length can be; one
/// that still does not fit fails the write instead of desynchronising the stream.
fn frame_len(payload: &[u8]) -> std::io::Result<[u8; 8]> {
    let len = u64::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload length does not fit the 64-bit length field",
        )
    })?;
    Ok(len.to_le_bytes())
}

/// Read the `len` payload bytes a frame header announced, appending to `payload`.
/// The length came off a socket, so it sizes nothing by itself: every step makes room
/// for as many bytes again as have arrived (at least [`READ_CHUNK`], never more than
/// are still announced) and then has to receive them. An honest frame ends with its
/// exact capacity after `log2` steps; a forged or truncated one costs at most twice
/// what its sender really wrote, and ends in `UnexpectedEof`.
fn read_payload(stream: &mut impl Read, len: u64, payload: &mut Vec<u8>) -> std::io::Result<()> {
    let mut left = len;
    while left > 0 {
        let step = left.min(payload.len().max(READ_CHUNK) as u64);
        payload.reserve_exact(step as usize);
        if stream.by_ref().take(step).read_to_end(payload)? as u64 != step {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        left -= step;
    }
    Ok(())
}

/// The `DATA` tag of round `round` of exchange `seq`; see the module docs.
fn round_tag(seq: u64, round: usize) -> u64 {
    (seq << 24) | round as u64
}

/// Tag-keyed inbox of received `DATA` payloads, filled by the reader threads.
type TagQueues = HashMap<(usize, u64), VecDeque<Vec<u8>>>;
type Mailbox = Mutex<TagQueues>;

/// Per-peer reader: drains every incoming frame into the mailbox until the peer
/// says goodbye (`FIN`) or its socket dies, then marks the peer as left. EOF
/// without `FIN` *is* the dead-peer detector — it records the departure that
/// unblocks every local wait.
fn reader_loop(src: usize, mut stream: UnixStream, mailbox: Arc<Mailbox>, live: Arc<Liveness>) {
    let mut fin = false;
    loop {
        let mut hdr = [0u8; 17];
        if stream.read_exact(&mut hdr).is_err() {
            break;
        }
        let kind = hdr[0];
        let tag = u64::from_le_bytes(hdr[1..9].try_into().unwrap());
        let len = u64::from_le_bytes(hdr[9..17].try_into().unwrap());
        let mut payload = Vec::new();
        if read_payload(&mut stream, len, &mut payload).is_err() {
            break;
        }
        let detail = || String::from_utf8_lossy(&payload).into_owned();
        match kind {
            FRAME_DATA => {
                let mut queues = mailbox.lock().unwrap_or_else(|e| e.into_inner());
                queues.entry((src, tag)).or_default().push_back(payload);
                drop(queues);
                live.notify();
            }
            FRAME_ABORT => {
                live.publish(tag as usize, &detail());
            }
            FRAME_FIN => {
                let origin = (tag & !FIN_INFERRED) as usize;
                if tag & FIN_INFERRED != 0 {
                    live.blame(src, origin.wrapping_sub(1));
                } else if tag > 0 {
                    live.publish(origin - 1, &detail());
                }
                fin = true;
                break;
            }
            _ => break,
        }
    }
    if !fin {
        live.infer_gone(src);
    }
    live.leave(src);
}

/// Per-round state of one open round exchange on this rank.
struct ProcRound {
    /// This rank's own segment of each round (never crosses a socket).
    self_seg: Vec<Option<Vec<u8>>>,
    /// Recycled send buffers: handed back the moment the socket writes return,
    /// which is even earlier than the in-process backend's all-readers-done.
    spent: Vec<Vec<u8>>,
}

/// One rank's handle on the socket mesh.
pub(crate) struct ProcessTransport {
    rank: usize,
    size: usize,
    /// Write ends, one per peer (`None` at this rank's own index). The reader
    /// side of each socket lives on its reader thread via `try_clone`.
    writers: Vec<Option<Mutex<UnixStream>>>,
    mailbox: Arc<Mailbox>,
    live: Arc<Liveness>,
    rounds: Mutex<HashMap<u64, ProcRound>>,
}

impl ProcessTransport {
    pub(crate) fn new(rank: usize, peers: Vec<Option<UnixStream>>) -> Self {
        let size = peers.len();
        debug_assert!(peers[rank].is_none(), "a rank has no socket to itself");
        let mailbox = Arc::new(Mailbox::default());
        let live = Arc::new(Liveness::new(size));
        for (src, stream) in peers.iter().enumerate() {
            if let Some(s) = stream {
                let reader = s.try_clone().expect("clone peer socket for reading");
                let mb = Arc::clone(&mailbox);
                let lv = Arc::clone(&live);
                std::thread::spawn(move || reader_loop(src, reader, mb, lv));
            }
        }
        ProcessTransport {
            rank,
            size,
            writers: peers.into_iter().map(|s| s.map(Mutex::new)).collect(),
            mailbox,
            live,
            rounds: Mutex::new(HashMap::new()),
        }
    }

    fn send_frame(&self, dst: usize, kind: u8, tag: u64, payload: &[u8]) -> std::io::Result<()> {
        let mut hdr = [0u8; 17];
        hdr[0] = kind;
        hdr[1..9].copy_from_slice(&tag.to_le_bytes());
        hdr[9..17].copy_from_slice(&frame_len(payload)?);
        let writer = self.writers[dst].as_ref().expect("no socket to self");
        let mut stream = writer.lock().unwrap_or_else(|e| e.into_inner());
        stream.write_all(&hdr)?;
        stream.write_all(payload)
    }

    /// Send one `DATA` frame. A write fails only once `dst` has closed its end
    /// (`EPIPE`, thanks to ignored `SIGPIPE`), and then the rest of `dst`'s stream
    /// is the evidence of why: wait for its reader to end, and blame the abort it
    /// named — in an `ABORT` or in its `FIN` — or else the departure of `dst`, or of
    /// the rank its `FIN` blamed. Whichever abort this rank recorded first wins, exactly
    /// like the shared record on the thread backend.
    fn send_data(
        &self,
        dst: usize,
        tag: u64,
        payload: &[u8],
        round: usize,
    ) -> Result<(), DmemError> {
        if self.send_frame(dst, FRAME_DATA, tag, payload).is_err() {
            self.live.await_exit(dst);
            self.live.infer_gone(dst);
            return Err(self.peer_failure(round).expect("an abort is recorded"));
        }
        Ok(())
    }

    /// Goodbye to every peer, so their readers stop and mark this rank as left,
    /// naming the abort this rank saw, if any.
    fn send_fin_all(&self) {
        let (tag, detail) = match self.live.recorded_abort() {
            Some((rank, detail, false)) => (rank as u64 + 1, detail),
            Some((rank, detail, true)) => ((rank as u64 + 1) | FIN_INFERRED, detail),
            None => (0, String::new()),
        };
        for dst in 0..self.size {
            if dst != self.rank {
                let _ = self.send_frame(dst, FRAME_FIN, tag, detail.as_bytes());
            }
        }
    }
}

impl Transport for ProcessTransport {
    fn size(&self) -> usize {
        self.size
    }

    fn backend(&self) -> Backend {
        Backend::Process
    }

    fn round_open(&self, seq: u64, rounds: usize) {
        self.rounds
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
                seq,
                ProcRound {
                    self_seg: (0..rounds).map(|_| None).collect(),
                    spent: Vec::new(),
                },
            );
    }

    fn round_post(
        &self,
        seq: u64,
        round: usize,
        data: Vec<u8>,
        displs: &[usize],
    ) -> Result<(), DmemError> {
        let tag = round_tag(seq, round);
        for dst in 0..self.size {
            if dst != self.rank {
                self.send_data(dst, tag, &data[displs[dst]..displs[dst + 1]], round)?;
            }
        }
        let mut rounds = self.rounds.lock().unwrap_or_else(|e| e.into_inner());
        let pr = rounds
            .get_mut(&seq)
            .expect("round exchange used before round_open");
        pr.self_seg[round] = Some(data[displs[self.rank]..displs[self.rank + 1]].to_vec());
        // The kernel owns copies of every peer segment now; the send buffer is
        // immediately reusable.
        let mut buf = data;
        buf.clear();
        pr.spent.push(buf);
        Ok(())
    }

    fn round_wait(
        &self,
        seq: u64,
        round: usize,
        data: &mut Vec<u8>,
        displs: &mut Vec<usize>,
    ) -> Result<(), DmemError> {
        let tag = round_tag(seq, round);
        let inbox = || self.mailbox.lock().unwrap_or_else(|e| e.into_inner());
        self.live.wait_for_posts(round, |src| {
            src == self.rank || inbox().get(&(src, tag)).is_some_and(|q| !q.is_empty())
        })?;
        let mut own = self
            .rounds
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_mut(&seq)
            .expect("round exchange used before round_open")
            .self_seg[round]
            .take()
            .expect("round completed before this rank posted it");
        let mut queues = inbox();
        let segments: Vec<Vec<u8>> = (0..self.size)
            .map(|src| {
                if src == self.rank {
                    return std::mem::take(&mut own);
                }
                let queue = queues.get_mut(&(src, tag)).expect("every segment is in");
                let segment = queue.pop_front().expect("every segment is in");
                if queue.is_empty() {
                    queues.remove(&(src, tag));
                }
                segment
            })
            .collect();
        drop(queues);
        // Size the round once: growing the buffer segment by segment would copy what it
        // already holds, with the old and the new buffer resident together.
        data.clear();
        data.reserve(segments.iter().map(Vec::len).sum());
        displs.clear();
        displs.push(0);
        for segment in &segments {
            data.extend_from_slice(segment);
            displs.push(data.len());
        }
        Ok(())
    }

    fn round_take_buffer(&self, seq: u64) -> Vec<u8> {
        self.rounds
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_mut(&seq)
            .expect("round exchange used before round_open")
            .spent
            .pop()
            .unwrap_or_default()
    }

    fn round_close(&self, seq: u64) {
        self.rounds
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&seq);
    }

    fn publish_abort(&self, rank: usize, detail: &str) {
        if !self.live.publish(rank, detail) {
            // Not the first abort this rank saw: the peers hear of that one from its
            // origin or from this rank's `FIN`.
            return;
        }
        for dst in 0..self.size {
            if dst != self.rank {
                // Best effort: a dead peer can't be told, everyone else must be.
                let _ = self.send_frame(dst, FRAME_ABORT, rank as u64, detail.as_bytes());
            }
        }
    }

    fn peer_failure(&self, round: usize) -> Option<DmemError> {
        self.live.peer_failure(round)
    }
}

/// What one forked generation produced, as seen from the parent.
pub(crate) struct ProcessOutcome<T, E> {
    pub(crate) results: Vec<Result<T, E>>,
    pub(crate) comm: Vec<CommStats>,
    /// First child panic `(rank, raw panic text)`, to re-raise in the parent.
    pub(crate) panic: Option<(usize, String)>,
}

fn send_ctl(stream: &mut UnixStream, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    let mut hdr = [0u8; 9];
    hdr[0] = kind;
    hdr[1..9].copy_from_slice(&frame_len(payload)?);
    stream.write_all(&hdr)?;
    stream.write_all(payload)
}

/// Everything a child reported over its control socket before exiting.
#[derive(Debug, Default, PartialEq)]
struct ChildReport {
    result: Option<Vec<u8>>,
    panic: Option<String>,
    stats: Option<Vec<u8>>,
    faults: Option<Vec<u8>>,
    trace: Option<Vec<u8>>,
}

fn read_ctl_to_eof(mut ctl: UnixStream) -> ChildReport {
    let mut report = ChildReport::default();
    loop {
        let mut hdr = [0u8; 9];
        if ctl.read_exact(&mut hdr).is_err() {
            break;
        }
        let len = u64::from_le_bytes(hdr[1..9].try_into().unwrap());
        let mut payload = Vec::new();
        if read_payload(&mut ctl, len, &mut payload).is_err() {
            break;
        }
        match hdr[0] {
            CTL_RESULT => report.result = Some(payload),
            CTL_PANIC => report.panic = Some(String::from_utf8_lossy(&payload).into_owned()),
            CTL_STATS => report.stats = Some(payload),
            CTL_FAULTS => report.faults = Some(payload),
            CTL_TRACE => report.trace = Some(payload),
            _ => break,
        }
    }
    report
}

/// Block until `pid` is reaped (retrying `EINTR`), so no generation ever
/// leaves a zombie behind.
#[allow(unsafe_code)]
fn reap(pid: i32) {
    let mut status = 0i32;
    loop {
        // SAFETY: `status` is a live local, the only memory `waitpid` writes. `pid` is
        // a child `run_process_generation` forked and reaps only here, once, so the
        // call takes that child's exit and no other.
        let r = unsafe { ffi::waitpid(pid, &mut status, 0) };
        if r == pid {
            return;
        }
        if r == -1 {
            let errno = std::io::Error::last_os_error().raw_os_error().unwrap_or(0);
            if errno == EINTR {
                continue;
            }
            return; // ECHILD: already reaped elsewhere
        }
    }
}

/// The rank process body: run `f` as `rank` and report home over `control`. Returns
/// the child's exit code, 0 after a result and 101 after a panic of `f`; everything
/// the parent needs back travels over the control socket.
fn child_main<T, E, F>(
    rank: usize,
    peers: Vec<Option<UnixStream>>,
    mut control: UnixStream,
    fault: Option<Arc<FaultPlan>>,
    generation: usize,
    f: &F,
) -> i32
where
    T: Wire + Send,
    E: Wire + Send + From<DmemError>,
    F: Fn(&mut RankCtx) -> Result<T, E> + Sync,
{
    // Discard trace events inherited from the parent's buffers (fork copies
    // them), so this child ships only its own. Skipped when tracing is off:
    // collect() takes registry locks that some unrelated parent thread may
    // have held at fork time (multi-threaded test binaries).
    let tracing = trace::enabled(trace::Detail::Stage);
    if tracing {
        let _ = trace::collect();
    }
    let transport = Arc::new(ProcessTransport::new(rank, peers));
    let as_dyn: Arc<dyn Transport> = Arc::clone(&transport) as Arc<dyn Transport>;
    let mut ctx = RankCtx::new(rank, as_dyn, fault.clone(), generation);
    if generation > 0 {
        trace::instant(
            "recovery-generation",
            trace::Detail::Stage,
            rank as u32,
            &[("generation", generation as u64)],
        );
    }
    match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
        Ok(result) => {
            transport.send_fin_all();
            let stats = ctx.into_stats();
            let _ = send_ctl(&mut control, CTL_RESULT, &wire::to_bytes(&result));
            let _ = send_ctl(&mut control, CTL_STATS, &wire::to_bytes(&stats));
            if let Some(plan) = &fault {
                let _ = send_ctl(
                    &mut control,
                    CTL_FAULTS,
                    &wire::to_bytes(&plan.snapshot_state()),
                );
            }
            if tracing {
                let _ = send_ctl(&mut control, CTL_TRACE, &wire::to_bytes(&trace::collect()));
            }
            0
        }
        Err(payload) => {
            // Peers first (they may be blocked), then the parent. The abort
            // detail is the "panicked: ..." form peers expect; the control
            // frame carries the raw text so the parent's re-raise reproduces
            // the original panic message.
            let detail = crate::panic_detail(&*payload);
            transport.publish_abort(rank, &detail);
            let raw = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panicked".to_string());
            let _ = send_ctl(&mut control, CTL_PANIC, raw.as_bytes());
            if let Some(plan) = &fault {
                let _ = send_ctl(
                    &mut control,
                    CTL_FAULTS,
                    &wire::to_bytes(&plan.snapshot_state()),
                );
            }
            101
        }
    }
}

/// Fork one generation of rank processes, run `f` in each, and gather results,
/// stats, fault state and traces back in the parent. Every child is reaped
/// before this returns. A child that died without reporting a result is
/// synthesized as `Err(PeerFailed)` so recovery policies can treat a killed
/// process exactly like an in-run rank failure.
#[allow(unsafe_code)]
pub(crate) fn run_process_generation<T, E, F>(
    ranks: usize,
    fault: Option<Arc<FaultPlan>>,
    generation: usize,
    f: &F,
) -> ProcessOutcome<T, E>
where
    T: Wire + Send,
    E: Wire + Send + From<DmemError>,
    F: Fn(&mut RankCtx) -> Result<T, E> + Sync,
{
    trace::pin_epoch();

    // All sockets exist before the first fork; each child then closes what
    // isn't its own (see the module docs on fd hygiene).
    let mut conns: Vec<Vec<Option<UnixStream>>> = (0..ranks)
        .map(|_| (0..ranks).map(|_| None).collect())
        .collect();
    #[allow(clippy::needless_range_loop)] // two rows of `conns` are written per pair
    for i in 0..ranks {
        for j in (i + 1)..ranks {
            let (a, b) = UnixStream::pair().expect("rank mesh socketpair");
            conns[i][j] = Some(a);
            conns[j][i] = Some(b);
        }
    }
    let mut parent_ctl: Vec<Option<UnixStream>> = Vec::with_capacity(ranks);
    let mut child_ctl: Vec<Option<UnixStream>> = Vec::with_capacity(ranks);
    for _ in 0..ranks {
        let (p, c) = UnixStream::pair().expect("control socketpair");
        parent_ctl.push(Some(p));
        child_ctl.push(Some(c));
    }

    let mut pids = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        // SAFETY: `fork` takes no argument; the assert catches a failure. The child
        // (pid 0) is a copy of this process with only the calling thread: it takes its
        // own sockets (present: only this child takes them), drops the rest, runs the
        // rank under `catch_unwind` and `_exit`s, so it never unwinds or returns into
        // the parent's frames. The rank allocates, spawns threads and takes locks,
        // which POSIX allows in a forked child only if no other thread ran at the fork:
        // the caller's duty (module docs), not checked here.
        let pid = unsafe { ffi::fork() };
        assert!(pid >= 0, "fork failed: {}", std::io::Error::last_os_error());
        if pid == 0 {
            let peers = std::mem::take(&mut conns[rank]);
            let control = child_ctl[rank].take().expect("child control socket");
            drop(conns);
            drop(child_ctl);
            drop(parent_ctl);
            let code = catch_unwind(AssertUnwindSafe(|| {
                child_main(rank, peers, control, fault.clone(), generation, f)
            }))
            .unwrap_or(101);
            // SAFETY: `_exit` takes no pointer and does not return. It ends the child
            // without unwinding, atexit handlers or a stdio flush, so no destructor or
            // test-harness state of the parent's image runs in it; whatever the rank
            // reported went through the unbuffered control socket.
            unsafe { ffi::_exit(code) }
        }
        pids.push(pid);
    }
    drop(conns);
    drop(child_ctl);

    // One reader per control socket; a child that dies mid-report just EOFs.
    let reports: Vec<ChildReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = parent_ctl
            .into_iter()
            .map(|ctl| {
                let ctl = ctl.expect("parent control socket");
                scope.spawn(move || read_ctl_to_eof(ctl))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("control reader panicked"))
            .collect()
    });

    for &pid in &pids {
        reap(pid);
    }

    let mut results = Vec::with_capacity(ranks);
    let mut comm = Vec::with_capacity(ranks);
    let mut panic = None;
    for (rank, report) in reports.into_iter().enumerate() {
        if panic.is_none() {
            if let Some(text) = report.panic {
                panic = Some((rank, text));
            }
        }
        let decoded = report
            .result
            .as_deref()
            .and_then(wire::from_bytes::<Result<T, E>>);
        results.push(decoded.unwrap_or_else(|| {
            Err(E::from(DmemError::PeerFailed {
                rank,
                round: 0,
                detail: format!("rank {rank} exited without reporting a result"),
            }))
        }));
        comm.push(
            report
                .stats
                .as_deref()
                .and_then(wire::from_bytes::<CommStats>)
                .unwrap_or_else(|| CommStats::new(ranks)),
        );
        if let (Some(plan), Some(bytes)) = (&fault, report.faults.as_deref()) {
            if let Some(state) = wire::from_bytes::<Vec<bool>>(bytes) {
                plan.absorb_state(&state);
            }
        }
        if let Some(bytes) = report.trace {
            if let Some(child_trace) = wire::from_bytes::<trace::Trace>(&bytes) {
                trace::note_rank_pid(rank as u32, pids[rank] as u32);
                trace::absorb(child_trace);
            }
        }
    }
    ProcessOutcome {
        results,
        comm,
        panic,
    }
}

/// Guard for a libtest test that forks (see the module docs): `if
/// ran_in_own_process("path::of::this_test") { return; }` as its first statement.
/// Re-executes the current test binary for exactly that test on one test thread, with
/// a marker variable set, asserts that it passed there, and returns `true`; under the
/// marker it returns `false` and the test body runs, in a process with no sibling test.
pub fn ran_in_own_process(test: &str) -> bool {
    const MARKER: &str = "HYSORTK_FORKING_TEST";
    if std::env::var_os(MARKER).is_some() {
        return false;
    }
    let exe = std::env::current_exe().expect("path of the running test binary");
    let run = std::process::Command::new(exe)
        .args(["--exact", test, "--test-threads=1", "--nocapture"])
        .env(MARKER, "1")
        .output()
        .expect("re-executing the test binary");
    let stdout = String::from_utf8_lossy(&run.stdout);
    // "1 passed" guards against a misspelt `test` selecting no test at all.
    assert!(
        run.status.success() && stdout.contains("test result: ok. 1 passed"),
        "`{test}` failed in its own process ({}):\n{stdout}{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Cluster, FlatReceived};

    /// A reader thread on one end of a fresh socket pair; the other end is the peer.
    #[allow(clippy::type_complexity)]
    fn peer_with_reader(
        src: usize,
    ) -> (
        UnixStream,
        Arc<Mailbox>,
        Arc<Liveness>,
        std::thread::JoinHandle<()>,
    ) {
        let (peer, ours) = UnixStream::pair().unwrap();
        let (mailbox, live) = (Arc::new(Mailbox::default()), Arc::new(Liveness::new(2)));
        let (mb, lv) = (Arc::clone(&mailbox), Arc::clone(&live));
        let reader = std::thread::spawn(move || reader_loop(src, ours, mb, lv));
        (peer, mailbox, live, reader)
    }

    /// xorshift64: the seeded source of the frame fuzz loop.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// One frame of a fuzzed stream: kind byte, tag (data streams only) and payload.
    type Frame = (u8, u64, Vec<u8>);

    /// Up to four seeded frames, most of a kind in `kinds` and some of a random kind
    /// byte; payloads mostly short, now and then longer than one read step.
    fn random_frames(state: &mut u64, kinds: &[u8]) -> Vec<Frame> {
        (0..next(state) % 5)
            .map(|_| {
                let r = next(state);
                let kind = match r % 8 {
                    0 => (r >> 8) as u8,
                    _ => kinds[(r >> 8) as usize % kinds.len()],
                };
                let len = (r >> 20) as usize % 64 + if r % 16 == 1 { READ_CHUNK } else { 0 };
                let tag = round_tag(next(state) % 2, (r >> 32) as usize % 3);
                (
                    kind,
                    tag,
                    (0..len).map(|i| (r as usize + i) as u8).collect(),
                )
            })
            .collect()
    }

    /// How a fuzzed stream ends after its frames: at a frame boundary, inside one more
    /// frame (after `Cut` of its bytes), or after one more frame whose header announces
    /// `Forged` bytes where 10 follow.
    #[derive(Clone, Copy, Debug)]
    enum End {
        Eof,
        Cut(usize),
        Forged(u64),
    }

    /// The bytes of `frames` and then `end`, framed with a tag on a data stream
    /// (17-byte header) and without on a control stream (9 bytes).
    fn stream_bytes(frames: &[Frame], end: End, data: bool) -> Vec<u8> {
        let header = |kind: u8, tag: u64, len: u64| {
            let tag = if data {
                tag.to_le_bytes().to_vec()
            } else {
                Vec::new()
            };
            [&[kind][..], &tag, &len.to_le_bytes()].concat()
        };
        let mut out = Vec::new();
        for (kind, tag, payload) in frames {
            out.extend(header(*kind, *tag, payload.len() as u64));
            out.extend(payload);
        }
        let last = |len| [header(0, round_tag(0, 0), len), vec![9; 10]].concat();
        match end {
            End::Eof => {}
            End::Cut(at) => out.extend(&last(10)[..at]),
            End::Forged(len) => out.extend(last(len)),
        }
        out
    }

    /// Seeded frame headers on both stream kinds — random kind bytes, tags and
    /// lengths, every stream cut at every offset of a last frame's header and payload,
    /// and lengths forged past what follows. Each reader returns in time and keeps
    /// exactly the whole frames before the first one that ends the stream, byte for
    /// byte; a data stream that ends without `FIN` is a dead peer (`PeerFailed`), one
    /// whose `FIN` names an abort publishes that abort, and the peer has left either
    /// way; and no payload buffer grows past twice the bytes that arrived.
    #[test]
    fn forged_frame_lengths_end_in_the_dead_peer_path_without_the_allocation() {
        // The read itself: a header announcing 2^40 bytes over three chunks and a bit
        // that were really sent makes room for at most twice what arrived.
        let sent = vec![7u8; 3 * READ_CHUNK + 5];
        let mut payload = Vec::new();
        let err = read_payload(&mut &sent[..], 1 << 40, &mut payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(payload, sent);
        assert!(
            payload.capacity() <= 2 * sent.len(),
            "{}",
            payload.capacity()
        );

        let mut state = 0x2545_f491_4f6c_dd1du64;
        for data in [true, false] {
            let header = if data { 17 } else { 9 };
            let forged = [
                End::Eof,
                End::Forged(11),
                End::Forged(1 << 40),
                End::Forged(u64::MAX),
            ];
            let ends = forged.into_iter().chain((0..header + 10).map(End::Cut));
            for (case, end) in ends.flat_map(|end| [end; 3]).enumerate() {
                let what = format!("data={data} case {case}, end {end:?}");
                if data {
                    let frames = random_frames(&mut state, &[0, 0, FRAME_ABORT, FRAME_FIN]);
                    let (mut peer, mailbox, live, reader) = peer_with_reader(1);
                    // The reader may stop at a `FIN` or a bad kind and close its end.
                    let _ = peer.write_all(&stream_bytes(&frames, end, true));
                    drop(peer);
                    crate::tests::within_10s(&what, || reader.join().unwrap());
                    let (mut want, mut fin, mut aborted) = (TagQueues::new(), false, false);
                    for (kind, tag, payload) in &frames {
                        match *kind {
                            FRAME_DATA => want
                                .entry((1, *tag))
                                .or_default()
                                .push_back(payload.clone()),
                            FRAME_ABORT => aborted = true,
                            FRAME_FIN => {
                                fin = true;
                                aborted |= *tag > 0;
                                break;
                            }
                            _ => break,
                        }
                    }
                    let got = std::mem::take(&mut *mailbox.lock().unwrap());
                    assert_eq!(got, want, "{what}");
                    assert!(got.values().flatten().all(|p| p.capacity() <= 2 * p.len()));
                    match live.peer_failure(0) {
                        None => assert!(fin && !aborted, "{what}"),
                        Some(DmemError::PeerFailed { rank, .. }) => {
                            assert!(aborted || (!fin && rank == 1), "{what}")
                        }
                        Some(other) => panic!("{what}: {other}"),
                    }
                    assert!(live.state.lock().unwrap().left[1], "{what}: left");
                } else {
                    let kinds = [CTL_RESULT, CTL_PANIC, CTL_STATS, CTL_FAULTS, CTL_TRACE];
                    let frames = random_frames(&mut state, &kinds);
                    let (mut child, parent) = UnixStream::pair().unwrap();
                    let reader = std::thread::spawn(move || read_ctl_to_eof(parent));
                    let _ = child.write_all(&stream_bytes(&frames, end, false));
                    drop(child);
                    let got = crate::tests::within_10s(&what, || reader.join().unwrap());
                    let mut want = ChildReport::default();
                    for (kind, _, payload) in &frames {
                        let keep = Some(payload.clone());
                        match *kind {
                            CTL_RESULT => want.result = keep,
                            CTL_PANIC => want.panic = Some(String::from_utf8_lossy(payload).into()),
                            CTL_STATS => want.stats = keep,
                            CTL_FAULTS => want.faults = keep,
                            CTL_TRACE => want.trace = keep,
                            _ => break,
                        }
                    }
                    assert_eq!(got, want, "{what}");
                    let kept = [&got.result, &got.stats, &got.faults, &got.trace];
                    assert!(kept
                        .iter()
                        .flat_map(|p| p.iter())
                        .all(|p| p.capacity() <= 2 * p.len()));
                }
            }
        }
    }

    #[test]
    fn ordinary_frames_round_trip_byte_identical() {
        let payloads: Vec<Vec<u8>> = [0, 1, READ_CHUNK - 1, READ_CHUNK, 2 * READ_CHUNK + 17]
            .iter()
            .map(|&len| (0..len).map(|i| (i * 31 + len) as u8).collect())
            .collect();

        // Data frames, through the transport's own writer into a peer's reader.
        let (peer, mailbox, live, reader) = peer_with_reader(0);
        let transport = ProcessTransport::new(0, vec![None, Some(peer)]);
        for (i, payload) in payloads.iter().enumerate() {
            transport
                .send_frame(1, FRAME_DATA, round_tag(3, i), payload)
                .unwrap();
        }
        transport.send_fin_all();
        reader.join().unwrap();
        assert!(live.peer_failure(0).is_none());
        let mut queues = mailbox.lock().unwrap();
        for (i, payload) in payloads.iter().enumerate() {
            let got = queues.remove(&(0, round_tag(3, i))).expect("delivered");
            assert_eq!(got, std::slice::from_ref(payload), "data frame {i}");
            assert_eq!(got[0].capacity(), payload.len(), "data frame {i}");
        }
        assert!(queues.is_empty());

        // Control frames: the writer runs beside the reader, as a child does.
        let (mut child, parent) = UnixStream::pair().unwrap();
        let report = std::thread::scope(|scope| {
            let reader = scope.spawn(move || read_ctl_to_eof(parent));
            for (kind, payload) in [CTL_RESULT, CTL_STATS, CTL_FAULTS, CTL_TRACE]
                .into_iter()
                .zip(&payloads[1..])
            {
                send_ctl(&mut child, kind, payload).unwrap();
            }
            drop(child);
            reader.join().unwrap()
        });
        assert_eq!(report.result.as_ref(), Some(&payloads[1]));
        assert_eq!(report.stats.as_ref(), Some(&payloads[2]));
        assert_eq!(report.faults.as_ref(), Some(&payloads[3]));
        assert_eq!(report.trace.as_ref(), Some(&payloads[4]));
    }

    #[test]
    fn process_backend_collectives_agree_with_the_thread_backend() {
        if ran_in_own_process(
            "process::tests::process_backend_collectives_agree_with_the_thread_backend",
        ) {
            return;
        }
        let payload = |ctx: &mut RankCtx| -> Result<(Vec<u64>, Vec<u32>, u64), DmemError> {
            let sum = ctx.allreduce_sum_u64(&[ctx.rank() as u64, 7], "sizes")?;
            let all = ctx.allgather(ctx.rank() as u32, "gather")?;
            let max = ctx.allreduce_u64(ctx.rank() as u64 * 3, "max", u64::max)?;
            Ok((sum, all, max))
        };
        for p in [1usize, 2, 5] {
            let threaded = Cluster::new(p).run_wire(payload);
            let forked = Cluster::new(p)
                .with_backend(Backend::Process)
                .run_wire(payload);
            for rank in 0..p {
                assert_eq!(
                    threaded.results[rank].as_ref().unwrap(),
                    forked.results[rank].as_ref().unwrap(),
                    "p={p} rank={rank}"
                );
                assert_eq!(
                    threaded.comm[rank].payload_bytes, forked.comm[rank].payload_bytes,
                    "traffic accounting must be backend-independent (p={p} rank={rank})"
                );
            }
        }
    }

    #[test]
    fn process_backend_flat_exchange_moves_real_bytes() {
        if ran_in_own_process("process::tests::process_backend_flat_exchange_moves_real_bytes") {
            return;
        }
        let p = 4;
        let run = Cluster::new(p).with_backend(Backend::Process).run_wire(
            |ctx| -> Result<Vec<Vec<u8>>, DmemError> {
                let send: Vec<u8> = (0..ctx.size() * 3).map(|_| ctx.rank() as u8).collect();
                let mut engine = ctx.round_exchange(1, "exchange");
                let mut recv = FlatReceived::empty();
                engine.post_round(0, send, &vec![3; ctx.size()])?;
                engine.wait_round(0, &mut recv)?;
                engine.finish(ctx);
                Ok((0..ctx.size())
                    .map(|src| recv.from_rank(src).to_vec())
                    .collect())
            },
        );
        for (rank, res) in run.results.iter().enumerate() {
            let per_src = res.as_ref().unwrap();
            for (src, bytes) in per_src.iter().enumerate() {
                assert_eq!(bytes, &vec![src as u8; 3], "rank {rank} from {src}");
            }
        }
    }

    #[test]
    fn process_backend_round_engine_overlaps_and_completes() {
        if ran_in_own_process("process::tests::process_backend_round_engine_overlaps_and_completes")
        {
            return;
        }
        let p = 3;
        let rounds = 4;
        let run = Cluster::new(p).with_backend(Backend::Process).run_wire(
            move |ctx| -> Result<Vec<Vec<u8>>, DmemError> {
                let mut engine = ctx.round_exchange(rounds, "engine");
                let mut recv = FlatReceived::empty();
                let mut got = Vec::new();
                // Post ahead, complete behind: rounds r and r+1 are in flight
                // together, so segments really sit in socket buffers.
                engine.post_round(0, round_buf(ctx.rank(), p, 0), &vec![5; p])?;
                for r in 0..rounds {
                    if r + 1 < rounds {
                        engine.post_round(r + 1, round_buf(ctx.rank(), p, r + 1), &vec![5; p])?;
                    }
                    engine.wait_round(r, &mut recv)?;
                    for src in 0..p {
                        got.push(recv.from_rank(src).to_vec());
                    }
                }
                engine.finish(ctx);
                Ok(got)
            },
        );
        for (rank, res) in run.results.iter().enumerate() {
            let got = res.as_ref().unwrap();
            for r in 0..rounds {
                for src in 0..p {
                    assert_eq!(
                        got[r * p + src],
                        round_buf(src, 1, r),
                        "rank {rank} round {r} from {src}"
                    );
                }
            }
        }
    }

    /// Rank 1 saw rank 2's abort, said `FIN` naming it, and left; rank 2's own `ABORT`
    /// never reached this rank. The write to rank 1 fails, and the error names rank 2,
    /// the root cause — from what rank 1's stream said, not from a race against a clock.
    #[test]
    fn a_failed_send_blames_the_abort_the_departed_peer_saw() {
        let err = crate::tests::within_10s("send to a departed peer", || {
            let (mut peer1, ours1) = UnixStream::pair().unwrap();
            let (_silent_peer2, ours2) = UnixStream::pair().unwrap();
            let transport = ProcessTransport::new(0, vec![None, Some(ours1), Some(ours2)]);
            let fin = (FRAME_FIN, 1 + 2, b"rank 2 hit a wall".to_vec());
            peer1
                .write_all(&stream_bytes(&[fin], End::Eof, true))
                .unwrap();
            drop(peer1);
            transport.round_open(0, 1);
            transport
                .round_post(0, 0, vec![0, 1, 2], &[0, 1, 2, 3])
                .unwrap_err()
        });
        assert_eq!(
            err,
            DmemError::PeerFailed {
                rank: 2,
                round: 0,
                detail: "rank 2 hit a wall".to_string()
            }
        );
    }

    /// Rank 1 posts round 0 and leaves; rank 0's round-1 post to it fails, and rank 0
    /// says goodbye. Rank 2 hears rank 0's goodbye before rank 1's round-0 post — the
    /// interleaving that, when the goodbye relayed the departure rank 0 had inferred as
    /// an abort, failed rank 2's round 0. The goodbye only blames rank 1 for rank 0's
    /// departure, so rank 2's round-0 wait completes, and its round-1 wait, which lacks
    /// both posts, fails naming rank 1.
    #[test]
    fn a_departure_is_not_relayed_ahead_of_the_departed_ranks_posts() {
        crate::tests::within_10s("an inferred departure", || {
            let tag = |round| round_tag(0, round);
            let post = |round| (FRAME_DATA, tag(round), vec![round as u8]);
            let rank1_stream = stream_bytes(&[post(0), (FRAME_FIN, 0, vec![])], End::Eof, true);

            // Rank 0 is a transport; the test plays ranks 1 and 2 at its sockets.
            let (mut rank1, ours1) = UnixStream::pair().unwrap();
            let (mut rank2, ours2) = UnixStream::pair().unwrap();
            let rank0 = ProcessTransport::new(0, vec![None, Some(ours1), Some(ours2)]);
            rank0.round_open(0, 2);
            rank0.round_post(0, 0, vec![0; 3], &[0, 1, 2, 3]).unwrap();
            rank1.write_all(&rank1_stream).unwrap();
            drop(rank1);
            rank2
                .write_all(&stream_bytes(&[post(0), post(1)], End::Eof, true))
                .unwrap();
            let (mut data, mut displs) = (Vec::new(), Vec::new());
            rank0.round_wait(0, 0, &mut data, &mut displs).unwrap();
            let err = rank0.round_post(0, 1, vec![0; 3], &[0, 1, 2, 3]);
            assert!(
                matches!(
                    err,
                    Err(DmemError::PeerFailed {
                        rank: 1,
                        round: 1,
                        ..
                    })
                ),
                "{err:?}"
            );
            rank0.send_fin_all();
            // What rank 0 sent rank 2, up to its goodbye.
            let mut said = Vec::new();
            loop {
                let mut hdr = [0u8; 17];
                rank2.read_exact(&mut hdr).unwrap();
                let len = u64::from_le_bytes(hdr[9..17].try_into().unwrap());
                said.extend(hdr);
                read_payload(&mut rank2, len, &mut said).unwrap();
                if hdr[0] == FRAME_FIN {
                    break;
                }
            }

            // Rank 2's view: its readers of ranks 0 and 1 share one mailbox and liveness.
            let mailbox = Arc::new(Mailbox::default());
            let live = Arc::new(Liveness::new(3));
            let deliver = |src: usize, bytes: Vec<u8>| {
                let (mut peer, ours) = UnixStream::pair().unwrap();
                let (mb, lv) = (Arc::clone(&mailbox), Arc::clone(&live));
                let reader = std::thread::spawn(move || reader_loop(src, ours, mb, lv));
                peer.write_all(&bytes).unwrap();
                reader
            };
            let inbox = Arc::clone(&mailbox);
            let posted = move |round: usize| {
                let (mailbox, tag) = (Arc::clone(&inbox), tag(round));
                move |src: usize| {
                    let queues = mailbox.lock().unwrap();
                    src == 2 || queues.get(&(src, tag)).is_some_and(|q| !q.is_empty())
                }
            };
            deliver(0, said).join().unwrap();
            assert_eq!(live.peer_failure(0), None, "rank 0 relayed a departure");
            let (waiting, round0_posted) = (Arc::clone(&live), posted(0));
            let round0 = std::thread::spawn(move || waiting.wait_for_posts(0, round0_posted));
            deliver(1, rank1_stream).join().unwrap();
            assert_eq!(round0.join().unwrap(), Ok(()));
            let err = live.wait_for_posts(1, posted(1));
            assert!(
                matches!(
                    err,
                    Err(DmemError::PeerFailed {
                        rank: 1,
                        round: 1,
                        ..
                    })
                ),
                "{err:?}"
            );
        });
    }

    /// Per-destination round payload: 5 bytes stamped (src, round) per rank.
    fn round_buf(src: usize, ranks: usize, round: usize) -> Vec<u8> {
        let seg: Vec<u8> = (0..5).map(|i| (src * 40 + round * 8 + i) as u8).collect();
        seg.iter().copied().cycle().take(5 * ranks).collect()
    }

    /// The ISSUE's satellite regression: a peer killed mid-round (hard `_exit`,
    /// no unwinding, no abort frame — as close to SIGKILL as a test can get)
    /// must surface as the typed `PeerFailed` on every survivor's
    /// `wait_round`, not as a hang. Companion to the poisoned-board unit test
    /// in `nonblocking.rs`, which pins the same contract on the thread backend.
    #[test]
    #[allow(unsafe_code)]
    fn peer_killed_mid_round_surfaces_peer_failed() {
        if ran_in_own_process("process::tests::peer_killed_mid_round_surfaces_peer_failed") {
            return;
        }
        let outcome = run_process_generation::<u32, DmemError, _>(3, None, 0, &|ctx| {
            let mut engine = ctx.round_exchange(2, "engine");
            let mut recv = FlatReceived::empty();
            let counts = vec![1usize; 3];
            engine.post_round(0, vec![ctx.rank() as u8; 3], &counts)?;
            engine.wait_round(0, &mut recv)?;
            if ctx.rank() == 1 {
                // Die without a word between rounds 0 and 1.
                // SAFETY: rank 1 is a forked child of this test; `_exit` takes no
                // pointer and ends it at once, with no unwinding and no frame sent.
                unsafe { ffi::_exit(9) }
            }
            engine.post_round(1, vec![ctx.rank() as u8; 3], &counts)?;
            engine.wait_round(1, &mut recv)?;
            engine.finish(ctx);
            Ok(0)
        });
        assert!(outcome.panic.is_none());
        for (rank, res) in outcome.results.iter().enumerate() {
            let err = res.as_ref().expect_err("every rank must fail");
            assert!(
                matches!(err, DmemError::PeerFailed { rank: 1, .. }),
                "rank {rank} got {err}"
            );
        }
    }

    #[test]
    fn child_panic_reraises_in_the_parent_and_unblocks_peers() {
        if ran_in_own_process(
            "process::tests::child_panic_reraises_in_the_parent_and_unblocks_peers",
        ) {
            return;
        }
        let outcome = catch_unwind(|| {
            Cluster::new(2).with_backend(Backend::Process).run_wire(
                |ctx| -> Result<u32, DmemError> {
                    if ctx.rank() == 0 {
                        panic!("rank 0 exploded");
                    }
                    ctx.allgather(1u32, "exchange")?;
                    Ok(1)
                },
            )
        });
        let payload = outcome.expect_err("the child panic must re-raise");
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(text.contains("rank 0 exploded"), "got: {text}");
    }

    #[test]
    fn injected_fail_rank_behaves_like_the_thread_backend() {
        if ran_in_own_process("process::tests::injected_fail_rank_behaves_like_the_thread_backend")
        {
            return;
        }
        let plan =
            Arc::new(FaultPlan::new().with_fault(2, "exchange", 0, crate::FaultKind::FailRank));
        let run = Cluster::new(4)
            .with_backend(Backend::Process)
            .with_fault_plan(Arc::clone(&plan))
            .run_wire(|ctx| -> Result<u32, DmemError> {
                let send = vec![vec![ctx.rank() as u8]; ctx.size()];
                ctx.alltoall_rounds(send, 1, "exchange")?;
                Ok(0)
            });
        // The child fired the fault; its state came home over the control
        // socket and was absorbed into the parent's plan.
        assert_eq!(plan.fired_count(), 1);
        for (rank, res) in run.results.iter().enumerate() {
            let err = res.as_ref().expect_err("every rank must fail");
            if rank == 2 {
                assert!(
                    matches!(err, DmemError::InjectedFault { rank: 2, .. }),
                    "rank 2 got {err}"
                );
            } else {
                assert!(
                    matches!(err, DmemError::PeerFailed { rank: 2, .. }),
                    "rank {rank} got {err}"
                );
            }
        }
    }

    #[test]
    fn run_recovering_wire_respawns_process_generations() {
        if ran_in_own_process("process::tests::run_recovering_wire_respawns_process_generations") {
            return;
        }
        let run = Cluster::new(3)
            .with_backend(Backend::Process)
            .run_recovering_wire(
                2,
                |e: &DmemError| e.is_rank_failure(),
                |ctx| -> Result<u64, DmemError> {
                    let sum = ctx.allreduce_u64(ctx.rank() as u64, "probe", |a, b| a + b)?;
                    if ctx.generation() == 0 && ctx.rank() == 1 {
                        return Err(DmemError::PeerFailed {
                            rank: 1,
                            round: 0,
                            detail: "simulated recoverable loss".to_string(),
                        });
                    }
                    Ok(sum)
                },
            );
        assert_eq!(run.recoveries, 1);
        for res in &run.results {
            assert_eq!(*res.as_ref().unwrap(), 3);
        }
    }
}
