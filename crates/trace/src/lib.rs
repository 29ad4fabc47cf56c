//! A zero-dependency flight recorder for the HySortK pipeline.
//!
//! The recorder is a process-wide facility: every thread that emits an event
//! owns a fixed-capacity ring buffer registered in a global registry, and the
//! pipeline drains all of them once at the end of a run. Three properties
//! drive the design:
//!
//! 1. **The disabled path is one relaxed atomic load.** Every public entry
//!    point checks [`enabled`] first and returns before touching the clock,
//!    the thread-local, or any lock. Tracing off must be free enough that the
//!    instrumentation can stay in the hot loops unconditionally.
//! 2. **Recording never allocates on the hot path.** Labels are interned
//!    `&'static str`, arguments are `u64`, events are fixed-size `Copy`
//!    structs pushed into a pre-sized ring. When a ring is full the oldest
//!    event is overwritten and a drop counter ticks — a flight recorder keeps
//!    the most recent history, it never blocks the plane.
//! 3. **Rank is explicit, never ambient.** Simulated ranks are threads of
//!    one process, and a worker-pool call spawns fresh worker threads, so a
//!    thread-local "current rank" would be missing on every one of them.
//!    Every event carries the rank its caller passed in; the thread id is
//!    assigned by the registry.
//!
//! Spans are recorded as separate begin/end events (Chrome `B`/`E` phases) so
//! per-thread well-nestedness is checkable, and exported with
//! [`Trace::to_chrome_json`] into the Chrome trace-event format that Perfetto
//! and `chrome://tracing` load directly: `pid` = rank, `tid` = recorder
//! thread id, flow arrows (`s`/`f`) connect a posted exchange round to its
//! completion on the receiving side.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Granularity of the recorded timeline, ordered from coarse to fine. An
/// event is recorded when its detail level is `<=` the configured level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Detail {
    /// Stage-level spans (parse, exchange, count), faults, recoveries.
    Stage = 0,
    /// Plus per-round lanes: serialize / post / wait / count, checkpoints,
    /// stage-1 windows, flow arrows.
    Round = 1,
    /// Plus per-task serialize and count spans, per-section count spans, stage-1
    /// pieces and worker-pool calls.
    Task = 2,
}

impl Detail {
    /// Parse a CLI-facing detail name.
    pub fn parse(s: &str) -> Result<Detail, String> {
        match s {
            "stage" => Ok(Detail::Stage),
            "round" => Ok(Detail::Round),
            "task" => Ok(Detail::Task),
            other => Err(format!(
                "unknown trace detail '{other}' (expected stage, round or task)"
            )),
        }
    }

    /// The CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            Detail::Stage => "stage",
            Detail::Round => "round",
            Detail::Task => "task",
        }
    }
}

/// What an [`Event`] marks on the timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opening (Chrome `B`).
    Begin,
    /// Span closing (Chrome `E`).
    End,
    /// A point in time (Chrome `i`, thread scope).
    Instant,
    /// A named value sampled over time (Chrome `C`).
    Counter,
    /// Flow-arrow origin (Chrome `s`); the flow id is the first argument.
    FlowStart,
    /// Flow-arrow target (Chrome `f`, binding to the enclosing slice).
    FlowEnd,
}

/// One compact recorded event. `Copy`, no heap data: labels and argument
/// names are interned `&'static str`, values are `u64`, and the timestamp is
/// nanoseconds since the process-wide recorder epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    pub label: &'static str,
    pub kind: EventKind,
    pub ts_ns: u64,
    pub rank: u32,
    pub tid: u32,
    args: [(&'static str, u64); 2],
    nargs: u8,
}

impl Event {
    /// An event whose label and argument names are runtime strings — one decoded from
    /// another process's trace. The strings are interned; `None` when there are more
    /// than two arguments.
    pub fn new(
        label: &str,
        kind: EventKind,
        ts_ns: u64,
        rank: u32,
        tid: u32,
        args: &[(&str, u64)],
    ) -> Option<Event> {
        if args.len() > 2 {
            return None;
        }
        let mut packed = [("", 0u64); 2];
        for (slot, &(name, value)) in packed.iter_mut().zip(args) {
            *slot = (intern(name), value);
        }
        Some(Event {
            label: intern(label),
            kind,
            ts_ns,
            rank,
            tid,
            args: packed,
            nargs: args.len() as u8,
        })
    }

    /// The event's arguments (at most two name/value pairs).
    pub fn args(&self) -> &[(&'static str, u64)] {
        &self.args[..self.nargs as usize]
    }

    /// Look up one argument by name.
    pub fn arg(&self, name: &str) -> Option<u64> {
        self.args()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static DETAIL: AtomicU8 = AtomicU8::new(Detail::Stage as u8);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Per-thread ring capacity (events). At 40 bytes per event this is
/// ~2.6 MiB per recording thread — sized so a smoke-scale run never wraps.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct ThreadBuf {
    tid: u32,
    events: Vec<Event>,
    write: usize,
    dropped: u64,
}

impl ThreadBuf {
    fn push(&mut self, mut ev: Event) {
        ev.tid = self.tid;
        let cap = self.events.capacity();
        if self.events.len() < cap {
            self.events.push(ev);
        } else {
            // Ring wrap: overwrite the oldest event, keep the newest history.
            self.events[self.write] = ev;
            self.write = (self.write + 1) % cap;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> (Vec<Event>, u64) {
        let cap = self.events.capacity().max(1);
        let mut out = std::mem::replace(&mut self.events, Vec::with_capacity(cap));
        // Rotate so the oldest surviving event comes first after a wrap.
        let pivot = self.write.min(out.len());
        out.rotate_left(pivot);
        let dropped = std::mem::take(&mut self.dropped);
        self.write = 0;
        (out, dropped)
    }
}

type Registry = Mutex<Vec<&'static Mutex<ThreadBuf>>>;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: std::cell::OnceCell<&'static Mutex<ThreadBuf>> =
        const { std::cell::OnceCell::new() };
}

fn local_buf() -> &'static Mutex<ThreadBuf> {
    LOCAL.with(|cell| {
        *cell.get_or_init(|| {
            let buf = Box::leak(Box::new(Mutex::new(ThreadBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                events: Vec::with_capacity(DEFAULT_CAPACITY),
                write: 0,
                dropped: 0,
            })));
            registry().lock().unwrap().push(buf);
            buf
        })
    })
}

fn record(ev: Event) {
    local_buf().lock().unwrap().push(ev);
}

// ---------------------------------------------------------------------------
// Control
// ---------------------------------------------------------------------------

/// Turn the recorder on at the given granularity. Also pins the recorder
/// epoch so the first event does not pay the `OnceLock` initialization.
pub fn enable(detail: Detail) {
    let _ = epoch();
    DETAIL.store(detail as u8, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the recorder off. Already-buffered events stay collectable.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Is the recorder on at all? One relaxed load — this is the entire cost of
/// every instrumentation site while tracing is disabled.
#[inline(always)]
pub fn enabled(detail: Detail) -> bool {
    ENABLED.load(Ordering::Relaxed) && detail as u8 <= DETAIL.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// RAII span guard: records the matching end event when dropped. Obtained
/// from [`span`] / [`span_with`]; inert (a bool check) when tracing was
/// disabled at construction.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records an empty span"]
pub struct SpanGuard {
    label: &'static str,
    rank: u32,
    active: bool,
}

impl SpanGuard {
    /// Close the span now, with up to two arguments only known at its end (a byte
    /// total the spanned work produced); they ride on the end event, which trace
    /// viewers merge into the slice's arguments.
    pub fn end_with(mut self, args: &[(&'static str, u64)]) {
        self.end(args);
    }

    fn end(&mut self, args: &[(&'static str, u64)]) {
        if std::mem::take(&mut self.active) {
            record(Event {
                label: self.label,
                kind: EventKind::End,
                ts_ns: now_ns(),
                rank: self.rank,
                tid: 0,
                args: pack_args(args),
                nargs: args.len().min(2) as u8,
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.end(&[]);
    }
}

/// Open a span on the current thread. The returned guard closes it.
#[inline]
pub fn span(label: &'static str, detail: Detail, rank: u32) -> SpanGuard {
    span_with(label, detail, rank, &[])
}

/// Open a span carrying up to two `u64` arguments (extra pairs are ignored).
#[inline]
pub fn span_with(
    label: &'static str,
    detail: Detail,
    rank: u32,
    args: &[(&'static str, u64)],
) -> SpanGuard {
    if !enabled(detail) {
        return SpanGuard {
            label,
            rank,
            active: false,
        };
    }
    record(Event {
        label,
        kind: EventKind::Begin,
        ts_ns: now_ns(),
        rank,
        tid: 0,
        args: pack_args(args),
        nargs: args.len().min(2) as u8,
    });
    SpanGuard {
        label,
        rank,
        active: true,
    }
}

/// Record a point event (a fault firing, a recovery generation, a retry).
#[inline]
pub fn instant(label: &'static str, detail: Detail, rank: u32, args: &[(&'static str, u64)]) {
    if !enabled(detail) {
        return;
    }
    record(Event {
        label,
        kind: EventKind::Instant,
        ts_ns: now_ns(),
        rank,
        tid: 0,
        args: pack_args(args),
        nargs: args.len().min(2) as u8,
    });
}

/// Record a counter sample (rendered as a value track in Perfetto).
#[inline]
pub fn counter(label: &'static str, detail: Detail, rank: u32, value: u64) {
    if !enabled(detail) {
        return;
    }
    record(Event {
        label,
        kind: EventKind::Counter,
        ts_ns: now_ns(),
        rank,
        tid: 0,
        args: [("value", value), ("", 0)],
        nargs: 1,
    });
}

/// Record a flow-arrow endpoint. `start = true` is the arrow's origin
/// (emitted inside the span that initiates the work, e.g. a round post);
/// `start = false` binds the arrow to the enclosing slice at the target
/// (e.g. the wait that observed the round complete). Arrows pair by `id`.
#[inline]
pub fn flow(label: &'static str, detail: Detail, rank: u32, id: u64, start: bool) {
    if !enabled(detail) {
        return;
    }
    record(Event {
        label,
        kind: if start {
            EventKind::FlowStart
        } else {
            EventKind::FlowEnd
        },
        ts_ns: now_ns(),
        rank,
        tid: 0,
        args: [("id", id), ("", 0)],
        nargs: 1,
    });
}

fn pack_args(args: &[(&'static str, u64)]) -> [(&'static str, u64); 2] {
    let mut packed = [("", 0u64); 2];
    for (slot, &arg) in packed.iter_mut().zip(args.iter()) {
        *slot = arg;
    }
    packed
}

/// Open a span, optionally with `name = value` arguments:
/// `let _s = span!("exchange", Detail::Stage, rank);`
/// `let _s = span!("round-post", Detail::Round, rank, round = r, bytes = n);`
#[macro_export]
macro_rules! span {
    ($label:expr, $detail:expr, $rank:expr) => {
        $crate::span($label, $detail, $rank as u32)
    };
    ($label:expr, $detail:expr, $rank:expr, $($name:ident = $value:expr),+ $(,)?) => {
        $crate::span_with(
            $label,
            $detail,
            $rank as u32,
            &[$((stringify!($name), $value as u64)),+],
        )
    };
}

// ---------------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------------

/// Everything the recorder held at collection time: events from all threads
/// merged in timestamp order, plus the number of events lost to ring wraps.
#[derive(Debug, Default, PartialEq)]
pub struct Trace {
    pub events: Vec<Event>,
    pub dropped: u64,
}

/// Side buffer of events absorbed from other processes (see [`absorb`]);
/// drained into the merged timeline by [`collect`].
fn absorbed() -> &'static Mutex<(Vec<Event>, u64)> {
    static ABSORBED: OnceLock<Mutex<(Vec<Event>, u64)>> = OnceLock::new();
    ABSORBED.get_or_init(|| Mutex::new((Vec::new(), 0)))
}

/// Pin the recorder epoch now. The process backend calls this before forking
/// rank processes so parent and children timestamp against the same monotonic
/// origin (the epoch `Instant` crosses `fork()` by memory inheritance) and the
/// merged timeline lines up.
pub fn pin_epoch() {
    let _ = epoch();
}

/// Merge a [`Trace`] collected in another process into this recorder. Thread
/// ids are remapped through the local tid allocator so child threads never
/// collide with local ones; events land in a side buffer drained by the next
/// [`collect`].
pub fn absorb(trace: Trace) {
    let mut remap: HashMap<u32, u32> = HashMap::new();
    let mut side = absorbed().lock().unwrap();
    for mut ev in trace.events {
        let tid = *remap
            .entry(ev.tid)
            .or_insert_with(|| NEXT_TID.fetch_add(1, Ordering::Relaxed));
        ev.tid = tid;
        side.0.push(ev);
    }
    side.1 += trace.dropped;
}

/// Record the real OS process id a rank ran on (process backend), so the
/// Chrome export can label the rank's track with it. The exported `pid` field
/// stays the rank id — the stable key every downstream consumer relies on.
pub fn note_rank_pid(rank: u32, pid: u32) {
    rank_pids().lock().unwrap().insert(rank, pid);
}

fn rank_pids() -> &'static Mutex<HashMap<u32, u32>> {
    static RANK_PIDS: OnceLock<Mutex<HashMap<u32, u32>>> = OnceLock::new();
    RANK_PIDS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Intern a runtime string as `&'static str`, deduplicated so repeated
/// decodes of the same label (every event of a stage) leak it only once.
fn intern(s: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut map = INTERNED
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap();
    if let Some(&v) = map.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    map.insert(s.to_string(), leaked);
    leaked
}

/// Drain every thread's buffer plus the absorbed cross-process side buffer.
/// Buffers are emptied (a second collect returns only events recorded in
/// between); per-thread event order is preserved, and the merged result is
/// stably sorted by timestamp.
pub fn collect() -> Trace {
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for buf in registry().lock().unwrap().iter() {
        let (mut evs, d) = buf.lock().unwrap().drain();
        events.append(&mut evs);
        dropped += d;
    }
    {
        let mut side = absorbed().lock().unwrap();
        events.append(&mut side.0);
        dropped += std::mem::take(&mut side.1);
    }
    events.sort_by_key(|e| e.ts_ns);
    Trace { events, dropped }
}

/// Drop all buffered events without collecting them (test hygiene).
pub fn clear() {
    let _ = collect();
}

impl Trace {
    /// Events with the given label.
    pub fn with_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.label == label)
    }

    /// Verify begin/end events nest properly on every thread. Returns the
    /// offending thread and label on a mismatch. Tolerates spans that were
    /// still open at collection time (their end simply never arrived), but an
    /// end without a matching begin on the same thread is an error.
    pub fn check_well_nested(&self) -> Result<(), String> {
        let mut stacks: HashMap<u32, Vec<&'static str>> = HashMap::new();
        for ev in &self.events {
            match ev.kind {
                EventKind::Begin => stacks.entry(ev.tid).or_default().push(ev.label),
                EventKind::End => {
                    let stack = stacks.entry(ev.tid).or_default();
                    match stack.pop() {
                        Some(open) if open == ev.label => {}
                        Some(open) => {
                            return Err(format!(
                                "thread {}: span end '{}' while '{}' is innermost",
                                ev.tid, ev.label, open
                            ))
                        }
                        None => {
                            return Err(format!(
                                "thread {}: span end '{}' with no open span",
                                ev.tid, ev.label
                            ))
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Serialize into Chrome trace-event JSON (the format Perfetto and
    /// `chrome://tracing` load). `pid` = rank, `tid` = recorder thread id,
    /// timestamps in microseconds. Spans whose end was lost to a ring wrap
    /// are closed implicitly by the viewer at trace end — the exporter only
    /// emits what was recorded.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        // Name each rank's process so Perfetto's track labels read "rank N" —
        // with the real OS pid appended when the process backend recorded one.
        // The pid *field* stays the rank id either way (the stable key).
        let mut ranks: Vec<u32> = self.events.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        let pids = rank_pids().lock().unwrap();
        for rank in ranks {
            if !first {
                out.push(',');
            }
            first = false;
            let name = match pids.get(&rank) {
                Some(pid) => format!("rank {rank} (pid {pid})"),
                None => format!("rank {rank}"),
            };
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{rank},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        for ev in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            let ts_us = ev.ts_ns as f64 / 1000.0;
            let (ph, extra) = match ev.kind {
                EventKind::Begin => ("B", String::new()),
                EventKind::End => ("E", String::new()),
                EventKind::Instant => ("i", ",\"s\":\"t\"".to_string()),
                EventKind::Counter => ("C", String::new()),
                EventKind::FlowStart => ("s", format!(",\"id\":{}", ev.args[0].1)),
                EventKind::FlowEnd => ("f", format!(",\"bp\":\"e\",\"id\":{}", ev.args[0].1)),
            };
            let cat = match ev.kind {
                EventKind::FlowStart | EventKind::FlowEnd => "flow",
                _ => "hysortk",
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},\
                 \"pid\":{},\"tid\":{}{}",
                escape(ev.label),
                cat,
                ph,
                ts_us,
                ev.rank,
                ev.tid,
                extra
            ));
            let args = ev.args();
            if !args.is_empty() && !matches!(ev.kind, EventKind::FlowStart | EventKind::FlowEnd) {
                out.push_str(",\"args\":{");
                for (i, (name, value)) in args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":{}", escape(name), value));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn escape(s: &str) -> String {
    // Labels are interned literals we control, but keep the exporter safe.
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Structured stderr logging
// ---------------------------------------------------------------------------

/// Verbosity of the rank-tagged stderr log. `Quiet` silences even the run
/// summary; `Normal` is the default; `Verbose` narrates fault injections,
/// retries, recoveries and checkpoint commits as they happen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Verbosity {
    Quiet = 0,
    Normal = 1,
    Verbose = 2,
}

static VERBOSITY: AtomicU8 = AtomicU8::new(Verbosity::Normal as u8);
static LOG_SEQ: AtomicU64 = AtomicU64::new(0);

/// Set the process-wide log verbosity (the CLI maps `--quiet` / `-v` here).
pub fn set_verbosity(v: Verbosity) {
    VERBOSITY.store(v as u8, Ordering::Relaxed);
}

/// The current log verbosity.
pub fn verbosity() -> Verbosity {
    match VERBOSITY.load(Ordering::Relaxed) {
        0 => Verbosity::Quiet,
        1 => Verbosity::Normal,
        _ => Verbosity::Verbose,
    }
}

/// Emit one structured, rank-tagged line to stderr if the configured
/// verbosity admits it. Lines carry a process-wide sequence number so
/// interleaved ranks stay diffable: `[hysortk #12 rank 3] ...`.
pub fn log_at(level: Verbosity, rank: u32, msg: std::fmt::Arguments<'_>) {
    if verbosity() < level {
        return;
    }
    let seq = LOG_SEQ.fetch_add(1, Ordering::Relaxed);
    eprintln!("[hysortk #{seq} rank {rank}] {msg}");
}

/// `vlog!(rank, "...")` — verbose-only structured stderr line.
#[macro_export]
macro_rules! vlog {
    ($rank:expr, $($fmt:tt)*) => {
        $crate::log_at(
            $crate::Verbosity::Verbose,
            $rank as u32,
            format_args!($($fmt)*),
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global and tests in this binary run in
    // parallel: every test that enables, disables or collects it holds this
    // lock, or one test's `collect()` drains another's events.
    static RECORDER: Mutex<()> = Mutex::new(());

    /// Poison-tolerant: a failed recorder test must not fail the others.
    fn recorder() -> std::sync::MutexGuard<'static, ()> {
        RECORDER.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _recorder = recorder();
        disable();
        let _s = span!("t0-disabled", Detail::Stage, 0);
        instant("t0-disabled-i", Detail::Stage, 0, &[]);
        drop(_s);
        let tr = collect();
        assert!(tr.with_label("t0-disabled").next().is_none());
        assert!(tr.with_label("t0-disabled-i").next().is_none());
    }

    #[test]
    fn disabled_tracing_is_cheap_enough_to_leave_in_hot_loops() {
        // The recorder off-path is one relaxed atomic load; 10M disabled span!
        // invocations must stay far below any measurable share of a benchmark run
        // (generous bound: unoptimised test builds on loaded CI machines).
        let _recorder = recorder();
        disable();
        assert!(!enabled(Detail::Task));
        let start = std::time::Instant::now();
        for i in 0..10_000_000u64 {
            let _s = span!("bench-disabled", Detail::Task, 0, i = i,);
        }
        let secs = start.elapsed().as_secs_f64();
        assert!(secs < 10.0, "10M disabled spans took {secs:.2}s");
    }

    #[test]
    fn spans_pair_and_nest() {
        let _recorder = recorder();
        enable(Detail::Task);
        {
            let _outer = span!("t1-outer", Detail::Stage, 3, bytes = 17u64);
            let _inner = span!("t1-inner", Detail::Task, 3);
            instant("t1-mark", Detail::Round, 3, &[("round", 2)]);
        }
        disable();
        let tr = collect();
        tr.check_well_nested().unwrap();
        let begins: Vec<_> = tr
            .with_label("t1-outer")
            .filter(|e| e.kind == EventKind::Begin)
            .collect();
        let ends: Vec<_> = tr
            .with_label("t1-outer")
            .filter(|e| e.kind == EventKind::End)
            .collect();
        assert_eq!(begins.len(), 1);
        assert_eq!(ends.len(), 1);
        assert_eq!(begins[0].rank, 3);
        assert_eq!(begins[0].arg("bytes"), Some(17));
        assert!(begins[0].ts_ns <= ends[0].ts_ns);
        let mark = tr.with_label("t1-mark").next().unwrap();
        assert_eq!(mark.kind, EventKind::Instant);
        assert_eq!(mark.arg("round"), Some(2));
    }

    #[test]
    fn detail_level_filters_fine_events() {
        let _recorder = recorder();
        enable(Detail::Stage);
        {
            let _coarse = span!("t2-coarse", Detail::Stage, 0);
            let _fine = span!("t2-fine", Detail::Task, 0);
            instant("t2-fine-i", Detail::Round, 0, &[]);
        }
        disable();
        let tr = collect();
        assert!(tr.with_label("t2-coarse").next().is_some());
        assert!(tr.with_label("t2-fine").next().is_none());
        assert!(tr.with_label("t2-fine-i").next().is_none());
    }

    #[test]
    fn chrome_export_is_balanced_and_escaped() {
        let _recorder = recorder();
        enable(Detail::Round);
        {
            let _s = span!("t3-span", Detail::Stage, 1, round = 4u64);
            flow("t3-flow", Detail::Round, 1, 99, true);
            flow("t3-flow", Detail::Round, 1, 99, false);
            counter("t3-counter", Detail::Round, 1, 42);
        }
        disable();
        let tr = collect();
        let json = tr.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"t3-span\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"bp\":\"e\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"round\":4}"));
        // Every begin in this trace has a matching end, so the export's B and
        // E phase counts agree.
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e);
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn ring_wrap_drops_oldest_and_counts() {
        let buf = Mutex::new(ThreadBuf {
            tid: 7,
            events: Vec::with_capacity(4),
            write: 0,
            dropped: 0,
        });
        for i in 0..10u64 {
            buf.lock().unwrap().push(Event {
                label: "w",
                kind: EventKind::Instant,
                ts_ns: i,
                rank: 0,
                tid: 0,
                args: [("i", i), ("", 0)],
                nargs: 1,
            });
        }
        let (events, dropped) = buf.lock().unwrap().drain();
        assert_eq!(dropped, 6);
        assert_eq!(events.len(), 4);
        let kept: Vec<u64> = events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "newest survive, oldest first");
        assert!(events.iter().all(|e| e.tid == 7));
    }

    #[test]
    fn collect_drains_across_threads() {
        let _recorder = recorder();
        enable(Detail::Stage);
        let handles: Vec<_> = (0..3)
            .map(|r| {
                std::thread::spawn(move || {
                    let _s = span!("t5-thread", Detail::Stage, r);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let tr = collect();
        let tids: std::collections::HashSet<u32> =
            tr.with_label("t5-thread").map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3, "each thread has its own recorder id");
        tr.check_well_nested().unwrap();
        // Drained: a second collect holds none of our labels.
        let again = collect();
        assert!(again.with_label("t5-thread").next().is_none());
    }

    #[test]
    fn nesting_violation_is_reported() {
        let tr = Trace {
            events: vec![
                Event {
                    label: "a",
                    kind: EventKind::Begin,
                    ts_ns: 0,
                    rank: 0,
                    tid: 1,
                    args: [("", 0); 2],
                    nargs: 0,
                },
                Event {
                    label: "b",
                    kind: EventKind::End,
                    ts_ns: 1,
                    rank: 0,
                    tid: 1,
                    args: [("", 0); 2],
                    nargs: 0,
                },
            ],
            dropped: 0,
        };
        let err = tr.check_well_nested().unwrap_err();
        assert!(err.contains("'b'") && err.contains("'a'"), "{err}");
    }

    #[test]
    fn detail_parse_round_trips() {
        for d in [Detail::Stage, Detail::Round, Detail::Task] {
            assert_eq!(Detail::parse(d.name()).unwrap(), d);
        }
        assert!(Detail::parse("bogus").is_err());
        assert!(Detail::Stage < Detail::Round && Detail::Round < Detail::Task);
    }

    #[test]
    fn verbosity_orders_and_defaults() {
        assert!(Verbosity::Quiet < Verbosity::Normal);
        assert!(Verbosity::Normal < Verbosity::Verbose);
    }
}
