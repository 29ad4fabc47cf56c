//! One sample = one fresh child process running the library call behind
//! `hysortk count` on a generated file.
//!
//! A fresh process is what a user pays (cold allocator, cold thread pools) and gives
//! every sample its own peak RSS. The child half ([`child_main`]) runs the count and
//! prints one JSON line; the parent half ([`take`]) spawns it, enforces the timeout,
//! and parses the line. The library is called instead of the `hysortk` binary because
//! the CLI cannot set threads per rank or tasks per worker.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use hysortk_core::{count_kmers_from_files_with, CountResult};
use hysortk_dna::io::IngestOptions;
use hysortk_dna::kmer::KmerCode;
use hysortk_dna::{Kmer1, Kmer2};

use crate::json::{self, Value};
use crate::oracle::{pair_hash, Counts};
use crate::workloads::{self, Workload};

/// A sample that runs longer than this is killed and counted as failed.
const TIMEOUT: Duration = Duration::from_secs(60);

/// How the parent asks for one sample.
pub struct Request<'a> {
    pub workload: &'a Workload,
    pub input: &'a Path,
    /// Scratch directory (inside the checkout) for the child's output and checkpoints.
    pub tmp: &'a Path,
    /// Run the 1 rank × 1 thread baseline instead of the workload's shape.
    pub single_threaded: bool,
    /// Record with the flight recorder at `Detail::Round` and export here.
    pub trace_to: Option<&'a Path>,
}

/// What one sample measured.
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub counts: Counts,
    /// The numeric `RunReport` fields the child printed (see [`child_main`]'s
    /// `report` object); stage seconds are the mean over ranks.
    pub report: Value,
    pub sorter: String,
    pub checkpoint_bytes: u64,
    pub trace_events: u64,
    pub trace_dropped: u64,
}

impl Sample {
    pub fn report(&self, field: &str) -> f64 {
        self.report.field(field).expect("a field of the report")
    }
}

/// Spawn one sample and wait for it. `Err` is a failed sample: non-zero exit,
/// timeout, or an unreadable result line. (Wrong counts are the caller's check.)
pub fn take(req: &Request<'_>) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_path = req.tmp.join("sample.json");
    let ckpt_dir = req.workload.checkpoint.then(|| req.tmp.join("ckpt"));
    let mut cmd = Command::new(exe);
    cmd.arg("sample")
        .arg("--workload")
        .arg(req.workload.name)
        .arg("--input")
        .arg(req.input);
    if req.single_threaded {
        cmd.arg("--single-threaded");
    }
    if let Some(path) = req.trace_to {
        cmd.arg("--trace-to").arg(path);
    }
    if let Some(dir) = &ckpt_dir {
        // A fresh directory per sample: nothing to resume from, nothing left behind.
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        cmd.arg("--checkpoint-dir").arg(dir);
    }
    // The result goes through a file, not a pipe: a long line (a 65 536-bucket
    // histogram) must never block a child the parent is only polling.
    let out_file = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(out_file)
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let deadline = Instant::now() + TIMEOUT;
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("timed out after {} s", TIMEOUT.as_secs()));
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    let checkpoint_bytes = match &ckpt_dir {
        Some(dir) => {
            let bytes = dir_bytes(dir);
            let _ = fs::remove_dir_all(dir);
            bytes
        }
        None => 0,
    };
    if !status.success() {
        return Err(format!("sample process ended with {status}"));
    }
    let text = fs::read_to_string(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let _ = fs::remove_file(&out_path);
    let line = text.lines().last().ok_or("sample printed nothing")?;
    let mut sample = parse_line(line)?;
    sample.checkpoint_bytes = checkpoint_bytes;
    Ok(sample)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn parse_line(line: &str) -> Result<Sample, String> {
    let v = json::parse(line)?;
    let report = v.get("report").ok_or("missing `report`")?;
    let buckets = v.field("histogram_buckets")? as usize;
    let mut histogram = vec![0u64; buckets];
    for pair in v
        .get("histogram")
        .and_then(Value::arr)
        .ok_or("missing `histogram`")?
    {
        match pair.arr() {
            Some([c, n]) => {
                let c = c.num().ok_or("bad histogram pair")? as usize;
                *histogram
                    .get_mut(c)
                    .ok_or("histogram bucket out of range")? =
                    n.num().ok_or("bad histogram pair")? as u64;
            }
            _ => return Err("bad histogram pair".to_string()),
        }
    }
    let text = |key: &str| {
        v.get(key)
            .and_then(Value::str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing `{key}`"))
    };
    Ok(Sample {
        wall_s: v.field("wall_s")?,
        cpu_s: v.field("cpu_s")?,
        peak_rss_mb: v.field("peak_rss_mb")?,
        counts: Counts {
            histogram,
            retained: v.field("retained")? as u64,
            checksum: u64::from_str_radix(&text("checksum")?, 16).map_err(|e| e.to_string())?,
        },
        report: report.clone(),
        sorter: text("sorter")?,
        checkpoint_bytes: 0,
        trace_events: v.field("trace_events")? as u64,
        trace_dropped: v.field("trace_dropped")? as u64,
    })
}

// ---------------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------------

/// Arguments of the hidden `sample` subcommand.
pub struct ChildArgs {
    pub workload: String,
    pub input: PathBuf,
    pub single_threaded: bool,
    pub trace_to: Option<PathBuf>,
    pub checkpoint_dir: Option<PathBuf>,
}

pub fn child_main(args: &ChildArgs) -> Result<(), String> {
    let workload = workloads::find(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let workload = if args.single_threaded {
        workload.single_threaded()
    } else {
        *workload
    };
    if workload.k <= 32 {
        run::<Kmer1>(&workload, args)
    } else {
        run::<Kmer2>(&workload, args)
    }
}

fn run<K: KmerCode>(workload: &Workload, args: &ChildArgs) -> Result<(), String> {
    let cfg = workload.config(args.checkpoint_dir.as_deref());
    if args.trace_to.is_some() {
        hysortk_trace::enable(hysortk_trace::Detail::Round);
    }
    let start = Instant::now();
    let result: CountResult<K> =
        count_kmers_from_files_with(&[&args.input], &cfg, IngestOptions::default())
            .map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let usage = usage();

    let (mut trace_events, mut trace_dropped) = (0u64, 0u64);
    if let Some(path) = &args.trace_to {
        hysortk_trace::disable();
        let trace = hysortk_trace::collect();
        trace_events = trace.events.len() as u64;
        trace_dropped = trace.dropped;
        fs::write(path, trace.to_chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let checksum = result.counts.iter().fold(0u64, |sum, (kmer, count)| {
        sum.wrapping_add(pair_hash(key_of(kmer), *count))
    });
    let buckets = result.histogram.buckets();
    let histogram = (buckets.iter().enumerate())
        .filter(|(_, &n)| n > 0)
        .map(|(c, &n)| Value::Arr(vec![Value::from(c as u64), Value::from(n)]))
        .collect();

    let report = &result.report;
    let stage = |name: &str| report.stage_wall.get(name).map_or(0.0, |s| s.mean);
    let fields = [
        ("ingest_s", stage("ingest")),
        ("parse_s", stage("parse")),
        ("serialize_s", stage("serialize")),
        ("exchange_wait_s", stage("exchange-wait")),
        ("count_s", stage("count")),
        ("checkpoint_s", stage("checkpoint")),
        ("merge_s", stage("merge")),
        ("other_s", stage("other")),
        ("rank_wall_s", report.stage_wall.total_mean()),
        ("rank_straggler_s", report.stage_wall.total_max()),
        ("overlap_fraction", report.overlap_fraction),
        ("wire_bytes", report.total_wire_bytes as f64),
        ("heavy_tasks", report.heavy_tasks as f64),
        ("epochs_committed", report.epochs_committed as f64),
    ];
    let line = Value::obj([
        ("wall_s", Value::from(wall_s)),
        ("cpu_s", Value::from(usage.cpu_s)),
        ("peak_rss_mb", Value::from(usage.peak_rss_mb)),
        ("retained", Value::from(result.counts.len() as u64)),
        ("checksum", Value::Str(format!("{checksum:016x}"))),
        ("histogram_buckets", Value::from(buckets.len() as u64)),
        ("histogram", Value::Arr(histogram)),
        (
            "report",
            Value::obj(fields.map(|(k, v)| (k, Value::from(v)))),
        ),
        ("sorter", Value::Str(format!("{:?}", report.sorter))),
        ("simd", Value::from(report.simd)),
        ("trace_events", Value::from(trace_events)),
        ("trace_dropped", Value::from(trace_dropped)),
    ]);
    println!("{line}");
    Ok(())
}

/// The program's packed k-mer as the oracle's `u128`: words most significant first.
pub fn key_of<K: KmerCode>(kmer: &K) -> u128 {
    (kmer.word_slice().iter()).fold(0u128, |acc, &w| (acc << 64) | u128::from(w))
}

struct Usage {
    /// User + system CPU of this process and of every child it waited for (the
    /// process backend's forked ranks).
    cpu_s: f64,
    /// Largest resident set of any single process of the run: this one, or its
    /// largest forked rank.
    peak_rss_mb: f64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn usage() -> Usage {
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` of 64-bit Linux: two timevals, then 14 longs of which the
    /// first is `ru_maxrss` in KiB.
    #[repr(C)]
    #[derive(Default)]
    struct RUsage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        _rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    let read = |who: i32| {
        let mut u = RUsage::default();
        // SAFETY: `RUsage` has the size and layout of the C `struct rusage` on 64-bit
        // Linux (the cfg above), `u` is a valid, exclusively borrowed out-pointer, and
        // `getrusage` writes nothing else. It is `/proc/self/stat` with microsecond
        // instead of clock-tick CPU times, plus the peak RSS of reaped children, which
        // `/proc` does not keep.
        let rc = unsafe { getrusage(who, &mut u) };
        assert_eq!(rc, 0, "getrusage({who}) failed");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        (secs(&u.utime) + secs(&u.stime), u.maxrss)
    };
    // This process's own peak comes from `VmHWM`, not from `ru_maxrss`: at `exec` the
    // kernel folds the spawning harness's high-water mark into the new process's
    // `ru_maxrss`, so that field reports the oracle's memory, not the program's.
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let own_rss_kib: i64 = (status.lines())
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    let (own_cpu, _) = read(RUSAGE_SELF);
    let (child_cpu, child_rss_kib) = read(RUSAGE_CHILDREN);
    Usage {
        cpu_s: own_cpu + child_cpu,
        peak_rss_mb: own_rss_kib.max(child_rss_kib) as f64 / 1024.0,
    }
}
