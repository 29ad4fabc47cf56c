//! One workload, start to finish: set up the input and its oracle, take the timed
//! samples, and — for the per-layer numbers — a traced sample, a single-threaded
//! baseline sample and the layer replay.
//!
//! Samples never overlap: each child is waited for before the next is spawned.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hysortk_perfmodel::SortAlgorithm;

use crate::gen;
use crate::layers;
use crate::metrics::{median, Metric, PER_LAYER};
use crate::oracle::{self, Counts};
use crate::sample::{self, Request, Sample};
use crate::workloads::Workload;

/// A generated input on disk with what the program must output for it.
pub struct Prepared {
    pub path: PathBuf,
    pub reads: u64,
    pub bases: u64,
    pub expected: Counts,
    /// Seconds of each full set-up (generate, write, oracle).
    pub setup_s: Vec<f64>,
}

/// Set the workload's input up `reps` times (the last one stays on disk); the median
/// of the repetitions is `setup_s`.
pub fn prepare(
    w: &Workload,
    seed: u64,
    scale: f64,
    reps: usize,
    tmp: &Path,
) -> Result<Prepared, String> {
    let spec = w.input();
    let path = tmp.join(format!("{}.{}", spec.name, spec.format.extension()));
    let mut setup_s = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let input = gen::generate(spec, seed, scale);
        fs::write(&path, &input.bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        let expected = oracle::expected(&input.bytes, spec.format, w.k, w.min_count, w.max_count);
        setup_s.push(start.elapsed().as_secs_f64());
        last = Some((input.reads, input.bases, expected));
    }
    let (reads, bases, expected) = last.expect("at least one repetition");
    Ok(Prepared {
        path,
        reads,
        bases,
        expected,
        setup_s,
    })
}

/// Everything measured on one workload.
pub struct Measured {
    /// Verified runs attempted: the timed samples, plus — with tracing — the traced
    /// sample, the baseline sample and the replay.
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed run failed.
    pub failures: Vec<String>,
    /// The timed samples that passed verification.
    pub samples: Vec<Sample>,
    /// Every `metrics::PER_LAYER` metric with its value, when tracing was asked for.
    pub per_layer: Option<Vec<(Metric, f64)>>,
}

impl Measured {
    pub fn median_of(&self, f: impl Fn(&Sample) -> f64) -> f64 {
        median(&self.samples.iter().map(f).collect::<Vec<_>>())
    }
}

/// Timed samples are taken until this many seconds have passed, and at least
/// [`min_samples`] of them.
pub fn measure(
    w: &Workload,
    input: &Prepared,
    seconds: f64,
    trace: bool,
    tmp: &Path,
    out_dir: &Path,
) -> Result<Measured, String> {
    let request = Request {
        workload: w,
        input: &input.path,
        tmp,
        single_threaded: false,
        trace_to: None,
    };
    let mut m = Measured {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        samples: Vec::new(),
        per_layer: None,
    };
    let verified = |m: &mut Measured, what: &str, run: Result<Sample, String>| {
        m.attempted += 1;
        let run = run.and_then(|s| oracle::verify(&input.expected, &s.counts).map(|()| s));
        match run {
            Ok(sample) => Some(sample),
            Err(why) => {
                m.failed += 1;
                m.failures.push(format!("{}: {what}: {why}", w.name));
                None
            }
        }
    };

    // One discarded warm-up: fills the page cache with the input and the binary.
    sample::take(&request)?;
    let min_samples = if seconds > 0.0 { 3 } else { 1 };
    let start = Instant::now();
    while m.attempted < min_samples || start.elapsed().as_secs_f64() < seconds {
        if let Some(s) = verified(&mut m, "timed sample", sample::take(&request)) {
            m.samples.push(s);
        }
    }
    if m.samples.is_empty() {
        return Err(format!("no timed sample passed: {}", m.failures.join("; ")));
    }
    if !trace {
        return Ok(m);
    }

    let wall_s = m.median_of(|s| s.wall_s);

    // The flight recorder's cost: one sample with it on, against the untraced median.
    let trace_path = out_dir.join(format!("{}.program.trace.json", w.name));
    let traced = verified(
        &mut m,
        "traced sample",
        sample::take(&Request {
            trace_to: Some(&trace_path),
            ..request
        }),
    );
    // The plain single-threaded run of the same problem.
    let baseline = verified(
        &mut m,
        "single-threaded sample",
        sample::take(&Request {
            single_threaded: true,
            ..request
        }),
    );
    let sorter = match m.samples[0].sorter.as_str() {
        "Raduls" => SortAlgorithm::Raduls,
        _ => SortAlgorithm::Paradis,
    };
    m.attempted += 1;
    let replay = match layers::replay(w, &input.path, sorter)
        .and_then(|r| oracle::verify(&input.expected, &r.counts).map(|()| r))
    {
        Ok(replay) => replay,
        Err(why) => return Err(format!("{}: layer replay: {why}", w.name)),
    };
    let spans_path = out_dir.join(format!("{}.trace.json", w.name));
    fs::write(&spans_path, replay.spans.to_chrome_json())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let replayed = |name: &str| {
        let found = replay.metrics.iter().find(|(n, _)| *n == name);
        found.expect("a replay metric name").1
    };

    let report = |field: &str| m.median_of(|s| s.report(field));
    let ranks = w.ranks as f64;
    let width = (w.ranks * w.threads_per_rank) as f64;
    let checkpoint_bytes = m.median_of(|s| s.checkpoint_bytes as f64);
    let checkpoint_s = report("checkpoint_s");
    // Replay thread-seconds over the thread-seconds the pipeline spent in the bucket.
    let eff = |replay_thread_s: f64, bucket: &str| match report(bucket) {
        spent if spent > 0.0 => replay_thread_s / (spent * width),
        _ => 0.0,
    };
    let count_width = w.threads_per_rank as f64;
    let mut per_layer: Vec<(&'static str, f64)> = replay.metrics.clone();
    per_layer.extend([
        ("tasklayer.heavy_tasks", report("heavy_tasks")),
        ("checkpoint.commit_s", checkpoint_s),
        ("checkpoint.bytes", checkpoint_bytes),
        (
            "checkpoint.mb_per_s",
            if checkpoint_s > 0.0 {
                // Every rank writes its own manifests in parallel.
                checkpoint_bytes / 1e6 / ranks / checkpoint_s
            } else {
                0.0
            },
        ),
        ("checkpoint.epochs", report("epochs_committed")),
        ("pipeline.ingest_s", report("ingest_s")),
        ("pipeline.parse_s", report("parse_s")),
        ("pipeline.serialize_s", report("serialize_s")),
        ("pipeline.exchange_wait_s", report("exchange_wait_s")),
        ("pipeline.count_s", report("count_s")),
        ("pipeline.checkpoint_s", checkpoint_s),
        ("pipeline.merge_s", report("merge_s")),
        ("pipeline.other_s", report("other_s")),
        ("pipeline.rank_wall_s", report("rank_wall_s")),
        (
            "pipeline.rank_imbalance",
            m.median_of(|s| s.report("rank_straggler_s") / s.report("rank_wall_s")),
        ),
        ("pipeline.overlap_fraction", report("overlap_fraction")),
        ("pipeline.wire_bytes", report("wire_bytes")),
        (
            "pipeline.gather_s",
            m.median_of(|s| s.wall_s - s.report("rank_wall_s")),
        ),
        (
            "pipeline.par_eff",
            baseline.map_or(0.0, |b| b.wall_s / (width * wall_s)),
        ),
        ("eff.ingest", eff(replayed("dna.ingest_s"), "ingest_s")),
        ("eff.parse", eff(replayed("supermer.parse_s"), "parse_s")),
        (
            "eff.serialize",
            eff(replayed("wire.encode_s"), "serialize_s"),
        ),
        (
            "eff.count",
            eff(
                (replayed("stage3.index_s") + replayed("stage3.count_s")) * count_width,
                "count_s",
            ),
        ),
        (
            "trace.overhead_frac",
            traced.as_ref().map_or(0.0, |t| t.wall_s / wall_s - 1.0),
        ),
        (
            "trace.events",
            traced.as_ref().map_or(0.0, |t| t.trace_events as f64),
        ),
        (
            "trace.dropped",
            traced.as_ref().map_or(0.0, |t| t.trace_dropped as f64),
        ),
    ]);
    // Report in the declared order, and fail loudly if a declared metric is missing.
    let ordered = PER_LAYER
        .iter()
        .map(|metric| {
            let found = per_layer.iter().find(|(n, _)| *n == metric.name);
            let (_, value) =
                found.ok_or_else(|| format!("metric `{}` was not measured", metric.name))?;
            Ok((*metric, *value))
        })
        .collect::<Result<Vec<_>, String>>()?;
    m.per_layer = Some(ordered);
    Ok(m)
}
