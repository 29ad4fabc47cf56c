//! The frozen benchmark of hysortk-rs. See `README.md` beside this package.
//!
//! ```text
//! benchmark run [--seed N] [--sets N] [--quick] [--scale X] [--seconds S]
//!     every workload: tables on stdout, out/results.json, exit 1 on any failure
//! benchmark run --workload W --seed N --seconds S --trace 0|1
//!     one workload, one JSON result line last on stdout (the driver's form)
//! ```

mod gen;
mod json;
mod layers;
mod metrics;
mod oracle;
mod run;
mod sample;
mod workloads;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Value;
use metrics::{median, Metric, END_TO_END};
use run::{Measured, Prepared};
use workloads::{Workload, DEFAULT_SCALE, QUICK_SCALE, WORKLOADS};

/// Set-ups per run when `setup_s` is reported: the median of three.
const SETUP_REPS: usize = 3;

/// `run_seconds` of `BENCHMARK.json`: how long the timed samples of a workload last
/// when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    scale: Option<f64>,
    quick: bool,
    sets: usize,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a)),
        Some("sample") => {
            parse_sample(&args[1..]).and_then(|a| sample::child_main(&a).map(|()| true))
        }
        _ => Err(
            "usage: benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                  [--scale X] [--quick] [--sets N]"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

fn flag_value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("bad value `{text}` for {flag}"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        scale: None,
        quick: false,
        sets: 1,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => a.workload = Some(flag_value(args, &mut i)?.to_string()),
            "--seed" => a.seed = number(flag, flag_value(args, &mut i)?)?,
            "--seconds" => a.seconds = Some(number(flag, flag_value(args, &mut i)?)?),
            "--trace" => a.trace = Some(number::<u8>(flag, flag_value(args, &mut i)?)? != 0),
            "--scale" => a.scale = Some(number(flag, flag_value(args, &mut i)?)?),
            "--sets" => a.sets = number(flag, flag_value(args, &mut i)?)?,
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if a.scale.is_some_and(|s| !(s > 0.0 && s <= 4.0)) {
        return Err("--scale must be in (0, 4]".to_string());
    }
    if a.sets == 0 {
        return Err("--sets must be at least 1".to_string());
    }
    Ok(a)
}

fn parse_sample(args: &[String]) -> Result<sample::ChildArgs, String> {
    let mut a = sample::ChildArgs {
        workload: String::new(),
        input: PathBuf::new(),
        single_threaded: false,
        trace_to: None,
        checkpoint_dir: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => a.workload = flag_value(args, &mut i)?.to_string(),
            "--input" => a.input = flag_value(args, &mut i)?.into(),
            "--trace-to" => a.trace_to = Some(flag_value(args, &mut i)?.into()),
            "--checkpoint-dir" => a.checkpoint_dir = Some(flag_value(args, &mut i)?.into()),
            "--single-threaded" => a.single_threaded = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(a)
}

/// The scratch directory of this invocation, removed again when the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn run(args: &RunArgs) -> Result<bool, String> {
    // A timed sample must run the code a user runs: no scalar fallback, no injected
    // faults. (Tracing is switched on by the harness alone, for the traced sample.)
    for var in ["HYSORTK_NO_SIMD", "HYSORTK_FAULT"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "refusing to measure with {var} set in the environment"
            ));
        }
    }
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let tmp = TempDir(out_dir.join(format!("tmp-{}", std::process::id())));
    fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;

    let scale = args.scale.unwrap_or(if args.quick {
        QUICK_SCALE
    } else {
        DEFAULT_SCALE
    });
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 0.0 } else { DEFAULT_SECONDS });
    match &args.workload {
        Some(name) => {
            let w = workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            let trace = args.trace.unwrap_or(false);
            // Set-up time is only reported without tracing; one set-up is enough with.
            let reps = if trace { 1 } else { SETUP_REPS };
            let input = run::prepare(w, args.seed, scale, reps, &tmp.0)?;
            let m = run::measure(w, &input, seconds, trace, &tmp.0, &out_dir)?;
            for why in &m.failures {
                eprintln!("benchmark: FAILED {why}");
            }
            let walls: Vec<f64> = m.samples.iter().map(|s| s.wall_s).collect();
            eprintln!(
                "benchmark: {name}: set-up {:.3?} s, sample walls {walls:.3?} s",
                input.setup_s
            );
            let metrics = match &m.per_layer {
                Some(layers) => metric_values(layers.iter().copied()),
                None => metric_values(end_to_end(&input, &m).iter().map(|s| (s.metric, s.value))),
            };
            println!(
                "{}",
                Value::obj([
                    ("correct", Value::Bool(m.failed == 0)),
                    ("attempted", Value::from(m.attempted)),
                    ("failed", Value::from(m.failed)),
                    ("metrics", metrics),
                ])
            );
            Ok(m.failed == 0)
        }
        None => run_all(args, scale, seconds, &tmp.0, &out_dir),
    }
}

/// One end-to-end metric of one workload: the median over the timed samples (or over
/// the set-up repetitions), with the extremes and the count behind it.
struct Stat {
    metric: Metric,
    value: f64,
    min: f64,
    max: f64,
    n: usize,
}

fn end_to_end(input: &Prepared, m: &Measured) -> Vec<Stat> {
    let of = |f: &dyn Fn(&sample::Sample) -> f64| m.samples.iter().map(f).collect::<Vec<f64>>();
    let bases = input.bases as f64;
    let columns: [Vec<f64>; 5] = [
        of(&|s| s.wall_s),
        of(&|s| bases / s.wall_s),
        of(&|s| s.cpu_s),
        of(&|s| s.peak_rss_mb),
        input.setup_s.clone(),
    ];
    (END_TO_END.iter().zip(columns))
        .map(|((metric, _), values)| Stat {
            metric: *metric,
            value: median(&values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        })
        .collect()
}

/// `{name: {"value": v, "unit": u}}`, the shape the driver reads.
fn metric_values(rows: impl Iterator<Item = (Metric, f64)>) -> Value {
    Value::obj(rows.map(|(metric, value)| {
        let fields = [
            ("value", Value::from(value)),
            ("unit", Value::from(metric.unit)),
        ];
        (metric.name, Value::obj(fields))
    }))
}

/// The full benchmark: every workload with its per-layer numbers, `sets` times over.
fn run_all(
    args: &RunArgs,
    scale: f64,
    seconds: f64,
    tmp: &Path,
    out_dir: &Path,
) -> Result<bool, String> {
    let host = host_block(args.seed, scale, seconds);
    println!("host: {host}");
    let mut ok = true;
    // medians[set][workload][metric]
    let mut medians: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut last_set = Vec::new();
    let mut violations = Vec::new();
    for set in 0..args.sets {
        let mut set_medians = Vec::new();
        last_set.clear();
        // Workloads that share an input and an oracle share one set-up.
        let mut prepared: Vec<(&Workload, Prepared)> = Vec::new();
        for w in &WORKLOADS {
            let same = |p: &Workload| {
                (p.input, p.k, p.min_count, p.max_count) == (w.input, w.k, w.min_count, w.max_count)
            };
            if !prepared.iter().any(|(p, _)| same(p)) {
                prepared.push((w, run::prepare(w, args.seed, scale, SETUP_REPS, tmp)?));
            }
            let (_, input) = prepared
                .iter()
                .find(|(p, _)| same(p))
                .expect("just prepared");
            let m = run::measure(w, input, seconds, true, tmp, out_dir)?;
            let stats = end_to_end(input, &m);
            print_workload(set, w, input, &m, &stats);
            ok &= m.failed == 0;
            let layers = m.per_layer.as_deref().unwrap_or_default();
            if !args.quick && scale >= DEFAULT_SCALE {
                violations.extend(metrics::design_violations(w.name, |name| {
                    let e2e = stats.iter().map(|s| (s.metric, s.value));
                    let found = e2e
                        .chain(layers.iter().copied())
                        .find(|(m, _)| m.name == name);
                    found.expect("a declared metric name").1
                }));
            }
            set_medians.push(stats.iter().map(|s| s.value).collect::<Vec<f64>>());
            last_set.push(Value::obj([
                ("name", Value::from(w.name)),
                ("backend", Value::Str(w.backend.to_string())),
                ("ranks", Value::from(w.ranks as u64)),
                ("threads_per_rank", Value::from(w.threads_per_rank as u64)),
                ("reads", Value::from(input.reads)),
                ("bases", Value::from(input.bases)),
                ("attempted", Value::from(m.attempted)),
                ("failed", Value::from(m.failed)),
                (
                    "failures",
                    Value::Arr(m.failures.iter().map(|f| Value::from(f.as_str())).collect()),
                ),
                (
                    "end_to_end",
                    Value::obj(stats.iter().map(|s| {
                        let fields = [
                            ("value", Value::from(s.value)),
                            ("unit", Value::from(s.metric.unit)),
                            ("min", Value::from(s.min)),
                            ("max", Value::from(s.max)),
                            ("n", Value::from(s.n as u64)),
                        ];
                        (s.metric.name, Value::obj(fields))
                    })),
                ),
                ("per_layer", metric_values(layers.iter().copied())),
            ]));
        }
        medians.push(set_medians);
    }

    let calibration = calibrate(&medians);
    ok &= calibration.iter().all(|row| row.within);
    if args.sets > 1 {
        println!(
            "\nnoise calibration over {} sets (spread = (max - min) / median of the set medians)",
            args.sets
        );
        for row in &calibration {
            println!(
                "  {:<16} {:<12} spread {:>6.2} %  bound {:>4.0} %  {}  medians {:?}",
                row.workload,
                row.metric,
                row.spread * 100.0,
                row.bound * 100.0,
                if row.within { "ok" } else { "EXCEEDS BOUND" },
                row.medians
            );
        }
    }
    for v in &violations {
        println!("design check failed: {v}");
    }
    ok &= violations.is_empty();

    let results = Value::obj([
        ("host", host),
        ("workloads", Value::Arr(last_set)),
        (
            "calibration",
            Value::Arr(
                calibration
                    .iter()
                    .map(|row| {
                        Value::obj([
                            ("workload", Value::from(row.workload)),
                            ("metric", Value::from(row.metric)),
                            (
                                "set_medians",
                                Value::Arr(row.medians.iter().map(|&v| Value::from(v)).collect()),
                            ),
                            ("spread", Value::from(row.spread)),
                            ("bound", Value::from(row.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "design_violations",
            Value::Arr(violations.iter().map(|v| Value::from(v.as_str())).collect()),
        ),
    ]);
    let path = out_dir.join("results.json");
    fs::write(&path, format!("{results}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(ok)
}

struct CalibrationRow {
    workload: &'static str,
    metric: &'static str,
    medians: Vec<f64>,
    spread: f64,
    bound: f64,
    within: bool,
}

/// Spread of each end-to-end metric's set medians against its bound. `setup_s` is
/// listed but never fails the run: the driver, too, judges it by its median only.
fn calibrate(medians: &[Vec<Vec<f64>>]) -> Vec<CalibrationRow> {
    let mut rows = Vec::new();
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, (metric, bound)) in END_TO_END.iter().enumerate() {
            let per_set: Vec<f64> = medians.iter().map(|set| set[wi][mi]).collect();
            let lo = per_set.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = per_set.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = (hi - lo) / median(&per_set);
            rows.push(CalibrationRow {
                workload: w.name,
                metric: metric.name,
                medians: per_set,
                spread,
                bound: *bound,
                within: spread <= *bound || metric.name == "setup_s",
            });
        }
    }
    rows
}

fn print_workload(set: usize, w: &Workload, input: &Prepared, m: &Measured, stats: &[Stat]) {
    println!(
        "\n== set {} · {} · {} rank(s) x {} thread(s), {} backend · {} reads, {} bases · {} of {} runs failed",
        set + 1,
        w.name,
        w.ranks,
        w.threads_per_rank,
        w.backend,
        input.reads,
        input.bases,
        m.failed,
        m.attempted
    );
    for why in &m.failures {
        println!("   FAILED {why}");
    }
    for s in stats {
        println!(
            "   {:<34} {:>16.4} {:<9} min {:.4}  max {:.4}  n {}",
            s.metric.name, s.value, s.metric.unit, s.min, s.max, s.n
        );
    }
    for (metric, value) in m.per_layer.iter().flatten() {
        println!("   {:<34} {:>16.4} {}", metric.name, value, metric.unit);
    }
}

fn host_block(seed: u64, scale: f64, seconds: f64) -> Value {
    let first_line = |path: &str, key: &str| {
        let text = fs::read_to_string(path).unwrap_or_default();
        let line = text
            .lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_default();
        line.split_once(':')
            .map_or(String::new(), |(_, v)| v.trim().to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    Value::obj([
        ("nproc", Value::from(nproc as u64)),
        // Every workload runs 2 threads in total, whatever the host has.
        ("oversubscribed", Value::Bool(nproc < 2)),
        (
            "cpu_model",
            Value::Str(first_line("/proc/cpuinfo", "model name")),
        ),
        (
            "mem_total",
            Value::Str(first_line("/proc/meminfo", "MemTotal")),
        ),
        ("simd", Value::from(hysortk_dna::simd::path_name())),
        ("seed", Value::from(seed)),
        ("scale", Value::from(scale)),
        ("seconds", Value::from(seconds)),
        ("git_commit", Value::Str(commit)),
    ])
}
