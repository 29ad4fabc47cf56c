//! The `hysortk` command-line interface: count k-mers in real FASTA/FASTQ files.
//!
//! ```text
//! hysortk count reads.fa more_reads.fq -k 31 --ranks 8 --out histogram.tsv
//! ```
//!
//! Files are ingested through the chunked, rank-sharded streaming readers
//! (`hysortk_dna::io`): each simulated rank owns a byte range of the concatenated
//! input, realigned to record boundaries, and reads it in fixed-size blocks — memory
//! is bounded by the block size plus the packed (2-bit) reads, never by the ASCII
//! file size. Reads are split at ambiguous-base runs (`N` etc.), so no fabricated
//! k-mer is ever counted.
//!
//! The k-mer multiplicity histogram is written as TSV (`multiplicity\tdistinct`) to
//! `--out` (or stdout), and a run summary — distinct/retained k-mers, measured traffic
//! and wall time, and the stage times the paper's model projects for a workstation as
//! wide as the run's layout — goes to stderr. `--kmers <path>` also writes the retained
//! k-mers themselves as TSV (`k-mer\tcount`, ascending by k-mer): the run's result is
//! the sorted runs its count jobs emitted, and the writer merges them lazily as it
//! formats — the table is never built a second time.

#![forbid(unsafe_code)]

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use hysortk_core::ingest::{count_kmers_from_files_faulted, count_kmers_from_files_with};
use hysortk_core::model::{project, MachineConfig};
use hysortk_core::{CountResult, HySortKConfig, HysortkError, KmerRuns};
use hysortk_dmem::{Backend, FaultPlan};
use hysortk_dna::io::IngestOptions;
use hysortk_dna::kmer::{Kmer1, Kmer2, KmerCode};
use hysortk_trace::{Detail, Verbosity};

const USAGE: &str = "\
usage: hysortk count <files…> [options]

Count canonical k-mers in FASTA/FASTQ files with the HySortK pipeline.
Formats are detected per file (.fa/.fasta/.fna → FASTA, .fq/.fastq → FASTQ,
unknown extensions by first byte); FASTA and FASTQ may be mixed freely.

options:
  -k <n>             k-mer length, 1..=64 (default 31)
  -m <n>             minimizer length (default: the paper's rule, k/2 for k <= 34,
                     at least 3 and at most k; 23 for larger k)
  --ranks <n>        simulated ranks sharding the input (default 4)
  --threads <n>      threads per rank (default 2): the width of the rank's worker
                     pool, which parses in parallel and runs each exchange round's
                     serialize and count jobs side by side
  --min-count <n>    lowest multiplicity kept in the output (default 2)
  --max-count <n>    highest multiplicity kept in the output (default 50)
  --batch-size <n>   records per destination per exchange round (default 80000)
  --block-bytes <n>  bytes per thread per ingestion window (default 1 MiB)
  --no-overlap       bulk-synchronous ablation: the same round loop on one
                     unbounded round (serialize all, exchange, then count)
  --backend <b>      how ranks run: `thread` (in-process simulation, default) or
                     `process` (one forked OS process per rank, exchanges over
                     UNIX sockets — identical output, real transfer cost)
  --out <path>       write the multiplicity histogram TSV here (default stdout)
  --kmers <path>     also write the retained k-mers (multiplicity within
                     [--min-count, --max-count]) as TSV `k-mer<TAB>count`, ascending
                     by k-mer (A < C < G < T); merged from the result's sorted runs
                     while writing
  -h, --help         this help

observability:
  --trace <path>        record a flight-recorder timeline of the run and write it
                        as Chrome trace-event JSON (load in Perfetto or
                        chrome://tracing; pid = rank, tid = worker thread)
  --trace-detail <lvl>  trace granularity: stage (per-stage spans), round (adds
                        per-round exchange lanes + flow arrows; default), task
                        (adds per-task serialize, count and section spans)
  -v, --verbose         rank-tagged progress on stderr: faults fired, recovery
                        respawns, checkpoint commits
  --quiet               suppress the run summary (errors still print)

checkpointing & recovery:
  --checkpoint <dir>        commit an epoch manifest per rank after every committed
                            exchange round (torn-write-safe: tmp → fsync → rename)
  --checkpoint-every <n>    commit every n-th round instead of every round (default 1)
  --resume <dir>            restore the newest globally-consistent epoch from <dir>,
                            skip its committed rounds, and finish the run
  --recovery-attempts <n>   respawn the simulated ranks up to n times after an
                            in-run rank failure before aborting (default 2; 0 turns
                            in-run recovery off and restores fail-fast aborts)
  --fault <spec>            fault-injection spec for chaos testing (wins over the
                            HYSORTK_FAULT environment variable)

environment:
  HYSORTK_FAULT      `;`-separated fault-injection spec for chaos testing. Grammar:
                     `delay:R:STAGE:ROUND:MS`, `truncate:R:STAGE:ROUND:DEST:KEEP`,
                     `corrupt:R:STAGE:ROUND:DEST:BIT`, `fail:R:STAGE:ROUND` —
                     e.g. `delay:0:exchange:1:5;fail:2:exchange:0`
                     (see FaultPlan::from_spec). STAGE names a collective
                     (`task-sizes`, `exchange`) or a pipeline site: `serialize` (inside
                     a serialize job of that round) or `checkpoint` (mid-commit)

exit codes:
  0 success — including runs that hit injected/real rank failures but completed
    through in-run recovery (the summary then reports the recovery count),
  2 usage or configuration error, 3 input I/O error or malformed record,
  4 internal error (malformed wire data or a distributed-runtime abort that
    exhausted or bypassed recovery)
";

struct CliArgs {
    files: Vec<PathBuf>,
    k: usize,
    m: Option<usize>,
    ranks: usize,
    threads: usize,
    min_count: u64,
    max_count: u64,
    batch_size: usize,
    block_bytes: usize,
    overlap: bool,
    backend: Backend,
    out: Option<PathBuf>,
    kmers: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: usize,
    resume: Option<PathBuf>,
    recovery_attempts: Option<usize>,
    fault: Option<String>,
    trace: Option<PathBuf>,
    trace_detail: Detail,
    verbosity: Verbosity,
}

/// `Ok(None)` means help was explicitly requested (usage on stdout, exit 0);
/// `Err` is a genuine usage error (message + usage on stderr, exit 2).
fn parse_args(mut args: std::env::Args) -> Result<Option<CliArgs>, String> {
    let _bin = args.next();
    match args.next().as_deref() {
        Some("count") => {}
        Some("-h") | Some("--help") => return Ok(None),
        None => return Err(String::new()),
        Some(other) => return Err(format!("unknown command `{other}` (try `count`)")),
    }
    let mut cli = CliArgs {
        files: Vec::new(),
        k: 31,
        m: None,
        ranks: 4,
        threads: 2,
        min_count: 2,
        max_count: 50,
        batch_size: 80_000,
        block_bytes: 1 << 20,
        overlap: true,
        backend: Backend::Thread,
        out: None,
        kmers: None,
        checkpoint: None,
        checkpoint_every: 1,
        resume: None,
        recovery_attempts: None,
        fault: None,
        trace: None,
        trace_detail: Detail::Round,
        verbosity: Verbosity::Normal,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "-k" => cli.k = parse_num(&value("-k")?, "-k")?,
            "-m" => cli.m = Some(parse_num(&value("-m")?, "-m")?),
            "--ranks" => cli.ranks = parse_num(&value("--ranks")?, "--ranks")?,
            "--threads" => cli.threads = parse_num(&value("--threads")?, "--threads")?,
            "--min-count" => cli.min_count = parse_num(&value("--min-count")?, "--min-count")?,
            "--max-count" => cli.max_count = parse_num(&value("--max-count")?, "--max-count")?,
            "--batch-size" => cli.batch_size = parse_num(&value("--batch-size")?, "--batch-size")?,
            "--block-bytes" => {
                cli.block_bytes = parse_num(&value("--block-bytes")?, "--block-bytes")?
            }
            "--no-overlap" => cli.overlap = false,
            "--backend" => {
                let name = value("--backend")?;
                cli.backend = Backend::from_name(&name)
                    .ok_or_else(|| format!("unknown backend `{name}` (try thread or process)"))?;
            }
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--kmers" => cli.kmers = Some(PathBuf::from(value("--kmers")?)),
            "--checkpoint" => cli.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--checkpoint-every" => {
                cli.checkpoint_every =
                    parse_num(&value("--checkpoint-every")?, "--checkpoint-every")?
            }
            "--resume" => cli.resume = Some(PathBuf::from(value("--resume")?)),
            "--recovery-attempts" => {
                cli.recovery_attempts = Some(parse_num(
                    &value("--recovery-attempts")?,
                    "--recovery-attempts",
                )?)
            }
            "--fault" => cli.fault = Some(value("--fault")?),
            "--trace" => cli.trace = Some(PathBuf::from(value("--trace")?)),
            "--trace-detail" => cli.trace_detail = Detail::parse(&value("--trace-detail")?)?,
            "-v" | "--verbose" => cli.verbosity = Verbosity::Verbose,
            "--quiet" => cli.verbosity = Verbosity::Quiet,
            "-h" | "--help" => return Ok(None),
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            file => cli.files.push(PathBuf::from(file)),
        }
    }
    if cli.files.is_empty() {
        return Err("no input files given".to_string());
    }
    if let (Some(ckpt), Some(resume)) = (&cli.checkpoint, &cli.resume) {
        if ckpt != resume {
            return Err(format!(
                "--checkpoint {} and --resume {} name different directories",
                ckpt.display(),
                resume.display()
            ));
        }
    }
    Ok(Some(cli))
}

fn parse_num<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("invalid value `{s}` for {name}"))
}

fn config_for(cli: &CliArgs) -> HySortKConfig {
    let m = cli.m.unwrap_or_else(|| HySortKConfig::recommended_m(cli.k));
    let mut cfg = HySortKConfig::small_with_threads(cli.k, m, cli.ranks, cli.threads);
    cfg.min_count = cli.min_count;
    cfg.max_count = cli.max_count;
    cfg.batch_size = cli.batch_size;
    cfg.overlap = cli.overlap;
    cfg.backend = cli.backend;
    // `--resume <dir>` implies checkpointing into the same directory, so the finished
    // run is durable end to end (and the run can be killed and resumed again).
    cfg.checkpoint_dir = cli.resume.clone().or_else(|| cli.checkpoint.clone());
    cfg.checkpoint_every = cli.checkpoint_every;
    cfg.resume = cli.resume.is_some();
    if let Some(n) = cli.recovery_attempts {
        cfg.recovery_attempts = n;
    }
    cfg
}

/// Resolve the fault-injection plan, if any (the chaos-testing hook: CI runs the CLI
/// under fixed fault specs and checks the typed exits). The `--fault` flag wins over
/// the `HYSORTK_FAULT` environment variable; both use the same spec grammar.
fn fault_plan_for(cli: &CliArgs) -> Result<Option<Arc<FaultPlan>>, HysortkError> {
    let (spec, origin) = match &cli.fault {
        Some(spec) => (Some(spec.clone()), "--fault"),
        None => (std::env::var("HYSORTK_FAULT").ok(), "HYSORTK_FAULT"),
    };
    match spec {
        Some(spec) if !spec.trim().is_empty() => {
            let plan = FaultPlan::from_spec(&spec)
                .map_err(|e| HysortkError::Config(format!("{origin}: {e}")))?;
            Ok(Some(Arc::new(plan)))
        }
        _ => Ok(None),
    }
}

fn run<K: KmerCode>(cli: &CliArgs, cfg: &HySortKConfig) -> Result<(), HysortkError> {
    let opts = IngestOptions {
        block_bytes: cli.block_bytes,
        ..IngestOptions::default()
    };
    let start = std::time::Instant::now();
    let result: CountResult<K> = match fault_plan_for(cli)? {
        Some(plan) => count_kmers_from_files_faulted(&cli.files, cfg, opts, plan)?,
        None => count_kmers_from_files_with(&cli.files, cfg, opts)?,
    };
    let wall = start.elapsed().as_secs_f64();

    let tsv = result.histogram.to_tsv();
    let write_err = |path: String, source: std::io::Error| HysortkError::Io {
        path,
        rank: 0,
        source,
    };
    match &cli.out {
        Some(path) => {
            std::fs::write(path, tsv).map_err(|e| write_err(path.display().to_string(), e))?
        }
        None => std::io::stdout()
            .write_all(tsv.as_bytes())
            .map_err(|e| write_err("<stdout>".to_string(), e))?,
    }
    if let Some(path) = &cli.kmers {
        write_kmers(&result.counts, cfg.k, path)
            .map_err(|e| write_err(path.display().to_string(), e))?;
    }

    let report = &result.report;
    if cli.verbosity == Verbosity::Quiet {
        return Ok(());
    }
    eprintln!(
        "[hysortk] {} file(s), k={} m={} ranks × threads = {} × {} overlap={} backend={}",
        cli.files.len(),
        cfg.k,
        cfg.m,
        cfg.total_ranks(),
        cfg.threads_per_process,
        cfg.overlap,
        cfg.backend,
    );
    eprintln!(
        "[hysortk] {} k-mer instances, {} distinct, {} retained in [{}, {}]: \
         {} sorted run(s), {:.2} MB, {}",
        report.total_kmers,
        report.distinct_kmers,
        report.retained_kmers,
        cfg.min_count,
        cfg.max_count,
        report.result_runs,
        report.result_bytes as f64 / 1e6,
        if cli.kmers.is_some() {
            "merged for --kmers"
        } else {
            "not merged"
        },
    );
    let exchange = report.comm.stage("exchange");
    eprintln!(
        "[hysortk] exchange: {} payload bytes over {} round(s) ({} bytes staged on the \
         fullest rank, {} section(s) per task, {} bytes of count buffers), sorter {:?}, {} \
         heavy task(s)",
        exchange.map_or(0, |s| s.payload_bytes),
        exchange.map_or(0, |s| s.rounds),
        report.staged_bytes,
        report.sections,
        report.count_buffer_bytes,
        report.sorter,
        report.heavy_tasks,
    );
    eprintln!("[hysortk] simd hot paths: {}", report.simd);
    if report.recoveries > 0 {
        eprintln!(
            "[hysortk] {} in-run rank recovery(ies): failed ranks were respawned and \
             the run completed",
            report.recoveries,
        );
    }
    if report.epochs_committed > 0 {
        eprintln!(
            "[hysortk] {} checkpoint epoch(s) committed",
            report.epochs_committed,
        );
    }
    // The modeled node is a workstation with a core for every thread of the layout.
    let cores = (cfg.processes_per_node * cfg.threads_per_process).max(8);
    let modeled = project(report, cfg, &MachineConfig::workstation(cores, 32))
        .map_err(HysortkError::Config)?;
    eprintln!(
        "[hysortk] modeled: padded Alltoall of {} wire bytes over {} round(s), time {:.4}s \
         ({}); measured wall {:.2}s",
        modeled.total_wire_bytes,
        modeled.rounds,
        modeled.total_time(),
        modeled.stage_times.summary(),
        wall,
    );
    eprintln!(
        "[hysortk] measured rank wall mean {:.3}s (straggler bound {:.3}s), \
         result gather {:.3}s: {}",
        report.stage_wall.total_mean(),
        report.stage_wall.total_max(),
        report.gather_s,
        report.stage_wall.summary(),
    );
    if let Some(path) = &cli.out {
        eprintln!("[hysortk] histogram written to {}", path.display());
    }
    if let Some(path) = &cli.kmers {
        eprintln!("[hysortk] retained k-mers written to {}", path.display());
    }
    Ok(())
}

/// Write the retained k-mers as `k-mer\tcount` lines in ascending k-mer order: the
/// lazy merge of the result's sorted runs, formatted as it is produced.
fn write_kmers<K: KmerCode>(counts: &KmerRuns<K>, k: usize, path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (kmer, count) in counts.sorted() {
        writeln!(out, "{}\t{count}", kmer.to_dna_string(k))?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args()) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("hysortk: {msg}");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.k == 0 || cli.k > 64 {
        eprintln!("hysortk: k = {} out of supported range 1..=64", cli.k);
        return ExitCode::from(2);
    }
    let cfg = config_for(&cli);
    if let Err(e) = cfg.validate() {
        eprintln!("hysortk: invalid configuration: {e}");
        return ExitCode::from(2);
    }
    hysortk_trace::set_verbosity(cli.verbosity);
    if cli.trace.is_some() {
        hysortk_trace::enable(cli.trace_detail);
    }
    let outcome = if cli.k <= 32 {
        run::<Kmer1>(&cli, &cfg)
    } else {
        run::<Kmer2>(&cli, &cfg)
    };
    // The trace is written even when the run failed: a timeline ending at the fault
    // is exactly what post-mortem debugging wants.
    if let Some(path) = &cli.trace {
        let tr = hysortk_trace::collect();
        if tr.dropped > 0 {
            eprintln!(
                "[hysortk] warning: {} trace event(s) dropped to ring-buffer wraps",
                tr.dropped
            );
        }
        match std::fs::write(path, tr.to_chrome_json()) {
            Ok(()) => {
                if cli.verbosity != Verbosity::Quiet {
                    eprintln!(
                        "[hysortk] trace ({} events, detail {}) written to {}",
                        tr.events.len(),
                        cli.trace_detail.name(),
                        path.display()
                    );
                }
            }
            Err(e) => eprintln!(
                "[hysortk] warning: cannot write trace {}: {e}",
                path.display()
            ),
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hysortk: {e}");
            ExitCode::from(e.exit_code() as u8)
        }
    }
}
