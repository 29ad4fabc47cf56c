//! Chaos property harness: the file-fed pipeline under seeded fault injection.
//!
//! Every schedule drives the full pipeline — streaming ingestion, task-size
//! allreduce, (non-)blocking exchange, sort & count — with one deterministic fault
//! from [`FaultPlan::seeded`], across rank counts {1, 2, 7} and both execution modes,
//! the overlapped one at one and at two threads per rank.
//! Each run must satisfy the trichotomy:
//!
//! 1. **byte-identical counts** to the healthy baseline (the fault was absorbed:
//!    a delay, a no-op corruption — or a killed rank that in-run recovery
//!    respawned), or
//! 2. a **typed error** naming the injected fault or the wire defect it caused, or
//! 3. a **clean abort** where every peer unblocks with a `PeerFailed`-rooted error —
//!    never a hang, never a silently wrong histogram.
//!
//! A wall-clock watchdog turns any deadlock into a test failure instead of a stuck
//! CI job.

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use hysortk_core::ingest::{count_kmers_from_files_faulted, count_kmers_from_files_with};
use hysortk_core::{CountResult, HySortKConfig, HysortkError};
use hysortk_dmem::{FaultKind, FaultPlan};
use hysortk_dna::io::IngestOptions;
use hysortk_dna::kmer::Kmer1;
use hysortk_dna::{fasta, ReadSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hysortk_chaos_{}_{tag}", std::process::id()))
}

fn overlapping_reads(seed: u64) -> ReadSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let genome: Vec<u8> = (0..2_000).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
    let reads: Vec<Vec<u8>> = (0..60)
        .map(|_| {
            let start = rng.gen_range(0..genome.len() - 220);
            genome[start..start + 220].to_vec()
        })
        .collect();
    ReadSet::from_ascii_reads(&reads)
}

fn chaos_cfg(ranks: usize, overlap: bool) -> HySortKConfig {
    chaos_cfg_with_threads(ranks, overlap, 2)
}

/// [`chaos_cfg`] with `threads` threads per rank: the overlapped round loop runs each
/// step's count jobs side by side at 2, front to back at 1, and fills the next round
/// on the rank's own thread either way.
fn chaos_cfg_with_threads(ranks: usize, overlap: bool, threads: usize) -> HySortKConfig {
    let mut cfg = HySortKConfig::small_with_threads(21, 9, ranks, threads);
    cfg.min_count = 1;
    cfg.max_count = 1_000_000;
    // A small round budget forces several exchange rounds, so round-targeted faults
    // (round 1..4) actually have somewhere to land.
    cfg.batch_size = 200;
    cfg.overlap = overlap;
    cfg
}

/// Run `f` on its own thread with a wall-clock deadline: a deadlocked cluster fails
/// the test instead of hanging it. The result travels back over a channel; a panic in
/// `f` is re-raised by the join.
fn with_deadline<T: Send + 'static>(
    label: String,
    deadline: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(deadline) {
        Ok(value) => {
            handle.join().expect("chaos worker panicked after sending");
            value
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The closure panicked before sending; join to re-raise the panic.
            handle.join().expect("chaos worker panicked");
            unreachable!("worker disconnected without panicking");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: no result within {deadline:?} — the cluster deadlocked")
        }
    }
}

type ChaosOutcome = Result<CountResult<Kmer1>, HysortkError>;

fn run_faulted(path: &Path, cfg: &HySortKConfig, plan: &Arc<FaultPlan>) -> ChaosOutcome {
    let label = format!(
        "ranks={} threads={} overlap={} plan[{}]",
        cfg.total_ranks(),
        cfg.threads_per_process,
        cfg.overlap,
        plan.describe()
    );
    let path = path.to_path_buf();
    let cfg = cfg.clone();
    let plan = Arc::clone(plan);
    with_deadline(label, Duration::from_secs(120), move || {
        count_kmers_from_files_faulted::<Kmer1, _>(&[&path], &cfg, IngestOptions::default(), plan)
    })
}

/// The tentpole: ≥ 50 seeded fault schedules across rank counts and execution modes,
/// each checked against the trichotomy. `FaultPlan::seeded` draws uniformly from all
/// four fault kinds (delays, truncations, corruptions, rank failures), and each of them
/// fires in some schedule.
#[test]
fn seeded_fault_schedules_never_hang_and_never_corrupt_counts() {
    let reads = overlapping_reads(77);
    let path = tmp_path("seeded.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();

    let mut schedules = 0usize;
    let mut absorbed = 0usize;
    let mut errored = 0usize;
    let mut fired_kinds = BTreeSet::new();
    for ranks in [1usize, 2, 7] {
        for (overlap, threads) in [(false, 2), (true, 1), (true, 2)] {
            let cfg = chaos_cfg_with_threads(ranks, overlap, threads);
            let baseline =
                count_kmers_from_files_with::<Kmer1, _>(&[&path], &cfg, IngestOptions::default())
                    .expect("healthy run");
            for seed in 0..9u64 {
                schedules += 1;
                let plan = Arc::new(FaultPlan::seeded(seed, ranks, 4));
                let (_, kind) = plan.iter().next().expect("seeded plan holds one fault");
                let outcome = run_faulted(&path, &cfg, &plan);
                let fired = plan.fired_count() > 0;
                if fired {
                    fired_kinds.insert(kind.name());
                }
                let ctx = format!(
                    "seed={seed} ranks={ranks} overlap={overlap} threads={threads} fault={} \
                     fired={fired}",
                    plan.describe()
                );
                match outcome {
                    Ok(result) => {
                        absorbed += 1;
                        // Absorbed faults must leave the histogram byte-identical —
                        // a "successful" run with different counts is the one
                        // forbidden outcome.
                        assert_eq!(result.counts, baseline.counts, "{ctx}");
                        assert_eq!(result.histogram, baseline.histogram, "{ctx}");
                        if fired && matches!(kind, FaultKind::FailRank) {
                            // A killed rank can only land in the absorbed arm via
                            // in-run recovery, and the report must say so.
                            assert!(
                                result.report.recoveries >= 1,
                                "{ctx}: a fired rank failure absorbed without recovery"
                            );
                        }
                    }
                    Err(e) => {
                        errored += 1;
                        assert!(fired, "{ctx}: error {e} without any fault firing");
                        assert!(
                            matches!(e.exit_code(), 3 | 4),
                            "{ctx}: unexpected exit code for {e}"
                        );
                        if matches!(kind, FaultKind::FailRank) {
                            // Aggregation must keep the root cause, not a peer echo.
                            assert!(
                                e.to_string().contains("injected fault"),
                                "{ctx}: expected the injected fault as root cause, got {e}"
                            );
                        }
                        assert!(
                            !matches!(kind, FaultKind::DelayPost { .. }),
                            "{ctx}: a pure delay must never fail a run, got {e}"
                        );
                    }
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(schedules >= 50, "only {schedules} schedules ran");
    assert_eq!(
        fired_kinds.len(),
        4,
        "only {fired_kinds:?} fired: the schedules miss a fault kind"
    );
    // The seeded generator draws all four kinds, so both arms of the trichotomy must
    // be populated — otherwise the harness is vacuous.
    assert!(absorbed > 0, "no schedule was absorbed cleanly");
    assert!(errored > 0, "no schedule surfaced a typed error");
}

/// Pinned regression: with recovery disabled, a rank failing mid-exchange unblocks
/// every peer, and the aggregated error names the injected failure (not a timeout,
/// not a peer echo). `recovery_attempts = 0` restores the fail-fast contract that
/// in-run recovery would otherwise absorb.
#[test]
fn rank_failure_mid_exchange_unblocks_all_peers_when_recovery_is_off() {
    let reads = overlapping_reads(78);
    let path = tmp_path("failrank.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    for overlap in [false, true] {
        let mut cfg = chaos_cfg(4, overlap);
        cfg.recovery_attempts = 0;
        let plan = Arc::new(FaultPlan::new().with_fault(1, "exchange", 0, FaultKind::FailRank));
        let err = run_faulted(&path, &cfg, &plan).expect_err("rank 1 was killed");
        assert_eq!(err.exit_code(), 4, "overlap={overlap}");
        let msg = err.to_string();
        assert!(
            msg.contains("injected fault") && msg.contains("rank 1"),
            "overlap={overlap}: {msg}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// A rank dying *inside a fill* of the round loop — the site no exchange-stage fault
/// reaches, on the rank's own thread once the step's count jobs have returned — is the
/// same typed, attributed abort with recovery off and the same byte-identical recovery
/// with it on, whether the count jobs run side by side (2 threads) or front to back
/// (1 thread).
#[test]
fn a_rank_dying_inside_a_serialize_job_aborts_cleanly_or_recovers() {
    let reads = overlapping_reads(85);
    let path = tmp_path("serializejob.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    for threads in [1usize, 2] {
        let mut cfg = chaos_cfg_with_threads(4, true, threads);
        let baseline =
            count_kmers_from_files_with::<Kmer1, _>(&[&path], &cfg, IngestOptions::default())
                .expect("healthy run");
        let kill = || Arc::new(FaultPlan::new().with_fault(1, "serialize", 1, FaultKind::FailRank));

        let plan = kill();
        let result =
            run_faulted(&path, &cfg, &plan).unwrap_or_else(|e| panic!("threads={threads}: {e}"));
        assert_eq!(plan.fired_count(), 1, "threads={threads}");
        assert_eq!(result.counts, baseline.counts, "threads={threads}");
        assert_eq!(result.histogram, baseline.histogram, "threads={threads}");
        assert!(result.report.recoveries >= 1, "threads={threads}");

        cfg.recovery_attempts = 0;
        let err = run_faulted(&path, &cfg, &kill()).expect_err("rank 1 was killed");
        assert_eq!(err.exit_code(), 4, "threads={threads}");
        let msg = err.to_string();
        assert!(
            msg.contains("injected fault") && msg.contains("rank 1") && msg.contains("serialize"),
            "threads={threads}: {msg}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// The acceptance matrix for in-run recovery: on clusters of 2 and 7 ranks, in both
/// execution modes, a single injected rank failure is healed by respawning the
/// failed rank, and the run completes with counts byte-identical to the fault-free
/// baseline.
#[test]
fn killed_ranks_recover_in_run_to_byte_identical_counts() {
    let reads = overlapping_reads(81);
    let path = tmp_path("recover.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    for ranks in [2usize, 7] {
        for overlap in [false, true] {
            let cfg = chaos_cfg(ranks, overlap);
            let baseline =
                count_kmers_from_files_with::<Kmer1, _>(&[&path], &cfg, IngestOptions::default())
                    .expect("healthy run");
            let victim = ranks - 1;
            let plan =
                Arc::new(FaultPlan::new().with_fault(victim, "exchange", 0, FaultKind::FailRank));
            let result = run_faulted(&path, &cfg, &plan)
                .unwrap_or_else(|e| panic!("ranks={ranks} overlap={overlap}: {e}"));
            assert!(
                plan.fired_count() > 0,
                "ranks={ranks} overlap={overlap}: the kill never fired"
            );
            assert_eq!(
                result.counts, baseline.counts,
                "ranks={ranks} overlap={overlap}"
            );
            assert_eq!(
                result.histogram, baseline.histogram,
                "ranks={ranks} overlap={overlap}"
            );
            assert!(
                result.report.recoveries >= 1,
                "ranks={ranks} overlap={overlap}: recovery not reported"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// With a checkpoint directory configured, a respawned rank restores the last
/// committed epoch instead of recounting from scratch — and still lands on the exact
/// fault-free histogram, with the committed epochs visible in the report.
#[test]
fn recovery_resumes_from_committed_epochs() {
    let reads = overlapping_reads(82);
    let path = tmp_path("ckptrec.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    for overlap in [false, true] {
        let dir = tmp_path(&format!("ckptrec.dir.{overlap}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = chaos_cfg(3, overlap);
        // Enough rounds that the overlap kill lands after a few committed epochs.
        cfg.batch_size = 50;
        let baseline =
            count_kmers_from_files_with::<Kmer1, _>(&[&path], &cfg, IngestOptions::default())
                .expect("healthy run");
        cfg.checkpoint_dir = Some(dir.clone());
        // Without overlap the round loop has one unbounded round, so round 0 is its only
        // exchange site; on a batch budget it is killed at round 5, past epochs 0..=2.
        let round = if overlap { 5 } else { 0 };
        let plan = Arc::new(FaultPlan::new().with_fault(1, "exchange", round, FaultKind::FailRank));
        let result =
            run_faulted(&path, &cfg, &plan).unwrap_or_else(|e| panic!("overlap={overlap}: {e}"));
        assert!(
            plan.fired_count() > 0,
            "overlap={overlap}: the kill never fired"
        );
        assert_eq!(result.counts, baseline.counts, "overlap={overlap}");
        assert_eq!(result.histogram, baseline.histogram, "overlap={overlap}");
        assert!(result.report.recoveries >= 1, "overlap={overlap}");
        assert!(
            result.report.epochs_committed >= 1,
            "overlap={overlap}: no epochs committed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_file(&path).ok();
}

/// The nastiest crash window: a rank dies between fsync and rename while committing
/// an epoch, leaving a torn `.tmp` behind. The respawned generation must ignore the
/// torn file, fall back to the newest epoch every rank agrees on, and still finish
/// byte-identical.
#[test]
fn a_crash_mid_checkpoint_write_falls_back_to_the_previous_epoch() {
    let reads = overlapping_reads(83);
    let path = tmp_path("torncrash.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    let dir = tmp_path("torncrash.dir");
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = chaos_cfg(3, true);
    cfg.batch_size = 50;
    let baseline =
        count_kmers_from_files_with::<Kmer1, _>(&[&path], &cfg, IngestOptions::default())
            .expect("healthy run");
    cfg.checkpoint_dir = Some(dir.clone());
    // Epoch 0 commits cleanly; the crash lands while epoch 1 is being written.
    let plan = Arc::new(FaultPlan::new().with_fault(1, "checkpoint", 1, FaultKind::FailRank));
    let result = run_faulted(&path, &cfg, &plan).unwrap_or_else(|e| panic!("{e}"));
    assert!(plan.fired_count() > 0, "the mid-commit crash never fired");
    assert_eq!(result.counts, baseline.counts);
    assert_eq!(result.histogram, baseline.histogram);
    assert!(result.report.recoveries >= 1);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

/// Pinned regression for the checksum blind spot: a segment truncated to a *valid
/// empty stream* parses cleanly block by block, so only the end-of-exchange
/// reconciliation against the allreduced task sizes can catch it. It must surface as
/// a typed count-mismatch, never as silently shrunken counts.
#[test]
fn truncation_to_a_clean_block_boundary_is_caught_by_reconciliation() {
    let reads = overlapping_reads(79);
    let path = tmp_path("boundary.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    for overlap in [false, true] {
        let cfg = chaos_cfg(2, overlap);
        let plan = Arc::new(FaultPlan::new().with_fault(
            0,
            "exchange",
            0,
            FaultKind::TruncateSegment { dest: 1, keep: 0 },
        ));
        let err = run_faulted(&path, &cfg, &plan).expect_err("dropped segment");
        assert_eq!(err.exit_code(), 4, "overlap={overlap}");
        assert!(
            err.to_string().contains("lost or duplicated") || err.to_string().contains("truncated"),
            "overlap={overlap}: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// The chaos matrix on the **process backend**: forked rank processes under (a) an
/// injected rank kill healed by respawning a whole process generation —
/// byte-identical to the healthy baseline — and (b) a malformed record in one child's
/// shard, which that child reports as a typed input error naming the file while its
/// peers run to the end, in both execution modes. A final `waitpid(-1)` sweep asserts
/// the parent reaped every forked child: no orphaned processes, no zombies. (The test
/// runs in a process of its own, so sweeping pid -1 cannot steal another test's
/// children.)
#[test]
fn process_backend_absorbs_kills_and_surfaces_input_errors_without_orphans() {
    if hysortk_dmem::ran_in_own_process(
        "process_backend_absorbs_kills_and_surfaces_input_errors_without_orphans",
    ) {
        return;
    }
    mod ffi {
        extern "C" {
            pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        }
    }
    const WNOHANG: i32 = 1;

    let reads = overlapping_reads(84);
    let path = tmp_path("procchaos.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    // The same reads as FASTQ, but the middle record — in rank 1's third of the bytes
    // — has a quality line three characters long.
    let malformed = tmp_path("procchaos.fq");
    let mut text = String::new();
    for (i, read) in reads.iter().enumerate() {
        let seq = String::from_utf8(read.seq.to_ascii()).unwrap();
        let quality = if i == reads.len() / 2 { 3 } else { seq.len() };
        text.push_str(&format!("@r{i}\n{seq}\n+\n{}\n", "I".repeat(quality)));
    }
    std::fs::write(&malformed, text).unwrap();

    for overlap in [false, true] {
        let mut cfg = chaos_cfg(3, overlap);
        let baseline =
            count_kmers_from_files_with::<Kmer1, _>(&[&path], &cfg, IngestOptions::default())
                .expect("healthy run");
        cfg.backend = hysortk_dmem::Backend::Process;

        // (a) Kill rank 1 mid-exchange: the parent must respawn a fresh process
        // generation, and the fired-state must come back over the control socket so
        // the kill does not fire again in generation 1.
        let plan = Arc::new(FaultPlan::new().with_fault(1, "exchange", 0, FaultKind::FailRank));
        let result = run_faulted(&path, &cfg, &plan)
            .unwrap_or_else(|e| panic!("overlap={overlap} fail-rank: {e}"));
        assert_eq!(
            plan.fired_count(),
            1,
            "overlap={overlap}: fired-state not absorbed from the child"
        );
        assert_eq!(
            result.counts, baseline.counts,
            "overlap={overlap} fail-rank"
        );
        assert_eq!(
            result.histogram, baseline.histogram,
            "overlap={overlap} fail-rank"
        );
        assert!(
            result.report.recoveries >= 1,
            "overlap={overlap}: recovery not reported"
        );

        // (b) Rank 1 stops reading at the malformed record and takes part in every
        // collective to the end, so ranks 0 and 2 unblock; its error comes home typed,
        // with its rank and the file, over the control socket.
        let (malformed_path, run_cfg) = (malformed.clone(), cfg.clone());
        let err = with_deadline(
            format!("overlap={overlap} malformed record"),
            Duration::from_secs(120),
            move || {
                count_kmers_from_files_with::<Kmer1, _>(
                    &[&malformed_path],
                    &run_cfg,
                    IngestOptions::default(),
                )
            },
        )
        .expect_err("a malformed record must fail the run");
        assert!(
            matches!(err, HysortkError::Io { rank: 1, .. }),
            "overlap={overlap}: {err:?}"
        );
        assert_eq!(err.exit_code(), 3, "overlap={overlap}");
        let msg = err.to_string();
        assert!(
            msg.contains("procchaos.fq") && msg.contains("quality length 3"),
            "overlap={overlap}: {msg}"
        );
    }

    // Every fork must already be reaped: 0 would mean a still-running orphaned
    // child, a positive pid an unreaped zombie; -1 (ECHILD) says no children remain.
    let mut status = 0i32;
    // SAFETY: `status` is a live local, the only memory `waitpid` writes. Pid -1 with
    // `WNOHANG` takes at most one exited child of this process and never blocks; under
    // `ran_in_own_process` this process is the parent of no child but this test's ranks.
    let rc = unsafe { ffi::waitpid(-1, &mut status, WNOHANG) };
    assert_eq!(rc, -1, "unreaped child process (waitpid returned {rc})");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&malformed).ok();
}

/// Corrupted wire bytes must be rejected by the per-block checksum with the rank and
/// round attached — on both execution modes.
#[test]
fn corrupted_wire_segments_surface_as_checksum_errors() {
    let reads = overlapping_reads(80);
    let path = tmp_path("corrupt.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    for overlap in [false, true] {
        let cfg = chaos_cfg(2, overlap);
        let plan = Arc::new(FaultPlan::new().with_fault(
            0,
            "exchange",
            0,
            FaultKind::CorruptSegment { dest: 1, bit: 201 },
        ));
        let err = run_faulted(&path, &cfg, &plan).expect_err("corrupted segment");
        assert_eq!(err.exit_code(), 4, "overlap={overlap}");
        let msg = err.to_string();
        assert!(
            msg.contains("malformed wire data"),
            "overlap={overlap}: {msg}"
        );
    }
    std::fs::remove_file(&path).ok();
}
