//! Checkpoint → resume integration tests over the library API.
//!
//! These pin the durable half of the recovery story: a run that dies (recovery
//! disabled, so the typed abort surfaces) leaves round-granular epochs behind, and a
//! `resume` run replans deterministically, restores the newest globally-consistent
//! epoch, and finishes with counts byte-identical to a fault-free run. Torn `.tmp`
//! files are ignored, bit corruption falls back one epoch, and resuming against a
//! different configuration or changed inputs is a loud `Config` error — never a
//! silently different histogram.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hysortk_core::ingest::{count_kmers_from_files_faulted, count_kmers_from_files_with};
use hysortk_core::{CountResult, HySortKConfig, HysortkError};
use hysortk_dmem::{FaultKind, FaultPlan};
use hysortk_dna::io::IngestOptions;
use hysortk_dna::kmer::Kmer1;
use hysortk_dna::{fasta, ReadSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hysortk_resume_{}_{tag}", std::process::id()))
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

fn resume_cfg(ranks: usize, overlap: bool) -> HySortKConfig {
    resume_cfg_with_threads(ranks, overlap, 2)
}

fn resume_cfg_with_threads(ranks: usize, overlap: bool, threads: usize) -> HySortKConfig {
    let mut cfg = HySortKConfig::small_with_threads(21, 9, ranks, threads);
    cfg.min_count = 1;
    cfg.max_count = 1_000_000;
    // Many exchange rounds, so mid-run kills leave a partial epoch chain behind:
    // killing the non-blocking engine at round R fires while round R is *posted*,
    // i.e. before the round R−2 commit of that iteration, leaving epochs 0..=R−3.
    cfg.batch_size = 50;
    cfg.overlap = overlap;
    cfg
}

fn healthy(path: &Path, cfg: &HySortKConfig) -> CountResult<Kmer1> {
    count_kmers_from_files_with::<Kmer1, _>(&[&path], cfg, IngestOptions::default())
        .expect("healthy run")
}

/// The exchange round to kill at: without overlap the round loop runs one unbounded
/// round, so round 0 is the only exchange site there is, while on a `batch_size`
/// budget it reaches round 5 with epochs 0..=2 already committed.
fn kill_round(overlap: bool) -> usize {
    if overlap {
        5
    } else {
        0
    }
}

/// Kill the run mid-exchange with recovery disabled, leaving its epochs in `dir`.
fn kill_checkpointed_run(path: &Path, cfg: &HySortKConfig, dir: &Path, round: usize) {
    kill_checkpointed_run_at(path, cfg, dir, "exchange", round)
}

/// Kill rank 1 at fault site `stage:round` with recovery disabled, leaving the epochs
/// committed so far in `dir`.
fn kill_checkpointed_run_at(
    path: &Path,
    cfg: &HySortKConfig,
    dir: &Path,
    stage: &str,
    round: usize,
) {
    let mut cfg = cfg.clone();
    cfg.checkpoint_dir = Some(dir.to_path_buf());
    cfg.recovery_attempts = 0;
    let plan = Arc::new(FaultPlan::new().with_fault(1, stage, round, FaultKind::FailRank));
    let err = count_kmers_from_files_faulted::<Kmer1, _>(
        &[&path],
        &cfg,
        IngestOptions::default(),
        Arc::clone(&plan),
    )
    .expect_err("the injected kill must abort the run with recovery off");
    assert_eq!(err.exit_code(), 4, "{err}");
    assert!(plan.fired_count() > 0, "the kill never fired");
}

fn resume(
    path: &Path,
    cfg: &HySortKConfig,
    dir: &Path,
) -> Result<CountResult<Kmer1>, HysortkError> {
    let mut cfg = cfg.clone();
    cfg.checkpoint_dir = Some(dir.to_path_buf());
    cfg.resume = true;
    count_kmers_from_files_with::<Kmer1, _>(&[&path], &cfg, IngestOptions::default())
}

/// Epoch files a kill leaves behind for `rank`, newest first.
fn manifests_of(dir: &Path, rank: usize) -> Vec<(u32, PathBuf)> {
    let suffix = format!("-r{rank:04}.bin");
    let mut found: Vec<(u32, PathBuf)> = std::fs::read_dir(dir)
        .expect("checkpoint directory")
        .map(|e| e.unwrap().path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_owned();
            let epochs = name.strip_prefix("ckpt-e")?.strip_suffix(&suffix)?;
            Some((epochs.parse().ok()?, p))
        })
        .collect();
    found.sort_by_key(|(e, _)| std::cmp::Reverse(*e));
    found
}

/// The core contract, in both execution modes: kill → resume reproduces the healthy
/// histogram exactly — and, in an extension run, the healthy extension lists. With
/// overlap the resume restores committed epochs and skips their rounds; without it the
/// one round's only epoch is either not reached (a kill in the exchange) or torn on the
/// dying rank (a kill mid-commit, which the other ranks survive with epoch 0 on disk —
/// not globally consistent, so not restored), and the resume recounts from scratch —
/// all must land on identical bytes.
#[test]
fn a_killed_run_resumes_to_the_identical_result_in_both_modes() {
    let reads = overlapping_reads(90);
    let path = tmp_path("kill.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    for (overlap, stage, with_extension) in [
        (false, "exchange", false),
        (false, "checkpoint", false),
        (true, "exchange", false),
        (false, "exchange", true),
        (true, "exchange", true),
    ] {
        let what = format!("overlap={overlap} extension={with_extension} kill at {stage}");
        let dir = tmp_path(&format!("kill.dir.{overlap}.{stage}.{with_extension}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = resume_cfg(3, overlap);
        cfg.with_extension = with_extension;
        let baseline = healthy(&path, &cfg);
        assert_eq!(baseline.extensions.is_some(), with_extension, "{what}");
        kill_checkpointed_run_at(&path, &cfg, &dir, stage, kill_round(overlap));
        if overlap {
            assert!(
                !manifests_of(&dir, 0).is_empty(),
                "the killed overlap run committed no epochs"
            );
        } else {
            assert!(
                manifests_of(&dir, 1).is_empty(),
                "{what}: rank 1 died first"
            );
        }
        let resumed = resume(&path, &cfg, &dir).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(resumed.counts, baseline.counts, "{what}");
        assert_eq!(resumed.histogram, baseline.histogram, "{what}");
        assert_eq!(resumed.extensions, baseline.extensions, "{what}");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_file(&path).ok();
}

/// The round loop hands each step's count jobs to the rank's worker pool as one list,
/// fills the next round on the rank's own thread, and commits the drained round's epoch
/// only after both returned. Whatever the pool width, a rank dying in each window
/// around that list — inside a fill, between the fill and the post of the filled
/// round, and in the middle of the epoch commit that follows — leaves a consistent
/// epoch chain behind, and the resumed run lands on the golden result.
#[test]
fn kills_around_the_job_list_resume_to_the_golden_result_at_every_pool_width() {
    let reads = overlapping_reads(96);
    let path = tmp_path("joblist.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    let golden = healthy(&path, &resume_cfg(3, true));
    for threads in [1usize, 2, 3] {
        let mut cfg = resume_cfg_with_threads(3, true, threads);
        // The same 18 tasks at every width, so one golden result serves them all.
        cfg.tasks_per_worker = 6 / threads;
        for (stage, round) in [("serialize", 4), ("exchange", 5), ("checkpoint", 2)] {
            let what = format!("threads={threads} kill at {stage}:{round}");
            let dir = tmp_path(&format!("joblist.dir.{threads}.{stage}"));
            std::fs::remove_dir_all(&dir).ok();
            kill_checkpointed_run_at(&path, &cfg, &dir, stage, round);
            assert!(
                !manifests_of(&dir, 0).is_empty(),
                "{what}: the killed run committed no epochs"
            );
            let resumed = resume(&path, &cfg, &dir).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(resumed.counts, golden.counts, "{what}");
            assert_eq!(resumed.histogram, golden.histogram, "{what}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Resuming a run that already finished restores the final epoch and skips the
/// exchange entirely: the restored cursor is past the last round, so the round engine
/// is never opened. Without overlap the one round commits exactly one epoch per rank,
/// whatever the commit cadence.
#[test]
fn resuming_a_completed_run_skips_straight_to_the_answer() {
    let reads = overlapping_reads(91);
    let path = tmp_path("complete.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    for (overlap, every) in [(false, 1), (false, 3), (true, 1)] {
        let what = format!("overlap={overlap} every={every}");
        let dir = tmp_path(&format!("complete.dir.{overlap}.{every}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = resume_cfg(3, overlap);
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.checkpoint_every = every;
        let first =
            count_kmers_from_files_with::<Kmer1, _>(&[&path], &cfg, IngestOptions::default())
                .expect("checkpointed run");
        assert!(first.report.epochs_committed >= 1, "{what}");
        let exchanged = |r: &CountResult<Kmer1>| {
            let stage = r.report.comm.stage("exchange");
            stage.map_or(0, |s| s.payload_bytes)
        };
        assert!(exchanged(&first) > 0, "{what}");
        if !overlap {
            assert_eq!(first.report.epochs_committed, 1, "{what}");
            for rank in 0..3 {
                let epochs: Vec<u32> = (manifests_of(&dir, rank).iter())
                    .map(|&(epoch, _)| epoch)
                    .collect();
                assert_eq!(epochs, [0], "{what} rank {rank}");
            }
        }
        let resumed = resume(&path, &cfg, &dir).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(resumed.counts, first.counts, "{what}");
        assert_eq!(resumed.histogram, first.histogram, "{what}");
        assert_eq!(exchanged(&resumed), 0, "{what}: the resume re-exchanged");
        assert_eq!(resumed.report.epochs_committed, 0, "{what}");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_file(&path).ok();
}

/// Bit corruption in the newest epoch must not poison the resume: the checksum
/// rejects the manifest and restore falls back to the newest epoch every rank still
/// agrees on, then recounts the rest.
#[test]
fn bit_corruption_in_the_newest_epoch_falls_back_and_still_matches() {
    let reads = overlapping_reads(92);
    let path = tmp_path("corrupt.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    let dir = tmp_path("corrupt.dir");
    std::fs::remove_dir_all(&dir).ok();
    let cfg = resume_cfg(3, true);
    let baseline = healthy(&path, &cfg);
    kill_checkpointed_run(&path, &cfg, &dir, kill_round(true));
    let manifests = manifests_of(&dir, 0);
    assert!(
        manifests.len() >= 2,
        "need at least two epochs to test fallback, got {}",
        manifests.len()
    );
    let newest = &manifests[0].1;
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(newest, bytes).unwrap();
    let resumed = resume(&path, &cfg, &dir).expect("resume after corruption");
    assert_eq!(resumed.counts, baseline.counts);
    assert_eq!(resumed.histogram, baseline.histogram);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

/// A torn `.tmp` file — the artifact of a crash between fsync and rename — must be
/// ignored by restore, not parsed, and not mistaken for a committed epoch.
#[test]
fn torn_tmp_files_from_a_crashed_writer_are_ignored() {
    let reads = overlapping_reads(93);
    let path = tmp_path("torn.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    let dir = tmp_path("torn.dir");
    std::fs::remove_dir_all(&dir).ok();
    let cfg = resume_cfg(3, true);
    let baseline = healthy(&path, &cfg);
    kill_checkpointed_run(&path, &cfg, &dir, kill_round(true));
    // A torn write from a hypothetical later epoch: garbage bytes under a tmp name.
    std::fs::write(dir.join("ckpt-e000099-r0000.bin.tmp"), b"half a manifest").unwrap();
    let resumed = resume(&path, &cfg, &dir).expect("resume around the torn file");
    assert_eq!(resumed.counts, baseline.counts);
    assert_eq!(resumed.histogram, baseline.histogram);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

/// Resuming under a different run configuration must be a loud `Config` error — the
/// fingerprint embedded in every manifest refuses foreign checkpoints instead of
/// blending two runs into one wrong histogram.
#[test]
fn resuming_with_a_different_configuration_is_a_loud_error() {
    let reads = overlapping_reads(94);
    let path = tmp_path("foreign.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    let dir = tmp_path("foreign.dir");
    std::fs::remove_dir_all(&dir).ok();
    let cfg = resume_cfg(3, true);
    kill_checkpointed_run(&path, &cfg, &dir, kill_round(true));

    // Same directory, different k: every manifest's fingerprint mismatches.
    let mut other = HySortKConfig::small(17, 7, 3);
    other.min_count = 1;
    other.max_count = 1_000_000;
    other.batch_size = 200;
    other.overlap = true;
    let err = resume(&path, &other, &dir).expect_err("foreign checkpoint accepted");
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(
        err.to_string().contains("different run configuration"),
        "{err}"
    );

    // Same parameters but the other execution mode is just as foreign.
    let mut bulk = cfg.clone();
    bulk.overlap = false;
    let err = resume(&path, &bulk, &dir).expect_err("cross-mode checkpoint accepted");
    assert_eq!(err.exit_code(), 2, "{err}");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}

/// Resuming after the input files changed must also be loud: the checkpoint stores a
/// hash of the allreduced task sizes, and a mismatch means the committed partials no
/// longer describe the data on disk.
#[test]
fn resuming_after_the_inputs_changed_is_a_loud_error() {
    let reads = overlapping_reads(95);
    let path = tmp_path("drift.fa");
    fasta::write_fasta_file(&path, &reads, 70).unwrap();
    let dir = tmp_path("drift.dir");
    std::fs::remove_dir_all(&dir).ok();
    let cfg = resume_cfg(3, true);
    kill_checkpointed_run(&path, &cfg, &dir, kill_round(true));

    // Grow the input after the kill: same path, different contents.
    let mut extended = std::fs::read_to_string(&path).unwrap();
    for i in 0..10 {
        extended.push_str(&format!(">extra{i}\n"));
        extended.push_str(&"ACGTTGCAAGGTTACACGTTGCA".repeat(10));
        extended.push('\n');
    }
    std::fs::write(&path, extended).unwrap();

    let err = resume(&path, &cfg, &dir).expect_err("stale checkpoint accepted");
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(err.to_string().contains("changed since"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}
