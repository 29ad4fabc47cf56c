//! Faults at the one collective the product runs: the task-size allreduce.
//!
//! Every run sums its per-task sizes with `allreduce_sum_u64` under the stage label
//! `task-sizes`; at 2 ranks that is one butterfly phase, fault-site round 0. A rank
//! killed there must be the reported root cause with recovery off and must be healed
//! to the golden histogram with recovery on; a delay there must change no byte. Both
//! backends, on the bundled `smoke.fa` and its golden histogram.

use std::path::Path;
use std::sync::Arc;

use hysortk_core::ingest::{count_kmers_from_files_faulted, count_kmers_from_files_with};
use hysortk_core::{CountResult, HySortKConfig, HysortkError};
use hysortk_dmem::{Backend, DmemError, FaultPlan};
use hysortk_dna::io::IngestOptions;
use hysortk_dna::Kmer1;

const SMOKE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/data/smoke.fa");
const SMOKE_HIST: &str = include_str!("../data/smoke.hist.tsv");

/// The CLI's defaults for `hysortk count smoke.fa -k 21 --ranks 2 --min-count 2`.
fn smoke_cfg(backend: Backend, recovery_attempts: usize) -> HySortKConfig {
    let mut cfg = HySortKConfig::small_with_threads(21, HySortKConfig::recommended_m(21), 2, 2);
    cfg.min_count = 2;
    cfg.max_count = 50;
    cfg.batch_size = 80_000;
    cfg.backend = backend;
    cfg.recovery_attempts = recovery_attempts;
    cfg
}

fn run(cfg: &HySortKConfig, spec: &str) -> (Result<CountResult<Kmer1>, HysortkError>, usize) {
    let plan = Arc::new(FaultPlan::from_spec(spec).expect("valid fault spec"));
    let result = count_kmers_from_files_faulted::<Kmer1, _>(
        &[Path::new(SMOKE)],
        cfg,
        IngestOptions::default(),
        Arc::clone(&plan),
    );
    (result, plan.fired_count())
}

fn check_task_sizes_faults(backend: Backend) {
    let (err, fired) = run(&smoke_cfg(backend, 0), "fail:1:task-sizes:0");
    assert_eq!(fired, 1, "{backend}: the kill never fired");
    match err.expect_err("rank 1 was killed and recovery is off") {
        HysortkError::Comm(DmemError::InjectedFault {
            rank: 1,
            stage,
            round: 0,
            ..
        }) => assert_eq!(stage, "task-sizes", "{backend}"),
        other => panic!("{backend}: expected rank 1's injected fault as root cause, got {other}"),
    }

    let (recovered, fired) = run(&smoke_cfg(backend, 2), "fail:1:task-sizes:0");
    assert_eq!(fired, 1, "{backend}");
    let recovered = recovered.unwrap_or_else(|e| panic!("{backend}: {e}"));
    assert!(recovered.report.recoveries >= 1, "{backend}");
    assert_eq!(recovered.histogram.to_tsv(), SMOKE_HIST, "{backend}");

    let (delayed, fired) = run(&smoke_cfg(backend, 0), "delay:0:task-sizes:0:25");
    assert_eq!(fired, 1, "{backend}");
    let delayed = delayed.unwrap_or_else(|e| panic!("{backend}: {e}"));
    let healthy = count_kmers_from_files_with::<Kmer1, _>(
        &[Path::new(SMOKE)],
        &smoke_cfg(backend, 0),
        IngestOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{backend}: {e}"));
    assert_eq!(delayed.histogram.to_tsv(), SMOKE_HIST, "{backend}");
    assert_eq!(
        delayed.counts, healthy.counts,
        "{backend}: the delay changed a byte"
    );
}

#[test]
fn task_sizes_faults_on_the_thread_backend() {
    check_task_sizes_faults(Backend::Thread);
}

#[test]
fn task_sizes_faults_on_the_process_backend() {
    if hysortk_dmem::ran_in_own_process("task_sizes_faults_on_the_process_backend") {
        return;
    }
    check_task_sizes_faults(Backend::Process);
}
