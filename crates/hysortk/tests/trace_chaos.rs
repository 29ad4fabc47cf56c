//! Chaos-harness × flight-recorder matrix.
//!
//! The recorder must be a pure observer: turning it on must not change any count,
//! and the events it captures during an injected failure must tell the story — the
//! fault firing, the cluster respawning a recovery generation, and every span
//! properly nested on its thread. It also shows where work ran: every round's fill sits
//! on the thread of its rank's stage 1. The whole matrix lives in ONE test because the
//! recorder is process-global: parallel tests flipping `enable`/`disable` would
//! race each other's collections.

use std::collections::HashMap;
use std::sync::Arc;

use hysortk_core::{
    count_kmers_from_files, count_kmers_from_files_faulted, reference_counts_bounded, HySortKConfig,
};
use hysortk_dmem::{FaultKind, FaultPlan};
use hysortk_dna::io::IngestOptions;
use hysortk_dna::kmer::Kmer1;
use hysortk_dna::{fasta, ReadSet};
use hysortk_trace as trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn overlapping_reads(seed: u64) -> ReadSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let genome: Vec<u8> = (0..2_500).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
    let reads: Vec<Vec<u8>> = (0..80)
        .map(|_| {
            let start = rng.gen_range(0..genome.len() - 250);
            genome[start..start + 250].to_vec()
        })
        .collect();
    ReadSet::from_ascii_reads(&reads)
}

fn small_cfg(ranks: usize, overlap: bool) -> HySortKConfig {
    let mut cfg = HySortKConfig::small(21, 9, ranks);
    cfg.min_count = 1;
    cfg.max_count = 1_000_000;
    cfg.overlap = overlap;
    cfg.recovery_attempts = 3;
    cfg
}

#[test]
fn tracing_is_a_pure_observer_across_the_chaos_matrix() {
    let reads = overlapping_reads(77);
    let path = std::env::temp_dir().join(format!("hysortk_trace_chaos_{}.fa", std::process::id()));
    fasta::write_fasta_file(&path, &reads, 70).unwrap();

    for ranks in [1usize, 2, 7] {
        for overlap in [false, true] {
            let tag = format!("ranks={ranks} overlap={overlap}");
            let cfg = small_cfg(ranks, overlap);

            // Reference: tracing off. The recorder must stay silent.
            trace::disable();
            let _ = trace::collect(); // drain anything a previous cell left behind
            let healthy = count_kmers_from_files::<Kmer1, _>(&[&path], &cfg).unwrap();
            let silent = trace::collect();
            assert!(
                silent.events.is_empty(),
                "{tag}: disabled recorder captured {} events",
                silent.events.len()
            );

            // Same run with the recorder on at full detail: byte-identical answer.
            trace::enable(trace::Detail::Task);
            let traced = count_kmers_from_files::<Kmer1, _>(&[&path], &cfg).unwrap();
            trace::disable();
            let tr = trace::collect();
            assert_eq!(
                traced.counts, healthy.counts,
                "{tag}: tracing changed counts"
            );
            assert_eq!(
                traced.histogram, healthy.histogram,
                "{tag}: tracing changed the histogram"
            );
            assert!(
                !tr.events.is_empty(),
                "{tag}: enabled recorder captured nothing"
            );
            tr.check_well_nested()
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert!(
                tr.with_label("stage1-ingest").next().is_some(),
                "{tag}: no ingest span in the trace"
            );
            // A histogram-only run assembles nothing: its result is the task runs.
            assert!(
                tr.with_label("assemble-result").next().is_none(),
                "{tag}: a run without extensions assembled its result"
            );
            assert_eq!(traced.report.result_runs, traced.counts.runs().len());
            assert!(traced.counts.runs().len() > 1, "{tag}: one run per task");

            // An extension run assembles exactly once, into one table that
            // `extensions` is parallel to.
            let mut ext_cfg = cfg.clone();
            ext_cfg.with_extension = true;
            trace::enable(trace::Detail::Task);
            let with_ext = count_kmers_from_files::<Kmer1, _>(&[&path], &ext_cfg).unwrap();
            trace::disable();
            let tr = trace::collect();
            let assembled = (tr.with_label("assemble-result"))
                .filter(|e| e.kind == trace::EventKind::Begin)
                .count();
            assert_eq!(assembled, 1, "{tag}: extension run");
            assert_eq!(with_ext.counts, healthy.counts, "{tag}: extension run");
            let [table] = with_ext.counts.runs() else {
                panic!("{tag}: an extension run holds one table");
            };
            assert_eq!(
                with_ext.extensions.map(|lists| lists.len()),
                Some(table.len())
            );

            // Chaos: a rank failure mid-exchange, recovered by respawning the
            // generation. Counts still byte-identical, and the trace shows the fault
            // and the recovery generation.
            let plan = FaultPlan::new().with_fault(0, "exchange", 0, FaultKind::FailRank);
            trace::enable(trace::Detail::Task);
            let recovered = count_kmers_from_files_faulted::<Kmer1, _>(
                &[&path],
                &cfg,
                IngestOptions::default(),
                Arc::new(plan),
            )
            .unwrap();
            trace::disable();
            let tr = trace::collect();
            assert_eq!(
                recovered.counts, healthy.counts,
                "{tag}: recovery changed counts"
            );
            assert_eq!(
                recovered.histogram, healthy.histogram,
                "{tag}: recovery changed the histogram"
            );
            assert!(
                recovered.report.recoveries >= 1,
                "{tag}: no recovery recorded"
            );
            tr.check_well_nested()
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert!(
                tr.with_label("fault:fail-rank").next().is_some(),
                "{tag}: injected rank failure left no trace event"
            );
            assert!(
                tr.with_label("recovery-generation").next().is_some(),
                "{tag}: recovery generation left no trace event"
            );
        }
    }

    // Every fill is written on the rank's own thread — the one that opened
    // `stage1-ingest` — at every pool width: a heavy-hitter task's pre-count included,
    // and provenance supermers with several tasks in one round.
    let mut rng = StdRng::seed_from_u64(78);
    let mut seqs: Vec<Vec<u8>> = (0..40)
        .map(|_| (0..300).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect())
        .collect();
    seqs.extend((0..40).map(|_| b"AATGG".repeat(60)));
    let satellite = ReadSet::from_ascii_reads(&seqs);
    let satellite_path = path.with_extension("satellite.fa");
    fasta::write_fasta_file(&satellite_path, &satellite, 70).unwrap();
    for threads in [1usize, 2, 3] {
        let mut heavy = small_cfg(2, true);
        heavy.threads_per_process = threads;
        heavy.heavy_hitter.factor = 2.0;
        // At 4 096 records per destination a round holds several of these tasks.
        let mut extensions = heavy.clone();
        extensions.with_extension = true;
        extensions.batch_size = 4_096;
        for (shape, input, reads, cfg) in [
            ("heavy", &satellite_path, &satellite, heavy),
            ("extensions", &path, &reads, extensions),
        ] {
            let tag = format!("{shape} threads={threads}");
            trace::enable(trace::Detail::Task);
            let got = count_kmers_from_files::<Kmer1, _>(&[input], &cfg).unwrap();
            trace::disable();
            let tr = trace::collect();
            let oracle = reference_counts_bounded::<Kmer1>(reads, cfg.k, 1, 1_000_000);
            assert_eq!(got.counts, oracle, "{tag}: counts");
            assert_eq!(got.report.heavy_tasks > 0, shape == "heavy", "{tag}");
            let begun =
                |label| (tr.with_label(label)).filter(|e| e.kind == trace::EventKind::Begin);
            let own: HashMap<u32, u32> = begun("stage1-ingest").map(|e| (e.rank, e.tid)).collect();
            assert_eq!(own.len(), 2, "{tag}: one stage-1 thread per rank");
            let fills: Vec<_> = begun("overlap-serialize").collect();
            assert!(!fills.is_empty(), "{tag}: no fill spans");
            for fill in fills {
                assert_eq!(
                    Some(&fill.tid),
                    own.get(&fill.rank),
                    "{tag}: rank {} filled task {:?} off its own thread",
                    fill.rank,
                    fill.arg("task")
                );
            }
        }
    }
    std::fs::remove_file(&satellite_path).ok();
    std::fs::remove_file(&path).ok();
}
