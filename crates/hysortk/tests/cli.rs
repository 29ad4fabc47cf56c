//! Golden exit-code and stderr tests of the `hysortk` binary.
//!
//! The CLI's failure contract is part of the public surface: exit 2 for usage and
//! configuration errors, 3 for input I/O, 4 for internal failures (malformed wire
//! data or a distributed-runtime abort), and a stderr line naming the offending
//! file, rank and fault. `HYSORTK_FAULT` drives the fault-injection plumbing end to
//! end through the real binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hysortk() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hysortk"));
    // Never inherit a fault spec from the environment running the tests.
    cmd.env_remove("HYSORTK_FAULT");
    cmd
}

fn tmp_fasta(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hysortk_cli_{}_{tag}.fa", std::process::id()));
    let mut text = String::new();
    // A tiny deterministic genome: enough 21-mers for a non-empty histogram.
    for i in 0..20 {
        let base = b"ACGT"[i % 4] as char;
        text.push_str(&format!(
            ">r{i}\n{}{}\n",
            String::from(base).repeat(30),
            "ACGTACGTACGTACGTACGTACGT"
        ));
    }
    std::fs::write(&path, text).unwrap();
    path
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn usage_errors_exit_2_with_the_usage_text() {
    let out = hysortk().arg("count").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("no input files given"), "{err}");
    assert!(err.contains("usage: hysortk count"), "{err}");

    let out = hysortk()
        .args(["count", "x.fa", "-k", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // A read error fails the run where it happens: there is no retry to tune.
    for flag in ["--io-retries", "--io-backoff-ms"] {
        let out = hysortk()
            .args(["count", "x.fa", flag, "3"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(stderr_of(&out).contains("unknown option"), "{flag}");
    }
}

#[test]
fn the_threads_flag_sets_the_pool_width_and_never_changes_the_histogram() {
    let fa = tmp_fasta("threads");
    let run = |threads: &str| {
        hysortk()
            .args([
                "count",
                "--ranks",
                "3",
                "--min-count",
                "1",
                "--batch-size",
                "8",
            ])
            .args(["--threads", threads])
            .arg(&fa)
            .output()
            .unwrap()
    };
    let default = hysortk()
        .args([
            "count",
            "--ranks",
            "3",
            "--min-count",
            "1",
            "--batch-size",
            "8",
        ])
        .arg(&fa)
        .output()
        .unwrap();
    assert_eq!(default.status.code(), Some(0), "{}", stderr_of(&default));
    assert!(
        stderr_of(&default).contains("ranks × threads = 3 × 2"),
        "{}",
        stderr_of(&default)
    );
    for threads in ["1", "2", "5"] {
        let out = run(threads);
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        assert_eq!(out.stdout, default.stdout, "--threads {threads}");
        assert!(
            stderr_of(&out).contains(&format!("ranks × threads = 3 × {threads}")),
            "{}",
            stderr_of(&out)
        );
    }

    // Zero threads is the existing configuration error, not a new one.
    let out = run("0");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("threads_per_process must be positive"),
        "{}",
        stderr_of(&out)
    );
    let out = run("many");
    std::fs::remove_file(&fa).ok();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("invalid value `many` for --threads"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn k_below_three_runs_with_the_default_minimizer_length() {
    let fa = tmp_fasta("small-k");
    let run = |extra: &[&str]| {
        hysortk()
            .args([
                "count",
                fa.to_str().unwrap(),
                "--ranks",
                "2",
                "--min-count",
                "1",
            ])
            .args(extra)
            .output()
            .unwrap()
    };
    for k in ["1", "2"] {
        let default_m = run(&["-k", k]);
        assert_eq!(
            default_m.status.code(),
            Some(0),
            "{}",
            stderr_of(&default_m)
        );
        assert!(!default_m.stdout.is_empty());
        // The default is m = k, so naming it changes nothing.
        assert_eq!(default_m.stdout, run(&["-k", k, "-m", k]).stdout, "k = {k}");
    }
    let _ = std::fs::remove_file(fa);
}

#[test]
fn missing_inputs_exit_3_and_name_the_file() {
    let out = hysortk()
        .args(["count", "/nonexistent/definitely_missing.fa"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = stderr_of(&out);
    assert!(
        err.contains("definitely_missing.fa") && err.contains("rank"),
        "{err}"
    );
}

/// A read error in a multi-file run names the file that failed, not the run's first
/// file. A directory passes the stat of the input listing and fails at its first read.
#[test]
fn a_read_error_names_the_file_that_failed() {
    let fa = tmp_fasta("readerr");
    let dir = std::env::temp_dir().join(format!("hysortk_cli_{}_dir.fa", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // An entry, so that the directory's size is not 0 on any file system.
    std::fs::write(dir.join("entry"), "x").unwrap();
    let out = hysortk().arg("count").arg(&fa).arg(&dir).output().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&fa).ok();
    assert_eq!(out.status.code(), Some(3));
    let err = stderr_of(&out);
    assert!(err.contains("dir.fa") && !err.contains("readerr"), "{err}");
}

/// The same at explicit pool widths: a rank reads its shard one piece per thread, and
/// the piece that failed names its file.
#[test]
fn a_read_error_names_the_file_that_failed_at_every_pool_width() {
    let fa = tmp_fasta("readerr_width");
    let dir = std::env::temp_dir().join(format!("hysortk_cli_{}_wdir.fa", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("entry"), "x").unwrap();
    for layout in [
        ["--ranks", "1", "--threads", "2"],
        ["--ranks", "2", "--threads", "3"],
    ] {
        let out = (hysortk().arg("count").arg(&fa).arg(&dir).args(layout))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(3), "{layout:?}");
        let err = stderr_of(&out);
        assert!(
            err.contains("wdir.fa") && !err.contains("readerr_width"),
            "{layout:?}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&fa).ok();
}

/// There is no transient-read fault kind: `io:R:FAILURES` is refused like any other
/// unknown kind.
#[test]
fn malformed_fault_specs_exit_2() {
    let fa = tmp_fasta("badspec");
    for spec in ["explode:0", "io:0:2"] {
        let out = hysortk()
            .arg("count")
            .arg(&fa)
            .env("HYSORTK_FAULT", spec)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{spec}");
        assert!(
            stderr_of(&out).contains("HYSORTK_FAULT"),
            "{spec}: {}",
            stderr_of(&out)
        );
    }
    std::fs::remove_file(&fa).ok();
}

#[test]
fn an_injected_rank_failure_exits_4_when_recovery_is_off() {
    // `--recovery-attempts 0` restores the fail-fast contract: the typed abort
    // surfaces as exit 4 with the fault named.
    let fa = tmp_fasta("failrank");
    let out = hysortk()
        .args([
            "count",
            "--ranks",
            "3",
            "--min-count",
            "1",
            "--recovery-attempts",
            "0",
        ])
        .arg(&fa)
        .env("HYSORTK_FAULT", "fail:1:exchange:0")
        .output()
        .unwrap();
    std::fs::remove_file(&fa).ok();
    assert_eq!(out.status.code(), Some(4), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("injected fault") && err.contains("rank 1"),
        "{err}"
    );
}

#[test]
fn an_injected_rank_failure_recovers_to_an_identical_exit_0_run_by_default() {
    let fa = tmp_fasta("recover");
    let healthy = hysortk()
        .args(["count", "--ranks", "3", "--min-count", "1"])
        .arg(&fa)
        .output()
        .unwrap();
    assert_eq!(healthy.status.code(), Some(0), "{}", stderr_of(&healthy));

    let recovered = hysortk()
        .args(["count", "--ranks", "3", "--min-count", "1"])
        .arg(&fa)
        .env("HYSORTK_FAULT", "fail:1:exchange:0")
        .output()
        .unwrap();
    std::fs::remove_file(&fa).ok();
    assert_eq!(
        recovered.status.code(),
        Some(0),
        "{}",
        stderr_of(&recovered)
    );
    assert_eq!(healthy.stdout, recovered.stdout);
    assert!(
        stderr_of(&recovered).contains("in-run rank recovery"),
        "{}",
        stderr_of(&recovered)
    );
}

#[test]
fn the_fault_flag_wins_over_the_environment_variable() {
    let fa = tmp_fasta("faultflag");
    // The env asks for a crash; the flag overrides it with no faults at all.
    let out = hysortk()
        .args([
            "count",
            "--min-count",
            "1",
            "--fault",
            "",
            "--recovery-attempts",
            "0",
        ])
        .arg(&fa)
        .env("HYSORTK_FAULT", "fail:1:exchange:0")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));

    // And a bad spec given via the flag is named as such.
    let out = hysortk()
        .args(["count", "--fault", "explode:0"])
        .arg(&fa)
        .output()
        .unwrap();
    std::fs::remove_file(&fa).ok();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--fault"), "{}", stderr_of(&out));
}

#[test]
fn a_killed_checkpointed_run_resumes_to_the_identical_histogram() {
    let fa = tmp_fasta("resume");
    let dir = std::env::temp_dir().join(format!("hysortk_cli_resume_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let healthy = hysortk()
        .args([
            "count",
            "--ranks",
            "3",
            "--min-count",
            "1",
            "--batch-size",
            "8",
        ])
        .arg(&fa)
        .output()
        .unwrap();
    assert_eq!(healthy.status.code(), Some(0), "{}", stderr_of(&healthy));

    // Crash mid-run with recovery off: the run dies (exit 4) but leaves its
    // committed epochs behind.
    let killed = hysortk()
        .args([
            "count",
            "--ranks",
            "3",
            "--min-count",
            "1",
            "--batch-size",
            "8",
        ])
        .args(["--checkpoint".as_ref(), dir.as_os_str()])
        .args(["--recovery-attempts", "0", "--fault", "fail:1:exchange:2"])
        .arg(&fa)
        .output()
        .unwrap();
    assert_eq!(killed.status.code(), Some(4), "{}", stderr_of(&killed));

    let resumed = hysortk()
        .args([
            "count",
            "--ranks",
            "3",
            "--min-count",
            "1",
            "--batch-size",
            "8",
        ])
        .args(["--resume".as_ref(), dir.as_os_str()])
        .arg(&fa)
        .output()
        .unwrap();
    std::fs::remove_file(&fa).ok();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr_of(&resumed));
    assert_eq!(healthy.stdout, resumed.stdout);
    assert!(
        stderr_of(&resumed).contains("checkpoint epoch(s) committed"),
        "{}",
        stderr_of(&resumed)
    );
}

/// `--kmers` writes the retained table in key order — the lazy merge of the result's
/// runs — and it is the oracle's table, rendered the same way, on every layout.
#[test]
fn the_kmers_flag_writes_the_oracles_table_in_key_order_on_every_layout() {
    use hysortk_core::reference_counts_bounded;
    use hysortk_dna::kmer::{Kmer1, Kmer2, KmerCode};
    use hysortk_dna::{fasta, ReadSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rendered<K: KmerCode>(reads: &ReadSet, k: usize) -> String {
        (reference_counts_bounded::<K>(reads, k, 2, 50).iter())
            .map(|(kmer, count)| format!("{}\t{count}\n", kmer.to_dna_string(k)))
            .collect()
    }

    let mut rng = StdRng::seed_from_u64(23);
    let genome: Vec<u8> = (0..4_000).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
    let reads: Vec<Vec<u8>> = (0..100)
        .map(|_| {
            let start = rng.gen_range(0..genome.len() - 300);
            genome[start..start + 300].to_vec()
        })
        .collect();
    let reads = ReadSet::from_ascii_reads(&reads);
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("hysortk_cli_{}_kmers.{name}", std::process::id()))
    };
    let (fa, table) = (tmp("fa"), tmp("tsv"));
    fasta::write_fasta_file(&fa, &reads, 80).unwrap();

    for (k, expected) in [
        ("31", rendered::<Kmer1>(&reads, 31)),
        ("55", rendered::<Kmer2>(&reads, 55)),
    ] {
        let lines: Vec<&str> = expected.lines().collect();
        assert!(lines.len() > 1_000, "k={k}: {} retained", lines.len());
        assert!(lines.windows(2).all(|w| w[0] < w[1]), "k={k}: ascending");
        for backend in ["thread", "process"] {
            for ranks in ["1", "2", "3"] {
                let out = hysortk()
                    .args(["count", "-k", k, "--ranks", ranks, "--backend", backend])
                    .args(["--batch-size", "512", "--kmers"])
                    .args([&table, &fa])
                    .output()
                    .unwrap();
                let what = format!("k={k} {backend} backend, {ranks} rank(s)");
                assert_eq!(out.status.code(), Some(0), "{what}: {}", stderr_of(&out));
                let written = std::fs::read_to_string(&table).unwrap();
                assert!(
                    written == expected,
                    "{what}: --kmers differs from the oracle"
                );
                let err = stderr_of(&out);
                assert!(err.contains("sorted run(s)"), "{what}: {err}");
                assert!(err.contains("merged for --kmers"), "{what}: {err}");
            }
        }
    }
    std::fs::remove_file(&fa).ok();
    std::fs::remove_file(&table).ok();
}
