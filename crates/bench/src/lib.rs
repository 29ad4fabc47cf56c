//! Experiment harness regenerating every table and figure of the HySortK paper.
//!
//! Each `table_*` / `figure_*` / `ablation_*` function runs the relevant pipelines on a
//! scaled-down synthetic stand-in of the paper's dataset, projects the result to full
//! scale on a Perlmutter CPU node through the performance model
//! ([`hysortk_core::model::project`]), and returns printable rows shaped like the
//! paper's tables/figure series. The `repro` binary prints them (`repro list` names
//! them, [`EXPERIMENTS`] is the table); `tests/data/repro_all.golden.txt` is the
//! committed output of `repro all`, which CI diffs exactly.
//!
//! Every figure is **modeled**: nothing here reads a clock, so the output is
//! deterministic. Wall time, CPU and peak RSS are measured by the frozen `benchmark/`
//! package. Absolute seconds are **not** expected to match the paper (the substrate is
//! a simulator plus an analytic machine model, not Perlmutter); the quantities that are
//! expected to hold are the *shapes*: who wins, by roughly what factor, where the
//! crossovers and knees fall.

#![forbid(unsafe_code)]

use hysortk_baselines::{hash_kmer, kmc3_count, kmerind_count, mhm2_count, KmerindOutcome};
use hysortk_core::model::{project, MachineConfig, Projection};
use hysortk_core::{count_kmers, CountResult, HySortKConfig, RunReport};
use hysortk_datasets::{DatasetPreset, GeneratedDataset};
use hysortk_dna::extension::Extension;
use hysortk_dna::{Kmer1, Kmer2, ReadSet};
use hysortk_elba::{run_elba, CounterChoice, ElbaConfig};
use hysortk_supermer::codec::encode_extensions;
use hysortk_supermer::mmer::{MmerScorer, ScoreFunction};
use hysortk_supermer::supermer::{build_supermers, partition_stats};
use hysortk_task::HeavyHitterPolicy;

/// One printable row of an experiment.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. `"ppn=16"` or `"4 nodes"`).
    pub label: String,
    /// Column values, in the column order of the paper's table/figure.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Create a row.
    pub fn new(label: impl Into<String>) -> Self {
        Row {
            label: label.into(),
            values: Vec::new(),
        }
    }

    /// Append a named value.
    pub fn push(mut self, name: &str, value: f64) -> Self {
        self.values.push((name.to_string(), value));
        self
    }

    /// Fetch a value by column name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Render rows as an aligned text table.
pub fn render(title: &str, rows: &[Row]) -> String {
    let mut out = format!("== {title} ==\n");
    for row in rows {
        out.push_str(&format!("{:<28}", row.label));
        for (name, value) in &row.values {
            out.push_str(&format!("  {name}={value:.3}"));
        }
        out.push('\n');
    }
    out
}

/// The default (small) scales used when generating synthetic stand-ins, chosen so that
/// every experiment runs in seconds on a laptop while still containing enough k-mers for
/// the measured ratios to be stable.
pub fn default_scale(preset: DatasetPreset) -> f64 {
    match preset {
        DatasetPreset::ABaumannii => 2e-4,
        DatasetPreset::CElegans => 4e-5,
        DatasetPreset::Citrus => 1.2e-5,
        DatasetPreset::HSapiens10x => 3e-6,
        DatasetPreset::HSapiensShortRead => 3e-6,
        DatasetPreset::HSapiens52x => 1.5e-6,
    }
}

/// Generate (and cache per call-site) a dataset preset at its default scale.
pub fn dataset(preset: DatasetPreset, seed: u64) -> GeneratedDataset {
    preset.generate(default_scale(preset), seed)
}

/// A paper-like HySortK configuration for a projected `nodes`-node run, simulated with a
/// small number of real ranks.
pub fn paper_config(k: usize, nodes: usize, data_scale: f64) -> HySortKConfig {
    let mut cfg = HySortKConfig::default();
    cfg.k = k;
    cfg.m = HySortKConfig::recommended_m(k);
    cfg.nodes = nodes;
    cfg.min_count = 2;
    cfg.max_count = 50;
    cfg.data_scale = data_scale;
    // Simulate few ranks (fast) while modelling the full 16-ppn layout: the measured
    // per-rank shares are scaled by the model, the layout (ppn, threads) drives the
    // projection.
    cfg.processes_per_node = if nodes <= 4 { 4 } else { 2 };
    cfg.batch_size = 8_192;
    cfg
}

/// What a run measured under `cfg` projects to on a Perlmutter CPU node.
pub fn modeled(report: &RunReport, cfg: &HySortKConfig) -> Projection {
    project(report, cfg, &MachineConfig::perlmutter_cpu())
        .expect("the experiment's layout fits the node")
}

/// Run HySortK choosing the k-mer width from k: what the run measured, and what that
/// projects to on a Perlmutter CPU node.
pub fn run_hysortk(reads: &ReadSet, cfg: &HySortKConfig) -> (RunReport, Projection) {
    let report = if cfg.k <= 32 {
        count_kmers::<Kmer1>(reads, cfg).report
    } else {
        count_kmers::<Kmer2>(reads, cfg).report
    };
    let projection = modeled(&report, cfg);
    (report, projection)
}

/// Full result (counts included) for k ≤ 32.
pub fn run_hysortk_counts(reads: &ReadSet, cfg: &HySortKConfig) -> CountResult<Kmer1> {
    count_kmers::<Kmer1>(reads, cfg)
}

// ---------------------------------------------------------------------------------------
// §4.1.1 — optimisation-strategy ablation and tasks-per-worker sweep
// ---------------------------------------------------------------------------------------

/// The §4.1.1 ablation: supermer+sort baseline → + task layer → + heavy hitters,
/// on the H. sapiens 52x stand-in projected to 32 nodes.
pub fn ablation_task_layer() -> Vec<Row> {
    let data = dataset(DatasetPreset::HSapiens52x, 1);
    let base_cfg = paper_config(31, 32, data.data_scale);

    let mut baseline = base_cfg.clone();
    baseline.use_task_layer = false;
    baseline.heavy_hitter = HeavyHitterPolicy::disabled();

    let mut task_layer = base_cfg.clone();
    task_layer.heavy_hitter = HeavyHitterPolicy::disabled();

    let full = base_cfg;

    [
        ("supermer+sort baseline", baseline),
        ("+ task abstraction layer", task_layer),
        ("+ heavy hitters (full)", full),
    ]
    .into_iter()
    .map(|(label, cfg)| {
        let (report, modeled) = run_hysortk(&data.reads, &cfg);
        Row::new(label)
            .push("time_s", modeled.total_time())
            .push("imbalance", report.assignment_imbalance)
            .push("heavy_tasks", report.heavy_tasks as f64)
    })
    .collect()
}

/// The §4.1.1 tasks-per-worker sweep (tpw ∈ {1, 2, 3}).
pub fn ablation_tasks_per_worker() -> Vec<Row> {
    let data = dataset(DatasetPreset::HSapiens52x, 2);
    [1usize, 2, 3]
        .into_iter()
        .map(|tpw| {
            let mut cfg = paper_config(31, 32, data.data_scale);
            cfg.tasks_per_worker = tpw;
            let (_, modeled) = run_hysortk(&data.reads, &cfg);
            Row::new(format!("tpw={tpw}")).push("time_s", modeled.total_time())
        })
        .collect()
}

// ---------------------------------------------------------------------------------------
// Table 2 — processes per node
// ---------------------------------------------------------------------------------------

/// Table 2: end-to-end runtime varying processes per node (all cores used, i.e.
/// `threads_per_process = 128 / ppn`). The full rank count is simulated.
pub fn table2_processes_per_node() -> Vec<Row> {
    let celegans = dataset(DatasetPreset::CElegans, 3);
    let hsapiens = dataset(DatasetPreset::HSapiens10x, 3);
    let mut rows = Vec::new();
    for (name, data, nodes) in [
        ("C. elegans (2 nodes)", &celegans, 2usize),
        ("H. sapiens 10x (4 nodes)", &hsapiens, 4),
    ] {
        let mut row = Row::new(name);
        for ppn in [4usize, 8, 16, 32, 64] {
            let mut cfg = paper_config(31, nodes, data.data_scale);
            cfg.processes_per_node = ppn;
            cfg.threads_per_process = (MachineConfig::perlmutter_cpu().cores_per_node / ppn).max(1);
            cfg.threads_per_worker = 4.min(cfg.threads_per_process);
            let (_, modeled) = run_hysortk(&data.reads, &cfg);
            row = row.push(&format!("ppn{ppn}"), modeled.total_time());
        }
        rows.push(row);
    }
    rows
}

// ---------------------------------------------------------------------------------------
// Table 3 — batch size vs communication time
// ---------------------------------------------------------------------------------------

/// Table 3: communication time of the exchange stage varying the batch size.
pub fn table3_batch_size() -> Vec<Row> {
    let citrus = dataset(DatasetPreset::Citrus, 4);
    let hs52 = dataset(DatasetPreset::HSapiens52x, 4);
    let mut rows = Vec::new();
    for (name, data, nodes) in [
        ("Citrus (4 nodes)", &citrus, 4usize),
        ("H. sapiens 52x (32 nodes)", &hs52, 32),
    ] {
        let mut row = Row::new(name);
        for batch in [10_000usize, 20_000, 40_000, 80_000, 160_000] {
            let mut cfg = paper_config(31, nodes, data.data_scale);
            cfg.batch_size = batch;
            let (_, modeled) = run_hysortk(&data.reads, &cfg);
            row = row.push(
                &format!("b{}k", batch / 1000),
                modeled.stage_times.get("exchange"),
            );
        }
        rows.push(row);
    }
    rows
}

// ---------------------------------------------------------------------------------------
// Table 4 — minimizer length m
// ---------------------------------------------------------------------------------------

/// Table 4: end-to-end runtime varying m at k = 31.
pub fn table4_m_length() -> Vec<Row> {
    let celegans = dataset(DatasetPreset::CElegans, 5);
    let hsapiens = dataset(DatasetPreset::HSapiens10x, 5);
    let mut rows = Vec::new();
    for (name, data, nodes) in [
        ("C. elegans (1 node)", &celegans, 1usize),
        ("H. sapiens 10x (4 nodes)", &hsapiens, 4),
    ] {
        let mut row = Row::new(name);
        for m in [7usize, 13, 17, 21, 27] {
            let mut cfg = paper_config(31, nodes, data.data_scale);
            cfg.m = m;
            let (_, modeled) = run_hysortk(&data.reads, &cfg);
            row = row.push(&format!("m{m}"), modeled.total_time());
        }
        rows.push(row);
    }
    rows
}

// ---------------------------------------------------------------------------------------
// Figure 4 — strong scaling
// ---------------------------------------------------------------------------------------

/// Figure 4: strong scaling on H. sapiens 10x, k = 31, 1–16 nodes, with efficiency.
pub fn figure4_strong_scaling() -> Vec<Row> {
    let data = dataset(DatasetPreset::HSapiens10x, 6);
    let mut rows = Vec::new();
    let mut baseline = None;
    for nodes in [1usize, 2, 4, 8, 16] {
        let cfg = paper_config(31, nodes, data.data_scale);
        let (_, modeled) = run_hysortk(&data.reads, &cfg);
        let t = modeled.total_time();
        let base = *baseline.get_or_insert(t);
        rows.push(
            Row::new(format!("{nodes} nodes"))
                .push("time_s", t)
                .push("speedup", base / t)
                .push("efficiency", base / t / nodes as f64)
                .push(
                    "raduls",
                    matches!(modeled.sorter, hysortk_perfmodel::SortAlgorithm::Raduls) as u8 as f64,
                ),
        );
    }
    rows
}

// ---------------------------------------------------------------------------------------
// Figure 5 — weak scaling
// ---------------------------------------------------------------------------------------

/// Figure 5: weak scaling on the short-read dataset, 2 GB per node, stage breakdown.
pub fn figure5_weak_scaling() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut baseline = None;
    for nodes in [1usize, 2, 4, 8] {
        // 2 GB per node: the generated volume grows with the node count, and the scale
        // factor is chosen so the *projected* volume is exactly 2 GB × nodes.
        let gen_scale = default_scale(DatasetPreset::HSapiensShortRead) * nodes as f64;
        let data = DatasetPreset::HSapiensShortRead.generate(gen_scale, 7 + nodes as u64);
        let mut cfg = paper_config(31, nodes, 1.0);
        cfg.data_scale = (data.reads.total_bases() as f64 / (2e9 * nodes as f64)).clamp(1e-9, 1.0);
        let (_, modeled) = run_hysortk(&data.reads, &cfg);
        let t = modeled.total_time();
        let base = *baseline.get_or_insert(t);
        rows.push(
            Row::new(format!("{nodes} nodes"))
                .push("time_s", t)
                .push("weak_efficiency", base / t)
                .push("parse_s", modeled.stage_times.get("parse"))
                .push("exchange_s", modeled.stage_times.get("exchange"))
                .push(
                    "sort_scan_s",
                    modeled.stage_times.get("sort") + modeled.stage_times.get("scan"),
                ),
        );
    }
    rows
}

// ---------------------------------------------------------------------------------------
// Figure 6 — HySortK vs KMC3 (shared memory)
// ---------------------------------------------------------------------------------------

/// Figure 6: single-node comparison against the KMC3-style counter over k.
pub fn figure6_vs_kmc3() -> Vec<Row> {
    let data = dataset(DatasetPreset::CElegans, 8);
    let mut rows = Vec::new();
    for k in [17usize, 31, 55] {
        let cfg = paper_config(k, 1, data.data_scale);
        let (_, hysortk) = run_hysortk(&data.reads, &cfg);
        let kmc = if k <= 32 {
            kmc3_count::<Kmer1>(&data.reads, &cfg, &MachineConfig::perlmutter_cpu()).modeled
        } else {
            kmc3_count::<Kmer2>(&data.reads, &cfg, &MachineConfig::perlmutter_cpu()).modeled
        };
        rows.push(
            Row::new(format!("k={k}"))
                .push("hysortk_s", hysortk.total_time())
                .push("kmc3_s", kmc.total_time())
                .push("speedup", kmc.total_time() / hysortk.total_time()),
        );
    }
    rows
}

// ---------------------------------------------------------------------------------------
// Figures 7 and 8 — HySortK vs kmerind (runtime and memory)
// ---------------------------------------------------------------------------------------

/// Shared logic for Figures 7 and 8.
fn vs_kmerind(preset: DatasetPreset, node_counts: &[usize], seed: u64) -> Vec<Row> {
    let data = dataset(preset, seed);
    let mut rows = Vec::new();
    for &nodes in node_counts {
        let cfg = paper_config(31, nodes, data.data_scale);
        let (_, hysortk) = run_hysortk(&data.reads, &cfg);
        let mut row = Row::new(format!("{nodes} nodes"))
            .push("hysortk_s", hysortk.total_time())
            .push("hysortk_mem_gb", hysortk.peak_memory_per_node as f64 / 1e9);
        match kmerind_count::<Kmer1>(&data.reads, &cfg, &MachineConfig::perlmutter_cpu()) {
            KmerindOutcome::Completed(res) => {
                row = row
                    .push("kmerind_s", res.modeled.total_time())
                    .push(
                        "kmerind_mem_gb",
                        res.modeled.peak_memory_per_node as f64 / 1e9,
                    )
                    .push(
                        "mem_saving",
                        1.0 - hysortk.peak_memory_per_node as f64
                            / res.modeled.peak_memory_per_node as f64,
                    );
            }
            KmerindOutcome::OutOfMemory { projected_peak, .. } => {
                row = row.push("kmerind_oom_gb", projected_peak as f64 / 1e9);
            }
        }
        rows.push(row);
    }
    rows
}

/// Figure 7: H. sapiens 10x, 1–16 nodes (kmerind runs out of memory on one node).
pub fn figure7_vs_kmerind_hs10x() -> Vec<Row> {
    vs_kmerind(DatasetPreset::HSapiens10x, &[1, 2, 4, 8, 16], 9)
}

/// Figure 8: H. sapiens 52x, 8–64 nodes (kmerind stops scaling beyond 32 nodes).
pub fn figure8_vs_kmerind_hs52x() -> Vec<Row> {
    vs_kmerind(DatasetPreset::HSapiens52x, &[8, 16, 32, 64], 10)
}

// ---------------------------------------------------------------------------------------
// Figure 9 — HySortK vs MetaHipMer2 (GPU)
// ---------------------------------------------------------------------------------------

/// Figure 9: C. elegans, k ∈ {17, 31, 55}, 1–8 nodes.
pub fn figure9_vs_mhm2() -> Vec<Row> {
    let data = dataset(DatasetPreset::CElegans, 11);
    let mut rows = Vec::new();
    for k in [17usize, 31, 55] {
        for nodes in [1usize, 2, 4, 8] {
            let cfg = paper_config(k, nodes, data.data_scale);
            let hysortk_t = run_hysortk(&data.reads, &cfg).1.total_time();
            let mhm2_t = if k <= 32 {
                mhm2_count::<Kmer1>(&data.reads, &cfg).modeled.total_time()
            } else {
                mhm2_count::<Kmer2>(&data.reads, &cfg).modeled.total_time()
            };
            rows.push(
                Row::new(format!("k={k}, {nodes} nodes"))
                    .push("hysortk_s", hysortk_t)
                    .push("mhm2_s", mhm2_t)
                    .push("speedup", mhm2_t / hysortk_t),
            );
        }
    }
    rows
}

// ---------------------------------------------------------------------------------------
// Figure 10 — ELBA integration
// ---------------------------------------------------------------------------------------

/// Figure 10: ELBA with and without HySortK under the two layouts.
pub fn figure10_elba() -> Vec<Row> {
    let data = dataset(DatasetPreset::ABaumannii, 12);
    let runs = [
        (
            "ELBA original 64p1t",
            CounterChoice::Original,
            64usize,
            1usize,
        ),
        ("ELBA original 4p16t", CounterChoice::Original, 4, 16),
        ("ELBA + HySortK 4p16t", CounterChoice::HySortK, 4, 16),
    ];
    runs.into_iter()
        .map(|(label, counter, procs, threads)| {
            let mut cfg = ElbaConfig::figure10(counter, procs, threads);
            cfg.data_scale = data.data_scale;
            let result = run_elba::<Kmer1>(&data.reads, &cfg);
            Row::new(label)
                .push("kmer_counting_s", result.stage_times.get("kmer-counting"))
                .push("overlap_s", result.stage_times.get("overlap-detection"))
                .push("transred_s", result.stage_times.get("transitive-reduction"))
                .push("contig_s", result.stage_times.get("contig-generation"))
                .push("total_s", result.total_time())
        })
        .collect()
}

// ---------------------------------------------------------------------------------------
// §3.2 and §3.3 claims — supermer statistics and communication optimisations
// ---------------------------------------------------------------------------------------

/// §3.2: supermer communication saving and hash-vs-lexicographic partition balance.
pub fn supermer_statistics() -> Vec<Row> {
    let data = dataset(DatasetPreset::HSapiens10x, 13);
    let k = 31;
    let m = 13;
    let batches = 256u32;

    let stats_for = |score| {
        let scorer = MmerScorer::new(m, score);
        let mut per_target = vec![0u64; batches as usize];
        // Wire bytes in both supermer formats: [plain, with provenance].
        let mut supermer_bytes = [0u64; 2];
        let mut kmer_bytes = 0u64;
        for read in data.reads.iter() {
            for sm in build_supermers(read, k, &scorer, batches) {
                per_target[sm.target as usize] += sm.num_kmers(k) as u64;
                supermer_bytes[0] += sm.wire_bytes(false) as u64;
                supermer_bytes[1] += sm.wire_bytes(true) as u64;
                kmer_bytes += sm.num_kmers(k) as u64 * 8;
            }
        }
        (partition_stats(&per_target), supermer_bytes, kmer_bytes)
    };

    let (hash_stats, supermer_bytes, kmer_bytes) = stats_for(ScoreFunction::Hash { seed: 31 });
    let (lex_stats, _, _) = stats_for(ScoreFunction::Lexicographic);
    let reduction = |bytes: u64| 1.0 - bytes as f64 / kmer_bytes as f64;

    vec![
        Row::new("supermer vs raw k-mer exchange")
            .push("comm_reduction", reduction(supermer_bytes[0]))
            .push("with_provenance", reduction(supermer_bytes[1])),
        Row::new("murmur hash score (256 batches)")
            .push("std_dev", hash_stats.std_dev)
            .push("max_min_ratio", hash_stats.max_min_ratio),
        Row::new("lexicographic score (256 batches)")
            .push("std_dev", lex_stats.std_dev)
            .push("max_min_ratio", lex_stats.max_min_ratio),
        Row::new("stddev improvement").push(
            "lex_over_hash",
            lex_stats.std_dev / hash_stats.std_dev.max(1e-9),
        ),
    ]
}

/// §3.3: overlap and extension-compression effect on the exchange stage. The exchange is
/// the product's extension exchange — supermers with `(read id, start)` headers — with
/// overlap off and on; the §3.3.2 codec, which the product does not put on the wire, is
/// priced on its own ([`extension_codec`]).
pub fn communication_optimisations() -> Vec<Row> {
    let data = dataset(DatasetPreset::CElegans, 14);
    let mut cfg = paper_config(31, 4, data.data_scale);
    cfg.with_extension = true;

    let run = |label: &str, overlap: bool| {
        let mut cfg = cfg.clone();
        cfg.overlap = overlap;
        let modeled = modeled(&run_hysortk_counts(&data.reads, &cfg).report, &cfg);
        Row::new(label)
            .push("exchange_s", modeled.stage_times.get("exchange"))
            .push("wire_gb", modeled.total_wire_bytes as f64 / 1e9)
    };

    let no_overlap = run("no overlap", false);
    let with_overlap = run("overlap", true);
    let codec = extension_codec(&data.reads, &cfg);

    let overlap_speedup = no_overlap.get("exchange_s").unwrap_or(0.0)
        / with_overlap.get("exchange_s").unwrap_or(1.0).max(1e-9);
    let volume_reduction = 1.0 - codec.get("ratio").unwrap_or(1.0);

    vec![
        no_overlap,
        with_overlap,
        codec,
        Row::new("derived")
            .push("overlap_speedup", overlap_speedup)
            .push("compression_volume_reduction", volume_reduction),
        overlap_end_to_end_128_ranks(),
    ]
}

/// The §3.3.2 extension codec on the stream it was designed for: every k-mer instance's
/// extension, on the rank that parsed its read, grouped by the task its canonical k-mer
/// hashes to (`hash_kmer(canonical, seed) % tasks`) in read order, each group encoded
/// with [`encode_extensions`] — against the same extensions at their fixed width. Both
/// volumes are projected to full scale.
fn extension_codec(reads: &ReadSet, cfg: &HySortKConfig) -> Row {
    let (k, tasks) = (cfg.k, cfg.num_tasks());
    let (mut raw, mut compressed) = (0u64, 0u64);
    for range in reads.partition_by_bases(cfg.total_ranks()) {
        let mut by_task: Vec<Vec<Extension>> = vec![Vec::new(); tasks];
        for read in &reads.reads()[range] {
            for (pos, km) in read.seq.kmers::<Kmer1>(k).enumerate() {
                let task = hash_kmer(&km.canonical(k), cfg.seed) % tasks as u64;
                by_task[task as usize].push(Extension::new(read.id, pos as u32));
            }
        }
        for extensions in &by_task {
            let encoded = encode_extensions(extensions);
            raw += encoded.uncompressed_bytes() as u64;
            compressed += encoded.wire_bytes() as u64;
        }
    }
    let gb = |bytes: u64| bytes as f64 / cfg.data_scale / 1e9;
    Row::new("extension codec")
        .push("raw_gb", gb(raw))
        .push("compressed_gb", gb(compressed))
        .push("ratio", compressed as f64 / raw.max(1) as f64)
}

/// §3.3 end to end at the paper's layout: the H. sapiens 10x stand-in on 8 nodes × 16
/// processes per node (all 128 ranks simulated, not the few-rank shortcut of
/// [`paper_config`] — the codec share the overlap hides scales with ppn), on the
/// extension exchange. One unbounded round (`overlap = false`) against batched rounds,
/// which must count identically.
fn overlap_end_to_end_128_ranks() -> Row {
    let data = dataset(DatasetPreset::HSapiens10x, 15);
    let mut overlapped_cfg = paper_config(31, 8, data.data_scale);
    overlapped_cfg.processes_per_node = 16;
    overlapped_cfg.threads_per_process =
        (MachineConfig::perlmutter_cpu().cores_per_node / 16).max(1);
    overlapped_cfg.with_extension = true;
    overlapped_cfg.overlap = true;
    let mut bulk_cfg = overlapped_cfg.clone();
    bulk_cfg.overlap = false;

    let bulk = run_hysortk_counts(&data.reads, &bulk_cfg);
    let overlapped = run_hysortk_counts(&data.reads, &overlapped_cfg);
    assert_eq!(bulk.counts, overlapped.counts, "exchange modes disagree");
    assert_eq!(
        bulk.extensions, overlapped.extensions,
        "exchange modes disagree on extensions"
    );
    let bulk_s = modeled(&bulk.report, &bulk_cfg).total_time();
    let overlapped = modeled(&overlapped.report, &overlapped_cfg);
    let overlapped_s = overlapped.total_time();
    Row::new("128 ranks, end to end")
        .push("modeled_bulk_s", bulk_s)
        .push("modeled_overlapped_s", overlapped_s)
        .push("modeled_speedup", bulk_s / overlapped_s)
        .push("rounds_projected", overlapped.rounds as f64)
        .push("overlap_fraction", overlapped.overlap_fraction)
}

/// One experiment: its `repro` name, its title, and the function producing its rows.
type Experiment = (&'static str, &'static str, fn() -> Vec<Row>);

/// Every experiment, in the order `repro list` and `repro all` print them.
pub const EXPERIMENTS: &[Experiment] = &[
    (
        "ablation",
        "§4.1.1 optimisation-strategy ablation (task layer, heavy hitters)",
        ablation_task_layer,
    ),
    (
        "tpw",
        "§4.1.1 tasks-per-worker sweep",
        ablation_tasks_per_worker,
    ),
    (
        "table2",
        "Table 2: runtime vs processes per node",
        table2_processes_per_node,
    ),
    (
        "table3",
        "Table 3: communication time vs batch size",
        table3_batch_size,
    ),
    (
        "table4",
        "Table 4: runtime vs minimizer length m",
        table4_m_length,
    ),
    (
        "fig4",
        "Figure 4: strong scaling on H. sapiens 10x",
        figure4_strong_scaling,
    ),
    (
        "fig5",
        "Figure 5: weak scaling (2 GB/node) with stage breakdown",
        figure5_weak_scaling,
    ),
    (
        "fig6",
        "Figure 6: HySortK vs KMC3 (shared memory)",
        figure6_vs_kmc3,
    ),
    (
        "fig7",
        "Figure 7: HySortK vs kmerind on H. sapiens 10x",
        figure7_vs_kmerind_hs10x,
    ),
    (
        "fig8",
        "Figure 8: HySortK vs kmerind on H. sapiens 52x",
        figure8_vs_kmerind_hs52x,
    ),
    (
        "fig9",
        "Figure 9: HySortK vs MetaHipMer2 (GPU) on C. elegans",
        figure9_vs_mhm2,
    ),
    ("fig10", "Figure 10: ELBA integration", figure10_elba),
    (
        "supermer_stats",
        "§3.2 supermer communication and balance claims",
        supermer_statistics,
    ),
    (
        "comm_opt",
        "§3.3 overlap and compression claims",
        communication_optimisations,
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheapest_experiments_render_as_verbatim_blocks_of_the_golden() {
        // CI diffs all of `repro all` against the golden; this keeps a stale golden
        // from passing `cargo test`. A block is what `repro all` prints per experiment.
        let golden = include_str!("../../../tests/data/repro_all.golden.txt");
        let titles: Vec<String> = EXPERIMENTS
            .iter()
            .map(|(_, title, _)| format!("== {title} =="))
            .collect();
        let golden_titles: Vec<&str> = golden.lines().filter(|l| l.starts_with("== ")).collect();
        assert_eq!(golden_titles, titles, "golden lists other experiments");
        for name in ["fig4", "supermer_stats"] {
            let (_, title, run) = EXPERIMENTS.iter().find(|(n, _, _)| *n == name).unwrap();
            let block = format!("{}\n", render(title, &run()));
            assert!(golden.contains(&block), "{name} left the golden:\n{block}");
        }
    }

    #[test]
    fn row_accessors_work() {
        let row = Row::new("x").push("a", 1.0).push("b", 2.0);
        assert_eq!(row.get("a"), Some(1.0));
        assert_eq!(row.get("missing"), None);
        let text = render("t", &[row]);
        assert!(text.contains("a=1.000"));
    }

    #[test]
    fn default_scales_are_small_fractions() {
        for preset in DatasetPreset::ALL {
            let s = default_scale(preset);
            assert!(s > 0.0 && s < 1e-3);
        }
    }
}
