//! The pipeline grid: one input gives one answer on every layout.
//!
//! Every whole run that a test compares with the oracle is a row of one table,
//! [`table`]. Each row runs once and goes through one routine, [`check`], against one
//! oracle per input and k: the naive `reference_counts` / `reference_extensions`
//! counters, which share no code with the pipeline. Two runs that equal the oracle equal
//! each other, so rows are compared with each other only for traffic ([`cross_check`]).
//!
//! Each row belongs to one [`Group`], and each group is one test, declared with
//! [`grid_tests!`] in the test file of what it pins: `pipeline_grid.rs`,
//! `properties.rs`, `end_to_end.rs` and `ingest.rs` each hold their groups' tests and
//! no comparison code of their own. CI runs those four binaries again under
//! `HYSORTK_NO_SIMD=1`.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::{env, process};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hysortk_core::ingest::count_kmers_from_files;
use hysortk_core::{count_kmers, reference_counts, reference_extensions};
use hysortk_core::{CountResult, HySortKConfig, KmerHistogram};
use hysortk_datasets::DatasetPreset;
use hysortk_dmem::Backend::{self, Process, Thread};
use hysortk_dmem::StageTraffic;
use hysortk_dna::io::write_fastq_file;
use hysortk_dna::{fasta, Extension, Kmer1, Kmer2, KmerCode, ReadSet};
use hysortk_task::HeavyHitterPolicy;

/// The test a row runs in: each names the axes of its rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Group {
    /// Short random reads at random k on random rank counts.
    Arbitrary,
    /// Reads with multiplicities: ranks × round budgets × extensions.
    Overlap,
    /// Reads with multiplicities: backends × ranks × overlap, with extensions.
    Backends,
    /// The report on both backends, and the ablations: task layer, heavy hitters,
    /// rounds, ranks, bands, extensions, two-word k-mers, and extensions bypassing the
    /// kmerlist conversion on the satellite.
    Ablations,
    /// The satellite under a factor-2 heavy-hitter policy: ranks × round budgets.
    Heavy,
    /// Pool widths × ranks × round budgets on one backend.
    PoolWidth(Backend),
    /// Sections × ranks × k-mer widths × threads × overlap × extensions × backends.
    Sections,
    /// A large retained two-word table on both backends.
    TwoWordTable,
    /// A genome preset from memory, FASTA and FASTQ × ranks × overlap × backends.
    FileSources,
    /// The preset at 1–8 ranks and 1–3 tasks per worker.
    ClusterSizes,
    /// The preset at k = 55.
    LargeK,
}

/// The inputs of the grid, each built once per test that runs it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Input {
    /// Case `i` of sixteen sets of 1–11 random reads of 0–199 bases, at a random k in
    /// 5..24 on 1–4 ranks ([`arbitrary_cases`]).
    Arbitrary(usize),
    /// 40 reads of 180 bases sampled from a 1 200-base genome: every k-mer ~6 times.
    Genome,
    /// [`Input::Genome`] and 30 reads of `(AATGG)₅₀`: the satellite lands in one task,
    /// which a factor-2 heavy-hitter policy converts to a kmerlist.
    Satellite,
    /// 500 reads of 1 000 bases from a 60 000-base genome: on one task per worker,
    /// every layout cuts its tasks into several sections.
    Sectioned,
    /// 400 random reads of 520 bases: at k = 41 nearly every k-mer is distinct, so a
    /// band from 1 retains a table of ~190 k two-word entries.
    TwoWordTable,
    /// The `ABaumannii` preset at its smallest scale, in memory and written once to
    /// FASTA and to FASTQ.
    ABaumannii,
}

/// Where a row's reads come from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    Reads,
    Fasta,
    Fastq,
}

/// A row's round budget: `Batch(n)` is overlap on, rounds of `n` records per rank per
/// destination; `Bulk` is overlap off, one unbounded round — which reads no batch size,
/// so a bulk row has none and two bulk rows cannot differ in one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rounds {
    Bulk,
    Batch(usize),
}
use Rounds::{Batch, Bulk};

/// One row of the grid: one run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Layout {
    input: Input,
    source: Source,
    backend: Backend,
    ranks: usize,
    /// Threads per rank.
    threads: usize,
    /// Threads per worker: `threads / worker_threads` workers per rank.
    worker_threads: usize,
    tasks_per_worker: usize,
    rounds: Rounds,
    task_layer: bool,
    heavy: HeavyHitterPolicy,
    extensions: bool,
    k: usize,
    m: usize,
    /// The `[min_count, max_count]` band.
    band: (u64, u64),
}

/// `HySortKConfig::small`'s layout at `ranks` ranks, in memory on threads, with the
/// band open from 1.
#[rustfmt::skip]
fn small(input: Input, k: usize, m: usize, ranks: usize) -> Layout {
    Layout {
        input, source: Source::Reads, backend: Thread, k, m, band: (1, 1_000_000),
        ranks, threads: 2, worker_threads: 1, tasks_per_worker: 3, rounds: Batch(4_096),
        task_layer: true, heavy: HeavyHitterPolicy::default(), extensions: false,
    }
}

impl Layout {
    /// This row with `edit` applied.
    fn with(mut self, edit: impl FnOnce(&mut Layout)) -> Layout {
        edit(&mut self);
        self
    }

    fn config(&self, data_scale: f64) -> HySortKConfig {
        let mut cfg = HySortKConfig::small_with_threads(self.k, self.m, self.ranks, self.threads);
        cfg.threads_per_worker = self.worker_threads;
        cfg.tasks_per_worker = self.tasks_per_worker;
        match self.rounds {
            Bulk => cfg.overlap = false,
            Batch(records) => cfg.batch_size = records,
        }
        cfg.use_task_layer = self.task_layer;
        cfg.heavy_hitter = self.heavy;
        cfg.with_extension = self.extensions;
        (cfg.min_count, cfg.max_count) = self.band;
        cfg.backend = self.backend;
        cfg.data_scale = data_scale;
        cfg
    }
}

/// `rows` × `values`: each row once per value, set by `set`.
fn cross<T: Copy>(rows: Vec<Layout>, values: &[T], set: impl Fn(&mut Layout, T)) -> Vec<Layout> {
    let set = &set;
    let each = |row: Layout| values.iter().map(move |&v| row.with(|r| set(r, v)));
    rows.into_iter().flat_map(each).collect()
}

/// Every run of the grid, with the group it runs in: each group of rows is a base layout
/// at some rank counts, crossed with one list of values per axis. A row two groups share
/// runs once, in the first.
#[rustfmt::skip]
fn table() -> Vec<(Group, Layout)> {
    use Input::*;
    use Source::*;
    let at = |input, k, m, ranks: &[usize]| -> Vec<Layout> {
        ranks.iter().map(|&p| small(input, k, m, p)).collect()
    };
    let (both, off) = ([Thread, Process], HeavyHitterPolicy::disabled());
    let factor_2 = HeavyHitterPolicy { factor: 2.0, enabled: true };
    // One record, the default, more than the input; and bulk.
    let budgets = [Batch(1), Batch(4_096), Batch(1_000_000_000), Bulk];
    let mut rows = Vec::new();
    let mut add = |group, layouts: Vec<Layout>| rows.extend(layouts.into_iter().map(|row| (group, row)));

    // Short random reads: random k, m = k/2, random rank counts.
    let cases = arbitrary_cases().into_iter().enumerate();
    add(Group::Arbitrary, cases.map(|(case, (_, k, ranks))| small(Arbitrary(case), k, (k / 2).max(3), ranks)).collect());

    // Overlap: ranks × round budgets × extensions.
    let overlap = cross(at(Genome, 21, 9, &[1, 2, 7]), &budgets, |r, v| r.rounds = v);
    add(Group::Overlap, cross(overlap, &[false, true], |r, v| r.extensions = v));
    // Backends × ranks × overlap, with extensions.
    let backends = cross(at(Genome, 21, 9, &[1, 2, 7]), &[Bulk, Batch(2_048)], |r, v| r.rounds = v);
    add(Group::Backends, cross(backends, &both, |r, v| (r.backend, r.extensions) = (v, true)));
    // The report, on both backends at batches of 64 records and in bulk.
    let report = cross(at(Genome, 21, 9, &[1, 2, 3]), &[Batch(64), Bulk], |r, v| r.rounds = v);
    add(Group::Ablations, cross(report, &both, |r, v| r.backend = v));
    // The ablations at 4 ranks — task layer off, heavy hitters off, bulk, batches of 16
    // records (many task-granular rounds), one rank — bands below and above,
    // extensions in a band, and two-word k-mers.
    let base = small(Genome, 21, 9, 4);
    add(Group::Ablations, vec![
        base.with(|r| r.task_layer = false),
        base.with(|r| r.heavy = off),
        base.with(|r| r.rounds = Bulk),
        base.with(|r| r.rounds = Batch(16)),
        small(Genome, 21, 9, 1),
        small(Genome, 17, 8, 4).with(|r| r.band = (2, 50)),
        small(Genome, 19, 9, 4).with(|r| (r.band, r.extensions) = ((2, 60), true)),
        small(Genome, 41, 17, 3),
    ]);
    // Extensions, which bypass the kmerlist conversion, on the satellite at 4 ranks.
    add(Group::Ablations, cross(at(Satellite, 15, 7, &[4]), &[false, true],
                                |r, v| (r.extensions, r.heavy) = (v, factor_2)));

    // The satellite under a factor-2 policy: ranks × round budgets.
    add(Group::Heavy, cross(at(Satellite, 15, 7, &[2, 7]), &[Batch(1), Batch(4_096), Bulk],
                            |r, v| (r.rounds, r.heavy) = (v, factor_2)));

    // Pool widths: the round loop's three send-side shapes — plain supermers, a heavy
    // task's kmerlist among them, supermers with extensions — × ranks × threads per
    // rank {1, 2, 3, 5} at 30 tasks per rank, so every width serializes the same tasks,
    // × round budgets (bulk at one thread), one test per backend.
    let shapes = [(Genome, off, false), (Satellite, factor_2, false), (Genome, off, true)];
    let widths = cross(at(Genome, 17, 8, &[1, 2, 3]), &shapes,
                       |r, (input, heavy, ext)| (r.input, r.heavy, r.extensions) = (input, heavy, ext));
    let batched = budgets[..3].iter().flat_map(|&b| [1, 2, 3, 5].map(|t| (t, b)));
    let widths = cross(widths, &[(1, Bulk)].into_iter().chain(batched).collect::<Vec<_>>(),
                       |r, (t, v)| (r.threads, r.tasks_per_worker, r.rounds) = (t, 30 / t, v));
    for backend in both {
        add(Group::PoolWidth(backend), cross(widths.clone(), &[backend], |r, v| r.backend = v));
    }

    // Sections: one worker of `threads` threads and one task per rank, so each task is
    // cut into sections, which the worker's threads split — ranks × one- and two-word
    // k-mers in a band of [2, 1000] × threads × overlap × extensions × both backends.
    let sections = [at(Sectioned, 31, 15, &[1, 2, 3]), at(Sectioned, 55, 23, &[1, 2, 3])].concat();
    let sections = cross(sections, &[1, 2], |r, t| {
        (r.threads, r.worker_threads, r.tasks_per_worker, r.band) = (t, t, 1, (2, 1_000))
    });
    let sections = cross(sections, &[Batch(4_096), Bulk], |r, v| r.rounds = v);
    let sections = cross(sections, &[false, true], |r, v| r.extensions = v);
    add(Group::Sections, cross(sections, &both, |r, v| r.backend = v));

    // A large retained two-word table through the root's assembly and, out of forked
    // ranks, through the result codec: ranks × threads {2 × 1, 1 × 2, 3 × 2}.
    let table = [(2, 1), (1, 2), (3, 2)].map(|(p, t)| small(TwoWordTable, 41, 17, p).with(|r| r.threads = t));
    add(Group::TwoWordTable, cross(table.to_vec(), &both, |r, v| r.backend = v));

    // A genome preset from memory, FASTA and FASTQ × ranks × overlap; and the file
    // sources on forked ranks.
    let preset = cross(at(ABaumannii, 21, 10, &[1, 2, 7]), &[Bulk, Batch(4_096)], |r, v| r.rounds = v);
    let preset = cross(preset, &[Reads, Fasta, Fastq], |r, v| r.source = v);
    let forked = preset.iter().filter(|r| r.source != Reads && r.ranks > 1);
    let forked: Vec<Layout> = forked.map(|row| row.with(|r| r.backend = Process)).collect();
    add(Group::FileSources, preset.into_iter().chain(forked).collect());
    // Cluster sizes at 1–3 tasks per worker in a band of [2, 10 000], and k = 55.
    let sizes = at(ABaumannii, 21, 10, &[1, 2, 5, 8]).into_iter();
    add(Group::ClusterSizes, sizes.map(|row| row.with(|r| (r.tasks_per_worker, r.band) = (1 + r.ranks % 3, (2, 10_000)))).collect());
    add(Group::LargeK, vec![small(ABaumannii, 55, 23, 3).with(|r| r.band = (2, 10_000))]);

    let first = |i: usize| !rows[..i].iter().any(|(_, row)| *row == rows[i].1);
    (0..rows.len()).filter(|&i| first(i)).map(|i| rows[i]).collect()
}

/// Short random reads: `(reads, k, ranks)` of sixteen seeded cases.
fn arbitrary_cases() -> Vec<(ReadSet, usize, usize)> {
    let mut rng = StdRng::seed_from_u64(113);
    let mut case = || {
        let reads = rng.gen_range(1..12usize);
        let seqs: Vec<Vec<u8>> = (0..reads)
            .map(|_| {
                let len = rng.gen_range(0..200);
                bases(&mut rng, len)
            })
            .collect();
        let (k, ranks) = (rng.gen_range(5..24usize), rng.gen_range(1..5usize));
        (ReadSet::from_ascii_reads(&seqs), k, ranks)
    };
    (0..16).map(|_| case()).collect()
}

/// `len` random bases.
fn bases(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
}

/// `n` reads of `len` bases sampled from a random genome of `genome` bases.
fn sampled_reads(seed: u64, genome: usize, n: usize, len: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let genome = bases(&mut rng, genome);
    let mut read = |_| {
        let start = rng.gen_range(0..genome.len() - len);
        genome[start..start + len].to_vec()
    };
    (0..n).map(&mut read).collect()
}

/// An input as the rows read it.
struct Data {
    reads: ReadSet,
    data_scale: f64,
    /// The reads written to FASTA and to FASTQ, for inputs that rows read from files.
    files: Option<[PathBuf; 2]>,
    /// Whether every run cuts its tasks into several sections (`Some(true)`), none does
    /// (`Some(false)`), or that depends on the layout (`None`).
    sectioned: Option<bool>,
}

impl Data {
    /// `input`, for the test `test`: the files it writes are the test's own.
    fn build(input: Input, test: &str) -> Self {
        let of = |reads, sectioned| Data {
            reads,
            data_scale: 1.0,
            files: None,
            sectioned,
        };
        let seqs = |seqs: Vec<Vec<u8>>| ReadSet::from_ascii_reads(&seqs);
        let genome = || sampled_reads(220, 1_200, 40, 180);
        match input {
            Input::Arbitrary(case) => of(arbitrary_cases().swap_remove(case).0, Some(false)),
            Input::Genome => of(seqs(genome()), Some(false)),
            Input::Satellite => {
                let satellite = vec![b"AATGG".repeat(50); 30];
                of(seqs([genome(), satellite].concat()), Some(false))
            }
            Input::Sectioned => of(seqs(sampled_reads(240, 60_000, 500, 1_000)), Some(true)),
            Input::TwoWordTable => {
                let mut rng = StdRng::seed_from_u64(230);
                of(seqs((0..400).map(|_| bases(&mut rng, 520)).collect()), None)
            }
            Input::ABaumannii => {
                let data = DatasetPreset::ABaumannii.generate(1.2e-4, 4242);
                let path = |ext| {
                    let name = format!("hysortk_grid_{test}_{}.{ext}", process::id());
                    env::temp_dir().join(name)
                };
                let files = [path("fa"), path("fq")];
                fasta::write_fasta_file(&files[0], &data.reads, 61).unwrap();
                write_fastq_file(&files[1], &data.reads).unwrap();
                let mut preset = of(data.reads, None);
                (preset.files, preset.data_scale) = (Some(files), data.data_scale);
                preset
            }
        }
    }
}

/// The oracle of one input at one k, from the naive counters: every canonical k-mer
/// with its count and, when a row asks for extensions, its occurrences — and the
/// retained table and the histogram of every band a row runs in.
#[allow(clippy::type_complexity)]
struct Oracle<K: KmerCode> {
    counts: Vec<(K, u64)>,
    /// Parallel to `counts`; empty when no row asks for extensions.
    occurrences: Vec<Vec<Extension>>,
    bands: HashMap<(u64, u64), (Vec<(K, u64)>, KmerHistogram)>,
}

impl<K: KmerCode> Oracle<K> {
    /// The oracle of `rows`, which share one input and one k.
    fn new(reads: &ReadSet, rows: &[&Layout]) -> Self {
        let k = rows[0].k;
        let (counts, occurrences) = if rows.iter().any(|row| row.extensions) {
            (reference_extensions::<K>(reads, k, 1, u64::MAX).into_iter())
                .map(|(kmer, list)| ((kmer, list.len() as u64), list))
                .unzip()
        } else {
            (reference_counts(reads, k), Vec::new())
        };
        let mut bands = HashMap::new();
        for &(min, max) in rows.iter().map(|row| &row.band) {
            // Every distinct k-mer, retained or not, in the buckets the run records into.
            let mut histogram = KmerHistogram::for_max_count(max);
            counts.iter().for_each(|c| histogram.record(c.1));
            let retained = counts.iter().filter(|&&(_, c)| (min..=max).contains(&c));
            bands.insert((min, max), (retained.copied().collect(), histogram));
        }
        Oracle {
            counts,
            occurrences,
            bands,
        }
    }

    /// The occurrences of every k-mer retained in band `(min, max)`, in k-mer order.
    fn extensions(&self, (min, max): (u64, u64)) -> impl Iterator<Item = &Vec<Extension>> {
        (self.counts.iter().zip(&self.occurrences))
            .filter(move |(&(_, count), _)| (min..=max).contains(&count))
            .map(|(_, list)| list)
    }
}

/// What a row's run sent, for [`cross_check`].
struct Traffic {
    layout: Layout,
    /// What the row's tasks, and so the bytes they send, depend on.
    tasks: (usize, Source, usize, bool, HeavyHitterPolicy, bool),
    payload: u64,
    exchange: Option<StageTraffic>,
    sent_to: Vec<u64>,
}

/// Run every row of `group` against its oracle, one input and one k at a time. `test`
/// is the name of the calling test: a group with rows on the process backend runs in a
/// process of its own.
pub fn run(test: &str, group: Group) {
    let in_group = table().into_iter().filter(|&(of, _)| of == group);
    let table: Vec<Layout> = in_group.map(|(_, row)| row).collect();
    assert!(!table.is_empty(), "{group:?} has no rows");
    if table.iter().any(|row| row.backend == Process) && hysortk_dmem::ran_in_own_process(test) {
        return;
    }
    let mut inputs: Vec<Input> = Vec::new();
    for row in &table {
        if !inputs.contains(&row.input) {
            inputs.push(row.input);
        }
    }
    for input in inputs {
        let data = Data::build(input, test);
        let mut by_k: BTreeMap<usize, Vec<&Layout>> = BTreeMap::new();
        for row in table.iter().filter(|row| row.input == input) {
            by_k.entry(row.k).or_default().push(row);
        }
        for (k, rows) in by_k {
            match k {
                ..=32 => run_rows::<Kmer1>(&data, &rows),
                _ => run_rows::<Kmer2>(&data, &rows),
            }
        }
        for file in data.files.iter().flatten() {
            std::fs::remove_file(file).ok();
        }
    }
}

/// Run `rows`, of one input and one k, each against the oracle, then against each
/// other for traffic.
fn run_rows<K: KmerCode>(data: &Data, rows: &[&Layout]) {
    let oracle = Oracle::<K>::new(&data.reads, rows);
    let run = |row: &Layout| {
        let cfg = row.config(data.data_scale);
        let result = match (row.source, &data.files) {
            (Source::Reads, _) => count_kmers::<K>(&data.reads, &cfg),
            (Source::Fasta, Some([fa, _])) => count_kmers_from_files(&[fa], &cfg).unwrap(),
            (Source::Fastq, Some([_, fq])) => count_kmers_from_files(&[fq], &cfg).unwrap(),
            (source, None) => panic!("{row:?}: no {source:?} file of this input"),
        };
        check(data, &oracle, row, &result);
        let comm = &result.report.comm;
        Traffic {
            layout: *row,
            tasks: (
                cfg.num_tasks(),
                row.source,
                row.ranks,
                row.task_layer,
                row.heavy,
                row.extensions,
            ),
            payload: result.report.total_wire_bytes,
            exchange: comm.stage("exchange").cloned(),
            sent_to: comm.sent_to.clone(),
        }
    };
    cross_check(&rows.iter().map(|&row| run(row)).collect::<Vec<_>>());
}

/// Everything one run must be: the oracle's counts, histogram and extension lists, and
/// a report that describes the run that happened.
fn check<K: KmerCode>(data: &Data, oracle: &Oracle<K>, row: &Layout, result: &CountResult<K>) {
    // Each assertion names itself and the row when it fails.
    macro_rules! holds {
        ($cond:expr) => {
            assert!($cond, "{row:?}: {}", stringify!($cond))
        };
    }
    let (counts, histogram) = &oracle.bands[&row.band];
    holds!(row.input != Input::TwoWordTable || counts.len() > 180_000);
    holds!(result.counts == *counts);
    holds!(result.counts.sorted_vec() == *counts);
    holds!(result.histogram == *histogram);
    let report = &result.report;
    if let Some(lists) = &result.extensions {
        // One table, in key order as it equals the oracle's, and lists parallel to it.
        holds!(row.extensions && result.counts.runs().len() == 1);
        holds!(lists.iter().eq(oracle.extensions(row.band)));
    } else {
        // Nothing assembled: the runs the count jobs emitted, one per section that
        // retained a k-mer.
        holds!(!row.extensions && report.result_runs == result.counts.runs().len());
        holds!(data.sectioned != Some(true) || report.result_runs > row.ranks);
    }

    let kmers = data.reads.total_kmers(row.k) as u64;
    holds!(report.total_kmers == kmers);
    holds!(report.distinct_kmers == result.histogram.distinct());
    holds!(report.retained_kmers == result.counts.len() as u64);
    holds!(report.rank_work.len() == row.ranks && report.rank_comm.len() == row.ranks);
    let exchange = report.comm.stage("exchange");
    holds!(report.total_wire_bytes == exchange.map_or(0, |stage| stage.payload_bytes));
    // Bytes leave a rank only for another rank — and on every input but a handful of
    // short reads, whose k-mers may all stay on their own rank, some do.
    holds!(row.ranks > 1 || report.total_wire_bytes == 0);
    let short_reads = matches!(row.input, Input::Arbitrary(_));
    holds!(row.ranks == 1 || report.total_wire_bytes > 0 || short_reads);

    // Bytes hide behind a round in flight exactly when rounds overlap.
    let rounds = report.rank_work.iter().map(|w| w.rounds).max().unwrap();
    let fraction = report.overlap_fraction;
    holds!((fraction > 0.0) == (row.rounds != Bulk && rounds >= 2) && fraction <= 1.0);
    holds!(fraction >= 0.0);
    match row.rounds {
        // One unbounded round, and no sizing collective of its own.
        Bulk => {
            holds!(rounds == 1 && exchange.is_none_or(|stage| stage.rounds == 1));
            holds!(report.comm.stage("exchange-sizing").is_none());
        }
        // Batches far below the task sizes cut task-granular rounds, posted ahead.
        Batch(records) if records <= 64 => {
            holds!(rounds >= 2);
            let ahead = |stage: &StageTraffic| stage.rounds > 1 && stage.max_inflight_bytes > 0;
            holds!(row.ranks == 1 || exchange.is_some_and(ahead));
        }
        Batch(_) => {}
    }

    // Heavy tasks on the satellite, and none where the policy is off or extensions
    // bypass the conversion; the default policy may find one on any input.
    let converts = row.heavy.enabled && !row.extensions;
    holds!(converts || report.heavy_tasks == 0);
    holds!(!converts || row.input != Input::Satellite || report.heavy_tasks > 0);
    holds!(data.sectioned.is_none_or(|s| s == (report.sections > 1)));
    holds!(report.count_buffer_bytes > 0 || kmers == 0);
}

/// Traffic across rows of one input, k and task count: the exchange payload is one
/// figure whatever the round budget, pool width or backend, and at one round budget on
/// one backend the pool width changes no byte of the exchange, to any destination.
fn cross_check(traffic: &[Traffic]) {
    for (i, a) in traffic.iter().enumerate() {
        for b in traffic[i + 1..].iter().filter(|b| a.tasks == b.tasks) {
            let pair = format!("{:?}\n  vs {:?}", a.layout, b.layout);
            assert_eq!(a.payload, b.payload, "exchange payload: {pair}");
            if (a.layout.rounds, a.layout.backend) == (b.layout.rounds, b.layout.backend) {
                assert_eq!(a.exchange, b.exchange, "exchange: {pair}");
                assert_eq!(a.sent_to, b.sent_to, "bytes per destination: {pair}");
            }
        }
    }
}

/// One test per group of rows: `name => group`. The test's name is what a group with
/// rows on the process backend re-executes.
macro_rules! grid_tests {
    ($($(#[$doc:meta])* $name:ident => $group:expr;)*) => {$(
        $(#[$doc])*
        #[test]
        fn $name() {
            $crate::grid::run(stringify!($name), $group);
        }
    )*};
}
