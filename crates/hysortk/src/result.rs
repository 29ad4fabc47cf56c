//! Results and run reports.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use hysortk_dmem::{CommStats, Wire};
use hysortk_dna::extension::Extension;
use hysortk_dna::kmer::KmerCode;
use hysortk_perfmodel::SortAlgorithm;
use hysortk_sort::multiway_merge;

/// The histogram of k-mer multiplicities: `histogram[c]` is the number of distinct
/// canonical k-mers observed exactly `c` times (index 0 unused). Counts above the cap
/// are accumulated in the last bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmerHistogram {
    buckets: Vec<u64>,
}

impl KmerHistogram {
    /// Create a histogram with `cap` buckets (counts ≥ cap land in the last bucket).
    /// The bucket count is clamped to 65 536 so that extreme `max_count` settings do not
    /// allocate absurd histograms.
    pub fn new(cap: usize) -> Self {
        KmerHistogram {
            buckets: vec![0; cap.clamp(2, 65_536)],
        }
    }

    /// The histogram a run of multiplicity band `[_, max_count]` records into: one bucket
    /// per multiplicity up to `max_count`, and the overflow bucket above it — clamped as
    /// [`Self::new`] clamps, whatever `max_count` is (`u64::MAX` included).
    pub fn for_max_count(max_count: u64) -> Self {
        KmerHistogram::new(usize::try_from(max_count).map_or(usize::MAX, |m| m.saturating_add(2)))
    }

    /// Record one distinct k-mer with multiplicity `count`.
    pub fn record(&mut self, count: u64) {
        let idx = (count as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
    }

    /// Number of distinct k-mers with multiplicity exactly `count` (or ≥ cap for the
    /// last bucket).
    pub fn get(&self, count: usize) -> u64 {
        self.buckets.get(count).copied().unwrap_or(0)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &KmerHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &v) in other.buckets.iter().enumerate() {
            self.buckets[i] += v;
        }
    }

    /// Forget everything recorded; the bucket layout stays.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
    }

    /// Total distinct k-mers recorded.
    pub fn distinct(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The raw buckets.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

/// Two empty buckets: the histogram of nothing counted.
impl Default for KmerHistogram {
    fn default() -> Self {
        KmerHistogram::new(2)
    }
}

/// Exact bucket-for-bucket codec (process-backend result transport).
impl Wire for KmerHistogram {
    fn encode(&self, out: &mut Vec<u8>) {
        self.buckets.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let buckets = Vec::<u64>::decode(input)?;
        if buckets.len() < 2 {
            return None;
        }
        Some(KmerHistogram { buckets })
    }
}

impl KmerHistogram {
    /// Render the histogram as TSV `multiplicity\tdistinct` lines (empty buckets
    /// skipped; the last bucket accumulates counts at or above the cap). This is the
    /// `hysortk count --out` file format, and what the CLI smoke test diffs against
    /// its checked-in golden file — deterministic for a given input regardless of
    /// rank count, overlap mode or sorter.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (count, &distinct) in self.buckets.iter().enumerate().skip(1) {
            if distinct > 0 {
                out.push_str(&format!("{count}\t{distinct}\n"));
            }
        }
        out
    }
}

/// Measured wall-clock seconds of one pipeline stage, aggregated over ranks: real
/// `Instant` deltas from the run that just happened; min vs max exposes stragglers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageWall {
    /// Stage name (`parse`, `serialize`, `exchange-wait`, `count`, …).
    pub name: &'static str,
    /// Fastest rank's seconds in this stage.
    pub min: f64,
    /// Mean seconds across ranks.
    pub mean: f64,
    /// Slowest rank's seconds in this stage (the straggler).
    pub max: f64,
}

/// The measured wall-clock rollup of a run: per-stage min/mean/max over
/// ranks. Stages partition each rank thread's wall time (the `other` bucket
/// absorbs everything not covered by a named stage), so
/// [`StageWallTimes::total_mean`] tracks the mean rank wall time and the sum
/// over stages accounts for the whole run, not just the instrumented parts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageWallTimes {
    /// Per-stage aggregates, in pipeline order.
    pub stages: Vec<StageWall>,
    /// Number of ranks aggregated.
    pub ranks: usize,
}

impl StageWallTimes {
    /// Aggregate per-rank stage buckets: `per_rank[r][s]` is rank `r`'s
    /// seconds in stage `names[s]`.
    pub fn from_rank_buckets(names: &[&'static str], per_rank: &[Vec<f64>]) -> Self {
        let ranks = per_rank.len();
        let stages = names
            .iter()
            .enumerate()
            .map(|(s, &name)| {
                let mut min = f64::INFINITY;
                let mut max = 0.0f64;
                let mut sum = 0.0f64;
                for rank in per_rank {
                    let v = rank.get(s).copied().unwrap_or(0.0);
                    min = min.min(v);
                    max = max.max(v);
                    sum += v;
                }
                StageWall {
                    name,
                    min: if ranks == 0 { 0.0 } else { min },
                    mean: if ranks == 0 { 0.0 } else { sum / ranks as f64 },
                    max,
                }
            })
            .collect();
        StageWallTimes { stages, ranks }
    }

    /// Look one stage up by name.
    pub fn get(&self, name: &str) -> Option<&StageWall> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Sum of per-stage mean seconds — the mean rank wall time.
    pub fn total_mean(&self) -> f64 {
        self.stages.iter().map(|s| s.mean).sum()
    }

    /// Sum of per-stage straggler seconds (an upper bound on rank wall time).
    pub fn total_max(&self) -> f64 {
        self.stages.iter().map(|s| s.max).sum()
    }

    /// One-line `stage=mean(min..max)` rendering for the CLI summary.
    pub fn summary(&self) -> String {
        self.stages
            .iter()
            .map(|s| format!("{}={:.3}s({:.3}..{:.3})", s.name, s.mean, s.min, s.max))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// What one rank measured of its work, at the scale the run ran: the per-rank counters
/// [`crate::model::project`] takes its maxima and sums of.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankWork {
    /// Bases stage 1 parsed on this rank.
    pub bases_parsed: u64,
    /// k-mer instances stage 1 parsed on this rank.
    pub kmers_parsed: u64,
    /// k-mer instances this rank's fills pre-counted for its heavy-hitter tasks.
    pub heavy_local_sorted: u64,
    /// The LPT makespan, in records, of this rank's received tasks over its workers.
    pub worker_makespan: u64,
    /// Records this rank counted: the k-mers of the supermers it received plus the
    /// pre-counted kmerlist pairs.
    pub received_records: u64,
    /// Bytes this rank serialized or counted while a round was in flight.
    pub hidden_bytes: u64,
    /// Bytes of the round loop's fill and drain (round 0 serialize, last round count)
    /// that nothing could hide — with one unbounded round, all of them.
    pub exposed_bytes: u64,
    /// Exchange rounds this rank ran.
    pub rounds: usize,
}

/// What one counting run measured: every figure is of the run that happened, at the
/// scale it ran, on the machine it ran on. What the paper's machine model projects from
/// it to full scale is a separate step, [`crate::model::project`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-stage wall-clock seconds with per-rank min/mean/max (always collected;
    /// independent of the tracing flag).
    pub stage_wall: StageWallTimes,
    /// Communication statistics, summed over ranks.
    pub comm: CommStats,
    /// Every rank's communication statistics, in rank order.
    pub rank_comm: Vec<CommStats>,
    /// Every rank's work counters, in rank order.
    pub rank_work: Vec<RankWork>,
    /// About how many k-mers and bases the input holds — what the run derived its
    /// sections from (see `Input::size` in [`crate::pipeline`]).
    pub input_kmers: u64,
    /// See [`RunReport::input_kmers`].
    pub input_bases: u64,
    /// Width of the k-mer codes the run counted, in 64-bit words.
    pub kmer_words: usize,
    /// The kernel stage 3 sorted every section with: RADULS. Kept because the frozen
    /// benchmark reads it; ROADMAP item 1b unpins it.
    pub sorter: SortAlgorithm,
    /// k-mer instances stage 1 parsed, summed over ranks.
    pub total_kmers: u64,
    /// Distinct canonical k-mers observed.
    pub distinct_kmers: u64,
    /// Distinct k-mers within the `[min_count, max_count]` band.
    pub retained_kmers: u64,
    /// Number of tasks flagged as heavy hitters.
    pub heavy_tasks: usize,
    /// Payload bytes of the exchange stage, summed over ranks — the `exchange` stage's
    /// `payload_bytes` in [`RunReport::comm`]. Named for what the frozen benchmark
    /// reads; ROADMAP item 1b unpins it.
    pub total_wire_bytes: u64,
    /// Imbalance (max/mean) of the task → rank assignment.
    pub assignment_imbalance: f64,
    /// Share (0..=1) of the bytes through the round loop that were serialized or
    /// counted while a round was in flight: Σ hidden ÷ (Σ hidden + Σ exposed) over
    /// [`RunReport::rank_work`]. Zero without overlap — the loop then runs one unbounded
    /// round and every byte is exposed — and on any run of one round. The frozen
    /// benchmark reads it; ROADMAP item 1b unpins it.
    pub overlap_fraction: f64,
    /// In-run rank recoveries: how many times the cluster respawned failed ranks and
    /// re-entered the pipeline instead of aborting. Zero for a healthy run.
    pub recoveries: usize,
    /// Checkpoint epochs committed by the most-advanced rank. Zero when no
    /// checkpoint directory is configured.
    pub epochs_committed: usize,
    /// The most stage-1 staging any rank held when its stage 1 ended — the sum of its
    /// tasks' supermer-block bodies. Filling a task into its round frees its share.
    pub staged_bytes: u64,
    /// How many sections stage 1 cut every task into — the `S` the run derived from its
    /// input size: 1 on small inputs.
    pub sections: u32,
    /// The largest high-water capacity of any rank's stage-3 count buffers — the section
    /// lanes (decode buffer, RADULS buffer, table, emitted-run staging) and the kmerlist
    /// staging, summed over the rank's count scratches.
    pub count_buffer_bytes: u64,
    /// Which SIMD hot-path variant the run used (`"avx2"` or `"scalar"`),
    /// as chosen by runtime CPU detection (overridable with `HYSORTK_NO_SIMD=1`).
    pub simd: &'static str,
    /// Root-side seconds from the last rank joining to the result being returned:
    /// collecting the ranks' sorted task runs into `counts` — moved, not merged, so
    /// close to zero — and building this report; in an extension run also the one
    /// parallel assembly of the runs into a single table and `extensions`. Together
    /// with the straggler's rank wall it accounts for the wall time of the run the
    /// caller measures.
    pub gather_s: f64,
    /// How many sorted runs [`CountResult::counts`] holds — one per section of every
    /// rank's tasks that retained a k-mer, or one in an extension run.
    pub result_runs: usize,
    /// The bytes of the pairs those runs hold, `retained_kmers × size_of::<(K, u64)>()`
    /// — the memory the result keeps.
    pub result_bytes: u64,
}

/// The retained `(k-mer, count)` table of a run, held the way the run produced it: the
/// sorted runs its count jobs emitted, **not** merged.
///
/// Every run is ascending by k-mer and the runs' key sets are pairwise disjoint (a
/// k-mer belongs to exactly one task), so membership, size and anything that folds over
/// the pairs need no merge. Key order across runs costs a merge, and only a caller that
/// asks pays for one: [`KmerRuns::sorted`] merges lazily, [`KmerRuns::sorted_vec`]
/// builds the array. Equality — against another table, or against a `Vec` sorted by
/// k-mer — is defined on that key order, so two tables are equal when they hold the
/// same pairs, however the pairs are split into runs.
///
/// An extension run ([`HySortKConfig::with_extension`](crate::HySortKConfig)) and
/// [`KmerRuns::from_sorted`] hold the whole table as **one** run.
#[derive(Debug, Clone)]
pub struct KmerRuns<K: KmerCode> {
    runs: Vec<Vec<(K, u64)>>,
}

impl<K: KmerCode> KmerRuns<K> {
    /// Take ownership of sorted runs with pairwise disjoint key sets. Nothing is
    /// copied; empty runs are dropped.
    pub fn from_runs(runs: impl IntoIterator<Item = Vec<(K, u64)>>) -> Self {
        let runs: Vec<_> = runs.into_iter().filter(|run| !run.is_empty()).collect();
        debug_assert!(runs
            .iter()
            .all(|run| run.windows(2).all(|w| w[0].0 < w[1].0)));
        KmerRuns { runs }
    }

    /// A table that is already in key order, held as one run.
    pub fn from_sorted(table: Vec<(K, u64)>) -> Self {
        Self::from_runs([table])
    }

    /// The runs as they are held: each ascending and none empty, in no order among
    /// themselves.
    pub fn runs(&self) -> &[Vec<(K, u64)>] {
        &self.runs
    }

    /// Number of retained distinct k-mers.
    pub fn len(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }

    /// True if nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The count of `kmer`: one binary search per run.
    pub fn get(&self, kmer: &K) -> Option<u64> {
        self.runs.iter().find_map(|run| {
            let at = run.binary_search_by(|(k, _)| k.cmp(kmer)).ok()?;
            Some(run[at].1)
        })
    }

    /// Every pair exactly once, **run by run**: ascending within a run, in no order
    /// across runs. What a fold, a histogram or a checksum needs — nothing is merged.
    pub fn iter(&self) -> impl Iterator<Item = &(K, u64)> + '_ {
        self.runs.iter().flatten()
    }

    /// Every pair exactly once in ascending k-mer order: a lazy merge over the run
    /// heads (`O(log runs)` per pair, no table-sized allocation). What a writer needs.
    pub fn sorted(&self) -> impl Iterator<Item = &(K, u64)> + '_ {
        let mut next = vec![0usize; self.runs.len()];
        let mut heads: BinaryHeap<Reverse<(K, usize)>> = (self.runs.iter().enumerate())
            .map(|(r, run)| Reverse((run[0].0, r)))
            .collect();
        std::iter::from_fn(move || {
            let mut head = heads.peek_mut()?;
            let Reverse((_, r)) = *head;
            let pair = &self.runs[r][next[r]];
            next[r] += 1;
            match self.runs[r].get(next[r]) {
                Some(&(kmer, _)) => *head = Reverse((kmer, r)),
                None => drop(PeekMut::pop(head)),
            }
            Some(pair)
        })
    }

    /// The table as one array in ascending k-mer order: the parallel digit-cut merge of
    /// the runs ([`hysortk_sort::multiway_merge`], under the caller's rayon budget).
    /// This allocates the whole table a second time; prefer [`KmerRuns::iter`] or
    /// [`KmerRuns::sorted`] unless the array itself is what is wanted.
    pub fn sorted_vec(&self) -> Vec<(K, u64)> {
        let runs: Vec<&[(K, u64)]> = self.runs.iter().map(Vec::as_slice).collect();
        multiway_merge(&runs)
    }
}

impl<K: KmerCode> PartialEq for KmerRuns<K> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.sorted().eq(other.sorted())
    }
}

impl<K: KmerCode> PartialEq<Vec<(K, u64)>> for KmerRuns<K> {
    fn eq(&self, sorted: &Vec<(K, u64)>) -> bool {
        self.len() == sorted.len() && self.sorted().eq(sorted.iter())
    }
}

impl<K: KmerCode> PartialEq<KmerRuns<K>> for Vec<(K, u64)> {
    fn eq(&self, runs: &KmerRuns<K>) -> bool {
        runs == self
    }
}

/// The output of a counting run.
#[derive(Debug, Clone)]
pub struct CountResult<K: KmerCode> {
    /// `(canonical k-mer, count)` pairs within `[min_count, max_count]`, each canonical
    /// k-mer exactly once across all ranks — as the sorted runs the count jobs emitted
    /// ([`RunReport::result_runs`] of them), or as one run when `extensions` is `Some`.
    pub counts: KmerRuns<K>,
    /// Histogram over *all* distinct k-mers (not only the retained band).
    pub histogram: KmerHistogram,
    /// Extension (provenance) lists for the retained k-mers, when the run was
    /// configured with `with_extension`. `counts` is then a single run, and
    /// `extensions[i]` belongs to its `i`-th pair (`counts.runs()[0][i]`).
    pub extensions: Option<Vec<Vec<Extension>>>,
    /// What the run measured.
    pub report: RunReport,
}

impl<K: KmerCode> CountResult<K> {
    /// Look up the count of a canonical k-mer (None if it was filtered out or absent).
    pub fn count_of(&self, kmer: &K) -> Option<u64> {
        self.counts.get(kmer)
    }

    /// Number of retained distinct k-mers.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_dna::kmer::{Kmer1, Kmer2};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `entries` random distinct keys dealt onto `runs` sorted runs, some left empty.
    fn random_runs<K: KmerCode>(
        rng: &mut StdRng,
        runs: usize,
        entries: usize,
    ) -> Vec<Vec<(K, u64)>> {
        let mut keys: Vec<K> = (0..entries)
            .map(|_| {
                // Few distinct top bits, so runs interleave inside a merge piece too.
                let words: Vec<u64> = (0..K::WORDS).map(|_| rng.gen::<u64>() >> 3).collect();
                K::from_word_slice(&words)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut dealt = vec![Vec::new(); runs];
        let live = runs - runs / 3;
        for key in keys {
            dealt[rng.gen_range(0..live)].push((key, rng.gen_range(1..1_000u64)));
        }
        dealt
    }

    fn kmer_runs_hold_one_table_however_it_is_split<K: KmerCode>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (runs, entries) in [(0, 0), (1, 300), (6, 0), (6, 2_000), (48, 5_000)] {
            let dealt = random_runs::<K>(&mut rng, runs, entries);
            let mut expected: Vec<(K, u64)> = dealt.concat();
            expected.sort_by_key(|&(kmer, _)| kmer);
            let table = KmerRuns::from_runs(dealt.clone());
            let what = format!("{runs} runs, {entries} entries");

            assert_eq!(table.len(), expected.len(), "{what}");
            assert_eq!(table.is_empty(), expected.is_empty(), "{what}");
            assert_eq!(
                table.runs().len(),
                dealt.iter().filter(|run| !run.is_empty()).count()
            );
            assert_eq!(table.sorted_vec(), expected, "{what}");
            assert!(table.sorted().eq(expected.iter()), "{what}");
            let mut run_major: Vec<(K, u64)> = table.iter().copied().collect();
            assert_eq!(run_major, dealt.concat(), "{what}: iter() is run-major");
            run_major.sort_by_key(|&(kmer, _)| kmer);
            assert_eq!(run_major, expected, "{what}");

            for &(kmer, count) in &expected {
                assert_eq!(table.get(&kmer), Some(count), "{what}");
            }
            for _ in 0..50 {
                let words: Vec<u64> = (0..K::WORDS).map(|_| rng.gen::<u64>() | 1 << 63).collect();
                assert_eq!(table.get(&K::from_word_slice(&words)), None, "{what}");
            }

            // Equality is the table's, not the split's: against the sorted array (both
            // ways round), against one run, and against another deal of the same pairs.
            assert_eq!(table, expected, "{what}");
            assert_eq!(expected, table, "{what}");
            assert_eq!(table, KmerRuns::from_sorted(expected.clone()), "{what}");
            let mut redealt = vec![Vec::new(); 5];
            for &pair in &expected {
                redealt[rng.gen_range(0..5)].push(pair);
            }
            assert_eq!(table, KmerRuns::from_runs(redealt), "{what}");
            if let Some(at) = (!expected.is_empty()).then(|| rng.gen_range(0..expected.len())) {
                let mut changed = expected.clone();
                changed[at].1 += 1;
                assert_ne!(table, changed, "{what}: one changed count");
                assert_ne!(table, KmerRuns::from_sorted(changed), "{what}");
                let mut shorter = expected.clone();
                shorter.remove(at);
                assert_ne!(table, shorter, "{what}: one pair missing");
            }
        }
    }

    #[test]
    fn kmer_runs_hold_one_table_however_it_is_split_on_both_kmer_widths() {
        kmer_runs_hold_one_table_however_it_is_split::<Kmer1>(5);
        kmer_runs_hold_one_table_however_it_is_split::<Kmer2>(6);
    }

    #[test]
    fn histogram_records_and_caps() {
        let mut h = KmerHistogram::new(10);
        h.record(1);
        h.record(1);
        h.record(5);
        h.record(500); // lands in the cap bucket
        assert_eq!(h.get(1), 2);
        assert_eq!(h.get(5), 1);
        assert_eq!(h.get(9), 1);
        assert_eq!(h.distinct(), 4);
    }

    #[test]
    fn stage_wall_aggregates_min_mean_max_per_stage() {
        let per_rank = vec![vec![1.0, 4.0], vec![3.0, 0.0], vec![2.0, 2.0]];
        let wall = StageWallTimes::from_rank_buckets(&["parse", "count"], &per_rank);
        assert_eq!(wall.ranks, 3);
        let parse = wall.get("parse").unwrap();
        assert_eq!((parse.min, parse.mean, parse.max), (1.0, 2.0, 3.0));
        let count = wall.get("count").unwrap();
        assert_eq!((count.min, count.mean, count.max), (0.0, 2.0, 4.0));
        assert!((wall.total_mean() - 4.0).abs() < 1e-12);
        assert!((wall.total_max() - 7.0).abs() < 1e-12);
        assert!(wall.get("absent").is_none());
        let line = wall.summary();
        assert!(line.contains("parse=2.000s(1.000..3.000)"), "{line}");
    }

    #[test]
    fn stage_wall_tolerates_short_rank_vectors() {
        // A rank that never reached a stage (e.g. died early) reports no
        // bucket for it; aggregation treats the missing entry as zero.
        let per_rank = vec![vec![1.0], vec![]];
        let wall = StageWallTimes::from_rank_buckets(&["parse", "count"], &per_rank);
        assert_eq!(wall.get("parse").unwrap().max, 1.0);
        assert_eq!(wall.get("count").unwrap().max, 0.0);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = KmerHistogram::new(5);
        a.record(1);
        let mut b = KmerHistogram::new(8);
        b.record(1);
        b.record(6);
        a.merge(&b);
        assert_eq!(a.get(1), 2);
        assert_eq!(a.get(6), 1);
        assert_eq!(a.distinct(), 3);
    }
}
