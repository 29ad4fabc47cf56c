//! Round-granular checkpointing: epoch manifests, torn-write-safe commits, and
//! chain-validated restore.
//!
//! The round loop's `wait_round` boundary is a natural epoch: the round plan
//! ([`crate::overlap::plan_rounds`]) derives from globally identical inputs, so every
//! rank agrees — without communication — on which tasks round *r* completed. After a
//! committed round, each rank persists an **epoch manifest** holding the counted task
//! partials of the rounds since the previous manifest (a delta, linked by
//! `prev_epoch`) plus a cumulative snapshot of its worker-scratch state (histogram,
//! decode counters, per-task decoded totals). A run without overlap has one round and
//! therefore writes one manifest, epoch 0, covering its whole exchange.
//!
//! # Durability
//!
//! Manifests are written torn-write-safe: the bytes go to a `.tmp` sibling, are
//! fsynced, and only then renamed onto the final `ckpt-e{epoch}-r{rank}.bin` name — a
//! crash mid-write leaves either the previous manifest set or a dangling `.tmp` that
//! restore ignores. Every manifest ends in a checksum over its whole body, so a
//! bit-flipped or truncated file is detected at parse time.
//!
//! # Restore
//!
//! Recovery (an in-run generation respawn, or `hysortk count --resume`) scans the
//! directory for the **newest globally-consistent epoch**: the highest epoch whose
//! manifest — and every manifest on its `prev_epoch` chain — parses, checksums and
//! fingerprint-matches on *all* ranks. A corrupt or missing link invalidates
//! everything after it, falling back to the epoch before; the scan is pure local file
//! I/O over deterministic inputs, so every rank picks the same epoch without a
//! collective. The run fingerprint (k, m, seed, layout, mode flags, k-mer width …)
//! rejects manifests written by a different configuration loudly, and the stored hash
//! of the all-reduced task sizes rejects a changed input.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hysortk_dmem::FaultPlan;
use hysortk_dmem::RankCtx;
use hysortk_dna::kmer::KmerCode;
use hysortk_task::ScratchBank;
use hysortk_trace as trace;

use crate::config::HySortKConfig;
use crate::error::HysortkError;
use crate::result::KmerHistogram;
use crate::stage3::{CountScratch, TaskCounts};
use crate::wire::{checksum32, fold64};

/// Leading magic of every manifest.
const MAGIC: &[u8; 4] = b"HSKC";
/// Format version; bumped on any layout change.
const VERSION: u32 = 1;

/// Hash of the all-reduced global task sizes: a changed input (different files,
/// different shard contents) changes some task size and is rejected at restore time.
pub(crate) fn sizes_hash(global_sizes: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(global_sizes.len() * 8);
    for &s in global_sizes {
        bytes.extend_from_slice(&s.to_le_bytes());
    }
    fold64(&bytes)
}

/// Fingerprint of everything that shapes the deterministic round structure and the
/// manifest payload: counting parameters, cluster layout, execution-mode flags and
/// the k-mer word width. Two runs with equal fingerprints and equal [`sizes_hash`]
/// plan identical rounds, so a manifest from one is resumable by the other.
pub(crate) fn run_fingerprint<K: KmerCode>(cfg: &HySortKConfig, num_tasks: usize) -> u64 {
    let mut bytes = Vec::with_capacity(128);
    let mut push = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    push(K::WORDS as u64);
    push(cfg.k as u64);
    push(cfg.m as u64);
    push(u64::from(cfg.seed));
    push(cfg.nodes as u64);
    push(cfg.processes_per_node as u64);
    push(cfg.threads_per_process as u64);
    push(cfg.threads_per_worker as u64);
    push(cfg.tasks_per_worker as u64);
    push(num_tasks as u64);
    push(cfg.batch_size as u64);
    push(cfg.min_count);
    push(cfg.max_count);
    push(u64::from(cfg.use_task_layer));
    push(u64::from(cfg.overlap));
    push(u64::from(cfg.heavy_hitter.enabled));
    push(cfg.heavy_hitter.factor.to_bits());
    push(cfg.data_scale.to_bits());
    fold64(&bytes)
}

/// Final on-disk name of one rank's manifest for one epoch.
///
/// Public so tests (and operators) can locate, corrupt or delete specific manifests;
/// the in-flight temporary carries a `.tmp` suffix and is ignored by restore.
pub fn manifest_path(dir: &Path, epoch: usize, rank: usize) -> PathBuf {
    dir.join(format!("ckpt-e{epoch:06}-r{rank:04}.bin"))
}

/// Parse a manifest filename back into `(epoch, rank)`; `None` for temporaries and
/// foreign files.
fn parse_manifest_name(name: &str) -> Option<(usize, usize)> {
    let rest = name.strip_prefix("ckpt-e")?;
    let (epoch, rest) = rest.split_at_checked(6)?;
    let rest = rest.strip_prefix("-r")?;
    let (rank, rest) = rest.split_at_checked(4)?;
    if rest != ".bin" {
        return None;
    }
    Some((epoch.parse().ok()?, rank.parse().ok()?))
}

/// One decoded manifest.
struct Manifest<K: KmerCode> {
    rank: usize,
    ranks: usize,
    fingerprint: u64,
    epoch: usize,
    prev_epoch: Option<usize>,
    rounds_total: usize,
    sizes_hash: u64,
    // Cumulative scratch snapshot at this epoch.
    received_records: u64,
    precounted_records: u64,
    histogram: Vec<u64>,
    decoded: Vec<(u32, u64)>,
    // Delta since `prev_epoch`.
    task_sizes: Vec<u64>,
    tasks: Vec<TaskCounts<K>>,
}

#[allow(clippy::too_many_arguments)]
fn encode_manifest<K: KmerCode>(
    fingerprint: u64,
    rank: usize,
    ranks: usize,
    epoch: usize,
    prev_epoch: Option<usize>,
    rounds_total: usize,
    sizes_hash: u64,
    received_records: u64,
    precounted_records: u64,
    histogram: &[u64],
    decoded: &BTreeMap<u32, u64>,
    delta_sizes: &[u64],
    delta_tasks: &[TaskCounts<K>],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + delta_tasks.len() * 64);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(rank as u32).to_le_bytes());
    out.extend_from_slice(&(ranks as u32).to_le_bytes());
    out.extend_from_slice(&(epoch as u32).to_le_bytes());
    let prev: i64 = prev_epoch.map_or(-1, |e| e as i64);
    out.extend_from_slice(&prev.to_le_bytes());
    out.extend_from_slice(&(rounds_total as u32).to_le_bytes());
    out.extend_from_slice(&sizes_hash.to_le_bytes());
    out.extend_from_slice(&(K::WORDS as u32).to_le_bytes());
    out.extend_from_slice(&received_records.to_le_bytes());
    out.extend_from_slice(&precounted_records.to_le_bytes());
    out.extend_from_slice(&(histogram.len() as u32).to_le_bytes());
    for &b in histogram {
        out.extend_from_slice(&b.to_le_bytes());
    }
    out.extend_from_slice(&(decoded.len() as u32).to_le_bytes());
    for (&task, &instances) in decoded {
        out.extend_from_slice(&task.to_le_bytes());
        out.extend_from_slice(&instances.to_le_bytes());
    }
    out.extend_from_slice(&(delta_sizes.len() as u32).to_le_bytes());
    for &s in delta_sizes {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out.extend_from_slice(&(delta_tasks.len() as u32).to_le_bytes());
    for task in delta_tasks {
        out.extend_from_slice(&(task.counts.len() as u32).to_le_bytes());
        for (km, count) in &task.counts {
            for &w in km.word_slice() {
                out.extend_from_slice(&w.to_le_bytes());
            }
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
    let checksum = checksum32(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Little-endian field reader over a manifest body.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("manifest truncated at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A count of elements `width` bytes wide on disk, bounded by how many the bytes left
    /// can hold, so a corrupt count — or a forged one under a recomputed checksum — cannot
    /// drive an allocation larger than the manifest before the element reads fail.
    fn len(&mut self, width: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        let fits = (self.bytes.len() - self.pos) / width;
        if n > fits {
            return Err(format!(
                "manifest length field {n} exceeds the {fits} {width}-byte elements left"
            ));
        }
        Ok(n)
    }
}

fn decode_manifest<K: KmerCode>(bytes: &[u8]) -> Result<Manifest<K>, String> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err("manifest shorter than its magic and checksum".into());
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
    if checksum32(body) != stored {
        return Err("manifest checksum mismatch (torn write or bit corruption)".into());
    }
    let mut r = Reader {
        bytes: body,
        pos: 0,
    };
    if r.take(4)? != MAGIC {
        return Err("not a checkpoint manifest (bad magic)".into());
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(format!("unsupported manifest version {version}"));
    }
    let fingerprint = r.u64()?;
    let rank = r.u32()? as usize;
    let ranks = r.u32()? as usize;
    let epoch = r.u32()? as usize;
    let prev = r.i64()?;
    let prev_epoch = if prev < 0 { None } else { Some(prev as usize) };
    let rounds_total = r.u32()? as usize;
    let sizes_hash = r.u64()?;
    let words = r.u32()? as usize;
    if words != K::WORDS {
        return Err(format!(
            "manifest stores {words}-word k-mers, the run uses {}",
            K::WORDS
        ));
    }
    let received_records = r.u64()?;
    let precounted_records = r.u64()?;
    let histogram: Vec<u64> = (0..r.len(8)?).map(|_| r.u64()).collect::<Result<_, _>>()?;
    let ndecoded = r.len(12)?;
    let mut decoded = Vec::with_capacity(ndecoded);
    for _ in 0..ndecoded {
        let task = r.u32()?;
        let instances = r.u64()?;
        decoded.push((task, instances));
    }
    let task_sizes: Vec<u64> = (0..r.len(8)?).map(|_| r.u64()).collect::<Result<_, _>>()?;
    // A task is at least its entry count.
    let ntasks = r.len(4)?;
    let mut tasks = Vec::with_capacity(ntasks);
    let mut words_buf = vec![0u64; K::WORDS];
    for _ in 0..ntasks {
        let entries = r.len((K::WORDS + 1) * 8)?;
        let mut counts = Vec::with_capacity(entries);
        for _ in 0..entries {
            for w in words_buf.iter_mut() {
                *w = r.u64()?;
            }
            let count = r.u64()?;
            counts.push((K::from_word_slice(&words_buf), count));
        }
        tasks.push(TaskCounts { counts, ext: None });
    }
    if r.pos != body.len() {
        return Err(format!(
            "manifest has {} trailing bytes after its last field",
            body.len() - r.pos
        ));
    }
    Ok(Manifest {
        rank,
        ranks,
        fingerprint,
        epoch,
        prev_epoch,
        rounds_total,
        sizes_hash,
        received_records,
        precounted_records,
        histogram,
        decoded,
        task_sizes,
        tasks,
    })
}

/// Write one manifest torn-write-safe: temp file → fsync → rename. The configured
/// fault plan's `checkpoint` site fires *between* the fsync and the rename — the
/// exact window where a real crash leaves a complete-but-unpublished temporary — so
/// chaos schedules can pin the fallback behaviour.
fn atomic_write(
    dir: &Path,
    epoch: usize,
    rank: usize,
    fault: Option<&FaultPlan>,
    bytes: &[u8],
) -> Result<(), HysortkError> {
    let final_path = manifest_path(dir, epoch, rank);
    let tmp_path = final_path.with_extension("bin.tmp");
    let io_err = |path: &Path, source: std::io::Error| HysortkError::Io {
        path: path.display().to_string(),
        rank,
        source,
    };
    let mut file = fs::File::create(&tmp_path).map_err(|e| io_err(&tmp_path, e))?;
    file.write_all(bytes).map_err(|e| io_err(&tmp_path, e))?;
    file.sync_all().map_err(|e| io_err(&tmp_path, e))?;
    drop(file);
    if let Some(plan) = fault {
        // A matching `fail:R:checkpoint:EPOCH` fault is this rank's simulated death
        // mid-commit: surface it as our own failure so the caller publishes an abort.
        plan.fire_control(rank, "checkpoint", epoch)
            .map_err(HysortkError::Comm)?;
    }
    fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, e))
}

/// Accumulators handed back to a round driver: counted task partials, per-task
/// record totals, decoded per-task instance totals, and the resume round cursor.
pub(crate) type SeedParts<K> = (Vec<TaskCounts<K>>, Vec<u64>, BTreeMap<u32, u64>, usize);

/// Everything restore hands the pipeline: the accumulators of the committed rounds
/// plus the cursor to resume the round loop from.
pub(crate) struct RestoredState<K: KmerCode> {
    /// First round the resumed loop must execute (`last committed epoch + 1`).
    pub next_round: usize,
    /// Round count of the original plan, to cross-check the resumed plan.
    pub rounds_total: usize,
    /// Hash of the all-reduced task sizes at write time.
    pub sizes_hash: u64,
    /// Counted tasks of the committed rounds, in commit order.
    pub tasks: Vec<TaskCounts<K>>,
    /// Per-task record totals of the committed rounds, in commit order.
    pub task_sizes: Vec<u64>,
    /// Decoded k-mer instances per task over the committed rounds.
    pub decoded: BTreeMap<u32, u64>,
    /// Cumulative multiplicity histogram at the restored epoch.
    pub histogram: KmerHistogram,
    /// Cumulative records decoded from supermer blocks.
    pub received_records: u64,
    /// Cumulative kmerlist entries decoded.
    pub precounted_records: u64,
}

/// Load and fully validate the manifest chain of `rank` headed at `head`, returning
/// the manifests oldest-first. Any parse failure, identity mismatch or broken link is
/// an error naming the defect.
fn load_chain<K: KmerCode>(
    dir: &Path,
    head: usize,
    rank: usize,
    ranks: usize,
    fingerprint: u64,
) -> Result<Vec<Manifest<K>>, String> {
    let mut chain: Vec<Manifest<K>> = Vec::new();
    let mut next = Some(head);
    while let Some(epoch) = next {
        let path = manifest_path(dir, epoch, rank);
        let bytes = fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let m = decode_manifest::<K>(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        if m.fingerprint != fingerprint {
            return Err(format!(
                "{}: written by a different run configuration",
                path.display()
            ));
        }
        if m.rank != rank || m.ranks != ranks || m.epoch != epoch {
            return Err(format!("{}: identity fields disagree", path.display()));
        }
        if let Some(prev) = m.prev_epoch {
            if prev >= epoch {
                return Err(format!("{}: non-monotonic epoch chain", path.display()));
            }
        }
        next = m.prev_epoch;
        chain.push(m);
    }
    chain.reverse();
    Ok(chain)
}

/// Find the newest globally-consistent epoch in `dir` and restore this rank's state
/// from it. `Ok(None)` means a clean start (no directory, no usable manifests);
/// `Err` is reserved for manifests that parse but belong to a different run — silent
/// fallback there would quietly recount the wrong thing.
pub(crate) fn restore<K: KmerCode>(
    dir: &Path,
    rank: usize,
    ranks: usize,
    fingerprint: u64,
) -> Result<Option<RestoredState<K>>, String> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return Ok(None),
    };
    let mut epochs: Vec<usize> = Vec::new();
    for entry in entries.flatten() {
        if let Some((epoch, _)) = entry.file_name().to_str().and_then(parse_manifest_name) {
            epochs.push(epoch);
        }
    }
    epochs.sort_unstable();
    epochs.dedup();

    let mut mismatch: Option<String> = None;
    for &candidate in epochs.iter().rev() {
        let mut all_valid = true;
        for r in 0..ranks {
            if let Err(e) = load_chain::<K>(dir, candidate, r, ranks, fingerprint) {
                if e.contains("different run configuration") {
                    mismatch.get_or_insert(e);
                }
                all_valid = false;
                break;
            }
        }
        if !all_valid {
            continue;
        }
        let chain = load_chain::<K>(dir, candidate, rank, ranks, fingerprint)?;
        let newest = chain.last().expect("validated chain is never empty");
        let next_round = newest.epoch + 1;
        let rounds_total = newest.rounds_total;
        let sizes_hash = newest.sizes_hash;
        let histogram = KmerHistogram::from_buckets(newest.histogram.clone());
        let received_records = newest.received_records;
        let precounted_records = newest.precounted_records;
        let decoded: BTreeMap<u32, u64> = newest.decoded.iter().copied().collect();
        let mut tasks = Vec::new();
        let mut task_sizes = Vec::new();
        for m in chain {
            tasks.extend(m.tasks);
            task_sizes.extend(m.task_sizes);
        }
        return Ok(Some(RestoredState {
            next_round,
            rounds_total,
            sizes_hash,
            tasks,
            task_sizes,
            decoded,
            histogram,
            received_records,
            precounted_records,
        }));
    }
    match mismatch {
        // No usable epoch, and at least one manifest belongs to another run: refuse
        // rather than silently starting over in a directory that was clearly meant
        // for something else.
        Some(e) => Err(e),
        None => Ok(None),
    }
}

/// The per-rank checkpoint driver: owns the directory, the commit cadence, the
/// restored seed and the delta marks, and writes one manifest per committed epoch.
pub(crate) struct RoundCheckpointer<K: KmerCode> {
    dir: PathBuf,
    every: usize,
    rank: usize,
    ranks: usize,
    fingerprint: u64,
    sizes_hash: u64,
    fault: Option<Arc<FaultPlan>>,
    rounds_total: Option<usize>,
    restored_rounds_total: Option<usize>,
    prev_epoch: Option<usize>,
    /// How many entries of the accumulated `tasks` / `task_sizes` earlier epochs
    /// already cover (restored or committed) — the next manifest's delta starts here.
    tasks_mark: usize,
    sizes_mark: usize,
    /// Cumulative scratch state of the committed epochs this generation did not
    /// recount: the restored histogram and decode counters.
    base_histogram: KmerHistogram,
    base_received: u64,
    base_precounted: u64,
    seed: Option<RestoredSeed<K>>,
    /// Manifests committed by this generation (restored epochs not included).
    pub(crate) epochs_committed: usize,
}

/// The restored accumulators, handed to the round driver exactly once.
struct RestoredSeed<K: KmerCode> {
    tasks: Vec<TaskCounts<K>>,
    task_sizes: Vec<u64>,
    decoded: BTreeMap<u32, u64>,
    next_round: usize,
}

impl<K: KmerCode> RoundCheckpointer<K> {
    /// Open the checkpoint directory for this rank: create it, and — when the run is
    /// resuming (`--resume`) or this is a recovery respawn (`generation > 0`) —
    /// restore the newest globally-consistent epoch and verify it matches this run's
    /// input (`sizes_hash`).
    pub(crate) fn open(
        dir: &Path,
        cfg: &HySortKConfig,
        ctx: &RankCtx,
        fingerprint: u64,
        sizes_hash: u64,
    ) -> Result<Self, HysortkError> {
        let rank = ctx.rank();
        let ranks = ctx.size();
        fs::create_dir_all(dir).map_err(|source| HysortkError::Io {
            path: dir.display().to_string(),
            rank,
            source,
        })?;
        let mut ckpt = RoundCheckpointer {
            dir: dir.to_path_buf(),
            every: cfg.checkpoint_every,
            rank,
            ranks,
            fingerprint,
            sizes_hash,
            fault: ctx.fault_plan_arc(),
            rounds_total: None,
            restored_rounds_total: None,
            prev_epoch: None,
            tasks_mark: 0,
            sizes_mark: 0,
            base_histogram: KmerHistogram::new(cfg.max_count as usize + 2),
            base_received: 0,
            base_precounted: 0,
            seed: None,
            epochs_committed: 0,
        };
        if cfg.resume || ctx.generation() > 0 {
            let restored = restore::<K>(dir, rank, ranks, fingerprint)
                .map_err(|e| HysortkError::Config(format!("cannot resume: {e}")))?;
            if let Some(state) = restored {
                if state.sizes_hash != sizes_hash {
                    return Err(HysortkError::Config(
                        "cannot resume: the checkpointed task sizes do not match this \
                         input (the files changed since the checkpoint was written)"
                            .into(),
                    ));
                }
                ckpt.restored_rounds_total = Some(state.rounds_total);
                ckpt.prev_epoch = Some(state.next_round - 1);
                ckpt.tasks_mark = state.tasks.len();
                ckpt.sizes_mark = state.task_sizes.len();
                ckpt.base_histogram = state.histogram;
                ckpt.base_received = state.received_records;
                ckpt.base_precounted = state.precounted_records;
                trace::instant(
                    "checkpoint-restored",
                    trace::Detail::Stage,
                    rank as u32,
                    &[
                        ("next_round", state.next_round as u64),
                        ("rounds_total", state.rounds_total as u64),
                    ],
                );
                trace::vlog!(
                    rank,
                    "checkpoint restored: resuming at round {} of {}",
                    state.next_round,
                    state.rounds_total
                );
                ckpt.seed = Some(RestoredSeed {
                    tasks: state.tasks,
                    task_sizes: state.task_sizes,
                    decoded: state.decoded,
                    next_round: state.next_round,
                });
            }
        }
        Ok(ckpt)
    }

    /// Record the agreed round count of this exchange, cross-checking a restored
    /// state against the freshly planned rounds (equal fingerprints and sizes imply
    /// equal plans; a mismatch means the checkpoint belongs to a different run).
    pub(crate) fn set_rounds_total(&mut self, rounds: usize) -> Result<(), HysortkError> {
        if let Some(restored) = self.restored_rounds_total {
            if restored != rounds {
                return Err(HysortkError::Config(format!(
                    "cannot resume: the checkpoint was written by a {restored}-round \
                     plan, this run plans {rounds} rounds"
                )));
            }
        }
        self.rounds_total = Some(rounds);
        Ok(())
    }

    /// Hand the restored accumulators (tasks, sizes, decoded totals) and the resume
    /// cursor to the round driver. Empty state and round 0 on a fresh start.
    pub(crate) fn take_seed(&mut self) -> SeedParts<K> {
        match self.seed.take() {
            Some(seed) => (seed.tasks, seed.task_sizes, seed.decoded, seed.next_round),
            None => (Vec::new(), Vec::new(), BTreeMap::new(), 0),
        }
    }

    /// Whether round `round` is a commit boundary: every `checkpoint_every`-th round,
    /// and always the last round (so a completed run is completely durable).
    pub(crate) fn should_commit(&self, round: usize) -> bool {
        let rounds = self
            .rounds_total
            .expect("set_rounds_total precedes the round loop");
        (round + 1).is_multiple_of(self.every) || round + 1 == rounds
    }

    /// Restored cumulative scratch state this generation did not recount; the driver
    /// merges it into the assembled stage output.
    pub(crate) fn restored_base(&self) -> (&KmerHistogram, u64, u64) {
        (
            &self.base_histogram,
            self.base_received,
            self.base_precounted,
        )
    }

    /// Commit epoch `round` from the round loop's accumulators: snapshot the
    /// cumulative scratch state out of the (idle) bank, write the delta since the
    /// previous epoch, and advance the marks. Must run between job lists: a scratch a
    /// count job still holds would be missing from the snapshot.
    pub(crate) fn commit(
        &mut self,
        round: usize,
        tasks: &[TaskCounts<K>],
        task_sizes: &[u64],
        decoded: &BTreeMap<u32, u64>,
        bank: &ScratchBank<CountScratch<K>>,
    ) -> Result<(), HysortkError> {
        let mut histogram = self.base_histogram.clone();
        let mut received = self.base_received;
        let mut precounted = self.base_precounted;
        debug_assert!(
            bank.all_checked_in(),
            "epoch {round} committed while a count job still holds its scratch"
        );
        bank.for_each(|scratch| {
            histogram.merge(&scratch.histogram);
            received += scratch.received_records;
            precounted += scratch.precounted_records;
        });
        let rounds = self
            .rounds_total
            .expect("set_rounds_total precedes commits");
        let bytes = encode_manifest::<K>(
            self.fingerprint,
            self.rank,
            self.ranks,
            round,
            self.prev_epoch,
            rounds,
            self.sizes_hash,
            received,
            precounted,
            histogram.buckets(),
            decoded,
            &task_sizes[self.sizes_mark..],
            &tasks[self.tasks_mark..],
        );
        let manifest_bytes = bytes.len() as u64;
        atomic_write(&self.dir, round, self.rank, self.fault.as_deref(), &bytes)?;
        self.prev_epoch = Some(round);
        self.tasks_mark = tasks.len();
        self.sizes_mark = task_sizes.len();
        self.epochs_committed += 1;
        trace::instant(
            "checkpoint-epoch",
            trace::Detail::Stage,
            self.rank as u32,
            &[("round", round as u64), ("bytes", manifest_bytes)],
        );
        trace::vlog!(
            self.rank,
            "checkpoint epoch committed at round {round} ({manifest_bytes} manifest bytes)"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_dna::kmer::{Kmer1, Kmer2};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hysortk_ckpt_{}_{tag}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    type ManifestFields = (
        Vec<u64>,
        BTreeMap<u32, u64>,
        Vec<u64>,
        Vec<TaskCounts<Kmer1>>,
    );

    fn random_manifest_fields(rng: &mut StdRng) -> ManifestFields {
        let histogram: Vec<u64> = (0..rng.gen_range(2..20)).map(|_| rng.gen()).collect();
        let decoded: BTreeMap<u32, u64> = (0..rng.gen_range(0..10))
            .map(|_| (rng.gen_range(0..100u32), rng.gen()))
            .collect();
        let sizes: Vec<u64> = (0..rng.gen_range(0..8)).map(|_| rng.gen()).collect();
        let tasks: Vec<TaskCounts<Kmer1>> = (0..rng.gen_range(0..6))
            .map(|_| {
                let counts = (0..rng.gen_range(0..12))
                    .map(|_| {
                        let mut km = Kmer1::zero();
                        for _ in 0..21 {
                            km = km.push_base(21, rng.gen_range(0..4));
                        }
                        (km, rng.gen())
                    })
                    .collect();
                TaskCounts { counts, ext: None }
            })
            .collect();
        (histogram, decoded, sizes, tasks)
    }

    #[test]
    fn manifest_round_trips_across_ranks_and_epochs() {
        // Property-style: many random manifests across ranks/epochs/link shapes must
        // decode back to exactly what was encoded.
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for case in 0..40 {
            let (histogram, decoded, sizes, tasks) = random_manifest_fields(&mut rng);
            let rank = rng.gen_range(0..16);
            let ranks = rng.gen_range(rank + 1..20);
            let epoch = rng.gen_range(0..1000);
            let prev = if epoch > 0 && rng.gen_bool(0.7) {
                Some(rng.gen_range(0..epoch))
            } else {
                None
            };
            let fingerprint = rng.gen();
            let sizes_hash = rng.gen();
            let received = rng.gen();
            let precounted = rng.gen();
            let bytes = encode_manifest::<Kmer1>(
                fingerprint,
                rank,
                ranks,
                epoch,
                prev,
                epoch + 1,
                sizes_hash,
                received,
                precounted,
                &histogram,
                &decoded,
                &sizes,
                &tasks,
            );
            let m = decode_manifest::<Kmer1>(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(m.rank, rank);
            assert_eq!(m.ranks, ranks);
            assert_eq!(m.epoch, epoch);
            assert_eq!(m.prev_epoch, prev);
            assert_eq!(m.fingerprint, fingerprint);
            assert_eq!(m.sizes_hash, sizes_hash);
            assert_eq!(m.received_records, received);
            assert_eq!(m.precounted_records, precounted);
            assert_eq!(m.histogram, histogram);
            assert_eq!(
                m.decoded,
                decoded.iter().map(|(&t, &i)| (t, i)).collect::<Vec<_>>()
            );
            assert_eq!(m.task_sizes, sizes);
            assert_eq!(m.tasks.len(), tasks.len());
            for (got, want) in m.tasks.iter().zip(&tasks) {
                assert_eq!(got.counts, want.counts);
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut rng = StdRng::seed_from_u64(7);
        let (histogram, decoded, sizes, tasks) = random_manifest_fields(&mut rng);
        let bytes = encode_manifest::<Kmer1>(
            11,
            0,
            2,
            3,
            Some(1),
            5,
            22,
            33,
            44,
            &histogram,
            &decoded,
            &sizes,
            &tasks,
        );
        decode_manifest::<Kmer1>(&bytes).unwrap();
        // Flip one bit in a spread of positions, including the checksum itself.
        for pos in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            assert!(
                decode_manifest::<Kmer1>(&corrupt).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
        // Truncation, including into the checksum trailer.
        for cut in [1, 4, bytes.len() / 2, bytes.len() - 2] {
            assert!(decode_manifest::<Kmer1>(&bytes[..cut]).is_err());
        }
    }

    /// Prefixes, re-sealed bit flips and hostile counts: a manifest decodes to a value
    /// or a typed error, never a panic, and a count is bounded by the elements the bytes
    /// left can hold. A re-sealed manifest is what a forger who knows the checksum writes.
    fn manifest_decoding_survives_a_seeded_fuzz_loop<K: KmerCode>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let histogram: Vec<u64> = (0..5).map(|_| rng.gen()).collect();
        let decoded: BTreeMap<u32, u64> = (0..4).map(|task| (task, rng.gen())).collect();
        // Every task holds an entry, so no count field is the manifest's last bytes.
        let tasks: Vec<TaskCounts<K>> = (1..4)
            .map(|entries| TaskCounts {
                counts: (0..entries)
                    .map(|_| (K::from_word_slice(&[rng.gen(); 2][..K::WORDS]), rng.gen()))
                    .collect(),
                ext: None,
            })
            .collect();
        let bytes = encode_manifest::<K>(
            11,
            1,
            3,
            4,
            Some(2),
            9,
            22,
            33,
            44,
            &histogram,
            &decoded,
            &[7, 8],
            &tasks,
        );
        decode_manifest::<K>(&bytes).expect("the encoder's bytes decode");
        let body = bytes.len() - 4;
        let resealed = |mut bytes: Vec<u8>| {
            let at = bytes.len() - 4;
            let sum = checksum32(&bytes[..at]);
            bytes[at..].copy_from_slice(&sum.to_le_bytes());
            decode_manifest::<K>(&bytes)
        };

        for cut in 0..bytes.len() {
            assert!(decode_manifest::<K>(&bytes[..cut]).is_err(), "prefix {cut}");
            // Sealed as a manifest of its own, every cut but the whole body is short of
            // a field or carries trailer bytes as trailing garbage.
            let sealed = resealed([&bytes[..cut], &[0; 4]].concat());
            assert!(cut == body || sealed.is_err(), "re-sealed prefix {cut}");
        }
        for _ in 0..600 {
            let mut flipped = bytes.clone();
            let bit = rng.gen_range(0..body * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = resealed(flipped);
        }
        // The count fields and their elements' widths, walked past the 68-byte header:
        // histogram, decoded totals, task sizes, tasks, and each task's entries. The task
        // count is followed by the tasks, not by elements of its own.
        let count = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let entry = (K::WORDS + 1) * 8;
        let (mut fields, mut at) = (Vec::new(), 68);
        for width in [8, 12, 8, 4].into_iter().chain(vec![entry; tasks.len()]) {
            fields.push((at, width));
            at += 4 + if width == 4 { 0 } else { count(at) * width };
        }
        assert_eq!(at, body, "the walk ends at the trailer");
        for (at, width) in fields {
            let left = body - (at + 4);
            for value in [u32::MAX as usize, left, left / width + 1] {
                let mut forged = bytes.clone();
                forged[at..at + 4].copy_from_slice(&(value as u32).to_le_bytes());
                let forged = resealed(forged);
                assert!(
                    forged.is_err(),
                    "count {value} at byte {at} (width {width})"
                );
            }
        }
    }

    #[test]
    fn manifest_decoding_survives_a_seeded_fuzz_loop_on_both_kmer_widths() {
        manifest_decoding_survives_a_seeded_fuzz_loop::<Kmer1>(41);
        manifest_decoding_survives_a_seeded_fuzz_loop::<Kmer2>(42);
    }

    /// Write a small two-epoch chain for `ranks` ranks: epoch 0 (one task) and
    /// epoch `head` linking back to it.
    fn write_chain(dir: &Path, ranks: usize, fingerprint: u64, head: usize) {
        for rank in 0..ranks {
            let task = TaskCounts::<Kmer1> {
                counts: vec![(Kmer1::zero(), 5 + rank as u64)],
                ext: None,
            };
            let bytes = encode_manifest::<Kmer1>(
                fingerprint,
                rank,
                ranks,
                0,
                None,
                head + 1,
                99,
                10,
                0,
                &[0, 1],
                &BTreeMap::from([(0u32, 1u64)]),
                &[1],
                std::slice::from_ref(&task),
            );
            atomic_write(dir, 0, rank, None, &bytes).unwrap();
            let task2 = TaskCounts::<Kmer1> {
                counts: vec![(Kmer1::zero(), 100 + rank as u64)],
                ext: None,
            };
            let bytes = encode_manifest::<Kmer1>(
                fingerprint,
                rank,
                ranks,
                head,
                Some(0),
                head + 1,
                99,
                20,
                0,
                &[0, 2],
                &BTreeMap::from([(0u32, 2u64)]),
                &[2],
                std::slice::from_ref(&task2),
            );
            atomic_write(dir, head, rank, None, &bytes).unwrap();
        }
    }

    #[test]
    fn restore_picks_the_newest_consistent_epoch_and_concatenates_deltas() {
        let dir = tmp_dir("restore");
        write_chain(&dir, 2, 42, 3);
        let state = restore::<Kmer1>(&dir, 1, 2, 42).unwrap().unwrap();
        assert_eq!(state.next_round, 4);
        assert_eq!(state.rounds_total, 4);
        assert_eq!(state.sizes_hash, 99);
        // Deltas concatenate oldest-first; cumulative fields come from the head.
        assert_eq!(state.task_sizes, vec![1, 2]);
        assert_eq!(state.tasks.len(), 2);
        assert_eq!(state.tasks[0].counts[0].1, 6);
        assert_eq!(state.tasks[1].counts[0].1, 101);
        assert_eq!(state.received_records, 20);
        assert_eq!(state.decoded, BTreeMap::from([(0u32, 2u64)]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tmp_files_are_ignored() {
        let dir = tmp_dir("torn");
        write_chain(&dir, 2, 42, 1);
        // A crash mid-commit of epoch 2 leaves only the fsynced temporary behind.
        fs::write(
            manifest_path(&dir, 2, 0).with_extension("bin.tmp"),
            b"half a manifest",
        )
        .unwrap();
        let state = restore::<Kmer1>(&dir, 0, 2, 42).unwrap().unwrap();
        assert_eq!(state.next_round, 2, "the torn epoch 2 must not be restored");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_corruption_falls_back_to_the_previous_consistent_epoch() {
        let dir = tmp_dir("corrupt");
        write_chain(&dir, 3, 42, 2);
        // Flip a byte in the *middle* of rank 1's newest manifest.
        let victim = manifest_path(&dir, 2, 1);
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&victim, &bytes).unwrap();

        // Every rank (not only the corrupted one) must agree on the fallback epoch.
        for rank in 0..3 {
            let state = restore::<Kmer1>(&dir, rank, 3, 42).unwrap().unwrap();
            assert_eq!(state.next_round, 1, "rank {rank} must fall back to epoch 0");
            assert_eq!(state.received_records, 10);
            assert_eq!(state.tasks.len(), 1);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupting_a_chain_link_invalidates_the_epochs_after_it() {
        let dir = tmp_dir("chainlink");
        write_chain(&dir, 2, 42, 1);
        // Corrupt epoch 0 (the link) on rank 0: epoch 1's chain is now broken on that
        // rank, so no epoch is globally consistent at all.
        let victim = manifest_path(&dir, 0, 0);
        let mut bytes = fs::read(&victim).unwrap();
        bytes[10] ^= 0x01;
        fs::write(&victim, &bytes).unwrap();
        assert!(restore::<Kmer1>(&dir, 1, 2, 42).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_fingerprints_are_loud_not_silent() {
        let dir = tmp_dir("fingerprint");
        write_chain(&dir, 2, 42, 1);
        let err = match restore::<Kmer1>(&dir, 0, 2, 43) {
            Err(e) => e,
            Ok(_) => panic!("a foreign fingerprint must not restore"),
        };
        assert!(
            err.contains("different run configuration"),
            "unexpected error: {err}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_or_missing_directories_restore_nothing() {
        let dir = tmp_dir("empty");
        assert!(restore::<Kmer1>(&dir, 0, 2, 42).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
        assert!(restore::<Kmer1>(&dir, 0, 2, 42).unwrap().is_none());
    }

    #[test]
    fn fingerprint_separates_modes_and_parameters() {
        let base = HySortKConfig::small(21, 9, 4);
        let fp = run_fingerprint::<Kmer1>(&base, base.num_tasks());
        let mut overlap_off = base.clone();
        overlap_off.overlap = false;
        assert_ne!(
            fp,
            run_fingerprint::<Kmer1>(&overlap_off, overlap_off.num_tasks()),
            "execution mode must fingerprint"
        );
        let mut other_k = base.clone();
        other_k.k = 23;
        assert_ne!(fp, run_fingerprint::<Kmer1>(&other_k, other_k.num_tasks()));
        assert_eq!(fp, run_fingerprint::<Kmer1>(&base, base.num_tasks()));
    }

    #[test]
    fn manifest_names_round_trip_and_reject_foreign_files() {
        assert_eq!(parse_manifest_name("ckpt-e000012-r0003.bin"), Some((12, 3)));
        let p = manifest_path(Path::new("/tmp"), 12, 3);
        assert_eq!(
            parse_manifest_name(p.file_name().unwrap().to_str().unwrap()),
            Some((12, 3))
        );
        assert_eq!(parse_manifest_name("ckpt-e000012-r0003.bin.tmp"), None);
        assert_eq!(parse_manifest_name("ckpt-e1-r1.bin"), None);
        assert_eq!(parse_manifest_name("README.md"), None);
    }
}
