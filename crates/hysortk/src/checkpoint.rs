//! Round-granular checkpointing: epoch manifests, torn-write-safe commits, and
//! chain-validated restore.
//!
//! The round loop's `wait_round` boundary is a natural epoch: the round plan
//! ([`crate::overlap::plan_rounds`]) derives from globally identical inputs, so every
//! rank agrees — without communication — on which tasks round *r* completed. After a
//! committed round, each rank persists an **epoch manifest**: a [`CountedState`] whose
//! runs (extension lists included) and per-task record totals are the delta since the
//! previous manifest (linked by `prev_epoch`), and whose scratch counters (histogram,
//! decode counters, per-task decoded totals) are cumulative. A run without overlap has
//! one round and therefore writes one manifest, epoch 0, covering its whole exchange.
//!
//! # Format and durability
//!
//! A manifest is the magic `HSKC`, the format version ([`VERSION`], 2), a fixed header
//! (run fingerprint, rank, ranks, epoch), a [`Wire`] body (the chain link, the plan's
//! round count, the input's size hash and the state — runs in [`TaskCounts`]' codec, the
//! one the process backend ships them home in) and a [`checksum32`] trailer over all of
//! it. Manifests are written torn-write-safe: the bytes go to a `.tmp` sibling, are
//! fsynced, and only then renamed onto the final `ckpt-e{epoch}-r{rank}.bin` name — a
//! crash mid-write leaves either the previous manifest set or a dangling `.tmp` that
//! restore ignores.
//!
//! # Restore
//!
//! Recovery (an in-run generation respawn, or `hysortk count --resume`) scans the
//! directory for the **newest globally-consistent epoch**: the highest epoch whose
//! manifest — and every manifest on its `prev_epoch` chain — is intact and belongs to
//! this run on *all* ranks, and folds this rank's chain into one [`CountedState`]. Every
//! rank picks the same epoch without a collective: the scan is pure local file I/O over
//! deterministic inputs. What is wrong with a manifest decides what restore does:
//!
//! * **damaged** — a bad checksum, a torn or short file, a missing link: restore falls
//!   back to the epoch before;
//! * **foreign** — intact, but written in another format version or by another run
//!   configuration (the fingerprint covers k, m, seed, layout, mode flags and the k-mer
//!   width): restore refuses, loudly, rather than recount in a directory meant for
//!   something else.
//!
//! The header is checked before the body is decoded, so a manifest of another k-mer
//! width is foreign, not damaged. The stored hash of the all-reduced task sizes rejects
//! a changed input.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hysortk_dmem::wire::from_bytes;
use hysortk_dmem::{FaultPlan, RankCtx, Wire};
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
const VERSION: u32 = 2;

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

/// A rank's counted state at a round boundary: the sorted runs and per-task record
/// totals of the rounds counted so far, and what their count jobs left in the worker
/// scratches. A manifest holds one whose runs and totals are the delta since its
/// previous epoch; restore folds a chain into one; the round loop starts from one —
/// [`Default`] on a fresh start — extends its runs, totals and decoded counts round by
/// round, and keeps in `histogram` and the record counters only what it did not count
/// itself (its own scratches fold in at the end).
#[derive(Default)]
pub(crate) struct CountedState<K: KmerCode> {
    /// First round not counted yet.
    pub next_round: usize,
    /// Counted runs, in commit order.
    pub tasks: Vec<TaskCounts<K>>,
    /// Per-task record totals, in commit order.
    pub task_sizes: Vec<u64>,
    /// Decoded k-mer instances per task.
    pub decoded: BTreeMap<u32, u64>,
    /// Multiplicity histogram.
    pub histogram: KmerHistogram,
    /// Records decoded from supermer blocks.
    pub received_records: u64,
    /// Kmerlist entries decoded.
    pub precounted_records: u64,
}

/// Every pre-allocation of `decode` is bounded by the bytes left: at most 16 bytes (a
/// decoded-count pair) per byte.
impl<K: KmerCode> Wire for CountedState<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.next_round.encode(out);
        self.tasks.encode(out);
        self.task_sizes.encode(out);
        self.decoded.len().encode(out);
        for (&task, &instances) in &self.decoded {
            (task, instances).encode(out);
        }
        self.histogram.encode(out);
        self.received_records.encode(out);
        self.precounted_records.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(CountedState {
            next_round: usize::decode(input)?,
            tasks: TaskCounts::decode_runs(input)?,
            task_sizes: Vec::decode(input)?,
            decoded: Vec::<(u32, u64)>::decode(input)?.into_iter().collect(),
            histogram: KmerHistogram::decode(input)?,
            received_records: u64::decode(input)?,
            precounted_records: u64::decode(input)?,
        })
    }
}

/// One epoch manifest: the fixed header restore checks first, the chain link, what
/// the run's inputs were, and the counted state of the epoch.
struct Manifest<K: KmerCode> {
    fingerprint: u64,
    rank: usize,
    ranks: usize,
    epoch: usize,
    prev_epoch: Option<usize>,
    rounds_total: usize,
    sizes_hash: u64,
    state: CountedState<K>,
}

/// What is wrong with a manifest chain, which decides what restore does about it.
enum Defect {
    /// A bad checksum, a torn or short file, a missing link: fall back an epoch.
    Damaged(String),
    /// Intact, but of another format version or run configuration: refuse.
    Foreign(String),
}

impl<K: KmerCode> Manifest<K> {
    /// The file's bytes: magic, version, header, body, checksum.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        (VERSION, self.fingerprint).encode(&mut out);
        (self.rank, self.ranks, self.epoch).encode(&mut out);
        (self.prev_epoch, self.rounds_total, self.sizes_hash).encode(&mut out);
        self.state.encode(&mut out);
        checksum32(&out).encode(&mut out);
        out
    }

    /// Decode a manifest of the run fingerprinted `fingerprint`: the checksum first,
    /// then the version and the fingerprint — so a manifest of another run is foreign
    /// whatever its body holds — then the rest of the header and the body, which must
    /// be consumed exactly.
    fn parse(bytes: &[u8], fingerprint: u64) -> Result<Self, Defect> {
        let damaged = |what: &str| Defect::Damaged(format!("manifest {what}"));
        let (sealed, sum) = (bytes.split_last_chunk::<4>()).ok_or_else(|| damaged("too short"))?;
        if checksum32(sealed) != u32::from_le_bytes(*sum) {
            return Err(damaged("checksum mismatch (torn write or bit corruption)"));
        }
        let mut input = sealed
            .strip_prefix(MAGIC)
            .ok_or_else(|| damaged("bad magic"))?;
        let truncated = || damaged("header truncated");
        let (version, stored) = <(u32, u64)>::decode(&mut input).ok_or_else(truncated)?;
        if version != VERSION {
            return Err(Defect::Foreign(format!(
                "manifest format version {version}, this build reads version {VERSION}"
            )));
        }
        if stored != fingerprint {
            return Err(Defect::Foreign(
                "written by a different run configuration".into(),
            ));
        }
        let (rank, ranks, epoch) =
            <(usize, usize, usize)>::decode(&mut input).ok_or_else(truncated)?;
        let ((prev_epoch, rounds_total, sizes_hash), state) =
            from_bytes(input).ok_or_else(|| damaged("body does not decode"))?;
        Ok(Manifest {
            fingerprint,
            rank,
            ranks,
            epoch,
            prev_epoch,
            rounds_total,
            sizes_hash,
            state,
        })
    }
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

/// Load and validate the manifest chain of `rank` headed at `head`, returning the
/// manifests oldest-first, or the defect that breaks it.
fn load_chain<K: KmerCode>(
    dir: &Path,
    head: usize,
    rank: usize,
    ranks: usize,
    fingerprint: u64,
) -> Result<Vec<Manifest<K>>, Defect> {
    let mut chain: Vec<Manifest<K>> = Vec::new();
    let mut next = Some(head);
    while let Some(epoch) = next {
        let path = manifest_path(dir, epoch, rank);
        let at = |what: String| format!("{}: {what}", path.display());
        let bytes = fs::read(&path).map_err(|e| Defect::Damaged(at(e.to_string())))?;
        let m = Manifest::<K>::parse(&bytes, fingerprint).map_err(|defect| match defect {
            Defect::Damaged(e) => Defect::Damaged(at(e)),
            Defect::Foreign(e) => Defect::Foreign(at(e)),
        })?;
        if (m.rank, m.ranks, m.epoch, m.state.next_round) != (rank, ranks, epoch, epoch + 1) {
            return Err(Defect::Damaged(at("identity fields disagree".into())));
        }
        if m.prev_epoch.is_some_and(|prev| prev >= epoch) {
            return Err(Defect::Damaged(at("non-monotonic epoch chain".into())));
        }
        next = m.prev_epoch;
        chain.push(m);
    }
    chain.reverse();
    Ok(chain)
}

/// Find the newest globally-consistent epoch in `dir` and restore this rank's state
/// from it: its chain folded into the newest manifest, whose state then holds every
/// epoch's runs and record totals, oldest first. `Ok(None)` means a clean start (no
/// directory, no intact chain); `Err` is a foreign manifest met on the way — silent
/// fallback there would quietly recount the wrong thing.
fn restore<K: KmerCode>(
    dir: &Path,
    rank: usize,
    ranks: usize,
    fingerprint: u64,
) -> Result<Option<Manifest<K>>, String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(None);
    };
    let mut epochs: Vec<usize> = (entries.flatten())
        .filter_map(|entry| entry.file_name().to_str().and_then(parse_manifest_name))
        .map(|(epoch, _)| epoch)
        .collect();
    epochs.sort_unstable();
    epochs.dedup();

    'candidates: for &candidate in epochs.iter().rev() {
        let mut mine = Vec::new();
        for r in 0..ranks {
            match load_chain::<K>(dir, candidate, r, ranks, fingerprint) {
                Ok(chain) if r == rank => mine = chain,
                Ok(_) => {}
                Err(Defect::Damaged(_)) => continue 'candidates,
                Err(Defect::Foreign(e)) => return Err(e),
            }
        }
        let folded = mine.into_iter().reduce(|mut older, mut newer| {
            older.state.tasks.append(&mut newer.state.tasks);
            older.state.task_sizes.append(&mut newer.state.task_sizes);
            newer.state.tasks = older.state.tasks;
            newer.state.task_sizes = older.state.task_sizes;
            newer
        });
        return Ok(folded);
    }
    Ok(None)
}

/// The per-rank checkpoint driver: owns the directory, the commit cadence and the
/// delta marks, and writes one manifest per committed epoch.
pub(crate) struct RoundCheckpointer {
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
    /// How many entries of the round loop's `tasks` / `task_sizes` earlier epochs
    /// already cover (restored or committed) — the next manifest's delta starts here.
    tasks_mark: usize,
    sizes_mark: usize,
    /// Manifests committed by this generation (restored epochs not included).
    pub(crate) epochs_committed: usize,
}

impl RoundCheckpointer {
    /// Open the checkpoint directory for this rank: create it, and — when the run is
    /// resuming (`--resume`) or this is a recovery respawn (`generation > 0`) —
    /// restore the newest globally-consistent epoch and verify it matches this run's
    /// input (`sizes_hash`). Returns the checkpointer and the state the round loop
    /// starts from.
    pub(crate) fn open<K: KmerCode>(
        dir: &Path,
        cfg: &HySortKConfig,
        ctx: &RankCtx,
        fingerprint: u64,
        sizes_hash: u64,
    ) -> Result<(Self, CountedState<K>), HysortkError> {
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
            epochs_committed: 0,
        };
        let restored = if cfg.resume || ctx.generation() > 0 {
            restore::<K>(dir, rank, ranks, fingerprint)
                .map_err(|e| HysortkError::Config(format!("cannot resume: {e}")))?
        } else {
            None
        };
        let Some(m) = restored else {
            return Ok((ckpt, CountedState::default()));
        };
        if m.sizes_hash != sizes_hash {
            return Err(HysortkError::Config(
                "cannot resume: the checkpointed task sizes do not match this \
                 input (the files changed since the checkpoint was written)"
                    .into(),
            ));
        }
        ckpt.restored_rounds_total = Some(m.rounds_total);
        ckpt.prev_epoch = Some(m.epoch);
        ckpt.tasks_mark = m.state.tasks.len();
        ckpt.sizes_mark = m.state.task_sizes.len();
        trace::instant(
            "checkpoint-restored",
            trace::Detail::Stage,
            rank as u32,
            &[
                ("next_round", m.state.next_round as u64),
                ("rounds_total", m.rounds_total as u64),
            ],
        );
        trace::vlog!(
            rank,
            "checkpoint restored: resuming at round {} of {}",
            m.state.next_round,
            m.rounds_total
        );
        Ok((ckpt, m.state))
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

    /// Whether round `round` is a commit boundary: every `checkpoint_every`-th round,
    /// and always the last round (so a completed run is completely durable).
    pub(crate) fn should_commit(&self, round: usize) -> bool {
        let rounds = self
            .rounds_total
            .expect("set_rounds_total precedes the round loop");
        (round + 1).is_multiple_of(self.every) || round + 1 == rounds
    }

    /// Commit epoch `round` from the round loop's state: the runs and record totals
    /// since the previous epoch, and the cumulative scratch state — the state's own
    /// plus a snapshot of the (idle) bank's. Must run between job lists: a scratch a
    /// count job still holds would be missing from the snapshot.
    pub(crate) fn commit<K: KmerCode>(
        &mut self,
        round: usize,
        state: &mut CountedState<K>,
        bank: &ScratchBank<CountScratch<K>>,
    ) -> Result<(), HysortkError> {
        debug_assert!(
            bank.all_checked_in(),
            "epoch {round} committed while a count job still holds its scratch"
        );
        // The delta moves into the manifest for the encode and back out after it.
        let mut epoch = CountedState {
            next_round: round + 1,
            tasks: state.tasks.split_off(self.tasks_mark),
            task_sizes: state.task_sizes.split_off(self.sizes_mark),
            decoded: std::mem::take(&mut state.decoded),
            histogram: state.histogram.clone(),
            received_records: state.received_records,
            precounted_records: state.precounted_records,
        };
        bank.for_each(|scratch| {
            epoch.histogram.merge(&scratch.histogram);
            epoch.received_records += scratch.received_records;
            epoch.precounted_records += scratch.precounted_records;
        });
        let manifest = Manifest {
            fingerprint: self.fingerprint,
            rank: self.rank,
            ranks: self.ranks,
            epoch: round,
            prev_epoch: self.prev_epoch,
            rounds_total: self
                .rounds_total
                .expect("set_rounds_total precedes commits"),
            sizes_hash: self.sizes_hash,
            state: epoch,
        };
        let bytes = manifest.to_bytes();
        let mut epoch = manifest.state;
        state.tasks.append(&mut epoch.tasks);
        state.task_sizes.append(&mut epoch.task_sizes);
        state.decoded = epoch.decoded;

        let manifest_bytes = bytes.len() as u64;
        atomic_write(&self.dir, round, self.rank, self.fault.as_deref(), &bytes)?;
        self.prev_epoch = Some(round);
        self.tasks_mark = state.tasks.len();
        self.sizes_mark = state.task_sizes.len();
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
    use crate::pipeline::tests::random_rank_output;
    use hysortk_dna::extension::Extension;
    use hysortk_dna::kmer::{Kmer1, Kmer2};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hysortk_ckpt_{}_{tag}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A random manifest whose delta is a random rank output's runs (with extension
    /// lists on most runs when `with_ext`) and histogram.
    fn random_manifest<K: KmerCode>(rng: &mut StdRng, with_ext: bool) -> Manifest<K> {
        let out = random_rank_output::<K>(rng, with_ext);
        let rank = rng.gen_range(0..16);
        let epoch = rng.gen_range(0..1000);
        Manifest {
            fingerprint: rng.gen(),
            rank,
            ranks: rng.gen_range(rank + 1..20),
            epoch,
            prev_epoch: (epoch > 0 && rng.gen_bool(0.7)).then(|| rng.gen_range(0..epoch)),
            rounds_total: epoch + 1,
            sizes_hash: rng.gen(),
            state: CountedState {
                next_round: epoch + 1,
                tasks: out.tasks,
                task_sizes: (0..rng.gen_range(0..8)).map(|_| rng.gen()).collect(),
                decoded: (0..rng.gen_range(0..10))
                    .map(|_| (rng.gen_range(0..100u32), rng.gen()))
                    .collect(),
                histogram: out.histogram,
                received_records: rng.gen(),
                precounted_records: rng.gen(),
            },
        }
    }

    #[test]
    fn manifest_round_trips_across_ranks_and_epochs() {
        // Property-style: many random manifests across ranks/epochs/link shapes, on
        // both k-mer widths and with extension runs, decode back to what was encoded.
        fn round_trips<K: KmerCode>(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            for case in 0..40 {
                let m = random_manifest::<K>(&mut rng, case % 2 == 1);
                let bytes = m.to_bytes();
                let back = Manifest::<K>::parse(&bytes, m.fingerprint)
                    .unwrap_or_else(|_| panic!("case {case}"));
                assert_eq!(
                    (back.rank, back.ranks, back.epoch, back.prev_epoch),
                    (m.rank, m.ranks, m.epoch, m.prev_epoch)
                );
                assert_eq!(back.state.decoded, m.state.decoded);
                assert_eq!(back.state.histogram, m.state.histogram);
                assert_eq!(back.to_bytes(), bytes, "case {case}: re-encoding");
            }
        }
        round_trips::<Kmer1>(0xC0FFEE);
        round_trips::<Kmer2>(0xC0FFEF);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = random_manifest::<Kmer1>(&mut rng, true);
        let bytes = m.to_bytes();
        let parse = |bytes: &[u8]| Manifest::<Kmer1>::parse(bytes, m.fingerprint);
        assert!(parse(&bytes).is_ok());
        // Flip one bit in a spread of positions, including the checksum itself.
        for pos in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            assert!(
                matches!(parse(&corrupt), Err(Defect::Damaged(_))),
                "flip at byte {pos} went undetected"
            );
        }
        // Truncation, including into the checksum trailer.
        for cut in [1, 4, bytes.len() / 2, bytes.len() - 2] {
            assert!(matches!(parse(&bytes[..cut]), Err(Defect::Damaged(_))));
        }
    }

    /// Heap bytes a decoded state holds.
    fn heap_bytes<K: KmerCode>(state: &CountedState<K>) -> usize {
        use std::mem::size_of;
        let runs: usize = (state.tasks.iter())
            .map(|task| {
                task.counts.capacity() * size_of::<(K, u64)>()
                    + task.ext.as_ref().map_or(0, |ext| {
                        ext.records.capacity() * size_of::<(K, Extension)>()
                            + ext.ranges.capacity() * size_of::<(u32, u32)>()
                    })
            })
            .sum();
        runs + state.tasks.capacity() * size_of::<TaskCounts<K>>()
            + state.task_sizes.capacity() * 8
            + state.decoded.len() * 16
            + state.histogram.buckets().len() * 8
    }

    /// Prefixes, re-sealed prefixes, bit flips and forged lengths: a manifest decodes to
    /// a value or a typed error, never a panic, and what it decodes to holds at most 16
    /// heap bytes per manifest byte (the bound every pre-allocation of the decode keeps
    /// against the bytes left). A re-sealed manifest is what a forger who knows the
    /// checksum writes. Returns how many extension-list lengths it forged.
    fn manifest_decoding_survives_a_seeded_fuzz_loop<K: KmerCode>(seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut forged_lists = 0;
        for case in 0..8 {
            let m = random_manifest::<K>(&mut rng, case % 2 == 1);
            let bytes = m.to_bytes();
            let parse = |bytes: &[u8]| Manifest::<K>::parse(bytes, m.fingerprint);
            parse(&bytes).unwrap_or_else(|_| panic!("case {case}: the encoder's bytes decode"));
            let body = bytes.len() - 4;
            let resealed = |mut bytes: Vec<u8>| {
                let at = bytes.len() - 4;
                let sum = checksum32(&bytes[..at]);
                bytes[at..].copy_from_slice(&sum.to_le_bytes());
                parse(&bytes)
            };

            for cut in 0..bytes.len() {
                assert!(parse(&bytes[..cut]).is_err(), "case {case}: prefix {cut}");
                // Sealed as a manifest of its own, every cut but the whole body is short
                // of a field or carries trailer bytes as trailing garbage.
                let sealed = resealed([&bytes[..cut], &[0; 4]].concat());
                assert!(
                    cut == body || sealed.is_err(),
                    "case {case}: re-sealed prefix {cut}"
                );
            }
            for _ in 0..300 {
                let mut flipped = bytes.clone();
                let bit = rng.gen_range(0..body * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(decoded) = resealed(flipped) {
                    assert!(
                        heap_bytes(&decoded.state) <= 16 * bytes.len(),
                        "case {case}"
                    );
                }
            }

            // The length fields of the state, walked from its start: the run count, each
            // run's entry count and (with extensions) each retained k-mer's list length
            // — a `u32` of 8-byte extensions — then the task sizes, the decoded totals
            // and the histogram. `(offset, element width, u32 field)`.
            let state = &m.state;
            let entry = (K::WORDS + 1) * 8;
            let mut at = body - hysortk_dmem::wire::to_bytes(state).len() + 8;
            let mut fields = vec![(at, 9, false)];
            at += 8;
            for task in &state.tasks {
                fields.push((at, entry, false));
                at += 8 + task.counts.len() * entry + 1;
                for &(_, len) in task.ext.iter().flat_map(|ext| &ext.ranges) {
                    fields.push((at, Extension::WIRE_BYTES, true));
                    at += 4 + len as usize * Extension::WIRE_BYTES;
                }
            }
            for (len, width) in [
                (state.task_sizes.len(), 8),
                (state.decoded.len(), 12),
                (state.histogram.buckets().len(), 8),
            ] {
                fields.push((at, width, false));
                at += 8 + len * width;
            }
            assert_eq!(
                at + 16,
                body,
                "case {case}: the walk ends at the record counters"
            );
            for (at, width, narrow) in fields {
                let size = if narrow { 4 } else { 8 };
                let left = body - (at + size);
                forged_lists += usize::from(narrow);
                for value in [u64::MAX, left as u64, (left / width + 1) as u64] {
                    let mut forged = bytes.clone();
                    forged[at..at + size].copy_from_slice(&value.to_le_bytes()[..size]);
                    assert!(
                        resealed(forged).is_err(),
                        "case {case}: length {value} at byte {at} (width {width})"
                    );
                }
            }
        }
        forged_lists
    }

    #[test]
    fn manifest_decoding_survives_a_seeded_fuzz_loop_on_both_kmer_widths() {
        let lists = manifest_decoding_survives_a_seeded_fuzz_loop::<Kmer1>(41)
            + manifest_decoding_survives_a_seeded_fuzz_loop::<Kmer2>(42);
        assert!(lists > 0, "no extension list length was forged");
    }

    /// Write a small two-epoch chain for `ranks` ranks: epoch 0 (one task) and
    /// epoch `head` linking back to it.
    fn write_chain(dir: &Path, ranks: usize, fingerprint: u64, head: usize) {
        for rank in 0..ranks {
            for (epoch, prev_epoch, count, size) in [(0, None, 5, 1), (head, Some(0), 100, 2)] {
                let m = Manifest::<Kmer1> {
                    fingerprint,
                    rank,
                    ranks,
                    epoch,
                    prev_epoch,
                    rounds_total: head + 1,
                    sizes_hash: 99,
                    state: CountedState {
                        next_round: epoch + 1,
                        tasks: vec![TaskCounts {
                            counts: vec![(Kmer1::zero(), count + rank as u64)],
                            ext: None,
                        }],
                        task_sizes: vec![size],
                        decoded: BTreeMap::from([(0, size)]),
                        received_records: 10 * size,
                        ..CountedState::default()
                    },
                };
                atomic_write(dir, epoch, rank, None, &m.to_bytes()).unwrap();
            }
        }
    }

    #[test]
    fn restore_picks_the_newest_consistent_epoch_and_concatenates_deltas() {
        let dir = tmp_dir("restore");
        write_chain(&dir, 2, 42, 3);
        let m = restore::<Kmer1>(&dir, 1, 2, 42).unwrap().unwrap();
        assert_eq!(m.state.next_round, 4);
        assert_eq!(m.rounds_total, 4);
        assert_eq!(m.sizes_hash, 99);
        // Deltas concatenate oldest-first; cumulative fields come from the head.
        assert_eq!(m.state.task_sizes, vec![1, 2]);
        assert_eq!(m.state.tasks.len(), 2);
        assert_eq!(m.state.tasks[0].counts[0].1, 6);
        assert_eq!(m.state.tasks[1].counts[0].1, 101);
        assert_eq!(m.state.received_records, 20);
        assert_eq!(m.state.decoded, BTreeMap::from([(0u32, 2u64)]));
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
        let m = restore::<Kmer1>(&dir, 0, 2, 42).unwrap().unwrap();
        assert_eq!(
            m.state.next_round, 2,
            "the torn epoch 2 must not be restored"
        );
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
            let m = restore::<Kmer1>(&dir, rank, 3, 42).unwrap().unwrap();
            assert_eq!(
                m.state.next_round, 1,
                "rank {rank} must fall back to epoch 0"
            );
            assert_eq!(m.state.received_records, 10);
            assert_eq!(m.state.tasks.len(), 1);
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

    /// A complete, checksummed manifest of format version 1 as that format laid it out
    /// — a 68-byte header, then `u32`-counted fields — for epoch 0, holding nothing.
    fn version_1_manifest(fingerprint: u64, rank: u32, ranks: u32) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        (1u32, fingerprint).encode(&mut out);
        (rank, ranks, 0u32).encode(&mut out);
        // prev_epoch (none), rounds_total, sizes_hash, k-mer words, record counters.
        (-1i64, 1u32, 99u64).encode(&mut out);
        (1u32, 0u64, 0u64).encode(&mut out);
        // Two empty histogram buckets; no decoded totals, task sizes or tasks.
        (2u32, 0u64, 0u64).encode(&mut out);
        (0u32, 0u32, 0u32).encode(&mut out);
        checksum32(&out).encode(&mut out);
        out
    }

    /// An intact manifest of another run is refused whatever its body holds: another
    /// fingerprint, another k-mer width (its fingerprint folds in `K::WORDS`, and its
    /// body would not decode at this width), or another format version.
    #[test]
    fn foreign_fingerprints_are_loud_not_silent() {
        fn refusal<K: KmerCode>(dir: &Path, fingerprint: u64) -> String {
            match restore::<K>(dir, 0, 2, fingerprint) {
                Err(e) => e,
                Ok(_) => panic!("a foreign manifest must not restore"),
            }
        }
        let dir = tmp_dir("fingerprint");
        write_chain(&dir, 2, 42, 1);
        let err = refusal::<Kmer1>(&dir, 43);
        assert!(
            err.ends_with("written by a different run configuration"),
            "{err}"
        );

        let cfg = HySortKConfig::small(21, 9, 2);
        let narrow = run_fingerprint::<Kmer1>(&cfg, cfg.num_tasks());
        let dir = tmp_dir("fingerprint");
        write_chain(&dir, 2, narrow, 1);
        let err = refusal::<Kmer2>(&dir, run_fingerprint::<Kmer2>(&cfg, cfg.num_tasks()));
        assert!(
            err.ends_with("written by a different run configuration"),
            "{err}"
        );

        let dir = tmp_dir("fingerprint");
        for rank in 0..2u32 {
            let path = manifest_path(&dir, 0, rank as usize);
            fs::write(path, version_1_manifest(42, rank, 2)).unwrap();
        }
        let err = refusal::<Kmer1>(&dir, 42);
        assert!(err.contains("format version 1"), "{err}");
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
