//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] is a list of faults, each pinned to a *site* — a (rank, stage
//! label, round) triple — so a schedule is exactly reproducible: the same plan against
//! the same input either fires at its site or, when the pipeline never reaches that
//! site (e.g. a round index beyond the run's round count), stays inert and the run is
//! byte-identical to a fault-free one. Plans are attached to a cluster with
//! [`Cluster::with_fault_plan`](crate::Cluster::with_fault_plan); a cluster without a
//! plan carries `None` and the hot paths skip injection entirely.
//!
//! Four fault kinds cover the failure classes the pipeline must survive:
//!
//! * [`FaultKind::DelayPost`] — sleep before posting, perturbing interleavings without
//!   changing any bytes; the run must still produce identical counts.
//! * [`FaultKind::TruncateSegment`] — chop a wire segment short, as a torn message
//!   would; receivers must reject the malformed stream with a typed error.
//! * [`FaultKind::CorruptSegment`] — flip one bit of a wire segment; the wire-format
//!   checksum must catch it (never a silently wrong histogram).
//! * [`FaultKind::FailRank`] — kill one rank at its site with
//!   [`DmemError::InjectedFault`]; every peer must unblock with
//!   [`DmemError::PeerFailed`], never hang.
//!
//! Segment faults fire on the round engine's posts (the wire path); delay and rank
//! failure fire on any collective or round whose stage label and round match.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use hysortk_trace as trace;

use crate::error::DmemError;

/// Where a fault fires: one rank, one stage label, one round (or collective phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSite {
    /// The rank the fault targets.
    pub rank: usize,
    /// The stage label of the collective or exchange (e.g. `"exchange"`).
    pub stage: String,
    /// The round (round engine) or phase (multi-phase collectives) to fire at.
    pub round: usize,
}

/// What happens when a fault fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep for `millis` before posting — perturbs interleavings, changes no bytes.
    DelayPost {
        /// Milliseconds to sleep.
        millis: u64,
    },
    /// Truncate the wire segment addressed to `dest` down to `keep` bytes.
    TruncateSegment {
        /// Destination rank whose segment is cut short.
        dest: usize,
        /// Bytes to keep (no-op if the segment is already this short).
        keep: usize,
    },
    /// Flip one bit of the wire segment addressed to `dest`; a no-op on an empty
    /// segment.
    CorruptSegment {
        /// Destination rank whose segment is corrupted.
        dest: usize,
        /// Bit selector; reduced modulo the segment length at fire time.
        bit: u64,
    },
    /// Fail this rank with [`DmemError::InjectedFault`] at the site.
    FailRank,
}

impl FaultKind {
    /// Short human-readable name, used in error messages and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::DelayPost { .. } => "delay-post",
            FaultKind::TruncateSegment { .. } => "truncate-segment",
            FaultKind::CorruptSegment { .. } => "corrupt-segment",
            FaultKind::FailRank => "fail-rank",
        }
    }
}

/// One armed fault: a site, a kind, and its firing state.
#[derive(Debug)]
struct Fault {
    site: FaultSite,
    kind: FaultKind,
    /// Every fault is one-shot: this flips on its first (only) firing.
    fired: AtomicBool,
}

impl Fault {
    fn new(site: FaultSite, kind: FaultKind) -> Self {
        Fault {
            site,
            kind,
            fired: AtomicBool::new(false),
        }
    }

    /// Claim a one-shot firing; `true` exactly once.
    fn take_once(&self) -> bool {
        self.fired
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// A deterministic, seeded schedule of injected faults.
///
/// Construct one fault-at-a-time with [`FaultPlan::with_fault`], from a textual spec
/// with [`FaultPlan::from_spec`] (the `HYSORTK_FAULT` CLI hook), or pseudo-randomly
/// with [`FaultPlan::seeded`] (the chaos harness). The plan is shared by every rank of
/// the cluster; firing state is interior-mutable so injection sites take `&self`.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    seed: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add one fault at `(rank, stage, round)`.
    pub fn with_fault(mut self, rank: usize, stage: &str, round: usize, kind: FaultKind) -> Self {
        self.faults.push(Fault::new(
            FaultSite {
                rank,
                stage: stage.to_string(),
                round,
            },
            kind,
        ));
        self
    }

    /// Derive one pseudo-random fault from `seed` for a cluster of `ranks` ranks whose
    /// exchange stage runs up to `rounds` rounds. Deterministic: the same arguments
    /// always produce the same plan. Every fault targets the `"exchange"` stage (the
    /// wire path); a fault aimed at a round the run never reaches simply stays inert.
    pub fn seeded(seed: u64, ranks: usize, rounds: usize) -> Self {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rank = next() as usize % ranks;
        let round = next() as usize % rounds.max(1);
        let dest = next() as usize % ranks;
        let kind = match next() % 4 {
            0 => FaultKind::DelayPost {
                millis: 1 + next() % 40,
            },
            1 => FaultKind::TruncateSegment {
                dest,
                keep: next() as usize % 8,
            },
            2 => FaultKind::CorruptSegment { dest, bit: next() },
            _ => FaultKind::FailRank,
        };
        let mut plan = FaultPlan::new().with_fault(rank, "exchange", round, kind);
        plan.seed = Some(seed);
        plan
    }

    /// Parse a plan from a spec string: `;`-separated faults, each colon-separated.
    ///
    /// ```text
    /// delay:RANK:STAGE:ROUND:MILLIS
    /// truncate:RANK:STAGE:ROUND:DEST:KEEP
    /// corrupt:RANK:STAGE:ROUND:DEST:BIT
    /// fail:RANK:STAGE:ROUND
    /// ```
    ///
    /// This is the format the `HYSORTK_FAULT` environment variable accepts.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
            let fields: Vec<&str> = part.trim().split(':').collect();
            let num = |s: &str| -> Result<usize, String> {
                s.parse::<usize>()
                    .map_err(|_| format!("bad number '{s}' in fault spec '{part}'"))
            };
            let site = |fields: &[&str]| -> Result<(usize, String, usize), String> {
                if fields.len() < 4 {
                    return Err(format!("fault spec '{part}' needs RANK:STAGE:ROUND"));
                }
                Ok((num(fields[1])?, fields[2].to_string(), num(fields[3])?))
            };
            let (rank, stage, round, kind) = match fields[0] {
                "delay" if fields.len() == 5 => {
                    let (r, s, rd) = site(&fields)?;
                    (
                        r,
                        s,
                        rd,
                        FaultKind::DelayPost {
                            millis: num(fields[4])? as u64,
                        },
                    )
                }
                "truncate" if fields.len() == 6 => {
                    let (r, s, rd) = site(&fields)?;
                    (
                        r,
                        s,
                        rd,
                        FaultKind::TruncateSegment {
                            dest: num(fields[4])?,
                            keep: num(fields[5])?,
                        },
                    )
                }
                "corrupt" if fields.len() == 6 => {
                    let (r, s, rd) = site(&fields)?;
                    (
                        r,
                        s,
                        rd,
                        FaultKind::CorruptSegment {
                            dest: num(fields[4])?,
                            bit: num(fields[5])? as u64,
                        },
                    )
                }
                "fail" if fields.len() == 4 => {
                    let (r, s, rd) = site(&fields)?;
                    (r, s, rd, FaultKind::FailRank)
                }
                other => {
                    return Err(format!(
                        "unknown or malformed fault '{other}' in spec '{part}' \
                         (expected delay/truncate/corrupt/fail)"
                    ))
                }
            };
            plan.faults
                .push(Fault::new(FaultSite { rank, stage, round }, kind));
        }
        if plan.faults.is_empty() {
            return Err("empty fault spec".to_string());
        }
        Ok(plan)
    }

    /// `true` when the plan holds no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The seed this plan was derived from, if it came from [`FaultPlan::seeded`].
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Iterate over the armed faults as `(site, kind)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&FaultSite, &FaultKind)> {
        self.faults.iter().map(|f| (&f.site, &f.kind))
    }

    /// How many faults have fired so far.
    pub fn fired_count(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| f.fired.load(Ordering::Acquire))
            .count()
    }

    /// Snapshot which faults have fired, in plan order.
    ///
    /// The process backend uses this to carry fault state across the process
    /// boundary: children report their snapshot home over the control socket and
    /// the parent folds it into its copy of the plan with
    /// [`FaultPlan::absorb_state`], so a fail-once fault does not re-fire when a
    /// recovery generation forks fresh rank processes.
    pub fn snapshot_state(&self) -> Vec<bool> {
        self.faults
            .iter()
            .map(|f| f.fired.load(Ordering::Acquire))
            .collect()
    }

    /// Fold a child's [`FaultPlan::snapshot_state`] into this plan: a fault is fired
    /// if any process fired it. Ignores snapshots of the wrong length (a mismatched
    /// plan).
    pub fn absorb_state(&self, state: &[bool]) {
        if state.len() != self.faults.len() {
            return;
        }
        for (fault, &fired) in self.faults.iter().zip(state) {
            if fired {
                fault.fired.store(true, Ordering::Release);
            }
        }
    }

    /// One-line description of the plan, for chaos logs.
    pub fn describe(&self) -> String {
        let faults: Vec<String> = self
            .faults
            .iter()
            .map(|f| {
                format!(
                    "{}@rank{}:{}:r{}",
                    f.kind.name(),
                    f.site.rank,
                    f.site.stage,
                    f.site.round
                )
            })
            .collect();
        match self.seed {
            Some(seed) => format!("seed={seed} [{}]", faults.join(", ")),
            None => format!("[{}]", faults.join(", ")),
        }
    }

    fn matching<'a>(
        &'a self,
        rank: usize,
        stage: &'a str,
        round: usize,
    ) -> impl Iterator<Item = &'a Fault> + 'a {
        self.faults
            .iter()
            .filter(move |f| f.site.rank == rank && f.site.stage == stage && f.site.round == round)
    }

    /// Fire the control-flow faults (delay, rank failure) matching a site. Every
    /// collective round calls this, the round engine through
    /// `FaultPlan::apply_to_segments`, and so do pipeline-level sites the runtime
    /// itself never visits — e.g. the checkpoint writer fires
    /// `fail:R:checkpoint:EPOCH` faults through this to simulate a rank crashing
    /// mid-manifest-write. Delays sleep in place; a matching `fail` fault returns
    /// [`DmemError::InjectedFault`], which the caller must treat as its own death
    /// (publish an abort and unwind).
    pub fn fire_control(&self, rank: usize, stage: &str, round: usize) -> Result<(), DmemError> {
        for fault in self.matching(rank, stage, round) {
            match &fault.kind {
                FaultKind::DelayPost { millis } if fault.take_once() => {
                    trace::instant(
                        "fault:delay-post",
                        trace::Detail::Stage,
                        rank as u32,
                        &[("round", round as u64), ("millis", *millis)],
                    );
                    trace::vlog!(
                        rank,
                        "fault delay-post fired at {stage}:{round} ({millis} ms)"
                    );
                    std::thread::sleep(Duration::from_millis(*millis));
                }
                FaultKind::FailRank if fault.take_once() => {
                    trace::instant(
                        "fault:fail-rank",
                        trace::Detail::Stage,
                        rank as u32,
                        &[("round", round as u64)],
                    );
                    trace::vlog!(rank, "fault fail-rank fired at {stage}:{round}");
                    return Err(DmemError::InjectedFault {
                        rank,
                        stage: stage.to_string(),
                        round,
                        kind: fault.kind.name().to_string(),
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Fire the segment faults (truncate, corrupt) plus the control-flow faults on a
    /// flat send buffer about to be posted. `counts` is mutated alongside `send` so
    /// the exchange stays self-consistent.
    pub(crate) fn apply_to_segments(
        &self,
        rank: usize,
        stage: &str,
        round: usize,
        send: &mut Vec<u8>,
        counts: &mut [usize],
    ) -> Result<(), DmemError> {
        for fault in self.matching(rank, stage, round) {
            match &fault.kind {
                FaultKind::TruncateSegment { dest, keep }
                    if *dest < counts.len() && fault.take_once() =>
                {
                    let start: usize = counts[..*dest].iter().sum();
                    let len = counts[*dest];
                    if len > *keep {
                        send.drain(start + *keep..start + len);
                        counts[*dest] = *keep;
                        trace::instant(
                            "fault:truncate-segment",
                            trace::Detail::Stage,
                            rank as u32,
                            &[("round", round as u64), ("dest", *dest as u64)],
                        );
                        trace::vlog!(
                            rank,
                            "fault truncate-segment fired at {stage}:{round} \
                             (dest {dest}, kept {keep} of {len})"
                        );
                    }
                }
                FaultKind::CorruptSegment { dest, bit }
                    if *dest < counts.len() && fault.take_once() =>
                {
                    let start: usize = counts[..*dest].iter().sum();
                    let len = counts[*dest];
                    if len > 0 {
                        let byte = start + (*bit / 8) as usize % len;
                        send[byte] ^= 1 << (*bit % 8) as u8;
                        trace::instant(
                            "fault:corrupt-segment",
                            trace::Detail::Stage,
                            rank as u32,
                            &[("round", round as u64), ("dest", *dest as u64)],
                        );
                        trace::vlog!(
                            rank,
                            "fault corrupt-segment fired at {stage}:{round} \
                             (dest {dest}, bit {bit})"
                        );
                    }
                }
                _ => {}
            }
        }
        self.fire_control(rank, stage, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in 0..32u64 {
            let a = FaultPlan::seeded(seed, 7, 4);
            let b = FaultPlan::seeded(seed, 7, 4);
            assert_eq!(a.describe(), b.describe(), "seed {seed}");
            let (site, _) = a.iter().next().expect("one fault");
            assert!(site.rank < 7);
            assert!(site.round < 4);
        }
    }

    #[test]
    fn spec_round_trips_each_kind() {
        let plan = FaultPlan::from_spec(
            "delay:1:exchange:0:25;truncate:0:exchange:2:3:4;corrupt:2:exchange:1:0:77;\
             fail:1:task-sizes:0",
        )
        .expect("valid spec");
        let kinds: Vec<&str> = plan.iter().map(|(_, k)| k.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "delay-post",
                "truncate-segment",
                "corrupt-segment",
                "fail-rank",
            ]
        );
        assert!(FaultPlan::from_spec("bogus:1:2").is_err());
        assert!(FaultPlan::from_spec("io:0:2").is_err());
        assert!(FaultPlan::from_spec("").is_err());
    }

    #[test]
    fn truncate_and_corrupt_mutate_only_their_segment() {
        let plan = FaultPlan::new()
            .with_fault(
                0,
                "exchange",
                0,
                FaultKind::TruncateSegment { dest: 1, keep: 1 },
            )
            .with_fault(
                0,
                "exchange",
                0,
                FaultKind::CorruptSegment { dest: 0, bit: 0 },
            );
        let mut send: Vec<u8> = vec![10, 11, 20, 21, 22, 30];
        let mut counts = vec![2usize, 3, 1];
        plan.apply_to_segments(0, "exchange", 0, &mut send, &mut counts)
            .expect("no control faults");
        assert_eq!(counts, vec![2, 1, 1]);
        // Segment 1 lost its tail; segment 0's first byte had bit 0 flipped.
        assert_eq!(send, vec![11, 11, 20, 30]);
        // One-shot: a second pass through the same site changes nothing.
        plan.apply_to_segments(0, "exchange", 0, &mut send, &mut counts)
            .expect("no control faults");
        assert_eq!(send, vec![11, 11, 20, 30]);
    }

    #[test]
    fn fail_rank_fires_exactly_once_at_its_site() {
        let plan = FaultPlan::new().with_fault(1, "exchange", 2, FaultKind::FailRank);
        assert!(plan.fire_control(1, "exchange", 0).is_ok());
        assert!(plan.fire_control(0, "exchange", 2).is_ok());
        let err = plan.fire_control(1, "exchange", 2).unwrap_err();
        assert!(matches!(err, DmemError::InjectedFault { rank: 1, .. }));
        assert!(plan.fire_control(1, "exchange", 2).is_ok(), "one-shot");
    }
}
