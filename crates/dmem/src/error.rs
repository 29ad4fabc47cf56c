//! Typed errors for the simulated distributed-memory runtime. Every blocking wait
//! ends on a post, an abort or a peer's exit, and a failure resolves to one of these
//! variants, so a failing or departed rank unblocks its peers with that rank named.

use std::fmt;

/// Errors surfaced by the blocking collectives and the non-blocking round engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmemError {
    /// Another rank failed — it panicked, hit an injected fault, published a local
    /// error via [`RankCtx::abort`](crate::collectives::RankCtx::abort), or exited
    /// without posting a round this rank waits on — while this rank was inside a
    /// collective or waiting on a round. `rank` identifies the failing peer and
    /// `detail` carries its failure message; `round` is the round (or collective
    /// phase) this rank was blocked on when it observed the abort.
    PeerFailed {
        /// The rank that failed.
        rank: usize,
        /// The round (or collective phase) the *observing* rank was blocked on.
        round: usize,
        /// The failing rank's own error message.
        detail: String,
    },
    /// A fault from the active [`FaultPlan`](crate::fault::FaultPlan) fired on this
    /// rank at the named site.
    InjectedFault {
        /// The rank the fault fired on.
        rank: usize,
        /// The stage label the fault targeted.
        stage: String,
        /// The round the fault targeted.
        round: usize,
        /// Human-readable fault kind (e.g. `fail-rank`).
        kind: String,
    },
    /// SPMD protocol violation: the ranks disagreed on the collective sequence or the
    /// element types of an exchange.
    Protocol(String),
}

impl DmemError {
    /// Whether this error describes a *rank failure* — a peer dying (or this rank
    /// being the one killed by an injected `fail-rank` fault) — rather than a concrete
    /// local defect such as corrupt wire bytes or a protocol violation.
    ///
    /// Rank failures are the class [`Cluster::run_recovering`](crate::Cluster::run_recovering)
    /// can heal by respawning the generation: the data needed to redo the work still
    /// exists, only the rank executing it was lost. Protocol violations indicate a
    /// runtime bug and are deliberately excluded.
    pub fn is_rank_failure(&self) -> bool {
        matches!(
            self,
            DmemError::PeerFailed { .. } | DmemError::InjectedFault { .. }
        )
    }
}

impl fmt::Display for DmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmemError::PeerFailed {
                rank,
                round,
                detail,
            } => {
                write!(
                    f,
                    "peer rank {rank} failed (observed at round {round}): {detail}"
                )
            }
            DmemError::InjectedFault {
                rank,
                stage,
                round,
                kind,
            } => {
                write!(
                    f,
                    "injected fault '{kind}' fired on rank {rank} at stage '{stage}' round {round}"
                )
            }
            DmemError::Protocol(msg) => write!(f, "collective protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for DmemError {}
