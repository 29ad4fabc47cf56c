//! Typed top-level errors for the HySortK pipeline.
//!
//! Every failure the pipeline can hit — bad configuration, input I/O, malformed wire
//! bytes, a distributed-runtime abort — maps onto one [`HysortkError`] variant, each
//! carrying enough context (file, rank, round) to act on and a stable
//! [`exit_code`](HysortkError::exit_code) for the CLI. The hierarchy replaces the
//! `expect`/`unwrap` chains the pipeline used to die on: a failing rank now returns a
//! value that names the defect instead of poisoning a condvar its peers wait on.

use std::fmt;
use std::io;

use hysortk_dmem::{DmemError, Wire};

use crate::wire::WireError;

/// A failure of a HySortK run, with the context needed to report and triage it.
///
/// The variants are ordered by where the failure originates: operator input
/// ([`Config`](HysortkError::Config)), the filesystem ([`Io`](HysortkError::Io)), the
/// bytes a peer put on the wire ([`Wire`](HysortkError::Wire)), and the distributed
/// runtime itself ([`Comm`](HysortkError::Comm)).
#[derive(Debug)]
pub enum HysortkError {
    /// Unusable configuration or CLI arguments (exit code 2).
    Config(String),
    /// Reading an input file failed, or it holds a malformed record (exit code 3). The
    /// error ends the reading rank's shard.
    Io {
        /// Path of the file that failed.
        path: String,
        /// Rank that was reading it.
        rank: usize,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A received wire segment failed to parse or failed its checksum (exit code 4).
    Wire {
        /// Rank that rejected the bytes.
        rank: usize,
        /// Exchange round the bytes arrived in.
        round: usize,
        /// The parse defect, with its byte offset.
        source: WireError,
    },
    /// The distributed runtime aborted: a peer failed or left the run mid-exchange,
    /// or an injected fault fired (exit code 4).
    Comm(DmemError),
}

impl HysortkError {
    /// Process exit code for this error: `2` usage/config, `3` input I/O,
    /// `4` internal (wire or runtime).
    pub fn exit_code(&self) -> i32 {
        match self {
            HysortkError::Config(_) => 2,
            HysortkError::Io { .. } => 3,
            HysortkError::Wire { .. } | HysortkError::Comm(_) => 4,
        }
    }

    /// True when this error is only the echo of *another* rank's failure
    /// ([`DmemError::PeerFailed`]). Aggregation keeps the root cause and drops echoes.
    pub fn is_peer_echo(&self) -> bool {
        matches!(self, HysortkError::Comm(DmemError::PeerFailed { .. }))
    }
}

impl fmt::Display for HysortkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HysortkError::Config(msg) => write!(f, "configuration error: {msg}"),
            HysortkError::Io { path, rank, source } => {
                write!(f, "rank {rank}: reading '{path}' failed: {source}")
            }
            HysortkError::Wire {
                rank,
                round,
                source,
            } => {
                write!(
                    f,
                    "rank {rank}: received malformed wire data in round {round}: {source}"
                )
            }
            HysortkError::Comm(e) => write!(f, "communication failure: {e}"),
        }
    }
}

impl std::error::Error for HysortkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HysortkError::Config(_) => None,
            HysortkError::Io { source, .. } => Some(source),
            HysortkError::Wire { source, .. } => Some(source),
            HysortkError::Comm(e) => Some(e),
        }
    }
}

impl From<DmemError> for HysortkError {
    fn from(e: DmemError) -> Self {
        HysortkError::Comm(e)
    }
}

/// The `io::ErrorKind`s the pipeline distinguishes on the wire. Anything else is
/// carried as `Other` — the message string still tells the full story.
const IO_KINDS: [io::ErrorKind; 8] = [
    io::ErrorKind::NotFound,
    io::ErrorKind::PermissionDenied,
    io::ErrorKind::TimedOut,
    io::ErrorKind::UnexpectedEof,
    io::ErrorKind::Interrupted,
    io::ErrorKind::InvalidData,
    io::ErrorKind::WouldBlock,
    io::ErrorKind::Other,
];

fn io_kind_code(kind: io::ErrorKind) -> u8 {
    IO_KINDS
        .iter()
        .position(|&k| k == kind)
        .unwrap_or(IO_KINDS.len() - 1) as u8
}

/// Codec for shipping a rank's failure from a forked rank process back to the
/// parent. `io::Error` travels as a kind code plus its rendered message: the
/// payload (and any OS error) cannot cross an address space, but the exit code
/// and the operator-facing report only need kind and text.
impl Wire for HysortkError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            HysortkError::Config(msg) => {
                0u8.encode(out);
                msg.encode(out);
            }
            HysortkError::Io { path, rank, source } => {
                1u8.encode(out);
                path.encode(out);
                rank.encode(out);
                io_kind_code(source.kind()).encode(out);
                source.to_string().encode(out);
            }
            HysortkError::Wire {
                rank,
                round,
                source,
            } => {
                2u8.encode(out);
                rank.encode(out);
                round.encode(out);
                source.encode(out);
            }
            HysortkError::Comm(e) => {
                3u8.encode(out);
                e.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(match u8::decode(input)? {
            0 => HysortkError::Config(String::decode(input)?),
            1 => {
                let path = String::decode(input)?;
                let rank = usize::decode(input)?;
                let kind = IO_KINDS
                    .get(u8::decode(input)? as usize)
                    .copied()
                    .unwrap_or(io::ErrorKind::Other);
                let message = String::decode(input)?;
                HysortkError::Io {
                    path,
                    rank,
                    source: io::Error::new(kind, message),
                }
            }
            2 => HysortkError::Wire {
                rank: usize::decode(input)?,
                round: usize::decode(input)?,
                source: WireError::decode(input)?,
            },
            3 => HysortkError::Comm(DmemError::decode(input)?),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_documented_contract() {
        assert_eq!(HysortkError::Config("bad k".into()).exit_code(), 2);
        let io = HysortkError::Io {
            path: "reads.fa".into(),
            rank: 1,
            source: io::Error::new(io::ErrorKind::NotFound, "gone"),
        };
        assert_eq!(io.exit_code(), 3);
        let wire = HysortkError::Wire {
            rank: 0,
            round: 2,
            source: WireError::Truncated { offset: 9 },
        };
        assert_eq!(wire.exit_code(), 4);
        assert_eq!(
            HysortkError::from(DmemError::Protocol("x".into())).exit_code(),
            4
        );
    }

    #[test]
    fn peer_echoes_are_distinguished_from_root_causes() {
        let echo = HysortkError::Comm(DmemError::PeerFailed {
            rank: 3,
            round: 1,
            detail: "gone".into(),
        });
        assert!(echo.is_peer_echo());
        let root = HysortkError::Comm(DmemError::InjectedFault {
            rank: 3,
            stage: "exchange".into(),
            round: 1,
            kind: "fail-rank".into(),
        });
        assert!(!root.is_peer_echo());
    }

    #[test]
    fn display_names_the_offending_file_rank_and_round() {
        let io = HysortkError::Io {
            path: "reads.fa".into(),
            rank: 2,
            source: io::Error::new(io::ErrorKind::TimedOut, "slow disk"),
        };
        let msg = io.to_string();
        assert!(msg.contains("rank 2") && msg.contains("reads.fa"));

        let wire = HysortkError::Wire {
            rank: 1,
            round: 4,
            source: WireError::Checksum { task: 8, offset: 0 },
        };
        let msg = wire.to_string();
        assert!(msg.contains("rank 1") && msg.contains("round 4") && msg.contains("task 8"));
    }
}
