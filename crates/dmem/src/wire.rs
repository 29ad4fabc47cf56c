//! Self-describing byte codec for values that cross a transport boundary.
//!
//! The in-process backend used to move typed values between ranks as `Box<dyn Any>`
//! postings — possible only because every rank shared one address space. A
//! [`Transport`](crate::transport::Transport) moves *bytes*, so every payload of a
//! matrix collective, and every per-rank result returned out of a forked rank
//! process, needs an explicit encoding. [`Wire`] is that encoding: a minimal,
//! dependency-free, little-endian format with just enough structure (length
//! prefixes, variant tags) for the receiving side to reject malformed input with
//! `None` instead of misinterpreting it. The round engine's flat byte segments need
//! no codec: they are bytes already. A forked rank's flight-recorder [`Trace`] crosses
//! its control socket in this codec too.

use hysortk_trace::{Event, EventKind, Trace};

use crate::error::DmemError;
use crate::stats::{CommStats, StageTraffic};

/// A value that can be encoded to and decoded from a flat little-endian byte stream.
///
/// `decode` consumes its input slice in place (advancing it past the bytes read) and
/// returns `None` on truncated or malformed input; callers turn that into
/// [`DmemError::Protocol`].
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Option<Self>;
}

/// Encode a value into a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decode a value from a buffer, requiring the buffer to be fully consumed.
pub fn from_bytes<T: Wire>(mut input: &[u8]) -> Option<T> {
    let value = T::decode(&mut input)?;
    input.is_empty().then_some(value)
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Some(head)
}

fn get_u64(input: &mut &[u8]) -> Option<u64> {
    take(input, 8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

fn get_len(input: &mut &[u8]) -> Option<usize> {
    usize::try_from(get_u64(input)?).ok()
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                take(input, std::mem::size_of::<$t>())
                    .map(|b| <$t>::from_le_bytes(b.try_into().unwrap()))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        usize::try_from(get_u64(input)?).ok()
    }
}

impl Wire for isize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as i64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        isize::try_from(i64::decode(input)?).ok()
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        u32::decode(input).map(f32::from_bits)
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        u64::decode(input).map(f64::from_bits)
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = get_len(input)?;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = get_len(input)?;
        // Guard the pre-allocation against adversarial lengths: each element costs
        // at least one input byte in this format.
        let mut items = Vec::with_capacity(len.min(input.len()));
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Some(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(None),
            1 => T::decode(input).map(Some),
            _ => None,
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.encode(out);
            }
            Err(e) => {
                out.push(1);
                e.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => T::decode(input).map(Ok),
            1 => E::decode(input).map(Err),
            _ => None,
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl Wire for DmemError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DmemError::PeerFailed {
                rank,
                round,
                detail,
            } => {
                out.push(0);
                rank.encode(out);
                round.encode(out);
                detail.encode(out);
            }
            DmemError::InjectedFault {
                rank,
                stage,
                round,
                kind,
            } => {
                out.push(1);
                rank.encode(out);
                stage.encode(out);
                round.encode(out);
                kind.encode(out);
            }
            DmemError::Protocol(msg) => {
                out.push(2);
                msg.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(match u8::decode(input)? {
            0 => DmemError::PeerFailed {
                rank: usize::decode(input)?,
                round: usize::decode(input)?,
                detail: String::decode(input)?,
            },
            1 => DmemError::InjectedFault {
                rank: usize::decode(input)?,
                stage: String::decode(input)?,
                round: usize::decode(input)?,
                kind: String::decode(input)?,
            },
            2 => DmemError::Protocol(String::decode(input)?),
            _ => return None,
        })
    }
}

impl Wire for StageTraffic {
    fn encode(&self, out: &mut Vec<u8>) {
        self.label.encode(out);
        self.payload_bytes.encode(out);
        self.padding_bytes.encode(out);
        self.rounds.encode(out);
        self.max_inflight_bytes.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(StageTraffic {
            label: String::decode(input)?,
            payload_bytes: u64::decode(input)?,
            padding_bytes: u64::decode(input)?,
            rounds: usize::decode(input)?,
            max_inflight_bytes: u64::decode(input)?,
        })
    }
}

impl Wire for CommStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.collectives.encode(out);
        self.rounds.encode(out);
        self.payload_bytes.encode(out);
        self.padding_bytes.encode(out);
        self.sent_to.encode(out);
        self.max_round_pair_bytes.encode(out);
        self.max_inflight_bytes.encode(out);
        self.stages.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(CommStats {
            collectives: usize::decode(input)?,
            rounds: usize::decode(input)?,
            payload_bytes: u64::decode(input)?,
            padding_bytes: u64::decode(input)?,
            sent_to: Vec::decode(input)?,
            max_round_pair_bytes: u64::decode(input)?,
            max_inflight_bytes: u64::decode(input)?,
            stages: Vec::decode(input)?,
        })
    }
}

/// Encodes a `&str` exactly as [`String`]'s codec does.
fn put_str(out: &mut Vec<u8>, s: &str) {
    s.len().encode(out);
    out.extend_from_slice(s.as_bytes());
}

impl Wire for EventKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(match u8::decode(input)? {
            0 => EventKind::Begin,
            1 => EventKind::End,
            2 => EventKind::Instant,
            3 => EventKind::Counter,
            4 => EventKind::FlowStart,
            5 => EventKind::FlowEnd,
            _ => return None,
        })
    }
}

/// Labels and argument names travel as strings (the argument list as a
/// `Vec<(String, u64)>`) and are re-interned on decode.
impl Wire for Event {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, self.label);
        self.kind.encode(out);
        self.ts_ns.encode(out);
        self.rank.encode(out);
        self.tid.encode(out);
        self.args().len().encode(out);
        for &(name, value) in self.args() {
            put_str(out, name);
            value.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let label = String::decode(input)?;
        let kind = EventKind::decode(input)?;
        let ts_ns = u64::decode(input)?;
        let rank = u32::decode(input)?;
        let tid = u32::decode(input)?;
        let args = Vec::<(String, u64)>::decode(input)?;
        let args: Vec<(&str, u64)> = args.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        Event::new(&label, kind, ts_ns, rank, tid, &args)
    }
}

impl Wire for Trace {
    fn encode(&self, out: &mut Vec<u8>) {
        self.dropped.encode(out);
        self.events.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Trace {
            dropped: u64::decode(input)?,
            events: Vec::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_trace::MAX_ARGS;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(
            from_bytes::<u64>(&to_bytes(&0xdead_beefu64)),
            Some(0xdead_beef)
        );
        assert_eq!(from_bytes::<usize>(&to_bytes(&42usize)), Some(42));
        assert_eq!(from_bytes::<i64>(&to_bytes(&-7i64)), Some(-7));
        assert_eq!(from_bytes::<bool>(&to_bytes(&true)), Some(true));
        assert_eq!(from_bytes::<f64>(&to_bytes(&1.5f64)), Some(1.5));
        let nan = from_bytes::<f64>(&to_bytes(&f64::NAN)).unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn containers_round_trip() {
        let v = vec!["a".to_string(), "bc".to_string()];
        assert_eq!(from_bytes::<Vec<String>>(&to_bytes(&v)), Some(v));
        let opt: Option<u32> = Some(9);
        assert_eq!(from_bytes::<Option<u32>>(&to_bytes(&opt)), Some(opt));
        let res: Result<u32, String> = Err("boom".to_string());
        assert_eq!(
            from_bytes::<Result<u32, String>>(&to_bytes(&res)),
            Some(res)
        );
        let tup = (1u8, "x".to_string(), 3u64);
        assert_eq!(from_bytes::<(u8, String, u64)>(&to_bytes(&tup)), Some(tup));
    }

    #[test]
    fn malformed_input_is_rejected_not_misread() {
        // Truncated payload.
        let mut bytes = to_bytes(&"hello".to_string());
        bytes.pop();
        assert_eq!(from_bytes::<String>(&bytes), None);
        // Trailing garbage.
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert_eq!(from_bytes::<u32>(&bytes), None);
        // Bad variant tag.
        assert_eq!(from_bytes::<Option<u8>>(&[9, 0]), None);
        // Length prefix far beyond the buffer must not allocate or panic.
        let mut huge = Vec::new();
        u64::MAX.encode(&mut huge);
        assert_eq!(from_bytes::<Vec<u64>>(&huge), None);
    }

    #[test]
    fn dmem_error_and_comm_stats_round_trip() {
        let errs = vec![
            DmemError::PeerFailed {
                rank: 3,
                round: 1,
                detail: "died".to_string(),
            },
            DmemError::InjectedFault {
                rank: 0,
                stage: "exchange".to_string(),
                round: 0,
                kind: "fail-rank".to_string(),
            },
            DmemError::Protocol("bad".to_string()),
        ];
        for e in errs {
            assert_eq!(from_bytes::<DmemError>(&to_bytes(&e)), Some(e));
        }

        let mut stats = CommStats::new(3);
        stats.record("stage-a", &[1, 2, 3], 4, 2, 0, 3);
        stats.record_with_inflight("stage-b", &[0, 9, 9], 0, 1, 0, 9, 18);
        assert_eq!(from_bytes::<CommStats>(&to_bytes(&stats)), Some(stats));
    }

    /// A seeded fuzz loop over the types that cross the process boundary. Every strict
    /// prefix of a valid encoding decodes to `None`; every single-bit flip decodes to
    /// `None` or to a value that re-encodes to exactly the flipped bytes; and so does an
    /// 8-byte `u64::MAX`, 2^40 or one-past-the-end length written at every offset.
    fn fuzz<T: Wire + PartialEq + std::fmt::Debug>(value: &T, state: &mut u64) {
        let bytes = to_bytes(value);
        assert_eq!(from_bytes::<T>(&bytes).as_ref(), Some(value));
        for len in 0..bytes.len() {
            assert_eq!(
                from_bytes::<T>(&bytes[..len]),
                None,
                "{value:?}: prefix {len}"
            );
        }
        let value_or_none = |input: &[u8]| {
            if let Some(v) = from_bytes::<T>(input) {
                assert_eq!(to_bytes(&v), input, "{value:?} misparsed as {v:?}");
            }
        };
        for _ in 0..600 {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            let bit = *state as usize % (bytes.len() * 8);
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            value_or_none(&flipped);
        }
        for at in 0..bytes.len().saturating_sub(7) {
            let past_end = (bytes.len() - at - 7) as u64;
            for len in [u64::MAX, 1 << 40, past_end] {
                let mut hostile = bytes.clone();
                hostile[at..at + 8].copy_from_slice(&len.to_le_bytes());
                value_or_none(&hostile);
            }
        }
    }

    #[test]
    fn seeded_fuzz_loop_decodes_every_boundary_type_to_a_value_or_none() {
        let mut stats = CommStats::new(3);
        stats.record("task-sizes", &[0, 24, 24], 0, 2, 0, 24);
        stats.record_with_inflight("exchange", &[5, 0, 9], 3, 4, 1, 9, 18);
        let errors = [
            DmemError::PeerFailed {
                rank: 1,
                round: 2,
                detail: "rank 1 exited before completing the run".to_string(),
            },
            DmemError::InjectedFault {
                rank: 0,
                stage: "task-sizes".to_string(),
                round: 0,
                kind: "fail-rank".to_string(),
            },
            DmemError::Protocol("collective mismatch".to_string()),
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        fuzz(&stats, &mut state);
        for e in &errors {
            fuzz(e, &mut state);
            fuzz(&Err::<Vec<u64>, _>(e.clone()), &mut state);
        }
        fuzz(&Ok::<_, DmemError>(vec![1u64, u64::MAX, 0]), &mut state);
        fuzz(&vec![vec![], vec![1u32, 2], vec![u32::MAX]], &mut state);
        fuzz(
            &vec![String::new(), "a".to_string(), "ünï".to_string()],
            &mut state,
        );
        // A forked rank's trace: events of 0, 1, 2 and `MAX_ARGS` arguments, a non-ASCII
        // label.
        let event = |label, kind, args: &[(&str, u64)]| {
            Event::new(label, kind, 1_234, 1, 7, args).expect("at most `MAX_ARGS` arguments")
        };
        let child_trace = Trace {
            events: vec![
                event("exchange", EventKind::Begin, &[]),
                event("rückgabe-µs", EventKind::Instant, &[("round", 3)]),
                event(
                    "exchange",
                    EventKind::End,
                    &[("bytes", u64::MAX), ("round", 0)],
                ),
                event(
                    "count-section",
                    EventKind::End,
                    &[("distinct", 7), ("hashed", 1), ("supermers", 9), ("d", 0)],
                ),
            ],
            dropped: 5,
        };
        fuzz(&child_trace, &mut state);
        fuzz(&Trace::default(), &mut state);

        // The length prefixes themselves: a length the input cannot back is `None`. A
        // reservation sized by the prefix instead of the remaining input would panic on
        // capacity overflow or abort on a failed allocation here.
        let tail = to_bytes(&7u32);
        for len in [u64::MAX, 1 << 40, tail.len() as u64 + 1] {
            let prefixed = |head: &[u8]| [head, &len.to_le_bytes(), &tail].concat();
            assert_eq!(from_bytes::<Vec<Vec<u32>>>(&prefixed(&[])), None);
            assert_eq!(
                from_bytes::<Vec<Vec<u32>>>(&prefixed(&to_bytes(&1u64))),
                None
            );
            assert_eq!(from_bytes::<Vec<String>>(&prefixed(&to_bytes(&1u64))), None);
            assert_eq!(
                from_bytes::<Result<Vec<u64>, DmemError>>(&prefixed(&[0])),
                None
            );
            assert_eq!(from_bytes::<DmemError>(&prefixed(&[3])), None);
            assert_eq!(from_bytes::<CommStats>(&prefixed(&[0; 32])), None);
            assert_eq!(from_bytes::<Trace>(&prefixed(&[0; 8])), None);
        }
        // An argument past `MAX_ARGS` is malformed, not truncated away.
        let full = [("a", 1), ("b", 2), ("c", 3), ("d", 4)];
        assert_eq!(full.len(), MAX_ARGS);
        let mut over = to_bytes(&event("x", EventKind::Counter, &full));
        let at = over.len() - MAX_ARGS * (8 + 1 + 8) - 8;
        over[at..at + 8].copy_from_slice(&(MAX_ARGS as u64 + 1).to_le_bytes());
        put_str(&mut over, "e");
        5u64.encode(&mut over);
        assert_eq!(from_bytes::<Event>(&over), None);
        let too_many = [("a", 1); MAX_ARGS + 1];
        assert!(Event::new("x", EventKind::Counter, 0, 0, 0, &too_many).is_none());
    }
}
