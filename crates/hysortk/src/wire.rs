//! Wire format of the exchange stage.
//!
//! Each destination rank receives a byte stream made of *task blocks*. A block carries
//! the task id, the payload kind and the payload itself:
//!
//! * **Supermer blocks** — the normal path: per supermer a header and its 2-bit packed
//!   bases, from which the receiver re-extracts the k-mers; stage 1 writes them, into
//!   the task's staged body ([`push_supermer`]). Without extensions the block is *bare*:
//!   the header is **one length byte**, 255 announcing a `u32` length (a supermer is a
//!   run of k-mers with one minimizer target, so on long reads 255 bases and more
//!   occur). An extension run writes `(read id, start offset, base length)` as three
//!   `u32`s, which imply every k-mer's provenance — one of the reasons the supermer path
//!   needs no separate extension exchange — and its index pass rejects a bare block,
//!   which would decode to read 0, offset 0 ([`WireError::MissingProvenance`]).
//!
//!   A run on a large input cuts every task into `S` **sections** (a power of two, at
//!   most [`MAX_SECTIONS`]): a supermer's section is its minimizer target divided by the
//!   task count, so a canonical k-mer lies in exactly one section, and the receiver
//!   counts a task one cache-sized section at a time. Such a block carries its bodies
//!   section after section behind a **section directory**:
//!
//!   ```text
//!   task u32 · kind u8 · supermers u32 · S u32 · S × (supermers u32, bytes u32) · bodies · checksum u32
//!   ```
//!
//!   An unsectioned block (`S = 1`: every small input, and the harness's replay) has no
//!   directory — `task · kind · supermers · body · checksum` — and is read as one
//!   section. [`read_blocks`] walks every section's supermers against its directory
//!   entry; all blocks of one task must agree on `S` ([`WireError::SectionMismatch`]).
//! * **Kmerlist blocks** — the heavy-hitter path (§3.5): pre-aggregated
//!   `(k-mer, count)` tuples.
//!
//! Those are the only payloads: every k-mer crosses the wire inside a supermer or as a
//! kmerlist entry, and extensions never travel apart from the supermer headers, so the
//! wire carries no extension codec. Kind byte 2 is retired: a block that claims it fails
//! with [`WireError::BadKind`].
//!
//! Serialising to real bytes (rather than exchanging Rust structs) keeps the traffic
//! accounting of the simulated cluster byte-accurate.
//!
//! Parsing is **zero-copy**: [`read_blocks`] validates the stream structure in one walk
//! and returns [`TaskBlockView`]s whose payloads borrow the receive buffer. Items are
//! decoded on demand by the view iterators — no payload byte is ever copied into an
//! intermediate buffer.
//!
//! One writer per payload: [`write_supermer`] stages supermers into a body
//! ([`push_supermer`] onto its end), [`write_supermer_block`] seals bodies into a
//! block, and [`write_kmerlist_block`] writes a kmerlist block.

use hysortk_dna::kmer::KmerCode;
use hysortk_dna::sequence::DnaSeq;
use hysortk_supermer::simd::pair_reverse;
use hysortk_supermer::supermer::{supermer_wire_len, LONG_SUPERMER};

use std::fmt;
use std::marker::PhantomData;

/// Why a wire stream failed to parse. Every variant carries the byte offset at which
/// the stream went wrong, so an error names the exact defect instead of panicking on
/// attacker-shaped bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended in the middle of a block.
    Truncated {
        /// Byte offset at which more data was expected.
        offset: usize,
    },
    /// A block declared an unknown payload kind.
    BadKind {
        /// The unknown kind byte.
        kind: u8,
        /// Byte offset of the kind byte.
        offset: usize,
    },
    /// A length field implies a payload larger than addressable memory.
    Oversized {
        /// Byte offset of the offending length field.
        offset: usize,
    },
    /// The block's trailing checksum did not match its bytes — the payload was
    /// corrupted in flight.
    Checksum {
        /// Task id the corrupted block claimed.
        task: u32,
        /// Byte offset at which the block started.
        offset: usize,
    },
    /// A task's decoded total disagrees with the total announced for it: its k-mer
    /// instances with the globally allreduced task size, or the records (or kmerlist
    /// entries) its blocks decode to with what their headers declare. Every block parsed
    /// cleanly, yet data was lost or duplicated in flight — e.g. a segment truncated at
    /// an exact block boundary, which per-block checksums cannot see.
    CountMismatch {
        /// Task id whose totals disagree.
        task: u32,
        /// The announced total: from the task-size allreduce, or the block headers.
        expected: u64,
        /// The total actually decoded.
        got: u64,
    },
    /// A supermer block without provenance headers reached a run that produces
    /// extension lists — its k-mers would all claim read 0, offset 0.
    MissingProvenance {
        /// Task id of the bare block.
        task: u32,
    },
    /// A section directory is malformed: a section count outside `2..=MAX_SECTIONS`,
    /// section supermer counts that do not sum to the block's, or a section whose
    /// supermers do not end where its byte length says.
    BadDirectory {
        /// Byte offset of the offending directory field.
        offset: usize,
    },
    /// Two blocks of one task were cut into different numbers of sections.
    SectionMismatch {
        /// Task id whose blocks disagree.
        task: u32,
        /// Sections of the task's first block.
        expected: u32,
        /// Sections of the block that disagrees.
        got: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { offset } => {
                write!(f, "wire stream truncated at byte {offset}")
            }
            WireError::BadKind { kind, offset } => {
                write!(f, "unknown block kind {kind} at byte {offset}")
            }
            WireError::Oversized { offset } => {
                write!(f, "oversized length field at byte {offset}")
            }
            WireError::Checksum { task, offset } => {
                write!(
                    f,
                    "checksum mismatch in block for task {task} starting at byte {offset}"
                )
            }
            WireError::CountMismatch {
                task,
                expected,
                got,
            } => {
                write!(
                    f,
                    "task {task} decoded to {got} where {expected} were announced \
                     — wire data lost or duplicated"
                )
            }
            WireError::MissingProvenance { task } => {
                write!(
                    f,
                    "supermer block for task {task} carries no provenance, \
                     which an extension run needs"
                )
            }
            WireError::BadDirectory { offset } => {
                write!(f, "malformed section directory at byte {offset}")
            }
            WireError::SectionMismatch {
                task,
                expected,
                got,
            } => {
                write!(
                    f,
                    "task {task} arrived in blocks of {expected} and of {got} sections"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Codec for shipping a parse defect across a process-backend control socket: the
/// variant as a tag byte, then its fields. Rank errors must survive the trip back
/// to the parent unchanged, or a corrupted segment in a forked rank would degrade
/// into an unexplained "rank exited" report.
impl hysortk_dmem::Wire for WireError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireError::Truncated { offset } => {
                0u8.encode(out);
                offset.encode(out);
            }
            WireError::BadKind { kind, offset } => {
                1u8.encode(out);
                kind.encode(out);
                offset.encode(out);
            }
            WireError::Oversized { offset } => {
                3u8.encode(out);
                offset.encode(out);
            }
            WireError::Checksum { task, offset } => {
                4u8.encode(out);
                task.encode(out);
                offset.encode(out);
            }
            WireError::CountMismatch {
                task,
                expected,
                got,
            } => {
                5u8.encode(out);
                task.encode(out);
                expected.encode(out);
                got.encode(out);
            }
            WireError::MissingProvenance { task } => {
                6u8.encode(out);
                task.encode(out);
            }
            WireError::BadDirectory { offset } => {
                7u8.encode(out);
                offset.encode(out);
            }
            WireError::SectionMismatch {
                task,
                expected,
                got,
            } => {
                8u8.encode(out);
                task.encode(out);
                expected.encode(out);
                got.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(match u8::decode(input)? {
            0 => WireError::Truncated {
                offset: usize::decode(input)?,
            },
            1 => WireError::BadKind {
                kind: u8::decode(input)?,
                offset: usize::decode(input)?,
            },
            3 => WireError::Oversized {
                offset: usize::decode(input)?,
            },
            4 => WireError::Checksum {
                task: u32::decode(input)?,
                offset: usize::decode(input)?,
            },
            5 => WireError::CountMismatch {
                task: u32::decode(input)?,
                expected: u64::decode(input)?,
                got: u64::decode(input)?,
            },
            6 => WireError::MissingProvenance {
                task: u32::decode(input)?,
            },
            7 => WireError::BadDirectory {
                offset: usize::decode(input)?,
            },
            8 => WireError::SectionMismatch {
                task: u32::decode(input)?,
                expected: u32::decode(input)?,
                got: u32::decode(input)?,
            },
            _ => return None,
        })
    }
}

/// The multiply–rotate fold behind every checksum and fingerprint of this crate: eight
/// little-endian bytes at a time, the tail zero-padded, then the length folded in. Not
/// cryptographic, but any single bit flip, truncation or length change moves it.
pub(crate) fn fold64(bytes: &[u8]) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0100_0000_01b3).rotate_left(23);
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h = step(
            h,
            u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes")),
        );
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h = step(h, u64::from_le_bytes(w));
    }
    h ^ bytes.len() as u64
}

/// [`fold64`] folded to 32 bits: the seal appended after every task block's payload by
/// every writer and verified by [`read_blocks`] — so a bit flipped in flight surfaces as
/// [`WireError::Checksum`] instead of a silently wrong histogram — and the trailer of
/// every checkpoint manifest.
pub(crate) fn checksum32(bytes: &[u8]) -> u32 {
    let h = fold64(bytes);
    (h ^ (h >> 32)) as u32
}

/// Append the checksum of `out[block_start..]` — call once per finished block.
fn seal_block(out: &mut Vec<u8>, block_start: usize) {
    let sum = checksum32(&out[block_start..]);
    push_u32(out, sum);
}

const KIND_SUPERMERS: u8 = 0;
const KIND_KMERLIST: u8 = 1;
const KIND_BARE_SUPERMERS: u8 = 3;
const KIND_SECTIONED_SUPERMERS: u8 = 4;
const KIND_SECTIONED_BARE_SUPERMERS: u8 = 5;

/// Most sections a task is cut into (the module docs' `S`).
pub const MAX_SECTIONS: u32 = 256;
/// Bytes of one section directory entry: supermers, then body bytes, as `u32`s.
const DIRECTORY_ENTRY: usize = 8;
/// Most bases of a supermer whose packed bases fit two words
/// ([`SupermerView::short_bases`]).
pub(crate) const SHORT_SUPERMER: usize = 64;

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let raw: [u8; 4] = buf.get(*pos..*pos + 4)?.try_into().ok()?;
    *pos += 4;
    Some(u32::from_le_bytes(raw))
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let raw: [u8; 8] = buf.get(*pos..*pos + 8)?.try_into().ok()?;
    *pos += 8;
    Some(u64::from_le_bytes(raw))
}

fn push_kmer<K: KmerCode>(buf: &mut Vec<u8>, kmer: &K) {
    for &w in kmer.word_slice() {
        push_u64(buf, w);
    }
}

/// Decode one k-mer from its wire words. The words *are* the packed representation
/// ([`KmerCode::word_slice`]), so this is a direct word copy, not an O(k) rebuild.
fn read_kmer<K: KmerCode>(buf: &[u8], pos: &mut usize) -> Option<K> {
    let mut words = [0u64; 2];
    for w in words.iter_mut().take(K::WORDS) {
        *w = read_u64(buf, pos)?;
    }
    Some(K::from_word_slice(&words[..K::WORDS]))
}

/// Wire bytes of one k-mer.
fn kmer_wire_bytes<K: KmerCode>() -> usize {
    K::WORDS * 8
}

/// Serialise one kmerlist block of `task` into `out` — the `(canonical k-mer, count)`
/// tuples a heavy-hitter task ships pre-counted — sealed with a trailing checksum.
pub fn write_kmerlist_block<K: KmerCode>(out: &mut Vec<u8>, task: u32, list: &[(K, u64)]) {
    let block_start = out.len();
    push_u32(out, task);
    out.push(KIND_KMERLIST);
    push_u32(out, list.len() as u32);
    for (kmer, count) in list {
        push_kmer(out, kmer);
        push_u64(out, *count);
    }
    seal_block(out, block_start);
}

/// Append one supermer in wire form to `body` ([`write_supermer`]).
pub fn push_supermer(
    body: &mut Vec<u8>,
    provenance: Option<(u32, u32)>,
    seq: &DnaSeq,
    offset: usize,
    len: usize,
) {
    let at = body.len();
    body.resize(at + supermer_wire_len(len, provenance.is_some()), 0);
    write_supermer(&mut body[at..], provenance, seq, offset, len);
}

/// Write one supermer in wire form to the front of `out` and return its length,
/// [`supermer_wire_len`]: its header — `(read id, start)` and the length with
/// `provenance`, the length alone without — and the packed bases `offset..offset + len`
/// of `seq` (the *source read*; no `Supermer` with an owned [`DnaSeq`] is
/// materialised), copied 32 bases per shift/OR ([`DnaSeq::write_packed_range`]).
#[inline]
pub fn write_supermer(
    out: &mut [u8],
    provenance: Option<(u32, u32)>,
    seq: &DnaSeq,
    offset: usize,
    len: usize,
) -> usize {
    let header = match provenance {
        Some((read_id, start)) => {
            out[..4].copy_from_slice(&read_id.to_le_bytes());
            out[4..8].copy_from_slice(&start.to_le_bytes());
            out[8..12].copy_from_slice(&(len as u32).to_le_bytes());
            12
        }
        None if len < usize::from(LONG_SUPERMER) => {
            out[0] = len as u8;
            1
        }
        None => {
            out[0] = LONG_SUPERMER;
            out[1..5].copy_from_slice(&(len as u32).to_le_bytes());
            5
        }
    };
    seq.write_packed_range(offset, len, &mut out[header..]);
    let written = header + len.div_ceil(4);
    debug_assert_eq!(written, supermer_wire_len(len, provenance.is_some()));
    written
}

/// Serialise one supermer block of a task cut into `sections` sections from staged
/// bodies. `parts` are `(section, supermers, body)`, each body holding `supermers`
/// supermers that [`push_supermer`] wrote with or without `provenance`: in section
/// order, a section's parts in the order they were staged, any number of them per
/// section — none for an empty one. One section is an unsectioned block; more (at most
/// [`MAX_SECTIONS`]) go behind a section directory (module docs).
pub fn write_supermer_block(
    out: &mut Vec<u8>,
    task: u32,
    provenance: bool,
    sections: u32,
    parts: &[(u32, u64, &[u8])],
) {
    assert!(
        (1..=MAX_SECTIONS).contains(&sections),
        "{sections} sections, not 1..={MAX_SECTIONS}"
    );
    let supermers = |n: u64| u32::try_from(n).expect("a block holds fewer than 2^32 supermers");
    let count = supermers(parts.iter().map(|&(_, n, _)| n).sum());
    let bodies: usize = parts.iter().map(|(_, _, body)| body.len()).sum();
    let block_start = out.len();
    out.reserve(17 + DIRECTORY_ENTRY * sections as usize + bodies);
    push_u32(out, task);
    let kind = match (sections, provenance) {
        (1, true) => KIND_SUPERMERS,
        (1, false) => KIND_BARE_SUPERMERS,
        (_, true) => KIND_SECTIONED_SUPERMERS,
        (_, false) => KIND_SECTIONED_BARE_SUPERMERS,
    };
    out.push(kind);
    push_u32(out, count);
    if sections > 1 {
        push_u32(out, sections);
        let mut next = parts.iter().peekable();
        for section in 0..sections {
            let (mut n, mut bytes) = (0u64, 0usize);
            while let Some((_, count, body)) = next.next_if(|part| part.0 == section) {
                n += count;
                bytes += body.len();
            }
            push_u32(out, supermers(n));
            push_u32(
                out,
                u32::try_from(bytes).expect("a section body is smaller than 4 GiB"),
            );
        }
        assert!(
            next.next().is_none(),
            "parts come in section order, each below {sections}"
        );
    } else {
        assert!(
            parts.iter().all(|part| part.0 == 0),
            "one section: section 0"
        );
    }
    for (_, _, body) in parts {
        out.extend_from_slice(body);
    }
    seal_block(out, block_start);
}

/// Streamed writer of one supermer block **with provenance**, supermer by supermer
/// straight into a send buffer — what [`push_supermer`] into a body followed by
/// [`write_supermer_block`] writes, without the body.
///
/// The caller declares the supermer count up front and must then
/// [`push`](SupermerBlockWriter::push) exactly that many supermers for the stream to
/// parse back.
#[derive(Debug)]
pub struct SupermerBlockWriter<'a> {
    out: &'a mut Vec<u8>,
    block_start: usize,
    declared: u32,
    written: u32,
}

impl<'a> SupermerBlockWriter<'a> {
    /// Start a supermer block for `task` holding exactly `count` supermers.
    pub fn new(out: &'a mut Vec<u8>, task: u32, count: u32) -> Self {
        let block_start = out.len();
        push_u32(out, task);
        out.push(KIND_SUPERMERS);
        push_u32(out, count);
        SupermerBlockWriter {
            out,
            block_start,
            declared: count,
            written: 0,
        }
    }

    /// Append one supermer: its header plus the packed bases `offset..offset + len`
    /// of `seq` (the *source read*, not a materialised supermer sequence).
    pub fn push(&mut self, read_id: u32, start: u32, seq: &DnaSeq, offset: usize, len: usize) {
        debug_assert!(self.written < self.declared, "more supermers than declared");
        push_supermer(self.out, Some((read_id, start)), seq, offset, len);
        self.written += 1;
    }
}

impl Drop for SupermerBlockWriter<'_> {
    fn drop(&mut self) {
        // Skip sealing during unwinding: asserting or hashing here would turn any
        // panic raised mid-block into a panic-while-panicking abort that masks it,
        // and the half-written buffer is discarded anyway.
        if !std::thread::panicking() {
            debug_assert_eq!(
                self.written, self.declared,
                "supermer block closed with a count mismatch"
            );
            seal_block(self.out, self.block_start);
        }
    }
}

// =======================================================================================
// Zero-copy parsing
// =======================================================================================

/// A parsed task block borrowing the receive buffer.
#[derive(Debug, Clone)]
pub struct TaskBlockView<'a, K: KmerCode> {
    /// Task this block belongs to.
    pub task: u32,
    /// The payload view.
    pub payload: PayloadView<'a, K>,
}

/// Borrowed payload of one task block.
#[derive(Debug, Clone)]
pub enum PayloadView<'a, K: KmerCode> {
    /// Supermers (normal tasks).
    Supermers(SupermersView<'a>),
    /// Pre-aggregated `(canonical k-mer, count)` tuples (heavy-hitter tasks).
    KmerList(KmerListView<'a, K>),
}

/// Borrowed view of a supermer block body: its sections' bodies, back to back.
#[derive(Debug, Clone, Copy)]
pub struct SupermersView<'a> {
    count: usize,
    bytes: &'a [u8],
    provenance: bool,
    /// The section directory; empty for an unsectioned block (one section).
    directory: &'a [u8],
}

impl<'a> SupermersView<'a> {
    /// View an unsectioned body of `count` supermers whose lengths are known to fit: one
    /// this process staged itself ([`push_supermer`]), or one [`read_blocks`] has walked.
    pub(crate) fn staged(count: usize, bytes: &'a [u8], provenance: bool) -> Self {
        SupermersView {
            count,
            bytes,
            provenance,
            directory: &[],
        }
    }

    /// Whether the supermers carry their read id and offset; without, both decode as 0.
    pub fn has_provenance(&self) -> bool {
        self.provenance
    }

    /// How many sections the block's task was cut into: 1 for an unsectioned block.
    pub fn section_count(&self) -> usize {
        (self.directory.len() / DIRECTORY_ENTRY).max(1)
    }

    /// The block's sections in order, each an unsectioned view of its own supermers —
    /// the whole block when it has no directory.
    pub fn sections(&self) -> impl Iterator<Item = SupermersView<'a>> + 'a {
        let whole = self.directory.is_empty().then_some(*self);
        let (provenance, mut rest) = (self.provenance, self.bytes);
        let parts = self
            .directory
            .chunks_exact(DIRECTORY_ENTRY)
            .map(move |entry| {
                let (count, bytes) = directory_entry(entry);
                let (part, tail) = rest.split_at(bytes);
                rest = tail;
                SupermersView::staged(count, part, provenance)
            });
        whole.into_iter().chain(parts)
    }

    /// Number of supermers in the block.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the block holds no supermers.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate over the supermers without copying their packed bases.
    pub fn iter(&self) -> SupermerIter<'a> {
        SupermerIter {
            remaining: self.count,
            bytes: self.bytes,
            provenance: self.provenance,
        }
    }

    /// Exact number of k-mers this block will decode to, computed from the supermer
    /// headers alone (the packed bases are skipped, not decoded). The sort & count
    /// stage sums this per section into its block index and sizes the buffer it decodes
    /// a section into from it.
    pub fn total_kmers(&self, k: usize) -> usize {
        self.iter().map(|sm| sm.num_kmers(k)).sum()
    }
}

/// Iterator over [`SupermerView`]s in a supermer block.
#[derive(Debug, Clone)]
pub struct SupermerIter<'a> {
    remaining: usize,
    bytes: &'a [u8],
    provenance: bool,
}

/// A section directory entry: `(supermers, body bytes)`.
fn directory_entry(entry: &[u8]) -> (usize, usize) {
    let word = |at: usize| u32::from_le_bytes(entry[at..at + 4].try_into().expect("4 bytes"));
    (word(0) as usize, word(4) as usize)
}

/// Walk `count` supermer headers and bodies from `pos`, which must all lie within
/// `buf`; returns where the last one ends. Every header consumes at least one byte, so
/// a claimed count costs at most one step per byte of `buf`.
fn walk_supermers(
    buf: &[u8],
    mut pos: usize,
    count: usize,
    provenance: bool,
) -> Result<usize, WireError> {
    for _ in 0..count {
        let header_at = pos;
        let (_, _, len) = read_supermer_header(buf, &mut pos, provenance)
            .ok_or(WireError::Truncated { offset: pos })?;
        let end = pos
            .checked_add(len.div_ceil(4))
            .ok_or(WireError::Oversized { offset: header_at })?;
        buf.get(pos..end)
            .ok_or(WireError::Truncated { offset: pos })?;
        pos = end;
    }
    Ok(pos)
}

/// Decode the supermer header at `pos` into `(read id, start, bases)` — zeros for the
/// provenance a bare header does not carry. `None`, with `pos` at the field that does
/// not fit, when the header runs past `buf`.
fn read_supermer_header(
    buf: &[u8],
    pos: &mut usize,
    provenance: bool,
) -> Option<(u32, u32, usize)> {
    if provenance {
        let (read_id, start) = (read_u32(buf, pos)?, read_u32(buf, pos)?);
        return Some((read_id, start, read_u32(buf, pos)? as usize));
    }
    let short = *buf.get(*pos)?;
    *pos += 1;
    if short == LONG_SUPERMER {
        return Some((0, 0, read_u32(buf, pos)? as usize));
    }
    Some((0, 0, usize::from(short)))
}

impl<'a> Iterator for SupermerIter<'a> {
    type Item = SupermerView<'a>;

    fn next(&mut self) -> Option<SupermerView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mut pos = 0usize;
        // Lengths were validated by `read_blocks`; the expect documents that contract.
        let (read_id, start, len) = read_supermer_header(self.bytes, &mut pos, self.provenance)
            .expect("validated by read_blocks");
        let bytes = &self.bytes[pos..];
        self.bytes = &bytes[len.div_ceil(4)..];
        Some(SupermerView {
            read_id,
            start,
            len,
            bytes,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// One supermer, borrowing its 2-bit packed bases from the receive buffer.
#[derive(Debug, Clone, Copy)]
pub struct SupermerView<'a> {
    /// Id of the read the supermer was cut from (0 in a block without provenance).
    pub read_id: u32,
    /// Offset of the first base within the read (0 in a block without provenance).
    pub start: u32,
    /// Number of bases.
    pub len: usize,
    /// The packed bases, then whatever follows them in the block body.
    bytes: &'a [u8],
}

impl<'a> SupermerView<'a> {
    /// A bare supermer of `len` ≤ [`SHORT_SUPERMER`] bases, packed in `bases` as
    /// [`Self::short_bases`] returns them.
    pub(crate) fn short(len: usize, bases: &'a [u8; 16]) -> Self {
        debug_assert!(len <= SHORT_SUPERMER);
        SupermerView {
            read_id: 0,
            start: 0,
            len,
            bytes: bases,
        }
    }

    /// The packed bases: base `i` at bits `2i` of a little-endian byte stream.
    fn packed(&self) -> &'a [u8] {
        &self.bytes[..self.len.div_ceil(4)]
    }

    /// The bases of a supermer of at most [`SHORT_SUPERMER`] bases as one little-endian
    /// `u128` (base `i` at bits `2i`) with every bit past base `len` zero, or `None` for
    /// a longer one. The bytes are read straight from the body, and copied only when
    /// fewer than 16 follow the first base. Bits past the last base are the ones no
    /// decode reads, so two supermers of one length decode alike exactly when these
    /// values are equal.
    #[inline(always)]
    pub(crate) fn short_bases(&self) -> Option<u128> {
        if self.len > SHORT_SUPERMER {
            return None;
        }
        let bases = match self.bytes.first_chunk::<16>() {
            Some(bytes) => u128::from_le_bytes(*bytes),
            None => {
                let mut bytes = [0u8; 16];
                bytes[..self.bytes.len()].copy_from_slice(self.bytes);
                u128::from_le_bytes(bytes)
            }
        };
        let mask = u128::MAX.checked_shr(128 - 2 * self.len as u32);
        Some(bases & mask.unwrap_or(0))
    }

    /// The 2-bit code of base `i`.
    #[inline]
    pub fn code_at(&self, i: usize) -> u8 {
        (self.packed()[i / 4] >> (2 * (i % 4))) & 0b11
    }

    /// Number of k-mers this supermer contains for a given k.
    pub fn num_kmers(&self, k: usize) -> usize {
        if self.len >= k {
            self.len - k + 1
        } else {
            0
        }
    }

    /// Visit every canonical k-mer with its absolute position in the read, decoding
    /// straight from the packed bytes — no intermediate `DnaSeq` or supermer
    /// materialisation, and no per-base roll: the wire packs base `i` at bits `2i` of a
    /// little-endian stream, so the k-mer starting at base `s` is the `2k`-bit window
    /// `w` at bit `2s`, and (the identities of `hysortk_supermer::simd`)
    ///
    /// * `rc = !w & mask` — complementing is `3 − code = !code`, and the window already
    ///   holds its last base in the highest group, where the reverse strand's first
    ///   base belongs;
    /// * `fwd = pair_reverse(w) >> (bits − 2k)` — the forward k-mer holds its first
    ///   base in the highest group.
    ///
    /// Both streams (the words, and the words with their 2-bit groups reversed) sit in
    /// shift registers refilled once per 32 bases; a position costs two double-word
    /// shifts, a mask, a compare and the call to `f`.
    ///
    /// `#[inline]` keeps every instantiation in its caller's codegen unit: each has one
    /// call site, and whether stage 3's decode loop is compiled into the count job or
    /// called once per supermer otherwise depends on how the units happen to be cut
    /// (measured: 4–6 % of `count` on `hifi_k31`).
    #[inline]
    pub fn for_each_canonical_kmer<K: KmerCode>(&self, k: usize, mut f: impl FnMut(K, u32)) {
        assert!(
            (1..=K::max_k()).contains(&k),
            "k = {k} outside 1..={}",
            K::max_k()
        );
        if self.len < k {
            return;
        }
        match K::WORDS {
            1 => self.canonical_windows_u64(k, |w, pos| f(K::from_word_slice(&[w]), pos)),
            2 => self.canonical_windows_u128(k, |w, pos| {
                f(K::from_word_slice(&[(w >> 64) as u64, w as u64]), pos)
            }),
            words => unreachable!("the wire format carries k-mers of 1 or 2 words, not {words}"),
        }
    }

    /// Little-endian word `j` of the packed bases (32 bases), zero beyond the last byte.
    #[inline(always)]
    fn word(&self, j: usize) -> u64 {
        let bytes = self.packed().get(8 * j..).unwrap_or(&[]);
        match bytes.first_chunk::<8>() {
            Some(word) => u64::from_le_bytes(*word),
            None => {
                let mut word = [0u8; 8];
                word[..bytes.len()].copy_from_slice(bytes);
                u64::from_le_bytes(word)
            }
        }
    }

    /// `k ≤ 32`, `len ≥ k`: canonical k-mers as right-aligned `u64` values.
    #[inline(always)]
    fn canonical_windows_u64(&self, k: usize, mut f: impl FnMut(u64, u32)) {
        let windows = self.len - k + 1;
        let mask = u64::MAX >> (64 - 2 * k);
        let fwd_shift = 64 - 2 * k;
        let mut pos = self.start;
        let mut next = self.word(0);
        for j in 0..windows.div_ceil(32) {
            let word = next;
            next = self.word(j + 1);
            // `lo` shifts right through the words, `hi` left through their reversals.
            let mut lo = u128::from(next) << 64 | u128::from(word);
            let mut hi = u128::from(pair_reverse(word)) << 64 | u128::from(pair_reverse(next));
            for _ in 0..(windows - 32 * j).min(32) {
                let rc = !(lo as u64) & mask;
                let fwd = (hi >> 64) as u64 >> fwd_shift;
                f(fwd.min(rc), pos);
                lo >>= 2;
                hi <<= 2;
                pos += 1;
            }
        }
    }

    /// `k ≤ 64`, `len ≥ k`: canonical k-mers as right-aligned `u128` values (the
    /// two-word k-mer's words, most significant first, compare as that integer).
    #[inline(always)]
    fn canonical_windows_u128(&self, k: usize, mut f: impl FnMut(u128, u32)) {
        let windows = self.len - k + 1;
        let mask = u128::MAX >> (128 - 2 * k);
        let fwd_shift = 128 - 2 * k;
        let mut pos = self.start;
        let (mut w1, mut w2) = (self.word(0), self.word(1));
        for j in 0..windows.div_ceil(32) {
            let w0 = w1;
            w1 = w2;
            w2 = self.word(j + 2);
            // 192-bit shift registers: 128 bits of window plus the word that feeds it.
            let (mut lo, mut lo_in) = (u128::from(w1) << 64 | u128::from(w0), w2);
            let mut hi = u128::from(pair_reverse(w0)) << 64 | u128::from(pair_reverse(w1));
            let mut hi_in = pair_reverse(w2);
            for _ in 0..(windows - 32 * j).min(32) {
                let rc = !lo & mask;
                let fwd = hi >> fwd_shift;
                f(fwd.min(rc), pos);
                lo = lo >> 2 | u128::from(lo_in & 3) << 126;
                lo_in >>= 2;
                hi = hi << 2 | u128::from(hi_in >> 62);
                hi_in <<= 2;
                pos += 1;
            }
        }
    }

    /// Materialise an owned `Supermer`, base by base (the tests' plain decode).
    #[cfg(test)]
    pub fn to_supermer(&self, target: u32) -> hysortk_supermer::supermer::Supermer {
        let mut seq = DnaSeq::with_capacity(self.len);
        for i in 0..self.len {
            seq.push_code(self.code_at(i));
        }
        hysortk_supermer::supermer::Supermer {
            read_id: self.read_id,
            start: self.start,
            seq,
            target,
        }
    }
}

/// Borrowed view of a kmerlist block body.
#[derive(Debug, Clone, Copy)]
pub struct KmerListView<'a, K: KmerCode> {
    count: usize,
    bytes: &'a [u8],
    _kmer: PhantomData<K>,
}

impl<'a, K: KmerCode> KmerListView<'a, K> {
    /// Number of `(k-mer, count)` entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Decode the `(k-mer, count)` entries on the fly.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (K, u64)> + 'a {
        let bytes = self.bytes;
        let stride = kmer_wire_bytes::<K>() + 8;
        (0..self.count).map(move |i| {
            let mut pos = i * stride;
            let km = read_kmer::<K>(bytes, &mut pos).expect("validated by read_blocks");
            let count = read_u64(bytes, &mut pos).expect("validated by read_blocks");
            (km, count)
        })
    }
}

/// Parse a byte stream into task block views. Returns a [`WireError`] naming the
/// defect and its byte offset on malformed input — never panics, whatever the bytes.
///
/// One walk validates every length field and verifies each block's trailing checksum;
/// the returned views borrow `buf`, so parsing performs **zero payload copies** —
/// payload items are decoded lazily by the view iterators exactly where the pipeline
/// consumes them.
pub fn read_blocks<K: KmerCode>(buf: &[u8]) -> Result<Vec<TaskBlockView<'_, K>>, WireError> {
    let mut pos = 0usize;
    let mut out = Vec::new();
    while pos < buf.len() {
        let block_start = pos;
        let task = read_u32(buf, &mut pos).ok_or(WireError::Truncated { offset: pos })?;
        let kind = *buf.get(pos).ok_or(WireError::Truncated { offset: pos })?;
        let kind_at = pos;
        pos += 1;
        let payload = match kind {
            KIND_SUPERMERS
            | KIND_BARE_SUPERMERS
            | KIND_SECTIONED_SUPERMERS
            | KIND_SECTIONED_BARE_SUPERMERS => {
                let provenance = matches!(kind, KIND_SUPERMERS | KIND_SECTIONED_SUPERMERS);
                let n =
                    read_u32(buf, &mut pos).ok_or(WireError::Truncated { offset: pos })? as usize;
                let mut directory: &[u8] = &[];
                if matches!(
                    kind,
                    KIND_SECTIONED_SUPERMERS | KIND_SECTIONED_BARE_SUPERMERS
                ) {
                    let count_at = pos;
                    let sections =
                        read_u32(buf, &mut pos).ok_or(WireError::Truncated { offset: pos })?;
                    if !(2..=MAX_SECTIONS).contains(&sections) {
                        return Err(WireError::BadDirectory { offset: count_at });
                    }
                    let end = pos + DIRECTORY_ENTRY * sections as usize;
                    directory = buf
                        .get(pos..end)
                        .ok_or(WireError::Truncated { offset: pos })?;
                    pos = end;
                }
                let body_start = pos;
                if directory.is_empty() {
                    pos = walk_supermers(buf, pos, n, provenance)?;
                } else {
                    // Each section's supermers must end exactly where its byte length
                    // says, and the sections must hold the block's supermers.
                    let mut supermers = 0usize;
                    for (i, entry) in directory.chunks_exact(DIRECTORY_ENTRY).enumerate() {
                        let entry_at = body_start - directory.len() + i * DIRECTORY_ENTRY;
                        let (count, bytes) = directory_entry(entry);
                        let end = pos
                            .checked_add(bytes)
                            .ok_or(WireError::Oversized { offset: entry_at })?;
                        let section = buf.get(..end).ok_or(WireError::Truncated { offset: pos })?;
                        if walk_supermers(section, pos, count, provenance)? != end {
                            return Err(WireError::BadDirectory { offset: entry_at });
                        }
                        supermers += count;
                        pos = end;
                    }
                    if supermers != n {
                        return Err(WireError::BadDirectory {
                            offset: body_start - directory.len() - 4,
                        });
                    }
                }
                PayloadView::Supermers(SupermersView {
                    count: n,
                    bytes: &buf[body_start..pos],
                    provenance,
                    directory,
                })
            }
            KIND_KMERLIST => {
                let len_at = pos;
                let n =
                    read_u32(buf, &mut pos).ok_or(WireError::Truncated { offset: pos })? as usize;
                let body = n
                    .checked_mul(kmer_wire_bytes::<K>() + 8)
                    .and_then(|b| pos.checked_add(b))
                    .ok_or(WireError::Oversized { offset: len_at })?;
                let bytes = buf
                    .get(pos..body)
                    .ok_or(WireError::Truncated { offset: pos })?;
                pos = body;
                PayloadView::KmerList(KmerListView {
                    count: n,
                    bytes,
                    _kmer: PhantomData,
                })
            }
            _ => {
                return Err(WireError::BadKind {
                    kind,
                    offset: kind_at,
                });
            }
        };
        let body_end = pos;
        let declared = read_u32(buf, &mut pos).ok_or(WireError::Truncated { offset: pos })?;
        if checksum32(&buf[block_start..body_end]) != declared {
            return Err(WireError::Checksum {
                task,
                offset: block_start,
            });
        }
        out.push(TaskBlockView { task, payload });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hysortk_dna::kmer::{Kmer1, Kmer2};
    use hysortk_dna::readset::Read;
    use hysortk_supermer::mmer::{MmerScorer, ScoreFunction};
    use hysortk_supermer::supermer::{build_supermers, Supermer};

    /// An owned task block, read back from a [`TaskBlockView`] for comparison.
    #[derive(Debug, Clone, PartialEq)]
    struct TaskBlock<K: KmerCode> {
        task: u32,
        payload: Payload<K>,
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Payload<K: KmerCode> {
        Supermers(Vec<Supermer>),
        KmerList(Vec<(K, u64)>),
    }

    impl<K: KmerCode> TaskBlockView<'_, K> {
        fn to_owned_block(&self) -> TaskBlock<K> {
            let payload = match &self.payload {
                PayloadView::Supermers(view) => {
                    Payload::Supermers(view.iter().map(|s| s.to_supermer(self.task)).collect())
                }
                PayloadView::KmerList(view) => Payload::KmerList(view.iter().collect()),
            };
            TaskBlock {
                task: self.task,
                payload,
            }
        }
    }

    /// One unsectioned supermer block with provenance holding `supermers`, written the
    /// way stage 1 writes one: staged by [`push_supermer`], sealed by
    /// [`write_supermer_block`].
    fn write_supermers(out: &mut Vec<u8>, task: u32, supermers: &[Supermer]) {
        let mut body = Vec::new();
        for s in supermers {
            push_supermer(
                &mut body,
                Some((s.read_id, s.start)),
                &s.seq,
                0,
                s.seq.len(),
            );
        }
        write_supermer_block(out, task, true, 1, &[(0, supermers.len() as u64, &body)]);
    }

    fn read_blocks_owned<K: KmerCode>(buf: &[u8]) -> Result<Vec<TaskBlock<K>>, WireError> {
        Ok(read_blocks::<K>(buf)?
            .iter()
            .map(TaskBlockView::to_owned_block)
            .collect())
    }

    #[test]
    fn supermer_blocks_round_trip() {
        let read = Read::from_ascii(
            7,
            "r7",
            b"ACGTTGCAACGTGGGTTTAAACCCTAGCATACGTACGGTACCATGGTTACGATCGATCG",
        );
        let scorer = MmerScorer::new(7, ScoreFunction::Hash { seed: 1 });
        let supermers = build_supermers(&read, 15, &scorer, 8);
        assert!(!supermers.is_empty());
        let mut buf = Vec::new();
        write_supermers(&mut buf, 3, &supermers);
        let blocks = read_blocks_owned::<Kmer1>(&buf).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].task, 3);
        match &blocks[0].payload {
            Payload::Supermers(parsed) => {
                assert_eq!(parsed.len(), supermers.len());
                for (a, b) in parsed.iter().zip(&supermers) {
                    assert_eq!(a.read_id, b.read_id);
                    assert_eq!(a.start, b.start);
                    assert_eq!(a.seq, b.seq);
                }
            }
            other => panic!("wrong payload {other:?}"),
        }
    }

    #[test]
    fn supermer_views_decode_kmers_without_materialising() {
        let read = Read::from_ascii(2, "r2", b"ACGTTGCAACGTGGGTTTAAACCCTAGCATACGTACGGTACCATGG");
        let k = 15;
        let scorer = MmerScorer::new(7, ScoreFunction::Hash { seed: 5 });
        let supermers = build_supermers(&read, k, &scorer, 4);
        let mut buf = Vec::new();
        write_supermers(&mut buf, 0, &supermers);

        let blocks = read_blocks::<Kmer1>(&buf).unwrap();
        let PayloadView::Supermers(view) = &blocks[0].payload else {
            panic!("wrong payload")
        };
        assert_eq!(view.len(), supermers.len());
        let mut streamed: Vec<(Kmer1, u32)> = Vec::new();
        for sm in view.iter() {
            sm.for_each_canonical_kmer::<Kmer1>(k, |km, pos| streamed.push((km, pos)));
        }
        let direct: Vec<(Kmer1, u32)> = supermers
            .iter()
            .flat_map(|s| s.canonical_kmers_with_pos::<Kmer1>(k))
            .collect();
        assert_eq!(streamed, direct);
    }

    /// The decode this module used before the word-level one — both strands rolled one
    /// base per step with [`KmerCode::push_base`] / [`KmerCode::push_base_rc`] — kept as
    /// the oracle.
    fn rolling_canonical_kmers<K: KmerCode>(sm: &SupermerView<'_>, k: usize) -> Vec<(K, u32)> {
        let mut out = Vec::new();
        let mut fwd = K::zero();
        let mut rc = K::zero();
        for i in 0..sm.len {
            let code = sm.code_at(i);
            fwd = fwd.push_base(k, code);
            rc = rc.push_base_rc(k, code);
            if i + 1 >= k {
                let canon = if rc < fwd { rc } else { fwd };
                out.push((canon, sm.start + (i + 1 - k) as u32));
            }
        }
        out
    }

    #[test]
    fn word_level_decode_matches_the_rolling_oracle_at_every_length() {
        fn check<K: KmerCode>(sm: &SupermerView<'_>, k: usize) {
            let mut decoded: Vec<(K, u32)> = Vec::new();
            sm.for_each_canonical_kmer::<K>(k, |km, pos| decoded.push((km, pos)));
            assert_eq!(
                decoded,
                rolling_canonical_kmers::<K>(sm, k),
                "len = {}, k = {k}, {} words",
                sm.len,
                K::WORDS
            );
            assert_eq!(decoded.len(), sm.num_kmers(k));
        }
        // Every length from empty through six 32-base words and a tail: shorter than k,
        // exactly k, and every position of k against the 32- and 64-base boundaries.
        let mut rng = 0x1234_5678_9abc_def1_u64;
        for len in 0..=200usize {
            let mut packed = vec![0u8; len.div_ceil(4)];
            for i in 0..len {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                // Long homopolymer stretches too: they make fwd == rc ties likelier.
                let code = if (rng >> 8).is_multiple_of(5) {
                    0
                } else {
                    rng & 3
                } as u8;
                packed[i / 4] |= code << (2 * (i % 4));
            }
            for start in [0u32, 7, 1 << 20] {
                let sm = SupermerView {
                    read_id: 3,
                    start,
                    len,
                    bytes: &packed,
                };
                for k in [1usize, 15, 21, 31, 32] {
                    check::<Kmer1>(&sm, k);
                    check::<Kmer2>(&sm, k);
                }
                for k in [33usize, 55, 63, 64] {
                    check::<Kmer2>(&sm, k);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=32")]
    fn decoding_with_k_beyond_the_kmer_width_panics() {
        let sm = SupermerView {
            read_id: 0,
            start: 0,
            len: 40,
            bytes: &[0u8; 10],
        };
        sm.for_each_canonical_kmer::<Kmer1>(33, |_, _| {});
    }

    #[test]
    fn streamed_writer_is_byte_identical_to_staged_write() {
        // The streamed writer (references into the read + word-level range copy) must
        // put exactly the same bytes on the wire as staging each supermer into a body
        // and sealing the body, as stage 1 does.
        let read = Read::from_ascii(
            9,
            "r9",
            b"ACGTTGCAACGTGGGTTTAAACCCTAGCATACGTACGGTACCATGGTTACGATCGATCGAATTCCGG",
        );
        let k = 15;
        let scorer = MmerScorer::new(7, ScoreFunction::Hash { seed: 3 });
        let supermers = build_supermers(&read, k, &scorer, 4);
        assert!(!supermers.is_empty());

        let mut staged = Vec::new();
        write_supermers(&mut staged, 5, &supermers);

        let mut streamed = Vec::new();
        let mut writer = SupermerBlockWriter::new(&mut streamed, 5, supermers.len() as u32);
        for s in &supermers {
            // The streamed path copies straight out of the source read at the
            // supermer's offset instead of out of a materialised supermer sequence.
            writer.push(s.read_id, s.start, &read.seq, s.start as usize, s.seq.len());
        }
        drop(writer);
        assert_eq!(streamed, staged);
    }

    /// `bases` pseudo-random bases.
    fn random_seq(bases: usize, mut rng: u64) -> DnaSeq {
        let mut seq = DnaSeq::with_capacity(bases);
        for _ in 0..bases {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            seq.push_code((rng & 3) as u8);
        }
        seq
    }

    #[test]
    fn bare_supermers_round_trip_on_both_sides_of_the_length_escape() {
        fn check<K: KmerCode>(k: usize) {
            let seq = random_seq(70_100, 0x9e37_79b9 + k as u64);
            // Around the one-byte limit, and far beyond it; each at an unaligned offset.
            let spans = [
                (3usize, 254usize),
                (70, 255),
                (11, 256),
                (97, 70_000),
                (5, k),
            ];
            let (mut bare, mut tagged) = (Vec::new(), Vec::new());
            for &(offset, len) in &spans {
                let before = bare.len();
                push_supermer(&mut bare, None, &seq, offset, len);
                assert_eq!(bare.len() - before, supermer_wire_len(len, false));
                assert_eq!(
                    supermer_wire_len(len, false),
                    len.div_ceil(4) + if len < 255 { 1 } else { 5 }
                );
                push_supermer(&mut tagged, Some((9, offset as u32)), &seq, offset, len);
            }
            assert_eq!(
                tagged.len(),
                spans.iter().map(|s| supermer_wire_len(s.1, true)).sum()
            );
            let mut buf = Vec::new();
            write_supermer_block(&mut buf, 4, false, 1, &[(0, spans.len() as u64, &bare)]);
            write_supermer_block(&mut buf, 4, true, 1, &[(0, spans.len() as u64, &tagged)]);
            let blocks = read_blocks::<K>(&buf).unwrap();
            let views: Vec<SupermersView<'_>> = (blocks.iter())
                .map(|b| match b.payload {
                    PayloadView::Supermers(view) => view,
                    _ => panic!("wrong payload"),
                })
                .collect();
            assert_eq!(blocks.len(), 2);
            assert!(!views[0].has_provenance() && views[1].has_provenance());
            let kmers: usize = spans.iter().map(|&(_, len)| len + 1 - k).sum();
            for view in &views {
                assert_eq!((view.len(), view.total_kmers(k)), (spans.len(), kmers));
            }
            // Same bases either way, hence the same k-mers — the word-level decode
            // against the rolling oracle — at positions counted from the header's start.
            for ((sm, with), &(offset, len)) in views[0].iter().zip(views[1].iter()).zip(&spans) {
                assert_eq!((sm.read_id, sm.start, sm.len), (0, 0, len));
                assert_eq!(
                    (with.read_id, with.start, with.len),
                    (9, offset as u32, len)
                );
                assert_eq!(sm.packed(), with.packed());
                let mut decoded: Vec<(K, u32)> = Vec::new();
                sm.for_each_canonical_kmer::<K>(k, |km, pos| decoded.push((km, pos)));
                assert_eq!(decoded, rolling_canonical_kmers::<K>(&sm, k), "len {len}");
                let shifted: Vec<(K, u32)> = (rolling_canonical_kmers::<K>(&with, k).iter())
                    .map(|&(km, pos)| (km, pos - offset as u32))
                    .collect();
                assert_eq!(decoded, shifted, "len {len}");
            }
        }
        check::<Kmer1>(31);
        check::<Kmer2>(31);
        check::<Kmer2>(55);
    }

    #[test]
    fn total_kmers_matches_decoded_kmer_count() {
        let read = Read::from_ascii(
            4,
            "r4",
            b"ACGTTGCAACGTGGGTTTAAACCCTAGCATACGTACGGTACCATGGTTACGATCG",
        );
        let k = 13;
        let scorer = MmerScorer::new(5, ScoreFunction::Hash { seed: 2 });
        let supermers = build_supermers(&read, k, &scorer, 4);
        let mut buf = Vec::new();
        write_supermers(&mut buf, 0, &supermers);
        let blocks = read_blocks::<Kmer1>(&buf).unwrap();
        let PayloadView::Supermers(view) = &blocks[0].payload else {
            panic!("wrong payload")
        };
        let mut decoded = 0usize;
        for sm in view.iter() {
            sm.for_each_canonical_kmer::<Kmer1>(k, |_, _| decoded += 1);
        }
        assert!(decoded > 0);
        assert_eq!(view.total_kmers(k), decoded);
    }

    #[test]
    fn kmerlist_blocks_round_trip_for_both_widths() {
        let mut buf = Vec::new();
        let list1: Vec<(Kmer1, u64)> = vec![
            (Kmer1::from_ascii(b"ACGTACGTACGTACG"), 42),
            (Kmer1::from_ascii(b"TTTTTTTTTTTTTTT"), 7),
        ];
        write_kmerlist_block(&mut buf, 11, &list1);
        let blocks = read_blocks_owned::<Kmer1>(&buf).unwrap();
        assert_eq!(blocks[0].payload, Payload::KmerList(list1));

        let mut buf2 = Vec::new();
        let long: Vec<u8> = (0..55).map(|i| b"ACGT"[i % 4]).collect();
        let list2: Vec<(Kmer2, u64)> = vec![(Kmer2::from_ascii(&long), 3)];
        write_kmerlist_block(&mut buf2, 0, &list2);
        let blocks2 = read_blocks_owned::<Kmer2>(&buf2).unwrap();
        assert_eq!(blocks2[0].payload, Payload::KmerList(list2));
    }

    /// Kind byte 2 announced a block of individual k-mer records, a format the wire
    /// no longer has: such a block is an unknown kind even when its seal is valid.
    #[test]
    fn a_sealed_block_of_the_retired_record_kind_is_an_unknown_kind() {
        let mut block = Vec::new();
        push_u32(&mut block, 6);
        block.push(2);
        push_u32(&mut block, 1);
        push_kmer(&mut block, &Kmer1::from_ascii(b"ACGTACGTACGTACGTACGTA"));
        block.push(0);
        seal_block(&mut block, 0);
        assert_eq!(
            read_blocks::<Kmer1>(&block).unwrap_err(),
            WireError::BadKind { kind: 2, offset: 4 }
        );
    }

    #[test]
    fn multiple_blocks_in_one_stream() {
        let mut buf = Vec::new();
        let list: Vec<(Kmer1, u64)> = vec![(Kmer1::from_ascii(b"ACGTT"), 1)];
        write_kmerlist_block(&mut buf, 1, &list);
        let mut body = Vec::new();
        push_supermer(&mut body, None, &DnaSeq::from_ascii(b"GGGAA"), 0, 5);
        write_supermer_block(&mut buf, 2, false, 1, &[(0, 1, &body)]);
        let blocks = read_blocks::<Kmer1>(&buf).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].task, 1);
        assert_eq!(blocks[1].task, 2);
    }

    #[test]
    fn malformed_streams_are_rejected_with_typed_errors() {
        let mut buf = Vec::new();
        write_kmerlist_block(&mut buf, 1, &[(Kmer1::from_ascii(b"ACGTT"), 1)]);
        buf.pop();
        assert!(matches!(
            read_blocks::<Kmer1>(&buf),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            read_blocks::<Kmer1>(&[9, 9, 9]),
            Err(WireError::Truncated { offset: 0 })
        ));
        // Unknown block kind.
        assert_eq!(
            read_blocks::<Kmer1>(&[0, 0, 0, 0, 99]).unwrap_err(),
            WireError::BadKind {
                kind: 99,
                offset: 4
            }
        );
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut buf = Vec::new();
        write_kmerlist_block(&mut buf, 7, &[(Kmer1::from_ascii(b"ACGTACGTACGTACG"), 42)]);
        // Flip one payload bit, well past the header so the structure still parses.
        buf[12] ^= 0x10;
        assert_eq!(
            read_blocks::<Kmer1>(&buf).unwrap_err(),
            WireError::Checksum { task: 7, offset: 0 }
        );
    }

    #[test]
    fn empty_stream_parses_to_no_blocks() {
        assert!(read_blocks::<Kmer1>(&[]).unwrap().is_empty());
        assert!(read_blocks_owned::<Kmer1>(&[]).unwrap().is_empty());
    }

    /// Satellite regression: `read_blocks` must never panic and never return wrong
    /// records, whatever the bytes. Truncations at non-block boundaries and single-bit
    /// flips must surface as typed errors; a truncation at an exact block boundary is a
    /// shorter valid stream and must parse to exactly its prefix blocks.
    #[test]
    fn fuzzed_prefixes_and_bitflips_are_rejected_not_misparsed() {
        let read = Read::from_ascii(
            1,
            "fz",
            b"ACGTTGCAACGTGGGTTTAAACCCTAGCATACGTACGGTACCATGGTTACGATCGATCG",
        );
        let scorer = MmerScorer::new(7, ScoreFunction::Hash { seed: 9 });
        let supermers = build_supermers(&read, 15, &scorer, 8);
        let bare = supermers.clone();

        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        write_supermers(&mut buf, 0, &supermers);
        boundaries.push(buf.len());
        write_kmerlist_block(&mut buf, 1, &[(Kmer1::from_ascii(b"ACGTACGTACGTACG"), 5)]);
        boundaries.push(buf.len());
        // A staged supermer block with provenance, in two parts.
        let mut tagged = [Vec::new(), Vec::new()];
        for (i, s) in bare.iter().enumerate() {
            let from = Some((s.read_id, s.start));
            push_supermer(&mut tagged[i % 2], from, &s.seq, 0, s.seq.len());
        }
        let halves = [bare.len().div_ceil(2), bare.len() / 2].map(|n| n as u64);
        let parts = [
            (0, halves[0], &tagged[0][..]),
            (0, halves[1], &tagged[1][..]),
        ];
        write_supermer_block(&mut buf, 2, true, 1, &parts);
        boundaries.push(buf.len());
        // A bare supermer block: short supermers and one behind the length escape.
        let long = random_seq(300, 77);
        let mut body = Vec::new();
        push_supermer(&mut body, None, &long, 0, 300);
        for s in &bare {
            push_supermer(&mut body, None, &s.seq, 0, s.seq.len());
        }
        write_supermer_block(&mut buf, 3, false, 1, &[(0, 1 + bare.len() as u64, &body)]);
        boundaries.push(buf.len());
        // Sectioned blocks, bare and with provenance: the supermers dealt over four
        // sections, the third left empty, each section staged in two parts (the second
        // one empty where a section holds one supermer).
        let dealt = |i: usize| [0, 1, 3][i % 3];
        for (task, provenance) in [(4u32, false), (5, true)] {
            let mut staged = vec![[(0u64, Vec::new()), (0, Vec::new())]; 4];
            for (i, s) in bare.iter().enumerate() {
                let (n, body) = &mut staged[dealt(i)][usize::from(i >= bare.len() / 2)];
                let from = provenance.then_some((s.read_id, s.start));
                push_supermer(body, from, &s.seq, 0, s.seq.len());
                *n += 1;
            }
            let parts: Vec<(u32, u64, &[u8])> = (staged.iter().enumerate())
                .flat_map(|(section, parts)| {
                    (parts.iter()).map(move |(n, body)| (section as u32, *n, &body[..]))
                })
                .collect();
            write_supermer_block(&mut buf, task, provenance, 4, &parts);
            boundaries.push(buf.len());
        }
        let full = read_blocks_owned::<Kmer1>(&buf).unwrap();
        assert_eq!(full.len(), 6);
        match &full[3].payload {
            Payload::Supermers(parsed) => {
                assert_eq!(parsed.len(), 1 + bare.len());
                assert_eq!(parsed[0].seq, long);
                assert!(parsed[1..].iter().zip(&bare).all(|(a, b)| a.seq == b.seq));
            }
            other => panic!("wrong payload {other:?}"),
        }
        for (block, provenance) in read_blocks::<Kmer1>(&buf).unwrap()[4..]
            .iter()
            .zip([false, true])
        {
            let PayloadView::Supermers(view) = &block.payload else {
                panic!("wrong payload")
            };
            assert_eq!((view.len(), view.section_count()), (bare.len(), 4));
            assert_eq!(view.has_provenance(), provenance);
            // Section by section, each holds exactly what was dealt to it, in order.
            for (section, part) in view.sections().enumerate() {
                assert_eq!(part.section_count(), 1);
                let expected: Vec<&Supermer> = (bare.iter().enumerate())
                    .filter(|&(i, _)| dealt(i) == section)
                    .map(|(_, s)| s)
                    .collect();
                assert_eq!(part.len(), expected.len(), "section {section}");
                for (got, want) in part.iter().zip(expected) {
                    assert_eq!(got.to_supermer(0).seq, want.seq);
                    let from = if provenance {
                        (want.read_id, want.start)
                    } else {
                        (0, 0)
                    };
                    assert_eq!((got.read_id, got.start), from);
                }
            }
            // The whole block reads as the sections back to back.
            assert_eq!(view.iter().count(), bare.len());
            assert_eq!(
                view.total_kmers(15),
                view.sections()
                    .map(|part| part.total_kmers(15))
                    .sum::<usize>()
            );
        }

        // Every prefix: parses to exactly its boundary blocks, or errors — no panics,
        // no invented records.
        for cut in 0..buf.len() {
            // A typed rejection is the expected outcome for almost every cut.
            if let Ok(blocks) = read_blocks_owned::<Kmer1>(&buf[..cut]) {
                let boundary = boundaries.iter().position(|&b| b == cut);
                let n = boundary.unwrap_or_else(|| {
                    panic!("prefix of {cut} bytes parsed but is not a block boundary")
                });
                assert_eq!(blocks, full[..n], "prefix of {cut} bytes decoded wrongly");
            }
        }

        // Every single-bit flip lands inside some block, so the checksum (or a
        // structural check) must catch it.
        let mut rng = 0x5eed_f00d_u64;
        for _ in 0..600 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let bit = (rng as usize) % (buf.len() * 8);
            let mut flipped = buf.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                read_blocks_owned::<Kmer1>(&flipped).is_err(),
                "bit flip at {bit} went undetected"
            );
        }

        // Lengths a bare block claims are walked, never allocated from: a supermer
        // count, an escaped length and a short length beyond the buffer are all
        // truncations, whatever follows.
        let bare_block = |count: u32, body: &[u8]| {
            let mut block = Vec::new();
            write_supermer_block(&mut block, 0, false, 1, &[(0, u64::from(count), body)]);
            block
        };
        let mut hostile_long = vec![LONG_SUPERMER];
        hostile_long.extend_from_slice(&u32::MAX.to_le_bytes());
        for block in [
            bare_block(u32::MAX, &body),
            bare_block(1, &hostile_long),
            bare_block(1, &[254, 0, 0]),
            bare_block(1, &[LONG_SUPERMER, 1]),
        ] {
            assert!(matches!(
                read_blocks::<Kmer1>(&block),
                Err(WireError::Truncated { .. })
            ));
        }

        // So are the section count and the entries of a directory: a count beyond
        // `MAX_SECTIONS` is refused before anything is read, entries are checked against
        // the supermers they hold and against the buffer, and a checksum that matches
        // does not make a hostile directory acceptable.
        let mut two = Vec::new();
        push_supermer(&mut two, None, &long, 0, 20);
        push_supermer(&mut two, None, &long, 7, 20);
        assert_eq!(two.len(), 12);
        let sectioned = |sections: u32, entries: &[(u32, u32)], count: u32, body: &[u8]| {
            let mut block = Vec::new();
            push_u32(&mut block, 0);
            block.push(KIND_SECTIONED_BARE_SUPERMERS);
            push_u32(&mut block, count);
            push_u32(&mut block, sections);
            for &(n, bytes) in entries {
                push_u32(&mut block, n);
                push_u32(&mut block, bytes);
            }
            block.extend_from_slice(body);
            seal_block(&mut block, 0);
            block
        };
        // The honest block parses; the section count sits at byte 9, the entries at 13.
        let honest = sectioned(2, &[(1, 6), (1, 6)], 2, &two);
        assert_eq!(read_blocks::<Kmer1>(&honest).unwrap().len(), 1);
        for (block, error) in [
            (
                sectioned(u32::MAX, &[], 2, &two),
                WireError::BadDirectory { offset: 9 },
            ),
            (
                sectioned(0, &[], 0, &[]),
                WireError::BadDirectory { offset: 9 },
            ),
            (
                sectioned(1, &[(2, 12)], 2, &two),
                WireError::BadDirectory { offset: 9 },
            ),
            (
                sectioned(MAX_SECTIONS + 1, &[(2, 12)], 2, &two),
                WireError::BadDirectory { offset: 9 },
            ),
            // Counts that do not sum to the block's.
            (
                sectioned(2, &[(1, 6), (1, 6)], 3, &two),
                WireError::BadDirectory { offset: 9 },
            ),
            // A section whose supermers end before or after its byte range does.
            (
                sectioned(2, &[(0, 6), (2, 6)], 2, &two),
                WireError::BadDirectory { offset: 13 },
            ),
            (
                sectioned(2, &[(1, 6), (1, 7)], 2, &two),
                WireError::BadDirectory { offset: 21 },
            ),
            // Byte ranges past the end of the stream, and a directory longer than it.
            (
                sectioned(2, &[(1, 6), (1, u32::MAX)], 2, &two),
                WireError::Truncated { offset: 35 },
            ),
            (
                sectioned(2, &[(1, 6), (u32::MAX, 6)], 2, &two),
                WireError::Truncated { offset: 41 },
            ),
            (
                sectioned(MAX_SECTIONS, &[(1, 6), (1, 6)], 2, &two),
                WireError::Truncated { offset: 13 },
            ),
        ] {
            assert_eq!(read_blocks::<Kmer1>(&block).unwrap_err(), error);
        }
    }

    /// Blocks of one section are the unsectioned format, byte for byte: what the
    /// streamed writer puts on the wire.
    #[test]
    fn a_one_section_block_is_the_unsectioned_block() {
        let seq = random_seq(400, 11);
        let mut body = Vec::new();
        let spans = [(0usize, 40usize), (33, 300), (390, 10)];
        for &(offset, len) in &spans {
            push_supermer(&mut body, Some((2, offset as u32)), &seq, offset, len);
        }
        let mut staged = Vec::new();
        write_supermer_block(&mut staged, 9, true, 1, &[(0, spans.len() as u64, &body)]);
        let mut streamed = Vec::new();
        let mut writer = SupermerBlockWriter::new(&mut streamed, 9, spans.len() as u32);
        for &(offset, len) in &spans {
            writer.push(2, offset as u32, &seq, offset, len);
        }
        drop(writer);
        assert_eq!(staged, streamed);
        let blocks = read_blocks::<Kmer1>(&staged).unwrap();
        let PayloadView::Supermers(view) = &blocks[0].payload else {
            panic!("wrong payload")
        };
        assert_eq!(view.section_count(), 1);
        assert_eq!(view.sections().count(), 1);
    }
}
