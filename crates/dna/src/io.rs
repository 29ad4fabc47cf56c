//! Chunked, rank-sharded FASTA/FASTQ ingestion.
//!
//! The [`fasta`](crate::fasta) module keeps the original whole-file, line-by-line
//! reader as the in-memory reference entry point (including its map-unknown-bases-to-`A`
//! policy). This module is the *streaming* input path the pipeline actually ingests real
//! files through:
//!
//! * **Chunked reading** — files are read in fixed-size byte blocks into one reusable
//!   buffer ([`IngestOptions::block_bytes`]); the whole file is never materialised.
//!   Memory is bounded by one block plus the longest input line, not by the file size.
//! * **FASTA and FASTQ** — multi-line FASTA records and 4-line FASTQ records (the
//!   overwhelmingly common single-line-sequence form) both parse into packed
//!   fragments ([`Fragments`], or [`Read`]s with names); the format is detected per
//!   file from the extension, falling back to the first byte.
//! * **Byte ranges** — a [`RangeReader`] reads the records of one byte range of the
//!   input (over the concatenation of all files), realigned forward to the next record
//!   start: a record whose first byte falls in the range belongs to it even when its
//!   bases extend past the boundary. [`ShardReader`] gives each simulated rank its
//!   range ([`shard_byte_ranges`]), so `p` ranks each stream ~`1/p` of the bytes and
//!   every record is parsed by exactly one rank; the pipeline cuts a rank's range
//!   further, into one piece per thread and window.
//! * **Ambiguous bases split reads** — runs of non-`ACGT` characters (`N`, IUPAC
//!   codes, …) cut the read into fragments instead of being silently mapped to `A`:
//!   no k-mer spanning an ambiguous base is ever fabricated, matching what real
//!   counters do. Fragments shorter than [`IngestOptions::min_fragment`] are dropped
//!   (they cannot contain a k-mer when `min_fragment = k`).

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read as _, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::readset::{Read, ReadSet};
use crate::sequence::DnaSeq;

/// Supported on-disk sequence formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqFormat {
    /// `>header` records with one or more sequence lines.
    Fasta,
    /// `@header` / sequence / `+` / quality 4-line records.
    Fastq,
}

impl SeqFormat {
    /// Detect the format from a file extension (`.fa`, `.fasta`, `.fna` → FASTA;
    /// `.fq`, `.fastq` → FASTQ).
    pub fn from_extension(path: &Path) -> Option<SeqFormat> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        match ext.as_str() {
            "fa" | "fasta" | "fna" | "ffn" | "frn" => Some(SeqFormat::Fasta),
            "fq" | "fastq" => Some(SeqFormat::Fastq),
            _ => None,
        }
    }

    /// Detect the format from the first byte of the file (`>` → FASTA, `@` → FASTQ).
    pub fn from_leading_byte(byte: u8) -> Option<SeqFormat> {
        match byte {
            b'>' => Some(SeqFormat::Fasta),
            b'@' => Some(SeqFormat::Fastq),
            _ => None,
        }
    }
}

/// Tunables of the streaming readers.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Bytes read from disk per refill of the reusable block buffer — in the pipeline,
    /// the bytes one thread reads per window (a window is `threads × block_bytes`, and
    /// at least a mebibyte).
    pub block_bytes: usize,
    /// Reads per batch yielded by [`ShardReader::next_batch`]; nothing else reads it.
    pub batch_records: usize,
    /// Fragments (after splitting at ambiguous-base runs) shorter than this are
    /// dropped. The pipeline sets it to `k`; shorter fragments contain no k-mer.
    pub min_fragment: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            block_bytes: 1 << 20,
            batch_records: 1_024,
            min_fragment: 1,
        }
    }
}

/// One input file with its size and detected format — the unit the shard math works on.
#[derive(Debug, Clone)]
pub struct InputFile {
    /// Path on disk.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Detected format.
    pub format: SeqFormat,
}

/// Stat and format-detect a list of input paths (order preserved — the shard byte
/// space is the concatenation of the files in this order).
pub fn list_inputs<P: AsRef<Path>>(paths: &[P]) -> io::Result<Vec<InputFile>> {
    let mut out = Vec::with_capacity(paths.len());
    for p in paths {
        let path = p.as_ref().to_path_buf();
        let bytes = std::fs::metadata(&path)?.len();
        let format = match SeqFormat::from_extension(&path) {
            Some(f) => f,
            None => {
                let mut first = [0u8; 1];
                let n = File::open(&path)?.read(&mut first)?;
                (n == 1)
                    .then(|| SeqFormat::from_leading_byte(first[0]))
                    .flatten()
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("{}: cannot detect FASTA/FASTQ format", path.display()),
                        )
                    })?
            }
        };
        out.push(InputFile {
            path,
            bytes,
            format,
        });
    }
    Ok(out)
}

/// Split `total` bytes into `ranks` contiguous half-open ranges of near-equal size.
/// Records are owned by the range containing their first byte, so equal *byte* shares
/// translate into near-equal record shares for any realistic record-length mix.
pub fn shard_byte_ranges(total: u64, ranks: usize) -> Vec<(u64, u64)> {
    assert!(ranks > 0);
    (0..ranks as u64)
        .map(|r| (total * r / ranks as u64, total * (r + 1) / ranks as u64))
        .collect()
}

// ---------------------------------------------------------------------------------------
// Chunked line scanning
// ---------------------------------------------------------------------------------------

/// Bytes a refill reads once the scanner is past the end of its range: enough for the
/// record that straddles the end and the realignment look-ahead on most inputs, so a
/// range's reader does not read a whole block past it.
const TAIL_BYTES: u64 = 8 << 10;

/// A line scanner that reads its source in fixed-size blocks into one reusable buffer.
///
/// The buffer holds at most one block plus the carry of a line spanning a block edge,
/// so memory stays bounded by `block + longest line` regardless of file size.
struct BlockLines<R> {
    src: R,
    buf: Vec<u8>,
    start: usize,
    block: usize,
    eof: bool,
    /// Byte offset (within the file) of `buf[start]`.
    pos: u64,
    /// Byte offset (within the file) of the end of the scanner's range: refills stop
    /// there, and past it read at most [`TAIL_BYTES`].
    stop: u64,
    /// Bytes past `start` already scanned and known to hold no `\n` — the newline
    /// search resumes here after a refill, so a line spanning many blocks costs
    /// O(length) total instead of rescanning the growing carry per block
    /// (O(length²/block) on unwrapped single-line FASTA).
    searched: usize,
}

impl<R: io::Read> BlockLines<R> {
    /// A scanner over `src`, whose first byte is at offset `pos`.
    fn new(src: R, block: usize, pos: u64) -> Self {
        BlockLines {
            src,
            buf: Vec::new(),
            start: 0,
            block: block.max(16),
            eof: false,
            pos,
            stop: u64::MAX,
            searched: 0,
        }
    }

    /// This scanner with its range ending at offset `stop`, reading into `buf` (emptied
    /// first; its allocation is reused).
    fn ending_at(mut self, stop: u64, mut buf: Vec<u8>) -> Self {
        buf.clear();
        self.buf = buf;
        self.stop = stop;
        self
    }

    /// Current capacity of the internal buffer (test hook for the memory bound).
    fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Read the next line into `out` (cleared first; no `\n`, trailing `\r` trimmed).
    /// Returns the byte offset of the line start, or `None` at end of input.
    fn read_line_into(&mut self, out: &mut Vec<u8>) -> io::Result<Option<u64>> {
        loop {
            if let Some(i) = find_newline(&self.buf[self.start + self.searched..]) {
                let i = self.searched + i;
                let line = &self.buf[self.start..self.start + i];
                let off = self.pos;
                out.clear();
                out.extend_from_slice(trim_cr(line));
                self.start += i + 1;
                self.pos += (i + 1) as u64;
                self.searched = 0;
                return Ok(Some(off));
            }
            self.searched = self.buf.len() - self.start;
            if self.eof {
                if self.start < self.buf.len() {
                    let off = self.pos;
                    out.clear();
                    out.extend_from_slice(trim_cr(&self.buf[self.start..]));
                    self.pos += (self.buf.len() - self.start) as u64;
                    self.start = self.buf.len();
                    self.searched = 0;
                    return Ok(Some(off));
                }
                return Ok(None);
            }
            // Compact the unconsumed carry to the front and refill one block — up to
            // the range's end, a short tail past it. An interrupted read is retried in
            // place, as `Read::read_exact` does.
            self.buf.drain(..self.start);
            self.start = 0;
            let old = self.buf.len();
            let to_stop = self.stop.saturating_sub(self.pos + old as u64);
            let want = (self.block as u64).min(to_stop.max(TAIL_BYTES)) as usize;
            self.buf.resize(old + want, 0);
            let mut filled = 0usize;
            let refill = loop {
                if filled == want {
                    break Ok(());
                }
                match self.src.read(&mut self.buf[old + filled..]) {
                    Ok(0) => {
                        self.eof = true;
                        break Ok(());
                    }
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(e),
                }
            };
            // Only the bytes actually read stay: a failed read leaves no zeros behind.
            self.buf.truncate(old + filled);
            refill?;
        }
    }
}

/// The index of the first `\n` in `bytes`, eight bytes per step: a word's bytes that
/// equal `\n` are the zero bytes of `word ^ 0x0a…0a`, and the lowest one is where the
/// word's first borrow lands.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(8 * i + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b == b'\n')?;
    Some(bytes.len() - tail.len() + at)
}

fn trim_cr(line: &[u8]) -> &[u8] {
    match line.last() {
        Some(b'\r') => &line[..line.len() - 1],
        _ => line,
    }
}

// ---------------------------------------------------------------------------------------
// Per-file piece parsing
// ---------------------------------------------------------------------------------------

/// One file's slice of a byte range: records starting in `[start, end)` of `file` belong
/// to this piece (the last record may extend past `end`). `base` is the file's offset in
/// the concatenated input.
#[derive(Debug, Clone)]
struct Piece {
    path: PathBuf,
    format: SeqFormat,
    base: u64,
    start: u64,
    end: u64,
}

/// The pieces of the concatenated input's byte range `range`: one per file it touches,
/// in input order. Records never span files, and a record belongs to the piece that
/// holds its first byte.
fn pieces_of(files: &[InputFile], range: Range<u64>) -> Vec<Piece> {
    let mut pieces = Vec::new();
    let mut offset = 0u64;
    for f in files {
        let (file_start, file_end) = (offset, offset + f.bytes);
        offset = file_end;
        let lo = range.start.max(file_start);
        let hi = range.end.min(file_end);
        if lo >= hi {
            continue;
        }
        pieces.push(Piece {
            path: f.path.clone(),
            format: f.format,
            base: file_start,
            start: lo - file_start,
            end: hi - file_start,
        });
    }
    pieces
}

/// Streaming parser over one [`Piece`].
struct PieceParser {
    lines: BlockLines<File>,
    format: SeqFormat,
    end: u64,
    /// Look-ahead lines buffered during record-boundary realignment, in input order.
    pending: VecDeque<(u64, Vec<u8>)>,
    /// Reusable line buffer.
    line: Vec<u8>,
    /// The header line of the record parsed last.
    header: Vec<u8>,
    /// FASTA: the header line of the next record, read at the end of the previous one,
    /// while `has_next` says there is one.
    next_header: Vec<u8>,
    has_next: bool,
    /// Where the parser stopped: the offset of the first line at or past `end` that it
    /// looked at, or the end of the file.
    reached: u64,
    done: bool,
}

impl PieceParser {
    fn open(piece: &Piece, block: usize, buf: Vec<u8>) -> io::Result<Self> {
        let mut file = File::open(&piece.path)?;
        // Realign to a line boundary: seek one byte *before* the piece start so a
        // record beginning exactly at `start` is still seen as a line start (its
        // preceding byte is the `\n` the skipped partial line ends with).
        let seek = piece.start.saturating_sub(1);
        if seek > 0 {
            file.seek(SeekFrom::Start(seek))?;
        }
        let mut parser = PieceParser {
            lines: BlockLines::new(file, block, seek).ending_at(piece.end, buf),
            format: piece.format,
            end: piece.end,
            pending: VecDeque::new(),
            line: Vec::new(),
            header: Vec::new(),
            next_header: Vec::new(),
            has_next: false,
            reached: piece.end,
            done: false,
        };
        if piece.start > 0 {
            // Discard the partial line the seek landed in (empty when `start - 1`
            // held the newline).
            let mut skip = Vec::new();
            if parser.lines.read_line_into(&mut skip)?.is_none() {
                parser.stop_at_eof();
                return Ok(parser);
            }
        }
        match piece.format {
            SeqFormat::Fasta => parser.align_fasta()?,
            SeqFormat::Fastq => parser.align_fastq()?,
        }
        Ok(parser)
    }

    /// The parser stops at a line that starts at `off`, at or past its end.
    fn stop_at(&mut self, off: u64) {
        self.done = true;
        self.reached = self.reached.max(off);
    }

    /// The parser stops at the end of the file.
    fn stop_at_eof(&mut self) {
        let eof = self.lines.pos;
        self.stop_at(eof);
    }

    fn next_line(&mut self) -> io::Result<Option<u64>> {
        if let Some((off, bytes)) = self.pending.pop_front() {
            self.line = bytes;
            return Ok(Some(off));
        }
        let mut line = std::mem::take(&mut self.line);
        let off = self.lines.read_line_into(&mut line)?;
        self.line = line;
        Ok(off)
    }

    /// Scan forward to the first FASTA header owned by this piece.
    fn align_fasta(&mut self) -> io::Result<()> {
        loop {
            let Some(off) = self.next_line()? else {
                self.stop_at_eof();
                return Ok(());
            };
            // Offsets only grow, so once a line starts at or past the piece end no
            // owned record can follow — stop instead of streaming the rest of the file
            // (a piece inside one huge record would otherwise scan to EOF).
            if off >= self.end {
                self.stop_at(off);
                return Ok(());
            }
            if self.line.first() == Some(&b'>') {
                self.next_header.clone_from(&self.line);
                self.has_next = true;
                return Ok(());
            }
            // Sequence (or blank) line of a record started before the piece — skip.
        }
    }

    /// Scan forward to the first FASTQ record header owned by this piece. `@` is
    /// ambiguous (it is a legal quality character, including at line starts), so a
    /// line only counts as a header when the line two below starts with `+` — a
    /// sequence line never can.
    fn align_fastq(&mut self) -> io::Result<()> {
        let mut window: VecDeque<(u64, Vec<u8>)> = VecDeque::new();
        loop {
            while window.len() < 3 {
                match self.next_line()? {
                    None => {
                        self.stop_at_eof();
                        return Ok(());
                    }
                    Some(off) => window.push_back((off, self.line.clone())),
                }
            }
            // Same early exit as the FASTA alignment: a candidate at or past the
            // piece end cannot be owned, and offsets only grow.
            if window[0].0 >= self.end {
                self.stop_at(window[0].0);
                return Ok(());
            }
            let is_record_start =
                window[0].1.first() == Some(&b'@') && window[2].1.first() == Some(&b'+');
            if is_record_start {
                // Replay the buffered lines through the parser.
                self.pending = window;
                return Ok(());
            }
            window.pop_front();
        }
    }

    /// Parse the next record's fragments (0 or more after ambiguous-base splitting)
    /// into `out`. Returns `false` once the piece is exhausted.
    fn next_record(&mut self, out: &mut Fragments, min_fragment: usize) -> io::Result<bool> {
        if self.done {
            return Ok(false);
        }
        match self.format {
            SeqFormat::Fasta => self.next_fasta_record(out, min_fragment),
            SeqFormat::Fastq => self.next_fastq_record(out, min_fragment),
        }
    }

    fn next_fasta_record(&mut self, out: &mut Fragments, min_fragment: usize) -> io::Result<bool> {
        if !self.has_next {
            self.done = true;
            return Ok(false);
        }
        std::mem::swap(&mut self.header, &mut self.next_header);
        self.has_next = false;
        let mut splitter = FragmentSplitter::new(out, min_fragment);
        loop {
            let Some(off) = self.next_line()? else {
                self.stop_at_eof();
                break;
            };
            if self.line.first() == Some(&b'>') {
                if off >= self.end {
                    self.stop_at(off);
                } else {
                    self.next_header.clone_from(&self.line);
                    self.has_next = true;
                }
                break;
            }
            splitter.push_ascii(&self.line);
        }
        splitter.finish();
        Ok(true)
    }

    fn next_fastq_record(&mut self, out: &mut Fragments, min_fragment: usize) -> io::Result<bool> {
        let Some(off) = self.next_line()? else {
            self.stop_at_eof();
            return Ok(false);
        };
        if off >= self.end {
            self.stop_at(off);
            return Ok(false);
        }
        if self.line.first() != Some(&b'@') {
            return Err(malformed("expected '@' record header", off));
        }
        self.header.clone_from(&self.line);
        let seq_off = self
            .next_line()?
            .ok_or_else(|| malformed("truncated record: missing sequence", off))?;
        let mut splitter = FragmentSplitter::new(out, min_fragment);
        splitter.push_ascii(&self.line);
        let seq_len: usize = splitter.pushed_bases;
        let plus_off = self
            .next_line()?
            .ok_or_else(|| malformed("truncated record: missing '+' separator", seq_off))?;
        if self.line.first() != Some(&b'+') {
            return Err(malformed("expected '+' separator", plus_off));
        }
        let qual_off = self
            .next_line()?
            .ok_or_else(|| malformed("truncated record: missing quality line", plus_off))?;
        if self.line.len() != seq_len {
            return Err(malformed(
                &format!(
                    "quality length {} does not match sequence length {}",
                    self.line.len(),
                    seq_len
                ),
                qual_off,
            ));
        }
        splitter.finish();
        Ok(true)
    }
}

/// A malformed record at byte `offset` of the piece's file. The message does not name
/// the file: [`RangeReader::path`] does.
fn malformed(what: &str, offset: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{what} at byte {offset}"),
    )
}

/// Extract the record name from a `>`/`@` header line.
fn header_name(line: &[u8]) -> String {
    String::from_utf8_lossy(&line[1..]).trim().to_string()
}

/// Packed fragments, appended record after record, in one reusable list: clearing it
/// keeps every fragment's allocation for the next fill.
#[derive(Debug, Default)]
pub struct Fragments {
    /// `seqs[..len]` are the fragments; `seqs[len]`, when it exists, is the one being
    /// filled.
    seqs: Vec<DnaSeq>,
    len: usize,
}

impl Fragments {
    /// Drop every fragment, keeping the allocations.
    pub fn clear(&mut self) {
        self.len = 0;
        if let Some(open) = self.seqs.first_mut() {
            open.clear();
        }
    }

    /// The fragments, in input order.
    pub fn as_slice(&self) -> &[DnaSeq] {
        &self.seqs[..self.len]
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the list holds no fragment.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fragment being filled.
    fn open(&mut self) -> &mut DnaSeq {
        if self.seqs.len() == self.len {
            self.seqs.push(DnaSeq::new());
        }
        &mut self.seqs[self.len]
    }

    /// End the fragment being filled: keep it when it holds at least `min` bases.
    fn cut(&mut self, min: usize) {
        let open = self.open();
        if open.len() >= min {
            self.len += 1;
            if let Some(next) = self.seqs.get_mut(self.len) {
                next.clear();
            }
        } else {
            open.clear();
        }
    }
}

/// Accumulates one record's sequence characters into a [`Fragments`] list, cutting a new
/// fragment at every run of non-`ACGT` characters.
struct FragmentSplitter<'a> {
    out: &'a mut Fragments,
    min_fragment: usize,
    /// Total ASCII bases pushed (including ambiguous ones) — the FASTQ parser checks
    /// the quality line against this.
    pushed_bases: usize,
}

impl<'a> FragmentSplitter<'a> {
    fn new(out: &'a mut Fragments, min_fragment: usize) -> Self {
        FragmentSplitter {
            out,
            min_fragment: min_fragment.max(1),
            pushed_bases: 0,
        }
    }

    fn push_ascii(&mut self, line: &[u8]) {
        self.pushed_bases += line.len();
        // SIMD scan for the next ambiguous character, bulk-append the clean run
        // through the packed 32-base kernel, cut, skip the ambiguous byte, repeat —
        // equivalent to the per-character `Base::from_ascii` match, which remains the
        // reference the ingestion property tests compare against.
        let mut rest = line;
        loop {
            let clean = crate::simd::first_non_acgt(rest);
            if clean > 0 {
                self.out.open().extend_from_ascii(&rest[..clean]);
            }
            if clean == rest.len() {
                break;
            }
            self.out.cut(self.min_fragment);
            rest = &rest[clean + 1..];
        }
    }

    fn finish(self) {
        self.out.cut(self.min_fragment);
    }
}

// ---------------------------------------------------------------------------------------
// Range and shard readers
// ---------------------------------------------------------------------------------------

/// Reads the records whose first byte lies in one byte range of a multi-file input (the
/// concatenation of the files, in order), record by record, as packed fragments.
///
/// Files are opened one at a time, as the range reaches them, and read in blocks of
/// [`IngestOptions::block_bytes`] through one buffer, which the caller may hand in and
/// take back to reuse across ranges. A record that starts in the range is read to its
/// end, past the range if it must; records that start before it are skipped by the same
/// realignment that splits an input across ranks.
pub struct RangeReader {
    pieces: Vec<Piece>,
    next_piece: usize,
    current: Option<PieceParser>,
    block_bytes: usize,
    min_fragment: usize,
    /// The block buffer while no piece is open.
    buf: Vec<u8>,
    /// Furthest offset of the input the finished pieces stopped at.
    reached: u64,
    /// Largest block-buffer capacity observed across pieces (test/diagnostic hook).
    peak_buffer: usize,
    /// Furthest any piece scanned past its byte range (test/diagnostic hook) —
    /// bounded by the piece's final owned record, not by the file tail.
    scan_past_end: u64,
}

impl RangeReader {
    /// A reader of the records of `files` that start in `range`, reading through `buf`
    /// (its contents are discarded; its allocation is reused).
    pub fn new(files: &[InputFile], range: Range<u64>, opts: &IngestOptions, buf: Vec<u8>) -> Self {
        RangeReader {
            reached: range.end,
            pieces: pieces_of(files, range),
            next_piece: 0,
            current: None,
            block_bytes: opts.block_bytes,
            min_fragment: opts.min_fragment,
            buf,
            peak_buffer: 0,
            scan_past_end: 0,
        }
    }

    /// Append the next record's fragments to `out` — none when the record is shorter
    /// than [`IngestOptions::min_fragment`] between its ambiguous bases. Returns `false`
    /// once the range is exhausted.
    ///
    /// An error ends the range: the caller reports it ([`RangeReader::path`] names the
    /// file) and asks for no further record. An interrupted read (`EINTR`) is no error;
    /// the block reader retries it in place.
    pub fn next_record(&mut self, out: &mut Fragments) -> io::Result<bool> {
        loop {
            if self.current.is_none() {
                let Some(piece) = self.pieces.get(self.next_piece) else {
                    return Ok(false);
                };
                self.next_piece += 1;
                let buf = std::mem::take(&mut self.buf);
                self.current = Some(PieceParser::open(piece, self.block_bytes, buf)?);
            }
            let parser = self.current.as_mut().expect("parser just installed");
            if parser.next_record(out, self.min_fragment)? {
                return Ok(true);
            }
            let parser = self.current.take().expect("parser just used");
            let base = self.pieces[self.next_piece - 1].base;
            self.reached = self.reached.max(base + parser.reached);
            self.peak_buffer = self.peak_buffer.max(parser.lines.buffer_capacity());
            self.scan_past_end = self
                .scan_past_end
                .max(parser.lines.pos.saturating_sub(parser.end));
            self.buf = parser.lines.buf;
        }
    }

    /// The file of the piece being read — after an error from
    /// [`next_record`](Self::next_record), the file that failed. `None` before the
    /// first piece is opened.
    pub fn path(&self) -> Option<&Path> {
        let piece = self.pieces.get(self.next_piece.checked_sub(1)?)?;
        Some(&piece.path)
    }

    /// Once [`next_record`](Self::next_record) has returned `false`: the offset of the
    /// input where reading stopped, at or past the range's end — the end of the last
    /// record read, or further when the range ends inside a record that started before
    /// it. No record starts between the range's end and this offset.
    pub fn reached(&self) -> u64 {
        self.reached
    }

    /// The block buffer, for the next reader to reuse.
    pub fn into_buffer(self) -> Vec<u8> {
        match self.current {
            Some(parser) => parser.lines.buf,
            None => self.buf,
        }
    }

    /// The name of the record read last.
    fn record_name(&self) -> String {
        let parser = self.current.as_ref().expect("a record was just read");
        header_name(&parser.header)
    }
}

/// Streams one rank's shard of a multi-file input as batches of packed [`Read`]s.
///
/// The shard is the rank's byte range of the concatenated input (see
/// [`shard_byte_ranges`]), read by a [`RangeReader`]. `next_batch` yields at most
/// [`IngestOptions::batch_records`] reads at a time (plus the final record's extra
/// fragments, if it split at ambiguous bases), so peak ingestion memory is one block
/// buffer plus one batch of packed reads.
pub struct ShardReader {
    reader: RangeReader,
    batch_records: usize,
    fragments: Fragments,
}

impl ShardReader {
    /// Open rank `rank` of `ranks`'s shard over `files`.
    pub fn open(
        files: &[InputFile],
        rank: usize,
        ranks: usize,
        opts: IngestOptions,
    ) -> io::Result<Self> {
        assert!(rank < ranks, "rank {rank} out of range for {ranks} ranks");
        let total: u64 = files.iter().map(|f| f.bytes).sum();
        let (start, end) = shard_byte_ranges(total, ranks)[rank];
        Ok(ShardReader {
            reader: RangeReader::new(files, start..end, &opts, Vec::new()),
            batch_records: opts.batch_records,
            fragments: Fragments::default(),
        })
    }

    /// The next batch of reads (ids are all 0 — the consumer assigns them), or `None`
    /// once the shard is exhausted. A batch holds at most
    /// [`IngestOptions::batch_records`] reads, plus however many extra fragments the
    /// final record splits into at its ambiguous-base runs.
    ///
    /// An error ends the shard: the reads of the unfinished batch are gone, so the
    /// caller reports the error and asks for no further batch. An interrupted read
    /// (`EINTR`) is no error; the block reader retries it in place.
    pub fn next_batch(&mut self) -> io::Result<Option<Vec<Read>>> {
        let mut batch = Vec::new();
        let limit = self.batch_records.max(1);
        let mut exhausted = false;
        while batch.len() < limit {
            self.fragments.clear();
            if !self.reader.next_record(&mut self.fragments)? {
                exhausted = true;
                break;
            }
            let name = self.reader.record_name();
            let fragments = &mut self.fragments.seqs[..self.fragments.len];
            batch.extend(fragments.iter_mut().map(|seq| Read {
                id: 0, // assigned by the consumer
                name: name.clone(),
                seq: std::mem::take(seq),
            }));
        }
        if batch.is_empty() && exhausted {
            return Ok(None);
        }
        Ok(Some(batch))
    }

    /// The file of the piece being read — after an error from
    /// [`next_batch`](Self::next_batch), the file that failed. `None` before the first
    /// piece is opened.
    pub fn path(&self) -> Option<&Path> {
        self.reader.path()
    }

    /// Furthest any completed piece read past its assigned byte range. Bounded by the
    /// piece's final owned record (which may legitimately extend past the boundary)
    /// plus one line of realignment look-ahead — never by the file tail: alignment
    /// stops as soon as line offsets reach the range end.
    pub fn max_scan_past_end(&self) -> u64 {
        self.reader.scan_past_end
    }

    /// Largest internal block-buffer capacity seen so far — bounded by twice
    /// `block_bytes + longest input line` (the carry grows by doubling), independent of
    /// file size.
    pub fn peak_buffer_bytes(&self) -> usize {
        let current = (self.reader.current.as_ref())
            .map_or(self.reader.buf.capacity(), |p| p.lines.buffer_capacity());
        self.reader.peak_buffer.max(current)
    }
}

/// Read entire files through the streaming readers into a [`ReadSet`] (single shard).
/// Read ids are dense in input order. A read error names the file that failed.
pub fn read_paths<P: AsRef<Path>>(paths: &[P], opts: IngestOptions) -> io::Result<ReadSet> {
    let files = list_inputs(paths)?;
    let mut shard = ShardReader::open(&files, 0, 1, opts)?;
    let mut rs = ReadSet::new();
    loop {
        match shard.next_batch() {
            Ok(Some(batch)) => batch.into_iter().for_each(|read| rs.push(read)),
            Ok(None) => return Ok(rs),
            Err(e) => {
                let path = shard.path().map(Path::display);
                let what = format!("{}: {e}", path.expect("an error comes from a piece"));
                return Err(io::Error::new(e.kind(), what));
            }
        }
    }
}

// ---------------------------------------------------------------------------------------
// FASTQ writing (FASTA writing lives in `crate::fasta`)
// ---------------------------------------------------------------------------------------

/// Serialise a [`ReadSet`] as FASTQ text (constant `I` quality — Phred 40).
/// Materialises the whole document; for large read sets prefer the streaming
/// [`write_fastq_file`].
pub fn to_fastq_string(reads: &ReadSet) -> String {
    let mut out = String::with_capacity(reads.ascii_bytes() * 2);
    for r in reads.iter() {
        out.push('@');
        out.push_str(&r.name);
        out.push('\n');
        let ascii = r.seq.to_ascii();
        out.push_str(std::str::from_utf8(&ascii).expect("ASCII DNA"));
        out.push_str("\n+\n");
        out.push_str(&"I".repeat(r.seq.len()));
        out.push('\n');
    }
    out
}

/// Write a [`ReadSet`] to a FASTQ file, one record at a time (memory stays O(longest
/// read), matching the module's bounded-memory contract on the write side too).
pub fn write_fastq_file(path: impl AsRef<Path>, reads: &ReadSet) -> io::Result<()> {
    let mut w = io::BufWriter::new(File::create(path)?);
    let mut quality: Vec<u8> = Vec::new();
    for r in reads.iter() {
        w.write_all(b"@")?;
        w.write_all(r.name.as_bytes())?;
        w.write_all(b"\n")?;
        w.write_all(&r.seq.to_ascii())?;
        w.write_all(b"\n+\n")?;
        quality.clear();
        quality.resize(r.seq.len(), b'I');
        w.write_all(&quality)?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasta;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hysortk_io_test_{}_{tag}", std::process::id()))
    }

    fn write_tmp(tag: &str, text: &str) -> PathBuf {
        let path = tmp_path(tag);
        std::fs::write(&path, text).unwrap();
        path
    }

    fn tiny_opts(block: usize) -> IngestOptions {
        IngestOptions {
            block_bytes: block,
            batch_records: 3,
            min_fragment: 1,
        }
    }

    fn collect_all(files: &[InputFile], rank: usize, ranks: usize, block: usize) -> Vec<Read> {
        let mut shard = ShardReader::open(files, rank, ranks, tiny_opts(block)).unwrap();
        let mut out = Vec::new();
        while let Some(batch) = shard.next_batch().unwrap() {
            out.extend(batch);
        }
        out
    }

    fn ascii(reads: &[Read]) -> Vec<(String, Vec<u8>)> {
        reads
            .iter()
            .map(|r| (r.name.clone(), r.seq.to_ascii()))
            .collect()
    }

    #[test]
    fn format_detection_by_extension_and_byte() {
        assert_eq!(
            SeqFormat::from_extension(Path::new("x/reads.FASTA")),
            Some(SeqFormat::Fasta)
        );
        assert_eq!(
            SeqFormat::from_extension(Path::new("reads.fq")),
            Some(SeqFormat::Fastq)
        );
        assert_eq!(SeqFormat::from_extension(Path::new("reads.txt")), None);
        assert_eq!(SeqFormat::from_leading_byte(b'>'), Some(SeqFormat::Fasta));
        assert_eq!(SeqFormat::from_leading_byte(b'@'), Some(SeqFormat::Fastq));
        assert_eq!(SeqFormat::from_leading_byte(b'A'), None);
    }

    #[test]
    fn fasta_chunked_parse_matches_reference_for_every_block_size() {
        let text = ">r one\nACGTACGTAC\nGTAC\n\n>r two\nTTTTGGGG\n>r three\nCCCC\n";
        let path = write_tmp("blocks.fa", text);
        let expected = fasta::parse_fasta_str(text);
        for block in [16, 17, 19, 64, 4096] {
            let files = list_inputs(&[&path]).unwrap();
            let got = collect_all(&files, 0, 1, block);
            assert_eq!(got.len(), expected.len(), "block {block}");
            for (g, e) in got.iter().zip(expected.iter()) {
                assert_eq!(g.name, e.name, "block {block}");
                assert_eq!(g.seq, e.seq, "block {block}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fastq_records_parse_with_names_and_sequences() {
        let text = "@read1 extra\nACGTACGT\n+\nIIIIIIII\n@read2\nTTTT\n+read2\n@@@@\n";
        let path = write_tmp("basic.fq", text);
        let files = list_inputs(&[&path]).unwrap();
        let got = collect_all(&files, 0, 1, 11);
        assert_eq!(
            ascii(&got),
            vec![
                ("read1 extra".to_string(), b"ACGTACGT".to_vec()),
                ("read2".to_string(), b"TTTT".to_vec()),
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fastq_quality_length_mismatch_is_rejected() {
        let path = write_tmp("bad.fq", "@r\nACGT\n+\nIII\n");
        let files = list_inputs(&[&path]).unwrap();
        let mut shard = ShardReader::open(&files, 0, 1, tiny_opts(64)).unwrap();
        let err = shard.next_batch().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ambiguous_runs_split_reads_into_fragments() {
        let text = ">r\nACGTNNNGGGG\nNNCCC\n>s\nNNNN\n>t\nACGT\n";
        let path = write_tmp("nsplit.fa", text);
        let files = list_inputs(&[&path]).unwrap();
        let got = collect_all(&files, 0, 1, 8);
        assert_eq!(
            ascii(&got),
            vec![
                ("r".to_string(), b"ACGT".to_vec()),
                ("r".to_string(), b"GGGG".to_vec()),
                ("r".to_string(), b"CCC".to_vec()),
                ("t".to_string(), b"ACGT".to_vec()),
            ]
        );
        // With a minimum fragment length, sub-threshold fragments are dropped.
        let mut shard = ShardReader::open(
            &files,
            0,
            1,
            IngestOptions {
                block_bytes: 8,
                batch_records: 100,
                min_fragment: 4,
            },
        )
        .unwrap();
        let mut long = Vec::new();
        while let Some(batch) = shard.next_batch().unwrap() {
            long.extend(batch);
        }
        assert_eq!(
            ascii(&long),
            vec![
                ("r".to_string(), b"ACGT".to_vec()),
                ("r".to_string(), b"GGGG".to_vec()),
                ("t".to_string(), b"ACGT".to_vec()),
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_only_records_produce_no_reads() {
        let path = write_tmp("empty.fa", ">empty\n>full\nACGT\n>also empty\n");
        let files = list_inputs(&[&path]).unwrap();
        let got = collect_all(&files, 0, 1, 64);
        assert_eq!(ascii(&got), vec![("full".to_string(), b"ACGT".to_vec())]);
        std::fs::remove_file(&path).ok();
    }

    /// Sharding invariant: for any rank count and block size, concatenating the
    /// shards in rank order reproduces the whole-file parse exactly once.
    #[test]
    fn shards_partition_fasta_records_exactly() {
        let mut text = String::new();
        for i in 0..37 {
            text.push_str(&format!(">read{i}\n"));
            let base = b"ACGT"[i % 4] as char;
            for _ in 0..(1 + i % 5) {
                text.push_str(&String::from(base).repeat(5 + (i * 7) % 23));
                text.push('\n');
            }
        }
        let path = write_tmp("shards.fa", &text);
        let files = list_inputs(&[&path]).unwrap();
        let whole = ascii(&collect_all(&files, 0, 1, 4096));
        for ranks in [1usize, 2, 3, 5, 8, 13] {
            for block in [16, 61, 4096] {
                let mut merged = Vec::new();
                for rank in 0..ranks {
                    merged.extend(ascii(&collect_all(&files, rank, ranks, block)));
                }
                assert_eq!(merged, whole, "ranks {ranks} block {block}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shards_partition_fastq_records_exactly_despite_at_quality_lines() {
        // Quality lines made entirely of '@' (a legal Phred 31 score) are the
        // classic realignment trap.
        let mut text = String::new();
        for i in 0..29 {
            let len = 4 + (i * 3) % 17;
            let base = b"ACGT"[i % 4] as char;
            text.push_str(&format!(
                "@q{i}\n{}\n+\n{}\n",
                String::from(base).repeat(len),
                "@".repeat(len)
            ));
        }
        let path = write_tmp("shards.fq", &text);
        let files = list_inputs(&[&path]).unwrap();
        let whole = ascii(&collect_all(&files, 0, 1, 4096));
        assert_eq!(whole.len(), 29);
        for ranks in [2usize, 3, 7, 11] {
            for block in [16, 64] {
                let mut merged = Vec::new();
                for rank in 0..ranks {
                    merged.extend(ascii(&collect_all(&files, rank, ranks, block)));
                }
                assert_eq!(merged, whole, "ranks {ranks} block {block}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shards_span_multiple_files_without_crossing_records() {
        let fa = write_tmp("multi1.fa", ">a\nACGTACGT\n>b\nTTTT\n");
        let fq = write_tmp("multi2.fq", "@c\nGGGG\n+\nIIII\n@d\nCCCCCC\n+\nIIIIII\n");
        let fa2 = write_tmp("multi3.fa", ">e\nAAAA\n");
        let files = list_inputs(&[&fa, &fq, &fa2]).unwrap();
        let whole = ascii(&collect_all(&files, 0, 1, 4096));
        assert_eq!(whole.len(), 5);
        for ranks in [2usize, 4, 9] {
            let mut merged = Vec::new();
            for rank in 0..ranks {
                merged.extend(ascii(&collect_all(&files, rank, ranks, 16)));
            }
            assert_eq!(merged, whole, "ranks {ranks}");
        }
        for p in [fa, fq, fa2] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn ingestion_memory_is_bounded_by_block_not_file() {
        // A file much larger than the block: the reader's buffer must stay at
        // O(block + longest line), far below the file size.
        let mut text = String::new();
        for i in 0..500 {
            text.push_str(&format!(">r{i}\n{}\n", "ACGT".repeat(20)));
        }
        let path = write_tmp("bounded.fa", &text);
        assert!(text.len() > 40_000);
        let block = 256usize;
        let files = list_inputs(&[&path]).unwrap();
        let mut shard = ShardReader::open(&files, 0, 1, tiny_opts(block)).unwrap();
        let mut n = 0usize;
        while let Some(batch) = shard.next_batch().unwrap() {
            n += batch.len();
        }
        assert_eq!(n, 500);
        let longest_line = 81;
        assert!(
            shard.peak_buffer_bytes() <= 2 * block + longest_line,
            "buffer grew to {} bytes for a {} byte file",
            shard.peak_buffer_bytes(),
            text.len()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shards_inside_one_huge_record_stop_at_their_boundary() {
        // A wrapped single-record reference FASTA much larger than any shard: ranks
        // whose range falls inside the record own nothing and must stop scanning at
        // their boundary instead of streaming the rest of the file hunting for a
        // header that never comes.
        let mut text = String::from(">chr1\n");
        for _ in 0..2_000 {
            text.push_str("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\n");
        }
        let path = write_tmp("hugerecord.fa", &text);
        let files = list_inputs(&[&path]).unwrap();
        let block = 1_024usize;
        let ranks = 8usize;
        for rank in 1..ranks {
            let mut shard = ShardReader::open(&files, rank, ranks, tiny_opts(block)).unwrap();
            let mut n = 0usize;
            while let Some(batch) = shard.next_batch().unwrap() {
                n += batch.len();
            }
            assert_eq!(n, 0, "rank {rank} owns no record");
            let line = 62u64;
            assert!(
                shard.max_scan_past_end() <= 2 * line + block as u64,
                "rank {rank} scanned {} bytes past its boundary",
                shard.max_scan_past_end()
            );
        }
        // Rank 0 owns the record and legitimately reads it to the end.
        let mut owner = ShardReader::open(&files, 0, ranks, tiny_opts(block)).unwrap();
        let mut n = 0usize;
        while let Some(batch) = owner.next_batch().unwrap() {
            n += batch.len();
        }
        assert_eq!(n, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fastq_round_trips_through_writer_and_reader() {
        let rs = ReadSet::from_ascii_reads(&[
            b"ACGTACGTACGTACGT".as_slice(),
            b"TTTTGGGGCCCCAAAA".as_slice(),
        ]);
        let path = tmp_path("roundtrip.fq");
        write_fastq_file(&path, &rs).unwrap();
        let parsed = read_paths(&[&path], IngestOptions::default()).unwrap();
        assert_eq!(parsed.len(), rs.len());
        for (a, b) in parsed.iter().zip(rs.iter()) {
            assert_eq!(a.seq, b.seq);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lines_much_longer_than_the_block_parse_correctly() {
        // An unwrapped record whose single sequence line spans many refills: the
        // resumable newline search must still find the line boundaries exactly.
        let long = "ACGT".repeat(1_250); // 5000 chars, block 64
        let text = format!(">one\n{long}\n>two\nTTTT\n");
        let path = write_tmp("longline.fa", &text);
        let files = list_inputs(&[&path]).unwrap();
        let got = collect_all(&files, 0, 1, 64);
        assert_eq!(
            ascii(&got),
            vec![
                ("one".to_string(), long.as_bytes().to_vec()),
                ("two".to_string(), b"TTTT".to_vec()),
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    /// A source that hands out at most 5 bytes a call and fails every third call with
    /// `kind`, consuming nothing on a failed call.
    struct Flaky<'a> {
        data: &'a [u8],
        kind: io::ErrorKind,
        calls: usize,
    }

    impl<'a> Flaky<'a> {
        fn new(data: &'a [u8], kind: io::ErrorKind) -> Self {
            Flaky {
                data,
                kind,
                calls: 0,
            }
        }
    }

    impl io::Read for Flaky<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(io::Error::new(self.kind, "flaky source"));
            }
            let n = buf.len().min(5).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Every line a 16-byte [`BlockLines`] over `src` yields, asking again after each
    /// error, and the kinds of those errors.
    fn lines_of(src: impl io::Read) -> (Vec<Vec<u8>>, Vec<io::ErrorKind>) {
        let mut lines = BlockLines::new(src, 16, 0);
        let (mut out, mut errors, mut line) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            match lines.read_line_into(&mut line) {
                Ok(Some(_)) => out.push(line.clone()),
                Ok(None) => return (out, errors),
                Err(e) => errors.push(e.kind()),
            }
        }
    }

    const FLAKY_TEXT: &[u8] =
        b">one\nACGTACGTACGTACGTACGTACGTACGTACGT\nGGCC\n>two\nTTTTGGGGCCCCAAAA\n";

    #[test]
    fn an_interrupted_read_is_retried_in_place() {
        let clean: Vec<Vec<u8>> = FLAKY_TEXT
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .map(<[u8]>::to_vec)
            .collect();
        assert_eq!(lines_of(FLAKY_TEXT), (clean.clone(), vec![]));
        // Every third read is interrupted, most of them in the middle of a refill.
        let flaky = Flaky::new(FLAKY_TEXT, io::ErrorKind::Interrupted);
        assert_eq!(lines_of(flaky), (clean, vec![]));
    }

    #[test]
    fn a_failed_read_returns_its_error_and_leaves_no_zeros_behind() {
        let (clean, _) = lines_of(FLAKY_TEXT);
        let (lines, errors) = lines_of(Flaky::new(FLAKY_TEXT, io::ErrorKind::Other));
        assert!(!errors.is_empty());
        assert!(errors.iter().all(|&kind| kind == io::ErrorKind::Other));
        assert!(lines.iter().all(|line| !line.contains(&0)), "{lines:?}");
        // The buffer holds exactly the bytes read, so asking again loses none.
        assert_eq!(lines, clean);
    }

    /// The word-at-a-time newline search finds what a byte loop finds, at every
    /// position and next to bytes one bit away from `\n`.
    #[test]
    fn the_newline_search_matches_a_byte_loop() {
        for len in 0..40usize {
            for at in 0..=len {
                for filler in [b'A', b'\n' ^ 0x80, b'\n' ^ 0x01, 0xff, 0x0b] {
                    let mut bytes = vec![filler; len];
                    if at < len {
                        bytes[at] = b'\n';
                    }
                    let want = bytes.iter().position(|&b| b == b'\n');
                    assert_eq!(
                        find_newline(&bytes),
                        want,
                        "len {len} at {at} filler {filler}"
                    );
                }
            }
        }
    }

    #[test]
    fn crlf_line_endings_are_tolerated() {
        let path = write_tmp("crlf.fa", ">r\r\nACGT\r\nGGGG\r\n");
        let files = list_inputs(&[&path]).unwrap();
        let got = collect_all(&files, 0, 1, 7);
        assert_eq!(ascii(&got), vec![("r".to_string(), b"ACGTGGGG".to_vec())]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_format_is_reported() {
        let path = write_tmp("unknown.txt", "no sequences here\n");
        let err = list_inputs(&[&path]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_shards_on_tiny_inputs_are_fine() {
        let path = write_tmp("tinyshard.fa", ">only\nACGT\n");
        let files = list_inputs(&[&path]).unwrap();
        let mut merged = Vec::new();
        for rank in 0..32 {
            merged.extend(ascii(&collect_all(&files, rank, 32, 16)));
        }
        assert_eq!(merged, vec![("only".to_string(), b"ACGT".to_vec())]);
        std::fs::remove_file(&path).ok();
    }
}
