//! Minimal FASTA reader/writer.
//!
//! HySortK takes FASTA files as input (paper §4). This module is the whole-file,
//! in-memory **reference** entry point: it keeps the historical map-unknown-bases-to-`A`
//! policy and gives the integration tests an end-to-end text round trip. Real file
//! ingestion goes through [`crate::io`], which streams fixed-size blocks, shards the
//! byte range across ranks, supports FASTQ, and *splits* reads at ambiguous bases
//! instead of mapping them.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::readset::{Read, ReadSet};

/// Parse FASTA text (possibly multi-line records) into a [`ReadSet`].
///
/// Records consist of a header line starting with `>` followed by one or more sequence
/// lines. Blank lines are ignored. Characters other than `ACGTacgt` are mapped to `A`,
/// matching the policy documented in [`crate::base::encode_base`].
pub fn parse_fasta_str(text: &str) -> ReadSet {
    let mut rs = ReadSet::new();
    let mut name: Option<String> = None;
    let mut seq: Vec<u8> = Vec::new();

    let flush = |name: &mut Option<String>, seq: &mut Vec<u8>, rs: &mut ReadSet| {
        // Header-only records (`>name` with no sequence) are skipped: a zero-length
        // read carries no k-mers and would only make stage 1 see `n == 0` inputs.
        if let Some(n) = name.take() {
            if !seq.is_empty() {
                rs.push(Read::from_ascii(0, n, seq));
            }
        }
        seq.clear();
    };

    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(header) = trimmed.strip_prefix('>') {
            flush(&mut name, &mut seq, &mut rs);
            name = Some(header.trim().to_string());
        } else {
            if name.is_none() {
                // Sequence data before any header: tolerate it with a synthetic name,
                // as several common toolchains do.
                name = Some(format!("unnamed{}", rs.len()));
            }
            seq.extend_from_slice(trimmed.as_bytes());
        }
    }
    flush(&mut name, &mut seq, &mut rs);
    rs
}

/// Serialise a [`ReadSet`] as FASTA text with the given line width.
pub fn to_fasta_string(reads: &ReadSet, line_width: usize) -> String {
    let width = line_width.max(1);
    let mut out = String::with_capacity(reads.ascii_bytes());
    for r in reads.iter() {
        out.push('>');
        out.push_str(&r.name);
        out.push('\n');
        let ascii = r.seq.to_ascii();
        for chunk in ascii.chunks(width) {
            out.push_str(std::str::from_utf8(chunk).expect("ASCII DNA"));
            out.push('\n');
        }
    }
    out
}

/// Write a [`ReadSet`] to a FASTA file.
pub fn write_fasta_file(
    path: impl AsRef<Path>,
    reads: &ReadSet,
    line_width: usize,
) -> io::Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(to_fasta_string(reads, line_width).as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multiline_records() {
        let text = ">read one\nACGT\nACGT\n\n>read two extra info\nTTTT\n";
        let rs = parse_fasta_str(text);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.reads()[0].name, "read one");
        assert_eq!(rs.reads()[0].seq.to_ascii(), b"ACGTACGT".to_vec());
        assert_eq!(rs.reads()[1].name, "read two extra info");
        assert_eq!(rs.reads()[1].seq.to_ascii(), b"TTTT".to_vec());
    }

    #[test]
    fn tolerates_headerless_sequence() {
        let rs = parse_fasta_str("ACGTACGT\n>named\nTTTT\n");
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.reads()[0].seq.len(), 8);
    }

    #[test]
    fn round_trips_through_text() {
        let rs = ReadSet::from_ascii_reads(&[
            b"ACGTACGTACGTACGTACGTACGT".as_slice(),
            b"TTTTGGGGCCCCAAAA".as_slice(),
        ]);
        let text = to_fasta_string(&rs, 10);
        let parsed = parse_fasta_str(&text);
        assert_eq!(parsed.len(), rs.len());
        for (a, b) in parsed.iter().zip(rs.iter()) {
            assert_eq!(a.seq, b.seq);
        }
    }

    #[test]
    fn header_only_records_are_skipped() {
        // Regression: a `>name` header with no sequence used to push a zero-length
        // read into the set.
        let rs = parse_fasta_str(">empty\n>full\nACGT\n>trailing empty\n");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.reads()[0].name, "full");
        assert!(rs.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn ambiguous_bases_are_mapped_not_dropped() {
        let rs = parse_fasta_str(">r\nACGNNACG\n");
        assert_eq!(rs.reads()[0].seq.len(), 8);
        assert_eq!(rs.reads()[0].seq.to_ascii(), b"ACGAAACG".to_vec());
    }
}
