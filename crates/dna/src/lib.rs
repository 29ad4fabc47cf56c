//! DNA sequence and k-mer substrate for the HySortK reproduction.
//!
//! This crate provides the representations the rest of the workspace is built on:
//!
//! * [`base`] — 2-bit nucleotide encoding (`A=0, C=1, G=2, T=3`), complements and
//!   ASCII conversion.
//! * [`kmer::Kmer`] — a fixed-length k-mer packed 2 bits per base into `[u64; W]`
//!   words, ordered so that integer comparison equals lexicographic comparison.
//! * [`sequence::DnaSeq`] — a 2-bit packed DNA sequence (a *read*), with k-mer
//!   extraction iterators.
//! * [`fasta`] — a minimal FASTA reader/writer (whole-file, in-memory reference).
//! * [`io`] — chunked, rank-sharded streaming FASTA/FASTQ ingestion.
//! * [`readset::ReadSet`] — a collection of reads with identifiers, plus the greedy
//!   partitioning across ranks used by the counting pipelines.
//! * [`extension::Extension`] — the per-k-mer provenance record (`read_id`,
//!   `pos_in_read`) the paper calls *extension information*.
//!
//! Everything here is deliberately dependency-light and allocation-conscious: k-mers are
//! `Copy` values, sequences are packed, and iteration over k-mers is rolling (O(1) per
//! k-mer, not O(k)).

#![deny(unsafe_code)]

pub mod base;
pub mod extension;
pub mod fasta;
pub mod io;
pub mod kmer;
pub mod readset;
pub mod sequence;
pub mod simd;

pub use base::{complement_code, decode_base, encode_base, Base};
pub use extension::Extension;
pub use io::{IngestOptions, InputFile, SeqFormat, ShardReader};
pub use kmer::{Kmer, Kmer1, Kmer2, KmerCode};
pub use readset::{Read, ReadSet};
pub use sequence::DnaSeq;
