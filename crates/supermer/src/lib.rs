//! Minimizer and supermer machinery (paper §2.4 and §3.2) plus the extension-info
//! compression codec (§3.3.2).
//!
//! * [`mmer`] — rolling extraction and canonical packing of m-mers, and the
//!   MurmurHash3-based score function HySortK uses (with a lexicographic score kept for
//!   the load-balance comparison of §3.2). It re-exports the MurmurHash3_x64_128
//!   implementation ([`mmer::murmur3_x64_128`], [`mmer::fmix64`]), which the hash-table
//!   baselines also hash with.
//! * [`minimizer`] — the improved sliding-window minimum with a monotone deque, which
//!   finds the minimizer of every k-mer of a read in O(n) regardless of k, plus a naive
//!   reference implementation used by the tests.
//! * [`supermer`] — grouping of consecutive k-mers that share a destination into
//!   supermers, the measurement of the communication saving, and the re-extraction of
//!   k-mers on the receiving side.
//! * [`streaming`] — the fused, allocation-free form of all of the above:
//!   [`streaming::for_each_supermer`] rolls scoring, window minimisation (the lane
//!   kernel of [`simd`], or a branchless blockwise two-scan) and run grouping in one
//!   pass and emits supermer spans through a callback. This is the pipeline's hot parse path; the vec-based modules above are
//!   the property-test reference.
//! * [`simd`] — the lane kernel of the streaming extractor: canonical m-mer scores,
//!   window minima and the k-mers where the minimum changes, eight lanes at a time,
//!   built for AVX-512 and for AVX2; and the scalar scorer of the extractor's
//!   reference path, which runs under `HYSORTK_NO_SIMD=1` and on other CPUs.
//! * [`codec`] — the domain-specific delta compression of `(read_id, pos_in_read)`
//!   extension records.

#![deny(unsafe_code)]

pub mod codec;
pub mod minimizer;
pub mod mmer;
mod murmur3;
pub mod simd;
pub mod streaming;
pub mod supermer;

pub use codec::{decode_extensions, encode_extensions, EncodedExtensions};
pub use minimizer::{minimizers_deque, minimizers_naive, MinimizerRun};
pub use mmer::{canonical_mmers, MmerScorer, ScoreFunction};
pub use streaming::{for_each_supermer, SupermerScratch, SupermerSpan};
pub use supermer::{
    build_supermers, partition_stats, supermer_wire_len, PartitionStats, Supermer, LONG_SUPERMER,
};
