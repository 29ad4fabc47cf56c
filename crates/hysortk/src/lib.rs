//! # HySortK — sorting-based distributed-memory k-mer counting
//!
//! A from-scratch Rust reproduction of *"High-Performance Sorting-Based k-mer Counting
//! in Distributed Memory with Flexible Hybrid Parallelism"* (Li & Guidi, ICPP 2024).
//!
//! The crate exposes one main entry point, [`count_kmers`], which runs the full
//! three-stage pipeline — parse into supermers, exchange across simulated ranks,
//! radix-sort and linearly scan — and returns both the exact canonical k-mer counts and
//! a [`RunReport`] containing measured traffic and modeled per-stage times.
//!
//! The counts come back as [`KmerRuns`]: the sorted runs the count jobs emitted, held
//! once and not merged. Look k-mers up and fold over the pairs for free; ask for key
//! order ([`KmerRuns::sorted`], [`KmerRuns::sorted_vec`]) when it is needed.
//!
//! ```
//! use hysortk_core::{count_kmers, HySortKConfig};
//! use hysortk_dna::{Kmer1, ReadSet};
//!
//! let reads = ReadSet::from_ascii_reads(&[
//!     b"ACGTACGTACGTACGTACGTACGTACGTACGTAGGT".as_slice(),
//!     b"ACGTACGTACGTACGTACGTACGTACGTACGTAGGT".as_slice(),
//! ]);
//! let mut cfg = HySortKConfig::small(21, 9, 2);
//! cfg.min_count = 1;
//! let result = count_kmers::<Kmer1>(&reads, &cfg);
//! // Every pair once, run by run — no order across runs, nothing merged.
//! assert!(result.counts.iter().all(|(_, count)| *count >= 2));
//! // Key order, merged lazily; `sorted_vec()` builds the array.
//! let kmers: Vec<&Kmer1> = result.counts.sorted().map(|(kmer, _)| kmer).collect();
//! assert!(kmers.windows(2).all(|w| w[0] < w[1]));
//! assert_eq!(result.counts, result.counts.sorted_vec());
//! assert_eq!(result.count_of(kmers[0]), Some(2));
//! ```
//!
//! The other modules are the pieces the pipeline is assembled from and are public so
//! that the baselines, the ELBA integration and the benchmark harness can reuse them.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod error;
pub mod ingest;
pub mod overlap;
pub mod pipeline;
pub mod reference;
pub mod result;
pub mod stage3;
mod table;
pub mod wire;

pub use config::HySortKConfig;
pub use error::HysortkError;
pub use ingest::{
    count_kmers_from_files, count_kmers_from_files_faulted, count_kmers_from_files_with,
};
pub use pipeline::count_kmers;
pub use reference::{reference_counts, reference_counts_bounded, reference_extensions};
pub use result::{CountResult, KmerHistogram, KmerRuns, RunReport, StageWall, StageWallTimes};
pub use wire::WireError;
