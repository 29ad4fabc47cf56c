//! Simplified ELBA-style long-read assembly pipeline (paper §4.5, Figure 10).
//!
//! ELBA is a distributed-memory de novo long-read assembler whose stages — k-mer
//! counting (with extension information), overlap detection, transitive reduction and
//! contig generation — all support hybrid MPI+OpenMP parallelism *except* the original
//! k-mer counter. The paper integrates HySortK to remove exactly that limitation. This
//! crate reproduces the experiment: a functional (though greatly simplified) pipeline
//! that really assembles synthetic reads, with per-stage modeled times under any
//! process × thread configuration, using either the original-style two-pass hash-table
//! counter or HySortK as the seeding stage.

#![forbid(unsafe_code)]

pub mod graph;
pub mod overlap;
pub mod pipeline;

pub use graph::{transitive_reduction, Contig, OverlapGraph};
pub use overlap::{detect_overlaps, Overlap};
pub use pipeline::{run_elba, CounterChoice, ElbaConfig, ElbaResult};
