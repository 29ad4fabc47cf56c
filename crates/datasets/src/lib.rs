//! Synthetic genomes and sequencing-read simulators.
//!
//! The paper evaluates on real datasets between 0.2 GB (A. baumannii) and 156 GB
//! (H. sapiens 52x) that are not available here; this crate builds synthetic stand-ins
//! with the properties that drive k-mer-counting behaviour — genome size, coverage,
//! read length distribution, sequencing error rate, and repeat structure (including the
//! centromeric `(AATGG)n` satellite arrays responsible for heavy hitters). The
//! [`presets`] module names one preset per paper dataset and generates a scaled-down
//! version whose scale factor is then fed to the performance model as `data_scale`.

#![forbid(unsafe_code)]

pub mod genome;
pub mod presets;
pub mod reads;

pub use genome::{GenomeConfig, SyntheticGenome};
pub use presets::{DatasetPreset, GeneratedDataset};
pub use reads::{ReadLengthProfile, ReadSimulator, SequencingErrorModel};
