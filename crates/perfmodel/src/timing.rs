//! Per-stage time breakdowns.
//!
//! Every pipeline in the workspace (HySortK, the baselines, the ELBA integration)
//! reports its modeled runtime as a list of named stages, which is what the paper's
//! stacked-bar figures (Figure 5, Figure 10) plot. A counter's whole modeled outcome —
//! its stage times, memory and exchange — is one [`Projection`].

use crate::compute::SortAlgorithm;

/// An ordered collection of `(stage name, seconds)` entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTimes {
    entries: Vec<(String, f64)>,
}

impl StageTimes {
    /// Empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or accumulate into) a stage.
    pub fn add(&mut self, stage: &str, seconds: f64) {
        match self.entries.iter_mut().find(|(s, _)| s == stage) {
            Some((_, t)) => *t += seconds,
            None => self.entries.push((stage.to_string(), seconds)),
        }
    }

    /// Seconds recorded for a stage (0 if absent).
    pub fn get(&self, stage: &str) -> f64 {
        self.entries
            .iter()
            .find(|(s, _)| s == stage)
            .map(|(_, t)| *t)
            .unwrap_or(0.0)
    }

    /// Total modeled seconds.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|(_, t)| t).sum()
    }

    /// Iterate over the stages in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(s, t)| (s.as_str(), *t))
    }

    /// Merge another breakdown into this one, accumulating stage-wise.
    pub fn merge(&mut self, other: &StageTimes) {
        for (s, t) in other.iter() {
            self.add(s, t);
        }
    }

    /// Scale every stage by a factor (used for what-if analyses in the benches).
    pub fn scaled(&self, factor: f64) -> StageTimes {
        StageTimes {
            entries: self
                .entries
                .iter()
                .map(|(s, t)| (s.clone(), t * factor))
                .collect(),
        }
    }

    /// Render as a compact single-line summary, e.g. `parse 1.20s | exchange 3.40s`.
    pub fn summary(&self) -> String {
        self.entries
            .iter()
            .map(|(s, t)| format!("{s} {t:.3}s"))
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

/// What the model projects a counting run to at full scale on a modeled machine: the
/// figures the paper reports, none of them measured. HySortK's come from its measured
/// run report (`hysortk_core::model::project`); a baseline counter models its own.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// Modeled seconds per stage (parse / exchange / sort / scan …).
    pub stage_times: StageTimes,
    /// Modeled peak memory per node, bytes.
    pub peak_memory_per_node: u64,
    /// The local sorter the modeled machine's memory allows (§3.1).
    pub sorter: SortAlgorithm,
    /// k-mer instances at full scale.
    pub total_kmers: u64,
    /// Padded wire bytes of the exchange sent by the most loaded rank, at full scale.
    pub max_rank_wire_bytes: u64,
    /// Padded wire bytes of the exchange across all ranks, at full scale.
    pub total_wire_bytes: u64,
    /// Rounds of the padded exchange at full scale.
    pub rounds: usize,
    /// Share (0..=1) of the overlappable codec work hidden behind the exchange.
    pub overlap_fraction: f64,
}

impl Projection {
    /// Total modeled runtime in seconds.
    pub fn total_time(&self) -> f64 {
        self.stage_times.total()
    }
}

impl FromIterator<(String, f64)> for StageTimes {
    fn from_iter<T: IntoIterator<Item = (String, f64)>>(iter: T) -> Self {
        let mut st = StageTimes::new();
        for (s, t) in iter {
            st.add(&s, t);
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get_accumulate() {
        let mut st = StageTimes::new();
        st.add("parse", 1.0);
        st.add("exchange", 2.0);
        st.add("parse", 0.5);
        assert_eq!(st.get("parse"), 1.5);
        assert_eq!(st.get("missing"), 0.0);
        assert!((st.total() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = StageTimes::new();
        a.add("sort", 2.0);
        let mut b = StageTimes::new();
        b.add("sort", 1.0);
        b.add("scan", 0.25);
        a.merge(&b);
        assert_eq!(a.get("sort"), 3.0);
        let half = a.scaled(0.5);
        assert_eq!(half.get("sort"), 1.5);
        assert_eq!(half.get("scan"), 0.125);
    }

    #[test]
    fn summary_lists_stages_in_insertion_order() {
        let mut st = StageTimes::new();
        st.add("parse", 1.0);
        st.add("exchange", 2.0);
        let s = st.summary();
        assert!(s.starts_with("parse"));
        assert!(s.contains("exchange"));
    }
}
