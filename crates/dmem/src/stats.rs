//! Communication traffic accounting.
//!
//! Every collective in [`crate::collectives`] records how many bytes it moved, how much
//! of that was padding (the fixed-size `Alltoall` the paper prefers over `Alltoallv`
//! requires padding), how many rounds it took, and the largest single pair message of
//! any round. The performance model turns these measurements into modeled seconds; the
//! experiment harness also reports them directly (e.g. the "80 % communication
//! reduction" supermer claim is verified on these counters).

/// Traffic measured by a single rank, optionally broken down by stage label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    /// Number of collective operations issued.
    pub collectives: usize,
    /// Number of communication rounds (a plain collective counts as one round).
    pub rounds: usize,
    /// Payload bytes this rank sent to *other* ranks (self-sends excluded).
    pub payload_bytes: u64,
    /// Padding bytes added to regularise fixed-size exchanges.
    pub padding_bytes: u64,
    /// Bytes sent per destination rank (self included, at the rank's own index).
    pub sent_to: Vec<u64>,
    /// Largest (payload + padding) sent to a single destination in any single round.
    pub max_round_pair_bytes: u64,
    /// Largest volume this rank ever had posted-but-not-completed at once in a round
    /// exchange — for an exchange of a single round, the rank's whole send side. The
    /// blocking collectives complete before returning and record zero here.
    pub max_inflight_bytes: u64,
    /// Per-stage traffic, keyed by the label passed to the collective.
    pub stages: Vec<StageTraffic>,
}

/// Traffic attributed to one labelled pipeline stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTraffic {
    /// Stage label (e.g. `"kmer-exchange"`).
    pub label: String,
    /// Payload bytes sent to other ranks under this label.
    pub payload_bytes: u64,
    /// Padding bytes under this label.
    pub padding_bytes: u64,
    /// Rounds under this label.
    pub rounds: usize,
    /// Largest concurrently in-flight volume under this label (see
    /// [`CommStats::max_inflight_bytes`]).
    pub max_inflight_bytes: u64,
}

impl CommStats {
    pub(crate) fn new(size: usize) -> Self {
        CommStats {
            sent_to: vec![0; size],
            ..Default::default()
        }
    }

    pub(crate) fn record(
        &mut self,
        label: &str,
        per_dest_payload: &[u64],
        padding: u64,
        rounds: usize,
        self_rank: usize,
        max_pair: u64,
    ) {
        self.record_with_inflight(
            label,
            per_dest_payload,
            padding,
            rounds,
            self_rank,
            max_pair,
            0,
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_with_inflight(
        &mut self,
        label: &str,
        per_dest_payload: &[u64],
        padding: u64,
        rounds: usize,
        self_rank: usize,
        max_pair: u64,
        max_inflight: u64,
    ) {
        self.collectives += 1;
        self.rounds += rounds;
        self.padding_bytes += padding;
        let mut payload = 0u64;
        for (dst, &bytes) in per_dest_payload.iter().enumerate() {
            self.sent_to[dst] += bytes;
            if dst != self_rank {
                payload += bytes;
            }
        }
        self.payload_bytes += payload;
        self.max_round_pair_bytes = self.max_round_pair_bytes.max(max_pair);
        self.max_inflight_bytes = self.max_inflight_bytes.max(max_inflight);

        match self.stages.iter_mut().find(|s| s.label == label) {
            Some(stage) => {
                stage.payload_bytes += payload;
                stage.padding_bytes += padding;
                stage.rounds += rounds;
                stage.max_inflight_bytes = stage.max_inflight_bytes.max(max_inflight);
            }
            None => self.stages.push(StageTraffic {
                label: label.to_string(),
                payload_bytes: payload,
                padding_bytes: padding,
                rounds,
                max_inflight_bytes: max_inflight,
            }),
        }
    }

    /// Total bytes put on the (simulated) wire by this rank: payload plus padding.
    pub fn wire_bytes(&self) -> u64 {
        self.payload_bytes + self.padding_bytes
    }

    /// Traffic recorded under a specific stage label.
    pub fn stage(&self, label: &str) -> Option<&StageTraffic> {
        self.stages.iter().find(|s| s.label == label)
    }

    /// Combine statistics from many ranks: volumes add, maxima take the max, and the
    /// `sent_to` vectors add element-wise.
    pub fn aggregate(all: &[CommStats]) -> CommStats {
        let mut out = CommStats::default();
        for s in all {
            out.collectives += s.collectives;
            out.rounds = out.rounds.max(s.rounds);
            out.payload_bytes += s.payload_bytes;
            out.padding_bytes += s.padding_bytes;
            out.max_round_pair_bytes = out.max_round_pair_bytes.max(s.max_round_pair_bytes);
            out.max_inflight_bytes = out.max_inflight_bytes.max(s.max_inflight_bytes);
            if out.sent_to.len() < s.sent_to.len() {
                out.sent_to.resize(s.sent_to.len(), 0);
            }
            for (dst, &b) in s.sent_to.iter().enumerate() {
                out.sent_to[dst] += b;
            }
            for stage in &s.stages {
                match out.stages.iter_mut().find(|t| t.label == stage.label) {
                    Some(t) => {
                        t.payload_bytes += stage.payload_bytes;
                        t.padding_bytes += stage.padding_bytes;
                        t.rounds = t.rounds.max(stage.rounds);
                        t.max_inflight_bytes = t.max_inflight_bytes.max(stage.max_inflight_bytes);
                    }
                    None => out.stages.push(stage.clone()),
                }
            }
        }
        out
    }

    /// Fraction of this rank's traffic that leaves its node, given `ppn` ranks per node
    /// and a block rank→node mapping (ranks `[node*ppn, (node+1)*ppn)` share a node).
    pub fn off_node_fraction(&self, self_rank: usize, ppn: usize) -> f64 {
        let ppn = ppn.max(1);
        let my_node = self_rank / ppn;
        let mut off = 0u64;
        let mut total = 0u64;
        for (dst, &bytes) in self.sent_to.iter().enumerate() {
            if dst == self_rank {
                continue;
            }
            total += bytes;
            if dst / ppn != my_node {
                off += bytes;
            }
        }
        if total == 0 {
            0.0
        } else {
            off as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_excludes_self_sends() {
        let mut s = CommStats::new(4);
        s.record("x", &[10, 20, 30, 40], 5, 2, 0, 40);
        assert_eq!(s.payload_bytes, 90); // rank 0's self-send of 10 excluded
        assert_eq!(s.padding_bytes, 5);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.wire_bytes(), 95);
        assert_eq!(s.sent_to, vec![10, 20, 30, 40]);
        assert_eq!(s.stage("x").unwrap().payload_bytes, 90);
        assert!(s.stage("y").is_none());
    }

    #[test]
    fn aggregate_sums_volumes_and_maxes_peaks() {
        let mut a = CommStats::new(2);
        a.record("s", &[0, 100], 0, 1, 0, 100);
        let mut b = CommStats::new(2);
        b.record("s", &[50, 0], 10, 3, 1, 60);
        let total = CommStats::aggregate(&[a, b]);
        assert_eq!(total.payload_bytes, 150);
        assert_eq!(total.padding_bytes, 10);
        assert_eq!(total.max_round_pair_bytes, 100);
        assert_eq!(total.rounds, 3);
        assert_eq!(total.stage("s").unwrap().payload_bytes, 150);
    }

    #[test]
    fn inflight_peaks_max_per_stage_and_in_aggregate() {
        let mut a = CommStats::new(2);
        a.record_with_inflight("ex", &[0, 100], 0, 2, 0, 100, 300);
        a.record_with_inflight("ex", &[0, 50], 0, 1, 0, 50, 120);
        a.record("other", &[0, 10], 0, 1, 0, 10);
        assert_eq!(a.max_inflight_bytes, 300);
        assert_eq!(a.stage("ex").unwrap().max_inflight_bytes, 300);
        assert_eq!(a.stage("other").unwrap().max_inflight_bytes, 0);

        let mut b = CommStats::new(2);
        b.record_with_inflight("ex", &[70, 0], 0, 3, 1, 70, 450);
        let total = CommStats::aggregate(&[a, b]);
        assert_eq!(total.max_inflight_bytes, 450);
        assert_eq!(total.stage("ex").unwrap().max_inflight_bytes, 450);
        assert_eq!(total.stage("ex").unwrap().rounds, 3);
    }

    #[test]
    fn off_node_fraction_respects_block_mapping() {
        let mut s = CommStats::new(4);
        // rank 0, ppn 2: ranks {0,1} on node 0, {2,3} on node 1.
        s.record("s", &[5, 10, 10, 20], 0, 1, 0, 20);
        let f = s.off_node_fraction(0, 2);
        assert!((f - 30.0 / 40.0).abs() < 1e-9);
        // Everything on one node -> nothing leaves it.
        assert_eq!(s.off_node_fraction(0, 4), 0.0);
    }
}
