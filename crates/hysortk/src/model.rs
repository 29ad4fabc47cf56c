//! The paper's machine model, applied to a run after it: what a measured [`RunReport`]
//! projects to at full scale on a modeled machine.
//!
//! A run ([`crate::count_kmers`], the file entry points) measures and models nothing;
//! [`project`] is one pure function of its report, its configuration and the machine to
//! model. Measured work and traffic are divided by [`HySortKConfig::data_scale`], so a run
//! on a 1/10 000-scale stand-in projects the full-size experiment, and fed to
//! [`hysortk_perfmodel`]'s compute, network and memory models. The `repro` experiments
//! and the CLI's `modeled:` line are built on it.

use hysortk_dmem::CommStats;
use hysortk_perfmodel::network::ExchangeProfile;
use hysortk_perfmodel::{ExecutionConfig, PerfModel, SortAlgorithm, StageTimes};

pub use hysortk_perfmodel::{MachineConfig, Projection};

use crate::config::HySortKConfig;
use crate::pipeline::record_bytes;
use crate::result::{RankWork, RunReport};

/// The layout `cfg` describes, as the model places it on `machine`. A modeled layout must
/// fit the modeled node: one that places more threads on a node than it has cores is
/// rejected.
pub fn execution(cfg: &HySortKConfig, machine: &MachineConfig) -> Result<ExecutionConfig, String> {
    // `Default::default()` writes Perlmutter's `threads_per_process`, a 16-ppn layout; a
    // struct-update that only changes `processes_per_node` would silently oversubscribe
    // the node.
    let cores = machine.cores_per_node;
    if cfg.processes_per_node * cfg.threads_per_process > cores {
        return Err(format!(
            "{} processes_per_node × {} threads_per_process oversubscribes the \
             node's {} cores; lower one of them or pick a bigger machine model",
            cfg.processes_per_node, cfg.threads_per_process, cores
        ));
    }
    Ok(ExecutionConfig::new(
        cfg.nodes,
        cfg.processes_per_node,
        cfg.threads_per_process,
        cfg.threads_per_worker,
    ))
}

/// Project the run `report` measured under `cfg` to full scale on `machine`: modeled
/// stage times, peak memory per node, the sorter the node's memory allows, and the
/// padded exchange. Fails when `cfg` is invalid or its layout does not fit the node
/// ([`execution`]).
pub fn project(
    report: &RunReport,
    cfg: &HySortKConfig,
    machine: &MachineConfig,
) -> Result<Projection, String> {
    cfg.validate()?;
    let model = PerfModel::new(machine.clone(), execution(cfg, machine)?);
    let scale = 1.0 / cfg.data_scale;
    let bytes_per_record = record_bytes(report.kmer_words, cfg.with_extension);

    // ---- the sorter ----------------------------------------------------------------------
    // HySortK's memory-aware choice (§3.1), on the input size the run derived its
    // sections from, projected to full scale.
    let nodes = cfg.nodes.max(1) as u64;
    let raduls_ok = model.memory().raduls_fits(
        (report.input_kmers as f64 / cfg.data_scale) as u64 / nodes,
        bytes_per_record,
        (report.input_bases as f64 / 4.0 / cfg.data_scale) as u64 / nodes,
    );
    let sorter = if raduls_ok {
        SortAlgorithm::Raduls
    } else {
        SortAlgorithm::Paradis
    };

    // ---- projected work counters -----------------------------------------------------
    let work = &report.rank_work;
    let max_of = |of: fn(&RankWork) -> u64| work.iter().map(of).max().unwrap_or(0) as f64 * scale;
    let max_bases = max_of(|w| w.bases_parsed);
    let max_heavy_local = max_of(|w| w.heavy_local_sorted);
    let max_makespan = max_of(|w| w.worker_makespan);
    let max_received = max_of(|w| w.received_records);
    let total_kmers = (report.total_kmers as f64 * scale) as u64;

    // ---- exchange traffic --------------------------------------------------------------
    // A packed k-mer is ⌈2k / 8⌉ bytes.
    let batch_bytes = (cfg.batch_size * (2 * cfg.k).div_ceil(8)) as u64;
    let exchange = padded_exchange(
        &report.rank_comm,
        "exchange",
        scale,
        batch_bytes,
        cfg.processes_per_node,
    );

    // ---- modeled stage times -----------------------------------------------------------
    let compute = model.compute();
    let network = model.network();

    let mut stages = StageTimes::new();
    stages.add("parse", compute.parse_time(max_bases as u64));
    if max_heavy_local > 0.0 {
        stages.add(
            "local-count",
            compute.sort_time_makespan(
                (max_heavy_local as u64).div_ceil(cfg.workers_per_process() as u64),
                report.kmer_words * 8,
                sorter,
            ),
        );
    }
    // Encode/decode work that the non-blocking exchange can hide (§3.3.1): moving the
    // wire bytes once more through memory on each side. The hidden share is measured
    // by the round loop: bytes serialized/counted while a round was in flight vs the
    // exposed fill-and-drain bytes at the pipeline's ends. Like padding, the exposed
    // share measured on scaled-down data is an artefact of the fixed batch size (it
    // shrinks as 1/rounds), so it is re-projected through the full-scale round count
    // computed above — except without overlap: that run's one unbounded round is all
    // exposed bytes at any scale, and projecting it would read as almost fully hidden.
    let codec_rate = model.machine.mem_bandwidth_per_node / cfg.processes_per_node as f64 / 4.0;
    let overlappable = exchange.max_rank_wire as f64 / codec_rate;
    let hidden: u64 = work.iter().map(|w| w.hidden_bytes).sum();
    let exposed: u64 = work.iter().map(|w| w.exposed_bytes).sum();
    let overlap_fraction = if cfg.overlap && hidden + exposed > 0 {
        let exposed_local = exposed as f64 / (hidden + exposed) as f64;
        let rounds_local = work.iter().map(|w| w.rounds).max().unwrap_or(1).max(1);
        let exposed_projected = exposed_local * rounds_local as f64 / exchange.rounds.max(1) as f64;
        (1.0 - exposed_projected).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let profile = ExchangeProfile {
        max_rank_wire_bytes: exchange.max_rank_wire,
        off_node_fraction: exchange.off_node,
        rounds: exchange.rounds,
        overlappable_compute: overlappable,
        overlap_fraction,
    };
    stages.add("exchange", network.exchange_time(&profile));
    stages.add(
        "task-collectives",
        network.small_collective_time((cfg.num_tasks() * 8) as u64),
    );
    stages.add(
        "sort",
        compute.sort_time_makespan(max_makespan as u64, bytes_per_record, sorter),
    );
    stages.add("scan", compute.scan_time(max_received as u64));

    // ---- memory ------------------------------------------------------------------------
    let elements_per_node = (max_received as u64) * cfg.processes_per_node as u64;
    let concurrent_fraction = 1.0 / cfg.tasks_per_worker.max(1) as f64;
    // Every base is parsed by exactly one rank, so the counter sum is the input size
    // (the file feed has no `ReadSet` to ask).
    let total_bases: u64 = work.iter().map(|w| w.bases_parsed).sum();
    let input_per_node = (total_bases as f64 / 4.0 * scale) as u64 / nodes;
    let peak = model.memory().sort_counter_peak(
        elements_per_node,
        bytes_per_record,
        sorter == SortAlgorithm::Raduls,
        concurrent_fraction,
    ) + input_per_node;

    Ok(Projection {
        stage_times: stages,
        peak_memory_per_node: peak,
        sorter,
        total_kmers,
        max_rank_wire_bytes: exchange.max_rank_wire,
        total_wire_bytes: exchange.total_wire,
        rounds: exchange.rounds,
        overlap_fraction,
    })
}

/// An all-to-all exchange padded to rounds of one batch per destination, as the model
/// prices it at full scale.
#[derive(Debug, Clone, Copy)]
pub struct PaddedExchange {
    /// Padded wire bytes the most loaded rank sends.
    pub max_rank_wire: u64,
    /// Padded wire bytes over all ranks.
    pub total_wire: u64,
    /// Rounds of the exchange.
    pub rounds: usize,
    /// The largest share of one rank's traffic that leaves its node.
    pub off_node: f64,
}

/// Project every rank's measured traffic of stage `label` (`comm`, in rank order, `ppn`
/// ranks per node) to a full-scale exchange padded to `batch_bytes` per destination and
/// round. Payloads are scaled first, and rounds and padding recomputed from the scaled
/// figures: padding measured on scaled-down data is an artefact of the fixed batch size
/// and must not be scaled up.
pub fn padded_exchange(
    comm: &[CommStats],
    label: &str,
    scale: f64,
    batch_bytes: u64,
    ppn: usize,
) -> PaddedExchange {
    let p = comm.len();
    let payload = |s: &CommStats| s.stage(label).map_or(0, |st| st.payload_bytes);
    let max_rank_payload = (comm.iter().map(payload).max().unwrap_or(0) as f64 * scale) as u64;
    let total_payload = (comm.iter().map(payload).sum::<u64>() as f64 * scale) as u64;
    let max_pair_payload = (comm.iter().enumerate())
        .map(|(r, s)| {
            let to_peers = s.sent_to.iter().enumerate().filter(|&(d, _)| d != r);
            to_peers.map(|(_, &b)| b).max().unwrap_or(0)
        })
        .max()
        .unwrap_or(0);
    let (max_rank_wire, rounds) = hysortk_perfmodel::project_padded_exchange(
        max_rank_payload,
        (max_pair_payload as f64 * scale) as u64,
        batch_bytes,
        p.saturating_sub(1).max(1),
    );
    PaddedExchange {
        max_rank_wire,
        total_wire: total_payload + (max_rank_wire - max_rank_payload) * p as u64,
        rounds,
        off_node: (comm.iter().enumerate())
            .map(|(r, s)| s.off_node_fraction(r, ppn))
            .fold(0.0f64, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_kmers;
    use crate::pipeline::tests::overlapping_reads;
    use hysortk_dna::kmer::Kmer1;

    #[test]
    fn oversubscribed_layouts_are_rejected() {
        // Struct-updating `processes_per_node` alone keeps the default
        // `threads_per_process` (Perlmutter's 128 cores / 16) and used to oversubscribe
        // silently.
        let perlmutter = MachineConfig::perlmutter_cpu();
        let mut cfg = HySortKConfig::default();
        cfg.processes_per_node = 32; // 32 × 8 threads = 256 > 128 cores
        let err = execution(&cfg, &perlmutter).unwrap_err();
        assert!(err.contains("oversubscribes"), "unexpected error: {err}");

        // The projection refuses it.
        let report = count_kmers::<Kmer1>(&overlapping_reads(9), &HySortKConfig::small(21, 9, 2));
        let err = project(&report.report, &cfg, &perlmutter).unwrap_err();
        assert!(err.contains("oversubscribes"), "unexpected error: {err}");

        // The same layout on a machine with enough cores is fine.
        let mut big = perlmutter.clone();
        big.cores_per_node = 256;
        execution(&cfg, &big).unwrap();

        // Zero threads is caught before the core math.
        let mut cfg = HySortKConfig::default();
        cfg.threads_per_process = 0;
        assert!(project(&report.report, &cfg, &perlmutter).is_err());
    }
}
