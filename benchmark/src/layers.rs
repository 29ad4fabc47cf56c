//! The layer replay: every adapter between the harness and a production entry point.
//!
//! Once per workload the harness drives the functions the pipeline itself calls, one
//! layer at a time, each layer's output feeding the next, every call wrapped in a
//! harness span. Layers run single-threaded unless noted, so `replay seconds` is the
//! isolated cost the `eff.*` ratios compare with the in-pipeline `pipeline.*` buckets.
//! The replay ends in the same histogram and retained set as a pipeline run, and is
//! checked against the same oracle.
//!
//! Not replayed: the heavy-hitter kmerlist conversion (private to the pipeline's
//! `SendSerializer`; its cost sits in `pipeline.serialize_s`) — every task is encoded
//! as supermer blocks here — and the checkpoint writer (`checkpoint.*` come from the
//! program's report and the directory it leaves).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use hysortk_core::overlap::plan_rounds;
use hysortk_core::stage3::{
    build_block_index, count_blocks_parallel, merge_task_counts, CountParams,
};
use hysortk_core::wire::{read_blocks, PayloadView, SupermerBlockWriter};
use hysortk_dmem::{Cluster, CommStats, DmemError, FlatReceived};
use hysortk_dna::io::{list_inputs, IngestOptions, ShardReader};
use hysortk_dna::kmer::KmerCode;
use hysortk_dna::readset::Read;
use hysortk_dna::{Kmer1, Kmer2};
use hysortk_perfmodel::SortAlgorithm;
use hysortk_sort::{paradis_sort_from, raduls_sort};
use hysortk_supermer::mmer::{MmerScorer, ScoreFunction};
use hysortk_supermer::streaming::{for_each_supermer, SupermerScratch};
use hysortk_task::{assign_greedy, schedule_lpt, WorkerPool};

use crate::gen::fnv1a;
use crate::json::Value;
use crate::oracle::{pair_hash, Counts};
use crate::sample::key_of;
use crate::workloads::Workload;

/// One harness span. `parent` indexes [`Spans::spans`].
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder of the replay; written out once, at the end.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; returns its result and the span's seconds.
    fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let secs = (self.spans[id].end_ns - self.spans[id].start_ns) as f64 * 1e-9;
        (out, secs)
    }

    /// Chrome trace-event JSON (`ph: "X"`), each span carrying its parent and its self
    /// time: its duration minus the part its child spans cover.
    pub fn to_chrome_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let events = (self.spans.iter().enumerate())
            .map(|(id, s)| {
                let dur = s.end_ns - s.start_ns;
                Value::obj([
                    ("name", Value::from(s.name)),
                    ("ph", Value::from("X")),
                    ("pid", Value::from(0u64)),
                    ("tid", Value::from(0u64)),
                    ("ts", Value::from(s.start_ns as f64 / 1e3)),
                    ("dur", Value::from(dur as f64 / 1e3)),
                    (
                        "args",
                        Value::obj([
                            ("id", Value::from(id as u64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                            ),
                            ("self_us", Value::from((dur - child_ns[id]) as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([("traceEvents", Value::Arr(events))]).to_string()
    }
}

/// What the replay of one workload produced.
pub struct Replay {
    /// `(metric name, value)`; names are the replay-sourced rows of `metrics::PER_LAYER`.
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Spans,
    /// The replay's final output, to be checked against the oracle like a sample.
    pub counts: Counts,
}

/// `WorkerPool::execute` calls made for the dispatch-cost metric, each handing every
/// pool thread one empty task — the shape of the pipeline's per-batch and per-round
/// calls, where the cost of a call is what matters, not the cost of a long task list.
const DISPATCH_CALLS: usize = 2_000;

pub fn replay(w: &Workload, input: &Path, sorter: SortAlgorithm) -> Result<Replay, String> {
    if w.k <= 32 {
        replay_k::<Kmer1>(w, input, sorter)
    } else {
        replay_k::<Kmer2>(w, input, sorter)
    }
}

fn replay_k<K: KmerCode>(
    w: &Workload,
    input: &Path,
    sorter: SortAlgorithm,
) -> Result<Replay, String> {
    let cfg = w.config(None);
    let (k, p, num_tasks) = (cfg.k, cfg.total_ranks(), cfg.num_tasks());
    let mut spans = Spans::new();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let io_err = |e: std::io::Error| format!("{}: {e}", input.display());

    // ---- dna: one shard, one thread, the pipeline's reader and options -----------
    let (reads, ingest_s) = spans.scope("dna.ingest", |s| -> std::io::Result<Vec<Read>> {
        let files = s.scope("dna.list_inputs", |_| list_inputs(&[input])).0?;
        let opts = IngestOptions {
            min_fragment: k,
            ..IngestOptions::default()
        };
        let mut shard = s
            .scope("dna.open", |_| ShardReader::open(&files, 0, 1, opts))
            .0?;
        let mut reads: Vec<Read> = Vec::new();
        while let Some(batch) = s.scope("dna.next_batch", |_| shard.next_batch()).0? {
            reads.extend(batch);
        }
        for (i, read) in reads.iter_mut().enumerate() {
            read.id = i as u32;
        }
        Ok(reads)
    });
    let reads = reads.map_err(io_err)?;
    let file_bytes = std::fs::metadata(input).map_err(io_err)?.len();
    let bases: u64 = reads.iter().map(|r| r.len() as u64).sum();
    let kmers: u64 = reads.iter().map(|r| r.seq.num_kmers(k) as u64).sum();
    metrics.extend([
        ("dna.ingest_s", ingest_s),
        ("dna.ingest_mb_per_s", file_bytes as f64 / 1e6 / ingest_s),
        ("dna.reads", reads.len() as f64),
        ("dna.bases", bases as f64),
    ]);

    // ---- supermer: stage per (source rank, task), as the ranks' shards would -----
    // Reads are dealt to `p` source ranks in contiguous runs, like the byte shards.
    let source_of = |read: usize| read * p / reads.len().max(1);
    let scorer = MmerScorer::new(cfg.m, ScoreFunction::Hash { seed: cfg.seed });
    let mut staged: Vec<Vec<Vec<(u32, u32, u32)>>> = vec![vec![Vec::new(); num_tasks]; p];
    let (supermers, parse_s) = spans.scope("supermer.parse", |_| {
        let mut scratch = SupermerScratch::new();
        let mut supermers = 0u64;
        for (i, read) in reads.iter().enumerate() {
            let per_task = &mut staged[source_of(i)];
            for_each_supermer(
                &read.seq,
                k,
                &scorer,
                num_tasks as u32,
                &mut scratch,
                |sm| {
                    supermers += 1;
                    per_task[sm.target as usize].push((i as u32, sm.start, sm.end - sm.start));
                },
            );
        }
        supermers
    });
    metrics.extend([
        ("supermer.parse_s", parse_s),
        ("supermer.mbases_per_s", bases as f64 / 1e6 / parse_s),
        ("supermer.supermers", supermers as f64),
        (
            "supermer.kmers_per_supermer",
            kmers as f64 / supermers.max(1) as f64,
        ),
    ]);
    let task_sizes: Vec<u64> = (0..num_tasks)
        .map(|t| {
            (staged.iter().flat_map(|per_task| &per_task[t]))
                .map(|&(_, _, len)| (len as usize + 1 - k) as u64)
                .sum()
        })
        .collect();

    // ---- wire encode: one supermer block per (source rank, task) -----------------
    let (blocks, encode_s) = spans.scope("wire.encode", |_| {
        let mut blocks: Vec<Vec<Vec<u8>>> = vec![vec![Vec::new(); num_tasks]; p];
        for (per_task, out) in staged.iter().zip(&mut blocks) {
            for (t, refs) in per_task.iter().enumerate().filter(|(_, r)| !r.is_empty()) {
                let mut writer = SupermerBlockWriter::new(&mut out[t], t as u32, refs.len() as u32);
                for &(read, start, len) in refs {
                    let read = &reads[read as usize];
                    writer.push(read.id, start, &read.seq, start as usize, len as usize);
                }
            }
        }
        blocks
    });
    drop(staged);
    let wire_bytes: u64 = blocks.iter().flatten().map(|b| b.len() as u64).sum();
    metrics.extend([
        ("wire.encode_s", encode_s),
        ("wire.encode_mb_per_s", wire_bytes as f64 / 1e6 / encode_s),
        ("wire.bytes", wire_bytes as f64),
        (
            "wire.bytes_per_kmer",
            wire_bytes as f64 / kmers.max(1) as f64,
        ),
    ]);

    // ---- tasklayer: the assignment and round plan every rank derives -------------
    let assignment = assign_greedy(&task_sizes, p);
    let workers = cfg.workers_per_process();
    let lpt_imbalance = (assignment.tasks_of.iter())
        .map(|tasks| {
            let sizes: Vec<u64> = tasks.iter().map(|&t| task_sizes[t]).collect();
            schedule_lpt(&sizes, workers).imbalance()
        })
        .fold(1.0f64, f64::max);
    let budget = (cfg.batch_size as u64 * p as u64).max(1);
    let plan = plan_rounds(&assignment.tasks_of, &task_sizes, budget);
    let rounds = plan.local_rounds.max(1);

    // ---- dmem: the round engine on the workload's backend ------------------------
    // Round `r` from `src` to `dest` is the concatenation of the blocks of the tasks
    // the plan puts in that round; receivers see them source-major.
    let segment = |src: usize, dest: usize, r: usize, out: &mut Vec<u8>| {
        for &t in plan.per_dest[dest].get(r).into_iter().flatten() {
            out.extend_from_slice(&blocks[src][t]);
        }
    };
    let cluster = Cluster::new(p).with_backend(w.backend);
    let (run, _) = spans.scope("dmem.exchange", |_| {
        cluster.run_wire(|ctx| -> Result<(f64, u64, u64), DmemError> {
            let me = ctx.rank();
            let mut sends: Vec<(Vec<u8>, Vec<usize>)> = (0..rounds)
                .map(|r| {
                    let mut buf = Vec::new();
                    let counts = (0..p)
                        .map(|dest| {
                            let before = buf.len();
                            segment(me, dest, r, &mut buf);
                            buf.len() - before
                        })
                        .collect();
                    (buf, counts)
                })
                .collect();
            let mut received: Vec<Vec<u8>> = Vec::with_capacity(rounds);
            let mut recv = FlatReceived::empty();
            // The pipeline's schedule: round r+1 is posted before round r is awaited.
            let start = Instant::now();
            let mut engine = ctx.round_exchange(rounds, "exchange");
            let (buf, counts) = std::mem::take(&mut sends[0]);
            engine.post_round(0, buf, &counts)?;
            for r in 0..rounds {
                if r + 1 < rounds {
                    let (buf, counts) = std::mem::take(&mut sends[r + 1]);
                    engine.post_round(r + 1, buf, &counts)?;
                }
                engine.wait_round(r, &mut recv)?;
                received.push(std::mem::take(&mut recv.data));
            }
            engine.finish(ctx);
            let secs = start.elapsed().as_secs_f64();
            let bytes = received.iter().map(|b| b.len() as u64).sum();
            let sum = received.iter().fold(0u64, |s, b| s.wrapping_add(fnv1a(b)));
            Ok((secs, bytes, sum))
        })
    });
    let mut exchange_s = 0.0f64;
    for (dest, result) in run.results.iter().enumerate() {
        let (secs, bytes, sum) = result
            .as_ref()
            .map_err(|e| format!("exchange replay: {e}"))?;
        exchange_s = exchange_s.max(*secs);
        let (mut want_bytes, mut want_sum) = (0u64, 0u64);
        for r in 0..rounds {
            let mut round = Vec::new();
            (0..p).for_each(|src| segment(src, dest, r, &mut round));
            want_bytes += round.len() as u64;
            want_sum = want_sum.wrapping_add(fnv1a(&round));
        }
        if (*bytes, *sum) != (want_bytes, want_sum) {
            return Err(format!(
                "exchange replay: rank {dest} received other bytes than were sent"
            ));
        }
    }
    let comm = CommStats::aggregate(&run.comm);
    let traffic = comm
        .stage("exchange")
        .ok_or("exchange replay recorded no traffic")?;
    metrics.extend([
        ("dmem.exchange_s", exchange_s),
        (
            "dmem.exchange_mb_per_s",
            wire_bytes as f64 / 1e6 / exchange_s,
        ),
        ("dmem.rounds", rounds as f64),
        ("dmem.payload_bytes", traffic.payload_bytes as f64),
        ("dmem.max_inflight_bytes", traffic.max_inflight_bytes as f64),
    ]);

    // ---- wire decode: every received block back into canonical k-mers ------------
    let all_blocks = || blocks.iter().flatten().filter(|b| !b.is_empty());
    let decode = |block: &[u8], f: &mut dyn FnMut(K)| -> Result<(), String> {
        for view in read_blocks::<K>(block).map_err(|e| format!("wire replay: {e}"))? {
            if let PayloadView::Supermers(supermers) = view.payload {
                for sm in supermers.iter() {
                    sm.for_each_canonical_kmer::<K>(k, |km, _| f(km));
                }
            }
        }
        Ok(())
    };
    let (decoded, decode_s) = spans.scope("wire.decode", |_| -> Result<u64, String> {
        let (mut n, mut acc) = (0u64, 0u64);
        for block in all_blocks() {
            decode(block, &mut |km| {
                n += 1;
                acc ^= km.word_slice()[0];
            })?;
        }
        black_box(acc);
        Ok(n)
    });
    let decoded = decoded?;
    if decoded != kmers {
        return Err(format!(
            "wire replay decoded {decoded} k-mers, parsed {kmers}"
        ));
    }
    metrics.extend([
        ("wire.decode_s", decode_s),
        ("wire.decode_mkmers_per_s", decoded as f64 / 1e6 / decode_s),
    ]);

    // ---- sort: both kernels on the real packed keys of the largest task ----------
    let largest = (0..num_tasks).max_by_key(|&t| task_sizes[t]).unwrap_or(0);
    let mut keys: Vec<K> = Vec::with_capacity(task_sizes[largest] as usize);
    for per_task in &blocks {
        decode(&per_task[largest], &mut |km| keys.push(km))?;
    }
    let first_level = K::WORDS * 8 - K::num_bytes(k);
    let mut by_raduls = keys.clone();
    let ((), raduls_s) = spans.scope("sort.raduls", |_| raduls_sort(&mut by_raduls));
    let ((), paradis_s) = spans.scope("sort.paradis", |_| {
        paradis_sort_from(&mut keys, first_level)
    });
    if by_raduls != keys || !keys.is_sorted() {
        return Err("sort replay: the two kernels disagree".to_string());
    }
    let n_keys = keys.len().max(1) as f64;
    metrics.extend([
        ("sort.raduls_ns_per_key", raduls_s * 1e9 / n_keys),
        ("sort.paradis_ns_per_key", paradis_s * 1e9 / n_keys),
        ("sort.keys", keys.len() as f64),
    ]);
    drop((keys, by_raduls));

    // ---- stage3: index, fused decode+sort+count on a pool as wide as one rank's,
    //      merge. All tasks of all ranks, so seconds × width is the whole count work.
    let params = CountParams::for_kmer::<K>(k, sorter, cfg.min_count, cfg.max_count, false);
    let pool = WorkerPool::new(workers, cfg.threads_per_worker);
    let (index, index_s) = spans.scope("stage3.index", |_| {
        build_block_index::<K, _>(all_blocks().map(Vec::as_slice), k)
    });
    let index = index.map_err(|e| format!("stage3 replay: {e}"))?;
    let (counted, count_s) = spans.scope("stage3.count", |_| {
        count_blocks_parallel(&index, k, &params, &pool)
    });
    let instances = counted.received_records;
    let (merged, merge_s) = spans.scope("stage3.merge", |_| merge_task_counts(counted, &params));
    let distinct = merged.histogram.distinct();
    metrics.extend([
        ("stage3.index_s", index_s),
        ("stage3.count_s", count_s),
        ("stage3.merge_s", merge_s),
        (
            "stage3.mkmers_per_s",
            instances as f64 / 1e6 / (index_s + count_s),
        ),
        ("stage3.instances", instances as f64),
        ("stage3.distinct", distinct as f64),
        (
            "stage3.dup_ratio",
            instances as f64 / distinct.max(1) as f64,
        ),
    ]);

    // ---- tasklayer: what handing a task to the pool costs ------------------------
    let ((), dispatch_s) = spans.scope("tasklayer.dispatch", |_| {
        for _ in 0..DISPATCH_CALLS {
            black_box(pool.execute((0..pool.total_threads()).collect(), black_box::<usize>));
        }
    });
    let dispatched = (DISPATCH_CALLS * pool.total_threads()) as f64;
    metrics.extend([
        ("tasklayer.tasks", num_tasks as f64),
        ("tasklayer.assign_imbalance", assignment.imbalance()),
        ("tasklayer.lpt_imbalance", lpt_imbalance),
        (
            "tasklayer.dispatch_us_per_task",
            dispatch_s * 1e6 / dispatched,
        ),
    ]);

    let counts = Counts {
        histogram: merged.histogram.buckets().to_vec(),
        retained: merged.counts.len() as u64,
        checksum: (merged.counts.iter()).fold(0u64, |sum, (kmer, count)| {
            sum.wrapping_add(pair_hash(key_of(kmer), *count))
        }),
    };
    Ok(Replay {
        metrics,
        spans,
        counts,
    })
}
