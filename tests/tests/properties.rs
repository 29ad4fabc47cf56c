//! Randomised property tests on the core data structures and invariants.
//!
//! The build environment is offline, so instead of `proptest` these use a seeded
//! [`StdRng`] case loop: every property runs over a few dozen random cases whose seeds
//! are fixed, making failures reproducible while still sweeping a wide input space.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hysortk_dna::{DnaSeq, Extension, Kmer1, Kmer2, ReadSet};
use hysortk_sort::{paradis_sort, raduls_sort};
use hysortk_supermer::codec::{decode_extensions, encode_extensions};
use hysortk_supermer::minimizer::{minimizers_deque, minimizers_naive};
use hysortk_supermer::mmer::{MmerScorer, ScoreFunction};
use hysortk_supermer::streaming::{for_each_supermer, SupermerScratch};
use hysortk_supermer::supermer::{build_supermers, Supermer};

/// A random DNA string over ACGT of length `0..max_len`.
fn dna(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len.max(1));
    (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
}

fn dna_exact(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
}

// ---------------- k-mer packing ------------------------------------------------------

#[test]
fn kmer_pack_unpack_round_trips() {
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..64 {
        let k = rng.gen_range(1..=32usize);
        let seq = dna_exact(&mut rng, k);
        let km = Kmer1::from_ascii(&seq);
        assert_eq!(km.to_string_k(k).as_bytes(), &seq[..]);
    }
}

#[test]
fn kmer2_reverse_complement_is_an_involution() {
    let mut rng = StdRng::seed_from_u64(102);
    for _ in 0..64 {
        let k = rng.gen_range(1..=64usize);
        let km = Kmer2::from_ascii(&dna_exact(&mut rng, k));
        assert_eq!(km.reverse_complement(k).reverse_complement(k), km);
    }
}

#[test]
fn kmer_ordering_matches_string_ordering() {
    let mut rng = StdRng::seed_from_u64(103);
    for _ in 0..64 {
        let len = rng.gen_range(1..21usize);
        let a = dna_exact(&mut rng, len);
        let b = dna_exact(&mut rng, len);
        let ka = Kmer1::from_ascii(&a);
        let kb = Kmer1::from_ascii(&b);
        assert_eq!(ka.cmp(&kb), a.cmp(&b), "{:?} vs {:?}", a, b);
    }
}

#[test]
fn canonical_kmer_is_strand_invariant() {
    let mut rng = StdRng::seed_from_u64(104);
    for _ in 0..64 {
        let k = rng.gen_range(1..=32usize);
        let km = Kmer1::from_ascii(&dna_exact(&mut rng, k));
        let rc = km.reverse_complement(k);
        assert_eq!(km.canonical(k), rc.canonical(k));
    }
}

// ---------------- packed sequences ---------------------------------------------------

#[test]
fn dnaseq_round_trips_and_counts_kmers() {
    let mut rng = StdRng::seed_from_u64(105);
    for _ in 0..64 {
        let seq = dna(&mut rng, 500);
        let k = rng.gen_range(1..40usize);
        let packed = DnaSeq::from_ascii(&seq);
        assert_eq!(packed.to_ascii(), seq);
        let expected = if seq.len() >= k { seq.len() - k + 1 } else { 0 };
        assert_eq!(packed.num_kmers(k), expected);
    }
}

// ---------------- sorting ------------------------------------------------------------

/// `n` keys of one of the shapes a radix sort must survive, chosen by `shape`: random,
/// sorted, reversed, skewed onto one hot key, few distinct keys, or keys that share
/// their leading bytes.
fn radix_shape(rng: &mut StdRng, n: usize, shape: usize) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
    match shape % 6 {
        0 => {}
        1 => v.sort_unstable(),
        2 => v.sort_unstable_by(|a, b| b.cmp(a)),
        3 => (v.iter_mut().enumerate())
            .filter(|(i, _)| i % 4 != 3)
            .for_each(|(_, x)| *x = 0xDEAD_BEEF),
        4 => v.iter_mut().for_each(|x| *x %= 97),
        _ => v.iter_mut().for_each(|x| *x &= 0xFF_FFFF),
    }
    v
}

#[test]
fn radix_sorts_agree_with_std_sort() {
    let mut rng = StdRng::seed_from_u64(106);
    for case in 0..36 {
        let n = match case {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(0..3000usize),
        };
        let v = radix_shape(&mut rng, n, case);
        let mut expected = v.clone();
        expected.sort_unstable();
        let mut a = v.clone();
        paradis_sort(&mut a);
        assert_eq!(a, expected, "paradis, case {case}");
        let mut b = v;
        raduls_sort(&mut b);
        assert_eq!(b, expected, "raduls, case {case}");
    }
}

#[test]
fn monomorphized_kernels_match_closure_paths_on_u64_records() {
    // Against std's stable sort by key: the RADULS kernel must match it record for
    // record (payloads of equal keys keep their input order), the unstable PARADIS
    // kernel key for key, with the same records in each key's group.
    let mut rng = StdRng::seed_from_u64(107);
    for round in 0..24 {
        let n = rng.gen_range(0..40_000usize);
        let v: Vec<(u64, u32)> = (radix_shape(&mut rng, n, round).into_iter())
            .zip(0..)
            .collect();
        let mut expected = v.clone();
        expected.sort_by_key(|r| r.0);

        let mut kernel = v.clone();
        raduls_sort(&mut kernel);
        assert_eq!(kernel, expected, "raduls kernel diverged (n = {n})");

        let mut kernel = v;
        paradis_sort(&mut kernel);
        assert!(kernel.iter().map(|r| r.0).eq(expected.iter().map(|r| r.0)));
        kernel.sort_unstable();
        expected.sort_unstable();
        assert_eq!(kernel, expected, "paradis kernel diverged (n = {n})");
    }
}

#[test]
fn monomorphized_kernels_match_closure_paths_on_u128_records() {
    let mut rng = StdRng::seed_from_u64(108);
    for _ in 0..12 {
        let n = rng.gen_range(0..30_000usize);
        // Mask some keys down so whole levels go trivial across the word boundary.
        let mask = if rng.gen_bool(0.5) {
            u128::MAX
        } else {
            0xFFFF_FFFF_FFFF_FFFF_FFFF
        }; // 80 bits
        let v: Vec<(u128, u32)> = (0..n as u32)
            .map(|i| (rng.gen::<u128>() & mask, i))
            .collect();
        let mut expected = v.clone();
        expected.sort_by_key(|r| r.0);

        let mut kernel = v.clone();
        raduls_sort(&mut kernel);
        assert_eq!(kernel, expected, "raduls kernel diverged (n = {n})");

        let mut kernel = v;
        paradis_sort(&mut kernel);
        kernel.sort_unstable();
        expected.sort_unstable();
        assert_eq!(kernel, expected, "paradis kernel diverged (n = {n})");
    }
}

/// The RADULS kernel on real k-mer keys, bare and as `(K, Extension)` records, against
/// std's sorts (k-mers order as their packed words): `sort_unstable` for the keys,
/// the stable `sort_by_key` for the records.
fn raduls_kernel_matches_oracles_on_kmers<K: hysortk_dna::KmerCode>(seed: u64, k: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    // 48x coverage of a genome with a satellite repeat: ~20 copies per k-mer, one hot
    // run of identical k-mers, and 150 Ki keys — out of cache for one- and two-word keys.
    let mut genome = dna_exact(&mut rng, 3_000);
    genome.extend(std::iter::repeat_n(b'A', 400));
    let kmers: Vec<K> = (0..48)
        .flat_map(|_| {
            let seq = DnaSeq::from_ascii(&genome);
            seq.canonical_kmers::<K>(k).collect::<Vec<_>>()
        })
        .collect();
    let mut aux = Vec::new();
    for n in [0, 1, 33, 2_000, kmers.len()] {
        let mut keys = kmers[..n].to_vec();
        // Deterministic shuffle: the input order of equal keys is what stability keeps.
        for i in (1..n).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        let mut expected = keys.clone();
        expected.sort_unstable();
        let mut by_kernel = keys.clone();
        hysortk_sort::raduls_sort_with_aux(&mut by_kernel, &mut aux);
        assert_eq!(by_kernel, expected, "kernel: k = {k}, n = {n}");

        let records: Vec<(K, Extension)> = keys
            .iter()
            .enumerate()
            .map(|(i, &km)| (km, Extension::new(7, i as u32)))
            .collect();
        let mut expected = records.clone();
        expected.sort_by_key(|r| r.0);
        let mut by_kernel = records;
        raduls_sort(&mut by_kernel);
        assert_eq!(by_kernel, expected, "records (stability): k = {k}, n = {n}");
    }
}

#[test]
fn raduls_kernel_matches_oracles_on_one_word_kmers() {
    for (i, k) in [1usize, 15, 21, 31, 32].into_iter().enumerate() {
        raduls_kernel_matches_oracles_on_kmers::<Kmer1>(120 + i as u64, k);
    }
}

#[test]
fn raduls_kernel_matches_oracles_on_two_word_kmers() {
    for (i, k) in [33usize, 55, 64].into_iter().enumerate() {
        raduls_kernel_matches_oracles_on_kmers::<Kmer2>(130 + i as u64, k);
    }
}

// ---------------- flat exchange ------------------------------------------------------

#[test]
fn flat_exchange_round_trips_against_the_nested_path() {
    // Random irregular byte matrices through both exchange shapes: the nested
    // `alltoall_rounds` and a one-round flat `round_exchange` must each deliver what
    // every rank sent, rank for rank, and record the same payload, on both backends.
    use hysortk_dmem::{Backend, Cluster, DmemError, FlatReceived};
    if hysortk_dmem::ran_in_own_process("flat_exchange_round_trips_against_the_nested_path") {
        return;
    }
    let matrix = |seed: u64, src: usize, p: usize| -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed * 100 + src as u64);
        (0..p)
            .map(|_| {
                let len = rng.gen_range(0..200usize);
                (0..len).map(|_| rng.gen()).collect()
            })
            .collect()
    };
    for backend in [Backend::Thread, Backend::Process] {
        for p in 1..=5usize {
            let seed = p as u64;
            let run =
                Cluster::new(p)
                    .with_backend(backend)
                    .run_wire(|ctx| -> Result<_, DmemError> {
                        let nested = matrix(seed, ctx.rank(), ctx.size());
                        let counts: Vec<usize> = nested.iter().map(Vec::len).collect();
                        let flat = nested.concat();
                        let from_nested = ctx.alltoall_rounds(nested, 16, "nested")?.received;
                        let mut exchange = ctx.round_exchange(1, "flat");
                        let mut recv = FlatReceived::empty();
                        exchange.post_round(0, flat, &counts)?;
                        exchange.wait_round(0, &mut recv)?;
                        exchange.finish(ctx);
                        let from_flat: Vec<Vec<u8>> = (0..ctx.size())
                            .map(|src| recv.from_rank(src).to_vec())
                            .collect();
                        let payload =
                            |label: &str| ctx.comm_stats().stage(label).unwrap().payload_bytes;
                        Ok((
                            (from_nested, payload("nested")),
                            (from_flat, payload("flat")),
                        ))
                    });
            for (dst, res) in run.results.into_iter().enumerate() {
                let ((nested, nested_payload), (flat, flat_payload)) =
                    res.expect("no faults injected");
                let sent: Vec<Vec<u8>> = (0..p)
                    .map(|src| matrix(seed, src, p).swap_remove(dst))
                    .collect();
                assert_eq!(nested, sent, "{backend} p={p} rank {dst}: nested path");
                assert_eq!(flat, sent, "{backend} p={p} rank {dst}: flat path");
                assert_eq!(nested_payload, flat_payload, "{backend} p={p} rank {dst}");
            }
        }
    }
}

// ---------------- minimizers and supermers -------------------------------------------

#[test]
fn deque_minimizers_equal_naive_minimizers() {
    let mut rng = StdRng::seed_from_u64(110);
    for _ in 0..48 {
        let seq = dna(&mut rng, 400);
        let m = rng.gen_range(3..16usize);
        let window = rng.gen_range(0..30usize);
        let k = m + window;
        let packed = DnaSeq::from_ascii(&seq);
        let scorer = MmerScorer::new(m, ScoreFunction::Hash { seed: 17 });
        assert_eq!(
            minimizers_deque(&packed, k, &scorer),
            minimizers_naive(&packed, k, &scorer),
            "m = {m}, k = {k}"
        );
    }
}

#[test]
fn supermers_partition_the_kmers_of_a_read() {
    let mut rng = StdRng::seed_from_u64(111);
    let mut checked = 0;
    while checked < 32 {
        let seq = dna(&mut rng, 600);
        if seq.len() < 31 {
            continue;
        }
        checked += 1;
        let targets = rng.gen_range(1..64u32);
        let read = hysortk_dna::Read::from_ascii(0, "p", &seq);
        let scorer = MmerScorer::new(11, ScoreFunction::Hash { seed: 3 });
        let supermers = build_supermers(&read, 31, &scorer, targets);
        let total: usize = supermers.iter().map(|s| s.num_kmers(31)).sum();
        assert_eq!(total, read.seq.num_kmers(31));
        let mut from_supermers: Vec<Kmer1> = supermers
            .iter()
            .flat_map(|s| {
                s.canonical_kmers_with_pos::<Kmer1>(31)
                    .into_iter()
                    .map(|(km, _)| km)
            })
            .collect();
        let mut direct: Vec<Kmer1> = read.seq.canonical_kmers(31).collect();
        from_supermers.sort();
        direct.sort();
        assert_eq!(from_supermers, direct);
    }
}

#[test]
fn streaming_extractor_is_byte_identical_to_build_supermers() {
    // The fused streaming pass (two-scan window minimum, span callbacks, word-level
    // subrange copies) must reproduce the vec-based reference exactly: same read ids,
    // same offsets, same packed bases, same targets — over random k/m/targets,
    // including reads shorter than k and m == k windows.
    let mut rng = StdRng::seed_from_u64(112);
    let mut scratch = SupermerScratch::new();
    for trial in 0..48 {
        let seq = dna(&mut rng, 500);
        let m = rng.gen_range(1..=16usize);
        let k = m + rng.gen_range(0..30usize);
        let targets = rng.gen_range(1..64u32);
        let read = hysortk_dna::Read::from_ascii(trial, "s", &seq);
        let scorer = MmerScorer::new(m, ScoreFunction::Hash { seed: 17 });

        let mut streamed: Vec<Supermer> = Vec::new();
        for_each_supermer(&read.seq, k, &scorer, targets, &mut scratch, |span| {
            streamed.push(Supermer {
                read_id: read.id,
                start: span.start,
                seq: read.seq.subseq(span.start as usize, span.len()),
                target: span.target,
            });
        });
        assert_eq!(
            streamed,
            build_supermers(&read, k, &scorer, targets),
            "trial={trial} k={k} m={m} targets={targets}"
        );
    }
}

// ---------------- extension codec ----------------------------------------------------

#[test]
fn extension_codec_round_trips() {
    let mut rng = StdRng::seed_from_u64(112);
    for _ in 0..64 {
        let n = rng.gen_range(0..500usize);
        let records: Vec<Extension> = (0..n)
            .map(|_| Extension::new(rng.gen(), rng.gen()))
            .collect();
        let encoded = encode_extensions(&records);
        assert_eq!(decode_extensions(&encoded), Some(records.clone()));
        // Lossless and never larger than ~9/8 of the raw encoding.
        assert!(encoded.wire_bytes() <= records.len() * 9);
    }
}

// ---------------- counting invariants ------------------------------------------------

#[test]
fn hysortk_counts_match_reference_on_arbitrary_reads() {
    let mut rng = StdRng::seed_from_u64(113);
    for _ in 0..16 {
        let num_reads = rng.gen_range(1..12usize);
        let seqs: Vec<Vec<u8>> = (0..num_reads).map(|_| dna(&mut rng, 200)).collect();
        let k = rng.gen_range(5..24usize);
        let ranks = rng.gen_range(1..5usize);
        let reads = ReadSet::from_ascii_reads(&seqs);
        let mut cfg = hysortk_core::HySortKConfig::small(k, (k / 2).max(3), ranks);
        cfg.min_count = 1;
        cfg.max_count = 1_000_000;
        let result = hysortk_core::count_kmers::<Kmer1>(&reads, &cfg);
        let expected = hysortk_core::reference_counts_bounded::<Kmer1>(&reads, k, 1, 1_000_000);
        assert_eq!(result.counts, expected, "k = {k}, ranks = {ranks}");
        assert_eq!(result.report.distinct_kmers, result.histogram.distinct());
    }
}

// ---------------- overlapped round engine vs bulk-synchronous exchange --------------

/// Compare the full pipeline under both round budgets on one configuration: batched
/// rounds (`overlap = true`) must be byte-identical to one unbounded round
/// (`overlap = false`) — counts, extensions and histogram. Both run the same round
/// loop, so agreeing with each other is not enough: the result is also held against
/// the naive oracle, which shares no code with the pipeline.
fn assert_overlap_matches_bulk(
    reads: &ReadSet,
    cfg: &hysortk_core::HySortKConfig,
    context: &str,
) -> hysortk_core::CountResult<Kmer1> {
    let mut bulk_cfg = cfg.clone();
    bulk_cfg.overlap = false;
    let bulk = hysortk_core::count_kmers::<Kmer1>(reads, &bulk_cfg);
    let mut overlap_cfg = cfg.clone();
    overlap_cfg.overlap = true;
    let overlapped = hysortk_core::count_kmers::<Kmer1>(reads, &overlap_cfg);
    assert_eq!(overlapped.counts, bulk.counts, "counts: {context}");
    assert_eq!(
        overlapped.extensions, bulk.extensions,
        "extensions: {context}"
    );
    assert_eq!(overlapped.histogram, bulk.histogram, "histogram: {context}");
    assert_eq!(
        overlapped
            .report
            .comm
            .stage("exchange")
            .unwrap()
            .payload_bytes,
        bulk.report.comm.stage("exchange").unwrap().payload_bytes,
        "round payloads must conserve the bulk payload: {context}"
    );
    let (min, max) = (cfg.min_count, cfg.max_count);
    let oracle = hysortk_core::reference_counts_bounded::<Kmer1>(reads, cfg.k, min, max);
    assert_eq!(
        overlapped.counts, oracle,
        "counts against the oracle: {context}"
    );
    assert_eq!(
        overlapped.counts.sorted_vec(),
        oracle,
        "the merged array against the oracle: {context}"
    );
    if cfg.with_extension {
        let (kmers, lists): (Vec<Kmer1>, Vec<Vec<Extension>>) =
            hysortk_core::reference_extensions::<Kmer1>(reads, cfg.k, min, max)
                .into_iter()
                .unzip();
        let counted: Vec<Kmer1> = overlapped.counts.iter().map(|&(km, _)| km).collect();
        assert_eq!(counted, kmers, "extension k-mers: {context}");
        assert_eq!(
            overlapped.extensions,
            Some(lists),
            "extensions against the oracle: {context}"
        );
    }
    overlapped
}

#[test]
fn overlapped_pipeline_is_byte_identical_to_bulk_across_the_grid() {
    // Ranks × batch sizes {1 record, the small-config default, larger than the input}
    // × extensions on/off, on random reads with genuine multiplicities.
    let mut rng = StdRng::seed_from_u64(200);
    let genome: Vec<u8> = (0..2_000).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
    let seqs: Vec<Vec<u8>> = (0..60)
        .map(|_| {
            let start = rng.gen_range(0..genome.len() - 250);
            genome[start..start + 250].to_vec()
        })
        .collect();
    let reads = ReadSet::from_ascii_reads(&seqs);

    for ranks in [1usize, 2, 7] {
        for batch_size in [1usize, 4_096, 1_000_000_000] {
            for with_extension in [false, true] {
                let mut cfg = hysortk_core::HySortKConfig::small(21, 9, ranks);
                cfg.min_count = 1;
                cfg.max_count = 1_000_000;
                cfg.batch_size = batch_size;
                cfg.with_extension = with_extension;
                let context = format!("ranks={ranks} batch={batch_size} ext={with_extension}");
                assert_overlap_matches_bulk(&reads, &cfg, &context);
            }
        }
    }
}

#[test]
fn overlapped_pipeline_matches_bulk_on_heavy_hitter_workloads() {
    // Satellite repeats trigger the heavy-hitter kmerlist conversion; the pre-counted
    // wire form must flow through the round engine identically, at single-record
    // batches (maximum round count) and the default batch.
    let mut seqs: Vec<Vec<u8>> = Vec::new();
    for _ in 0..40 {
        seqs.push(b"AATGG".repeat(60));
    }
    let mut rng = StdRng::seed_from_u64(201);
    for _ in 0..40 {
        seqs.push((0..300).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect());
    }
    let reads = ReadSet::from_ascii_reads(&seqs);

    for ranks in [2usize, 7] {
        for batch_size in [1usize, 4_096] {
            let mut cfg = hysortk_core::HySortKConfig::small(15, 7, ranks);
            cfg.min_count = 1;
            cfg.max_count = 1_000_000;
            cfg.batch_size = batch_size;
            cfg.heavy_hitter = hysortk_task::HeavyHitterPolicy {
                factor: 2.0,
                enabled: true,
            };
            let context = format!("heavy ranks={ranks} batch={batch_size}");
            let result = assert_overlap_matches_bulk(&reads, &cfg, &context);
            assert!(
                result.report.heavy_tasks > 0,
                "{context}: workload not heavy"
            );
        }
    }
}

// ---------------- pool width: the round loop's job lists -----------------------------

/// The three send-side shapes the round loop's fills write: plain supermers, a
/// heavy-hitter kmerlist among them (satellite input), and supermers with extensions.
fn job_list_shapes() -> Vec<(&'static str, ReadSet, hysortk_core::HySortKConfig)> {
    let mut rng = StdRng::seed_from_u64(220);
    let genome: Vec<u8> = (0..1_200).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
    let plain: Vec<Vec<u8>> = (0..40)
        .map(|_| {
            let start = rng.gen_range(0..genome.len() - 180);
            genome[start..start + 180].to_vec()
        })
        .collect();
    let mut satellite = plain.clone();
    satellite.extend((0..30).map(|_| b"AATGG".repeat(50)));

    let mut base = hysortk_core::HySortKConfig::small(17, 8, 1);
    base.min_count = 1;
    base.max_count = 1_000_000;
    base.heavy_hitter = hysortk_task::HeavyHitterPolicy::disabled();
    let mut heavy = base.clone();
    heavy.heavy_hitter = hysortk_task::HeavyHitterPolicy {
        factor: 2.0,
        enabled: true,
    };
    let mut extensions = base.clone();
    extensions.with_extension = true;
    vec![
        ("supermers", ReadSet::from_ascii_reads(&plain), base),
        ("heavy", ReadSet::from_ascii_reads(&satellite), heavy),
        ("extensions", ReadSet::from_ascii_reads(&plain), extensions),
    ]
}

/// Threads per rank {1, 2, 3, 5} × ranks {1, 2, 3} × batch sizes {1 record, the
/// small-config default, larger than the input} × the three shapes: every overlapped
/// run is byte-identical — counts, extensions, histogram — to the bulk-synchronous run
/// and to the overlapped run at one thread, and moves exactly the same exchange
/// traffic as the latter (same rounds, same bytes to every destination). The task
/// count is held at `ranks × 30` across widths, so the runs serialize the same tasks.
fn assert_pool_width_never_changes_the_output(backend: hysortk_dmem::Backend) {
    for (shape, reads, shape_cfg) in job_list_shapes() {
        for ranks in [1usize, 2, 3] {
            for batch_size in [1usize, 4_096, 1_000_000_000] {
                let cfg_at = |threads: usize, overlap: bool| {
                    let mut cfg = shape_cfg.clone();
                    cfg.processes_per_node = ranks;
                    cfg.threads_per_process = threads;
                    cfg.tasks_per_worker = 30 / threads;
                    cfg.batch_size = batch_size;
                    cfg.overlap = overlap;
                    cfg.backend = backend;
                    cfg
                };
                let bulk = hysortk_core::count_kmers::<Kmer1>(&reads, &cfg_at(1, false));
                let one = hysortk_core::count_kmers::<Kmer1>(&reads, &cfg_at(1, true));
                assert_eq!(
                    one.report.heavy_tasks > 0,
                    shape == "heavy",
                    "{shape} ranks={ranks}"
                );
                for threads in [1usize, 2, 3, 5] {
                    let context =
                        format!("{shape} ranks={ranks} batch={batch_size} threads={threads}");
                    let run = hysortk_core::count_kmers::<Kmer1>(&reads, &cfg_at(threads, true));
                    for (name, other) in [("bulk", &bulk), ("one thread", &one)] {
                        assert_eq!(run.counts, other.counts, "counts vs {name}: {context}");
                        assert_eq!(
                            run.extensions, other.extensions,
                            "extensions vs {name}: {context}"
                        );
                        assert_eq!(
                            run.histogram, other.histogram,
                            "histogram vs {name}: {context}"
                        );
                    }
                    assert_eq!(
                        run.report.comm.stage("exchange"),
                        one.report.comm.stage("exchange"),
                        "exchange traffic: {context}"
                    );
                    assert_eq!(
                        run.report.comm.sent_to, one.report.comm.sent_to,
                        "bytes per destination: {context}"
                    );
                    assert_eq!(
                        run.report.comm.stage("exchange").unwrap().payload_bytes,
                        bulk.report.comm.stage("exchange").unwrap().payload_bytes,
                        "round payloads must conserve the bulk payload: {context}"
                    );
                }
            }
        }
    }
}

#[test]
fn pool_width_never_changes_the_output_on_the_thread_backend() {
    assert_pool_width_never_changes_the_output(hysortk_dmem::Backend::Thread);
}

#[test]
fn pool_width_never_changes_the_output_on_the_process_backend() {
    if hysortk_dmem::ran_in_own_process(
        "pool_width_never_changes_the_output_on_the_process_backend",
    ) {
        return;
    }
    assert_pool_width_never_changes_the_output(hysortk_dmem::Backend::Process);
}

// ---------------- process backend vs thread backend ----------------------------------

#[test]
fn process_backend_is_byte_identical_to_thread_backend_across_the_grid() {
    if hysortk_dmem::ran_in_own_process(
        "process_backend_is_byte_identical_to_thread_backend_across_the_grid",
    ) {
        return;
    }
    // Forked rank processes moving every byte over UNIX domain sockets must reproduce
    // the in-process channel backend exactly — counts, extensions, histogram and
    // exchanged payload bytes — across rank counts and both exchange modes, on reads
    // with genuine multiplicities.
    let mut rng = StdRng::seed_from_u64(210);
    let genome: Vec<u8> = (0..1_500).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
    let seqs: Vec<Vec<u8>> = (0..40)
        .map(|_| {
            let start = rng.gen_range(0..genome.len() - 200);
            genome[start..start + 200].to_vec()
        })
        .collect();
    let reads = ReadSet::from_ascii_reads(&seqs);

    for ranks in [1usize, 2, 7] {
        for overlap in [false, true] {
            let mut cfg = hysortk_core::HySortKConfig::small(21, 9, ranks);
            cfg.min_count = 1;
            cfg.max_count = 1_000_000;
            cfg.batch_size = 2_048;
            cfg.with_extension = true;
            cfg.overlap = overlap;
            let context = format!("ranks={ranks} overlap={overlap}");

            cfg.backend = hysortk_dmem::Backend::Thread;
            let thread = hysortk_core::count_kmers::<Kmer1>(&reads, &cfg);
            cfg.backend = hysortk_dmem::Backend::Process;
            let process = hysortk_core::count_kmers::<Kmer1>(&reads, &cfg);

            assert_eq!(process.counts, thread.counts, "counts: {context}");
            assert_eq!(
                process.extensions, thread.extensions,
                "extensions: {context}"
            );
            assert_eq!(process.histogram, thread.histogram, "histogram: {context}");
            assert_eq!(
                process.report.comm.stage("exchange").unwrap().payload_bytes,
                thread.report.comm.stage("exchange").unwrap().payload_bytes,
                "exchange payload: {context}"
            );
        }
    }
}

/// Nearly every k-mer of random reads is distinct, so with `min_count = 1` the retained
/// table is as large as the input: about 190 k two-word entries in `ranks × 3` sorted
/// task runs cross the root's assembly — out of forked ranks, through the result codec —
/// and must come out as the ascending reference table on both backends, the root
/// merging on two threads (2 × 1 and 1 × 2 ranks × threads) and on six (3 × 2).
#[test]
fn a_large_retained_table_of_two_word_kmers_assembles_identically_on_both_backends() {
    if hysortk_dmem::ran_in_own_process(
        "a_large_retained_table_of_two_word_kmers_assembles_identically_on_both_backends",
    ) {
        return;
    }
    let mut rng = StdRng::seed_from_u64(230);
    let seqs: Vec<Vec<u8>> = (0..400).map(|_| dna_exact(&mut rng, 520)).collect();
    let reads = ReadSet::from_ascii_reads(&seqs);
    let k = 41;
    let expected = hysortk_core::reference_counts_bounded::<Kmer2>(&reads, k, 1, 1_000_000);
    assert!(expected.len() > 180_000 && expected.is_sorted_by_key(|entry| entry.0));
    for (ranks, threads) in [(2usize, 1usize), (1, 2), (3, 2)] {
        for backend in [
            hysortk_dmem::Backend::Thread,
            hysortk_dmem::Backend::Process,
        ] {
            let mut cfg = hysortk_core::HySortKConfig::small(k, 17, ranks);
            cfg.min_count = 1;
            cfg.max_count = 1_000_000;
            cfg.threads_per_process = threads;
            cfg.backend = backend;
            let result = hysortk_core::count_kmers::<Kmer2>(&reads, &cfg);
            assert!(
                result.counts == expected,
                "ranks={ranks} threads={threads} {backend:?}"
            );
            assert_eq!(result.histogram.distinct(), expected.len() as u64);
        }
    }
}

// ---------------- sectioned tasks: stage 1 cuts, stage 3 counts section by section ---

/// One grid point of the sectioned property: a run over `reads` on one worker per rank
/// of `threads` threads and one task per worker — few tasks, so each is cut into
/// several sections, which the worker's threads split — against the oracle: counts,
/// the merged array, the histogram and, with extensions, the lists.
fn assert_sectioned_run_matches_the_oracle<K: hysortk_dna::KmerCode>(
    reads: &ReadSet,
    k: usize,
    oracle: &(Vec<(K, u64)>, hysortk_core::KmerHistogram),
    extensions: Option<&Vec<(K, Vec<Extension>)>>,
    layout: (hysortk_dmem::Backend, usize, usize, bool),
) {
    let (backend, ranks, threads, overlap) = layout;
    let mut cfg = hysortk_core::HySortKConfig::small_with_threads(k, k.min(46) / 2, ranks, threads);
    cfg.threads_per_worker = threads;
    cfg.tasks_per_worker = 1;
    cfg.min_count = 2;
    cfg.max_count = 1_000;
    cfg.backend = backend;
    cfg.overlap = overlap;
    cfg.with_extension = extensions.is_some();
    let context = format!(
        "k={k} {backend:?} ranks={ranks} threads={threads} overlap={overlap} ext={}",
        cfg.with_extension
    );
    let result = hysortk_core::count_kmers::<K>(reads, &cfg);
    assert!(
        result.report.sections > 1,
        "{context}: {} section(s)",
        result.report.sections
    );
    assert!(result.report.count_buffer_bytes > 0, "{context}");
    let (counts, histogram) = oracle;
    assert!(result.counts == *counts, "counts: {context}");
    assert!(
        result.counts.sorted_vec() == *counts,
        "the merged array: {context}"
    );
    assert_eq!(&result.histogram, histogram, "histogram: {context}");
    if let Some(expected) = extensions {
        let [table] = result.counts.runs() else {
            panic!("{context}: an extension run holds one table")
        };
        let lists = result.extensions.as_ref().expect("an extension run");
        assert_eq!(table.len(), expected.len(), "{context}");
        for ((pair, list), (kmer, want)) in table.iter().zip(lists).zip(expected) {
            assert_eq!((&pair.0, list), (kmer, want), "extensions: {context}");
        }
    } else {
        // No assembly: one run per section that retained a k-mer.
        assert!(result.report.result_runs > ranks, "{context}");
    }
}

/// An input big enough that every layout of the grid cuts its tasks into sections —
/// asserted through `RunReport::sections` — counted on both backends × ranks {1, 2, 3}
/// × threads {1, 2} × k ∈ {31, 55} × overlap on/off × extensions off/on,
/// byte-identical to the oracle.
#[test]
fn sectioned_runs_match_the_oracle_across_the_grid() {
    if hysortk_dmem::ran_in_own_process("sectioned_runs_match_the_oracle_across_the_grid") {
        return;
    }
    let mut rng = StdRng::seed_from_u64(240);
    let genome = dna_exact(&mut rng, 60_000);
    let seqs: Vec<Vec<u8>> = (0..500)
        .map(|_| {
            let start = rng.gen_range(0..genome.len() - 1_000);
            genome[start..start + 1_000].to_vec()
        })
        .collect();
    let reads = ReadSet::from_ascii_reads(&seqs);
    fn oracle<K: hysortk_dna::KmerCode>(
        reads: &ReadSet,
        k: usize,
    ) -> (Vec<(K, u64)>, hysortk_core::KmerHistogram) {
        let mut histogram = hysortk_core::KmerHistogram::new(1_002);
        let all = hysortk_core::reference_counts_bounded::<K>(reads, k, 1, u64::MAX);
        all.iter().for_each(|&(_, count)| histogram.record(count));
        let retained = all.into_iter().filter(|&(_, c)| (2..=1_000).contains(&c));
        (retained.collect(), histogram)
    }
    let (one_word, two_words) = (oracle::<Kmer1>(&reads, 31), oracle::<Kmer2>(&reads, 55));
    let extensions = (
        hysortk_core::reference_extensions::<Kmer1>(&reads, 31, 2, 1_000),
        hysortk_core::reference_extensions::<Kmer2>(&reads, 55, 2, 1_000),
    );
    for backend in [
        hysortk_dmem::Backend::Thread,
        hysortk_dmem::Backend::Process,
    ] {
        for ranks in [1usize, 2, 3] {
            for threads in [1usize, 2] {
                for overlap in [true, false] {
                    let layout = (backend, ranks, threads, overlap);
                    for with_extension in [false, true] {
                        let k31 = with_extension.then_some(&extensions.0);
                        let k55 = with_extension.then_some(&extensions.1);
                        assert_sectioned_run_matches_the_oracle(&reads, 31, &one_word, k31, layout);
                        assert_sectioned_run_matches_the_oracle(
                            &reads, 55, &two_words, k55, layout,
                        );
                    }
                }
            }
        }
    }
}
