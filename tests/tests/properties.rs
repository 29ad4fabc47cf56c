//! Randomised property tests on the core data structures and invariants.
//!
//! The build environment is offline, so instead of `proptest` these use a seeded
//! [`StdRng`] case loop: every property runs over a few dozen random cases whose seeds
//! are fixed, making failures reproducible while still sweeping a wide input space.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[macro_use]
mod grid;
use grid::Group;
use hysortk_dmem::Backend;

use hysortk_dna::{DnaSeq, Extension, Kmer1, Kmer2};
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

// ---------------- the pipeline on every layout ---------------------------------------

// Rows of the pipeline grid (`grid/mod.rs`), each run once against the oracle.
grid_tests! {
    /// Ranks × round budgets {1 record, the default, more than the input, bulk} ×
    /// extensions; the payload is one figure whatever the budget.
    overlapped_pipeline_is_byte_identical_to_bulk_across_the_grid => Group::Overlap;
    /// The satellite repeat under a factor-2 heavy-hitter policy: ranks × round budgets.
    overlapped_pipeline_matches_bulk_on_heavy_hitter_workloads => Group::Heavy;
    /// Threads per rank {1, 2, 3, 5} × ranks × round budgets × three send-side shapes;
    /// the width changes no byte of the exchange.
    pool_width_never_changes_the_output_on_the_thread_backend => Group::PoolWidth(Backend::Thread);
    pool_width_never_changes_the_output_on_the_process_backend => Group::PoolWidth(Backend::Process);
    /// Both backends × ranks {1, 2, 7} × overlap, with extensions; the payload is one
    /// figure on either backend.
    process_backend_is_byte_identical_to_thread_backend_across_the_grid => Group::Backends;
}
