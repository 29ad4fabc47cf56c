//! The in-cache `(k-mer, count)` table that collapses duplicates while decoding.
//!
//! Sort & count (§3.1) sorts every k-mer *instance*, but a section of a deep input holds
//! many copies of each key. A [`CountTable`] counts instances as the wire decode yields
//! them — open addressing, linear probing, power-of-two slots, one `fmix64` finalizer
//! per key word — so that only the distinct keys are sorted. A table never grows on its
//! own and refuses nothing: its caller reserves room ([`CountTable::room`]) for a
//! supermer's k-mers before adding them, and decides what happens when there is none.
//! Stage 3 then sorts the section instead (`crate::stage3`), and a lane hashes only
//! while its [`Duplication`] gate has seen enough duplicates to win; [`precount`], the
//! §3.5 heavy-hitter pre-count, grows the table up to a size bound.

use std::mem::size_of;

use hysortk_dna::kmer::KmerCode;
use hysortk_sort::{count_sorted_runs, paradis_sort_from, raduls_sort};
use hysortk_supermer::mmer::fmix64;

use crate::wire::SupermersView;

/// The smallest table: a section of a few records still gets a few cache lines.
const MIN_SLOTS: usize = 64;

/// Instances per distinct key from which a stage-3 lane counts a section in its table
/// instead of sorting every record. Measured on a 2-vCPU 2.0 GHz Xeon (48 KiB L1d and
/// 2 MiB L2 per core), one lane counting 256 sections of ~9 Ki one-word records at
/// k = 31 both ways, table time over sort time: 1.13 at 2.2 instances per distinct key,
/// 0.99 at 2.7, 0.91 at 3.1, 0.89 at 3.5, 0.78 at 4.0, 0.71 at 5.8, 0.68 at 9.6 and
/// 19.1 (64 sections of ~36 Ki records: 0.71 at 5.8, 0.65 at 9.6, 0.63 at 19.1). The
/// crossover is at about 2.7; 3 leaves a margin for a section the lane's recent
/// sections mispredict.
const TABLE_MIN_DUPLICATION: f64 = 3.0;

/// The most bytes a stage-3 section's table takes: half of
/// [`hysortk_sort::IN_CACHE_BYTES`], so the table and the sorted distinct keys share L2.
const TABLE_BYTES: usize = hysortk_sort::IN_CACHE_BYTES / 2;

/// A stage-3 lane's duplication gate: instances and distinct keys over the sections it
/// counted, each older section weighing half as much as the next. Sorting a section
/// counts its distinct keys as hashing does, so the gate learns from every section —
/// from one that overflowed its table too — and needs no probe.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Duplication {
    instances: u64,
    distinct: u64,
}

impl Duplication {
    /// Learn from a section of `instances` records holding `distinct` keys.
    pub(crate) fn observe(&mut self, instances: usize, distinct: usize) {
        if instances > 0 {
            self.instances = self.instances / 2 + instances as u64;
            self.distinct = self.distinct / 2 + distinct as u64;
        }
    }

    /// The table size for a section of `records` records, or `None` when it is to be
    /// sorted: the duplication seen is below [`TABLE_MIN_DUPLICATION`], or the distinct
    /// keys it predicts do not fit a table of at most [`TABLE_BYTES`].
    pub(crate) fn table_slots<K: KmerCode>(&self, records: usize) -> Option<usize> {
        let Duplication {
            instances,
            distinct,
        } = *self;
        if distinct == 0 || (instances as f64) < TABLE_MIN_DUPLICATION * distinct as f64 {
            return None;
        }
        // Four slots per distinct key the section is expected to hold, so that most
        // probes end at the first slot — or, at the size bound, at least two.
        let expected = (records as u64 * distinct).div_ceil(instances) as usize;
        let slots = (4 * expected).next_power_of_two().max(MIN_SLOTS);
        let slots = slots.min(CountTable::<K>::slots_within(TABLE_BYTES));
        (2 * expected <= slots).then_some(slots)
    }
}

/// A slot of the table; a count of zero marks it empty.
type Slot<K> = (K, u64);

/// Open-addressing `(k-mer, count)` table of a power-of-two number of slots, filled to
/// at most three quarters of them.
#[derive(Debug, Default)]
pub(crate) struct CountTable<K> {
    /// The slot buffer. Only `slots[..=mask]` is in use, and every slot outside it is
    /// empty; the buffer never shrinks.
    slots: Vec<Slot<K>>,
    mask: usize,
    /// Occupied slots.
    len: usize,
    /// Occupied slots the fill bound allows.
    limit: usize,
}

impl<K: KmerCode> CountTable<K> {
    /// The most slots of at most `bytes` bytes, a power of two (zero when not one fits).
    fn slots_within(bytes: usize) -> usize {
        (bytes / size_of::<Slot<K>>())
            .checked_ilog2()
            .map_or(0, |bits| 1 << bits)
    }

    /// Empty the table and give it `slots` slots, a power of two.
    pub(crate) fn reset(&mut self, slots: usize) {
        assert!(slots.is_power_of_two(), "{slots} slots");
        self.clear();
        if self.slots.len() < slots {
            self.slots.resize(slots, (K::default(), 0));
        }
        self.mask = slots - 1;
        self.limit = slots / 4 * 3;
    }

    /// Forget every key; the size stays.
    pub(crate) fn clear(&mut self) {
        if self.len > 0 {
            self.slots[..=self.mask].fill((K::default(), 0));
            self.len = 0;
        }
    }

    /// Distinct keys held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// New keys the table takes before its fill bound.
    fn room(&self) -> usize {
        self.limit - self.len
    }

    /// Bytes the slot buffer holds.
    pub(crate) fn bytes(&self) -> usize {
        self.slots.capacity() * size_of::<Slot<K>>()
    }

    #[inline(always)]
    fn home(&self, key: &K) -> usize {
        let mut hash = 0;
        for w in 0..K::KEY_WORDS {
            hash = fmix64(hash ^ key.key_word(w));
        }
        hash as usize & self.mask
    }

    /// Add `weight` to `key`'s count. A new key takes one unit of [`Self::room`], which
    /// the caller must have checked.
    #[inline(always)]
    fn add(&mut self, key: K, weight: u64) {
        let mut i = self.home(&key);
        loop {
            let slot = &mut self.slots[i];
            if slot.1 == 0 {
                assert!(self.len < self.limit, "a key added past the fill bound");
                *slot = (key, weight);
                self.len += 1;
                return;
            }
            if slot.0 == key {
                slot.1 += weight;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Count every k-mer of the supermers of `views`. Returns the k-mers counted, or
    /// `None` as soon as a supermer's k-mers might pass the fill bound (what was added
    /// stays until the next [`Self::clear`] or [`Self::reset`]).
    pub(crate) fn add_supermers(&mut self, views: &[SupermersView<'_>], k: usize) -> Option<usize> {
        let mut instances = 0;
        for sm in views.iter().flat_map(SupermersView::iter) {
            let windows = sm.num_kmers(k);
            if windows > self.room() {
                return None;
            }
            sm.for_each_canonical_kmer::<K>(k, |km, _| self.add(km, 1));
            instances += windows;
        }
        Some(instances)
    }

    /// `key`'s count; zero when the table does not hold it.
    #[inline(always)]
    pub(crate) fn count(&self, key: &K) -> u64 {
        let mut i = self.home(key);
        loop {
            let (held, count) = self.slots[i];
            if count == 0 || held == *key {
                return count;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The held `(key, count)` pairs, in slot order.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = Slot<K>> + '_ {
        self.slots[..=self.mask]
            .iter()
            .copied()
            .filter(|&(_, count)| count > 0)
    }

    /// Double the slots, keeping every count.
    fn grow(&mut self) {
        let held: Vec<Slot<K>> = self.pairs().collect();
        self.reset(2 * (self.mask + 1));
        for (key, count) in held {
            self.add(key, count);
        }
    }
}

/// Pre-count a heavy-hitter task's staged body (§3.5): every canonical k-mer of its
/// `kmers` instances, counted in a [`CountTable`] that doubles whenever a supermer would
/// pass its fill bound, and the distinct `(k-mer, count)` pairs in key order — the
/// kmerlist the task ships. The table is never larger than the array of instances it
/// replaces; a body with more distinct keys than that table holds is decoded into the
/// array, sorted in place and scanned instead.
pub(crate) fn precount<K: KmerCode>(
    body: &SupermersView<'_>,
    k: usize,
    kmers: usize,
) -> Vec<(K, u64)> {
    let max_slots = CountTable::<K>::slots_within(kmers.saturating_mul(size_of::<K>()));
    let mut table = CountTable::default();
    table.reset(MIN_SLOTS.min(max_slots).max(1));
    for sm in body.iter() {
        let windows = sm.num_kmers(k);
        while windows > table.room() {
            if 2 * (table.mask + 1) > max_slots {
                drop(table);
                return sort_and_count(body, k, kmers);
            }
            table.grow();
        }
        sm.for_each_canonical_kmer::<K>(k, |km, _| table.add(km, 1));
    }
    let mut list: Vec<(K, u64)> = Vec::with_capacity(table.len());
    list.extend(table.pairs());
    drop(table);
    raduls_sort(&mut list);
    list
}

/// The pre-count of a body whose distinct keys outgrow the table: decode every instance,
/// sort them in place and count the runs — the pre-count the table replaced, and the
/// tests' oracle for it.
fn sort_and_count<K: KmerCode>(body: &SupermersView<'_>, k: usize, kmers: usize) -> Vec<(K, u64)> {
    let mut all: Vec<K> = Vec::with_capacity(kmers);
    for sm in body.iter() {
        sm.for_each_canonical_kmer::<K>(k, |km, _| all.push(km));
    }
    // Leading key bytes above the meaningful 2k bits are constant zero; tell the MSD
    // sorter to skip straight past them.
    paradis_sort_from(&mut all, K::WORDS * 8 - K::num_bytes(k));
    count_sorted_runs(&all, |km| *km)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::push_supermer;
    use hysortk_dna::kmer::{Kmer1, Kmer2};
    use hysortk_dna::sequence::DnaSeq;
    use hysortk_supermer::mmer::{MmerScorer, ScoreFunction};
    use hysortk_supermer::streaming::{for_each_supermer, SupermerScratch};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A staged heavy-hitter body: `reads` reads of 150 bases cut into supermers, a
    /// share `satellite` of them from an `(AATGG)n` block with one substitution in a
    /// thousand, the rest from a random genome. Returns the body, its supermers and
    /// its k-mers.
    fn body(seed: u64, k: usize, reads: usize, satellite: f64) -> (Vec<u8>, usize, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let repeat: Vec<u8> = b"AATGG".iter().copied().cycle().take(5_000).collect();
        let genome: Vec<u8> = (0..100_000).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
        let scorer = MmerScorer::new(k.min(23) / 2 + 1, ScoreFunction::Hash { seed: 9 });
        let mut scratch = SupermerScratch::new();
        let (mut bytes, mut supermers, mut kmers) = (Vec::new(), 0, 0);
        for _ in 0..reads {
            let source = if rng.gen_bool(satellite) {
                &repeat
            } else {
                &genome
            };
            let start = rng.gen_range(0..source.len() - 150);
            let read: Vec<u8> = (source[start..start + 150].iter())
                .map(|&b| {
                    if rng.gen_bool(0.001) {
                        b"ACGT"[rng.gen_range(0..4)]
                    } else {
                        b
                    }
                })
                .collect();
            let seq = DnaSeq::from_ascii(&read);
            for_each_supermer(&seq, k, &scorer, 1, &mut scratch, |span| {
                push_supermer(&mut bytes, None, &seq, span.start as usize, span.len());
                supermers += 1;
                kmers += span.num_kmers(k);
            });
        }
        (bytes, supermers, kmers)
    }

    /// The heavy-hitter pre-count ships what the decode-sort-scan it replaced shipped, on
    /// satellite bodies of both widths — and on bodies whose distinct keys outgrow the
    /// table (none of them a satellite), which take that path itself.
    #[test]
    fn precount_matches_the_decode_sort_scan_it_replaced() {
        fn check<K: KmerCode>(seed: u64, k: usize) {
            for (reads, satellite) in [(2_000, 0.9), (2_000, 0.3), (300, 0.0), (1, 1.0), (0, 1.0)] {
                let (bytes, supermers, kmers) = body(seed, k, reads, satellite);
                let view = SupermersView::staged(supermers, &bytes, false);
                let expected = sort_and_count::<K>(&view, k, kmers);
                assert_eq!(
                    expected.iter().map(|&(_, c)| c as usize).sum::<usize>(),
                    kmers
                );
                let got = precount::<K>(&view, k, kmers);
                assert!(
                    got == expected,
                    "k = {k}, {reads} reads, {satellite} satellite"
                );
            }
        }
        check::<Kmer1>(1, 21);
        check::<Kmer1>(2, 32);
        check::<Kmer2>(3, 33);
        check::<Kmer2>(4, 55);
    }

    /// A table keeps every count through growth, sizes to powers of two within a byte
    /// bound, and forgets everything on `clear`.
    #[test]
    fn a_table_counts_through_growth_and_clears() {
        assert_eq!(CountTable::<Kmer1>::slots_within(16 * 100), 64);
        assert_eq!(CountTable::<Kmer2>::slots_within(23), 0);
        let mut table = CountTable::<Kmer1>::default();
        table.reset(MIN_SLOTS);
        let keys: Vec<Kmer1> = (0..200u64)
            .map(|i| Kmer1::from_word_slice(&[i * 7]))
            .collect();
        for (i, &key) in keys.iter().enumerate() {
            if table.room() == 0 {
                table.grow();
            }
            table.add(key, i as u64 + 1);
            table.add(keys[0], 1);
        }
        assert_eq!(table.len(), 200);
        assert_eq!(table.count(&keys[0]), 201);
        assert!((1..200).all(|i| table.count(&keys[i]) == i as u64 + 1));
        assert_eq!(table.count(&Kmer1::from_word_slice(&[3])), 0);
        table.clear();
        assert_eq!((table.len(), table.pairs().count()), (0, 0));
        assert_eq!(table.count(&keys[5]), 0);
    }
}
