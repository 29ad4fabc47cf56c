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
//!
//! The copies of a key mostly arrive inside copies of one supermer (KMC3's
//! super-k-mer): on `hifi_k31` a section receives each distinct supermer ~12.6 times.
//! So a stage-3 lane does not decode every copy. [`CountTable::add_supermers`] first
//! counts the section's supermers of at most 64 bases in a [`SupermerTable`], the same
//! table keyed by the supermer's length and its packed bases as two words. It then
//! decodes each distinct supermer once and adds its k-mers weighted by its count. The
//! key holds every base the decode reads and no bit past the last one, so two supermers
//! merge only when they decode alike.

use std::mem::size_of;

use hysortk_dna::kmer::KmerCode;
use hysortk_sort::{count_sorted_runs, paradis_sort_from, raduls_sort};
use hysortk_supermer::mmer::fmix64;

use crate::wire::{SupermerView, SupermersView};

/// The smallest table: a section of a few records still gets a few cache lines.
const MIN_SLOTS: usize = 64;

/// Instances per distinct key from which a stage-3 lane counts a section in its table
/// instead of sorting every record. Measured before the supermer collapse
/// ([`CountTable::add_supermers`]), when the table took every k-mer instance, on a
/// 2-vCPU 2.0 GHz Xeon (48 KiB L1d and 2 MiB L2 per core), one lane counting 256
/// sections of ~9 Ki one-word records at k = 31 both ways, table time over sort time:
/// 1.13 at 2.2 instances per distinct key, 0.99 at 2.7, 0.91 at 3.1, 0.89 at 3.5, 0.78
/// at 4.0, 0.71 at 5.8, 0.68 at 9.6 and 19.1 (64 sections of ~36 Ki records: 0.71 at
/// 5.8, 0.65 at 9.6, 0.63 at 19.1). The crossover was at about 2.7; 3 leaves a margin
/// for a section the lane's recent sections mispredict.
///
/// The collapse made the table path cheaper on the same host: on `hifi_k31` (20.2
/// instances per key, 12.6 copies of each distinct supermer in its section), resetting
/// the table and adding a section's supermers takes 0.058–0.073 s of CPU summed over
/// both ranks, 2.5–3.1 ns per record, against 0.156–0.221 s (6.6–9.4 ns) before — 1.96
/// M k-mer adds instead of 23.6 M (three runs each). The crossover has moved down too,
/// but by how much depends on how often supermers repeat, which this gate does not see;
/// lowering it is measured first, because `lowcov_k55` (1.8) must stay on the sort
/// path.
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

/// A key a [`CountTable`] counts: a k-mer, or a [`ShortSupermer`].
pub(crate) trait TableKey: Copy + Eq + Default {
    fn hash(&self) -> u64;
}

impl<K: KmerCode> TableKey for K {
    /// One `fmix64` finalizer per key word.
    #[inline(always)]
    fn hash(&self) -> u64 {
        let mut hash = 0;
        for w in 0..K::KEY_WORDS {
            hash = fmix64(hash ^ self.key_word(w));
        }
        hash
    }
}

/// A supermer of at most [`SHORT_SUPERMER`](crate::wire::SHORT_SUPERMER) bases: its
/// packed bases as two little-endian words, every bit past the last base zero
/// ([`SupermerView::short_bases`]), and its length.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShortSupermer {
    bases: [u64; 2],
    len: u64,
}

impl ShortSupermer {
    fn new(bases: u128, len: usize) -> Self {
        ShortSupermer {
            bases: [bases as u64, (bases >> 64) as u64],
            len: len as u64,
        }
    }

    /// The packed bases as [`SupermerView::short`] takes them.
    fn packed(&self) -> [u8; 16] {
        let [lo, hi] = self.bases;
        (u128::from(hi) << 64 | u128::from(lo)).to_le_bytes()
    }
}

impl TableKey for ShortSupermer {
    /// One `fmix64` finalizer over both words and the length.
    #[inline(always)]
    fn hash(&self) -> u64 {
        let [lo, hi] = self.bases;
        fmix64(lo ^ self.len ^ hi.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// A lane's table of a section's distinct short supermers and how often each arrived.
pub(crate) type SupermerTable = CountTable<ShortSupermer>;

/// A slot of the table; a count of zero marks it empty.
type Slot<K> = (K, u64);

/// Open-addressing `(key, count)` table of a power-of-two number of slots, filled to
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

impl<K: TableKey> CountTable<K> {
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
        key.hash() as usize & self.mask
    }

    /// Add `weight` to `key`'s count. Returns `false`, changing nothing, when `key` is new
    /// and the table is at its fill bound.
    #[inline(always)]
    fn try_add(&mut self, key: K, weight: u64) -> bool {
        let mut i = self.home(&key);
        loop {
            let slot = &mut self.slots[i];
            if slot.1 == 0 {
                if self.len == self.limit {
                    return false;
                }
                *slot = (key, weight);
                self.len += 1;
                return true;
            }
            if slot.0 == key {
                slot.1 += weight;
                return true;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Add `weight` to `key`'s count. A new key takes one unit of [`Self::room`], which
    /// the caller must have checked.
    #[inline(always)]
    fn add(&mut self, key: K, weight: u64) {
        assert!(self.try_add(key, weight), "a key added past the fill bound");
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

impl<K: KmerCode> CountTable<K> {
    /// Count every k-mer of the supermers of `views`, decoding each distinct supermer
    /// once. The supermers of at most [`SHORT_SUPERMER`](crate::wire::SHORT_SUPERMER)
    /// bases are first collapsed in `supermers` (a lane's table, emptied here and grown
    /// up to [`TABLE_BYTES`]); then each distinct one adds its canonical k-mers, weighted
    /// by how often it arrived. A longer supermer, and a new one that finds `supermers`
    /// full, adds its k-mers one by one. Returns the k-mer instances counted and the
    /// supermers decoded, or `None` as soon as a supermer's k-mers might pass this
    /// table's fill bound (what was added stays until the next [`Self::clear`] or
    /// [`Self::reset`]).
    pub(crate) fn add_supermers(
        &mut self,
        supermers: &mut SupermerTable,
        views: &[SupermersView<'_>],
        k: usize,
    ) -> Option<(usize, usize)> {
        // Four slots per distinct supermer of the lane's last section, doubled whenever
        // the fill bound is reached, up to the size bound.
        let arrived: usize = views.iter().map(SupermersView::len).sum();
        let max_slots = SupermerTable::slots_within(TABLE_BYTES);
        let slots = (4 * supermers.len()).min(2 * arrived).next_power_of_two();
        supermers.reset(slots.clamp(MIN_SLOTS, max_slots));
        let mut all_held = true;
        for sm in views.iter().flat_map(SupermersView::iter) {
            if let Some(bases) = sm.short_bases() {
                let key = ShortSupermer::new(bases, sm.len);
                if supermers.try_add(key, 1) {
                    continue;
                }
                if 2 * (supermers.mask + 1) <= max_slots {
                    supermers.grow();
                    supermers.add(key, 1);
                    continue;
                }
            }
            all_held = false;
        }
        let (mut instances, mut decoded) = (0, 0);
        if !all_held {
            // A supermer the table does not hold now was refused each time it arrived:
            // it is long, or it was new once the table was full for good.
            for sm in views.iter().flat_map(SupermersView::iter) {
                let held = (sm.short_bases())
                    .is_some_and(|bases| supermers.count(&ShortSupermer::new(bases, sm.len)) > 0);
                if !held {
                    instances += self.add_kmers(&sm, k, 1)?;
                    decoded += 1;
                }
            }
        }
        for (sm, weight) in supermers.pairs() {
            let bases = sm.packed();
            let sm = SupermerView::short(sm.len as usize, &bases);
            instances += self.add_kmers(&sm, k, weight)?;
        }
        Some((instances, decoded + supermers.len()))
    }

    /// Add every canonical k-mer of `sm` with `weight`. Returns the instances that
    /// makes, or `None`, adding nothing, when its k-mers might pass the fill bound.
    #[inline(always)]
    fn add_kmers(&mut self, sm: &SupermerView<'_>, k: usize, weight: u64) -> Option<usize> {
        let windows = sm.num_kmers(k);
        if windows > self.room() {
            return None;
        }
        sm.for_each_canonical_kmer::<K>(k, |km, _| self.add(km, weight));
        Some(windows * weight as usize)
    }
}

/// Pre-count a heavy-hitter task's staged body (§3.5): every canonical k-mer of its
/// `kmers` instances, counted in a [`CountTable`] that doubles whenever a supermer would
/// pass its fill bound, and the distinct `(k-mer, count)` pairs in key order — the
/// kmerlist the task ships. The table is never larger than the array of instances it
/// replaces; a body with more distinct keys than that table holds is decoded into the
/// array, sorted in place and scanned instead.
///
/// The body's supermers are not collapsed first, as a stage-3 lane's are
/// ([`CountTable::add_supermers`]): on `short_fastq_k21`'s heavy body (a satellite
/// repeat), the supermers over 64 bases hold most of the k-mers — 16.4 K of its 79 K
/// supermers hold 2.02 M of its 2.43 M k-mers (measured) — and a two-word key cannot
/// hold them. Collapsing them needs a variable-length key.
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
    use crate::wire::{push_supermer, SHORT_SUPERMER};
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

    /// A bare section body of `lens.len()` supermers, supermer `i` of `lens[i]` bases
    /// cut from `genome` at `starts[i]`. Returns the body and its k-mers.
    fn section_body(genome: &DnaSeq, cuts: &[(usize, usize)], k: usize) -> (Vec<u8>, usize) {
        let mut body = Vec::new();
        for &(start, len) in cuts {
            push_supermer(&mut body, None, genome, start, len);
        }
        let kmers = cuts
            .iter()
            .map(|&(_, len)| (len + 1).saturating_sub(k))
            .sum();
        (body, kmers)
    }

    /// A section's k-mers counted three ways — collapsed ([`CountTable::add_supermers`]),
    /// k-mer by k-mer, and by [`sort_and_count`] — in tables `table` and `supermers`,
    /// which the caller may have used before. Returns the supermers the collapse decoded.
    fn check_collapse<K: KmerCode>(
        table: &mut CountTable<K>,
        supermers: &mut SupermerTable,
        body: &[u8],
        count: usize,
        k: usize,
        kmers: usize,
    ) -> usize {
        let view = SupermersView::staged(count, body, false);
        let expected = sort_and_count::<K>(&view, k, kmers);
        table.reset((4 * kmers).next_power_of_two().max(MIN_SLOTS));
        let (instances, decoded) = table
            .add_supermers(supermers, &[view], k)
            .expect("an ample table");
        assert_eq!(instances, kmers);
        let mut collapsed: Vec<(K, u64)> = table.pairs().collect();
        collapsed.sort_unstable();
        assert!(collapsed == expected, "collapsed, k = {k}");
        table.clear();
        for sm in view.iter() {
            sm.for_each_canonical_kmer::<K>(k, |km, _| table.add(km, 1));
        }
        let mut one_by_one: Vec<(K, u64)> = table.pairs().collect();
        one_by_one.sort_unstable();
        assert!(one_by_one == expected, "k-mer by k-mer, k = {k}");
        decoded
    }

    /// A random genome of `len` bases, as ASCII and packed.
    fn genome(rng: &mut StdRng, len: usize) -> (Vec<u8>, DnaSeq) {
        let ascii: Vec<u8> = (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
        let seq = DnaSeq::from_ascii(&ascii);
        (ascii, seq)
    }

    /// Collapsing a section's supermers counts what adding its k-mers one by one and
    /// sorting them count: on heavily repeated supermers of every length around the
    /// two-word key's 64 bases (and shorter than k), and each distinct one is decoded
    /// once — every supermer over 64 bases each time it arrives.
    #[test]
    fn collapsed_supermers_count_like_their_kmers_one_by_one() {
        fn check<K: KmerCode>(seed: u64, k: usize) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (ascii, genome) = genome(&mut rng, 10_000);
            let lens = [1, k - 1, k, k + 1, 31, 32, 33, 63, 64, 65, 66, 100, 300];
            let distinct: Vec<(usize, usize)> = (0..60)
                .map(|i| (rng.gen_range(0..9_000), lens[i % lens.len()]))
                .collect();
            let cuts: Vec<(usize, usize)> = (0..3_000)
                .map(|_| distinct[rng.gen_range(0..distinct.len())])
                .collect();
            let long = cuts
                .iter()
                .filter(|&&(_, len)| len > SHORT_SUPERMER)
                .count();
            let short = (distinct.iter())
                .filter(|&&(_, len)| len <= SHORT_SUPERMER)
                .map(|&(start, len)| &ascii[start..start + len])
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            let (body, kmers) = section_body(&genome, &cuts, k);
            let (mut table, mut supermers) = (CountTable::<K>::default(), SupermerTable::default());
            let decoded = check_collapse(&mut table, &mut supermers, &body, cuts.len(), k, kmers);
            assert_eq!(decoded, short + long, "k = {k}");
            // Exactly 64 and 65 bases, alone.
            for len in [64, 65] {
                let cuts = [(7, len), (7, len), (500, len)];
                let (body, kmers) = section_body(&genome, &cuts, k);
                let decoded = check_collapse(&mut table, &mut supermers, &body, 3, k, kmers);
                assert_eq!(
                    decoded,
                    if len == 64 { 2 } else { 3 },
                    "{len} bases, k = {k}"
                );
            }
        }
        check::<Kmer1>(11, 21);
        check::<Kmer1>(12, 31);
        check::<Kmer1>(13, 32);
        check::<Kmer2>(14, 33);
        check::<Kmer2>(15, 55);
    }

    /// A supermer whose last packed byte carries bits past its last base counts like its
    /// clean twin, and the two are one distinct supermer.
    #[test]
    fn stray_bits_past_a_supermers_last_base_change_no_count() {
        let k = 21;
        let mut rng = StdRng::seed_from_u64(16);
        let (_, genome) = genome(&mut rng, 1_000);
        for len in [21, 30, 33, 62, 63] {
            let cuts = [(100, len); 5];
            let (clean, kmers) = section_body(&genome, &cuts, k);
            let mut dirty = clean.clone();
            // Supermers 1 and 3 get every bit past their last base set.
            let stride = 1 + len.div_ceil(4);
            for i in [1, 3] {
                dirty[stride * (i + 1) - 1] |= 0xff << (2 * (len % 4));
            }
            assert_ne!(clean, dirty, "{len} bases");
            let view = |body| SupermersView::staged(5, body, false);
            let expected = sort_and_count::<Kmer1>(&view(&clean), k, kmers);
            assert_eq!(sort_and_count::<Kmer1>(&view(&dirty), k, kmers), expected);
            let (mut table, mut supermers) = (CountTable::default(), SupermerTable::default());
            let decoded = check_collapse::<Kmer1>(&mut table, &mut supermers, &dirty, 5, k, kmers);
            assert_eq!(decoded, 1, "{len} bases");
        }
    }

    /// A section that passes the k-mer table's fill bound partway through — a long
    /// supermer added k-mer by k-mer, or a distinct short one decoded after the
    /// collapse — returns `None`, and the same tables then count the next section
    /// exactly. So does a section whose distinct supermers pass the supermer table's
    /// size bound: those that arrive after it is full are added k-mer by k-mer.
    #[test]
    fn a_collapse_past_a_fill_bound_leaves_the_next_section_exact() {
        let k = 21;
        let mut rng = StdRng::seed_from_u64(17);
        let (_, genome) = genome(&mut rng, 100_000);
        let (mut table, mut supermers) = (CountTable::<Kmer1>::default(), SupermerTable::default());
        let next: Vec<(usize, usize)> = (0..400).map(|i| (i % 37 * 50, 40)).collect();
        let (next_body, next_kmers) = section_body(&genome, &next, k);
        for over in [[(0, 40), (3_000, 200)], [(0, 40), (3_000, 60)]] {
            let cuts: Vec<(usize, usize)> = [(0, 40); 20].into_iter().chain(over).collect();
            let (body, _) = section_body(&genome, &cuts, k);
            let view = SupermersView::staged(cuts.len(), &body, false);
            table.reset(MIN_SLOTS);
            assert_eq!(table.add_supermers(&mut supermers, &[view], k), None);
            check_collapse(
                &mut table,
                &mut supermers,
                &next_body,
                next.len(),
                k,
                next_kmers,
            );
        }
        // 8 000 distinct supermers of 30 bases, twice each: the supermer table holds
        // three quarters of its slots, and every later copy of the others is decoded.
        let held = SupermerTable::slots_within(TABLE_BYTES) / 4 * 3;
        let cuts: Vec<(usize, usize)> = (0..16_000).map(|i| (i % 8_000 * 12, 30)).collect();
        let (body, kmers) = section_body(&genome, &cuts, k);
        let decoded = check_collapse(&mut table, &mut supermers, &body, cuts.len(), k, kmers);
        assert_eq!(decoded, held + 2 * (8_000 - held));
        check_collapse(
            &mut table,
            &mut supermers,
            &next_body,
            next.len(),
            k,
            next_kmers,
        );
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
