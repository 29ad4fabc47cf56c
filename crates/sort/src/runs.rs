//! Linear counting scan over sorted data.
//!
//! After sorting, equal k-mers occupy adjacent positions; a single linear scan yields
//! the multiplicity of every distinct k-mer (paper §3.1). These helpers are shared by
//! HySortK's counting stage and the KMC3-style baseline.

/// Call `f(key_index_range)` for every maximal run of equal keys in `data` (equality
/// judged by the `key` projection). Runs are visited in order.
pub fn for_each_sorted_run<T, K, F, G>(data: &[T], key: G, mut f: F)
where
    K: PartialEq,
    G: Fn(&T) -> K,
    F: FnMut(std::ops::Range<usize>),
{
    let n = data.len();
    let mut start = 0usize;
    while start < n {
        let k = key(&data[start]);
        let mut end = start + 1;
        while end < n && key(&data[end]) == k {
            end += 1;
        }
        f(start..end);
        start = end;
    }
}

/// Count the multiplicity of every distinct key in sorted `data`, returning
/// `(key, count)` pairs in sorted key order.
pub fn count_sorted_runs<T, K, G>(data: &[T], key: G) -> Vec<(K, u64)>
where
    K: PartialEq + Copy,
    G: Fn(&T) -> K,
{
    let mut out = Vec::new();
    for_each_sorted_run(data, &key, |range| {
        out.push((key(&data[range.start]), range.len() as u64));
    });
    out
}

/// Streaming two-pointer merge of the run boundaries of sorted `data` with a sorted
/// pre-counted `(key, count)` list (which may hold several entries per key; they are
/// summed on the fly). `emit(key, total, range)` is called once per distinct key in
/// ascending key order, where `total` is the run length plus all matching pre-counts
/// and `range` is the key's run inside `data` (empty for pre-only keys).
///
/// This is HySortK's "sort & count" inner loop with heavy-hitter kmerlist merging
/// fused in: no intermediate counted or merged vector is ever materialised, and the
/// range hands the caller the key's payload (e.g. extension records) as a slice of the
/// sorted array instead of a per-key allocation.
pub fn merge_runs_with_counts<T, K, G, F>(data: &[T], key: G, pre: &[(K, u64)], mut emit: F)
where
    K: Ord + Copy,
    G: Fn(&T) -> K,
    F: FnMut(K, u64, std::ops::Range<usize>),
{
    let n = data.len();
    let mut i = 0usize;
    let mut j = 0usize;
    while i < n || j < pre.len() {
        if i < n && (j >= pre.len() || key(&data[i]) <= pre[j].0) {
            // The next key comes from `data` (ties included): scan its run, then
            // absorb any matching pre entries (a no-op when data's key is smaller).
            let k0 = key(&data[i]);
            let mut end = i + 1;
            while end < n && key(&data[end]) == k0 {
                end += 1;
            }
            let mut total = (end - i) as u64;
            while j < pre.len() && pre[j].0 == k0 {
                total += pre[j].1;
                j += 1;
            }
            emit(k0, total, i..end);
            i = end;
        } else {
            // Pre-only key: sum its (possibly duplicated) entries.
            let k0 = pre[j].0;
            let mut total = 0u64;
            while j < pre.len() && pre[j].0 == k0 {
                total += pre[j].1;
                j += 1;
            }
            emit(k0, total, i..i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_runs() {
        let data: Vec<u32> = vec![];
        assert!(count_sorted_runs(&data, |x| *x).is_empty());
    }

    #[test]
    fn counts_simple_runs() {
        let data = vec![1u32, 1, 2, 3, 3, 3, 9];
        assert_eq!(
            count_sorted_runs(&data, |x| *x),
            vec![(1, 2), (2, 1), (3, 3), (9, 1)]
        );
    }

    #[test]
    fn single_run_covers_everything() {
        let data = vec![5u8; 100];
        assert_eq!(count_sorted_runs(&data, |x| *x), vec![(5, 100)]);
    }

    #[test]
    fn run_ranges_partition_the_slice() {
        let data = vec![0u32, 0, 1, 2, 2, 2, 4, 4, 7];
        let mut covered = 0;
        let mut last_end = 0;
        for_each_sorted_run(
            &data,
            |x| *x,
            |r| {
                assert_eq!(r.start, last_end);
                last_end = r.end;
                covered += r.len();
            },
        );
        assert_eq!(covered, data.len());
    }

    #[test]
    fn works_with_projected_keys() {
        let data = vec![(1u32, 'a'), (1, 'b'), (2, 'c')];
        let runs = count_sorted_runs(&data, |x| x.0);
        assert_eq!(runs, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn merge_with_empty_pre_matches_plain_runs() {
        let data = vec![1u32, 1, 2, 3, 3, 3, 9];
        let mut merged = Vec::new();
        merge_runs_with_counts(&data, |x| *x, &[], |k, c, r| merged.push((k, c, r)));
        assert_eq!(
            merged,
            vec![(1, 2, 0..2), (2, 1, 2..3), (3, 3, 3..6), (9, 1, 6..7)]
        );
    }

    #[test]
    fn merge_interleaves_and_sums_duplicate_pre_entries() {
        let data = vec![2u32, 2, 5, 5, 5, 8];
        // Pre holds a key below, inside (duplicated), and above the data range.
        let pre = vec![(1u32, 4), (5, 10), (5, 1), (9, 7)];
        let mut merged = Vec::new();
        merge_runs_with_counts(&data, |x| *x, &pre, |k, c, r| merged.push((k, c, r)));
        assert_eq!(
            merged,
            vec![
                (1, 4, 0..0),
                (2, 2, 0..2),
                (5, 3 + 11, 2..5),
                (8, 1, 5..6),
                (9, 7, 6..6),
            ]
        );
    }

    #[test]
    fn merge_with_empty_data_emits_summed_pre_runs() {
        let data: Vec<u32> = Vec::new();
        let pre = vec![(3u32, 1), (3, 2), (7, 5)];
        let mut merged = Vec::new();
        merge_runs_with_counts(&data, |x| *x, &pre, |k, c, r| merged.push((k, c, r)));
        assert_eq!(merged, vec![(3, 3, 0..0), (7, 5, 0..0)]);
    }

    #[test]
    fn merge_matches_map_reference_on_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..40 {
            let mut data: Vec<u16> = (0..rng.gen_range(0..60))
                .map(|_| rng.gen_range(0..12))
                .collect();
            data.sort_unstable();
            let mut pre: Vec<(u16, u64)> = (0..rng.gen_range(0..20))
                .map(|_| (rng.gen_range(0..12u16), rng.gen_range(1..5u64)))
                .collect();
            pre.sort_unstable();
            let mut expected: std::collections::BTreeMap<u16, u64> =
                std::collections::BTreeMap::new();
            for &d in &data {
                *expected.entry(d).or_insert(0) += 1;
            }
            for &(k, c) in &pre {
                *expected.entry(k).or_insert(0) += c;
            }
            let mut merged: Vec<(u16, u64)> = Vec::new();
            let mut covered = Vec::new();
            merge_runs_with_counts(
                &data,
                |x| *x,
                &pre,
                |k, c, r| {
                    merged.push((k, c));
                    covered.extend(r);
                },
            );
            assert_eq!(merged, expected.into_iter().collect::<Vec<_>>());
            // Every data index is covered exactly once, in order.
            assert_eq!(covered, (0..data.len()).collect::<Vec<_>>());
        }
    }
}
