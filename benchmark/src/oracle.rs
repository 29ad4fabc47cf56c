//! The independent oracle: what the program must output for a generated input.
//!
//! Shares no code with the program. The input bytes are parsed by a few lines of its
//! own, every canonical k-mer is packed with the harness's own 2-bit code (`A=0 C=1
//! G=2 T=3`, first base most significant; `u64` keys for k ≤ 32, `u128` above), the
//! keys are `sort_unstable`d and run-length counted.

use crate::gen::Format;

/// Expected (or observed) output of one counting run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// `histogram[c]` = distinct canonical k-mers seen exactly `c` times; the last
    /// bucket takes every higher multiplicity (the program's documented layout:
    /// `max_count + 2` buckets, clamped to `2..=65536`).
    pub histogram: Vec<u64>,
    /// Distinct k-mers with multiplicity in `[min_count, max_count]`.
    pub retained: u64,
    /// Order-independent checksum of the retained `(k-mer, count)` pairs.
    pub checksum: u64,
}

/// Contribution of one retained pair to [`Counts::checksum`]; summed with wrapping
/// addition, so the order of the pairs does not matter.
pub fn pair_hash(kmer: u128, count: u64) -> u64 {
    let mix = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let key = mix(kmer as u64 ^ 0x9e37_79b9_7f4a_7c15) ^ mix((kmer >> 64) as u64);
    mix(key.wrapping_add(count.wrapping_mul(0xd6e8_feb8_6659_fd93)))
}

/// Count the canonical k-mers of `file` (the generated bytes, ACGT only).
pub fn expected(file: &[u8], format: Format, k: usize, min_count: u64, max_count: u64) -> Counts {
    assert!((1..=64).contains(&k));
    let buckets = (max_count as usize + 2).clamp(2, 65_536);
    if k <= 32 {
        let mut keys: Vec<u64> = Vec::new();
        for_each_sequence(file, format, |seq| {
            for_each_canonical(seq, k, |km| keys.push(km as u64))
        });
        tally(keys, buckets, min_count, max_count)
    } else {
        let mut keys: Vec<u128> = Vec::new();
        for_each_sequence(file, format, |seq| {
            for_each_canonical(seq, k, |km| keys.push(km))
        });
        tally(keys, buckets, min_count, max_count)
    }
}

fn tally<T: Ord + Copy + Into<u128>>(
    mut keys: Vec<T>,
    buckets: usize,
    min: u64,
    max: u64,
) -> Counts {
    keys.sort_unstable();
    let mut out = Counts {
        histogram: vec![0; buckets],
        retained: 0,
        checksum: 0,
    };
    for run in keys.chunk_by(|a, b| a == b) {
        let count = run.len() as u64;
        out.histogram[(count as usize).min(buckets - 1)] += 1;
        if (min..=max).contains(&count) {
            out.retained += 1;
            out.checksum = out.checksum.wrapping_add(pair_hash(run[0].into(), count));
        }
    }
    out
}

fn for_each_sequence(file: &[u8], format: Format, mut f: impl FnMut(&[u8])) {
    let mut lines = file.split(|&b| b == b'\n');
    match format {
        Format::Fastq => {
            while let Some(header) = lines.next() {
                if header.is_empty() {
                    continue;
                }
                assert_eq!(header[0], b'@', "FASTQ record must start with @");
                f(lines.next().expect("sequence line"));
                lines.next().expect("separator line");
                lines.next().expect("quality line");
            }
        }
        Format::Fasta => {
            let mut seq: Vec<u8> = Vec::new();
            for line in lines {
                if line.first() == Some(&b'>') {
                    f(&seq);
                    seq.clear();
                } else {
                    seq.extend_from_slice(line);
                }
            }
            f(&seq);
        }
    }
}

fn for_each_canonical(seq: &[u8], k: usize, mut f: impl FnMut(u128)) {
    let mask = if k == 64 {
        u128::MAX
    } else {
        (1u128 << (2 * k)) - 1
    };
    let (mut fwd, mut rev) = (0u128, 0u128);
    for (i, &base) in seq.iter().enumerate() {
        let code = match base {
            b'A' => 0u128,
            b'C' => 1,
            b'G' => 2,
            b'T' => 3,
            other => panic!("generated inputs are ACGT only, found byte {other}"),
        };
        fwd = ((fwd << 2) | code) & mask;
        rev = (rev >> 2) | ((3 - code) << (2 * (k - 1)));
        if i + 1 >= k {
            f(fwd.min(rev));
        }
    }
}

/// Compare one sample's output with the oracle, bucket for bucket. The error names
/// the first difference.
pub fn verify(expected: &Counts, got: &Counts) -> Result<(), String> {
    if got.histogram.len() != expected.histogram.len() {
        return Err(format!(
            "histogram has {} buckets, oracle {}",
            got.histogram.len(),
            expected.histogram.len()
        ));
    }
    for (c, (g, e)) in got.histogram.iter().zip(&expected.histogram).enumerate() {
        if g != e {
            return Err(format!("histogram[{c}] = {g}, oracle {e}"));
        }
    }
    if got.retained != expected.retained {
        return Err(format!(
            "{} retained k-mers, oracle {}",
            got.retained, expected.retained
        ));
    }
    if got.checksum != expected.checksum {
        return Err(format!(
            "retained checksum {:016x}, oracle {:016x}",
            got.checksum, expected.checksum
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts_of(fasta: &str, k: usize) -> Counts {
        expected(fasta.as_bytes(), Format::Fasta, k, 1, 50)
    }

    #[test]
    fn strands_merge_and_lines_join() {
        // ACGTA and its reverse complement TACGT: 3-mers ACG CGT GTA | TAC ACG CGT.
        // CGT canonicalises to ACG and TAC to GTA, so ACG ×4 and GTA ×2.
        let c = counts_of(">a\nACG\nTA\n>b\nTACGT\n", 3);
        assert_eq!(c.histogram[4], 1);
        assert_eq!(c.histogram[2], 1);
        assert_eq!(c.histogram.iter().sum::<u64>(), 2);
        assert_eq!(c.retained, 2);
    }

    #[test]
    fn fastq_and_fasta_agree_and_wide_keys_match_narrow() {
        let seq = "ACGTTGCATGCCGATAGCTAGCTAGGATCGATCGATTTAGC";
        let fa = format!(">r\n{seq}\n");
        let fq = format!("@r\n{seq}\n+\n{}\n", "I".repeat(seq.len()));
        let a = expected(fa.as_bytes(), Format::Fasta, 21, 1, 50);
        let q = expected(fq.as_bytes(), Format::Fastq, 21, 1, 50);
        assert_eq!(a, q);
        // The u128 path on a k that also fits u64 must give the same tally.
        let mut wide: Vec<u128> = Vec::new();
        for_each_canonical(seq.as_bytes(), 21, |km| wide.push(km));
        assert_eq!(tally(wide, 52, 1, 50), a);
    }

    #[test]
    fn one_bucket_off_by_one_is_a_failed_sample() {
        let want = counts_of(">a\nACGTACGTTTGACCA\n", 5);
        let mut got = want.clone();
        assert!(verify(&want, &got).is_ok());
        got.histogram[1] += 1;
        let err = verify(&want, &got).unwrap_err();
        assert!(err.contains("histogram[1]"), "{err}");
    }

    #[test]
    fn one_changed_count_is_a_failed_sample() {
        let want = counts_of(">a\nACGTACGTTTGACCA\n", 5);
        // Same histogram and retained total, but one retained pair's count differs.
        let got = Counts {
            checksum: want
                .checksum
                .wrapping_sub(pair_hash(0b0001101100, 2))
                .wrapping_add(pair_hash(0b0001101100, 3)),
            ..want.clone()
        };
        let err = verify(&want, &got).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }
}
