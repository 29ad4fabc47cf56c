//! Read collections and the greedy distribution of reads across ranks.

use crate::sequence::DnaSeq;

/// A single sequencing read: an identifier, an optional FASTA header, and the packed
/// sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    /// Dense identifier, unique within a [`ReadSet`] (used as `read_id` in extension
    /// information).
    pub id: u32,
    /// FASTA header (without the leading `>`), if the read came from a file.
    pub name: String,
    /// The packed sequence.
    pub seq: DnaSeq,
}

impl Read {
    /// Create a read from an ASCII sequence.
    pub fn from_ascii(id: u32, name: impl Into<String>, seq: &[u8]) -> Self {
        Read {
            id,
            name: name.into(),
            seq: DnaSeq::from_ascii(seq),
        }
    }

    /// Length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True if the read is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// A collection of reads — the input to every counter in this workspace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    reads: Vec<Read>,
}

impl ReadSet {
    /// Empty read set.
    pub fn new() -> Self {
        ReadSet { reads: Vec::new() }
    }

    /// Build from packed sequences, assigning dense ids in order.
    pub fn from_seqs(seqs: Vec<DnaSeq>) -> Self {
        let reads = seqs
            .into_iter()
            .enumerate()
            .map(|(i, seq)| Read {
                id: i as u32,
                name: format!("read{i}"),
                seq,
            })
            .collect();
        ReadSet { reads }
    }

    /// Build from ASCII sequences, assigning dense ids in order.
    pub fn from_ascii_reads<S: AsRef<[u8]>>(seqs: &[S]) -> Self {
        Self::from_seqs(
            seqs.iter()
                .map(|s| DnaSeq::from_ascii(s.as_ref()))
                .collect(),
        )
    }

    /// Append a read, reassigning its id to keep ids dense.
    pub fn push(&mut self, mut read: Read) {
        read.id = self.reads.len() as u32;
        self.reads.push(read);
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// True if there are no reads.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// Immutable access to the reads.
    pub fn reads(&self) -> &[Read] {
        &self.reads
    }

    /// Iterate over the reads.
    pub fn iter(&self) -> impl Iterator<Item = &Read> {
        self.reads.iter()
    }

    /// Total number of bases across all reads.
    pub fn total_bases(&self) -> usize {
        self.reads.iter().map(|r| r.len()).sum()
    }

    /// Total number of k-mers (over all reads) for a given k.
    pub fn total_kmers(&self, k: usize) -> usize {
        self.reads.iter().map(|r| r.seq.num_kmers(k)).sum()
    }

    /// Approximate size of the read set as an uncompressed ASCII FASTA payload, in
    /// bytes. Dataset presets use this to express "a 31 GB dataset scaled by 1e-4".
    pub fn ascii_bytes(&self) -> usize {
        self.total_bases() + self.reads.iter().map(|r| r.name.len() + 3).sum::<usize>()
    }

    /// Greedy contiguous partition of the reads into `parts` chunks balanced by base
    /// count — the "sequences from the input file are divided evenly between the
    /// processes using a greedy algorithm" step of the paper's Figure 1.
    ///
    /// Returns, for each part, the half-open range of read indices assigned to it.
    /// Contiguity is preserved so each rank can stream its slice of the input file.
    pub fn partition_by_bases(&self, parts: usize) -> Vec<std::ops::Range<usize>> {
        assert!(parts > 0);
        let mut ranges = Vec::with_capacity(parts);
        let mut remaining: usize = self.total_bases();
        let mut start = 0usize;
        for part in 0..parts {
            if start >= self.reads.len() {
                ranges.push(start..start);
                continue;
            }
            if part + 1 == parts {
                ranges.push(start..self.reads.len());
                start = self.reads.len();
                continue;
            }
            // Re-compute the per-part target from what is left so early over- or
            // under-shoots do not starve the final parts.
            let target = remaining.div_ceil(parts - part).max(1);
            let mut acc = 0usize;
            let mut end = start;
            while end < self.reads.len() {
                let len = self.reads[end].len();
                // Include the boundary read only if that lands closer to the target.
                if acc + len >= target {
                    let with = acc + len;
                    if with - target <= target - acc || acc == 0 {
                        end += 1;
                        acc = with;
                    }
                    break;
                }
                acc += len;
                end += 1;
            }
            remaining -= acc;
            ranges.push(start..end);
            start = end;
        }
        ranges
    }

    /// Materialise a sub-read-set for one partition range, preserving global read ids.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Vec<&Read> {
        self.reads[range].iter().collect()
    }
}

impl FromIterator<Read> for ReadSet {
    fn from_iter<T: IntoIterator<Item = Read>>(iter: T) -> Self {
        let mut rs = ReadSet::new();
        for r in iter {
            rs.push(r);
        }
        rs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReadSet {
        ReadSet::from_ascii_reads(&[
            b"ACGTACGTACGTACGT".as_slice(),
            b"TTTTTTTTTTTT".as_slice(),
            b"ACGGACGGACGGACGGACGGACGG".as_slice(),
            b"CAT".as_slice(),
        ])
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let rs = sample();
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(r.id as usize, i);
        }
    }

    #[test]
    fn totals_add_up() {
        let rs = sample();
        assert_eq!(rs.total_bases(), 16 + 12 + 24 + 3);
        let k = 5;
        assert_eq!(rs.total_kmers(k), (12 + 8 + 20));
    }

    #[test]
    fn partition_covers_everything_without_overlap() {
        let rs = sample();
        for parts in 1..=6 {
            let ranges = rs.partition_by_bases(parts);
            assert_eq!(ranges.len(), parts);
            let mut covered = 0;
            let mut expected_start = 0;
            for r in &ranges {
                assert_eq!(r.start, expected_start);
                expected_start = r.end;
                covered += r.len();
            }
            assert_eq!(covered, rs.len());
            assert_eq!(expected_start, rs.len());
        }
    }

    #[test]
    fn partition_is_roughly_balanced() {
        let seqs: Vec<Vec<u8>> = (0..64).map(|i| vec![b'A'; 100 + (i % 7)]).collect();
        let rs = ReadSet::from_ascii_reads(&seqs);
        let parts = 8;
        let ranges = rs.partition_by_bases(parts);
        let sizes: Vec<usize> = ranges
            .iter()
            .map(|r| rs.reads()[r.clone()].iter().map(|x| x.len()).sum())
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max <= min * 2, "imbalanced partition: {sizes:?}");
    }

    #[test]
    fn push_reassigns_ids() {
        let mut rs = sample();
        rs.push(Read::from_ascii(999, "late", b"ACGT"));
        assert_eq!(rs.reads().last().unwrap().id, 4);
    }
}
