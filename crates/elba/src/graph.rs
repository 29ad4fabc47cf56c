//! Overlap graph, transitive reduction and contig generation.

use std::collections::{BTreeMap, BTreeSet};

use crate::overlap::Overlap;

/// An undirected overlap graph over read ids.
#[derive(Debug, Clone, Default)]
pub struct OverlapGraph {
    /// Adjacency: read -> (neighbour -> offset of neighbour relative to read).
    adjacency: BTreeMap<u32, BTreeMap<u32, i32>>,
}

/// A contig: a maximal simple path of reads in the reduced overlap graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contig {
    /// Reads along the path, in order.
    pub reads: Vec<u32>,
}

impl Contig {
    /// Number of reads in the contig.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// True if the contig is a single read.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }
}

impl OverlapGraph {
    /// Build a graph from overlap edges.
    pub fn from_overlaps(overlaps: &[Overlap]) -> Self {
        let mut g = OverlapGraph::default();
        for o in overlaps {
            g.adjacency
                .entry(o.read_a)
                .or_default()
                .insert(o.read_b, o.offset);
            g.adjacency
                .entry(o.read_b)
                .or_default()
                .insert(o.read_a, -o.offset);
        }
        g
    }

    /// Number of vertices (reads with at least one overlap).
    #[cfg(test)]
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    #[cfg(test)]
    pub fn num_edges(&self) -> usize {
        self.adjacency.values().map(|n| n.len()).sum::<usize>() / 2
    }

    /// Neighbours of a read.
    pub fn neighbours(&self, read: u32) -> impl Iterator<Item = u32> + '_ {
        self.adjacency
            .get(&read)
            .into_iter()
            .flat_map(|n| n.keys().copied())
    }

    fn remove_edge(&mut self, a: u32, b: u32) {
        if let Some(n) = self.adjacency.get_mut(&a) {
            n.remove(&b);
        }
        if let Some(n) = self.adjacency.get_mut(&b) {
            n.remove(&a);
        }
    }

    /// Generate contigs by walking maximal non-branching paths. Reads of degree > 2 end
    /// paths (they are repeat junctions); isolated reads are skipped.
    pub fn contigs(&self) -> Vec<Contig> {
        let mut visited: BTreeSet<u32> = BTreeSet::new();
        let mut contigs = Vec::new();
        // Start from path end-points (degree 1) first, then handle cycles.
        let mut starts: Vec<u32> = self
            .adjacency
            .iter()
            .filter(|(_, n)| n.len() == 1)
            .map(|(&v, _)| v)
            .collect();
        starts.extend(self.adjacency.keys().copied());

        for start in starts {
            if visited.contains(&start) || self.degree(start) > 2 || self.degree(start) == 0 {
                continue;
            }
            let mut path = vec![start];
            visited.insert(start);
            let mut current = start;
            loop {
                let next = self
                    .neighbours(current)
                    .find(|n| !visited.contains(n) && self.degree(*n) <= 2);
                match next {
                    Some(n) => {
                        visited.insert(n);
                        path.push(n);
                        current = n;
                    }
                    None => break,
                }
            }
            if path.len() >= 2 {
                contigs.push(Contig { reads: path });
            }
        }
        contigs
    }

    fn degree(&self, read: u32) -> usize {
        self.adjacency.get(&read).map(|n| n.len()).unwrap_or(0)
    }
}

/// Remove transitively implied edges: if `a—b`, `b—c` and `a—c` exist and the offsets
/// agree (`offset(a,b) + offset(b,c) ≈ offset(a,c)`), the long edge `a—c` is redundant
/// (Myers' transitive reduction, simplified to offset arithmetic). Returns the number of
/// edges removed.
pub fn transitive_reduction(graph: &mut OverlapGraph, tolerance: i32) -> usize {
    let vertices: Vec<u32> = graph.adjacency.keys().copied().collect();
    let mut to_remove: Vec<(u32, u32)> = Vec::new();
    for &a in &vertices {
        let neighbours: Vec<(u32, i32)> =
            graph.adjacency[&a].iter().map(|(&v, &o)| (v, o)).collect();
        for &(b, off_ab) in &neighbours {
            for &(c, off_ac) in &neighbours {
                if b == c || a >= b {
                    continue;
                }
                // Is there an edge b—c whose offset explains a—c through b?
                if let Some(&off_bc) = graph.adjacency.get(&b).and_then(|n| n.get(&c)) {
                    if (off_ab + off_bc - off_ac).abs() <= tolerance && off_ab.abs() < off_ac.abs()
                    {
                        to_remove.push((a, c));
                    }
                }
            }
        }
    }
    to_remove.sort_unstable();
    to_remove.dedup();
    let removed = to_remove.len();
    for (a, c) in to_remove {
        graph.remove_edge(a, c);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlap(a: u32, b: u32, offset: i32) -> Overlap {
        Overlap {
            read_a: a,
            read_b: b,
            shared_seeds: 10,
            offset,
        }
    }

    #[test]
    fn chain_of_overlaps_becomes_one_contig() {
        // Reads 0-1-2-3 tiled along a genome.
        let overlaps = vec![overlap(0, 1, 100), overlap(1, 2, 100), overlap(2, 3, 100)];
        let g = OverlapGraph::from_overlaps(&overlaps);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        let contigs = g.contigs();
        assert_eq!(contigs.len(), 1);
        assert_eq!(contigs[0].len(), 4);
    }

    #[test]
    fn transitive_edges_are_removed_but_structure_is_kept() {
        // 0-1, 1-2 and the transitive 0-2.
        let overlaps = vec![overlap(0, 1, 100), overlap(1, 2, 120), overlap(0, 2, 220)];
        let mut g = OverlapGraph::from_overlaps(&overlaps);
        let removed = transitive_reduction(&mut g, 16);
        assert_eq!(removed, 1);
        assert_eq!(g.num_edges(), 2);
        let contigs = g.contigs();
        assert_eq!(contigs.len(), 1);
        assert_eq!(contigs[0].reads, vec![0, 1, 2]);
    }

    #[test]
    fn inconsistent_triangles_are_not_reduced() {
        let overlaps = vec![overlap(0, 1, 100), overlap(1, 2, 120), overlap(0, 2, 500)];
        let mut g = OverlapGraph::from_overlaps(&overlaps);
        assert_eq!(transitive_reduction(&mut g, 16), 0);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn branching_reads_split_contigs() {
        // A junction at read 1: 0-1, 1-2, 1-3.
        let overlaps = vec![overlap(0, 1, 100), overlap(1, 2, 100), overlap(1, 3, 150)];
        let g = OverlapGraph::from_overlaps(&overlaps);
        let contigs = g.contigs();
        // Read 1 has degree 3 and terminates every path; no contig may pass through it.
        assert!(contigs
            .iter()
            .all(|c| !c.reads.contains(&1) || c.reads.len() <= 2));
    }

    #[test]
    fn empty_graph_has_no_contigs() {
        let g = OverlapGraph::from_overlaps(&[]);
        assert_eq!(g.num_vertices(), 0);
        assert!(g.contigs().is_empty());
    }
}
