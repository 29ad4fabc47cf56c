//! The benchmark's own deterministic input generator.
//!
//! Nothing here depends on `crates/datasets` or `vendor/rand`: a later change to
//! either must not be able to move a workload. One `(InputSpec, seed, scale)` always
//! yields the same bytes, which the unit test below pins with an FNV-1a checksum.

/// splitmix64-seeded xoshiro256**.
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for every `n` used).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// On-disk format of a generated input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `>name` records, sequence wrapped at 80 columns.
    Fasta,
    /// Four-line records with a constant quality string.
    Fastq,
}

impl Format {
    pub fn extension(self) -> &'static str {
        match self {
            Format::Fasta => "fa",
            Format::Fastq => "fq",
        }
    }
}

/// Everything that defines one generated input, at `--scale 1`.
#[derive(Debug, Clone, Copy)]
pub struct InputSpec {
    /// Stable name: inputs shared by several workloads are generated once.
    pub name: &'static str,
    pub genome_len: usize,
    /// Share of the genome overwritten by one `(AATGG)n` satellite block.
    pub satellite: f64,
    /// Share of the genome overwritten by copies of other genome segments.
    pub duplication: f64,
    pub read_len: (usize, usize),
    /// Stop sampling reads once this many bases were emitted.
    pub bases: usize,
    pub format: Format,
}

/// Every simulated base is substituted with probability 1/1000.
const SUBSTITUTION_THRESHOLD: u64 = u64::MAX / 1000;

/// One generated input file, in memory.
pub struct Input {
    pub bytes: Vec<u8>,
    pub reads: u64,
    pub bases: u64,
}

/// Generate `spec` shrunk by `scale` (genome and base count; read lengths stay, but
/// never exceed the genome).
pub fn generate(spec: &InputSpec, seed: u64, scale: f64) -> Input {
    let mut rng = Rng::new(seed ^ fnv1a(spec.name.as_bytes()));
    let genome_len = ((spec.genome_len as f64 * scale) as usize).max(1_000);
    let target = ((spec.bases as f64 * scale) as usize).max(1);
    let genome = genome(&mut rng, genome_len, spec.satellite, spec.duplication);

    let overhead = if spec.format == Format::Fastq { 2 } else { 1 };
    let mut out = Input {
        bytes: Vec::with_capacity(target * overhead + target / 16),
        reads: 0,
        bases: 0,
    };
    let (lo, hi) = spec.read_len;
    let mut read = Vec::with_capacity(hi);
    while (out.bases as usize) < target {
        let len = (lo + rng.below((hi - lo + 1) as u64) as usize).min(genome.len());
        let pos = rng.below((genome.len() - len + 1) as u64) as usize;
        read.clear();
        read.extend_from_slice(&genome[pos..pos + len]);
        if rng.next_u64() & 1 == 1 {
            reverse_complement(&mut read);
        }
        substitute(&mut rng, &mut read);
        write_record(&mut out.bytes, spec.format, out.reads, &read);
        out.reads += 1;
        out.bases += len as u64;
    }
    out
}

fn genome(rng: &mut Rng, len: usize, satellite: f64, duplication: f64) -> Vec<u8> {
    let mut g = Vec::with_capacity(len + 32);
    while g.len() < len {
        let mut word = rng.next_u64();
        for _ in 0..32 {
            g.push(b"ACGT"[(word & 3) as usize]);
            word >>= 2;
        }
    }
    g.truncate(len);

    // Segmental duplications: copy segments of ~1 % of the genome (1–20 kb) elsewhere.
    let segment = (len / 100).clamp(1_000, 20_000).min(len / 2);
    let mut copied = 0usize;
    while (copied as f64) < duplication * len as f64 {
        let src = rng.below((len - segment + 1) as u64) as usize;
        let dst = rng.below((len - segment + 1) as u64) as usize;
        g.copy_within(src..src + segment, dst);
        copied += segment;
    }

    let sat = (satellite * len as f64) as usize;
    if sat > 0 {
        let at = rng.below((len - sat + 1) as u64) as usize;
        for (i, base) in g[at..at + sat].iter_mut().enumerate() {
            *base = b"AATGG"[i % 5];
        }
    }
    g
}

fn reverse_complement(seq: &mut [u8]) {
    seq.reverse();
    for b in seq {
        *b = match *b {
            b'A' => b'T',
            b'C' => b'G',
            b'G' => b'C',
            _ => b'A',
        };
    }
}

/// Substitution errors, one integer draw per base: no floating-point function whose
/// last bit could differ between hosts takes part in generating an input.
fn substitute(rng: &mut Rng, seq: &mut [u8]) {
    for base in seq {
        if rng.next_u64() < SUBSTITUTION_THRESHOLD {
            let others: &[u8; 3] = match *base {
                b'A' => b"CGT",
                b'C' => b"AGT",
                b'G' => b"ACT",
                _ => b"ACG",
            };
            *base = others[rng.below(3) as usize];
        }
    }
}

fn write_record(out: &mut Vec<u8>, format: Format, id: u64, seq: &[u8]) {
    match format {
        Format::Fasta => {
            out.extend_from_slice(format!(">r{id}\n").as_bytes());
            for line in seq.chunks(80) {
                out.extend_from_slice(line);
                out.push(b'\n');
            }
        }
        Format::Fastq => {
            out.extend_from_slice(format!("@r{id}\n").as_bytes());
            out.extend_from_slice(seq);
            out.extend_from_slice(b"\n+\n");
            out.resize(out.len() + seq.len(), b'I');
            out.push(b'\n');
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{INPUTS, QUICK_SCALE};

    #[test]
    fn quick_seed_1_inputs_are_pinned() {
        // A workload must not drift silently: any change to the generator, to an
        // input spec or to the quick scale shows here first.
        let pinned: [(&str, u64, u64, u64); 3] = [
            ("hifi", 173, 3_001_954, 14938342163976673726),
            ("short_fastq", 20_000, 3_000_000, 5295252154080518644),
            ("lowcov", 89, 1_504_699, 8586783744093916220),
        ];
        let generated = INPUTS.map(|spec| {
            let input = generate(&spec, 1, QUICK_SCALE);
            (spec.name, input.reads, input.bases, fnv1a(&input.bytes))
        });
        assert_eq!(
            generated, pinned,
            "(name, reads, bases, FNV-1a of the file bytes)"
        );
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let spec = &INPUTS[0];
        let a = generate(spec, 7, QUICK_SCALE / 4.0);
        let b = generate(spec, 7, QUICK_SCALE / 4.0);
        let c = generate(spec, 8, QUICK_SCALE / 4.0);
        assert_eq!(a.bytes, b.bytes);
        assert_ne!(a.bytes, c.bytes);
    }

    #[test]
    fn satellite_share_is_what_the_spec_says() {
        let mut rng = Rng::new(3);
        let g = genome(&mut rng, 100_000, 0.10, 0.0);
        let sat = g.windows(10).filter(|w| w == b"AATGGAATGG").count();
        assert!((1_990..=2_010).contains(&sat), "{sat} satellite periods");
    }
}
