//! Benchmark-owned inputs: seeded graph generators and seed derivation.
//!
//! Nothing here calls `smin_graph::generators` or the `rand` shim, so a
//! change to either cannot silently change what the benchmark feeds the
//! program. Graphs are plain edge lists with weighted-cascade
//! probabilities (`p(u, v) = 1 / indeg(v)`); they enter the program only
//! through `GraphBuilder` or a `.smg` file loaded by the service.

use std::collections::HashSet;

/// SplitMix64: the benchmark's only source of randomness for inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is far below anything a
    /// benchmark input cares about).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// A stable 64-bit mix of `(seed, stream, index)`: item `index` of stream
/// `stream` always gets the same value for the same workload seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut r = SplitMix::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    r.0 ^= index.wrapping_mul(0xA076_1D64_78BD_642F);
    r.next_u64()
}

/// `0..n` in an order fixed by `seed` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// A directed edge list over nodes `0..n` with probabilities.
pub struct EdgeList {
    pub n: usize,
    pub edges: Vec<(u32, u32, f64)>,
}

impl EdgeList {
    /// FNV-1a over `n` and every `(u, v, p)` in order: the input checksum
    /// the benchmark records and checks at start.
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv::default();
        h.eat(self.n as u64);
        for &(u, v, p) in &self.edges {
            h.eat_bytes(&u.to_le_bytes());
            h.eat_bytes(&v.to_le_bytes());
            h.eat(p.to_bits());
        }
        h.value()
    }
}

/// FNV-1a, for input checksums and seed digests.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn eat_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn eat(&mut self, x: u64) {
        self.eat_bytes(&x.to_le_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Weighted-cascade probabilities over distinct directed pairs.
fn weighted_cascade(n: usize, pairs: Vec<(u32, u32)>) -> EdgeList {
    let mut indeg = vec![0u32; n];
    for &(_, v) in &pairs {
        indeg[v as usize] += 1;
    }
    let edges = pairs
        .into_iter()
        .map(|(u, v)| (u, v, 1.0 / f64::from(indeg[v as usize])))
        .collect();
    EdgeList { n, edges }
}

/// Directed Chung–Lu: `m` distinct edges, endpoints drawn from power-law
/// weights `(i + i0 + 1)^(-1/(gamma-1))` (the offset `i0 = min(sqrt n, 50)`
/// keeps the largest hub realistic), out- and in-weights assigned through
/// two independent random labelings.
pub fn chung_lu(n: usize, m: usize, gamma: f64, seed: u64) -> EdgeList {
    let mut rng = SplitMix::new(seed);
    let alpha = 1.0 / (gamma - 1.0);
    let i0 = (n as f64).sqrt().min(50.0);
    let weights: Vec<f64> = (0..n).map(|i| (i as f64 + i0 + 1.0).powf(-alpha)).collect();
    let mut cumulative = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cumulative.push(acc);
    }
    let label = |rng: &mut SplitMix| {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        perm
    };
    let out_label = label(&mut rng);
    let in_label = label(&mut rng);
    let draw = |rng: &mut SplitMix| {
        let x = rng.unit() * acc;
        cumulative.partition_point(|&c| c <= x).min(n - 1)
    };
    let mut seen = HashSet::with_capacity(m * 2);
    let mut pairs = Vec::with_capacity(m);
    while pairs.len() < m {
        let u = out_label[draw(&mut rng)];
        let v = in_label[draw(&mut rng)];
        if u != v && seen.insert((u, v)) {
            pairs.push((u, v));
        }
    }
    weighted_cascade(n, pairs)
}

/// Barabási–Albert preferential attachment, `attach` edges per new node,
/// every undirected edge mirrored into two directed edges.
pub fn barabasi_albert(n: usize, attach: usize, seed: u64) -> EdgeList {
    let mut rng = SplitMix::new(seed);
    // Endpoint multiset: sampling uniformly from it is sampling by degree.
    let mut ends: Vec<u32> = Vec::with_capacity(2 * n * attach);
    let mut pairs = Vec::with_capacity(2 * n * attach);
    let core = attach + 1;
    for u in 0..core as u32 {
        for v in 0..u {
            pairs.push((u, v));
            pairs.push((v, u));
            ends.push(u);
            ends.push(v);
        }
    }
    let mut picked: Vec<u32> = Vec::with_capacity(attach);
    for u in core as u32..n as u32 {
        picked.clear();
        while picked.len() < attach {
            let v = ends[rng.below(ends.len())];
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        for &v in &picked {
            pairs.push((u, v));
            pairs.push((v, u));
            ends.push(u);
            ends.push(v);
        }
    }
    weighted_cascade(n, pairs)
}
