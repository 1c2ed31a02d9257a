//! Directed Chung–Lu power-law generator.
//!
//! Draws exactly `m` directed edges whose endpoints are sampled from a
//! power-law weight sequence (sources by out-weight, targets by in-weight),
//! rejecting self loops and duplicates. This reproduces the heavy-tailed
//! in/out degree distributions of the SNAP datasets in Figure 3 while letting
//! us match `n` and `m` exactly — which is what the seed-minimization
//! algorithms are actually sensitive to.

use super::alias::AliasTable;
use crate::cast::u32_of;
use crate::csr::NodeId;
use rand::Rng;
// smin-lint: allow(no-hash-iteration) -- dedup set below is insert-only, never iterated
use std::collections::HashSet;

/// Power-law weights `w_i = (i + i0)^(−1/(γ−1))` for `i = 0..n`, the standard
/// Chung–Lu recipe producing degree exponent `γ`. The offset `i0` caps the
/// maximum expected degree (larger `i0` → flatter head).
pub fn power_law_weights(n: usize, gamma: f64, i0: f64) -> Vec<f64> {
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    assert!(i0 >= 0.0, "offset must be non-negative");
    let alpha = 1.0 / (gamma - 1.0);
    (0..n).map(|i| (i as f64 + i0 + 1.0).powf(-alpha)).collect()
}

/// Generates `m` distinct directed edges over `n` nodes with power-law
/// endpoint bias. `gamma` controls the tail exponent (≈2.1 matches the tested
/// datasets); node identities are shuffled so low ids are not systematically
/// hubs.
///
/// # Errors
/// The rejection loop cannot make progress: `m` is too close to the number
/// of pairs the weights make likely (dense `m`, or `gamma` near 1, which
/// piles the weight on a few hubs). The error names `m` and `gamma`.
///
/// # Panics
/// Panics if `n < 2` or `m` exceeds `n·(n−1)` (impossible to place);
/// [`GeneratorSpec`](super::GeneratorSpec) checks both first.
pub fn chung_lu_directed(
    n: usize,
    m: usize,
    gamma: f64,
    rng: &mut impl Rng,
) -> Result<Vec<(NodeId, NodeId)>, String> {
    assert!(n >= 2, "need at least two nodes");
    assert!(
        (m as u128) <= (n as u128) * (n as u128 - 1),
        "cannot place {m} distinct directed edges on {n} nodes"
    );

    // Independent hub orderings for out- and in-weights, so out-hubs are not
    // automatically in-hubs (matches real social graphs better).
    let mut out_perm: Vec<u32> = (0..u32_of(n)).collect();
    let mut in_perm: Vec<u32> = (0..u32_of(n)).collect();
    shuffle(&mut out_perm, rng);
    shuffle(&mut in_perm, rng);

    let base = power_law_weights(n, gamma, (n as f64).sqrt().min(50.0));
    let mut out_w = vec![0.0f64; n];
    let mut in_w = vec![0.0f64; n];
    for i in 0..n {
        out_w[out_perm[i] as usize] = base[i];
        in_w[in_perm[i] as usize] = base[i];
    }
    let out_table = AliasTable::new(&out_w);
    let in_table = AliasTable::new(&in_w);

    // smin-lint: allow(no-hash-iteration) -- membership test only; edge order comes from the RNG stream
    let mut seen: HashSet<u64> = HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    let mut stall = 0usize;
    let stall_limit = 100 * m.max(1024);
    while edges.len() < m {
        let u = out_table.sample(rng);
        let v = in_table.sample(rng);
        if u == v {
            continue;
        }
        let key = (u as u64) << 32 | v as u64;
        if seen.insert(key) {
            edges.push((u, v));
            stall = 0;
        } else {
            stall += 1;
            if stall >= stall_limit {
                return Err(format!(
                    "'m' = {m} is too dense for Chung–Lu rejection sampling on {n} nodes \
                     at 'gamma' = {gamma}: {stall_limit} draws in a row repeated an edge \
                     after {} of {m} edges",
                    edges.len()
                ));
            }
        }
    }
    Ok(edges)
}

fn shuffle(v: &mut [u32], rng: &mut impl Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exact_edge_count_no_dups_no_loops() {
        let mut rng = SmallRng::seed_from_u64(11);
        let edges = chung_lu_directed(500, 2_000, 2.1, &mut rng).unwrap();
        assert_eq!(edges.len(), 2_000);
        let mut set = std::collections::HashSet::new();
        for &(u, v) in &edges {
            assert_ne!(u, v);
            assert!(set.insert((u, v)), "duplicate edge ({u},{v})");
            assert!((u as usize) < 500 && (v as usize) < 500);
        }
    }

    #[test]
    fn heavy_tail_present() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 2_000;
        let edges = chung_lu_directed(n, 10_000, 2.1, &mut rng).unwrap();
        let mut outdeg = vec![0usize; n];
        for &(u, _) in &edges {
            outdeg[u as usize] += 1;
        }
        let max = *outdeg.iter().max().unwrap();
        let avg = 10_000.0 / n as f64;
        // A power-law graph has hubs far above the mean; uniform G(n,m) would
        // concentrate near avg.
        assert!(
            max as f64 > 8.0 * avg,
            "expected hub degree >> average ({max} vs avg {avg})"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = chung_lu_directed(100, 400, 2.2, &mut SmallRng::seed_from_u64(9)).unwrap();
        let b = chung_lu_directed(100, 400, 2.2, &mut SmallRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn power_law_weights_decreasing() {
        let w = power_law_weights(100, 2.1, 10.0);
        for i in 1..w.len() {
            assert!(w[i] <= w[i - 1]);
            assert!(w[i] > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn too_many_edges_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = chung_lu_directed(3, 7, 2.1, &mut rng).unwrap();
    }
}
