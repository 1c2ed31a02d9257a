//! Erdős–Rényi G(n, m) with distinct directed edges.

use crate::cast::u32_of;
use crate::csr::NodeId;
use rand::Rng;
// smin-lint: allow(no-hash-iteration) -- dedup set below is insert-only, never iterated
use std::collections::HashSet;

/// Samples exactly `m` distinct directed edges uniformly at random (no self
/// loops). Useful as a no-hubs control against the power-law families.
pub fn erdos_renyi(n: usize, m: usize, rng: &mut impl Rng) -> Vec<(NodeId, NodeId)> {
    assert!(n >= 2, "need at least two nodes");
    let max_edges = (n as u128) * (n as u128 - 1);
    assert!(
        (m as u128) <= max_edges,
        "cannot place {m} distinct directed edges on {n} nodes"
    );

    // Dense regime: shuffle-sample from the full edge universe to avoid
    // rejection stalls.
    if (m as u128) * 3 > max_edges {
        let mut all: Vec<(NodeId, NodeId)> = Vec::with_capacity(max_edges as usize);
        for u in 0..u32_of(n) {
            for v in 0..u32_of(n) {
                if u != v {
                    all.push((u, v));
                }
            }
        }
        // partial Fisher–Yates for the first m slots
        for i in 0..m {
            let j = rng.random_range(i..all.len());
            all.swap(i, j);
        }
        // Release the rest of the pair list: up to 3× the kept pairs would
        // otherwise stay allocated through the graph build.
        all.truncate(m);
        all.shrink_to_fit();
        return all;
    }

    // smin-lint: allow(no-hash-iteration) -- membership test only; edge order comes from the RNG stream
    let mut seen: HashSet<u64> = HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.random_range(0..u32_of(n));
        let v = rng.random_range(0..u32_of(n));
        if u == v {
            continue;
        }
        if seen.insert((u as u64) << 32 | v as u64) {
            edges.push((u, v));
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exact_count_distinct() {
        let mut rng = SmallRng::seed_from_u64(3);
        let edges = erdos_renyi(100, 500, &mut rng);
        assert_eq!(edges.len(), 500);
        let set: HashSet<_> = edges.iter().collect();
        assert_eq!(set.len(), 500);
        assert!(edges.iter().all(|&(u, v)| u != v));
    }

    #[test]
    fn dense_regime_works() {
        let mut rng = SmallRng::seed_from_u64(3);
        // 5 nodes -> 20 possible edges; ask for 18 (> 2/3 dense).
        let edges = erdos_renyi(5, 18, &mut rng);
        assert_eq!(edges.len(), 18);
        let set: HashSet<_> = edges.iter().collect();
        assert_eq!(set.len(), 18);
        // the 40-node universe holds 1 560 pairs; only the kept 520 stay
        let edges = erdos_renyi(40, 520, &mut rng);
        assert_eq!(edges.capacity(), 520);
    }

    #[test]
    fn full_graph() {
        let mut rng = SmallRng::seed_from_u64(3);
        let edges = erdos_renyi(4, 12, &mut rng);
        assert_eq!(edges.len(), 12);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn over_full_panics() {
        let mut rng = SmallRng::seed_from_u64(3);
        let _ = erdos_renyi(4, 13, &mut rng);
    }
}
