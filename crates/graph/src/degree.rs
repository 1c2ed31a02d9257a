//! Degree statistics for Table 2 and Figure 3.

use crate::cast::u32_of;
use crate::csr::Graph;

/// Which degree notion to histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegreeKind {
    /// Outgoing edges only.
    Out,
    /// Incoming edges only.
    In,
    /// In + out (what Figure 3 plots for the undirected datasets).
    Total,
}

/// `(degree, number_of_nodes)` pairs sorted by degree, skipping zero counts.
pub fn degree_distribution(g: &Graph, kind: DegreeKind) -> Vec<(usize, usize)> {
    let n = g.n();
    let mut hist: Vec<usize> = Vec::new();
    for u in 0..u32_of(n) {
        let d = match kind {
            DegreeKind::Out => g.out_degree(u),
            DegreeKind::In => g.in_degree(u),
            DegreeKind::Total => g.out_degree(u) + g.in_degree(u),
        };
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist.into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect()
}

/// Figure 3 series: `(degree, fraction_of_nodes)` on the raw (un-binned)
/// distribution, suitable for log-log plotting.
pub fn degree_fractions(g: &Graph, kind: DegreeKind) -> Vec<(usize, f64)> {
    let n = g.n().max(1) as f64;
    degree_distribution(g, kind)
        .into_iter()
        .map(|(d, c)| (d, c as f64 / n))
        .collect()
}

/// Average degree `m / n` (Table 2's "Avg. deg." column counts each
/// undirected edge once, i.e. directed edges over nodes after mirroring is
/// `2m/n`; we report directed `m/n` and let the harness annotate).
pub fn average_out_degree(g: &Graph) -> f64 {
    if g.n() == 0 {
        0.0
    } else {
        g.m() as f64 / g.n() as f64
    }
}

/// Least-squares slope of `log(count)` against `log(degree)` over nodes with
/// degree ≥ 1 — a quick power-law exponent estimate used by tests to confirm
/// the synthetic stand-ins are heavy-tailed like Figure 3.
pub fn log_log_slope(dist: &[(usize, usize)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = dist
        .iter()
        .filter(|&&(d, c)| d >= 1 && c >= 1)
        .map(|&(d, c)| ((d as f64).ln(), (c as f64).ln()))
        .collect();
    if pts.len() < 3 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        None
    } else {
        Some((n * sxy - sx * sy) / denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::chung_lu_directed;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn chain() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(2, 3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn distribution_counts_nodes() {
        let g = chain();
        let out = degree_distribution(&g, DegreeKind::Out);
        // nodes 0,1,2 have out-degree 1; node 3 has 0
        assert_eq!(out, vec![(0, 1), (1, 3)]);
        let total = degree_distribution(&g, DegreeKind::Total);
        // ends have total degree 1, middles 2
        assert_eq!(total, vec![(1, 2), (2, 2)]);
    }

    #[test]
    fn fractions_sum_to_one() {
        let g = chain();
        let f = degree_fractions(&g, DegreeKind::In);
        let sum: f64 = f.iter().map(|&(_, x)| x).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn average_degree() {
        assert!((average_out_degree(&chain()) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn chung_lu_slope_is_negative_powerlaw() {
        let mut rng = SmallRng::seed_from_u64(17);
        let pairs = chung_lu_directed(5_000, 25_000, 2.1, &mut rng).unwrap();
        let g = crate::builder::graph_from_pairs(5_000, pairs, true, 0.1).unwrap();
        let dist = degree_distribution(&g, DegreeKind::Total);
        let slope = log_log_slope(&dist).unwrap();
        assert!(
            slope < -0.8,
            "expected clearly decreasing log-log distribution, slope = {slope}"
        );
    }
}
