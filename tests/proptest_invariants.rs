//! Property-based invariants spanning the whole stack.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use seedmin::diffusion::{ForwardSim, Model, Realization, RealizationOracle, ResidualState};
use seedmin::graph::{generators, Graph, GraphBuilder, WeightModel};
use seedmin::prelude::{asti, AstiParams};
use seedmin::sampling::{ReverseSampler, RootCountDist, SketchGenPool, SketchJob, SketchPool};

/// Strategy: a random small directed graph with uniform probabilities.
fn small_graph() -> impl Strategy<Value = (Graph, u64)> {
    (3usize..20, 0u64..1000, 1u32..100).prop_map(|(n, seed, p_pct)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let max_m = n * (n - 1) / 2;
        let m = (n + seed as usize % (max_m.max(1))).min(max_m).max(1);
        let pairs = generators::erdos_renyi(n, m, &mut rng);
        let p = p_pct as f64 / 100.0;
        let g = generators::assemble(n, &pairs, true, WeightModel::Uniform(p), &mut rng).unwrap();
        (g, seed)
    })
}

/// How [`raw_edges`] weights its edges: under the first two every node's
/// in-edges share one probability, under the last two some node's differ.
#[derive(Clone, Copy, Debug)]
enum Weights {
    WeightedCascade,
    Uniform,
    Trivalency,
    /// Weighted cascade with one in-edge of one node one ulp lower, so that
    /// node's in-edges differ only in the last bit.
    LastBit,
}

/// Strategy: `n` nodes and a raw edge list `(u, v, p)` in random order,
/// with no in-edges into every fourth node (0, 4, …), weighted per
/// [`Weights`].
fn raw_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>, Weights)> {
    let kinds = [
        Weights::WeightedCascade,
        Weights::Uniform,
        Weights::Trivalency,
        Weights::LastBit,
    ];
    (3usize..24, 0u64..10_000, 0usize..4).prop_map(move |(n, seed, kind)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pairs = Vec::new();
        for u in 0..n as u32 {
            for v in (0..n as u32).filter(|&v| v != u && v % 4 != 0) {
                if rng.random_bool(0.3) {
                    pairs.push((u, v));
                }
            }
        }
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.random_range(0..=i));
        }
        let mut indeg = vec![0usize; n];
        for &(_, v) in &pairs {
            indeg[v as usize] += 1;
        }
        let kind = kinds[kind];
        let uniform = f64::from(rng.random_range(1..=100u32)) / 100.0;
        let mut edges: Vec<(u32, u32, f64)> = pairs
            .iter()
            .map(|&(u, v)| {
                let p = match kind {
                    Weights::Uniform => uniform,
                    Weights::Trivalency => [0.1, 0.01, 0.001][rng.random_range(0..3usize)],
                    _ => 1.0 / indeg[v as usize] as f64,
                };
                (u, v, p)
            })
            .collect();
        if let Weights::LastBit = kind {
            if let Some(e) = edges.iter_mut().find(|e| indeg[e.1 as usize] >= 2) {
                e.2 = f64::from_bits(e.2.to_bits() - 1);
            }
        }
        (n, edges, kind)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reverse_csr_matches_the_raw_edge_list((n, raw, kind) in raw_edges()) {
        let mut b = GraphBuilder::new(n);
        for &(u, v, p) in &raw {
            b.add_edge_p(u, v, p).unwrap();
        }
        let g = b.build().unwrap();
        let bits = |es: &[(u32, u32, f64)]| -> Vec<(u32, u32, u64)> {
            es.iter().map(|&(u, v, p)| (u, v, p.to_bits())).collect()
        };
        let mut fwd = raw.clone();
        fwd.sort_by_key(|&(u, v, _)| (u, v));
        prop_assert_eq!(bits(&g.edges().collect::<Vec<_>>()), bits(&fwd));
        for u in 0..n as u32 {
            let want: Vec<(u32, u32, u64)> = fwd
                .iter()
                .enumerate()
                .filter(|(_, e)| e.0 == u)
                .map(|(i, &(_, v, p))| (i as u32, v, p.to_bits()))
                .collect();
            let got: Vec<(u32, u32, u64)> =
                g.out_edges_indexed(u).map(|(e, v, p)| (e, v, p.to_bits())).collect();
            prop_assert_eq!(got, want);
        }
        let mut every_node_shares = true;
        let mut overload = None;
        for v in 0..n as u32 {
            let mut into: Vec<(u32, f64)> =
                raw.iter().filter(|e| e.1 == v).map(|&(u, _, p)| (u, p)).collect();
            into.sort_by_key(|&(u, _)| u);
            prop_assert!(v % 4 != 0 || into.is_empty());
            let got: Vec<(u32, u64)> = g.in_edges(v).map(|(u, p)| (u, p.to_bits())).collect();
            let want: Vec<(u32, u64)> = into.iter().map(|&(u, p)| (u, p.to_bits())).collect();
            prop_assert_eq!(got, want);
            let srcs: Vec<u32> = into.iter().map(|e| e.0).collect();
            let shared = into
                .first()
                .map(|e| e.1)
                .filter(|p| into.iter().all(|e| e.1.to_bits() == p.to_bits()));
            every_node_shares &= into.is_empty() || shared.is_some();
            let (got_srcs, got_shared) = g.in_sources(v);
            prop_assert_eq!(got_srcs, &srcs[..]);
            prop_assert_eq!(got_shared.map(f64::to_bits), shared.map(f64::to_bits));
            let per_slot: Vec<u64> = match shared {
                Some(_) => Vec::new(),
                None => into.iter().map(|e| e.1.to_bits()).collect(),
            };
            let got_probs: Vec<u64> = g.in_probs(v).iter().map(|p| p.to_bits()).collect();
            prop_assert_eq!(got_probs, per_slot);
            let (ic_srcs, ic_shared) = g.in_sources_ic(v);
            prop_assert_eq!(ic_srcs, &srcs[..]);
            let none_live = |p: f64| (into.len() as f64 * (-p).ln_1p()).exp();
            prop_assert_eq!(
                ic_shared.map(|(p, p0)| (p.to_bits(), p0.to_bits())),
                shared.map(|p| (p.to_bits(), none_live(p).to_bits()))
            );
            let sum: f64 = into.iter().map(|e| e.1).sum();
            prop_assert_eq!(g.in_prob_sum(v).to_bits(), sum.to_bits());
            if overload.is_none() && sum > 1.0 + 1e-9 {
                overload = Some((v, sum));
            }
        }
        prop_assert_eq!(g.lt_overload(), overload);
        // 8 B per offset, 12 B per forward edge, 24 B per node record and
        // 4 B per reverse slot, plus 8 B per slot unless every node shares
        let slot_bytes = if every_node_shares { 4 } else { 12 };
        prop_assert_eq!(g.memory_bytes(), 8 * (n + 1) + 12 * g.m() + 24 * n + slot_bytes * g.m());
        if let Weights::WeightedCascade | Weights::Uniform = kind {
            prop_assert!(every_node_shares);
        }
    }

    #[test]
    fn csr_roundtrip_counts((g, seed) in small_graph()) {
        // every forward edge appears exactly once in reverse adjacency
        let fwd: usize = (0..g.n() as u32).map(|u| g.out_degree(u)).sum();
        let rev: usize = (0..g.n() as u32).map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(fwd, g.m());
        prop_assert_eq!(rev, g.m());
        for (u, v, p) in g.edges() {
            prop_assert!(g.in_edges(v).any(|(src, q)| src == u && q == p));
        }
        // `in_sources` lists the in-edges' sources in order, with Some(p)
        // iff every in-edge carries p (so None at zero in-degree); halving
        // a seed-dependent third of the edges gives nodes of both kinds
        let mixed = g.map_probabilities(|u, v, p| {
            if (u64::from(u) + 2 * u64::from(v) + seed).is_multiple_of(3) { p / 2.0 } else { p }
        });
        for h in [&g, &mixed] {
            for v in 0..h.n() as u32 {
                let in_edges: Vec<(u32, f64)> = h.in_edges(v).collect();
                let (srcs, shared) = h.in_sources(v);
                let want_srcs: Vec<u32> = in_edges.iter().map(|e| e.0).collect();
                prop_assert_eq!(srcs, &want_srcs[..]);
                let carried = in_edges
                    .first()
                    .map(|e| e.1)
                    .filter(|&p| in_edges.iter().all(|e| e.1 == p));
                prop_assert_eq!(shared, carried);
            }
        }
    }

    #[test]
    fn wc_weights_always_form_valid_lt((g, seed) in small_graph()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let wc = smin_graph::weights::apply_weights(&g, WeightModel::WeightedCascade, &mut rng);
        prop_assert!(wc.is_valid_lt());
        for v in 0..wc.n() as u32 {
            if wc.in_degree(v) > 0 {
                prop_assert!((wc.in_prob_sum(v) - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn realization_spread_monotone_in_seeds((g, seed) in small_graph()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut sim = ForwardSim::new(g.n());
        let s1 = sim.spread(&g, &phi, &[0]);
        let s2 = sim.spread(&g, &phi, &[0, (g.n() - 1) as u32]);
        prop_assert!(s2 >= s1, "adding a seed cannot shrink the spread");
        prop_assert!(s2 <= g.n());
        prop_assert!(s1 >= 1);
    }

    #[test]
    fn rr_set_contains_root_and_only_alive((g, seed) in small_graph()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sampler = ReverseSampler::new(g.n());
        let mut residual = ResidualState::new(g.n());
        // kill a couple of nodes (never the root)
        let root = (g.n() - 1) as u32;
        residual.kill(0);
        let set = sampler.sample(&g, Model::IC, Some(residual.alive_mask()), &[root], &mut rng);
        prop_assert!(set.contains(&root));
        for &u in &set {
            prop_assert!(residual.is_alive(u));
        }
        // no duplicates
        let mut s = set.clone();
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), set.len());
    }

    #[test]
    fn mrr_root_count_within_bounds((g, seed) in small_graph()) {
        let n = g.n();
        let mut rng = SmallRng::seed_from_u64(seed);
        for eta in 1..=n {
            let k = seedmin::sampling::sample_root_count(n, eta, RootCountDist::Randomized, &mut rng);
            let ratio = n as f64 / eta as f64;
            prop_assert!(k >= 1 && k <= n);
            prop_assert!((k as f64) >= ratio.floor().min(n as f64) - 1e-9);
            prop_assert!((k as f64) <= ratio.floor() + 1.0 + 1e-9);
        }
    }

    #[test]
    fn mrr_sets_nonempty_and_alive((g, seed) in small_graph()) {
        let n = g.n();
        let mut residual = ResidualState::new(n);
        if n > 4 {
            residual.kill_all(&[1, 3]);
        }
        let job = SketchJob {
            graph: &g,
            model: Model::IC,
            snapshot: residual.snapshot(),
            eta_i: (n / 2).max(1),
            dist: RootCountDist::Randomized,
            base_seed: seed,
        };
        let mut pool = SketchPool::new(n);
        SketchGenPool::new(n).generate(&job, 16, 1, &mut pool);
        for id in 0..16u32 {
            let set = pool.set(id);
            prop_assert!(!set.is_empty());
            prop_assert!(set.iter().all(|&u| residual.is_alive(u)));
        }
    }

    #[test]
    fn asti_terminates_feasibly_on_random_graphs((g, seed) in small_graph()) {
        let n = g.n();
        let eta = (n / 2).max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let phi = Realization::sample(&g, Model::IC, &mut rng);
        let mut oracle = RealizationOracle::new(&g, phi);
        let mut params = AstiParams::with_eps(0.5);
        params.trim.theta_cap = Some(2_000); // keep property runs fast
        let report = asti(&g, Model::IC, eta, &params, &mut oracle, &mut rng).unwrap();
        prop_assert!(report.reached);
        prop_assert!(report.total_activated >= eta);
        prop_assert!(report.num_seeds() <= n);
        // the adaptive policy never selects an already-active node, so the
        // seed list is duplicate-free
        let mut s = report.seeds.clone();
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), report.num_seeds());
    }

    #[test]
    fn truncated_spread_bounded(eta in 1usize..10, seed in 0u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pairs = generators::erdos_renyi(8, 12, &mut rng);
        let g = generators::assemble(8, &pairs, true, WeightModel::Uniform(0.5), &mut rng).unwrap();
        let eta = eta.min(8);
        let exact = seedmin::diffusion::exact::exact_expected_truncated(&g, Model::IC, &[0], eta);
        let vanilla = seedmin::diffusion::exact::exact_expected_spread(&g, Model::IC, &[0]);
        prop_assert!(exact <= eta as f64 + 1e-9);
        prop_assert!(exact <= vanilla + 1e-9);
        prop_assert!(exact >= 1.0 - 1e-9, "a seed always activates itself");
    }

    #[test]
    fn lt_realizations_in_degree_at_most_one((g, seed) in small_graph()) {
        // rescale to a valid LT instance first
        let mut rng = SmallRng::seed_from_u64(seed);
        let lt = smin_graph::weights::apply_weights(&g, WeightModel::WeightedCascade, &mut rng);
        let phi = Realization::sample(&lt, Model::LT, &mut rng);
        // each node has at most one live in-edge: the realization names it
        // by its source, which matches at most one edge into the node
        let mut live_in = vec![0usize; lt.n()];
        for u in 0..lt.n() as u32 {
            for (e, v, _) in lt.out_edges_indexed(u) {
                if phi.is_live(e, u, v) {
                    live_in[v as usize] += 1;
                }
            }
        }
        for (v, &count) in live_in.iter().enumerate() {
            prop_assert!(count <= 1, "node {} kept {} live in-edges", v, count);
        }
        prop_assert_eq!(live_in.iter().sum::<usize>(), phi.live_edge_count());
    }

    #[test]
    fn builder_rejects_invalid_inputs(n in 1usize..10, u in 0u32..20, v in 0u32..20, p in -1.0f64..2.0) {
        let mut b = GraphBuilder::new(n);
        let r = b.add_edge_p(u, v, p);
        let valid = (u as usize) < n && (v as usize) < n && p > 0.0 && p <= 1.0;
        prop_assert_eq!(r.is_ok(), valid);
    }
}
