//! Dataset registry: the four evaluation datasets of Table 2 and their
//! synthetic stand-ins.
//!
//! | dataset | n | m | type |
//! |---|---|---|---|
//! | NetHEPT | 15.2K | 31.4K | undirected |
//! | Epinions | 132K | 841K | directed |
//! | Youtube | 1.13M | 2.99M | undirected |
//! | LiveJournal | 4.85M | 69.0M | directed |
//!
//! Stand-ins are directed Chung–Lu power-law graphs matched on `n`, `m`
//! (after mirroring undirected edges) and tail exponent, with the paper's
//! weighted-cascade probabilities. When a `--snap` directory is supplied and
//! contains `<name>.smg` (preferred, instant binary load) or `<name>.txt`,
//! the real edge list is loaded instead.

use crate::args::{Args, Tier};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smin_graph::generators::{assemble, chung_lu_directed};
use smin_graph::{io, Graph, WeightModel};

/// Power-law exponent γ of every Chung–Lu stand-in.
pub const GAMMA: f64 = 2.1;

/// One evaluation dataset at one tier.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Stand-in name, e.g. `nethept-like`.
    pub name: &'static str,
    /// SNAP base name for `--snap` loading, e.g. `nethept`.
    pub snap_name: &'static str,
    /// Nodes in the stand-in at this tier.
    pub n: usize,
    /// *Directed* edges in the stand-in at this tier (undirected datasets
    /// are already mirrored in this count).
    pub m: usize,
    /// Whether the original dataset is directed (Table 2's "Type").
    pub directed: bool,
    /// Threshold fractions `η/n` swept in the figures (§6.1: small-η setting
    /// for LiveJournal, large-η for the rest).
    pub eta_fracs: &'static [f64],
}

/// Large-η sweep (NetHEPT, Epinions, Youtube).
pub const LARGE_ETA: &[f64] = &[0.01, 0.05, 0.10, 0.15, 0.20];
/// Small-η sweep (LiveJournal).
pub const SMALL_ETA: &[f64] = &[0.01, 0.02, 0.03, 0.04, 0.05];

/// A stand-in's `(n, m)` at the smoke, quick and paper tiers.
type Sizes = [(usize, usize); 3];

/// Table 2's datasets, each stated once: name, SNAP name, whether it is
/// directed, η sweep, and its stand-in's sizes.
const DATASETS: [(&str, &str, bool, &[f64], Sizes); 4] = [
    (
        "nethept-like",
        "nethept",
        false,
        LARGE_ETA,
        [(1_520, 6_280), (15_200, 62_800), (15_200, 62_800)],
    ),
    (
        "epinions-like",
        "epinions",
        true,
        LARGE_ETA,
        [(2_640, 16_820), (26_400, 168_200), (132_000, 841_000)],
    ),
    (
        "youtube-like",
        "youtube",
        false,
        LARGE_ETA,
        [(4_520, 23_920), (45_200, 239_200), (1_130_000, 5_980_000)],
    ),
    (
        "livejournal-like",
        "livejournal",
        true,
        SMALL_ETA,
        [(4_850, 69_000), (48_500, 690_000), (4_850_000, 69_000_000)],
    ),
];

/// The dataset list for a tier. Paper tier matches Table 2 exactly; quick
/// and smoke tiers shrink `n`/`m` proportionally (the sweeps are in `η/n`,
/// so every figure's shape is preserved).
pub fn dataset_specs(tier: Tier) -> Vec<DatasetSpec> {
    let size = match tier {
        Tier::Smoke => 0,
        Tier::Quick => 1,
        Tier::Paper => 2,
    };
    DATASETS
        .iter()
        .map(|&(name, snap_name, directed, eta_fracs, sizes)| {
            let (n, m) = sizes[size];
            DatasetSpec {
                name,
                snap_name,
                n,
                m,
                directed,
                eta_fracs,
            }
        })
        .collect()
}

/// Materializes a dataset: from `--snap` when available (a packed
/// `<name>.smg` snapshot loads in milliseconds and is preferred over the
/// `<name>.txt` edge list), otherwise the Chung–Lu stand-in. WC weights
/// either way (§6.1). Deterministic in `args.seed`.
pub fn build_dataset(spec: &DatasetSpec, args: &Args) -> Graph {
    if let Some(dir) = &args.snap_dir {
        // Preference order: `asm pack`ed binary snapshot first, raw SNAP
        // text second. Both carry structural (p = 1) edges; WC weights are
        // applied here so the two paths produce identical graphs.
        let smg = format!("{dir}/{}.smg", spec.snap_name);
        let txt = format!("{dir}/{}.txt", spec.snap_name);
        let structural = if std::path::Path::new(&smg).exists() {
            Some(
                smin_graph::store::read_smg_path(&smg)
                    .unwrap_or_else(|e| panic!("failed to read {smg}: {e}")),
            )
        } else if std::path::Path::new(&txt).exists() {
            let el = io::read_edge_list_path(&txt)
                .unwrap_or_else(|e| panic!("failed to read {txt}: {e}"));
            Some(
                el.into_graph(spec.directed, 1.0)
                    .unwrap_or_else(|e| panic!("failed to build graph from {txt}: {e}")),
            )
        } else {
            None
        };
        if let Some(structural) = structural {
            let mut rng = SmallRng::seed_from_u64(args.seed);
            return smin_graph::weights::apply_weights(
                &structural,
                WeightModel::WeightedCascade,
                &mut rng,
            );
        }
        eprintln!(
            "note: neither {smg} nor {txt} found; using synthetic stand-in for {}",
            spec.name
        );
    }

    let mut rng = SmallRng::seed_from_u64(args.seed ^ fxhash(spec.name));
    // The generator produces directed pairs; undirected datasets are modeled
    // by mirroring half as many pairs.
    if spec.directed {
        let pairs =
            chung_lu_directed(spec.n, spec.m, GAMMA, &mut rng).expect("dataset specs are sparse");
        assemble(spec.n, &pairs, true, WeightModel::WeightedCascade, &mut rng)
            .expect("generator produces valid edges")
    } else {
        let pairs = chung_lu_directed(spec.n, spec.m / 2, GAMMA, &mut rng)
            .expect("dataset specs are sparse");
        assemble(
            spec.n,
            &pairs,
            false,
            WeightModel::WeightedCascade,
            &mut rng,
        )
        .expect("generator produces valid edges")
    }
}

/// Tiny deterministic string hash for per-dataset seed derivation.
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tier_matches_table2() {
        let specs = dataset_specs(Tier::Paper);
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].n, 15_200);
        assert_eq!(specs[1].m, 841_000);
        assert!(!specs[2].directed);
        assert_eq!(specs[3].eta_fracs, SMALL_ETA);
    }

    #[test]
    fn smoke_builds_and_is_wc_weighted() {
        let args = Args {
            tier: Tier::Smoke,
            ..Args::default()
        };
        let specs = dataset_specs(Tier::Smoke);
        let g = build_dataset(&specs[0], &args);
        assert_eq!(g.n(), 1_520);
        // Mirroring can collapse a handful of mutual pairs, so the directed
        // edge count is within a fraction of a percent of the target.
        assert!(
            (g.m() as f64 - 6_280.0).abs() / 6_280.0 < 0.01,
            "m = {}",
            g.m()
        );
        // WC weights: every edge into v carries 1/indeg(v)
        for v in 0..50u32 {
            for (_, p) in g.in_edges(v) {
                assert!((p - 1.0 / g.in_degree(v) as f64).abs() < 1e-12);
            }
        }
        assert!(g.is_valid_lt(), "WC weights must form a valid LT instance");
    }

    #[test]
    fn undirected_standins_are_mirrored() {
        let args = Args {
            tier: Tier::Smoke,
            ..Args::default()
        };
        let spec = &dataset_specs(Tier::Smoke)[0]; // nethept-like, undirected
        let g = build_dataset(spec, &args);
        let mut mirrored = 0usize;
        let mut total = 0usize;
        for (u, v, _) in g.edges().take(500) {
            total += 1;
            if g.has_edge(v, u) {
                mirrored += 1;
            }
        }
        assert_eq!(mirrored, total, "every undirected edge appears both ways");
    }

    #[test]
    fn snap_dir_prefers_packed_smg_snapshot() {
        let dir = std::env::temp_dir().join(format!("smin_bench_smg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp snap dir");
        let spec = &dataset_specs(Tier::Smoke)[0]; // nethept-like
        let args = Args {
            tier: Tier::Smoke,
            snap_dir: Some(dir.to_string_lossy().into_owned()),
            ..Args::default()
        };
        // Pack a small structural (p = 1) graph as <snap_name>.smg.
        let mut rng = SmallRng::seed_from_u64(7);
        let pairs = chung_lu_directed(300, 1200, 2.1, &mut rng).unwrap();
        let structural = assemble(300, &pairs, true, WeightModel::Trivalency, &mut rng)
            .expect("generator produces valid edges");
        let smg = dir.join(format!("{}.smg", spec.snap_name));
        smin_graph::store::write_smg_path(&structural, &smg).expect("write snapshot");

        let g = build_dataset(spec, &args);
        // The snapshot (n = 300) won over both the missing .txt and the
        // synthetic stand-in (n = 1520), and WC weights were applied on top.
        assert_eq!(g.n(), 300);
        assert_eq!(g.m(), structural.m());
        for v in 0..g.n() as u32 {
            for (_, p) in g.in_edges(v) {
                assert!((p - 1.0 / g.in_degree(v) as f64).abs() < 1e-12);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deterministic_given_seed() {
        let args = Args {
            tier: Tier::Smoke,
            ..Args::default()
        };
        let spec = &dataset_specs(Tier::Smoke)[1];
        let g1 = build_dataset(spec, &args);
        let g2 = build_dataset(spec, &args);
        assert_eq!(g1.m(), g2.m());
        let e1: Vec<_> = g1.edges().take(100).collect();
        let e2: Vec<_> = g2.edges().take(100).collect();
        assert_eq!(e1, e2);
    }
}
