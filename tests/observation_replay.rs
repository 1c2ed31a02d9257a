//! Record → replay round trip: an ASTI campaign recorded through
//! [`LoggingOracle`] and re-driven against [`ReplayOracle`] with the same
//! policy RNG must reproduce the identical run — the audit-trail property a
//! production deployment needs.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use seedmin::diffusion::{InfluenceOracle, LoggingOracle, ObservationLog, ReplayOracle};
use seedmin::prelude::*;
use smin_graph::generators;

fn graph() -> Graph {
    let mut rng = SmallRng::seed_from_u64(4);
    let pairs = generators::chung_lu_directed(500, 2_500, 2.1, &mut rng).unwrap();
    generators::assemble(500, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap()
}

#[test]
fn recorded_campaign_replays_identically() {
    let g = graph();
    let eta = 60;
    let params = AstiParams::with_eps(0.5);

    // Record a live run.
    let mut world_rng = SmallRng::seed_from_u64(10);
    let phi = Realization::sample(&g, Model::IC, &mut world_rng);
    let inner = RealizationOracle::new(&g, phi);
    let mut recorder = LoggingOracle::new(inner, g.n());
    let mut rng = SmallRng::seed_from_u64(99);
    let original = asti(&g, Model::IC, eta, &params, &mut recorder, &mut rng).unwrap();
    let (log, _) = recorder.into_parts();

    // Serialize and parse back (the audit file).
    let text = log.to_text();
    let parsed = ObservationLog::from_text(&text).unwrap();
    assert_eq!(parsed, log);
    assert_eq!(parsed.seeds(), original.seeds);
    assert_eq!(parsed.total_activated(), original.total_activated);

    // Re-drive the exact same policy against the replay.
    let mut replay = ReplayOracle::new(parsed);
    let mut rng = SmallRng::seed_from_u64(99);
    let replayed = asti(&g, Model::IC, eta, &params, &mut replay, &mut rng).unwrap();
    assert_eq!(replayed.seeds, original.seeds);
    assert_eq!(replayed.total_activated, original.total_activated);
    assert_eq!(replayed.num_rounds(), original.num_rounds());
    assert_eq!(replay.remaining(), 0, "every recorded step consumed");
}

#[test]
fn truncated_log_fails_loudly_mid_replay() {
    // Corrupt the audit file by dropping the final steps: re-driving the
    // same policy must hit "replay exhausted" instead of silently reporting
    // an unfinished campaign as complete.
    let g = graph();
    let eta = 250; // large enough that several rounds are needed
    let params = AstiParams::with_eps(0.5);
    let mut world_rng = SmallRng::seed_from_u64(10);
    let phi = Realization::sample(&g, Model::IC, &mut world_rng);
    let mut recorder = LoggingOracle::new(RealizationOracle::new(&g, phi), g.n());
    let mut rng = SmallRng::seed_from_u64(99);
    let original = asti(&g, Model::IC, eta, &params, &mut recorder, &mut rng).unwrap();
    let (mut log, _) = recorder.into_parts();
    assert!(
        original.num_rounds() >= 2,
        "need a multi-round campaign for this test"
    );
    log.steps.truncate(original.num_rounds() - 1);

    let mut replay = ReplayOracle::new(log);
    let mut rng = SmallRng::seed_from_u64(99);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = asti(&g, Model::IC, eta, &params, &mut replay, &mut rng);
    }));
    assert!(
        result.is_err(),
        "truncated replay must panic, not silently differ"
    );
}

#[test]
fn audit_line_format_is_pinned() {
    // Golden serialization: the CLI's `asm run --audit` files use exactly
    // this line format, so any change here silently breaks every archived
    // audit trail. The text below is the contract, byte for byte.
    use seedmin::diffusion::ObservationStep;
    let log = ObservationLog {
        n: 7,
        steps: vec![
            ObservationStep {
                seeds: vec![3],
                activated: vec![3, 5, 6],
            },
            ObservationStep {
                seeds: vec![0, 2],
                activated: vec![0],
            },
            ObservationStep {
                seeds: vec![1],
                activated: vec![],
            },
        ],
    };
    let golden = "\
# observation log, n = 7
S 3 | A 3 5 6
S 0 2 | A 0
S 1 | A
";
    assert_eq!(
        log.to_text(),
        golden,
        "serialized format drifted from golden"
    );
    let parsed = ObservationLog::from_text(golden).unwrap();
    assert_eq!(parsed, log, "golden text no longer parses to the same log");
    // idempotent round trip
    assert_eq!(
        ObservationLog::from_text(&parsed.to_text()).unwrap(),
        parsed
    );
}

#[test]
fn golden_log_replays_through_the_oracle() {
    // The golden file drives a ReplayOracle exactly as `asm run --audit`
    // output would.
    let golden = "\
# observation log, n = 5
S 4 | A 4 1
S 0 | A 0 2 3
";
    let log = ObservationLog::from_text(golden).unwrap();
    let mut replay = ReplayOracle::new(log);
    assert_eq!(replay.observe(&[4]), vec![4, 1]);
    assert_eq!(replay.observe(&[0]), vec![0, 2, 3]);
    assert_eq!(replay.num_active(), 5);
    assert_eq!(replay.remaining(), 0);
}

#[test]
fn logging_is_transparent() {
    // The wrapped oracle behaves exactly like the bare one.
    let g = graph();
    let eta = 40;
    let params = AstiParams::with_eps(0.5);
    let mut world_rng = SmallRng::seed_from_u64(20);
    let phi = Realization::sample(&g, Model::IC, &mut world_rng);

    let mut bare = RealizationOracle::new(&g, phi.clone());
    let mut rng = SmallRng::seed_from_u64(7);
    let r1 = asti(&g, Model::IC, eta, &params, &mut bare, &mut rng).unwrap();

    let mut logged = LoggingOracle::new(RealizationOracle::new(&g, phi), g.n());
    let mut rng = SmallRng::seed_from_u64(7);
    let r2 = asti(&g, Model::IC, eta, &params, &mut logged, &mut rng).unwrap();

    assert_eq!(r1.seeds, r2.seeds);
    assert_eq!(logged.num_active(), bare.num_active());
}
