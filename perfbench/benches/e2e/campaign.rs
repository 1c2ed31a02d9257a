//! The in-process campaign workloads, `campaign-ic` and `campaign-lt-b8`.
//!
//! One campaign is the work of one computed `/v1/select` minus HTTP: sample
//! the world (`Realization::sample`), then run `asti_in` on a reused
//! `AstiSession` until η nodes are active.
//!
//! As in the paper's protocol (§6: a fixed set of realizations per
//! dataset), each workload has `WORLDS` fixed worlds; campaign `i` runs on
//! world `i mod WORLDS` with a fixed algorithm seed of its own. The list's
//! content is fixed because a campaign's cost moves up to 3x with its
//! algorithm seed alone: a list drawn per `--seed` would move the medians
//! more than any useful bound. `--seed` sets the order the list runs in.
//! The list runs in `PASSES` passes. Every campaign is followed by a run of
//! the host-speed reference ([`crate::hostspeed`]), and a campaign reports
//! the mean of its passes, scaled to reference speed.

use crate::hostspeed::{self, Reference};
use crate::inputs::{self, derive, EdgeList, Fnv};
use crate::trace::Tracer;
use crate::{mean, median, ms, percentile, sorted, Args, Outcome};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smin_core::{asti_in, AstiParams, AstiReport, AstiSession};
use smin_diffusion::{
    ForwardSim, InfluenceOracle, Model, Realization, RealizationOracle, ResidualState,
};
use smin_graph::{DedupPolicy, Graph, GraphBuilder, NodeId};
use smin_sampling::{RootCountDist, SketchGenPool, SketchJob, SketchPool};
use std::time::{Duration, Instant};

/// Passes over the campaign list; each campaign reports their mean.
pub const PASSES: usize = 4;
/// Passes of a traced run, each timing every item untraced and traced.
pub const TRACED_PASSES: usize = 2;
/// Cold set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Warm-up campaigns stop once the session's pool stops growing, or here.
const MAX_WARMUP: u64 = 8;
/// Fixed worlds per workload; the campaign count is a multiple of this.
pub const WORLDS: usize = 20;
/// Campaigns per second of `--seconds`: fixes the list length, so the same
/// `--seconds` always runs the same list.
const CAMPAIGNS_PER_SECOND: f64 = 2.67;
/// ε of every ASTI run, as in the paper's default setting.
pub const EPS: f64 = 0.5;
/// Seed streams (see [`inputs::derive`]).
const WORLD: u64 = 1;
const ALGO: u64 = 2;
const WARM: u64 = 3;
const PROBE: u64 = 4;

/// What `asti_in` runs in one campaign.
#[derive(Clone, Copy)]
pub struct Algo {
    pub model: Model,
    pub batch: usize,
    pub threads: usize,
}

impl Algo {
    fn params(&self) -> AstiParams {
        let mut p = AstiParams::batched(EPS, self.batch);
        p.trim.threads = Some(self.threads);
        p
    }
}

/// What one campaign workload runs.
struct Workload {
    algo: Algo,
    /// η as a fraction of n.
    eta_frac: f64,
    input: fn() -> EdgeList,
    /// Recorded input checksum, checked before anything runs.
    checksum: u64,
    /// Seed of the workload's fixed worlds and algorithm seeds.
    list_seed: u64,
}

impl Workload {
    fn eta(&self, n: usize) -> usize {
        ((n as f64 * self.eta_frac).round() as usize).clamp(1, n)
    }
}

fn workload(name: &str) -> Workload {
    match name {
        "campaign-ic" => Workload {
            algo: Algo {
                model: Model::IC,
                batch: 1,
                threads: 1,
            },
            eta_frac: 0.10,
            input: || inputs::chung_lu(15_200, 62_800, 2.1, 0x5EED_0001),
            checksum: 0x2c06_ea40_4242_61fb,
            list_seed: 0x0011_0001,
        },
        _ => Workload {
            algo: Algo {
                model: Model::LT,
                batch: 8,
                threads: 1,
            },
            eta_frac: 0.20,
            input: || inputs::barabasi_albert(20_000, 2, 0x5EED_0002),
            checksum: 0xa509_7924_8c30_bcb1,
            list_seed: 0x0011_0002,
        },
    }
}

/// Builds the graph through `GraphBuilder`.
pub fn build(el: &EdgeList) -> Result<Graph, String> {
    let mut b = GraphBuilder::with_capacity(el.n, el.edges.len()).dedup_policy(DedupPolicy::Error);
    for &(u, v, p) in &el.edges {
        b.add_edge_p(u, v, p)
            .map_err(|e| format!("edge ({u},{v}): {e}"))?;
    }
    b.build().map_err(|e| format!("graph build: {e}"))
}

/// One campaign on the world sampled from `world`, with the algorithm's
/// random stream seeded by `seed`; returns its wall time and the report.
pub fn campaign(
    g: &Graph,
    algo: &Algo,
    eta: usize,
    world: u64,
    seed: u64,
    session: &mut AstiSession,
) -> Result<(Duration, AstiReport), String> {
    let params = algo.params();
    let t0 = Instant::now();
    let mut wrng = SmallRng::seed_from_u64(world);
    let phi = Realization::sample(g, algo.model, &mut wrng);
    let mut oracle = RealizationOracle::new(g, phi);
    let mut rng = SmallRng::seed_from_u64(seed);
    let report = asti_in(g, algo.model, eta, &params, &mut oracle, &mut rng, session)
        .map_err(|e| format!("asti_in: {e}"))?;
    Ok((t0.elapsed(), report))
}

/// An oracle that records a `diffusion.observe` span per call.
struct TracedOracle<'a, 'g> {
    inner: RealizationOracle<'g>,
    tracer: &'a mut Tracer,
    parent: usize,
    item: u64,
}

impl InfluenceOracle for TracedOracle<'_, '_> {
    fn observe(&mut self, seeds: &[NodeId]) -> Vec<NodeId> {
        let s = self
            .tracer
            .open("diffusion.observe", Some(self.parent), self.item);
        let newly = self.inner.observe(seeds);
        self.tracer.close(s);
        newly
    }

    fn active_mask(&self) -> &[bool] {
        self.inner.active_mask()
    }

    fn num_active(&self) -> usize {
        self.inner.num_active()
    }
}

/// [`campaign`] with a span around every call into a layer. Returns the
/// root span's id and the report.
#[allow(clippy::too_many_arguments)]
pub fn campaign_traced(
    g: &Graph,
    algo: &Algo,
    eta: usize,
    world: u64,
    seed: u64,
    session: &mut AstiSession,
    tracer: &mut Tracer,
    item: u64,
) -> Result<(usize, AstiReport), String> {
    let params = algo.params();
    let root = tracer.open("bench.campaign", None, item);
    let r = tracer.open("diffusion.realize", Some(root), item);
    let mut wrng = SmallRng::seed_from_u64(world);
    let phi = Realization::sample(g, algo.model, &mut wrng);
    let oracle = RealizationOracle::new(g, phi);
    tracer.close(r);
    let a = tracer.open("core.asti", Some(root), item);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut traced = TracedOracle {
        inner: oracle,
        tracer: &mut *tracer,
        parent: a,
        item,
    };
    let report = asti_in(g, algo.model, eta, &params, &mut traced, &mut rng, session);
    tracer.close(a);
    let sm = session.stage_micros();
    tracer.derived("sampling.sketch", a, Duration::from_micros(sm.sketch));
    tracer.derived("sampling.coverage", a, Duration::from_micros(sm.coverage));
    tracer.close(root);
    let report = report.map_err(|e| format!("asti_in: {e}"))?;
    Ok((root, report))
}

/// FNV-1a digest of a campaign's selected seeds, in selection order.
pub fn seeds_digest(seeds: &[NodeId]) -> u64 {
    let mut d = Fnv::default();
    d.eat(seeds.len() as u64);
    for &s in seeds {
        d.eat(u64::from(s));
    }
    d.value()
}

/// Replays `seeds` on the world sampled from `world`: they must be
/// distinct, reach η, and the report must say so.
pub fn check_on_world(
    g: &Graph,
    model: Model,
    eta: usize,
    world: u64,
    report_reached: bool,
    seeds: &[NodeId],
    sim: &mut ForwardSim,
) -> Result<(), String> {
    if !report_reached {
        return Err("report says eta was not reached".into());
    }
    let mut uniq = seeds.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    if uniq.len() != seeds.len() {
        return Err("selected seeds are not distinct".into());
    }
    let mut wrng = SmallRng::seed_from_u64(world);
    let phi = Realization::sample(g, model, &mut wrng);
    let spread = sim.spread(g, &phi, seeds);
    if spread < eta {
        return Err(format!("replayed spread {spread} < eta {eta}"));
    }
    Ok(())
}

/// A warm, ready-to-time graph and session, and what setting it up cost.
struct Ready {
    g: Graph,
    session: AstiSession,
    build: Duration,
    reverse: Duration,
    total: Duration,
}

fn setup(el: &EdgeList, w: &Workload) -> Result<Ready, String> {
    let t0 = Instant::now();
    let g = build(el)?;
    let build = t0.elapsed();
    let t1 = Instant::now();
    let first = g.in_edges(0).count();
    let reverse = t1.elapsed();
    std::hint::black_box(first);
    let eta = w.eta(g.n());
    let mut session = AstiSession::new(g.n());
    let mut last = 0usize;
    for j in 0..MAX_WARMUP {
        campaign(
            &g,
            &w.algo,
            eta,
            derive(w.list_seed, WARM, 2 * j),
            derive(w.list_seed, WARM, 2 * j + 1),
            &mut session,
        )?;
        let now = session.pool_heap_bytes();
        if j > 0 && now <= last {
            break;
        }
        last = now;
    }
    Ok(Ready {
        g,
        session,
        build,
        reverse,
        total: t0.elapsed(),
    })
}

/// Sketch probe on a first-round job: the sets `SketchGenPool::generate`
/// makes on one thread, their replay through `SketchPool::add_set` alone,
/// and the same job on two threads (whose pool must be identical).
pub struct Probe {
    pub sets: usize,
    pub append_us_per_set: f64,
    pub sample_us_per_set: f64,
    pub edges_per_set: f64,
    pub t2_speedup: f64,
}

impl Probe {
    /// Pushes the probe's metrics, its times multiplied by `scale`.
    pub fn report(&self, out: &mut Outcome, scale: f64) {
        out.push(
            "sampling.append_us_per_set",
            self.append_us_per_set * scale,
            "us",
            self.sets,
        );
        out.push(
            "sampling.sample_us_per_set",
            self.sample_us_per_set * scale,
            "us",
            self.sets,
        );
        out.push(
            "sampling.edges_per_set",
            self.edges_per_set,
            "count",
            self.sets,
        );
        out.push("sampling.t2_speedup", self.t2_speedup, "x", 1);
    }
}

pub fn probe(g: &Graph, model: Model, eta: usize, sets: usize, seed: u64) -> Result<Probe, String> {
    const REPS: usize = 3;
    let residual = ResidualState::new(g.n());
    let job = SketchJob {
        graph: g,
        model,
        snapshot: residual.snapshot(),
        eta_i: eta,
        dist: RootCountDist::Randomized,
        base_seed: derive(seed, PROBE, 0),
    };
    let mut gen = SketchGenPool::new(g.n());
    let mut one = SketchPool::new(g.n());
    let mut two = SketchPool::new(g.n());
    let mut replay = SketchPool::new(g.n());
    let (mut t1, mut t2, mut ta) = (Duration::MAX, Duration::MAX, Duration::MAX);
    let mut edges = 0usize;
    for _ in 0..REPS {
        one.reset();
        let t = Instant::now();
        edges = gen.generate(&job, sets, 1, &mut one).edges_examined;
        t1 = t1.min(t.elapsed());
        two.reset();
        let t = Instant::now();
        gen.generate(&job, sets, 2, &mut two);
        t2 = t2.min(t.elapsed());
    }
    let copied: Vec<Vec<NodeId>> = (0..one.len() as u32).map(|i| one.set(i).to_vec()).collect();
    for _ in 0..REPS {
        replay.reset();
        let t = Instant::now();
        for s in &copied {
            replay.add_set(s);
        }
        ta = ta.min(t.elapsed());
    }
    if (0..one.len() as u32).any(|i| one.set(i) != two.set(i)) || one.len() != two.len() {
        return Err("sketch probe: 2-thread pool differs from 1-thread pool".into());
    }
    let n = sets.max(1) as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    Ok(Probe {
        sets,
        append_us_per_set: us(ta) / n,
        sample_us_per_set: (us(t1) - us(ta)).max(0.0) / n,
        edges_per_set: edges as f64 / n,
        t2_speedup: t1.as_secs_f64() / t2.as_secs_f64(),
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = workload(&args.workload);
    let algo = &w.algo;
    let el = (w.input)();
    check_input(&el, w.checksum)?;

    // Cold set-ups, each followed by reference runs; the last one is kept
    // for timing.
    let mut host = Reference::new();
    let mut setup_ref_ms = vec![host.run()];
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let r = setup(&el, &w)?;
        setup_ref_ms.extend((0..hostspeed::SETUP_RUNS).map(|_| host.run()));
        setups.push((r.total, r.build, r.reverse));
        ready = Some(r);
    }
    let setup_scale = hostspeed::scale(&setup_ref_ms);
    let Ready { g, mut session, .. } = ready.ok_or("no set-up ran")?;
    drop(el);
    let eta = w.eta(g.n());
    let per_world = (args.seconds as f64 * CAMPAIGNS_PER_SECOND / WORLDS as f64).round();
    let count = WORLDS * (per_world as usize).max(1);
    let seeds: Vec<(u64, u64)> = (0..count as u64)
        .map(|i| {
            let world = derive(w.list_seed, WORLD, i % WORLDS as u64);
            (world, derive(w.list_seed, ALGO, i))
        })
        .collect();
    let order = inputs::shuffled(count, args.seed);

    // Timed passes, each campaign followed by a reference run. A traced run
    // then runs the campaign traced, so `trace.overhead_frac` compares the
    // two under the same phase of the host.
    let passes = if args.trace { TRACED_PASSES } else { PASSES };
    let mut out = Outcome::default();
    // Milliseconds by [campaign][pass], and by [campaign][round][pass].
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(passes); count];
    let mut round_times: Vec<Vec<Vec<f64>>> = vec![Vec::new(); count];
    let mut traced_times: Vec<Vec<f64>> = vec![Vec::with_capacity(passes); count];
    let mut ref_ms = Vec::with_capacity(count * passes);
    let mut first: Vec<Option<AstiReport>> = vec![None; count];
    let mut tracer = Tracer::new();
    let mut traced_select = Duration::ZERO;
    let cpu0 = crate::process_cpu();
    let wall0 = Instant::now();
    for pass in 0..passes {
        for &i in &order {
            let (world, seed) = seeds[i];
            out.attempted += 1;
            let result = campaign(&g, algo, eta, world, seed, &mut session);
            ref_ms.push(host.run());
            let (t, report) = match result {
                Ok(x) => x,
                Err(e) => {
                    out.fail(format!("campaign {i} pass {pass}: {e}"));
                    continue;
                }
            };
            times[i].push(ms(t));
            // Round j of a campaign is the same work in every pass.
            let rounds = &mut round_times[i];
            rounds.resize(report.rounds.len(), Vec::with_capacity(passes));
            for (b, r) in rounds.iter_mut().zip(&report.rounds) {
                b.push(ms(r.select_time));
            }
            match &first[i] {
                None => first[i] = Some(report),
                Some(f) if f.seeds != report.seeds => out.fail(format!(
                    "campaign {i}: pass {pass} selected different seeds than pass 0"
                )),
                Some(_) => {}
            }
            if args.trace {
                let (root, rep) = campaign_traced(
                    &g,
                    algo,
                    eta,
                    world,
                    seed,
                    &mut session,
                    &mut tracer,
                    i as u64,
                )?;
                traced_select += rep.total_select_time;
                traced_times[i].push(tracer.spans[root].dur_ns() as f64 / 1e6);
            }
        }
    }
    let wall = wall0.elapsed();
    // Before the output checks, which hold sessions of their own.
    let rss = crate::rss_mb();
    let cpu = crate::process_cpu().saturating_sub(cpu0);

    // Output checks: every campaign's seeds replayed on its world, and a few
    // campaigns rerun with another sketch thread count select the same.
    let mut sim = ForwardSim::new(g.n());
    let mut digest = Fnv::default();
    for (i, rep) in first.iter().enumerate() {
        let Some(rep) = rep else { continue };
        digest.eat(seeds_digest(&rep.seeds));
        let (world, _) = seeds[i];
        if let Err(e) = check_on_world(
            &g,
            algo.model,
            eta,
            world,
            rep.reached,
            &rep.seeds,
            &mut sim,
        ) {
            out.fail(format!("campaign {i}: {e}"));
        }
    }
    let other = Algo {
        threads: if algo.threads == 1 { 2 } else { 1 },
        ..*algo
    };
    let mut fresh = AstiSession::new(g.n());
    for i in [0, count / 2, count - 1] {
        let (world, seed) = seeds[i];
        let (_, rep) = campaign(&g, &other, eta, world, seed, &mut fresh)?;
        match &first[i] {
            Some(f) if f.seeds == rep.seeds && f.total_sets == rep.total_sets => {}
            _ => out.fail(format!(
                "campaign {i}: {}-thread rerun differs",
                other.threads
            )),
        }
    }
    println!("seed_digest={:016x} campaigns={count}", digest.value());

    let reports: Vec<&AstiReport> = first.iter().flatten().collect();
    let n_rep = reports.len().max(1) as f64;
    let per_report = |f: fn(&AstiReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>() / n_rep;
    // Each item's mean over its passes, unscaled, in ascending order.
    let means = |v: &[Vec<f64>]| -> Vec<f64> {
        sorted(
            v.iter()
                .filter(|p| !p.is_empty())
                .map(|p| mean(p))
                .collect(),
        )
    };
    let scale = hostspeed::scale(&ref_ms);
    let raw = means(&times);
    let lat: Vec<f64> = raw.iter().map(|t| t * scale).collect();
    println!(
        "unscaled p50_ms={:.4} ref_mean_ms={:.4} scale={scale:.4}",
        percentile(&raw, 0.5),
        mean(&ref_ms)
    );

    if !args.trace {
        let rounds_ms: Vec<f64> = round_times
            .iter()
            .flat_map(|rounds| means(rounds))
            .map(|t| t * scale)
            .collect();
        let rounds_ms = sorted(rounds_ms);
        out.push("p50_ms", percentile(&lat, 0.5), "ms", lat.len());
        out.push(
            "tail_ms",
            percentile(&lat, tail_rank(lat.len())),
            "ms",
            lat.len(),
        );
        out.push(
            "light_p50_ms",
            percentile(&rounds_ms, 0.5),
            "ms",
            rounds_ms.len(),
        );
        let secs = lat.iter().sum::<f64>() / 1e3;
        out.push("ops_per_s", lat.len() as f64 / secs, "1/s", lat.len());
        out.push(
            "seeds_per_campaign",
            per_report(|r| r.num_seeds() as f64),
            "seeds",
            reports.len(),
        );
        let setup_s: Vec<f64> = setups.iter().map(|s| s.0.as_secs_f64()).collect();
        out.push("setup_s", median(&setup_s) * setup_scale, "s", setups.len());
        out.push("rss_mb", rss, "MB", 1);
        return Ok(out);
    }

    // Traced run: per-layer metrics from the spans.
    let traced = means(&traced_times);
    let runs = count * passes;
    // Per-layer times are scaled to reference speed like the end-to-end ones.
    let per = |ns: i64| ns as f64 / 1e6 / runs as f64 * scale;
    let campaign_ms = per(tracer.total_ns("bench.campaign"));
    let realize_ms = per(tracer.total_ns("diffusion.realize"));
    let observe_ms = per(tracer.total_ns("diffusion.observe"));
    let sketch_ms = per(tracer.total_ns("sampling.sketch"));
    let coverage_ms = per(tracer.total_ns("sampling.coverage"));
    let select_ms = ms(traced_select) / runs as f64 * scale;
    let sets = per_report(|r| r.total_sets as f64);
    let first_round_sets = reports
        .first()
        .and_then(|r| r.rounds.first())
        .map_or(1, |r| r.sets_generated);
    let sketch_probe = probe(&g, algo.model, eta, first_round_sets, w.list_seed)?;
    let graph_s = |f: fn(&(Duration, Duration, Duration)) -> Duration| {
        median(
            &setups
                .iter()
                .map(|s| f(s).as_secs_f64())
                .collect::<Vec<_>>(),
        ) * setup_scale
    };
    out.push("graph.load_s", graph_s(|s| s.1), "s", setups.len());
    out.push("graph.reverse_csr_s", graph_s(|s| s.2), "s", setups.len());
    out.push("diffusion.realize_ms", realize_ms, "ms", runs);
    out.push("diffusion.observe_ms", observe_ms, "ms", runs);
    out.push(
        "core.rounds",
        per_report(|r| r.num_rounds() as f64),
        "count",
        reports.len(),
    );
    out.push("core.select_ms", select_ms, "ms", runs);
    out.push(
        "core.trim_self_ms",
        select_ms - sketch_ms - coverage_ms,
        "ms",
        runs,
    );
    let loop_ms = campaign_ms - realize_ms - select_ms - observe_ms;
    out.push("core.loop_self_ms", loop_ms, "ms", runs);
    out.push("sampling.sketch_ms", sketch_ms, "ms", runs);
    out.push("sampling.coverage_ms", coverage_ms, "ms", runs);
    out.push("sampling.sets", sets, "count", reports.len());
    out.push("sampling.sets_per_ms", sets / sketch_ms, "1/ms", runs);
    let pool_mb = session.pool_heap_bytes() as f64 / (1u64 << 20) as f64;
    out.push("sampling.pool_mb", pool_mb, "MB", 1);
    sketch_probe.report(&mut out, scale);
    let util = cpu.as_secs_f64() / wall.as_secs_f64();
    out.push("sampling.cpu_util", util, "frac", 1);
    for &(name, unit) in crate::service::LAYER_METRICS {
        out.push(name, 0.0, unit, 0);
    }
    out.push("host.ref_ms", mean(&ref_ms), "ms", ref_ms.len());
    let overhead = percentile(&traced, 0.5) / percentile(&raw, 0.5) - 1.0;
    out.push("trace.overhead_frac", overhead, "frac", traced.len());
    crate::finish_trace(&mut out, &tracer, &args.workload, runs, "campaign")?;
    Ok(out)
}

/// Nearest-rank quantile of the highest percentile that still has at
/// least ten samples beyond it.
pub fn tail_rank(n: usize) -> f64 {
    n.saturating_sub(10).max(1) as f64 / n.max(1) as f64
}

/// Checks a generated input against its recorded checksum.
pub fn check_input(el: &EdgeList, recorded: u64) -> Result<(), String> {
    let sum = el.checksum();
    println!("input n={} m={} checksum={sum:016x}", el.n, el.edges.len());
    if sum != recorded {
        return Err(format!(
            "input checksum {sum:016x} != recorded {recorded:016x}"
        ));
    }
    Ok(())
}
