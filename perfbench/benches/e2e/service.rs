//! The `svc-mixed` workload: the `smin-service` server in this process on
//! loopback (epoll transport, 2 dispatch workers), driven by 2 keep-alive
//! clients in a closed loop over a fixed request schedule:
//!
//! * 70% `/v1/select` cache hits over `HIT_KEYS` keys warmed before timing;
//! * 10% uncached computed selects (`"cache":false`, `"threads":1`), each
//!   with its own seed;
//! * 20% `/v1/select-batch` requests of `BATCH_ITEMS` tiny uncached items
//!   (a 64-node graph and a θ cap of 8, so per-request work dominates).
//!
//! The schedule's content is fixed; `--seed` sets its order. It runs in
//! `PASSES` passes. Each client sends its half in chunks of `CHUNK`
//! requests; between chunks, with the server idle, both clients run the
//! host-speed reference ([`crate::hostspeed`]) at once. Every request
//! reports the mean of its passes, scaled to reference speed. Both graphs
//! are the benchmark's own Chung–Lu
//! edge lists, written as `.smg` files and registered through
//! `POST /v1/graphs {"path"}`.

use crate::campaign::{self, check_input, check_on_world, Algo, PASSES, SETUPS, TRACED_PASSES};
use crate::hostspeed::{self, Reference};
use crate::inputs::{self, derive, Fnv};
use crate::trace::Tracer;
use crate::{mean, median, ms, percentile, sorted, Args, Outcome};
use smin_diffusion::{ForwardSim, Model};
use smin_graph::store;
use smin_service::{Server, ServerConfig, ServerHandle, Transport};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Input checksums of the two graphs, checked before anything runs.
const CHECKSUM: u64 = 0x391d_9473_cf7c_e32b;
const TINY_CHECKSUM: u64 = 0xb870_b9a1_b443_ee6a;
const GRAPH_ID: &str = "svc";
const TINY_ID: &str = "tiny";
const N: usize = 5_000;
const M: usize = 20_000;
/// η of a computed select (5% of n) and of a warmed hit key (2% of n).
const ETA_COMPUTED: usize = 250;
const ETA_HIT: usize = 100;
const ETA_BATCH_ITEM: usize = 4;
const THETA_CAP_BATCH_ITEM: usize = 8;
const HIT_KEYS: usize = 64;
const BATCH_ITEMS: usize = 8;
/// Schedule blocks per second of `--seconds`; a block is 20 requests:
/// 14 hits, 2 computed selects, 4 batches.
const BLOCKS_PER_SECOND: f64 = 6.67;
/// Requests a client sends between two reference runs.
const CHUNK: usize = 25;
/// Computed selects replayed in process through `asti_in` and compared.
const CHECKED: usize = 8;
const LIST_SEED: u64 = 0x0011_0003;
const HIT: u64 = 5;
const COMPUTED: u64 = 6;
const BATCH: u64 = 7;

/// Per-layer metric names only this workload measures: the campaign
/// workloads print them as 0 (no service on their path).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("service.transport_frac", "frac"),
    ("service.stage_frac", "frac"),
    ("service.unattributed_frac", "frac"),
    ("service.poll_busy_frac", "frac"),
    ("service.cache_hit_frac", "frac"),
    ("service.bytes_per_req", "bytes"),
    ("service.errors", "count"),
    ("service.hit_tail_x", "x"),
    ("service.batch_x", "x"),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Hit,
    Computed,
    Batch,
}

/// One scheduled request: its class, its content index within the class,
/// and the exact bytes sent.
struct Req {
    class: Class,
    index: usize,
    wire: Vec<u8>,
    traced_wire: Vec<u8>,
}

fn wire(path: &str, body: &str, traced: bool) -> Vec<u8> {
    let stage = if traced { "X-Stage-Micros: 1\r\n" } else { "" };
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n{stage}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn hit_body(key: usize) -> String {
    let seed = derive(LIST_SEED, HIT, key as u64) % 1_000_000_000;
    format!(r#"{{"graph":"{GRAPH_ID}","eta":{ETA_HIT},"seed":{seed},"threads":1}}"#)
}

fn computed_seed(k: usize) -> u64 {
    derive(LIST_SEED, COMPUTED, k as u64) % 1_000_000_000
}

fn computed_body(seed: u64) -> String {
    format!(
        r#"{{"graph":"{GRAPH_ID}","eta":{ETA_COMPUTED},"seed":{seed},"cache":false,"threads":1}}"#
    )
}

fn batch_body(k: usize) -> String {
    let items: Vec<String> = (0..BATCH_ITEMS)
        .map(|t| {
            let seed = derive(LIST_SEED, BATCH, (k * BATCH_ITEMS + t) as u64) % 1_000_000_000;
            format!(
                r#"{{"eta":{ETA_BATCH_ITEM},"theta_cap":{THETA_CAP_BATCH_ITEM},"seed":{seed},"cache":false,"threads":1}}"#
            )
        })
        .collect();
    format!(r#"{{"graph":"{TINY_ID}","items":[{}]}}"#, items.join(","))
}

fn req(class: Class, index: usize) -> Req {
    let (path, body) = match class {
        Class::Hit => ("/v1/select", hit_body(index % HIT_KEYS)),
        Class::Computed => ("/v1/select", computed_body(computed_seed(index))),
        Class::Batch => ("/v1/select-batch", batch_body(index)),
    };
    Req {
        class,
        index,
        wire: wire(path, &body, false),
        traced_wire: wire(path, &body, true),
    }
}

/// A reply as the benchmark's client reads it.
struct Reply {
    status: u16,
    body: Vec<u8>,
    cache: String,
    select_us: u64,
    stages: Vec<(String, u64)>,
}

impl Reply {
    fn stage(&self, name: &str) -> u64 {
        self.stages
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// A keep-alive connection with its own minimal HTTP/1.1 response reader,
/// so the client's cost does not depend on the service crate's code.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Sends `wire` and reads one full response.
    fn call(&mut self, wire: &[u8]) -> Result<Reply, String> {
        self.stream
            .write_all(wire)
            .map_err(|e| format!("write: {e}"))?;
        self.buf.clear();
        let mut chunk = [0u8; 16 << 10];
        let head_end = loop {
            if let Some(p) = find(&self.buf, b"\r\n\r\n") {
                break p;
            }
            let got = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if got == 0 {
                return Err("server closed the connection".into());
            }
            self.buf.extend_from_slice(&chunk[..got]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|e| e.to_string())?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|c| c.parse().ok())
            .ok_or("malformed status line")?;
        let (mut len, mut cache, mut select_us, mut stages) = (None, String::new(), 0, Vec::new());
        for line in lines {
            let Some((k, v)) = line.split_once(':') else {
                return Err(format!("malformed header {line:?}"));
            };
            let v = v.trim();
            match k.to_ascii_lowercase().as_str() {
                "content-length" => len = v.parse::<usize>().ok(),
                "x-cache" => cache = v.to_string(),
                "x-select-micros" => select_us = v.parse().unwrap_or(0),
                "x-stage-micros" => {
                    stages = v
                        .split(';')
                        .filter_map(|kv| kv.split_once('='))
                        .map(|(k, v)| (k.to_string(), v.parse().unwrap_or(0)))
                        .collect()
                }
                _ => {}
            }
        }
        let len = len.ok_or("response without content-length")?;
        let start = head_end + 4;
        while self.buf.len() < start + len {
            let got = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if got == 0 {
                return Err("server closed the connection mid-body".into());
            }
            self.buf.extend_from_slice(&chunk[..got]);
        }
        if self.buf.len() > start + len {
            return Err("unexpected bytes after the response".into());
        }
        Ok(Reply {
            status,
            body: self.buf[start..].to_vec(),
            cache,
            select_us,
            stages,
        })
    }

    fn get(&mut self, path: &str) -> Result<Reply, String> {
        self.call(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
    }

    fn post(&mut self, path: &str, body: &str) -> Result<Reply, String> {
        self.call(&wire(path, body, false))
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Values read from `/metrics`.
#[derive(Default, Clone, Copy)]
struct Scrape {
    select: f64,
    select_batch: f64,
    errors: f64,
    bytes_written: f64,
    epoll_wait_us: f64,
    cache_hits: f64,
    cache_misses: f64,
    warm_pool_bytes: f64,
}

fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    let r = conn.get("/metrics")?;
    if r.status != 200 {
        return Err(format!("/metrics returned {}", r.status));
    }
    let text = String::from_utf8(r.body).map_err(|e| e.to_string())?;
    let mut s = Scrape::default();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let v: f64 = value.parse().unwrap_or(0.0);
        match name {
            "smin_http_requests_total{route=\"select\"}" => s.select = v,
            "smin_http_requests_total{route=\"select_batch\"}" => s.select_batch = v,
            "smin_bytes_written_total" => s.bytes_written = v,
            "smin_epoll_wait_micros_sum" => s.epoll_wait_us = v,
            "smin_cache_lookups_total{outcome=\"hit\"}" => s.cache_hits = v,
            "smin_cache_lookups_total{outcome=\"miss\"}" => s.cache_misses = v,
            n if n.starts_with("smin_http_errors_total{") => s.errors += v,
            n if n == format!("smin_graph_warm_pool_bytes{{graph=\"{GRAPH_ID}\"}}") => {
                s.warm_pool_bytes = v
            }
            _ => {}
        }
    }
    Ok(s)
}

fn json(body: &[u8]) -> Result<serde_json::Value, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn field<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
    match v {
        serde_json::Value::Object(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: &serde_json::Value, key: &str) -> Option<f64> {
    match field(v, key) {
        Some(serde_json::Value::Number(x)) => Some(*x),
        _ => None,
    }
}

fn seeds_of(v: &serde_json::Value) -> Option<Vec<u32>> {
    match field(v, "seeds") {
        Some(serde_json::Value::Array(a)) => a
            .iter()
            .map(|x| match x {
                serde_json::Value::Number(n) => Some(*n as u32),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

/// A booted, registered and warmed server with two client connections.
struct Ready {
    conns: Vec<Conn>,
    hit_bodies: Vec<Vec<u8>>,
    total: Duration,
    load: Duration,
    /// Held for its `Drop`, which stops the server once the clients (the
    /// fields above, dropped first) have closed their connections.
    _server: ServerHandle,
}

fn setup(graphs_dir: &Path) -> Result<Ready, String> {
    let t0 = Instant::now();
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        graphs_dir: Some(graphs_dir.to_path_buf()),
        cache_capacity: 4 * HIT_KEYS,
        transport: Transport::Epoll,
        ..ServerConfig::default()
    };
    let server = Server::bind(&config)
        .and_then(Server::spawn)
        .map_err(|e| format!("server boot: {e}"))?;
    let addr = server.addr().to_string();
    let mut conns = vec![Conn::connect(&addr)?, Conn::connect(&addr)?];
    let t_load = Instant::now();
    let r = conns[0].post(
        "/v1/graphs",
        &format!(r#"{{"id":"{GRAPH_ID}","path":"{GRAPH_ID}.smg"}}"#),
    )?;
    let load = t_load.elapsed();
    let tiny = conns[0].post(
        "/v1/graphs",
        &format!(r#"{{"id":"{TINY_ID}","path":"{TINY_ID}.smg"}}"#),
    )?;
    for r in [&r, &tiny] {
        if r.status != 201 {
            return Err(format!(
                "registration returned {}: {}",
                r.status,
                String::from_utf8_lossy(&r.body)
            ));
        }
    }
    // Warm-up on both connections at once (so two sessions reach the
    // shelf): every hit key computed and cached, then a round of uncached
    // computed selects and batches from the warm-up streams.
    let bodies: Vec<String> = (0..HIT_KEYS).map(hit_body).collect();
    let hit_bodies = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let bodies = &bodies;
                s.spawn(move || -> Result<Vec<(usize, Vec<u8>)>, String> {
                    let mut got = Vec::new();
                    for k in (c..HIT_KEYS).step_by(2) {
                        let r = conn.post("/v1/select", &bodies[k])?;
                        if r.status != 200 {
                            return Err(format!("warm-up key {k}: status {}", r.status));
                        }
                        got.push((k, r.body));
                    }
                    for w in 0..4 {
                        let body = computed_body(computed_seed(1_000_000 + 2 * w + c));
                        let r = conn.post("/v1/select", &body)?;
                        if r.status != 200 {
                            return Err(format!("warm-up select: status {}", r.status));
                        }
                        let r =
                            conn.post("/v1/select-batch", &batch_body(1_000_000 + w * 2 + c))?;
                        if r.status != 200 {
                            return Err(format!("warm-up batch: status {}", r.status));
                        }
                    }
                    Ok(got)
                })
            })
            .collect();
        let mut all = vec![Vec::new(); HIT_KEYS];
        for h in handles {
            for (k, body) in h.join().map_err(|_| "warm-up client panicked")?? {
                all[k] = body;
            }
        }
        Ok::<_, String>(all)
    })?;
    Ok(Ready {
        conns,
        hit_bodies,
        total: t0.elapsed(),
        load,
        _server: server,
    })
}

/// One pass over the schedule.
struct Pass {
    /// By schedule index: the client's latency and the reply.
    replies: Vec<Option<(Duration, Reply)>>,
    /// Wall time of the requests, reference runs left out.
    wall: Duration,
    /// Every client's reference run times.
    reference_ms: Vec<f64>,
}

/// One pass over the schedule: each client runs its half in order, in
/// chunks of [`CHUNK`] requests. Before the first chunk and after every
/// chunk, once both clients have finished theirs and the server is idle,
/// each client runs the reference kernel; the two runs overlap, as the two
/// clients' requests do.
fn pass(
    conns: &mut [Conn],
    hosts: &mut [Reference],
    schedule: &[Req],
    halves: &[Vec<usize>],
    traced: bool,
) -> Result<Pass, String> {
    let chunks = halves
        .iter()
        .map(|h| h.len().div_ceil(CHUNK))
        .max()
        .unwrap_or(0);
    let barrier = Barrier::new(conns.len());
    type Timed = (usize, Duration, Result<Reply, String>);
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(hosts.iter_mut())
            .zip(halves)
            .map(|((conn, host), half)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut timed: Vec<Timed> = Vec::with_capacity(half.len());
                    let mut ref_ms = Vec::with_capacity(chunks + 1);
                    let mut walls = Vec::with_capacity(chunks);
                    let mut start = Instant::now();
                    for k in 0..=chunks {
                        barrier.wait();
                        if k > 0 {
                            walls.push(start.elapsed());
                        }
                        ref_ms.push(host.run());
                        barrier.wait();
                        start = Instant::now();
                        for &i in half.iter().skip(k * CHUNK).take(CHUNK) {
                            let q = &schedule[i];
                            let w = if traced { &q.traced_wire } else { &q.wire };
                            let t = Instant::now();
                            let r = conn.call(w);
                            timed.push((i, t.elapsed(), r));
                        }
                    }
                    (timed, ref_ms, walls)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    // Every client measured the same chunk walls (barrier to barrier).
    let wall = per_client[0].2.iter().sum();
    let reference_ms = per_client.iter().flat_map(|c| c.1.clone()).collect();
    let mut replies: Vec<Option<(Duration, Reply)>> = (0..schedule.len()).map(|_| None).collect();
    for (i, t, r) in per_client.into_iter().flat_map(|c| c.0) {
        replies[i] = Some((t, r.map_err(|e| format!("request {i}: {e}"))?));
    }
    Ok(Pass {
        replies,
        wall,
        reference_ms,
    })
}

/// Records one traced request as a `bench.request` span (the client's
/// latency) with the layers its timing headers account for as derived
/// spans.
fn record(tracer: &mut Tracer, i: usize, class: Class, t: Duration, r: &Reply) {
    let us = |name: &str| Duration::from_micros(r.stage(name));
    let (resolve, checkout, serialize) = (us("resolve"), us("checkout"), us("serialize"));
    let (sketch, coverage) = (us("sketch"), us("coverage"));
    // `/v1/select` starts its handler clock after resolving the graph,
    // `/v1/select-batch` before: move resolve inside the handler span.
    let mut handler = Duration::from_micros(r.select_us);
    if class != Class::Batch {
        handler += resolve;
    }
    let root = tracer.open("bench.request", None, i as u64);
    tracer.spans[root].end_ns = tracer.spans[root].start_ns + t.as_nanos() as u64;
    tracer.derived("service.transport", root, t.saturating_sub(handler));
    let h = tracer.derived("service.handler", root, handler);
    tracer.derived("service.resolve", h, resolve);
    tracer.derived("service.checkout", h, checkout);
    tracer.derived("service.serialize", h, serialize);
    tracer.derived("sampling.sketch", h, sketch);
    tracer.derived("sampling.coverage", h, coverage);
    if class == Class::Computed {
        // Realize, observe and the ASTI loop: the headers do not split
        // them, so they are the core layer's here.
        let rest = handler.saturating_sub(resolve + checkout + serialize + sketch + coverage);
        tracer.derived("core.unattributed", h, rest);
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let el = inputs::chung_lu(N, M, 2.1, 0x5EED_0003);
    check_input(&el, CHECKSUM)?;
    let g = campaign::build(&el)?;
    drop(el);
    let tiny_el = inputs::chung_lu(64, 256, 2.1, 0x5EED_0004);
    check_input(&tiny_el, TINY_CHECKSUM)?;
    let tiny = campaign::build(&tiny_el)?;
    let dir: PathBuf = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join("work")
        .join("svc");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir:?}: {e}"))?;
    let smg = dir.join(format!("{GRAPH_ID}.smg"));
    for (graph, path) in [
        (&g, smg.clone()),
        (&tiny, dir.join(format!("{TINY_ID}.smg"))),
    ] {
        store::write_smg_path(graph, &path).map_err(|e| format!("writing {path:?}: {e}"))?;
    }

    // The schedule: fixed content, order from --seed, alternating between
    // the two clients.
    let blocks = ((args.seconds as f64 * BLOCKS_PER_SECOND).round() as usize).max(1);
    let mut schedule = Vec::with_capacity(blocks * 20);
    for b in 0..blocks {
        schedule.extend((0..14).map(|h| req(Class::Hit, b * 14 + h)));
        schedule.extend((0..2).map(|c| req(Class::Computed, b * 2 + c)));
        schedule.extend((0..4).map(|t| req(Class::Batch, b * 4 + t)));
    }
    let order = inputs::shuffled(schedule.len(), args.seed);
    let halves: Vec<Vec<usize>> = (0..2)
        .map(|c| order.iter().copied().skip(c).step_by(2).collect())
        .collect();

    // Cold set-ups, each followed by reference runs on both cores (the
    // warm-up keeps both busy). The first is kept for timing. The others
    // run after the timed passes and the RSS read: a stopped server's freed
    // memory stays in the allocator's per-thread arenas, so set-ups run
    // first would raise the RSS by an amount that depends on thread
    // scheduling.
    let host = Reference::new();
    let mut hosts = vec![host.clone(), host];
    let mut setup_ref_ms = vec![hostspeed::run_parallel(&mut hosts)];
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cold_setup = |hosts: &mut [Reference]| -> Result<Ready, String> {
        let r = setup(&dir)?;
        setup_ref_ms.extend((0..hostspeed::SETUP_RUNS).map(|_| hostspeed::run_parallel(hosts)));
        setups.push((r.total, r.load));
        Ok(r)
    };
    let mut ready = cold_setup(&mut hosts)?;

    let mut out = Outcome::default();
    for (k, b) in ready.hit_bodies.iter().enumerate() {
        if let Err(e) = json(b) {
            out.fail(format!("warm-up key {k}: invalid JSON: {e}"));
        }
    }
    // Timed passes. A traced run alternates untraced and traced passes.
    let (passes, kinds): (usize, &[bool]) = if args.trace {
        (TRACED_PASSES, &[false, true])
    } else {
        (PASSES, &[false])
    };
    let before = scrape(&mut ready.conns[0])?;
    // Milliseconds by [request][pass].
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(passes); schedule.len()];
    let mut ref_ms = Vec::new();
    let mut walls = Vec::with_capacity(passes);
    let mut traced_walls = Vec::with_capacity(passes);
    let mut first: Vec<Option<Vec<u8>>> = (0..schedule.len()).map(|_| None).collect();
    let mut tracer = Tracer::new();
    let cpu0 = crate::process_cpu();
    let wall0 = Instant::now();
    for _ in 0..passes {
        for &traced in kinds {
            let p = pass(&mut ready.conns, &mut hosts, &schedule, &halves, traced)?;
            let slot = if traced {
                &mut traced_walls
            } else {
                &mut walls
            };
            slot.push(p.wall.as_secs_f64());
            ref_ms.extend_from_slice(&p.reference_ms);
            for (i, reply) in p.replies.into_iter().enumerate() {
                let q = &schedule[i];
                out.attempted += 1;
                let Some((t, r)) = reply else {
                    out.fail(format!("request {i}: no reply"));
                    continue;
                };
                if !(200..300).contains(&r.status) {
                    let body = String::from_utf8_lossy(&r.body);
                    out.fail(format!(
                        "request {i} ({:?}): status {}: {body}",
                        q.class, r.status
                    ));
                    continue;
                }
                let want = if q.class == Class::Hit {
                    "HIT"
                } else {
                    "BYPASS"
                };
                if r.cache != want {
                    out.fail(format!("request {i}: X-Cache {} != {want}", r.cache));
                }
                if q.class == Class::Hit {
                    if r.body != ready.hit_bodies[q.index % HIT_KEYS] {
                        out.fail(format!(
                            "request {i}: hit body differs from its warm-up body"
                        ));
                    }
                } else if let Some(b) = &first[i] {
                    if *b != r.body {
                        out.fail(format!("request {i}: body differs between passes"));
                    }
                } else {
                    if let Err(e) = json(&r.body) {
                        out.fail(format!("request {i}: invalid JSON: {e}"));
                    }
                    first[i] = Some(r.body.clone());
                }
                if traced {
                    record(&mut tracer, i, q.class, t, &r);
                } else {
                    times[i].push(ms(t));
                }
            }
        }
    }
    let wall = wall0.elapsed();
    // Before the output checks, which hold sessions of their own.
    let rss = crate::rss_mb();
    let cpu = crate::process_cpu().saturating_sub(cpu0);
    let after = scrape(&mut ready.conns[0])?;
    drop(ready);
    for _ in 1..SETUPS {
        drop(cold_setup(&mut hosts)?);
    }
    let setup_scale = hostspeed::scale(&setup_ref_ms);

    // The request counters must move by exactly what was sent.
    let runs = passes * kinds.len();
    let sent = |batch: bool| {
        schedule
            .iter()
            .filter(|q| (q.class == Class::Batch) == batch)
            .count()
            * runs
    };
    for (name, moved, sent) in [
        ("select", after.select - before.select, sent(false)),
        (
            "select_batch",
            after.select_batch - before.select_batch,
            sent(true),
        ),
    ] {
        if moved as usize != sent {
            out.fail(format!(
                "/metrics {name} counter moved {moved} for {sent} sent"
            ));
        }
    }
    let errors = after.errors - before.errors;
    if errors != 0.0 {
        out.fail(format!("/metrics reports {errors} transport errors"));
    }

    // Computed bodies: the seeds reach η on their world, and a fixed sample
    // equals a direct `asti_in` under the service's seed convention (world
    // stream seed + 1000, algorithm stream seed), replayed with spans.
    let algo = Algo {
        model: Model::IC,
        batch: 1,
        threads: 1,
    };
    let mut sim = ForwardSim::new(g.n());
    let mut session = smin_core::AstiSession::new(g.n());
    let mut replay = Tracer::new();
    let mut digest = Fnv::default();
    let (mut seeds_total, mut rounds_total, mut sets_total) = (0.0, 0.0, 0.0);
    let mut first_round_sets = 1usize;
    let mut computed: Vec<(usize, usize)> = schedule
        .iter()
        .enumerate()
        .filter(|(_, q)| q.class == Class::Computed)
        .map(|(i, q)| (q.index, i))
        .collect();
    computed.sort_unstable();
    for &(k, i) in &computed {
        let Some(Ok(v)) = first[i].as_ref().map(|b| json(b)) else {
            continue;
        };
        let seeds = seeds_of(&v).unwrap_or_default();
        digest.eat(campaign::seeds_digest(&seeds));
        seeds_total += seeds.len() as f64;
        rounds_total += num(&v, "num_rounds").unwrap_or(0.0);
        sets_total += num(&v, "total_sets").unwrap_or(0.0);
        if k == 0 {
            if let Some(serde_json::Value::Array(rounds)) = field(&v, "rounds") {
                first_round_sets = rounds
                    .first()
                    .and_then(|r| num(r, "sets_generated"))
                    .map_or(1, |x| x as usize);
            }
        }
        let (seed, world) = (computed_seed(k), computed_seed(k).wrapping_add(1000));
        let reached = matches!(field(&v, "reached"), Some(serde_json::Value::Bool(true)));
        if let Err(e) = check_on_world(
            &g,
            Model::IC,
            ETA_COMPUTED,
            world,
            reached,
            &seeds,
            &mut sim,
        ) {
            out.fail(format!("computed select {k}: {e}"));
        }
        if k < CHECKED {
            let (_, rep) = campaign::campaign_traced(
                &g,
                &algo,
                ETA_COMPUTED,
                world,
                seed,
                &mut session,
                &mut replay,
                k as u64,
            )?;
            let same = rep.seeds == seeds
                && num(&v, "total_sets") == Some(rep.total_sets as f64)
                && num(&v, "num_rounds") == Some(rep.num_rounds() as f64);
            if !same {
                out.fail(format!(
                    "computed select {k}: body differs from a direct asti_in"
                ));
            }
        }
    }
    println!(
        "seed_digest={:016x} requests={} computed={}",
        digest.value(),
        schedule.len(),
        computed.len()
    );
    let n_computed = computed.len().max(1) as f64;
    // Each request's mean pass, unscaled.
    let class_ms = |class: Class| {
        let v = schedule
            .iter()
            .zip(&times)
            .filter(|(q, t)| q.class == class && !t.is_empty())
            .map(|(_, t)| mean(t));
        sorted(v.collect())
    };
    let hits = class_ms(Class::Hit);
    let selects = class_ms(Class::Computed);
    let batches = class_ms(Class::Batch);
    let scale = hostspeed::scale(&ref_ms);
    println!(
        "unscaled select_p50_ms={:.4} hit_p50_ms={:.5} ref_mean_ms={:.4} scale={scale:.4}",
        percentile(&selects, 0.5),
        percentile(&hits, 0.5),
        mean(&ref_ms)
    );

    if !args.trace {
        let p50 = percentile(&selects, 0.5) * scale;
        out.push("p50_ms", p50, "ms", selects.len());
        let tail = percentile(&selects, campaign::tail_rank(selects.len())) * scale;
        out.push("tail_ms", tail, "ms", selects.len());
        let hit_p50 = percentile(&hits, 0.5) * scale;
        out.push("light_p50_ms", hit_p50, "ms", hits.len());
        let rate = schedule.len() as f64 / (mean(&walls) * scale);
        out.push("ops_per_s", rate, "1/s", schedule.len());
        out.push(
            "seeds_per_campaign",
            seeds_total / n_computed,
            "seeds",
            computed.len(),
        );
        let setup_s: Vec<f64> = setups.iter().map(|s| s.0.as_secs_f64()).collect();
        out.push("setup_s", median(&setup_s) * setup_scale, "s", setups.len());
        out.push("rss_mb", rss, "MB", 1);
        return Ok(out);
    }

    // Traced run. The graph layer is timed on an in-process load of the
    // same snapshot; the diffusion/core split, which the service's headers
    // do not give, comes from the in-process replay of the checked selects.
    let reverse_s = {
        let g2 = store::read_smg_path(&smg).map_err(|e| e.to_string())?;
        let t = Instant::now();
        std::hint::black_box(g2.in_edges(0).count());
        t.elapsed().as_secs_f64() * scale
    };
    let replayed = CHECKED.min(computed.len()).max(1);
    // Per-layer times are scaled to reference speed like the end-to-end ones.
    let per = |ns: i64| ns as f64 / 1e6 / replayed as f64 * scale;
    let realize_ms = per(replay.total_ns("diffusion.realize"));
    let observe_ms = per(replay.total_ns("diffusion.observe"));
    let select_ms = per(replay.total_ns("core.asti")) - observe_ms;
    let trim_self_ms = select_ms
        - per(replay.total_ns("sampling.sketch"))
        - per(replay.total_ns("sampling.coverage"));
    let loop_ms = per(replay.total_ns("bench.campaign")) - realize_ms - select_ms - observe_ms;
    // Span sums over the traced requests of one class.
    let of_class = |name: &str, class: Class| {
        tracer.total_ns_where(name, |item| schedule[item as usize].class == class)
    };
    let traced_computed = computed.len() * passes;
    let per_computed = |ns: i64| ns as f64 / 1e6 / traced_computed.max(1) as f64 * scale;
    let sketch_ms = per_computed(of_class("sampling.sketch", Class::Computed));
    let sets = sets_total / n_computed;
    let sketch_probe = campaign::probe(&g, Model::IC, ETA_COMPUTED, first_round_sets, LIST_SEED)?;
    let load_s: Vec<f64> = setups.iter().map(|s| s.1.as_secs_f64()).collect();
    out.push(
        "graph.load_s",
        median(&load_s) * setup_scale,
        "s",
        setups.len(),
    );
    out.push("graph.reverse_csr_s", reverse_s, "s", 1);
    out.push("diffusion.realize_ms", realize_ms, "ms", replayed);
    out.push("diffusion.observe_ms", observe_ms, "ms", replayed);
    out.push(
        "core.rounds",
        rounds_total / n_computed,
        "count",
        computed.len(),
    );
    out.push("core.select_ms", select_ms, "ms", replayed);
    out.push("core.trim_self_ms", trim_self_ms, "ms", replayed);
    out.push("core.loop_self_ms", loop_ms, "ms", replayed);
    out.push("sampling.sketch_ms", sketch_ms, "ms", traced_computed);
    let coverage_ms = per_computed(of_class("sampling.coverage", Class::Computed));
    out.push("sampling.coverage_ms", coverage_ms, "ms", traced_computed);
    out.push("sampling.sets", sets, "count", computed.len());
    out.push(
        "sampling.sets_per_ms",
        sets / sketch_ms,
        "1/ms",
        traced_computed,
    );
    let pool_mb = after.warm_pool_bytes / (1u64 << 20) as f64;
    out.push("sampling.pool_mb", pool_mb, "MB", 1);
    sketch_probe.report(&mut out, scale);
    out.push(
        "sampling.cpu_util",
        cpu.as_secs_f64() / wall.as_secs_f64(),
        "frac",
        1,
    );
    let frac = |a: i64, b: i64| a as f64 / b.max(1) as f64;
    let transport = frac(
        of_class("service.transport", Class::Hit),
        of_class("bench.request", Class::Hit),
    );
    out.push("service.transport_frac", transport, "frac", hits.len());
    let staged: i64 = ["service.resolve", "service.checkout", "service.serialize"]
        .iter()
        .map(|name| tracer.total_ns(name))
        .sum();
    let stage = frac(staged, tracer.root_ns());
    out.push("service.stage_frac", stage, "frac", schedule.len() * passes);
    let rest = frac(
        of_class("core.unattributed", Class::Computed),
        of_class("service.handler", Class::Computed),
    );
    out.push("service.unattributed_frac", rest, "frac", traced_computed);
    let waited = (after.epoll_wait_us - before.epoll_wait_us) / 1e6;
    out.push(
        "service.poll_busy_frac",
        1.0 - waited / wall.as_secs_f64(),
        "frac",
        1,
    );
    let hit_lookups = after.cache_hits - before.cache_hits;
    let lookups = hit_lookups + after.cache_misses - before.cache_misses;
    out.push(
        "service.cache_hit_frac",
        hit_lookups / lookups.max(1.0),
        "frac",
        lookups as usize,
    );
    let requests = schedule.len() * runs;
    let bytes = (after.bytes_written - before.bytes_written) / requests as f64;
    out.push("service.bytes_per_req", bytes, "bytes", requests);
    out.push("service.errors", errors, "count", requests);
    let hit_p50 = percentile(&hits, 0.5);
    let hit_tail = percentile(&hits, campaign::tail_rank(hits.len()));
    out.push("service.hit_tail_x", hit_tail / hit_p50, "x", hits.len());
    out.push(
        "service.batch_x",
        percentile(&batches, 0.5) / hit_p50,
        "x",
        batches.len(),
    );
    out.push("host.ref_ms", mean(&ref_ms), "ms", ref_ms.len());
    let overhead = mean(&traced_walls) / mean(&walls) - 1.0;
    out.push("trace.overhead_frac", overhead, "frac", 2 * passes);
    crate::finish_trace(
        &mut out,
        &tracer,
        &args.workload,
        schedule.len() * passes,
        "request",
    )?;
    Ok(out)
}
