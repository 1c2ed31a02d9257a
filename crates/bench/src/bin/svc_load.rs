//! `svc_load` — keep-alive load generator for the `asm serve` service.
//!
//! Modes:
//!
//! * **Smoke** (`--smoke`): one `/healthz`, one graph registration, one
//!   `/v1/select`; exits non-zero on any non-2xx status or malformed JSON.
//!   CI runs this against a freshly started `asm serve` to pin the wire
//!   contract end to end.
//! * **Load** (default): registers a BA graph once, then `--clients`
//!   concurrent keep-alive connections fire `--requests` selections total,
//!   reporting p50/p95/p99 latency (shared nearest-rank helper in
//!   `smin_bench::stats`), requests/sec, cache behavior, and the cold→warm
//!   ratio between the first and second request — the registry+recycled-pool
//!   payoff the service exists for.
//!
//! Two add-on phases extend a load run (and its `--out` artifact):
//!
//! * `--connections N` opens N keep-alive connections and holds **all of
//!   them open at once** while pinging `/healthz` on each — the epoll
//!   event loop's whole point (a thread-per-connection server would wedge
//!   long before N = 512 on 4 threads). Any connect or ping failure exits
//!   non-zero.
//! * `--batch K` measures the `/v1/select-batch` amortization: the same
//!   uncached selections fired one-per-request and then K-per-batch, on a
//!   small fixed graph where per-request overhead (framing, dispatch,
//!   round trip, session checkout) dominates per-item compute. Reports
//!   per-item medians and their ratio; `--batch-min-speedup F` turns the
//!   ratio into a hard gate.
//!
//! Every load run ends with a `GET /metrics` scrape; the request and
//! transport-error (408/429/504) counters land in the `--out` artifact's
//! `metrics` section as informational leaves.
//!
//! ```text
//! svc_load --addr 127.0.0.1:7878 --smoke
//! svc_load --addr 127.0.0.1:7878 --requests 100 --n 10000 --eta 500
//! svc_load --addr 127.0.0.1:7878 --requests 64 --clients 4 --distinct-seeds
//! ```
//!
//! By default every request carries the same body, so requests after the
//! first exercise the memoized path (cold compute vs. warm HITs);
//! `--distinct-seeds` gives each request its own world seed so every
//! request computes on the warm session shelf instead.

use smin_bench::stats;
use smin_service::{Client, ClientResponse};
use std::time::Instant;

struct LoadArgs {
    addr: String,
    smoke: bool,
    requests: usize,
    clients: usize,
    n: usize,
    attach: usize,
    eta: usize,
    eps: f64,
    seed: u64,
    distinct_seeds: bool,
    no_cache: bool,
    connections: usize,
    batch: usize,
    batch_min_speedup: f64,
    out: Option<String>,
}

const USAGE: &str = "\
svc_load — load generator for `asm serve`

USAGE:
  svc_load --addr HOST:PORT [--smoke]
           [--requests N] [--clients C] [--n NODES] [--attach K]
           [--eta N] [--eps F] [--seed N] [--distinct-seeds] [--no-cache]
           [--connections N] [--batch K] [--batch-min-speedup F]
           [--out FILE]

--connections N   hold N keep-alive connections open simultaneously and
                  ping /healthz on every one (exits non-zero on any error)
--batch K         compare uncached per-item latency of /v1/select vs
                  /v1/select-batch with K items per batch
--batch-min-speedup F  fail unless batch speedup >= F (e.g. 2.0)

--out (load mode) also writes the run as a JSON trajectory artifact
(latency percentiles, req/s, cold->warm split, plus `connections` and
`batch` sections when those phases ran, and a `metrics` section with
request/error counters scraped from GET /metrics) in the BENCH_*.json
style consumed by `asm bench-check`.";

fn parse_args() -> Result<LoadArgs, String> {
    let mut out = LoadArgs {
        addr: String::new(),
        smoke: false,
        requests: 100,
        clients: 1,
        n: 10_000,
        attach: 4,
        eta: 0, // default derived from n below
        eps: 0.5,
        seed: 42,
        distinct_seeds: false,
        no_cache: false,
        connections: 0,
        batch: 0,
        batch_min_speedup: 0.0,
        out: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--smoke" => out.smoke = true,
            "--distinct-seeds" => out.distinct_seeds = true,
            "--no-cache" => out.no_cache = true,
            "--addr" => out.addr = value("--addr")?.clone(),
            "--requests" => out.requests = parse(value("--requests")?, "--requests")?,
            "--clients" => out.clients = parse(value("--clients")?, "--clients")?,
            "--n" => out.n = parse(value("--n")?, "--n")?,
            "--attach" => out.attach = parse(value("--attach")?, "--attach")?,
            "--eta" => out.eta = parse(value("--eta")?, "--eta")?,
            "--eps" => out.eps = parse(value("--eps")?, "--eps")?,
            "--seed" => out.seed = parse(value("--seed")?, "--seed")?,
            "--connections" => out.connections = parse(value("--connections")?, "--connections")?,
            "--batch" => out.batch = parse(value("--batch")?, "--batch")?,
            "--batch-min-speedup" => {
                out.batch_min_speedup = parse(value("--batch-min-speedup")?, "--batch-min-speedup")?
            }
            "--out" => out.out = Some(value("--out")?.clone()),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if out.addr.is_empty() {
        return Err(format!("missing required --addr\n{USAGE}"));
    }
    if out.requests == 0 || out.clients == 0 || out.n == 0 {
        return Err("--requests, --clients, and --n must be at least 1".into());
    }
    if out.eta == 0 {
        out.eta = (out.n / 20).max(1);
    }
    if out.batch_min_speedup > 0.0 && out.batch == 0 {
        return Err("--batch-min-speedup needs --batch K".into());
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse::<T>()
        .map_err(|e| format!("bad value for {flag}: {e}"))
}

/// Asserts a 2xx status and a parseable JSON body; returns the body.
fn expect_json(
    what: &str,
    resp: Result<ClientResponse, String>,
) -> Result<serde_json::Value, String> {
    let resp = resp.map_err(|e| format!("{what}: {e}"))?;
    if !(200..300).contains(&resp.status) {
        return Err(format!("{what}: HTTP {} — {}", resp.status, resp.text()));
    }
    resp.json().map_err(|e| format!("{what}: {e}"))
}

fn smoke(args: &LoadArgs) -> Result<(), String> {
    let mut c = Client::connect(&args.addr).map_err(|e| format!("connect {}: {e}", args.addr))?;
    let health = expect_json("GET /healthz", c.get("/healthz"))?;
    let health_text = serde_json::to_string(&health);
    if !health_text.contains("\"status\":\"ok\"") {
        return Err(format!("healthz not ok: {health_text}"));
    }

    let body = r#"{"id":"smoke","generate":{"kind":"er","n":200,"m":600,"seed":1}}"#;
    let resp = c
        .post("/v1/graphs", body)
        .map_err(|e| format!("POST /v1/graphs: {e}"))?;
    // 409 = a previous smoke already registered it on this server; fine.
    if resp.status != 201 && resp.status != 409 {
        return Err(format!(
            "POST /v1/graphs: HTTP {} — {}",
            resp.status,
            resp.text()
        ));
    }

    let select = expect_json(
        "POST /v1/select",
        c.post("/v1/select", r#"{"graph":"smoke","eta":20,"seed":1}"#),
    )?;
    let select_text = serde_json::to_string(&select);
    for needle in ["\"seeds\":[", "\"reached\":true", "\"num_rounds\":"] {
        if !select_text.contains(needle) {
            return Err(format!("select response missing {needle}: {select_text}"));
        }
    }
    println!(
        "SMOKE OK: healthz + register + select against {}",
        args.addr
    );
    Ok(())
}

struct ClientOutcome {
    latencies_us: Vec<f64>,
    cache_hits: usize,
    failures: Vec<String>,
}

fn run_client(
    args: &LoadArgs,
    graph_id: &str,
    request_indices: std::ops::Range<usize>,
) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        latencies_us: Vec::with_capacity(request_indices.len()),
        cache_hits: 0,
        failures: Vec::new(),
    };
    let mut c = match Client::connect(&args.addr) {
        Ok(c) => c,
        Err(e) => {
            outcome.failures.push(format!("connect: {e}"));
            return outcome;
        }
    };
    for i in request_indices {
        let seed = if args.distinct_seeds {
            args.seed + i as u64
        } else {
            args.seed
        };
        let body = format!(
            r#"{{"graph":"{graph_id}","eta":{},"eps":{},"seed":{seed},"cache":{}}}"#,
            args.eta, args.eps, !args.no_cache,
        );
        let started = Instant::now();
        match c.post("/v1/select", &body) {
            Ok(resp) if resp.status == 200 => {
                outcome
                    .latencies_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
                if resp.header("X-Cache") == Some("HIT") {
                    outcome.cache_hits += 1;
                }
                if resp.json().is_err() {
                    outcome
                        .failures
                        .push(format!("request {i}: malformed JSON"));
                }
            }
            Ok(resp) => outcome.failures.push(format!(
                "request {i}: HTTP {} — {}",
                resp.status,
                resp.text()
            )),
            Err(e) => {
                outcome.failures.push(format!("request {i}: {e}"));
                return outcome; // connection state unknown — stop this client
            }
        }
    }
    outcome
}

struct ConnectionsStats {
    count: usize,
    healthz_us: Vec<f64>,
}

/// Opens `--connections` keep-alive connections, keeps every one of them
/// open simultaneously, then pings `/healthz` on each. Fails fast on any
/// connect or request error: the acceptance bar is "N concurrent idle
/// connections, zero errors", not a best-effort count.
fn connections_phase(args: &LoadArgs) -> Result<ConnectionsStats, String> {
    println!(
        "connections: opening {} simultaneous keep-alive connections...",
        args.connections
    );
    let mut clients = Vec::with_capacity(args.connections);
    for i in 0..args.connections {
        let c = Client::connect(&args.addr)
            .map_err(|e| format!("connections: connect #{i} (of {}): {e}", args.connections))?;
        clients.push(c);
    }
    // All sockets are open and idle now; every one must still be usable.
    let mut healthz_us = Vec::with_capacity(clients.len());
    for (i, c) in clients.iter_mut().enumerate() {
        let started = Instant::now();
        let resp = c
            .get("/healthz")
            .map_err(|e| format!("connections: healthz on #{i}: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "connections: healthz on #{i}: HTTP {} — {}",
                resp.status,
                resp.text()
            ));
        }
        healthz_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let summary = stats::summarize(&healthz_us).ok_or("connections: no pings completed")?;
    println!(
        "connections: {} open at once, {} healthz ok, p50 = {:.1} us, max = {:.1} us",
        clients.len(),
        healthz_us.len(),
        summary.p50,
        summary.max,
    );
    Ok(ConnectionsStats {
        count: clients.len(),
        healthz_us,
    })
}

struct BatchStats {
    k: usize,
    items: usize,
    single_item_us: Vec<f64>,
    batch_item_us: Vec<f64>,
    speedup: f64,
}

/// Number of `/v1/select-batch` requests the batch phase fires (the single
/// phase fires `BATCH_ROUNDS * k` individual selects over the same seeds).
const BATCH_ROUNDS: usize = 8;

/// Measures the select-batch amortization on a small fixed graph where
/// per-request overhead dominates per-item compute. Both passes run the
/// identical uncached selections (same seeds, same graph), so the only
/// difference is how many HTTP requests, dispatches, and session
/// checkouts carry them.
fn batch_phase(args: &LoadArgs) -> Result<BatchStats, String> {
    let k = args.batch;
    let items = BATCH_ROUNDS * k;
    let mut c = Client::connect(&args.addr).map_err(|e| format!("batch: connect: {e}"))?;

    // A deliberately tiny workload: the phase measures how well the batch
    // endpoint amortizes *per-request* costs (framing, dispatch handoffs,
    // round trips, session checkout), so per-item compute is pinned far
    // below them via a small graph and a hard theta cap.
    let graph_id = "svc-load-batch";
    let register =
        format!(r#"{{"id":"{graph_id}","generate":{{"kind":"er","n":32,"m":64,"seed":11}}}}"#);
    let resp = c
        .post("/v1/graphs", &register)
        .map_err(|e| format!("batch: POST /v1/graphs: {e}"))?;
    if resp.status != 201 && resp.status != 409 {
        return Err(format!(
            "batch: POST /v1/graphs: HTTP {} — {}",
            resp.status,
            resp.text()
        ));
    }

    // threads:1 keeps sketch generation inline — per-item compute lands
    // around tens of microseconds, so the per-request machinery being
    // amortized (not the selection kernel) is what the ratio measures.
    let item_fields = |i: usize| {
        format!(
            r#""eta":4,"theta_cap":8,"threads":1,"seed":{},"cache":false"#,
            args.seed + i as u64
        )
    };
    let expect_200 = |what: &str, resp: Result<ClientResponse, String>| -> Result<(), String> {
        let resp = resp.map_err(|e| format!("{what}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("{what}: HTTP {} — {}", resp.status, resp.text()));
        }
        Ok(())
    };

    // Warm the session shelf untimed so neither pass pays first-touch
    // pool-construction costs.
    for w in 0..2 {
        let body = format!(r#"{{"graph":"{graph_id}",{}}}"#, item_fields(1_000_000 + w));
        expect_200("batch: warmup select", c.post("/v1/select", &body))?;
    }

    println!("batch: {items} uncached selects one-per-request...");
    let mut single_item_us = Vec::with_capacity(items);
    for i in 0..items {
        let body = format!(r#"{{"graph":"{graph_id}",{}}}"#, item_fields(i));
        let started = Instant::now();
        expect_200("batch: single select", c.post("/v1/select", &body))?;
        single_item_us.push(started.elapsed().as_secs_f64() * 1e6);
    }

    println!("batch: the same {items} selects as {BATCH_ROUNDS} batches of {k}...");
    let mut batch_item_us = Vec::with_capacity(BATCH_ROUNDS);
    for b in 0..BATCH_ROUNDS {
        let body_items: Vec<String> = (b * k..(b + 1) * k)
            .map(|i| format!("{{{}}}", item_fields(i)))
            .collect();
        let body = format!(
            r#"{{"graph":"{graph_id}","items":[{}]}}"#,
            body_items.join(",")
        );
        let started = Instant::now();
        expect_200("batch: select-batch", c.post("/v1/select-batch", &body))?;
        batch_item_us.push(started.elapsed().as_secs_f64() * 1e6 / k as f64);
    }

    let single = stats::summarize(&single_item_us).ok_or("batch: no single selects completed")?;
    let batched = stats::summarize(&batch_item_us).ok_or("batch: no batches completed")?;
    let speedup = single.p50 / batched.p50.max(1e-9);
    println!(
        "batch: per-item p50 {:.1} us single vs {:.1} us batched (k={k}) = {speedup:.2}x",
        single.p50, batched.p50,
    );
    if args.batch_min_speedup > 0.0 && speedup < args.batch_min_speedup {
        return Err(format!(
            "batch: speedup {speedup:.2}x below required {:.2}x",
            args.batch_min_speedup
        ));
    }
    Ok(BatchStats {
        k,
        items,
        single_item_us,
        batch_item_us,
        speedup,
    })
}

/// Counters scraped from `GET /metrics` once every phase has finished.
/// Counters are server-lifetime, not per-run: against a warm server they can
/// exceed this run's request count (CI starts a fresh server and asserts
/// equality there). Recorded in the `--out` artifact as informational
/// (non-`median`) leaves so `asm bench-check` never gates on them.
struct ScrapedMetrics {
    requests_select: u64,
    requests_select_batch: u64,
    errors_408: u64,
    errors_429: u64,
    errors_504: u64,
}

/// Extracts one sample from a Prometheus text exposition. `series` is the
/// full sample name including its label set, e.g.
/// `smin_http_errors_total{status="408"}`; the exposition emits every series
/// unconditionally (zeros included), so a missing line is a contract break.
fn counter_sample(body: &str, series: &str) -> Result<u64, String> {
    let prefix = format!("{series} ");
    body.lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .ok_or_else(|| format!("metrics: series {series} missing from exposition"))?
        .trim()
        .parse::<u64>()
        .map_err(|e| format!("metrics: bad sample for {series}: {e}"))
}

fn metrics_phase(args: &LoadArgs) -> Result<ScrapedMetrics, String> {
    let mut c = Client::connect(&args.addr).map_err(|e| format!("metrics: connect: {e}"))?;
    let resp = c
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "GET /metrics: HTTP {} — {}",
            resp.status,
            resp.text()
        ));
    }
    let body = resp.text();
    let scraped = ScrapedMetrics {
        requests_select: counter_sample(&body, "smin_http_requests_total{route=\"select\"}")?,
        requests_select_batch: counter_sample(
            &body,
            "smin_http_requests_total{route=\"select_batch\"}",
        )?,
        errors_408: counter_sample(&body, "smin_http_errors_total{status=\"408\"}")?,
        errors_429: counter_sample(&body, "smin_http_errors_total{status=\"429\"}")?,
        errors_504: counter_sample(&body, "smin_http_errors_total{status=\"504\"}")?,
    };
    println!(
        "metrics: server-lifetime selects = {} single + {} batch; errors 408/429/504 = {}/{}/{}",
        scraped.requests_select,
        scraped.requests_select_batch,
        scraped.errors_408,
        scraped.errors_429,
        scraped.errors_504,
    );
    Ok(scraped)
}

fn load(args: &LoadArgs) -> Result<(), String> {
    let mut c = Client::connect(&args.addr).map_err(|e| format!("connect {}: {e}", args.addr))?;
    expect_json("GET /healthz", c.get("/healthz"))?;

    let graph_id = format!("svc-load-ba-{}", args.n);
    let register = format!(
        r#"{{"id":"{graph_id}","generate":{{"kind":"ba","n":{},"attach":{},"seed":7}}}}"#,
        args.n, args.attach,
    );
    let resp = c
        .post("/v1/graphs", &register)
        .map_err(|e| format!("POST /v1/graphs: {e}"))?;
    match resp.status {
        201 => println!(
            "registered {graph_id}: {}",
            resp.text().trim_start_matches('{').trim_end_matches('}')
        ),
        409 => println!("reusing already-registered {graph_id} (warm server)"),
        s => return Err(format!("POST /v1/graphs: HTTP {s} — {}", resp.text())),
    }
    drop(c);

    println!(
        "firing {} requests over {} keep-alive client(s): eta={}, eps={}, {}, cache {}",
        args.requests,
        args.clients,
        args.eta,
        args.eps,
        if args.distinct_seeds {
            "distinct seeds"
        } else {
            "one repeated body"
        },
        if args.no_cache { "bypassed" } else { "enabled" },
    );

    let started = Instant::now();
    let per_client = args.requests.div_ceil(args.clients);
    let graph_id = graph_id.as_str();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|k| {
                let lo = (k * per_client).min(args.requests);
                let hi = ((k + 1) * per_client).min(args.requests);
                scope.spawn(move || run_client(args, graph_id, lo..hi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    let mut failures: Vec<String> = Vec::new();
    let mut all_us: Vec<f64> = Vec::new();
    let mut cache_hits = 0usize;
    for o in &outcomes {
        all_us.extend_from_slice(&o.latencies_us);
        cache_hits += o.cache_hits;
        failures.extend(o.failures.iter().cloned());
    }
    let completed = all_us.len();

    // Cold→warm: the first client's first two requests, in arrival order.
    let first_two = outcomes
        .first()
        .map(|o| o.latencies_us.as_slice())
        .unwrap_or(&[]);
    if let [first, second, ..] = first_two {
        println!(
            "cold -> warm: request 1 = {:.1} ms, request 2 = {:.1} ms ({:.1}x faster)",
            first / 1e3,
            second / 1e3,
            first / second.max(1.0),
        );
    }

    let summary = stats::summarize(&all_us)
        .ok_or_else(|| format!("no request completed; first failure: {failures:?}"))?;
    println!(
        "latency: p50 = {:.1} ms, p95 = {:.1} ms, p99 = {:.1} ms (min {:.1}, max {:.1}, mean {:.1})",
        summary.p50 / 1e3,
        summary.p95 / 1e3,
        summary.p99 / 1e3,
        summary.min / 1e3,
        summary.max / 1e3,
        summary.mean / 1e3,
    );
    println!(
        "throughput: {completed}/{} ok in {wall_s:.2}s = {:.1} req/s ({cache_hits} cache hits)",
        args.requests,
        completed as f64 / wall_s.max(1e-9),
    );

    if !failures.is_empty() {
        return Err(format!(
            "{} request(s) failed; first: {}",
            failures.len(),
            failures[0]
        ));
    }

    let conn_stats = if args.connections > 0 {
        Some(connections_phase(args)?)
    } else {
        None
    };
    let batch_stats = if args.batch > 0 {
        Some(batch_phase(args)?)
    } else {
        None
    };
    // Always last, so the scraped counters cover every phase above.
    let scraped = metrics_phase(args)?;

    if let Some(path) = &args.out {
        // Hand-formatted like the other BENCH_*.json artifacts. Only the
        // "median" leaf gates under `asm bench-check`; the tail percentiles,
        // throughput, and cold->warm split are informational (tails and
        // req/s are too machine-sensitive to fail CI on).
        let cold_warm = match first_two {
            [first, second, ..] => format!(
                "{{ \"cold_us\": {first:.1}, \"warm_us\": {second:.1}, \"speedup\": {:.2} }}",
                first / second.max(1.0)
            ),
            _ => "null".to_string(),
        };
        let mut extra = String::new();
        if let Some(conn) = &conn_stats {
            let s = stats::summarize(&conn.healthz_us).ok_or("connections: empty stats")?;
            extra.push_str(&format!(
                ",\n  \"connections\": {{ \"count\": {}, \"healthz_us\": {{ \"median\": {:.1}, \"max\": {:.1} }} }}",
                conn.count, s.p50, s.max,
            ));
        }
        if let Some(b) = &batch_stats {
            let single = stats::summarize(&b.single_item_us).ok_or("batch: empty stats")?;
            let batched = stats::summarize(&b.batch_item_us).ok_or("batch: empty stats")?;
            extra.push_str(&format!(
                ",\n  \"batch\": {{ \"k\": {}, \"items\": {}, \"single_per_item_us\": {{ \"median\": {:.1} }}, \"batch_per_item_us\": {{ \"median\": {:.1} }}, \"speedup\": {:.2} }}",
                b.k, b.items, single.p50, batched.p50, b.speedup,
            ));
        }
        // Server-lifetime counters from the final /metrics scrape. All
        // informational: no "median" leaves, so bench-check ignores them.
        extra.push_str(&format!(
            ",\n  \"metrics\": {{ \"requests_select\": {}, \"requests_select_batch\": {}, \"errors\": {{ \"408\": {}, \"429\": {}, \"504\": {} }} }}",
            scraped.requests_select,
            scraped.requests_select_batch,
            scraped.errors_408,
            scraped.errors_429,
            scraped.errors_504,
        ));
        let json = format!(
            "{{\n  \
               \"bench\": \"svc_load\",\n  \
               \"requests\": {requests},\n  \
               \"clients\": {clients},\n  \
               \"n\": {n},\n  \
               \"eta\": {eta},\n  \
               \"distinct_seeds\": {distinct},\n  \
               \"cache\": {cache},\n  \
               \"completed\": {completed},\n  \
               \"cache_hits\": {cache_hits},\n  \
               \"req_per_s\": {rps:.1},\n  \
               \"latency_us\": {{ \"median\": {p50:.1}, \"p95\": {p95:.1}, \"p99\": {p99:.1}, \"min\": {min:.1}, \"max\": {max:.1}, \"mean\": {mean:.1} }},\n  \
               \"cold_to_warm\": {cold_warm}{extra}\n}}\n",
            requests = args.requests,
            clients = args.clients,
            n = args.n,
            eta = args.eta,
            distinct = args.distinct_seeds,
            cache = !args.no_cache,
            rps = completed as f64 / wall_s.max(1e-9),
            p50 = summary.p50,
            p95 = summary.p95,
            p99 = summary.p99,
            min = summary.min,
            max = summary.max,
            mean = summary.mean,
        );
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|args| {
        if args.smoke {
            smoke(&args)
        } else {
            load(&args)
        }
    });
    if let Err(e) = result {
        eprintln!("svc_load error: {e}");
        std::process::exit(1);
    }
}
