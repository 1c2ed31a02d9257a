//! Transport and protection wire tests.
//!
//! Real servers on ephemeral ports, driven over loopback: the batch
//! endpoint against sequential selects, the exact bytes of the error
//! shapes (429 admission, 504 deadline, 408 mid-body stall, 400 malformed
//! bodies, 404s), the idle and stuck-write timeouts, pipelining,
//! `/metrics`, and the trace log.

use smin_service::{Client, Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const REGISTER: &str = r#"{"id":"g","generate":{"kind":"er","n":120,"m":360,"seed":9}}"#;

fn spawn(tweak: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    Server::bind(&config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

fn client(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string()).expect("connect")
}

/// Select items that exercise distinct cache keys, algorithms, and one
/// duplicate (an in-batch cache hit when caching is on).
fn batch_items() -> Vec<String> {
    vec![
        r#"{"eta":30,"seed":5,"cache":false}"#.into(),
        r#"{"eta":25,"seed":6,"cache":false}"#.into(),
        r#"{"eta":30,"seed":5,"cache":false}"#.into(),
        r#"{"algo":"trim-b","batch":2,"eta":20,"seed":7,"cache":false}"#.into(),
    ]
}

#[test]
fn select_batch_is_byte_identical_to_sequential_selects() {
    let mut handle = spawn(|_| {});
    let mut c = client(&handle);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);

    let items = batch_items();
    // Reference: N sequential /v1/select calls.
    let mut sequential = Vec::new();
    for item in &items {
        let mut body = item.clone();
        body.insert_str(1, r#""graph":"g","#);
        let resp = c.post("/v1/select", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        sequential.push(resp.body);
    }

    // The batch response must be the exact concatenation of those
    // bodies inside the batch envelope — not merely JSON-equal.
    let batch_body = format!(r#"{{"graph":"g","items":[{}]}}"#, items.join(","));
    let resp = c.post("/v1/select-batch", &batch_body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let mut expected = Vec::new();
    expected.extend_from_slice(br#"{"graph":"g","count":4,"results":["#);
    for (i, body) in sequential.iter().enumerate() {
        if i > 0 {
            expected.push(b',');
        }
        expected.extend_from_slice(body);
    }
    expected.extend_from_slice(b"]}");
    assert_eq!(
        resp.body, expected,
        "batch diverged from sequential selects"
    );

    drop(c);
    handle.shutdown();
}

#[test]
fn transports_serve_identical_bytes() {
    // The error bodies' exact bytes; no other test pins them over the wire.
    const UNKNOWN_GRAPH: &str = r#"{"error":{"code":"unknown_graph","status":404,"message":"graph 'nope' is not registered"}}"#;
    const NOT_JSON: &str = r#"{"error":{"code":"bad_request","status":400,"message":"invalid JSON body: JSON error: invalid literal at byte 0"}}"#;
    const UNKNOWN_ROUTE: &str = r#"{"error":{"code":"unknown_route","status":404,"message":"no route for /no/such/route"}}"#;
    let mut handle = spawn(|_| {});
    let mut c = client(&handle);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);
    let select = r#"{"graph":"g","eta":30,"seed":5,"cache":false}"#;
    let batch = format!(r#"{{"graph":"g","items":[{}]}}"#, batch_items().join(","));
    let single = c.post("/v1/select", select).unwrap();
    assert_eq!(single.status, 200, "{}", single.text());
    let batched = c.post("/v1/select-batch", &batch).unwrap();
    assert_eq!(batched.status, 200, "{}", batched.text());
    // The first batch item is the single select above.
    let mut head = br#"{"graph":"g","count":4,"results":["#.to_vec();
    head.extend_from_slice(&single.body);
    head.push(b',');
    assert!(batched.body.starts_with(&head), "{}", batched.text());
    for (resp, want) in [
        (
            c.post("/v1/select", r#"{"graph":"nope","eta":1}"#),
            UNKNOWN_GRAPH,
        ),
        (c.post("/v1/select", "not json"), NOT_JSON),
        (c.get("/no/such/route"), UNKNOWN_ROUTE),
    ] {
        assert_eq!(resp.unwrap().text(), want);
    }
    drop(c);
    handle.shutdown();
}

#[test]
fn overload_returns_deterministic_429_and_keeps_the_connection() {
    const WANT: &str = r#"{"error":{"code":"overloaded","status":429,"message":"pending request queue is full; retry later"}}"#;
    // max_pending = 0: every request is over the high-water mark, so
    // the rejection is deterministic rather than load-dependent.
    let mut handle = spawn(|c| c.max_pending = 0);
    let mut c = client(&handle);
    for _ in 0..3 {
        let resp = c.post("/v1/select", r#"{"graph":"g","eta":5}"#).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.text(), WANT, "429 body must be stable");
    }
    drop(c);
    handle.shutdown();
}

#[test]
fn expired_deadline_returns_deterministic_504() {
    const WANT: &str = r#"{"error":{"code":"deadline_exceeded","status":504,"message":"deadline of 0ms exceeded before dispatch"}}"#;
    let mut handle = spawn(|_| {});
    let mut c = client(&handle);
    // A zero budget is expired by definition.
    let resp = c
        .post_with_headers(
            "/v1/select",
            r#"{"graph":"g","eta":5}"#,
            &[("X-Deadline-Millis", "0")],
        )
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.text());
    assert_eq!(resp.text(), WANT);

    // Even for a body the cache could answer at once.
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);
    let cached = r#"{"graph":"g","eta":20,"seed":3}"#;
    assert_eq!(c.post("/v1/select", cached).unwrap().status, 200);
    let resp = c
        .post_with_headers("/v1/select", cached, &[("X-Deadline-Millis", "0")])
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.text());
    assert_eq!(resp.text(), WANT);

    // A malformed budget is a 400 that keeps the connection alive.
    let resp = c
        .post_with_headers(
            "/v1/select",
            r#"{"graph":"g","eta":5}"#,
            &[("X-Deadline-Millis", "soon")],
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("X-Deadline-Millis"));
    let resp = c.get("/healthz").unwrap();
    assert_eq!(resp.status, 200, "connection must survive");
    drop(c);
    handle.shutdown();
}

#[test]
fn deeply_nested_json_body_gets_400_and_the_server_survives() {
    // 200k unclosed arrays: a parser without a nesting cap recurses once per
    // level and overflows the handler thread's stack, aborting the process.
    let hostile = "[".repeat(200_000);
    let mut handle = spawn(|_| {});
    let mut c = client(&handle);
    let resp = c.post("/v1/select", &hostile).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("invalid JSON body"), "{}", resp.text());
    let resp = c.get("/healthz").unwrap();
    assert_eq!(resp.status, 200, "server must survive");
    drop(c);
    handle.shutdown();
}

#[test]
fn four_mib_select_body_gets_its_4xx_in_seconds_and_the_worker_survives() {
    // One JSON string filling the body cap. A parser that re-validated the
    // rest of the document for every character held the only dispatch
    // worker for minutes on this body; a linear one answers in well under
    // a second.
    let mut handle = spawn(|c| c.workers = 1);
    let mut c = client(&handle);
    let pad = "x".repeat((4 << 20) - 64);
    let body = format!(r#"{{"graph":"g","eta":20,"pad":"{pad}"}}"#);
    let started = Instant::now();
    let resp = c.post("/v1/select", &body).unwrap();
    let elapsed = started.elapsed();
    assert!((400..500).contains(&resp.status), "{}", resp.text());
    assert!(
        elapsed < Duration::from_secs(10),
        "answered after {elapsed:?}"
    );
    let resp = c.get("/healthz").unwrap();
    assert_eq!(resp.status, 200, "server must survive");
    drop(c);
    handle.shutdown();
}

#[test]
fn long_strings_get_small_structured_errors_and_the_worker_survives() {
    // Each error that names a string from the request quotes at most 64
    // characters of it plus its length. Quoted whole, a 1 MiB graph id got
    // a 1 MiB 404, built and sent by the only dispatch worker.
    let mut handle = spawn(|c| c.workers = 1);
    let mut c = client(&handle);
    let resp = c.post("/v1/graphs", REGISTER).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let long = "x".repeat(1 << 20);
    let cases = [
        (
            "/v1/select",
            format!(r#"{{"graph":"{long}","eta":20}}"#),
            404,
        ),
        (
            "/v1/select",
            format!(r#"{{"graph":"g","eta":20,"algo":"{long}"}}"#),
            400,
        ),
        (
            "/v1/select",
            format!(r#"{{"graph":"g","eta":20,"model":"{long}"}}"#),
            400,
        ),
        (
            "/v1/select",
            format!(r#"{{"graph":"g","eta":"{long}"}}"#),
            400,
        ),
        ("/v1/select", format!(r#"["{long}"]"#), 400),
        (
            "/v1/graphs",
            format!(r#"{{"generate":{{"kind":"{long}","n":10}}}}"#),
            400,
        ),
        (
            "/v1/graphs",
            format!(r#"{{"generate":{{"kind":"ba","n":10,"weights":"{long}"}}}}"#),
            400,
        ),
        (
            "/v1/graphs",
            format!(r#"{{"id":"{long}!","generate":{{"kind":"ba","n":10}}}}"#),
            400,
        ),
    ];
    for (path, body, status) in &cases {
        let resp = c.post(path, body).unwrap();
        let text = resp.text();
        let head = &text[..text.len().min(200)];
        assert_eq!(resp.status, *status, "{path}: {head}");
        assert!(text.len() < 1024, "{path}: {} bytes: {head}", text.len());
        assert!(
            text.contains(" bytes)"),
            "{path}: the length is quoted: {head}"
        );
        assert!(resp.json().is_ok(), "{head}");
    }
    // A request line is capped at 8 KiB, so a DELETE names a shorter id.
    let resp = c
        .delete(&format!("/v1/graphs/{}", "y".repeat(7 << 10)))
        .unwrap();
    assert_eq!(resp.status, 404, "{}", resp.text());
    assert!(resp.text().len() < 1024, "{} bytes", resp.text().len());
    let resp = c.get("/healthz").unwrap();
    assert_eq!(resp.status, 200, "server must survive");
    let resp = c
        .post(
            "/v1/select",
            r#"{"graph":"g","eta":20,"seed":3,"cache":false}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    drop(c);
    handle.shutdown();
}

#[test]
fn bad_generator_specs_get_400_and_the_worker_survives() {
    // Before the service checked generator preconditions and size
    // ceilings, each body panicked its dispatch worker or aborted the
    // process, and with one worker nothing (not even /healthz) was
    // answered after the first. The Chung–Lu spec passes every check and
    // then stalls the generator's rejection sampling, which is an error,
    // not a panic.
    let mut handle = spawn(|c| c.workers = 1);
    let mut c = client(&handle);
    for body in [
        r#"{"generate":{"kind":"er","n":1}}"#,
        r#"{"generate":{"kind":"er","n":3,"m":100}}"#,
        r#"{"id":"cl","generate":{"kind":"chung-lu","n":100,"m":5000,"gamma":1.01}}"#,
        // Past the size ceilings: the dense ER pair list, and the graph's
        // per-node arrays, would each be an allocation that aborts.
        r#"{"generate":{"kind":"er","n":100000,"m":4000000000}}"#,
        r#"{"generate":{"kind":"er","n":1099511627776,"m":2}}"#,
    ] {
        let resp = c.post("/v1/graphs", body).unwrap();
        assert_eq!(resp.status, 400, "{body}: {}", resp.text());
        assert!(
            resp.text().contains(r#""code":"bad_request""#),
            "{body}: {}",
            resp.text()
        );
    }
    let resp = c.get("/healthz").unwrap();
    assert_eq!(resp.status, 200, "server must survive");
    let resp = c.post("/v1/graphs", REGISTER).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let resp = c
        .post(
            "/v1/select",
            r#"{"graph":"g","eta":20,"seed":3,"cache":false}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("x-cache"), Some("BYPASS"));
    drop(c);
    handle.shutdown();
}

/// Writes `head` (a complete request head promising a body that never
/// arrives) and returns everything the server sends before closing.
fn stall_mid_body(addr: &str, head: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(head.as_bytes()).expect("write head");
    s.flush().expect("flush");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read until server close");
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn mid_body_stall_gets_408_before_close() {
    let mut handle = spawn(|c| {
        c.request_timeout_ms = 200;
        c.idle_timeout_ms = 2_000;
    });
    let reply = stall_mid_body(
        &handle.addr().to_string(),
        "POST /v1/select HTTP/1.1\r\nHost: t\r\nContent-Length: 10\r\n\r\n{\"gr",
    );
    assert!(
        reply.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
        "got {reply:?}"
    );
    assert!(
        reply.contains(r#""code":"request_timeout""#),
        "got {reply:?}"
    );
    assert!(
        reply.contains("Connection: close"),
        "a timed-out request cannot keep the stream"
    );
    let metrics = client(&handle).get("/metrics").unwrap().text();
    assert!(
        metrics.contains("smin_timer_expirations_total{class=\"request\"} 1\n"),
        "{metrics}"
    );
    handle.shutdown();
}

#[test]
fn idle_stall_before_any_request_closes_silently() {
    let mut handle = spawn(|c| {
        c.request_timeout_ms = 200;
        c.idle_timeout_ms = 200;
    });
    // No bytes at all: the idle timeout closes without a response.
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read until server close");
    assert!(
        out.is_empty(),
        "idle connections close silently, got {:?}",
        String::from_utf8_lossy(&out)
    );
    let metrics = client(&handle).get("/metrics").unwrap().text();
    assert!(
        metrics.contains("smin_timer_expirations_total{class=\"idle\"} 1\n"),
        "{metrics}"
    );
    handle.shutdown();
}

#[test]
fn a_peer_that_stops_reading_is_closed_at_the_write_timeout() {
    let mut handle = spawn(|c| c.request_timeout_ms = 200);
    // One connection pipelines far more /metrics responses than the socket
    // buffers hold and never reads one, so the server's write blocks.
    let stuck = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stuck.try_clone().expect("clone stream");
    let flood = "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n".repeat(20_000);
    // The write stalls once the server stops reading, and fails once the
    // server closes the connection.
    let w = std::thread::spawn(move || {
        let _ = writer.write_all(flood.as_bytes());
    });
    let mut c = client(&handle);
    let start = Instant::now();
    loop {
        let metrics = c.get("/metrics").unwrap().text();
        if metrics.contains("smin_timer_expirations_total{class=\"write\"} 1\n") {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "the stuck write never timed out: {metrics}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    w.join().expect("writer thread");
    drop(stuck);
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let mut handle = spawn(|_| {});
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    // Two requests in one write; the second is only parsed after the
    // first response flushes (one-at-a-time backpressure), but both must
    // be answered, in order, on the one connection.
    s.write_all(
        b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
          GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    .expect("write");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read both responses");
    let text = String::from_utf8_lossy(&out);
    assert_eq!(
        text.matches("HTTP/1.1 200 OK\r\n").count(),
        2,
        "got {text:?}"
    );
    assert!(text.contains("Connection: keep-alive"));
    assert!(text.contains("Connection: close"));
    handle.shutdown();
}

#[test]
fn pipelined_sync_response_flood_is_answered_iteratively() {
    let mut handle = spawn(|_| {});
    // Thousands of pipelined requests whose responses the poll thread
    // produces itself (400: malformed deadline header), padded with bodies
    // so the backlog tops the per-connection buffer cap. Regression for
    // two failure modes of the old state machine: mutual recursion
    // (flush → parse → respond → flush) overflowing the poll thread's
    // stack, and unbounded per-connection parse buffering.
    const N: usize = 1_500;
    let pad = "x".repeat(4 << 10);
    let mut blob = Vec::new();
    for _ in 0..N {
        blob.extend_from_slice(
            format!(
                "POST /v1/select HTTP/1.1\r\nHost: t\r\nX-Deadline-Millis: soon\r\n\
                 Content-Length: {}\r\n\r\n{pad}",
                pad.len(),
            )
            .as_bytes(),
        );
    }
    blob.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert!(
        blob.len() > smin_service::http::MAX_BUFFERED_BYTES,
        "flood must exceed the per-connection backlog cap to exercise it"
    );

    let s = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = s.try_clone().expect("clone stream");
    // Write and read concurrently: once the server pauses reads at the
    // backlog cap, forward progress requires draining its responses.
    let w = std::thread::spawn(move || -> std::io::Result<()> {
        writer.write_all(&blob)?;
        writer.flush()
    });
    let mut out = Vec::new();
    let mut reader = s;
    reader.read_to_end(&mut out).expect("read all responses");
    w.join().expect("writer thread").expect("write flood");

    let text = String::from_utf8_lossy(&out);
    assert_eq!(
        text.matches("HTTP/1.1 400 Bad Request\r\n").count(),
        N,
        "every pipelined request must be answered"
    );
    assert_eq!(
        text.matches("HTTP/1.1 200 OK\r\n").count(),
        1,
        "the connection stays usable through the whole flood"
    );
    handle.shutdown();
}

#[test]
fn metrics_are_exposed_on_both_transports() {
    let mut handle = spawn(|_| {});
    let mut c = client(&handle);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);
    let select = r#"{"graph":"g","eta":30,"seed":5}"#;
    assert_eq!(c.post("/v1/select", select).unwrap().status, 200);
    assert_eq!(c.post("/v1/select", select).unwrap().status, 200);
    assert_eq!(c.get("/healthz").unwrap().status, 200);

    let resp = c.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("Content-Type"),
        Some("text/plain; version=0.0.4"),
    );
    let text = resp.text();
    // Session-layer series populated by the traffic above.
    assert!(
        text.contains("smin_http_requests_total{route=\"select\"} 2\n"),
        "{text}"
    );
    assert!(text.contains("smin_http_requests_total{route=\"healthz\"} 1\n"),);
    assert!(text.contains("smin_select_stage_micros_count{stage=\"coverage\"} 2\n"),);
    assert!(text.contains("smin_cache_lookups_total{outcome=\"hit\"} 1\n"),);
    // One lookup per request: the hit was answered on the poll thread, and
    // its probe of the first (missing) body counted nothing.
    assert!(text.contains("smin_cache_lookups_total{outcome=\"miss\"} 1\n"),);
    assert!(text.contains("smin_graph_selects_total{graph=\"g\"} 2\n"),);
    // Event-loop series.
    assert!(text.contains("# TYPE smin_epoll_wait_micros histogram"));
    assert!(text.contains("# TYPE smin_bytes_read_total counter"));
    let read = text
        .lines()
        .find_map(|l| l.strip_prefix("smin_bytes_read_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("bytes-read sample");
    assert!(read > 0, "event loop counted no reads");
    drop(c);
    handle.shutdown();
}

/// An idle server's scrape reads its own dispatch as absent: the poll
/// thread samples the loop-health gauges before it handles the events
/// that dispatch the scrape.
#[test]
fn an_idle_scrape_does_not_count_itself_in_the_queue_depth() {
    let mut handle = spawn(|c| c.workers = 2);
    let mut c = client(&handle);
    for i in 0..50 {
        let resp = c.get("/metrics").unwrap();
        assert_eq!(resp.status, 200);
        let text = resp.text();
        assert!(
            text.contains("\nsmin_dispatch_queue_depth 0\n"),
            "scrape {i}: {text}"
        );
    }
    drop(c);
    handle.shutdown();
}

#[test]
fn trace_log_records_one_line_per_request() {
    let path = std::env::temp_dir().join("smin_trace_wire.jsonl");
    let _ = std::fs::remove_file(&path);
    let trace = path.clone();
    let mut handle = spawn(move |c| c.trace_log = Some(trace));
    let mut c = client(&handle);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);
    // The second select is a cache hit, answered on the poll thread.
    let mut total_sets = None;
    for _ in 0..2 {
        let resp = c
            .post_with_headers(
                "/v1/select",
                r#"{"graph":"g","eta":30,"seed":5}"#,
                &[("X-Deadline-Millis", "60000")],
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let body: serde_json::Value = serde_json::from_str(&resp.text()).unwrap();
        let sets = smin_service::json::field(&body, "total_sets").expect("total_sets");
        total_sets = Some(serde_json::to_string(sets));
    }
    let total_sets = total_sets.unwrap();
    drop(c);
    handle.shutdown(); // drops the state, flushing the log thread

    let mut text = String::new();
    for _ in 0..200 {
        text = std::fs::read_to_string(&path).unwrap_or_default();
        if text.lines().count() >= 3 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let lines: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("trace line parses"))
        .collect();
    assert_eq!(lines.len(), 3, "one line per request");
    // `json::field` reads a null as absent: registration and the cache
    // hit compute no select, and only the computed select reports work.
    assert_eq!(text.matches(r#""work":null"#).count(), 2, "{text}");
    let work = |line| smin_service::json::field(line, "work");
    assert!(work(&lines[0]).is_none() && work(&lines[2]).is_none());
    let computed = work(&lines[1]).expect("the computed select reports work");
    let get = |k: &str| {
        let v = smin_service::json::field(computed, k).expect("work field");
        serde_json::to_string(v)
    };
    assert_eq!(
        get("sets"),
        total_sets,
        "work.sets is the body's total_sets"
    );
    for k in ["rounds", "checks", "edges"] {
        assert!(get(k).parse::<u64>().unwrap() > 0, "work.{k} = {}", get(k));
    }
    for (select, cache) in [(&lines[1], r#""MISS""#), (&lines[2], r#""HIT""#)] {
        let get = |k: &str| {
            let v = smin_service::json::field(select, k).expect("field present");
            serde_json::to_string(v)
        };
        assert_eq!(get("method"), r#""POST""#);
        assert_eq!(get("path"), r#""/v1/select""#);
        assert_eq!(get("status"), "200");
        assert_eq!(get("cache"), cache);
        let micros = smin_service::json::field(select, "micros").expect("micros present");
        assert!(
            smin_service::json::field(micros, "coverage").is_some(),
            "stage micros recorded"
        );
        assert!(
            get("deadline_remaining_ms") != "null",
            "deadline header surfaced"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn cached_select_is_answered_while_the_only_worker_is_blocked() {
    let dir = std::env::temp_dir().join("smin_wire_blocked_worker");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fifo = dir.join("fifo");
    let made = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("run mkfifo");
    assert!(made.success(), "mkfifo failed");
    let graphs_dir = dir.clone();
    let mut handle = spawn(move |c| {
        c.workers = 1;
        c.graphs_dir = Some(graphs_dir);
    });
    let addr = handle.addr().to_string();
    let mut c = client(&handle);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);
    let select = r#"{"graph":"g","eta":30,"seed":5}"#;
    let warm = c.post("/v1/select", select).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.text());
    assert_eq!(warm.header("x-cache"), Some("MISS"));

    // Loading the FIFO blocks the only worker: its open waits for a
    // writer, and its read for bytes or the writer's close.
    let blocker_addr = addr.clone();
    let blocker = std::thread::spawn(move || {
        let mut b = Client::connect(&blocker_addr).expect("connect");
        b.post("/v1/graphs", r#"{"id":"f","path":"fifo"}"#)
            .map(|r| r.status)
    });
    // Returns once the worker has the FIFO open; it now waits in read.
    let writer = std::fs::OpenOptions::new()
        .write(true)
        .open(&fifo)
        .expect("open the FIFO's write end");

    // A raw request with a short timeout: if the hit queued behind the
    // blocked worker, the read times out instead of hanging the test.
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    write!(
        s,
        "POST /v1/select HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{select}",
        select.len()
    )
    .unwrap();
    let mut out = Vec::new();
    let read = s.read_to_end(&mut out);
    drop(writer); // releases the worker: its read sees end of file
    read.expect("a cached select is answered while the worker is blocked");
    let text = String::from_utf8_lossy(&out);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("\r\nX-Cache: HIT\r\n"), "{text}");
    assert!(out.ends_with(&warm.body), "hit bytes differ: {text}");

    let status = blocker.join().expect("blocker thread").expect("FIFO load");
    assert_eq!(status, 400, "an empty FIFO is not a graph");
    assert_eq!(c.get("/healthz").unwrap().status, 200, "worker released");
    drop(c);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `/healthz` is answered on the poll thread: with both workers held (each
/// loading a FIFO, which blocks until the test closes its write end, so
/// the hold lasts as long as the test needs), it answers within 100 ms with
/// the registry and cache figures, its route counter and its trace line.
#[test]
fn healthz_is_answered_while_every_worker_is_busy() {
    let dir = std::env::temp_dir().join("smin_wire_busy_healthz");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for fifo in ["fifo1", "fifo2"] {
        let made = std::process::Command::new("mkfifo")
            .arg(dir.join(fifo))
            .status()
            .expect("run mkfifo");
        assert!(made.success(), "mkfifo failed");
    }
    let trace = dir.join("trace.jsonl");
    let (graphs_dir, trace_log) = (dir.clone(), trace.clone());
    let mut handle = spawn(move |c| {
        c.workers = 2;
        c.graphs_dir = Some(graphs_dir);
        c.trace_log = Some(trace_log);
    });
    let addr = handle.addr().to_string();
    let mut c = client(&handle);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);
    let idle = c.get("/healthz").unwrap();
    assert_eq!(idle.status, 200);

    let blockers: Vec<_> = ["fifo1", "fifo2"]
        .iter()
        .map(|fifo| {
            let addr = addr.clone();
            let body = format!(r#"{{"id":"{fifo}","path":"{fifo}"}}"#);
            std::thread::spawn(move || {
                let mut b = Client::connect(&addr).expect("connect");
                b.post("/v1/graphs", &body).map(|r| r.status)
            })
        })
        .collect();
    // Each open returns once a worker has that FIFO open: both are held.
    let writers: Vec<_> = ["fifo1", "fifo2"]
        .iter()
        .map(|fifo| {
            std::fs::OpenOptions::new()
                .write(true)
                .open(dir.join(fifo))
                .expect("open a FIFO's write end")
        })
        .collect();

    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let sent = Instant::now();
    write!(
        s,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut out = Vec::new();
    let read = s.read_to_end(&mut out);
    let took = sent.elapsed();
    drop(writers); // releases the workers: their reads see end of file
    read.expect("/healthz is answered while both workers are busy");
    assert!(took < Duration::from_millis(100), "/healthz took {took:?}");
    let text = String::from_utf8_lossy(&out);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    let body = &text[text.find("\r\n\r\n").expect("head ends") + 4..];
    let figures = |b: &str| b[..b.find(r#","uptime_s""#).expect("uptime")].to_string();
    assert_eq!(
        figures(body),
        figures(&idle.text()),
        "the idle server's figures"
    );

    for blocker in blockers {
        let status = blocker.join().expect("blocker thread").expect("FIFO load");
        assert_eq!(status, 400, "an empty FIFO is not a graph");
    }
    let metrics = c.get("/metrics").unwrap().text();
    assert!(
        metrics.contains("smin_http_requests_total{route=\"healthz\"} 2\n"),
        "{metrics}"
    );
    drop(c);
    handle.shutdown(); // drops the state, flushing the log thread

    let mut lines = Vec::new();
    for _ in 0..200 {
        let text = std::fs::read_to_string(&trace).unwrap_or_default();
        lines = text
            .lines()
            .filter(|l| l.contains(r#""path":"/healthz""#))
            .map(str::to_string)
            .collect();
        if lines.len() >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(lines.len(), 2, "one trace line per /healthz");
    assert_eq!(lines[0], lines[1], "the idle server's trace line");
    assert!(lines[0].contains(r#""status":200"#), "{}", lines[0]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_connections_scale_beyond_the_dispatch_pool() {
    // 2 dispatch threads, 64 concurrently-open keep-alive connections:
    // impossible with a thread per connection, the point of the event
    // loop. The CI load step scales this to 512.
    let mut handle = spawn(|c| c.workers = 2);
    let addr = handle.addr().to_string();
    let mut clients: Vec<Client> = (0..64)
        .map(|i| Client::connect(&addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    // Every connection stays open and usable while all the others are.
    for (i, c) in clients.iter_mut().enumerate() {
        let resp = c
            .get("/healthz")
            .unwrap_or_else(|e| panic!("conn {i}: {e}"));
        assert_eq!(resp.status, 200, "conn {i}");
    }
    drop(clients);
    handle.shutdown();
}
