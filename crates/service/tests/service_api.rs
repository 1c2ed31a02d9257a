//! End-to-end tests: a real server on an ephemeral port, driven through the
//! crate's own keep-alive client.
//!
//! The centerpiece is the request-level determinism contract (ISSUE 5): the
//! same `/v1/select` body with the same `seed` returns **byte-identical**
//! JSON across server restarts and across sketch-generation thread counts
//! (threads ∈ {1, 4} both explicit and via the `SMIN_THREADS` default that
//! CI sweeps).
//!
//! Clients are dropped before `shutdown()`, so no keep-alive connection is
//! still open when the server stops.

use smin_service::{Client, Server, ServerConfig};

fn spawn_server() -> smin_service::ServerHandle {
    spawn_server_with_state(None)
}

fn spawn_server_with_state(state_dir: Option<std::path::PathBuf>) -> smin_service::ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        graphs_dir: None,
        state_dir,
        cache_capacity: 64,
        ..ServerConfig::default()
    };
    Server::bind(&config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

fn client(handle: &smin_service::ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string()).expect("connect")
}

const REGISTER: &str = r#"{"id":"g","generate":{"kind":"er","n":120,"m":360,"seed":9}}"#;
const SELECT_UNCACHED: &str = r#"{"graph":"g","eta":30,"seed":5,"cache":false}"#;

#[test]
fn full_lifecycle_over_one_keepalive_connection() {
    let mut handle = spawn_server();
    let mut c = client(&handle);

    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.json().is_ok());
    assert!(health.text().contains("\"status\":\"ok\""));

    let created = c.post("/v1/graphs", REGISTER).unwrap();
    assert_eq!(created.status, 201, "{}", created.text());
    assert!(created.text().contains("\"id\":\"g\""));

    let listing = c.get("/v1/graphs").unwrap();
    assert_eq!(listing.status, 200);
    assert!(
        listing.text().contains("\"id\":\"g\""),
        "{}",
        listing.text()
    );

    let selected = c.post("/v1/select", SELECT_UNCACHED).unwrap();
    assert_eq!(selected.status, 200, "{}", selected.text());
    assert!(selected.json().is_ok(), "body must parse as JSON");
    assert!(selected.text().contains("\"reached\":true"));
    assert!(
        selected.header("X-Select-Micros").is_some(),
        "timing travels in a header, never the body"
    );

    let deleted = c.delete("/v1/graphs/g").unwrap();
    assert_eq!(deleted.status, 200);
    let gone = c.post("/v1/select", SELECT_UNCACHED).unwrap();
    assert_eq!(gone.status, 404);
    assert!(gone.text().contains("unknown_graph"));

    drop(c);
    handle.shutdown();
}

#[test]
fn select_is_byte_identical_across_restarts_and_thread_counts() {
    // Server A: compute the reference response plus one per thread count.
    let mut handle_a = spawn_server();
    let mut c = client(&handle_a);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);
    let reference = c.post("/v1/select", SELECT_UNCACHED).unwrap();
    assert_eq!(reference.status, 200, "{}", reference.text());
    for threads in [1, 4] {
        let body =
            format!(r#"{{"graph":"g","eta":30,"seed":5,"cache":false,"threads":{threads}}}"#);
        let resp = c.post("/v1/select", &body).unwrap();
        assert_eq!(
            resp.body, reference.body,
            "threads={threads} diverged from the default-thread response"
        );
    }
    drop(c);
    handle_a.shutdown();

    // Server B: a cold process-equivalent (fresh registry, empty cache) must
    // reproduce the exact bytes.
    let mut handle_b = spawn_server();
    let mut c = client(&handle_b);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);
    let replay = c.post("/v1/select", SELECT_UNCACHED).unwrap();
    assert_eq!(
        replay.body, reference.body,
        "restart changed the response bytes"
    );
    drop(c);
    handle_b.shutdown();
}

#[test]
fn warm_restart_restores_graphs_tokens_and_select_bytes() {
    let dir = std::env::temp_dir().join("smin_service_warm_restart");
    let _ = std::fs::remove_dir_all(&dir);

    // Server A: register a graph into the state dir, capture the listing and
    // an uncached select, then die.
    let mut handle_a = spawn_server_with_state(Some(dir.clone()));
    let mut c = client(&handle_a);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);
    let listing_a = c.get("/v1/graphs").unwrap();
    assert!(
        listing_a.text().contains("\"snapshot\":\"graphs/g.smg\""),
        "{}",
        listing_a.text()
    );
    assert!(
        listing_a.text().contains("\"token\":\""),
        "{}",
        listing_a.text()
    );
    let select_a = c.post("/v1/select", SELECT_UNCACHED).unwrap();
    assert_eq!(select_a.status, 200, "{}", select_a.text());
    drop(c);
    handle_a.shutdown();

    // Server B: boots from the manifest — no re-registration anywhere.
    let mut handle_b = spawn_server_with_state(Some(dir.clone()));
    let mut c = client(&handle_b);
    let listing_b = c.get("/v1/graphs").unwrap();
    assert_eq!(
        listing_b.body, listing_a.body,
        "restart must list the same graphs with the same tokens"
    );
    let select_b = c.post("/v1/select", SELECT_UNCACHED).unwrap();
    assert_eq!(
        select_b.body, select_a.body,
        "restart changed the select bytes"
    );
    // The restored graph still owns its id.
    let conflict = c.post("/v1/graphs", REGISTER).unwrap();
    assert_eq!(conflict.status, 409, "{}", conflict.text());
    drop(c);
    handle_b.shutdown();

    std::fs::remove_dir_all(&dir).ok();
}

/// A DELETE whose manifest write fails answers 500 and changes nothing:
/// the graph stays listed and selectable, as the manifest and snapshot
/// that a restart reads still hold it. A directory at `manifest.json.tmp`
/// makes the write fail, whoever runs the test. Once it is gone, the
/// DELETE succeeds and a restart lists nothing.
#[test]
fn failed_delete_keeps_the_graph_until_the_manifest_drops_it() {
    let dir = std::env::temp_dir().join("smin_service_failed_delete");
    let _ = std::fs::remove_dir_all(&dir);
    let mut handle = spawn_server_with_state(Some(dir.clone()));
    let mut c = client(&handle);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);
    let select = c.post("/v1/select", SELECT_UNCACHED).unwrap();
    assert_eq!(select.status, 200, "{}", select.text());
    let listing = c.get("/v1/graphs").unwrap();

    let blocker = dir.join("manifest.json.tmp");
    std::fs::create_dir(&blocker).unwrap();
    let failed = c.delete("/v1/graphs/g").unwrap();
    assert_eq!(failed.status, 500, "{}", failed.text());
    assert!(
        failed.text().contains("\"code\":\"persist_failed\""),
        "{}",
        failed.text()
    );
    assert_eq!(
        c.get("/v1/graphs").unwrap().text(),
        listing.text(),
        "a failed DELETE must leave the graph listed"
    );
    let again = c.post("/v1/select", SELECT_UNCACHED).unwrap();
    assert_eq!(again.status, 200, "{}", again.text());
    assert_eq!(again.body, select.body);

    std::fs::remove_dir(&blocker).unwrap();
    let deleted = c.delete("/v1/graphs/g").unwrap();
    assert_eq!(deleted.status, 200, "{}", deleted.text());
    drop(c);
    handle.shutdown();

    let mut handle = spawn_server_with_state(Some(dir.clone()));
    let mut c = client(&handle);
    assert_eq!(c.get("/v1/graphs").unwrap().text(), r#"{"graphs":[]}"#);
    drop(c);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// An id names its snapshot file under a state dir, so one longer than the
/// cap is a 400 before any file is made. Unchecked, a 300-byte id made a
/// 500 (its file name was too long to create) and a 1 MiB id a 500 whose
/// message quoted the whole path.
#[test]
fn long_graph_ids_get_400_under_a_state_dir() {
    let dir = std::env::temp_dir().join("smin_service_long_ids");
    let _ = std::fs::remove_dir_all(&dir);
    let mut handle = spawn_server_with_state(Some(dir.clone()));
    let mut c = client(&handle);
    let register = |id: &str| format!(r#"{{"id":"{id}","generate":{{"kind":"ba","n":10}}}}"#);

    for long in ["x".repeat(300), "y".repeat(1 << 20)] {
        let resp = c.post("/v1/graphs", &register(&long)).unwrap();
        let text = resp.text();
        let head = &text[..text.len().min(200)];
        assert_eq!(resp.status, 400, "{head}");
        assert!(text.contains("\"code\":\"bad_request\""), "{head}");
        assert!(text.len() < 1024, "{} bytes: {head}", text.len());
    }
    let graphs = dir.join("graphs");
    let written = std::fs::read_dir(&graphs).map_or(0, |d| d.count());
    assert_eq!(written, 0, "nothing may be written under {graphs:?}");
    assert_eq!(
        c.get("/healthz").unwrap().status,
        200,
        "server must survive"
    );

    let at_cap = "z".repeat(smin_service::registry::MAX_ID_BYTES);
    let resp = c.post("/v1/graphs", &register(&at_cap)).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    assert!(graphs.join(format!("{at_cap}.smg")).is_file());
    drop(c);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_request_hits_the_cache_and_matches() {
    let mut handle = spawn_server();
    let mut c = client(&handle);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);

    let body = r#"{"graph":"g","eta":30,"seed":5}"#;
    let first = c.post("/v1/select", body).unwrap();
    assert_eq!(first.header("X-Cache"), Some("MISS"));
    let second = c.post("/v1/select", body).unwrap();
    assert_eq!(second.header("X-Cache"), Some("HIT"));
    assert_eq!(second.body, first.body);

    // Warm-session path without the cache: same bytes, warm shelf reused.
    let uncached = c.post("/v1/select", SELECT_UNCACHED).unwrap();
    assert_eq!(uncached.header("X-Cache"), Some("BYPASS"));
    assert_eq!(uncached.body, first.body);

    let listing = c.get("/v1/graphs").unwrap();
    assert!(
        listing.text().contains("\"warm_sessions\":1"),
        "{}",
        listing.text()
    );
    drop(c);
    handle.shutdown();
}

#[test]
fn malformed_requests_get_structured_errors() {
    let mut handle = spawn_server();
    let mut c = client(&handle);

    let resp = c.post("/v1/select", "this is not json").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("\"code\":\"bad_request\""));

    let resp = c.get("/no/such/route").unwrap();
    assert_eq!(resp.status, 404);
    assert!(resp.text().contains("\"code\":\"unknown_route\""));

    // Errors keep the connection usable (keep-alive survives a 4xx).
    let resp = c.get("/healthz").unwrap();
    assert_eq!(resp.status, 200);
    drop(c);
    handle.shutdown();
}

/// JSON that RFC 8259 does not allow is a 400 before any graph is looked
/// up: a `+` sign, a leading `.`, a leading zero, a trailing `.`, and a raw
/// control character inside a string. A lax parser read `"eta":+20` as 20
/// and answered with the unknown graph's 404.
#[test]
fn json_outside_rfc_8259_gets_400() {
    let mut handle = spawn_server();
    let mut c = client(&handle);
    for body in [
        r#"{"graph":"g","eta":+20}"#,
        r#"{"graph":"g","eta":.5}"#,
        r#"{"graph":"g","eta":007}"#,
        r#"{"graph":"g","eta":1.}"#,
        "{\"graph\":\"g\tx\",\"eta\":20}",
    ] {
        let resp = c.post("/v1/select", body).unwrap();
        assert_eq!(resp.status, 400, "{body}: {}", resp.text());
        assert!(
            resp.text().contains("\"code\":\"bad_request\""),
            "{body}: {}",
            resp.text()
        );
    }
    let resp = c.post("/v1/select", r#"{"graph":"g","eta":20}"#).unwrap();
    assert_eq!(resp.status, 404, "{}", resp.text());
    drop(c);
    handle.shutdown();
}

#[test]
fn concurrent_clients_share_one_registry() {
    let mut handle = spawn_server();
    let mut c = client(&handle);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);
    let reference = c.post("/v1/select", SELECT_UNCACHED).unwrap();
    drop(c);

    let addr = handle.addr().to_string();
    let results: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    let resp = c.post("/v1/select", SELECT_UNCACHED).unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.text());
                    resp.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for body in results {
        assert_eq!(body, reference.body, "concurrent responses diverged");
    }
    handle.shutdown();
}
