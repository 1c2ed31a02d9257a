//! Request routing and endpoint implementations.
//!
//! | method | path | body | effect |
//! |---|---|---|---|
//! | GET | `/healthz` | — | liveness + registry stats |
//! | GET | `/v1/graphs` | — | list registered graphs |
//! | POST | `/v1/graphs` | `{"id"?, "path"?, "generate"?, …}` | load/generate + register |
//! | DELETE | `/v1/graphs/{id}` | — | unregister |
//! | POST | `/v1/select` | `{"graph", "eta"\|"eta_frac", …}` | run TRIM / TRIM-B / ASTI |
//! | POST | `/v1/select-batch` | `{"graph", "items": […]}` | N selects, one graph resolution + warm session |
//!
//! `/v1/select` responses contain only deterministic fields: the same body
//! (same `seed`) produces byte-identical JSON across restarts and thread
//! counts. Wall-clock timing travels in the `X-Select-Micros` response
//! header, and cache status in `X-Cache`, so neither perturbs the contract.
//!
//! `/v1/select-batch` amortizes the per-request overhead: the graph is
//! resolved once and one warm session serves the whole batch, while each
//! item keeps its own cache entry. `/v1/select` is the same path run on
//! one item (`run_items`, then `select_response`), so every element of
//! `"results"` is byte-identical to the body the same item would get from
//! `/v1/select` — session reuse never changes results, and the wire tests
//! pin this equivalence. Each item is looked up in the cache before the
//! session is checked out, and only an item that must compute checks it
//! out, so a request the cache answers whole takes no session.
//!
//! `answer_cached` is the poll thread's way in: it answers `GET /healthz`
//! and a `/v1/select` whose body is already cached, with the parsing,
//! cache key, response and epilogue a dispatch worker uses, so each
//! carries the same bytes, headers and counters on either thread, and a
//! liveness probe never queues behind running selects. It never waits: it
//! takes the registry and cache locks with `try_lock`, probes only bodies
//! up to [`MAX_LINE_BYTES`], and declines everything else (misses,
//! `"cache": false`, errors, other routes) without moving a counter, for a
//! worker to answer. The epilogue, `finish`, is the only place a response
//! is counted and traced, the event loop's own responses included; it
//! reads the [`Deadline`] the loop parsed, the only `X-Deadline-Millis`
//! parse.
//!
//! Integer fields must be below 2⁵³ (see [`json::opt_u64`]).

use crate::cache::SelectCache;
use crate::error::{Deadline, ServiceError};
use crate::http::{Request, Response, MAX_GENERATED_EDGES, MAX_GENERATED_NODES, MAX_LINE_BYTES};
use crate::json;
use crate::metrics::ServiceMetrics;
use crate::registry::{
    manifest_json, parse_manifest, record_select, GraphEntry, ManifestEntry, Registry,
};
use crate::server::ServerConfig;
use crate::trace::{SelectTrace, StageMicrosLine, TraceEvent, TraceLog, WorkTotals};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use smin_core::{asti_in, eta_of_fraction, AstiParams, AstiSession};
use smin_diffusion::{Model, Realization, RealizationOracle};
use smin_graph::error::quoted;
use smin_graph::generators::GeneratorSpec;
use smin_graph::{io, store, Graph, WeightModel};
use std::collections::BTreeSet;
use std::fs::{DirEntry, File};
use std::io::{BufWriter, Write};
use std::path::{Component, Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::Instant;

/// Shared state behind every worker thread.
pub struct ServiceState {
    registry: Mutex<Registry>,
    cache: Mutex<SelectCache>,
    /// Directory `POST /v1/graphs {"path": …}` loads are confined to;
    /// `None` disables file loading entirely.
    graphs_dir: Option<PathBuf>,
    /// Durable registry root (`manifest.json` + `graphs/*.smg` snapshots);
    /// `None` keeps the registry in-memory only.
    state_dir: Option<PathBuf>,
    started: Instant,
    /// Shared metric registry, fed by the event loop and the session layer
    /// and scraped at `GET /metrics`.
    metrics: ServiceMetrics,
    /// Per-request JSON trace lines (`--trace-log`); `None` disables.
    trace: Option<TraceLog>,
    /// Dispatch threads serving requests: the ceiling on a select's
    /// `"threads"`.
    dispatch_workers: usize,
}

impl ServiceState {
    /// Fresh in-memory state; `cache_capacity` bounds the memoized-response
    /// count.
    pub fn new(graphs_dir: Option<PathBuf>, cache_capacity: usize) -> Self {
        ServiceState {
            registry: Mutex::new(Registry::new()),
            cache: Mutex::new(SelectCache::new(cache_capacity)),
            graphs_dir,
            state_dir: None,
            // smin-lint: allow(no-wall-clock) -- /healthz uptime is observability, outside the determinism contract
            started: Instant::now(),
            metrics: ServiceMetrics::new(),
            trace: None,
            dispatch_workers: ServerConfig::default().workers,
        }
    }

    /// State with a durable registry under `state_dir`: every registered
    /// graph is snapshotted to `graphs/<id>.smg` and indexed in
    /// `manifest.json`, and graphs listed in an existing manifest are
    /// restored (and checksum-verified) before the server accepts requests.
    /// Then the boot removes what a crashed write left behind: the `*.tmp`
    /// files and the snapshots the manifest does not name.
    pub fn with_state_dir(
        graphs_dir: Option<PathBuf>,
        cache_capacity: usize,
        state_dir: Option<PathBuf>,
    ) -> Result<Self, String> {
        let mut state = ServiceState::new(graphs_dir, cache_capacity);
        let Some(dir) = state_dir else {
            return Ok(state);
        };
        std::fs::create_dir_all(dir.join("graphs"))
            .map_err(|e| format!("cannot create state dir {dir:?}: {e}"))?;
        let registry = state.registry.get_mut().unwrap_or_else(|e| e.into_inner());
        restore_registry(&dir, registry)?;
        remove_leftovers(&dir, registry);
        state.state_dir = Some(dir);
        Ok(state)
    }

    pub(crate) fn registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn cache(&self) -> MutexGuard<'_, SelectCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The shared metric registry scraped at `GET /metrics`.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The per-request trace log, when `--trace-log` is active.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// Attaches a trace log. Called once at server bind, before the state
    /// is shared across threads.
    pub fn set_trace(&mut self, trace: TraceLog) {
        self.trace = Some(trace);
    }

    /// Sets the dispatch thread count, which caps every select's
    /// `"threads"`. Called once at server bind, before the state is shared
    /// across threads.
    pub fn set_dispatch_workers(&mut self, workers: usize) {
        self.dispatch_workers = workers.max(1);
    }
}

/// `lock`'s guard, or `None` while another thread holds it. The poll
/// thread never waits for a lock: `register_graph` holds the registry
/// across a snapshot write and its fsyncs.
fn try_guard<T>(lock: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match lock.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Rebuilds the registry from `manifest.json`, verifying each snapshot's
/// content checksum against the manifest. A missing manifest is a fresh
/// state dir; a damaged one is a hard boot error — serving a silently
/// partial registry would violate the restart-warm contract.
fn restore_registry(dir: &Path, registry: &mut Registry) -> Result<(), String> {
    let manifest_path = dir.join("manifest.json");
    let text = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(format!("cannot read {manifest_path:?}: {e}")),
    };
    for entry in parse_manifest(&text)? {
        let rel = Path::new(&entry.file);
        if rel.components().any(|c| !matches!(c, Component::Normal(_))) {
            return Err(format!(
                "manifest entry '{}' has an unsafe file path {:?}",
                entry.id, entry.file
            ));
        }
        let graph = store::read_smg_path(dir.join(rel))
            .map_err(|e| format!("snapshot {:?} for graph '{}': {e}", entry.file, entry.id))?;
        let checksum = store::content_checksum(&graph);
        if checksum != entry.checksum {
            return Err(format!(
                "snapshot {:?} for graph '{}' has checksum {:016x}, manifest says {:016x}",
                entry.file, entry.id, checksum, entry.checksum
            ));
        }
        registry
            .register_resolved(entry.id.clone(), graph, entry.source, Some(entry.file))
            .map_err(|e| format!("cannot restore graph '{}': {}", entry.id, e.message))?;
    }
    Ok(())
}

/// Removes, after the manifest restored `registry`, the files of the state
/// dir that nothing reads: `manifest.json.tmp` and `graphs/*.tmp`, left by
/// a crash inside [`replace_durably`], and the `graphs/*.smg` snapshots
/// the manifest does not name. A crash leaves such an orphan in
/// `register_graph` between the snapshot's rename and the manifest's, and
/// in `delete_graph` between the manifest write and the file removal.
/// Only regular files directly in the state dir and its `graphs/` are
/// touched; one that cannot be removed is left for the next boot.
fn remove_leftovers(dir: &Path, registry: &Registry) {
    let named: BTreeSet<PathBuf> = registry
        .list()
        .iter()
        .filter_map(|e| e.snapshot.as_ref().map(|file| dir.join(file)))
        .collect();
    let is_file = |entry: &DirEntry| entry.file_type().is_ok_and(|t| t.is_file());
    let _ = std::fs::remove_file(dir.join("manifest.json.tmp"));
    let Ok(entries) = std::fs::read_dir(dir.join("graphs")) else {
        return;
    };
    for entry in entries.flatten().filter(is_file) {
        let path = entry.path();
        let leftover = match path.extension().and_then(|e| e.to_str()) {
            Some("tmp") => true,
            Some("smg") => !named.contains(&path),
            _ => false,
        };
        if leftover {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Replaces `path` atomically and durably: `write` fills `<path>.tmp`,
/// which is synced to disk and renamed over `path`, and then the parent
/// directory is synced so the rename survives a power loss too. A crash at
/// any point leaves the old or the new file at `path`, never a torn one;
/// at worst a stale `.tmp` stays behind, which nothing reads.
fn replace_durably(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), String>,
) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let stage = || -> Result<(), String> {
        let file = File::create(&tmp).map_err(|e| format!("cannot create {tmp:?}: {e}"))?;
        let mut w = BufWriter::new(file);
        write(&mut w)?;
        let file = w
            .into_inner()
            .map_err(|e| format!("cannot write {tmp:?}: {}", e.error()))?;
        file.sync_all()
            .map_err(|e| format!("cannot sync {tmp:?}: {e}"))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("cannot replace {path:?}: {e}"))
    };
    if let Err(message) = stage() {
        let _ = std::fs::remove_file(&tmp);
        return Err(message);
    }
    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("cannot sync directory {dir:?}: {e}"))
}

/// Rewrites `manifest.json` atomically and durably from the `graphs` that
/// carry snapshots. The registry lists them sorted by id, which makes the
/// output deterministic.
fn write_manifest(dir: &Path, graphs: &[Arc<GraphEntry>]) -> Result<(), String> {
    let entries: Vec<ManifestEntry> = graphs
        .iter()
        .filter_map(|e| {
            e.snapshot.as_ref().map(|file| ManifestEntry {
                id: e.id.clone(),
                file: file.clone(),
                checksum: e.token,
                source: e.source.clone(),
            })
        })
        .collect();
    let mut text = manifest_json(&entries);
    text.push('\n');
    let path = dir.join("manifest.json");
    replace_durably(&path, |w| {
        w.write_all(text.as_bytes())
            .map_err(|e| format!("cannot write {path:?}: {e}"))
    })
}

/// A route only test builds have: its handler panics, so a server test
/// can drive the dispatch worker's `catch_unwind` backstop.
#[cfg(test)]
pub(crate) const TEST_PANIC_PATH: &str = "/test/panic";

/// Routes one request. Never panics on malformed input — every failure
/// becomes a structured JSON error. `deadline` is the budget the event loop
/// parsed; the epilogue reads it for the trace line.
pub fn handle(state: &ServiceState, req: &Request, deadline: Option<Deadline>) -> Response {
    // Scrapes return before any counter or trace mutation, so two
    // back-to-back scrapes with no intervening traffic are byte-identical.
    if req.method == "GET" && req.path == "/metrics" {
        return metrics_response(state);
    }
    let mut traced: Option<SelectTrace> = None;
    let result = match (req.method.as_str(), req.path.as_str()) {
        #[cfg(test)]
        ("GET", TEST_PANIC_PATH) => {
            panic!("the test-only route panicked")
        }
        ("GET", "/healthz") => Ok(healthz(state, &state.registry(), &state.cache())),
        ("GET", "/v1/graphs") => Ok(list_graphs(state)),
        ("POST", "/v1/graphs") => register_graph(state, &req.body),
        ("POST", "/v1/select") => select(state, req, &mut traced),
        ("POST", "/v1/select-batch") => select_batch(state, req, &mut traced),
        (method, path)
            if path
                .strip_prefix("/v1/graphs/")
                .is_some_and(|id| !id.is_empty()) =>
        {
            match path.strip_prefix("/v1/graphs/") {
                Some(id) if method == "DELETE" => delete_graph(state, id),
                _ => Err(method_not_allowed(method, path)),
            }
        }
        (
            method,
            path @ ("/healthz" | "/v1/graphs" | "/v1/select" | "/v1/select-batch" | "/metrics"),
        ) => Err(method_not_allowed(method, path)),
        (_, path) => Err(ServiceError::not_found(
            "unknown_route",
            format!("no route for {path}"),
        )),
    };
    let resp = result.unwrap_or_else(|e| e.to_response());
    finish(state, By::Route(req, traced), deadline, resp)
}

/// Answers `req` on the calling thread if it is a `GET /healthz` or a
/// `/v1/select` whose body is already cached, with the bytes, headers,
/// counters and trace line [`handle`] would give it. `None` means "dispatch
/// it": another route, a body over [`MAX_LINE_BYTES`], a parse error, a
/// miss, `"cache": false`, or a registry or cache lock held by another
/// thread. A `None` moves no counter; the worker that answers instead
/// counts the request, and its miss, once.
pub(crate) fn answer_cached(
    state: &ServiceState,
    req: &Request,
    deadline: Option<Deadline>,
) -> Option<Response> {
    if req.method == "GET" && req.path == "/healthz" {
        let resp = {
            let registry = try_guard(&state.registry)?;
            healthz(state, &registry, &*try_guard(&state.cache)?)
        };
        return Some(finish(state, By::Route(req, None), deadline, resp));
    }
    if req.method != "POST" || req.path != "/v1/select" || req.body.len() > MAX_LINE_BYTES {
        return None;
    }
    let (sel, started, micros) =
        resolve_select(state, &req.body, |id| try_guard(&state.registry)?.get(id)).ok()?;
    if !sel.use_cache {
        return None;
    }
    let cached = try_guard(&state.cache)?.get_hit(&sel.cache_key())?;
    record_select(&sel.entry);
    let resp = select_response(req, cached.to_vec(), "HIT", started, &micros);
    let trace = SelectTrace { micros, work: None };
    Some(finish(state, By::Route(req, Some(trace)), deadline, resp))
}

/// Who gave a response, for its epilogue ([`finish`]): a route's handler,
/// with the stage timings and work a select adds, or the event loop itself
/// (`None` when no request parsed).
#[derive(Clone, Copy)]
pub(crate) enum By<'a> {
    Route(&'a Request, Option<SelectTrace>),
    Loop(Option<&'a Request>),
}

/// The epilogue of every response the service gives, on either thread, and
/// the only place one is counted and traced: a handler's answer counts on
/// its route and feeds its select's stage histograms; the loop's own
/// answers (400s for malformed HTTP or a bad deadline, 408, 429, 504, a
/// caught panic's 500) and every 500 count in `smin_http_errors_total`;
/// each gets one trace line, `deadline_remaining_ms` read off `deadline`.
pub(crate) fn finish(
    state: &ServiceState,
    by: By,
    deadline: Option<Deadline>,
    resp: Response,
) -> Response {
    let m = state.metrics();
    let (req, traced) = match by {
        By::Route(req, traced) => {
            route_counter(m, &req.path).inc();
            (Some(req), traced)
        }
        By::Loop(req) => (req, None),
    };
    if matches!(by, By::Loop(_)) || resp.status == 500 {
        if let Some(errors) = m.errors_of(resp.status) {
            errors.inc();
        }
    }
    if let Some(t) = traced {
        observe_stages(m, &t.micros);
    }
    if let Some(trace) = state.trace() {
        let cache = resp.headers.iter().find(|(k, _)| k == "X-Cache");
        trace.emit(&TraceEvent {
            method: req.map(|r| r.method.as_str()),
            path: req.map(|r| r.path.as_str()),
            status: resp.status,
            micros: traced.map(|t| t.micros),
            work: traced.and_then(|t| t.work),
            cache: cache.map(|(_, v)| v.as_str()),
            deadline_remaining_ms: deadline.map(|d| d.remaining_ms()),
        });
    }
    resp
}

/// `GET /metrics` — Prometheus text exposition of the whole registry.
fn metrics_response(state: &ServiceState) -> Response {
    Response {
        status: 200,
        headers: vec![(
            "Content-Type".to_string(),
            smin_obs::expo::CONTENT_TYPE.to_string(),
        )],
        body: crate::metrics::render(state).into_bytes(),
    }
}

/// The request counter a path belongs to. `/v1/graphs/{id}` folds into the
/// graphs class; everything unrouted is `other`.
fn route_counter<'a>(m: &'a ServiceMetrics, path: &str) -> &'a smin_obs::Counter {
    match path {
        "/healthz" => &m.requests_healthz,
        "/v1/graphs" => &m.requests_graphs,
        "/v1/select" => &m.requests_select,
        "/v1/select-batch" => &m.requests_select_batch,
        p if p.starts_with("/v1/graphs/") => &m.requests_graphs,
        _ => &m.requests_other,
    }
}

fn method_not_allowed(method: &str, path: &str) -> ServiceError {
    ServiceError::new(
        405,
        "method_not_allowed",
        format!("{method} is not supported on {path}"),
    )
}

/// `GET /healthz`, from the registry and the cache its caller has locked.
fn healthz(state: &ServiceState, registry: &Registry, cache: &SelectCache) -> Response {
    let (hits, misses) = cache.stats();
    Response::json(
        200,
        &json!({
            "status": "ok",
            "graphs": registry.len(),
            "cached_responses": cache.len(),
            "cache_hits": hits,
            "cache_misses": misses,
            "uptime_s": state.started.elapsed().as_secs(),
        }),
    )
}

/// `GET /v1/graphs`
fn list_graphs(state: &ServiceState) -> Response {
    let entries = state.registry().list();
    let graphs: Vec<Value> = entries.iter().map(|e| entry_value(e)).collect();
    Response::json(200, &json!({ "graphs": graphs }))
}

fn entry_value(e: &GraphEntry) -> Value {
    json!({
        "id": e.id.clone(),
        "n": e.graph.n(),
        "m": e.graph.m(),
        "token": format!("{:016x}", e.token),
        "source": e.source.clone(),
        "snapshot": e.snapshot.clone(),
        "selects": e.selects.load(std::sync::atomic::Ordering::Relaxed),
        "warm_sessions": e.warm_sessions(),
        "warm_pool_bytes": e.warm_pool_bytes(),
    })
}

/// Generates a graph from a `"generate"` spec object.
fn generate_graph(spec: &Value) -> Result<(Graph, String), ServiceError> {
    let kind = json::req_str(spec, "kind")?;
    let n = json::req_usize(spec, "n")?;
    // The size ceilings are checked here, so a spec is never an allocation
    // that aborts the process; `GeneratorSpec::generate` then turns what the
    // generator would assert into a 400, never a panic on a dispatch thread.
    let bad = |msg: String| ServiceError::bad_request(format!("{}: {msg}", quoted(&kind)));
    if n > MAX_GENERATED_NODES {
        return Err(bad(format!(
            "'n' = {n} exceeds the ceiling of {MAX_GENERATED_NODES} nodes"
        )));
    }
    let seed = json::opt_u64(spec, "seed")?.unwrap_or(42);
    let weights: WeightModel = json::opt_str(spec, "weights")?
        .map_or(Ok(WeightModel::WeightedCascade), |w| w.parse())
        .map_err(|e| ServiceError::bad_request(format!("'weights': {e}")))?;
    let (spec, field, edges) = match kind.as_str() {
        "chung-lu" => {
            let m = json::opt_usize(spec, "m")?.unwrap_or(n * 5);
            let gamma = json::opt_f64(spec, "gamma")?.unwrap_or(2.1);
            (GeneratorSpec::ChungLu { m, gamma }, "m", m as u128)
        }
        "er" => {
            let m = json::opt_usize(spec, "m")?.unwrap_or(n * 5);
            (GeneratorSpec::ErdosRenyi { m }, "m", m as u128)
        }
        "ba" => {
            let attach = json::opt_usize(spec, "attach")?.unwrap_or(4);
            let edges = 2 * n as u128 * attach as u128;
            (GeneratorSpec::BarabasiAlbert { attach }, "attach", edges)
        }
        "ws" => {
            let k = json::opt_usize(spec, "k")?.unwrap_or(6);
            let beta = json::opt_f64(spec, "beta")?.unwrap_or(0.1);
            (
                GeneratorSpec::WattsStrogatz { k, beta },
                "k",
                n as u128 * k as u128,
            )
        }
        other => {
            return Err(ServiceError::bad_request(format!(
                "unknown generator {} (chung-lu | ba | er | ws)",
                quoted(other)
            )))
        }
    };
    check_edge_ceiling(field, edges).map_err(bad)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = spec.generate(n, weights, &mut rng).map_err(bad)?;
    Ok((g, format!("generated:{kind}")))
}

/// The edge ceiling: the spec's `field` asks for `edges` directed edges.
fn check_edge_ceiling(field: &str, edges: u128) -> Result<(), String> {
    if edges > MAX_GENERATED_EDGES as u128 {
        Err(format!(
            "'{field}' asks for {edges} directed edges, over the ceiling of {MAX_GENERATED_EDGES}"
        ))
    } else {
        Ok(())
    }
}

/// Resolves a `"path"` load under the configured graphs dir, rejecting
/// absolute paths and any traversal outside it.
fn load_graph_file(
    graphs_dir: &Option<PathBuf>,
    rel: &str,
) -> Result<(Graph, String), ServiceError> {
    let Some(dir) = graphs_dir else {
        return Err(ServiceError::bad_request(
            "file loading is disabled: the server was started without --graphs-dir",
        ));
    };
    let rel_path = Path::new(rel);
    let traversal = rel_path
        .components()
        .any(|c| !matches!(c, Component::Normal(_) | Component::CurDir));
    if rel.is_empty() || traversal {
        return Err(ServiceError::bad_request(format!(
            "path {} must be relative to the graphs dir, without '..'",
            quoted(rel)
        )));
    }
    // Content-sniffing loader: `.smg` snapshots and text edge lists both
    // work regardless of extension.
    let g = io::load_auto(dir.join(rel_path), 1.0)?;
    Ok((g, format!("file:{rel}")))
}

/// `POST /v1/graphs`
fn register_graph(state: &ServiceState, body: &[u8]) -> Result<Response, ServiceError> {
    let v = json::parse_object(body)?;
    let id = json::opt_str(&v, "id")?;
    // A bad or taken id answers before the graph is built; the check under
    // the registry lock below still settles a race with a 409.
    if let Some(id) = &id {
        state.registry().check_id(id)?;
    }
    let path = json::opt_str(&v, "path")?;
    let generate = json::field(&v, "generate");
    let (graph, source) = match (path, generate) {
        (Some(p), None) => load_graph_file(&state.graphs_dir, &p)?,
        (None, Some(spec)) => generate_graph(spec)?,
        _ => {
            return Err(ServiceError::bad_request(
                "body must contain exactly one of 'path' or 'generate'",
            ))
        }
    };
    if graph.n() == 0 {
        return Err(ServiceError::new(
            422,
            "empty_graph",
            "the loaded graph has no nodes",
        ));
    }
    // Registration and persistence run under one registry lock so concurrent
    // registrations serialize their manifest rewrites.
    let mut registry = state.registry();
    let id = registry.resolve_id(id)?;
    let snapshot = state.state_dir.as_ref().map(|_| format!("graphs/{id}.smg"));
    let entry = registry.register_resolved(id.clone(), graph, source, snapshot.clone())?;
    if let (Some(dir), Some(rel)) = (&state.state_dir, &snapshot) {
        // The snapshot is durable under its final name before the manifest
        // that points at it is written.
        let persisted = replace_durably(&dir.join(rel), |w| {
            store::write_smg(&entry.graph, w)
                .map_err(|e| format!("cannot write snapshot {rel:?}: {e}"))
        })
        .and_then(|()| write_manifest(dir, &registry.list()));
        if let Err(message) = persisted {
            // Roll back so the in-memory registry never outlives its
            // manifest: a graph the manifest does not know about would
            // silently vanish on restart.
            registry.remove(&id);
            let _ = std::fs::remove_file(dir.join(rel));
            return Err(ServiceError::new(500, "persist_failed", message));
        }
    }
    Ok(Response::json(201, &entry_value(&entry)))
}

/// `DELETE /v1/graphs/{id}`
fn delete_graph(state: &ServiceState, id: &str) -> Result<Response, ServiceError> {
    let mut registry = state.registry();
    let Some(entry) = registry.get(id) else {
        return Err(ServiceError::not_found(
            "unknown_graph",
            format!("graph {} is not registered", quoted(id)),
        ));
    };
    if let Some(dir) = &state.state_dir {
        // The manifest drops the graph before memory does: when the write
        // fails, the graph stays served, as a restart would serve it.
        let mut kept = registry.list();
        kept.retain(|e| e.id != id);
        write_manifest(dir, &kept)
            .map_err(|message| ServiceError::new(500, "persist_failed", message))?;
        if let Some(rel) = &entry.snapshot {
            // Best-effort: the manifest no longer references the snapshot,
            // so a leftover file is garbage, not a correctness problem.
            let _ = std::fs::remove_file(dir.join(rel));
        }
    }
    registry.remove(id);
    Ok(Response::json(200, &json!({ "deleted": id })))
}

/// Parsed `/v1/select` request.
struct SelectRequest {
    entry: Arc<GraphEntry>,
    algo: String,
    model: Model,
    eta: usize,
    eps: f64,
    batch: usize,
    seed: u64,
    theta_cap: Option<usize>,
    threads: Option<usize>,
    use_cache: bool,
}

impl SelectRequest {
    /// Cache key over every response-determining field. `threads` is
    /// deliberately absent: selections are bit-identical for every thread
    /// count (PR 2's contract), so all thread settings share one entry. The
    /// entry token pins the exact registered graph.
    fn cache_key(&self) -> String {
        format!(
            "{}#{}|{}|{:?}|eta={}|eps={}|batch={}|seed={}|cap={:?}",
            self.entry.id,
            self.entry.token,
            self.algo,
            self.model,
            self.eta,
            self.eps,
            self.batch,
            self.seed,
            self.theta_cap,
        )
    }
}

/// Parses a `/v1/select` body; `lookup` finds the registered graph.
fn parse_select(
    state: &ServiceState,
    body: &[u8],
    lookup: impl FnOnce(&str) -> Option<Arc<GraphEntry>>,
) -> Result<SelectRequest, ServiceError> {
    let v = json::parse_object(body)?;
    let entry = resolve_graph(&v, lookup)?;
    parse_select_fields(entry, &v, state.dispatch_workers)
}

/// Resolves the `"graph"` field with `lookup` — once per request for
/// `/v1/select`, once per *batch* for `/v1/select-batch`.
fn resolve_graph(
    v: &Value,
    lookup: impl FnOnce(&str) -> Option<Arc<GraphEntry>>,
) -> Result<Arc<GraphEntry>, ServiceError> {
    let graph_id = json::req_str(v, "graph")?;
    lookup(&graph_id).ok_or_else(|| {
        ServiceError::not_found(
            "unknown_graph",
            format!("graph {} is not registered", quoted(&graph_id)),
        )
    })
}

/// Parses every select field besides `"graph"` against an already-resolved
/// entry. Shared verbatim by the single and batch endpoints so their
/// validation (and therefore their responses) cannot drift. `"threads"` is
/// capped at `max_threads`.
fn parse_select_fields(
    entry: Arc<GraphEntry>,
    v: &Value,
    max_threads: usize,
) -> Result<SelectRequest, ServiceError> {
    let model: Model = json::opt_str(v, "model")?
        .unwrap_or_else(|| "ic".into())
        .parse()
        .map_err(|e: String| ServiceError::bad_request(e))?;
    let eps = json::opt_f64(v, "eps")?.unwrap_or(0.5);
    let seed = json::opt_u64(v, "seed")?.unwrap_or(42);
    let mut batch = json::opt_usize(v, "batch")?.unwrap_or(1);
    // Optional per-round mRR-set budget: interactive clients trade the
    // formal guarantee for a hard latency bound. Response-determining, so
    // it is part of the cache key.
    let theta_cap = json::opt_usize(v, "theta_cap")?;
    if theta_cap == Some(0) {
        return Err(ServiceError::bad_request("'theta_cap' must be at least 1"));
    }
    let threads = json::opt_usize(v, "threads")?;
    if threads == Some(0) {
        return Err(ServiceError::bad_request("'threads' must be at least 1"));
    }
    // Each sketch thread keeps node-count-sized scratch in the session for
    // good. Selections are identical for every thread count, so the cap
    // changes no body.
    let threads = threads.map(|t| t.min(max_threads));
    let use_cache = json::opt_bool(v, "cache")?.unwrap_or(true);

    // "asti" is the adaptive driver; "trim" / "trim-b" name the per-round
    // selector explicitly and constrain the batch size accordingly.
    let algo = json::opt_str(v, "algo")?.unwrap_or_else(|| "asti".into());
    match algo.as_str() {
        "asti" => {}
        "trim" => {
            if json::opt_usize(v, "batch")?.is_some_and(|b| b != 1) {
                return Err(ServiceError::bad_request(
                    "algo 'trim' selects one seed per round; use 'trim-b' with batch >= 2",
                ));
            }
            batch = 1;
        }
        "trim-b" => {
            if batch < 2 {
                return Err(ServiceError::bad_request(
                    "algo 'trim-b' needs batch >= 2 (got or defaulted to 1)",
                ));
            }
        }
        other => {
            return Err(ServiceError::bad_request(format!(
                "unknown algo {} (asti | trim | trim-b)",
                quoted(other)
            )))
        }
    }

    let n = entry.graph.n();
    let eta = match (json::opt_usize(v, "eta")?, json::opt_f64(v, "eta_frac")?) {
        (Some(e), None) => e,
        (None, Some(frac)) => eta_of_fraction(n, frac)
            .map_err(|e| ServiceError::bad_request(format!("'eta_frac' {e}")))?,
        (Some(_), Some(_)) => {
            return Err(ServiceError::bad_request(
                "give 'eta' or 'eta_frac', not both",
            ))
        }
        (None, None) => {
            return Err(ServiceError::bad_request(
                "missing required field 'eta' (or 'eta_frac')",
            ))
        }
    };

    Ok(SelectRequest {
        entry,
        algo,
        model,
        eta,
        eps,
        batch,
        seed,
        theta_cap,
        threads,
        use_cache,
    })
}

/// Runs one parsed select item on a caller-provided session, adds the
/// run's work to `work`, and returns the serialized response body. This is
/// the single compute path behind both `/v1/select` and
/// `/v1/select-batch`, so their bytes cannot drift.
fn compute_select_body(
    req: &SelectRequest,
    session: &mut AstiSession,
    stages: &mut StageMicrosLine,
    work: &mut WorkTotals,
) -> Result<Vec<u8>, ServiceError> {
    let g = &req.entry.graph;
    let mut world_rng = SmallRng::seed_from_u64(req.seed.wrapping_add(1000));
    let phi = Realization::sample(g, req.model, &mut world_rng);
    let mut oracle = RealizationOracle::new(g, phi);
    let mut rng = SmallRng::seed_from_u64(req.seed);
    let mut params = AstiParams::batched(req.eps, req.batch);
    // None defers to SMIN_THREADS (then available parallelism) at run time,
    // so the env override is honored per request, not at server start.
    params.trim.threads = req.threads;
    params.trim.theta_cap = req.theta_cap;

    let report = asti_in(
        g,
        req.model,
        req.eta,
        &params,
        &mut oracle,
        &mut rng,
        session,
    )?;
    work.add(&report);

    let rounds: Vec<Value> = report
        .rounds
        .iter()
        .map(|r| {
            json!({
                "seeds": r.seeds.clone(),
                "newly_activated": r.newly_activated,
                "eta_i": r.eta_i,
                "n_alive": r.n_alive,
                "sets_generated": r.sets_generated,
            })
        })
        .collect();
    let body_value = json!({
        "graph": req.entry.id.clone(),
        "algo": req.algo.clone(),
        "model": req.model.to_string(),
        "eta": req.eta,
        "eps": req.eps,
        "batch": req.batch,
        "seed": req.seed,
        "theta_cap": req.theta_cap,
        "seeds": report.seeds.clone(),
        "num_seeds": report.num_seeds(),
        "num_rounds": report.num_rounds(),
        "total_activated": report.total_activated,
        "reached": report.reached,
        "total_sets": report.total_sets,
        "rounds": rounds,
    });
    let _span = smin_obs::Span::enter(&mut stages.serialize);
    Ok(serde_json::to_string(&body_value).into_bytes())
}

/// Cache-aware execution of one item: hit → cached bytes, miss → compute
/// (and memoize) on the shared session, checked out from `entry` by the
/// first item that computes, adding its stage splits and work to `trace`.
/// Returns the body plus whether the cache answered.
fn run_select_item(
    state: &ServiceState,
    entry: &GraphEntry,
    req: &SelectRequest,
    session: &mut Option<AstiSession>,
    trace: &mut SelectTrace,
) -> Result<(Vec<u8>, bool), ServiceError> {
    let key = req.cache_key();
    if req.use_cache {
        if let Some(cached) = state.cache().get(&key) {
            record_select(&req.entry);
            return Ok((cached.to_vec(), true));
        }
    }
    let stages = &mut trace.micros;
    let session = session.get_or_insert_with(|| {
        let _span = smin_obs::Span::enter(&mut stages.checkout);
        entry.checkout_session()
    });
    let work = trace.work.get_or_insert_with(WorkTotals::default);
    let body = compute_select_body(req, session, stages, work)?;
    // The session accumulated sketch/coverage splits while `asti_in` ran
    // (reset at its entry); fold them in here, once per computed item.
    let sm = session.stage_micros();
    stages.sketch = stages.sketch.saturating_add(sm.sketch);
    stages.coverage = stages.coverage.saturating_add(sm.coverage);
    record_select(&req.entry);
    if req.use_cache {
        state
            .cache()
            .insert(key, Arc::from(body.clone().into_boxed_slice()));
    }
    Ok((body, false))
}

/// Runs parsed select items against one warm-session checkout: the path
/// behind both `/v1/select` (one item) and `/v1/select-batch`. Returns
/// every item's body and the `X-Cache` value — HIT, MISS, or BYPASS
/// (`"cache": false`) per item, collapsed to one value when every item
/// agrees and MIXED otherwise, so opting out of the cache is never
/// reported as a miss. The first failing item's error goes through
/// `item_err` with the item's index.
fn run_items(
    state: &ServiceState,
    entry: &GraphEntry,
    reqs: &[SelectRequest],
    trace: &mut SelectTrace,
    item_err: impl Fn(usize, ServiceError) -> ServiceError,
) -> Result<(Vec<Vec<u8>>, &'static str), ServiceError> {
    // One warm session serves every item that computes — the amortization
    // the batch endpoint exists for. Items the cache answers need none, so
    // a request answered whole from the cache checks nothing out. Session
    // reuse never changes results.
    let mut session = None;
    let ran: Result<Vec<(Vec<u8>, bool)>, ServiceError> = reqs
        .iter()
        .enumerate()
        .map(|(i, req)| {
            run_select_item(state, entry, req, &mut session, trace).map_err(|e| item_err(i, e))
        })
        .collect();
    if let Some(session) = session {
        entry.checkin_session(session);
    }
    let ran = ran?;
    let hits = ran.iter().filter(|(_, hit)| *hit).count();
    let bypassed = reqs.iter().filter(|r| !r.use_cache).count();
    let cache = match (hits, bypassed) {
        (_, b) if b == reqs.len() => "BYPASS",
        (0, 0) => "MISS",
        (h, 0) if h == reqs.len() => "HIT",
        _ => "MIXED",
    };
    Ok((ran.into_iter().map(|(body, _)| body).collect(), cache))
}

/// The 200 both select endpoints send: attaches `X-Cache`,
/// `X-Select-Micros` (measured from `started`) and, when the request asked,
/// `X-Stage-Micros`. Timing travels in headers, never bodies, so
/// instrumentation cannot perturb the byte-identity contract.
fn select_response(
    http_req: &Request,
    body: Vec<u8>,
    cache: &str,
    started: Instant,
    stages: &StageMicrosLine,
) -> Response {
    let mut resp = Response {
        status: 200,
        headers: Vec::new(),
        body,
    }
    .with_header("X-Cache", cache)
    .with_header("X-Select-Micros", started.elapsed().as_micros().to_string());
    if http_req.header("x-stage-micros").is_some() {
        resp = resp.with_header("X-Stage-Micros", format_stage_header(stages));
    }
    resp
}

/// Folds one request's stage splits into the exposition histograms.
fn observe_stages(m: &ServiceMetrics, s: &StageMicrosLine) {
    m.stage_resolve_micros.observe(s.resolve);
    m.stage_checkout_micros.observe(s.checkout);
    m.stage_sketch_micros.observe(s.sketch);
    m.stage_coverage_micros.observe(s.coverage);
    m.stage_serialize_micros.observe(s.serialize);
}

/// The opt-in `X-Stage-Micros` response header value.
fn format_stage_header(s: &StageMicrosLine) -> String {
    format!(
        "resolve={};checkout={};sketch={};coverage={};serialize={}",
        s.resolve, s.checkout, s.sketch, s.coverage, s.serialize
    )
}

/// `POST /v1/select`
///
/// Runs the adaptive campaign against a world sampled from `seed` (the same
/// convention as `asm run`: world RNG stream `seed + 1000`, algorithm RNG
/// stream `seed`), on a session recycled from the graph's warm shelf: a
/// batch of one, answered with the item's body unwrapped.
fn select(
    state: &ServiceState,
    http_req: &Request,
    traced: &mut Option<SelectTrace>,
) -> Result<Response, ServiceError> {
    let (req, started, micros) =
        resolve_select(state, &http_req.body, |id| state.registry().get(id))?;
    let mut trace = SelectTrace { micros, work: None };
    let (mut bodies, cache) = run_items(
        state,
        &req.entry,
        std::slice::from_ref(&req),
        &mut trace,
        |_, e| e,
    )?;
    let body = bodies.pop().unwrap_or_default();
    *traced = Some(trace);
    Ok(select_response(
        http_req,
        body,
        cache,
        started,
        &trace.micros,
    ))
}

/// Parses a `/v1/select` body under the resolve span, then starts the
/// single-select clock. That clock starts after resolve, the batch clock
/// before it: clients that rebuild handler time from the headers rely on
/// this.
fn resolve_select(
    state: &ServiceState,
    body: &[u8],
    lookup: impl FnOnce(&str) -> Option<Arc<GraphEntry>>,
) -> Result<(SelectRequest, Instant, StageMicrosLine), ServiceError> {
    let mut stages = StageMicrosLine::default();
    let req = {
        let _span = smin_obs::Span::enter(&mut stages.resolve);
        parse_select(state, body, lookup)
    }?;
    // smin-lint: allow(no-wall-clock) -- feeds the X-Select-Micros header only; bodies stay bit-identical
    let started = Instant::now();
    Ok((req, started, stages))
}

/// `POST /v1/select-batch`
///
/// `{"graph": id, "items": [{…select fields…}, …]}` — runs every item
/// against one graph resolution and one warm-session checkout. The
/// response is assembled by byte-concatenating the exact bodies the items
/// would receive from `/v1/select`, so each `results` element is pinned
/// byte-identical to its sequential counterpart. Any failing item fails
/// the whole batch with its error, prefixed by the item index.
fn select_batch(
    state: &ServiceState,
    http_req: &Request,
    traced: &mut Option<SelectTrace>,
) -> Result<Response, ServiceError> {
    let mut trace = SelectTrace::default();
    let v = json::parse_object(&http_req.body)?;
    // smin-lint: allow(no-wall-clock) -- feeds the X-Select-Micros header only; bodies stay bit-identical
    let started = Instant::now();
    let entry = {
        let _span = smin_obs::Span::enter(&mut trace.micros.resolve);
        resolve_graph(&v, |id| state.registry().get(id))
    }?;
    let items = match json::field(&v, "items") {
        Some(Value::Array(items)) => items,
        Some(_) => {
            return Err(ServiceError::bad_request(
                "field 'items' must be an array of select objects",
            ))
        }
        None => return Err(ServiceError::bad_request("missing required field 'items'")),
    };
    if items.is_empty() {
        return Err(ServiceError::bad_request("'items' must not be empty"));
    }

    let item_err = |i: usize, e: ServiceError| {
        ServiceError::new(e.status, e.code, format!("items[{i}]: {}", e.message))
    };
    // Parse every item up front: a batch with a malformed tail fails before
    // any compute is spent.
    let mut reqs = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        if !matches!(item, Value::Object(_)) {
            return Err(ServiceError::bad_request(format!(
                "items[{i}]: each item must be an object"
            )));
        }
        if json::field(item, "graph").is_some() {
            return Err(ServiceError::bad_request(format!(
                "items[{i}]: 'graph' belongs at the batch's top level"
            )));
        }
        let req = parse_select_fields(Arc::clone(&entry), item, state.dispatch_workers)
            .map_err(|e| item_err(i, e))?;
        reqs.push(req);
    }
    let (results, cache) = run_items(state, &entry, &reqs, &mut trace, item_err)?;

    // Assembled by concatenation, not re-serialization: the item bodies
    // land in `results` byte-for-byte.
    let graph_json = serde_json::to_string(&json!(entry.id.as_str()));
    let mut body = Vec::new();
    body.extend_from_slice(b"{\"graph\":");
    body.extend_from_slice(graph_json.as_bytes());
    body.extend_from_slice(format!(",\"count\":{}", results.len()).as_bytes());
    body.extend_from_slice(b",\"results\":[");
    for (i, item_body) in results.iter().enumerate() {
        if i > 0 {
            body.push(b',');
        }
        body.extend_from_slice(item_body);
    }
    body.extend_from_slice(b"]}");
    *traced = Some(trace);
    Ok(select_response(
        http_req,
        body,
        cache,
        started,
        &trace.micros,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServiceState {
        ServiceState::new(None, 64)
    }

    fn post(state: &ServiceState, path: &str, body: &str) -> Response {
        let req = Request {
            method: "POST".into(),
            path: path.into(),
            version: "HTTP/1.1".into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        handle(state, &req, None)
    }

    fn get(state: &ServiceState, path: &str) -> Response {
        let req = Request {
            method: "GET".into(),
            path: path.into(),
            version: "HTTP/1.1".into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        handle(state, &req, None)
    }

    fn body_str(resp: &Response) -> String {
        String::from_utf8(resp.body.clone()).unwrap()
    }

    fn register_er(state: &ServiceState, id: &str, n: usize) {
        let resp = post(
            state,
            "/v1/graphs",
            &format!(
                r#"{{"id":"{id}","generate":{{"kind":"er","n":{n},"m":{},"seed":1}}}}"#,
                n * 3
            ),
        );
        assert_eq!(resp.status, 201, "{}", body_str(&resp));
    }

    #[test]
    fn healthz_reports_ok() {
        let s = state();
        let resp = get(&s, "/healthz");
        assert_eq!(resp.status, 200);
        assert!(body_str(&resp).contains("\"status\":\"ok\""));
    }

    #[test]
    fn unknown_route_is_structured_404() {
        let s = state();
        let resp = get(&s, "/nope");
        assert_eq!(resp.status, 404);
        assert!(body_str(&resp).contains("unknown_route"));
    }

    #[test]
    fn wrong_method_is_405() {
        let s = state();
        let resp = post(&s, "/healthz", "{}");
        assert_eq!(resp.status, 405);
        assert!(body_str(&resp).contains("method_not_allowed"));
    }

    #[test]
    fn register_list_delete_roundtrip() {
        let s = state();
        register_er(&s, "web", 50);
        let listing = body_str(&get(&s, "/v1/graphs"));
        assert!(listing.contains("\"id\":\"web\""), "{listing}");
        assert!(listing.contains("\"source\":\"generated:er\""));

        let req = Request {
            method: "DELETE".into(),
            path: "/v1/graphs/web".into(),
            version: "HTTP/1.1".into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        let resp = handle(&s, &req, None);
        assert_eq!(resp.status, 200);
        let resp = handle(&s, &req, None);
        assert_eq!(resp.status, 404, "second delete is a 404");
    }

    #[test]
    fn register_requires_exactly_one_source() {
        let s = state();
        let resp = post(&s, "/v1/graphs", r#"{"id":"x"}"#);
        assert_eq!(resp.status, 400);
        let resp = post(
            &s,
            "/v1/graphs",
            r#"{"path":"a.txt","generate":{"kind":"er","n":5}}"#,
        );
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn path_loads_need_graphs_dir_and_reject_traversal() {
        let s = state(); // graphs_dir: None
        let resp = post(&s, "/v1/graphs", r#"{"path":"a.txt"}"#);
        assert_eq!(resp.status, 400);
        assert!(body_str(&resp).contains("--graphs-dir"));

        let dir = std::env::temp_dir().join("smin_service_graphs_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("tiny.txt"), "0 1 0.5\r\n# c\r\n1 2\r\n").unwrap();
        let s = ServiceState::new(Some(dir), 8);
        for bad in ["../etc/passwd", "/etc/passwd", ""] {
            let resp = post(&s, "/v1/graphs", &format!(r#"{{"path":"{bad}"}}"#));
            assert_eq!(resp.status, 400, "path {bad:?} must be rejected");
        }
        let resp = post(&s, "/v1/graphs", r#"{"id":"t","path":"tiny.txt"}"#);
        assert_eq!(resp.status, 201, "{}", body_str(&resp));
        assert!(body_str(&resp).contains("\"n\":3"));
        let resp = post(&s, "/v1/graphs", r#"{"path":"missing.txt"}"#);
        assert_eq!(resp.status, 400, "{}", body_str(&resp));
    }

    #[test]
    fn select_runs_and_is_deterministic_across_thread_counts() {
        let s = state();
        register_er(&s, "g", 120);
        let base = post(
            &s,
            "/v1/select",
            r#"{"graph":"g","eta":30,"seed":7,"threads":1,"cache":false}"#,
        );
        assert_eq!(base.status, 200, "{}", body_str(&base));
        let text = body_str(&base);
        assert!(text.contains("\"reached\":true"), "{text}");
        assert!(text.contains("\"seeds\":["));
        for threads in [2, 4] {
            let resp = post(
                &s,
                "/v1/select",
                &format!(r#"{{"graph":"g","eta":30,"seed":7,"threads":{threads},"cache":false}}"#),
            );
            assert_eq!(resp.body, base.body, "threads={threads} diverged");
        }
    }

    #[test]
    fn select_cache_hits_on_repeat() {
        let s = state();
        register_er(&s, "g", 80);
        let first = post(&s, "/v1/select", r#"{"graph":"g","eta":20,"seed":3}"#);
        assert_eq!(first.status, 200);
        let cache_of = |r: &Response| {
            r.headers
                .iter()
                .find(|(k, _)| k == "X-Cache")
                .map(|(_, v)| v.clone())
        };
        assert_eq!(cache_of(&first).as_deref(), Some("MISS"));
        let second = post(&s, "/v1/select", r#"{"graph":"g","eta":20,"seed":3}"#);
        assert_eq!(cache_of(&second).as_deref(), Some("HIT"));
        assert_eq!(second.body, first.body);
        let bypass = post(
            &s,
            "/v1/select",
            r#"{"graph":"g","eta":20,"seed":3,"cache":false}"#,
        );
        assert_eq!(cache_of(&bypass).as_deref(), Some("BYPASS"));
        assert_eq!(bypass.body, first.body, "bypass recomputes the same bytes");
    }

    #[test]
    fn batch_cache_header_distinguishes_bypass_from_miss() {
        let s = state();
        register_er(&s, "g", 80);
        let cache_of = |r: &Response| {
            r.headers
                .iter()
                .find(|(k, _)| k == "X-Cache")
                .map(|(_, v)| v.clone())
        };
        // Every item opting out of the cache reports BYPASS, mirroring
        // the single-select header — not MISS.
        let all_bypass = post(
            &s,
            "/v1/select-batch",
            r#"{"graph":"g","items":[{"eta":20,"seed":3,"cache":false},{"eta":25,"seed":4,"cache":false}]}"#,
        );
        assert_eq!(all_bypass.status, 200, "{}", body_str(&all_bypass));
        assert_eq!(cache_of(&all_bypass).as_deref(), Some("BYPASS"));
        // Cacheable items never seen before: MISS; the same batch again:
        // every item answered from the cache.
        let batch = r#"{"graph":"g","items":[{"eta":20,"seed":3},{"eta":25,"seed":4}]}"#;
        let all_miss = post(&s, "/v1/select-batch", batch);
        assert_eq!(cache_of(&all_miss).as_deref(), Some("MISS"));
        let all_hit = post(&s, "/v1/select-batch", batch);
        assert_eq!(cache_of(&all_hit).as_deref(), Some("HIT"));
        // A bypass item alongside cacheable ones: MIXED.
        let mixed = post(
            &s,
            "/v1/select-batch",
            r#"{"graph":"g","items":[{"eta":20,"seed":3},{"eta":25,"seed":4,"cache":false}]}"#,
        );
        assert_eq!(cache_of(&mixed).as_deref(), Some("MIXED"));
    }

    #[test]
    fn cache_key_excludes_threads_but_pins_token() {
        let s = state();
        register_er(&s, "g", 60);
        let a = post(&s, "/v1/select", r#"{"graph":"g","eta":15,"seed":1}"#);
        let with_threads = post(
            &s,
            "/v1/select",
            r#"{"graph":"g","eta":15,"seed":1,"threads":2}"#,
        );
        let cache_of = |r: &Response| {
            r.headers
                .iter()
                .find(|(k, _)| k == "X-Cache")
                .map(|(_, v)| v.clone())
        };
        assert_eq!(cache_of(&with_threads).as_deref(), Some("HIT"));
        assert_eq!(with_threads.body, a.body);

        let delete = Request {
            method: "DELETE".into(),
            path: "/v1/graphs/g".into(),
            version: "HTTP/1.1".into(),
            headers: Vec::new(),
            body: Vec::new(),
        };

        // Tokens are content checksums: re-registering the *identical* graph
        // under the same id keeps its token, so the cached response (which is
        // still correct for those bytes) keeps hitting.
        handle(&s, &delete, None);
        register_er(&s, "g", 60);
        let same = post(&s, "/v1/select", r#"{"graph":"g","eta":15,"seed":1}"#);
        assert_eq!(cache_of(&same).as_deref(), Some("HIT"));
        assert_eq!(same.body, a.body);

        // A *different* graph under the reused id changes the token: miss.
        handle(&s, &delete, None);
        let resp = post(
            &s,
            "/v1/graphs",
            r#"{"id":"g","generate":{"kind":"er","n":60,"m":180,"seed":2}}"#,
        );
        assert_eq!(resp.status, 201, "{}", body_str(&resp));
        let after = post(&s, "/v1/select", r#"{"graph":"g","eta":15,"seed":1}"#);
        assert_eq!(cache_of(&after).as_deref(), Some("MISS"));
    }

    #[test]
    fn select_reuses_warm_sessions() {
        let s = state();
        register_er(&s, "g", 60);
        post(
            &s,
            "/v1/select",
            r#"{"graph":"g","eta":15,"seed":1,"cache":false}"#,
        );
        let entry = s.registry().get("g").unwrap();
        assert_eq!(entry.warm_sessions(), 1, "session returned to the shelf");
        assert!(entry.warm_pool_bytes() > 0, "warm pool retains its buffers");
        post(
            &s,
            "/v1/select",
            r#"{"graph":"g","eta":15,"seed":2,"cache":false}"#,
        );
        assert_eq!(entry.warm_sessions(), 1, "same session recycled");
        assert_eq!(entry.selects.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn select_validates_inputs() {
        let s = state();
        register_er(&s, "g", 40);
        let cases = [
            (r#"{"eta":5}"#, 400, "graph"),
            (r#"{"graph":"nope","eta":5}"#, 404, "unknown_graph"),
            (r#"{"graph":"g"}"#, 400, "eta"),
            (r#"{"graph":"g","eta":5,"eta_frac":0.5}"#, 400, "not both"),
            (r#"{"graph":"g","eta_frac":-0.3}"#, 400, "eta_frac"),
            (r#"{"graph":"g","eta_frac":1.5}"#, 400, "eta_frac"),
            (r#"{"graph":"g","eta_frac":0}"#, 400, "eta_frac"),
            (r#"{"graph":"g","eta":5,"threads":0}"#, 400, "threads"),
            (r#"{"graph":"g","eta":5,"theta_cap":0}"#, 400, "theta_cap"),
            (
                r#"{"graph":"g","eta":5,"algo":"magic"}"#,
                400,
                "unknown algo",
            ),
            (
                r#"{"graph":"g","eta":5,"algo":"trim-b"}"#,
                400,
                "batch >= 2",
            ),
            (
                r#"{"graph":"g","eta":5,"algo":"trim","batch":4}"#,
                400,
                "trim",
            ),
            (r#"{"graph":"g","eta":5,"model":"percolation"}"#, 400, ""),
            (r#"{"graph":"g","eta":5,"eps":2.0}"#, 422, "invalid_eps"),
            (r#"{"graph":"g","eta":4000}"#, 422, "eta_out_of_range"),
            (r#"{"graph":"g","eta":0}"#, 422, "eta_out_of_range"),
        ];
        for (body, status, needle) in cases {
            let resp = post(&s, "/v1/select", body);
            assert_eq!(resp.status, status, "{body} -> {}", body_str(&resp));
            assert!(
                body_str(&resp).contains(needle),
                "{body}: expected {needle:?} in {}",
                body_str(&resp)
            );
        }
    }

    #[test]
    fn theta_cap_bounds_sets_and_splits_the_cache() {
        let s = state();
        register_er(&s, "g", 80);
        let capped = post(
            &s,
            "/v1/select",
            r#"{"graph":"g","eta":20,"seed":3,"theta_cap":64}"#,
        );
        assert_eq!(capped.status, 200, "{}", body_str(&capped));
        assert!(body_str(&capped).contains("\"theta_cap\":64"));
        let uncapped = post(&s, "/v1/select", r#"{"graph":"g","eta":20,"seed":3}"#);
        let cache_of = |r: &Response| {
            r.headers
                .iter()
                .find(|(k, _)| k == "X-Cache")
                .map(|(_, v)| v.clone())
        };
        assert_eq!(
            cache_of(&uncapped).as_deref(),
            Some("MISS"),
            "different theta_cap must not share a cache entry"
        );
        assert!(body_str(&uncapped).contains("\"theta_cap\":null"));
    }

    #[test]
    fn trim_b_and_eta_frac_work() {
        let s = state();
        register_er(&s, "g", 100);
        let resp = post(
            &s,
            "/v1/select",
            r#"{"graph":"g","eta_frac":0.2,"algo":"trim-b","batch":4,"seed":2}"#,
        );
        assert_eq!(resp.status, 200, "{}", body_str(&resp));
        let text = body_str(&resp);
        assert!(text.contains("\"eta\":20"), "{text}");
        assert!(text.contains("\"algo\":\"trim-b\""));
        assert!(text.contains("\"batch\":4"));
    }

    /// One body per generator precondition, each a 400 naming the
    /// parameter; the generators would assert on every one of them, and
    /// Chung–Lu's rejection sampling stalls on the last.
    #[test]
    fn generator_preconditions_are_400s() {
        let s = state();
        let cases = [
            // ER and Chung–Lu: n >= 2 and m <= n(n-1); the default m = 5n
            // exceeds n(n-1) on small n
            (r#"{"kind":"er","n":1}"#, "'n' must be at least 2"),
            (r#"{"kind":"er","n":3}"#, "'m' = 15 exceeds"),
            (r#"{"kind":"er","n":3,"m":100}"#, "'m' = 100 exceeds"),
            (r#"{"kind":"chung-lu","n":1}"#, "'n' must be at least 2"),
            (r#"{"kind":"chung-lu","n":4,"m":13}"#, "'m' = 13 exceeds"),
            (r#"{"kind":"chung-lu","n":50,"gamma":1.0}"#, "'gamma'"),
            (r#"{"kind":"chung-lu","n":50,"gamma":-3}"#, "'gamma'"),
            // Passes every check, then stalls the rejection sampling
            (
                r#"{"kind":"chung-lu","n":100,"m":5000,"gamma":1.01}"#,
                "too dense for Chung–Lu",
            ),
            // BA: 1 <= attach < n
            (r#"{"kind":"ba","n":3}"#, "'attach'"),
            (r#"{"kind":"ba","n":30,"attach":0}"#, "'attach'"),
            (r#"{"kind":"ba","n":5,"attach":5}"#, "'attach'"),
            // WS: k even, k >= 2, n > k, beta in [0, 1]
            (r#"{"kind":"ws","n":5}"#, "'n' must exceed 'k'"),
            (r#"{"kind":"ws","n":30,"k":3}"#, "'k'"),
            (r#"{"kind":"ws","n":30,"k":0}"#, "'k'"),
            (r#"{"kind":"ws","n":30,"beta":1.5}"#, "'beta'"),
            (r#"{"kind":"ws","n":30,"beta":-0.1}"#, "'beta'"),
            // Size ceilings, each checked before anything is allocated
            (
                r#"{"kind":"er","n":1000001,"m":2}"#,
                "'n' = 1000001 exceeds the ceiling",
            ),
            (
                r#"{"kind":"ws","n":1099511627776}"#,
                "'n' = 1099511627776 exceeds",
            ),
            (
                r#"{"kind":"er","n":100000,"m":4000000000}"#,
                "'m' asks for 4000000000",
            ),
            (
                r#"{"kind":"chung-lu","n":100000,"m":10000001}"#,
                "'m' asks for 10000001",
            ),
            (
                r#"{"kind":"ba","n":1000000,"attach":6}"#,
                "'attach' asks for 12000000",
            ),
            (
                r#"{"kind":"ws","n":1000000,"k":12}"#,
                "'k' asks for 12000000",
            ),
        ];
        for (spec, needle) in cases {
            let resp = post(&s, "/v1/graphs", &format!(r#"{{"generate":{spec}}}"#));
            assert_eq!(resp.status, 400, "{spec} -> {}", body_str(&resp));
            assert!(
                body_str(&resp).contains(needle),
                "{spec}: expected {needle:?} in {}",
                body_str(&resp)
            );
        }
        // the boundary values themselves are accepted
        for spec in [
            r#"{"kind":"er","n":3,"m":6}"#,
            r#"{"kind":"chung-lu","n":40,"m":80,"gamma":1.5}"#,
            r#"{"kind":"ba","n":3,"attach":2}"#,
            r#"{"kind":"ws","n":3,"k":2,"beta":1.0}"#,
        ] {
            let resp = post(&s, "/v1/graphs", &format!(r#"{{"generate":{spec}}}"#));
            assert_eq!(resp.status, 201, "{spec} -> {}", body_str(&resp));
        }
    }

    /// `"threads"` beyond the dispatch pool is capped at it: the parsed
    /// request carries the cap, and the body equals a one-thread select's.
    #[test]
    fn select_threads_are_capped_at_the_dispatch_workers() {
        let mut s = state();
        s.set_dispatch_workers(2);
        register_er(&s, "g", 120);
        let huge = r#"{"graph":"g","eta":30,"seed":7,"threads":1000000,"cache":false}"#;
        let req = parse_select(&s, huge.as_bytes(), |id| s.registry().get(id)).unwrap();
        assert_eq!(req.threads, Some(2));
        let one = post(
            &s,
            "/v1/select",
            r#"{"graph":"g","eta":30,"seed":7,"threads":1,"cache":false}"#,
        );
        assert_eq!(one.status, 200, "{}", body_str(&one));
        let resp = post(&s, "/v1/select", huge);
        assert_eq!(resp.status, 200, "{}", body_str(&resp));
        assert_eq!(resp.body, one.body);
        let batch = post(
            &s,
            "/v1/select-batch",
            r#"{"graph":"g","items":[{"eta":30,"seed":7,"threads":1000000,"cache":false}]}"#,
        );
        assert_eq!(batch.status, 200, "{}", body_str(&batch));
        assert!(body_str(&batch).contains(&body_str(&one)));
    }

    #[test]
    fn generator_validation() {
        let s = state();
        let resp = post(&s, "/v1/graphs", r#"{"generate":{"kind":"magic","n":10}}"#);
        assert_eq!(resp.status, 400);
        let resp = post(&s, "/v1/graphs", r#"{"generate":{"kind":"er","n":0}}"#);
        assert_eq!(resp.status, 400);
        let resp = post(&s, "/v1/graphs", r#"{"generate":{"kind":"er"}}"#);
        assert_eq!(resp.status, 400);
        // A uniform probability outside (0, 1] is the client's error, not
        // the weighting's assertion turned into a 500.
        for p in ["2", "0", "NaN"] {
            let body = format!(r#"{{"generate":{{"kind":"ba","n":30,"weights":"uniform:{p}"}}}}"#);
            let resp = post(&s, "/v1/graphs", &body);
            assert_eq!(resp.status, 400, "uniform:{p} -> {}", body_str(&resp));
            assert!(
                body_str(&resp).contains("bad_request"),
                "{}",
                body_str(&resp)
            );
            assert!(body_str(&resp).contains("(0, 1]"), "{}", body_str(&resp));
        }
        let resp = post(
            &s,
            "/v1/graphs",
            r#"{"generate":{"kind":"ba","n":30,"attach":2,"weights":"uniform:0.2"}}"#,
        );
        assert_eq!(resp.status, 201, "{}", body_str(&resp));
    }

    #[test]
    fn state_dir_persists_and_restores() {
        let dir = std::env::temp_dir().join("smin_routes_state_dir");
        let _ = std::fs::remove_dir_all(&dir);

        let s = ServiceState::with_state_dir(None, 8, Some(dir.clone())).unwrap();
        register_er(&s, "web", 40);
        let token = s.registry().get("web").unwrap().token;
        assert!(dir.join("graphs").join("web.smg").exists());
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest.contains("\"id\":\"web\""), "{manifest}");
        assert!(manifest.contains(&format!("{token:016x}")), "{manifest}");
        drop(s);

        // A fresh process over the same state dir serves the graph warm.
        let s = ServiceState::with_state_dir(None, 8, Some(dir.clone())).unwrap();
        let entry = s.registry().get("web").unwrap();
        assert_eq!(entry.token, token, "token survives the restart");
        assert_eq!(entry.source, "generated:er");
        assert_eq!(entry.snapshot.as_deref(), Some("graphs/web.smg"));
        let resp = post(
            &s,
            "/v1/graphs",
            r#"{"id":"web","generate":{"kind":"er","n":40,"m":120,"seed":1}}"#,
        );
        assert_eq!(resp.status, 409, "restored graphs defend their ids");

        // Deleting removes the snapshot and the manifest entry.
        let req = Request {
            method: "DELETE".into(),
            path: "/v1/graphs/web".into(),
            version: "HTTP/1.1".into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(handle(&s, &req, None).status, 200);
        assert!(!dir.join("graphs").join("web.smg").exists());
        drop(s);
        let s = ServiceState::with_state_dir(None, 8, Some(dir.clone())).unwrap();
        assert!(s.registry().is_empty(), "deleted graph must not resurrect");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_snapshot_fails_the_boot() {
        let dir = std::env::temp_dir().join("smin_routes_state_dir_corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let s = ServiceState::with_state_dir(None, 8, Some(dir.clone())).unwrap();
        register_er(&s, "web", 30);
        drop(s);

        let snap = dir.join("graphs").join("web.smg");
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&snap, bytes).unwrap();
        let err = ServiceState::with_state_dir(None, 8, Some(dir.clone()))
            .err()
            .expect("boot over damaged state must fail");
        assert!(err.contains("web"), "error names the graph: {err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn boot_ignores_the_leftovers_of_a_crashed_write() {
        // A crash mid-write leaves files beside the committed state that
        // nothing reads: a garbage manifest tmp, a half-written snapshot
        // tmp, and a valid snapshot the manifest does not name (a crash
        // between a registration's two renames). The boot restores exactly
        // the manifest's graphs and removes all three, and registrations
        // over the leftovers' ids succeed and leave no tmp behind.
        let dir = std::env::temp_dir().join("smin_routes_state_dir_crash");
        let _ = std::fs::remove_dir_all(&dir);
        let s = ServiceState::with_state_dir(None, 8, Some(dir.clone())).unwrap();
        register_er(&s, "web", 30);
        let token = s.registry().get("web").unwrap().token;
        drop(s);

        let graphs = dir.join("graphs");
        let snap = std::fs::read(graphs.join("web.smg")).unwrap();
        std::fs::write(dir.join("manifest.json.tmp"), r#"{"version":1,"gra"#).unwrap();
        std::fs::write(graphs.join("x.smg.tmp"), &snap[..snap.len() / 2]).unwrap();
        std::fs::write(graphs.join("orphan.smg"), &snap).unwrap();
        let ids = |s: &ServiceState| -> Vec<String> {
            s.registry().list().iter().map(|e| e.id.clone()).collect()
        };

        let s = ServiceState::with_state_dir(None, 8, Some(dir.clone())).unwrap();
        assert_eq!(ids(&s), ["web"]);
        assert_eq!(s.registry().get("web").unwrap().token, token);
        assert!(!graphs.join("orphan.smg").exists());
        assert!(!graphs.join("x.smg.tmp").exists());
        assert!(!dir.join("manifest.json.tmp").exists());
        assert!(graphs.join("web.smg").exists());
        register_er(&s, "x", 20);
        register_er(&s, "orphan", 25);
        assert!(!graphs.join("x.smg.tmp").exists());
        assert!(!dir.join("manifest.json.tmp").exists());
        drop(s);

        let s = ServiceState::with_state_dir(None, 8, Some(dir.clone())).unwrap();
        assert_eq!(ids(&s), ["orphan", "web", "x"]);
        assert_eq!(s.registry().get("orphan").unwrap().graph.n(), 25);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_rejects_traversal_paths() {
        let dir = std::env::temp_dir().join("smin_routes_state_dir_traversal");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("manifest.json"),
            r#"{"version":1,"graphs":[{"id":"g","file":"../../etc/passwd","checksum":"0","source":"s"}]}"#,
        )
        .unwrap();
        let err = ServiceState::with_state_dir(None, 8, Some(dir.clone()))
            .err()
            .expect("boot over damaged state must fail");
        assert!(err.contains("unsafe file path"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_endpoint_is_byte_stable_between_scrapes() {
        let s = state();
        register_er(&s, "g", 60);
        post(&s, "/v1/select", r#"{"graph":"g","eta":15,"seed":1}"#);
        let first = get(&s, "/metrics");
        assert_eq!(first.status, 200);
        assert_eq!(
            first.headers.iter().find(|(k, _)| k == "Content-Type"),
            Some(&(
                "Content-Type".to_string(),
                "text/plain; version=0.0.4".to_string()
            ))
        );
        // A scrape mutates nothing, so a second scrape with no intervening
        // traffic returns the exact same bytes.
        let second = get(&s, "/metrics");
        assert_eq!(second.body, first.body, "scrapes must not perturb metrics");
        let text = body_str(&first);
        assert!(text.contains("smin_http_requests_total{route=\"select\"} 1\n"));
        assert!(text.contains("smin_graph_selects_total{graph=\"g\"} 1\n"));
        assert!(text.contains("smin_select_stage_micros_count{stage=\"coverage\"} 1\n"));
        assert!(text.contains("smin_cache_lookups_total{outcome=\"miss\"} 1\n"));
        // Wrong method on /metrics is a structured 405, like every route.
        assert_eq!(post(&s, "/metrics", "{}").status, 405);
    }

    #[test]
    fn stage_micros_header_is_opt_in_and_never_changes_bodies() {
        let s = state();
        register_er(&s, "g", 60);
        let body = r#"{"graph":"g","eta":15,"seed":1,"cache":false}"#;
        let plain = post(&s, "/v1/select", body);
        assert!(
            !plain.headers.iter().any(|(k, _)| k == "X-Stage-Micros"),
            "header only appears when requested"
        );
        let req = Request {
            method: "POST".into(),
            path: "/v1/select".into(),
            version: "HTTP/1.1".into(),
            headers: vec![("x-stage-micros".into(), "1".into())],
            body: body.as_bytes().to_vec(),
        };
        let traced = handle(&s, &req, None);
        let header = traced
            .headers
            .iter()
            .find(|(k, _)| k == "X-Stage-Micros")
            .map(|(_, v)| v.clone())
            .expect("opt-in header present");
        for stage in [
            "resolve=",
            "checkout=",
            "sketch=",
            "coverage=",
            "serialize=",
        ] {
            assert!(header.contains(stage), "{header}");
        }
        assert_eq!(
            traced.body, plain.body,
            "timing lives in headers, never bodies"
        );
    }

    #[test]
    fn trace_deadline_remaining_counts_queue_wait() {
        let path = std::env::temp_dir().join("smin_routes_trace_queue_wait.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut s = state();
        s.set_trace(TraceLog::open(&path).unwrap());
        let req = Request {
            method: "GET".into(),
            path: "/healthz".into(),
            version: "HTTP/1.1".into(),
            headers: vec![("X-Deadline-Millis".into(), "50".into())],
            body: Vec::new(),
        };
        // 40 of the 50 ms went by in the dispatch queue.
        let since = Instant::now() - std::time::Duration::from_millis(40);
        let deadline = Deadline { ms: 50, since };
        assert_eq!(handle(&s, &req, Some(deadline)).status, 200);
        drop(s); // closes the trace channel; the writer flushes and exits
        let mut text = String::new();
        for _ in 0..200 {
            text = std::fs::read_to_string(&path).unwrap_or_default();
            if !text.is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let line: Value = serde_json::from_str(text.trim_end()).expect("one trace line");
        let remaining = match json::field(&line, "deadline_remaining_ms") {
            Some(Value::Number(ms)) => *ms,
            other => panic!("deadline_remaining_ms: {other:?}"),
        };
        assert!(remaining <= 10.0, "queue wait not counted: {text}");
        std::fs::remove_file(&path).ok();
    }

    /// A batch's trace line sums the work of the items it computed: all
    /// of them on a miss, none on an all-hit batch (`null`), and only the
    /// bypassing item beside a hit.
    #[test]
    fn trace_work_sums_the_computed_items_of_a_batch() {
        let path = std::env::temp_dir().join("smin_routes_trace_batch_work.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut s = state();
        s.set_trace(TraceLog::open(&path).unwrap());
        register_er(&s, "g", 80);
        let total_sets = |resp: &Response| -> Vec<f64> {
            let v = json::parse_object(&resp.body).unwrap();
            let Some(Value::Array(items)) = json::field(&v, "results") else {
                panic!("results: {}", body_str(resp));
            };
            items
                .iter()
                .map(|item| match json::field(item, "total_sets") {
                    Some(Value::Number(n)) => *n,
                    other => panic!("total_sets: {other:?}"),
                })
                .collect()
        };
        let batch = r#"{"graph":"g","items":[{"eta":20,"seed":3},{"eta":25,"seed":4}]}"#;
        let miss = total_sets(&post(&s, "/v1/select-batch", batch));
        assert_eq!(total_sets(&post(&s, "/v1/select-batch", batch)), miss);
        let mixed =
            r#"{"graph":"g","items":[{"eta":20,"seed":3},{"eta":25,"seed":5,"cache":false}]}"#;
        let mixed = total_sets(&post(&s, "/v1/select-batch", mixed));
        drop(s); // closes the trace channel; the writer flushes and exits
        let mut text = String::new();
        for _ in 0..200 {
            text = std::fs::read_to_string(&path).unwrap_or_default();
            if text.lines().count() >= 4 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let lines: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("trace line parses"))
            .collect();
        assert_eq!(lines.len(), 4, "{text}");
        // `json::field` reads a null as absent.
        let sets = |line: &Value| {
            json::field(line, "work").map(|work| match json::field(work, "sets") {
                Some(Value::Number(n)) => *n,
                other => panic!("work.sets: {other:?}"),
            })
        };
        assert_eq!(text.matches("\"work\":").count(), 4, "{text}");
        assert_eq!(sets(&lines[0]), None, "registration");
        assert_eq!(sets(&lines[1]), Some(miss[0] + miss[1]));
        assert_eq!(sets(&lines[2]), None, "every item hit");
        assert_eq!(sets(&lines[3]), Some(mixed[1]), "only the bypass computed");
        std::fs::remove_file(&path).ok();
    }

    fn select_request(body: &str, headers: &[(&str, &str)]) -> Request {
        Request {
            method: "POST".into(),
            path: "/v1/select".into(),
            version: "HTTP/1.1".into(),
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn header<'r>(resp: &'r Response, name: &str) -> Option<&'r str> {
        resp.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The `/metrics` lines that do not depend on timing: everything but
    /// the stage histograms' buckets and sums.
    fn counters(s: &ServiceState) -> Vec<String> {
        body_str(&get(s, "/metrics"))
            .lines()
            .filter(|l| {
                !l.starts_with("smin_select_stage_micros_bucket")
                    && !l.starts_with("smin_select_stage_micros_sum")
            })
            .map(str::to_string)
            .collect()
    }

    /// A hit answered by the probe carries the body, headers, counters and
    /// stage histogram counts a dispatch worker's answer carries.
    #[test]
    fn probe_answers_a_hit_like_a_worker() {
        let body = r#"{"graph":"g","eta":15,"seed":1}"#;
        let req = select_request(body, &[("x-stage-micros", "1")]);
        let warm = |s: &ServiceState| {
            register_er(s, "g", 60);
            let first = post(s, "/v1/select", body);
            assert_eq!(header(&first, "X-Cache"), Some("MISS"));
            first
        };
        let (worker, probe) = (state(), state());
        let first = warm(&worker);
        assert_eq!(warm(&probe).body, first.body);

        let by_worker = handle(&worker, &req, None);
        let by_probe = answer_cached(&probe, &req, None).expect("a cached body is answered");
        for resp in [&by_worker, &by_probe] {
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, first.body);
            assert_eq!(header(resp, "X-Cache"), Some("HIT"));
            assert!(header(resp, "X-Select-Micros").is_some());
            let stages = header(resp, "X-Stage-Micros").expect("opt-in header");
            assert!(
                stages.contains(";checkout=0;sketch=0;coverage=0;"),
                "{stages}"
            );
        }
        let names = |r: &Response| r.headers.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        assert_eq!(names(&by_probe), names(&by_worker));
        assert_eq!(counters(&probe), counters(&worker));
        let text = body_str(&get(&probe, "/metrics"));
        for line in [
            "smin_http_requests_total{route=\"select\"} 2\n",
            "smin_cache_lookups_total{outcome=\"hit\"} 1\n",
            "smin_cache_lookups_total{outcome=\"miss\"} 1\n",
            "smin_graph_selects_total{graph=\"g\"} 2\n",
            "smin_select_stage_micros_count{stage=\"checkout\"} 2\n",
        ] {
            assert!(text.contains(line), "{line}");
        }
    }

    /// The probe never waits for a lock: while either is held it declines
    /// and moves no counter, and once it is free it answers.
    #[test]
    fn probe_declines_while_a_lock_is_held() {
        let s = state();
        register_er(&s, "g", 60);
        let body = r#"{"graph":"g","eta":15,"seed":1}"#;
        let first = post(&s, "/v1/select", body);
        assert_eq!(first.status, 200, "{}", body_str(&first));
        let req = select_request(body, &[]);
        let before = get(&s, "/metrics").body;
        {
            let _held = s.registry();
            assert!(answer_cached(&s, &req, None).is_none(), "registry held");
        }
        {
            let _held = s.cache();
            assert!(answer_cached(&s, &req, None).is_none(), "cache held");
        }
        assert_eq!(get(&s, "/metrics").body, before, "a decline moves nothing");
        let resp = answer_cached(&s, &req, None).expect("answers once the locks are free");
        assert_eq!(header(&resp, "X-Cache"), Some("HIT"));
        assert_eq!(resp.body, first.body);
    }

    /// `GET /healthz` gets from the probe the body and counters a worker
    /// gives it, uptime aside, and a decline while either lock is held.
    #[test]
    fn probe_answers_healthz_like_a_worker() {
        let (worker, probe) = (state(), state());
        for s in [&worker, &probe] {
            register_er(s, "g", 60);
            assert_eq!(
                post(s, "/v1/select", r#"{"graph":"g","eta":15}"#).status,
                200
            );
        }
        let mut req = select_request("", &[]);
        (req.method, req.path) = ("GET".into(), "/healthz".into());
        {
            let _held = probe.registry();
            assert!(answer_cached(&probe, &req, None).is_none(), "registry held");
        }
        {
            let _held = probe.cache();
            assert!(answer_cached(&probe, &req, None).is_none(), "cache held");
        }
        let by_worker = handle(&worker, &req, None);
        let by_probe = answer_cached(&probe, &req, None).expect("the probe answers /healthz");
        let uptime_cut = |r: &Response| {
            let body = body_str(r);
            body[..body.find("\"uptime_s\"").expect("uptime field")].to_string()
        };
        assert_eq!(by_probe.status, 200);
        assert_eq!(uptime_cut(&by_probe), uptime_cut(&by_worker));
        assert!(uptime_cut(&by_probe).contains(r#""graphs":1,"cached_responses":1"#));
        assert_eq!(by_probe.headers, by_worker.headers);
        assert_eq!(counters(&probe), counters(&worker));
    }

    /// Everything but `/healthz` and a cached single select is left to a
    /// worker, and a decline moves no counter — a miss included, which the
    /// worker then counts once.
    #[test]
    fn probe_declines_what_a_worker_must_answer() {
        let s = state();
        register_er(&s, "g", 60);
        let cached = r#"{"graph":"g","eta":15,"seed":1}"#;
        assert_eq!(post(&s, "/v1/select", cached).status, 200);
        let before = get(&s, "/metrics").body;
        let padded = format!("{cached}{}", " ".repeat(MAX_LINE_BYTES));
        for body in [
            r#"{"graph":"g","eta":15,"seed":2}"#,               // a miss
            r#"{"graph":"g","eta":15,"seed":1,"cache":false}"#, // bypass
            r#"{"graph":"nope","eta":15,"seed":1}"#,
            r#"{"graph":"g","eta":15,"seed":1,"eps":"x"}"#,
            "not json",
            padded.as_str(), // a cached key, but too long to probe
        ] {
            assert!(
                answer_cached(&s, &select_request(body, &[]), None).is_none(),
                "{body}"
            );
        }
        let mut batch = select_request(r#"{"graph":"g","items":[{"eta":15,"seed":1}]}"#, &[]);
        batch.path = "/v1/select-batch".into();
        assert!(answer_cached(&s, &batch, None).is_none());
        let mut graphs = select_request("", &[]);
        (graphs.method, graphs.path) = ("GET".into(), "/v1/graphs".into());
        assert!(answer_cached(&s, &graphs, None).is_none());
        assert_eq!(get(&s, "/metrics").body, before, "a decline moves nothing");
        // The padded body still hits on a worker: only the probe skips it.
        let resp = handle(&s, &select_request(&padded, &[]), None);
        assert_eq!(header(&resp, "X-Cache"), Some("HIT"));
        let miss = post(&s, "/v1/select", r#"{"graph":"g","eta":15,"seed":2}"#);
        assert_eq!(header(&miss, "X-Cache"), Some("MISS"));
        assert_eq!(s.cache().stats(), (1, 2), "one lookup per request");
    }

    /// A request the cache answers whole checks out no session: with the
    /// graph's only warm session held elsewhere, cached items neither take
    /// a session nor build a cold one.
    #[test]
    fn cached_items_check_out_no_session() {
        let s = state();
        register_er(&s, "g", 80);
        let batch = r#"{"graph":"g","items":[{"eta":20,"seed":3},{"eta":25,"seed":4}]}"#;
        assert_eq!(post(&s, "/v1/select-batch", batch).status, 200);
        let entry = s.registry().get("g").unwrap();
        assert_eq!(entry.warm_sessions(), 1);
        let held = entry.checkout_session();
        let hit = post(&s, "/v1/select-batch", batch);
        assert_eq!(header(&hit, "X-Cache"), Some("HIT"));
        let single = post(&s, "/v1/select", r#"{"graph":"g","eta":20,"seed":3}"#);
        assert_eq!(header(&single, "X-Cache"), Some("HIT"));
        assert_eq!(entry.warm_sessions(), 0, "a hit checked a session in");
        entry.checkin_session(held);
        assert_eq!(entry.warm_sessions(), 1);
    }

    /// Integers are exact below 2^53 only: a seed of 2^53 + 1 used to
    /// answer with the body cached for 2^53.
    #[test]
    fn integer_fields_from_2_pow_53_are_400s() {
        let s = state();
        register_er(&s, "g", 40);
        let resp = post(
            &s,
            "/v1/select",
            r#"{"graph":"g","eta":10,"seed":9007199254740991}"#,
        );
        assert_eq!(resp.status, 200, "{}", body_str(&resp));
        for seed in [
            "9007199254740992",
            "9007199254740993",
            "18446744073709551615",
        ] {
            let resp = post(
                &s,
                "/v1/select",
                &format!(r#"{{"graph":"g","eta":10,"seed":{seed}}}"#),
            );
            assert_eq!(resp.status, 400, "seed {seed}: {}", body_str(&resp));
            assert!(body_str(&resp).contains("'seed'"), "{}", body_str(&resp));
        }
        let resp = post(&s, "/v1/graphs", r#"{"generate":{"kind":"er","n":1e30}}"#);
        assert_eq!(resp.status, 400, "{}", body_str(&resp));
        assert!(body_str(&resp).contains("'n'"), "{}", body_str(&resp));
    }

    /// A registration's id is checked before its graph is loaded: a taken
    /// id and a malformed one answer 409 and 400, not the missing file's
    /// 400, and an automatic id still loads.
    #[test]
    fn registration_checks_its_id_before_loading() {
        let dir = std::env::temp_dir().join("smin_service_id_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("tiny.txt"), "0 1 0.5\n1 2 0.5\n").unwrap();
        let s = ServiceState::new(Some(dir), 8);
        let resp = post(&s, "/v1/graphs", r#"{"id":"g1","path":"tiny.txt"}"#);
        assert_eq!(resp.status, 201, "{}", body_str(&resp));
        for (body, status, code) in [
            (r#"{"id":"g1","path":"missing.smg"}"#, 409, "graph_exists"),
            (r#"{"id":"a/b","path":"missing.smg"}"#, 400, "bad_request"),
            (r#"{"path":"missing.smg"}"#, 400, "graph_io_error"),
        ] {
            let resp = post(&s, "/v1/graphs", body);
            assert_eq!(resp.status, status, "{body}: {}", body_str(&resp));
            assert!(
                body_str(&resp).contains(code),
                "{body}: {}",
                body_str(&resp)
            );
        }
        let resp = post(&s, "/v1/graphs", r#"{"path":"tiny.txt"}"#);
        assert_eq!(resp.status, 201, "{}", body_str(&resp));
        assert!(
            body_str(&resp).contains("\"id\":\"g0\""),
            "{}",
            body_str(&resp)
        );
    }

    #[test]
    fn duplicate_registration_is_conflict() {
        let s = state();
        register_er(&s, "g", 20);
        let resp = post(
            &s,
            "/v1/graphs",
            r#"{"id":"g","generate":{"kind":"er","n":20}}"#,
        );
        assert_eq!(resp.status, 409);
        assert!(body_str(&resp).contains("graph_exists"));
    }
}
