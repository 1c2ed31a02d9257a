//! The cached-graph registry: graphs loaded once, served many times.
//!
//! Each registered graph owns a pool of warm [`AstiSession`]s — the
//! coverage counts, sketch pool, worker scratch, coverage engine, and
//! residual mask survive
//! between requests, so a select on a warm graph performs no cold
//! allocations. Sessions are checked out per request and checked back in
//! afterwards; concurrent requests against the same graph each get their
//! own session (a new one is built when the shelf is empty).

use crate::error::ServiceError;
use serde_json::{json, Value};
use smin_core::AstiSession;
use smin_graph::error::quoted;
use smin_graph::{store, Graph};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Longest graph id, in bytes. Under `--state-dir` an id names its snapshot
/// file, `graphs/{id}.smg` (`{id}.smg.tmp` while it is written), which must
/// fit the usual 255-byte file-name limit.
pub const MAX_ID_BYTES: usize = 128;

/// Warm sessions retained per graph; beyond this, returned sessions are
/// dropped. Matches the realistic concurrency of one worker pool — keeping
/// more would only hold dead pool memory.
const MAX_WARM_SESSIONS: usize = 16;

/// One registered graph plus its reusable per-request state.
pub struct GraphEntry {
    /// Registry key.
    pub id: String,
    /// Content checksum of the graph ([`store::content_checksum`]): pins the
    /// exact registered graph in response-cache keys, and is stable across
    /// restarts and machines — the same bytes always earn the same token, so
    /// a warm-restarted server keeps serving its memoized responses.
    pub token: u64,
    /// Where the graph came from (`generated:ba`, `file:web.txt`, …).
    pub source: String,
    /// State-dir-relative path of the persisted `.smg` snapshot, when the
    /// server runs with `--state-dir` (e.g. `graphs/web.smg`).
    pub snapshot: Option<String>,
    pub graph: Arc<Graph>,
    /// Shelf of warm sessions (LIFO: the most recently used — hottest —
    /// session is handed out first).
    sessions: Mutex<Vec<AstiSession>>,
    /// Total `/v1/select` requests served against this graph.
    pub selects: AtomicU64,
}

impl GraphEntry {
    /// Checks out a session: warm if available, cold otherwise.
    pub fn checkout_session(&self) -> AstiSession {
        let warm = self.lock_sessions().pop();
        warm.unwrap_or_else(|| AstiSession::new(self.graph.n()))
    }

    /// Returns a session to the shelf for the next request.
    pub fn checkin_session(&self, session: AstiSession) {
        let mut shelf = self.lock_sessions();
        if shelf.len() < MAX_WARM_SESSIONS {
            shelf.push(session);
        }
    }

    /// Number of warm sessions currently shelved.
    pub fn warm_sessions(&self) -> usize {
        self.lock_sessions().len()
    }

    /// Heap bytes retained by the shelved sessions' coverage counts, sketch
    /// pools and coverage engines (observability), as
    /// [`AstiSession::pool_heap_bytes`] sums them. A graph served only at
    /// b = 1 reads O(n) bytes per session here whatever `|R|` its selects
    /// drew; TRIM-B's member columns grow with `|R|`, by at most about
    /// `n/8` bytes per set.
    pub fn warm_pool_bytes(&self) -> usize {
        self.lock_sessions()
            .iter()
            .map(|s| s.pool_heap_bytes())
            .sum()
    }

    fn lock_sessions(&self) -> std::sync::MutexGuard<'_, Vec<AstiSession>> {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl std::fmt::Debug for GraphEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphEntry")
            .field("id", &self.id)
            .field("token", &self.token)
            .field("source", &self.source)
            .field("n", &self.graph.n())
            .field("m", &self.graph.m())
            .finish_non_exhaustive()
    }
}

/// All registered graphs, keyed by id. Ordered map so every iteration —
/// listings, debug dumps — is deterministic without an explicit sort.
#[derive(Default)]
pub struct Registry {
    entries: BTreeMap<String, Arc<GraphEntry>>,
    next_auto_id: u64,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Checks a requested id: 1 to [`MAX_ID_BYTES`] bytes of
    /// `[A-Za-z0-9._-]` (400), and not already taken (409) — delete first to
    /// replace, so a client can never silently swap another client's graph.
    /// A registration checks its id before it builds the graph, and again
    /// through [`Registry::resolve_id`] under the lock it registers under.
    pub fn check_id(&self, id: &str) -> Result<(), ServiceError> {
        if id.is_empty()
            || id.len() > MAX_ID_BYTES
            || !id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c))
        {
            return Err(ServiceError::bad_request(format!(
                "graph id {} must be 1 to {MAX_ID_BYTES} bytes of [A-Za-z0-9._-]",
                quoted(id)
            )));
        }
        if self.entries.contains_key(id) {
            return Err(ServiceError::new(
                409,
                "graph_exists",
                format!(
                    "graph {} is already registered; DELETE it first",
                    quoted(id)
                ),
            ));
        }
        Ok(())
    }

    /// Passes a requested id through [`Registry::check_id`], or
    /// auto-assigns `g0`, `g1`, … for `None`. Callers that need the id
    /// before registering (to derive a snapshot path) resolve first, then
    /// call [`Registry::register_resolved`] under the same lock.
    pub fn resolve_id(&mut self, id: Option<String>) -> Result<String, ServiceError> {
        match id {
            Some(id) => self.check_id(&id).map(|()| id),
            None => loop {
                let candidate = format!("g{}", self.next_auto_id);
                self.next_auto_id += 1;
                if !self.entries.contains_key(&candidate) {
                    break Ok(candidate);
                }
            },
        }
    }

    /// Registers a graph under an id already vetted by
    /// [`Registry::resolve_id`]. The entry's token is the graph's content
    /// checksum, so identical graphs earn identical tokens across restarts.
    pub fn register_resolved(
        &mut self,
        id: String,
        graph: Graph,
        source: String,
        snapshot: Option<String>,
    ) -> Result<Arc<GraphEntry>, ServiceError> {
        if self.entries.contains_key(&id) {
            return Err(ServiceError::new(
                409,
                "graph_exists",
                format!(
                    "graph {} is already registered; DELETE it first",
                    quoted(&id)
                ),
            ));
        }
        let entry = Arc::new(GraphEntry {
            id: id.clone(),
            token: store::content_checksum(&graph),
            source,
            snapshot,
            graph: Arc::new(graph),
            sessions: Mutex::new(Vec::new()),
            selects: AtomicU64::new(0),
        });
        self.entries.insert(id, Arc::clone(&entry));
        Ok(entry)
    }

    /// Registers a graph under `id` (auto-assigned when `None`); see
    /// [`Registry::resolve_id`] for the id rules.
    pub fn register(
        &mut self,
        id: Option<String>,
        graph: Graph,
        source: String,
    ) -> Result<Arc<GraphEntry>, ServiceError> {
        let id = self.resolve_id(id)?;
        self.register_resolved(id, graph, source, None)
    }

    /// Looks up a graph by id.
    pub fn get(&self, id: &str) -> Option<Arc<GraphEntry>> {
        self.entries.get(id).cloned()
    }

    /// Removes a graph; `true` if it existed. In-flight requests holding the
    /// `Arc<GraphEntry>` finish normally; the memory is freed when the last
    /// reference drops.
    pub fn remove(&mut self, id: &str) -> bool {
        self.entries.remove(id).is_some()
    }

    /// All entries, sorted by id (the map's key order) for stable listings.
    pub fn list(&self) -> Vec<Arc<GraphEntry>> {
        self.entries.values().cloned().collect()
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Records a select against an entry (relaxed: it is a metric, not a lock).
pub fn record_select(entry: &GraphEntry) {
    entry.selects.fetch_add(1, Ordering::Relaxed);
}

/// One line of the persisted registry manifest: which graph lives in which
/// snapshot file, and what its content checksum must be.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Registry id the graph is served under.
    pub id: String,
    /// Snapshot path relative to the state dir (`graphs/<id>.smg`).
    pub file: String,
    /// Expected [`store::content_checksum`] of the snapshot — also the
    /// registry token, so listings are stable across restarts.
    pub checksum: u64,
    /// Original source string (`generated:er`, `file:web.txt`, …).
    pub source: String,
}

/// Schema version of `manifest.json`.
const MANIFEST_VERSION: f64 = 1.0;

/// Serializes manifest entries as deterministic JSON (insertion-ordered
/// fields, checksums as zero-padded hex strings — the JSON number type
/// cannot hold a u64 losslessly).
pub fn manifest_json(entries: &[ManifestEntry]) -> String {
    let graphs: Vec<Value> = entries
        .iter()
        .map(|e| {
            json!({
                "id": e.id.clone(),
                "file": e.file.clone(),
                "checksum": format!("{:016x}", e.checksum),
                "source": e.source.clone(),
            })
        })
        .collect();
    let doc = json!({ "version": 1, "graphs": graphs });
    serde_json::to_string(&doc)
}

fn manifest_str_field(entry: &Value, key: &str) -> Result<String, String> {
    match crate::json::field(entry, key) {
        Some(Value::String(s)) => Ok(s.clone()),
        _ => Err(format!("manifest entry is missing string field '{key}'")),
    }
}

/// Parses `manifest.json`. Errors are strings because a bad manifest is a
/// boot-time configuration failure, not a request-path condition.
pub fn parse_manifest(text: &str) -> Result<Vec<ManifestEntry>, String> {
    let doc: Value =
        serde_json::from_str(text).map_err(|e| format!("manifest is not valid JSON: {e}"))?;
    match crate::json::field(&doc, "version") {
        Some(Value::Number(v)) if *v == MANIFEST_VERSION => {}
        other => return Err(format!("unsupported manifest version {other:?}")),
    }
    let items = match crate::json::field(&doc, "graphs") {
        Some(Value::Array(items)) => items,
        _ => return Err("manifest is missing the 'graphs' array".to_string()),
    };
    let mut entries = Vec::with_capacity(items.len());
    for item in items {
        let id = manifest_str_field(item, "id")?;
        let file = manifest_str_field(item, "file")?;
        let hex = manifest_str_field(item, "checksum")?;
        let checksum = u64::from_str_radix(&hex, 16)
            .map_err(|e| format!("graph '{id}': bad checksum {hex:?}: {e}"))?;
        let source = manifest_str_field(item, "source")?;
        entries.push(ManifestEntry {
            id,
            file,
            checksum,
            source,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smin_graph::GraphBuilder;

    fn tiny(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..(n - 1) as u32 {
            b.add_edge_p(u, u + 1, 0.5).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn register_get_remove_roundtrip() {
        let mut r = Registry::new();
        let e = r
            .register(Some("web".into()), tiny(5), "test".into())
            .unwrap();
        assert_eq!(e.id, "web");
        assert_eq!(e.graph.n(), 5);
        assert!(r.get("web").is_some());
        assert_eq!(r.len(), 1);
        assert!(r.remove("web"));
        assert!(!r.remove("web"));
        assert!(r.get("web").is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn duplicate_id_is_conflict() {
        let mut r = Registry::new();
        r.register(Some("g".into()), tiny(3), "test".into())
            .unwrap();
        let err = r
            .register(Some("g".into()), tiny(4), "test".into())
            .unwrap_err();
        assert_eq!(err.status, 409);
        assert_eq!(err.code, "graph_exists");
        // the original survives
        assert_eq!(r.get("g").unwrap().graph.n(), 3);
    }

    #[test]
    fn bad_ids_are_rejected() {
        let mut r = Registry::new();
        assert!(r
            .register(Some(String::new()), tiny(3), "t".into())
            .is_err());
        assert!(r.register(Some("a/b".into()), tiny(3), "t".into()).is_err());
        assert!(r
            .register(Some("ok-id_1.bin".into()), tiny(3), "t".into())
            .is_ok());
        let err = r
            .register(Some("x".repeat(MAX_ID_BYTES + 1)), tiny(3), "t".into())
            .unwrap_err();
        assert_eq!((err.status, err.code), (400, "bad_request"));
        assert!(r
            .register(Some("x".repeat(MAX_ID_BYTES)), tiny(3), "t".into())
            .is_ok());
    }

    #[test]
    fn auto_ids_skip_taken_names() {
        let mut r = Registry::new();
        r.register(Some("g0".into()), tiny(3), "t".into()).unwrap();
        let e = r.register(None, tiny(3), "t".into()).unwrap();
        assert_eq!(e.id, "g1");
        let e = r.register(None, tiny(3), "t".into()).unwrap();
        assert_eq!(e.id, "g2");
    }

    #[test]
    fn tokens_are_content_derived() {
        let mut r = Registry::new();
        let a = r.register(Some("g".into()), tiny(3), "t".into()).unwrap();
        r.remove("g");
        let b = r.register(Some("g".into()), tiny(3), "t".into()).unwrap();
        assert_eq!(
            a.token, b.token,
            "identical content re-registered under the same id keeps its token"
        );
        r.remove("g");
        let c = r.register(Some("g".into()), tiny(4), "t".into()).unwrap();
        assert_ne!(a.token, c.token, "different content must change the token");
        assert_eq!(
            a.token,
            smin_graph::store::content_checksum(&tiny(3)),
            "the token is the snapshot content checksum"
        );
    }

    #[test]
    fn manifest_roundtrips() {
        let entries = vec![
            ManifestEntry {
                id: "alpha".into(),
                file: "graphs/alpha.smg".into(),
                checksum: 0xDEAD_BEEF_0123_4567,
                source: "generated:er".into(),
            },
            ManifestEntry {
                id: "beta".into(),
                file: "graphs/beta.smg".into(),
                checksum: u64::MAX,
                source: "file:web.txt".into(),
            },
        ];
        let text = manifest_json(&entries);
        assert_eq!(parse_manifest(&text).unwrap(), entries);
        // Deterministic: same entries, same bytes.
        assert_eq!(manifest_json(&entries), text);
        // u64 checksums survive losslessly via hex strings.
        assert!(text.contains("ffffffffffffffff"), "{text}");
    }

    #[test]
    fn manifest_rejects_damage() {
        assert!(parse_manifest("not json").is_err());
        assert!(parse_manifest(r#"{"version":2,"graphs":[]}"#).is_err());
        assert!(parse_manifest(r#"{"version":1}"#).is_err());
        assert!(parse_manifest(
            r#"{"version":1,"graphs":[{"id":"g","file":"f","checksum":"xyz","source":"s"}]}"#
        )
        .is_err());
        assert!(parse_manifest(r#"{"version":1,"graphs":[{"id":"g"}]}"#).is_err());
        assert_eq!(
            parse_manifest(r#"{"version":1,"graphs":[]}"#).unwrap(),
            vec![]
        );
    }

    #[test]
    fn register_resolved_rejects_duplicates() {
        let mut r = Registry::new();
        r.register_resolved("g".into(), tiny(3), "t".into(), None)
            .unwrap();
        let err = r
            .register_resolved("g".into(), tiny(3), "t".into(), None)
            .unwrap_err();
        assert_eq!(err.status, 409);
    }

    #[test]
    fn session_shelf_recycles() {
        let mut r = Registry::new();
        let e = r.register(Some("g".into()), tiny(6), "t".into()).unwrap();
        assert_eq!(e.warm_sessions(), 0);
        let s = e.checkout_session();
        assert_eq!(s.n(), 6);
        e.checkin_session(s);
        assert_eq!(e.warm_sessions(), 1);
        let _s = e.checkout_session();
        assert_eq!(e.warm_sessions(), 0, "checkout drains the shelf");
    }

    #[test]
    fn shelf_is_bounded() {
        let mut r = Registry::new();
        let e = r.register(Some("g".into()), tiny(3), "t".into()).unwrap();
        for _ in 0..MAX_WARM_SESSIONS + 5 {
            e.checkin_session(AstiSession::new(3));
        }
        assert_eq!(e.warm_sessions(), MAX_WARM_SESSIONS);
    }

    #[test]
    fn listing_is_sorted() {
        let mut r = Registry::new();
        for id in ["zeta", "alpha", "mid"] {
            r.register(Some(id.into()), tiny(3), "t".into()).unwrap();
        }
        let ids: Vec<_> = r.list().iter().map(|e| e.id.clone()).collect();
        assert_eq!(ids, vec!["alpha", "mid", "zeta"]);
    }
}
