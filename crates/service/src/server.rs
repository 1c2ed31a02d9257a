//! Server configuration, binding, and the serve entry point.
//!
//! Every connection is served by the epoll readiness event loop
//! (`event_loop`): one poll thread multiplexing every connection
//! through per-connection state machines, plus a fixed pool of dispatch
//! threads running the session layer ([`crate::routes::handle`]); cache
//! hits and `/healthz` are answered by the poll thread itself
//! (`routes::answer_cached`).
//! Concurrency costs an entry in the loop's connection map, not a thread.
//! On targets without epoll, that is every target but Linux
//! ([`crate::platform`]), [`Server::run`] fails with `Unsupported`.

use crate::routes::ServiceState;
use crate::trace::TraceLog;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which service core runs the connections. The epoll event loop is the
/// only one; [`Server::run`] does not read this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    /// The readiness event loop over the C library's epoll (Linux).
    #[default]
    Epoll,
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Dispatch threads running the session layer.
    pub workers: usize,
    /// Directory `{"path": …}` graph loads are confined to.
    pub graphs_dir: Option<std::path::PathBuf>,
    /// Durable registry root: snapshots + manifest live here and are
    /// restored on boot, so restarts keep every registered graph and token.
    pub state_dir: Option<std::path::PathBuf>,
    /// Memoized `/v1/select` responses retained.
    pub cache_capacity: usize,
    /// Which service core runs the connections; not read by the server.
    pub transport: Transport,
    /// Admission high-water mark: beyond this many queued + running
    /// dispatches, new requests are answered with a deterministic 429.
    pub max_pending: usize,
    /// Keep-alive idle timeout (silent close).
    pub idle_timeout_ms: u64,
    /// Mid-request read and response-write timeout (408 once the request
    /// head was parsed; silent close otherwise).
    pub request_timeout_ms: u64,
    /// Structured per-request trace log (`--trace-log`): one JSON line per
    /// request, written by a dedicated log thread. `None` disables tracing.
    pub trace_log: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            graphs_dir: None,
            state_dir: None,
            cache_capacity: 1024,
            transport: Transport::Epoll,
            max_pending: 1024,
            idle_timeout_ms: 30_000,
            request_timeout_ms: 30_000,
            trace_log: None,
        }
    }
}

/// A bound (not yet serving) server.
pub struct Server {
    listener: TcpListener,
    state: ServiceState,
    config: ServerConfig,
}

impl Server {
    /// Binds the listener and builds the shared state.
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut state = ServiceState::with_state_dir(
            config.graphs_dir.clone(),
            config.cache_capacity,
            config.state_dir.clone(),
        )
        .map_err(std::io::Error::other)?;
        state.set_dispatch_workers(config.workers);
        if let Some(path) = &config.trace_log {
            // An unopenable trace log is a boot error, not a silent no-op:
            // the operator asked for a record of every request.
            let trace = TraceLog::open(path).map_err(|e| {
                std::io::Error::new(e.kind(), format!("cannot open trace log {path:?}: {e}"))
            })?;
            state.set_trace(trace);
        }
        Ok(Server {
            listener,
            state,
            config: config.clone(),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `stop` turns true. Blocks the calling thread; the CLI
    /// calls this directly, tests use [`Server::spawn`].
    #[cfg(unix)]
    pub fn run(self, stop: &AtomicBool) -> std::io::Result<()> {
        crate::event_loop::serve(self.listener, &self.state, &self.config, stop)
    }

    /// Serves until `stop` turns true: unavailable without epoll.
    #[cfg(not(unix))]
    pub fn run(self, _stop: &AtomicBool) -> std::io::Result<()> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the epoll event loop requires Linux",
        ))
    }

    /// Runs the server on a background thread, returning a handle that stops
    /// it. Used by tests and anything embedding the service.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_inner = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            let _ = self.run(&stop_inner);
        });
        Ok(ServerHandle {
            addr,
            stop,
            join: Some(join),
        })
    }
}

/// Handle to a background server; shuts it down on [`ServerHandle::shutdown`]
/// or drop.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the server thread. In-flight connections
    /// finish their current request; idle keep-alive connections are
    /// released by their timeout, peer close, or loop teardown.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the poll wait so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routes::TEST_PANIC_PATH;
    use crate::Client;
    use serde_json::Value;
    use std::io::{Read, Write};

    #[test]
    fn panicking_handler_gets_500_and_the_worker_survives() {
        // The test-only route panics on the only dispatch worker. The
        // worker catches it and answers a structured 500, and everything
        // after it is still answered.
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_capacity: 64,
            ..ServerConfig::default()
        };
        let mut handle = Server::bind(&config).unwrap().spawn().unwrap();
        let mut c = Client::connect(&handle.addr().to_string()).unwrap();
        let resp = c.get(TEST_PANIC_PATH).unwrap();
        assert_eq!(resp.status, 500, "{}", resp.text());
        assert!(
            resp.text().contains(r#""code":"internal_error""#),
            "{}",
            resp.text()
        );
        let resp = c.get("/healthz").unwrap();
        assert_eq!(resp.status, 200, "server must survive");
        let register = r#"{"id":"g","generate":{"kind":"er","n":120,"m":360,"seed":9}}"#;
        let resp = c.post("/v1/graphs", register).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
        let resp = c
            .post(
                "/v1/select",
                r#"{"graph":"g","eta":20,"seed":3,"cache":false}"#,
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(resp.header("x-cache"), Some("BYPASS"));
        let metrics = c.get("/metrics").unwrap().text();
        assert!(
            metrics.contains("smin_http_errors_total{status=\"500\"} 1\n"),
            "{metrics}"
        );
        drop(c);
        handle.shutdown();
    }

    /// Writes `raw` on a fresh connection and returns everything the
    /// server sends before it closes.
    fn exchange(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    /// The `smin_http_errors_total` samples of a scrape, by status.
    fn errors(addr: SocketAddr) -> Vec<(u16, u64)> {
        let text = Client::connect(&addr.to_string())
            .unwrap()
            .get("/metrics")
            .unwrap()
            .text();
        text.lines()
            .filter_map(|l| l.strip_prefix("smin_http_errors_total{status=\""))
            .map(|l| {
                let (status, n) = l.split_once("\"} ").unwrap();
                (status.parse().unwrap(), n.parse().unwrap())
            })
            .collect()
    }

    /// The trace log's lines once the server behind it has shut down.
    fn trace_lines(path: &std::path::Path, n: usize) -> Vec<Value> {
        let mut text = String::new();
        for _ in 0..200 {
            text = std::fs::read_to_string(path).unwrap_or_default();
            if text.lines().count() >= n {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let lines: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), n, "{text}");
        lines
    }

    /// One trace line's field, rendered back to JSON (`null` included).
    fn field(line: &Value, key: &str) -> String {
        let Value::Object(fields) = line else {
            panic!("not an object: {line:?}");
        };
        let value = fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        serde_json::to_string(value.expect("field present"))
    }

    /// Every response the event loop gives itself (malformed HTTP, a bad
    /// deadline, 504, 408, 429 and a caught panic's 500) has exactly one
    /// trace line and moves its `smin_http_errors_total` series exactly
    /// once; a handler's 404 moves none.
    #[cfg(unix)]
    #[test]
    fn every_response_the_loop_gives_itself_is_accounted_once() {
        let dir = std::env::temp_dir().join(format!("smin_loop_accounting_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (trace, overload_trace) = (dir.join("trace.jsonl"), dir.join("overload.jsonl"));
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            request_timeout_ms: 200,
            trace_log: Some(trace.clone()),
            ..ServerConfig::default()
        };
        let mut handle = Server::bind(&config).unwrap().spawn().unwrap();
        let addr = handle.addr();
        let head = |line: &str, headers: &str| format!("{line}\r\nHost: t\r\n{headers}");
        let close = "Connection: close\r\n\r\n";
        // (request, status, error series it moves)
        let cases = [
            ("GARBAGE\r\n\r\n".to_string(), 400, Some(400)),
            (
                head(
                    "GET /healthz HTTP/1.1",
                    &format!("X-Deadline-Millis: soon\r\n{close}"),
                ),
                400,
                Some(400),
            ),
            (
                head(
                    "GET /healthz HTTP/1.1",
                    &format!("X-Deadline-Millis: 0\r\n{close}"),
                ),
                504,
                Some(504),
            ),
            (
                head(
                    "POST /v1/select HTTP/1.1",
                    "Content-Length: 10\r\n\r\n{\"gr",
                ),
                408,
                Some(408),
            ),
            (
                head(
                    &format!("GET {TEST_PANIC_PATH} HTTP/1.1"),
                    &format!("X-Deadline-Millis: 60000\r\n{close}"),
                ),
                500,
                Some(500),
            ),
            (head("GET /nope HTTP/1.1", close), 404, None),
        ];
        for (raw, status, series) in &cases {
            let before = errors(addr);
            let reply = exchange(addr, raw);
            assert!(
                reply.starts_with(&format!("HTTP/1.1 {status} ")),
                "{raw:?}: {reply}"
            );
            let moved: Vec<(u16, u64)> = errors(addr)
                .iter()
                .zip(&before)
                .filter(|(after, was)| after != was)
                .map(|(&(s, after), &(_, was))| (s, after - was))
                .collect();
            let want: Vec<(u16, u64)> = series.iter().map(|&s| (s, 1)).collect();
            assert_eq!(moved, want, "{raw:?}");
        }
        handle.shutdown(); // drops the state, flushing the log thread

        // A second server refuses everything at admission, its scrapes
        // included, so its counters are read off its state once it stops.
        let overload = ServerConfig {
            max_pending: 0,
            trace_log: Some(overload_trace.clone()),
            ..config
        };
        let Server {
            listener, state, ..
        } = Server::bind(&overload).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = AtomicBool::new(false);
        let reply = std::thread::scope(|scope| {
            let served =
                scope.spawn(|| crate::event_loop::serve(listener, &state, &overload, &stop));
            let raw = head(
                "GET /healthz HTTP/1.1",
                &format!("X-Deadline-Millis: 60000\r\n{close}"),
            );
            let reply = exchange(addr, &raw);
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(addr); // wakes the poll wait
            served.join().unwrap().unwrap();
            reply
        });
        assert!(reply.starts_with("HTTP/1.1 429 "), "{reply}");
        let counts: Vec<u64> = state.metrics().errors.iter().map(|c| c.get()).collect();
        assert_eq!(counts, [0, 0, 1, 0, 0], "400, 408, 429, 500, 504");
        drop(state); // closes the trace channel; the writer flushes and exits

        let lines = trace_lines(&trace, cases.len());
        let expected = [
            ("null", "null", "400"),
            (r#""GET""#, r#""/healthz""#, "400"),
            (r#""GET""#, r#""/healthz""#, "504"),
            ("null", "null", "408"),
            (r#""GET""#, r#""/test/panic""#, "500"),
            (r#""GET""#, r#""/nope""#, "404"),
        ];
        for (line, (method, path, status)) in lines.iter().zip(expected) {
            assert_eq!(field(line, "method"), method, "{line:?}");
            assert_eq!(field(line, "path"), path, "{line:?}");
            assert_eq!(field(line, "status"), status, "{line:?}");
        }
        let remaining = |i: usize| field(&lines[i], "deadline_remaining_ms");
        assert_eq!(remaining(0), "null", "no request parsed");
        assert_eq!(remaining(1), "null", "no valid budget");
        assert_eq!(remaining(2), "0", "a zero budget");
        assert_eq!(remaining(3), "null", "no request parsed");
        let panicked: u64 = remaining(4).parse().expect("the panic line's budget");
        assert!(panicked > 0 && panicked <= 60_000, "{panicked}");
        assert_eq!(remaining(5), "null", "no header");
        let overload = trace_lines(&overload_trace, 1);
        assert_eq!(field(&overload[0], "status"), "429");
        assert_eq!(field(&overload[0], "path"), r#""/healthz""#);
        let budget: u64 = field(&overload[0], "deadline_remaining_ms")
            .parse()
            .unwrap();
        assert!(budget > 0 && budget <= 60_000, "{budget}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
