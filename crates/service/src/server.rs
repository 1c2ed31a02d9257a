//! Server configuration, binding, and the serve entry point.
//!
//! Every connection is served by the epoll readiness event loop
//! (`event_loop`): one poll thread multiplexing every connection
//! through per-connection state machines, plus a fixed pool of dispatch
//! threads running the session layer ([`crate::routes::handle`]); cache
//! hits are answered by the poll thread itself (`routes::answer_cached`).
//! Concurrency costs a slab slot, not a thread. On targets without the
//! raw epoll syscalls ([`crate::platform`]), [`Server::run`] fails with
//! `Unsupported`.

use crate::routes::ServiceState;
use crate::trace::TraceLog;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which service core runs the connections. The epoll event loop is the
/// only one; [`Server::run`] does not read this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    /// The readiness event loop (Linux x86_64/aarch64).
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
    state: Arc<ServiceState>,
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
            state: Arc::new(state),
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
        let cfg = crate::event_loop::LoopConfig {
            dispatchers: self.config.workers.max(1),
            max_pending: self.config.max_pending,
            idle_timeout_ms: self.config.idle_timeout_ms,
            request_timeout_ms: self.config.request_timeout_ms,
        };
        crate::event_loop::serve(self.listener, &self.state, &cfg, stop)
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
