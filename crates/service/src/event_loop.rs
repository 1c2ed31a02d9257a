//! The epoll readiness event loop: one poll thread multiplexing every
//! connection, a small fixed pool of dispatch threads running the
//! transport-agnostic session layer.
//!
//! Open connections are keyed by an id that counts up from 0 and is never
//! reused. The id is also the connection's poller token, so an event, a
//! completion or a redrive for a connection that has since closed finds
//! nothing. Each connection moves through a small state machine — reading
//! (incremental [`RequestParser`]) → dispatching (deregistered from the
//! poller while the algorithm runs) or answered in place (a cache hit, a
//! `/healthz`, or a 400/429, produced by the poll thread itself)
//! → writing (partial-write [`WriteBuf`]) → keep-alive idle. Concurrency
//! therefore costs a map entry, not a thread: ≥512 idle keep-alive
//! connections are served by `1 + dispatchers` threads total.
//!
//! A parsed request goes through framing, the `X-Deadline-Millis` parse
//! (the only one: its [`Deadline`] travels with the request), admission
//! control, then the cache probe ([`answer_cached`]), and only then to a
//! dispatch thread. The probe answers `GET /healthz` and a cached
//! `/v1/select` without a handoff (no deregistration, channel send,
//! completion lock or wake-up byte) and without blocking the poll thread.
//!
//! Five protections keep the loop healthy under load:
//!
//! * **Connection deadlines** — each connection carries one deadline:
//!   idle, mid-request (408 once the head was parsed), or stuck-write.
//!   The loop sweeps every connection once per [`TICK_MS`] against one
//!   monotonic epoch.
//! * **Admission control** — when `pending` dispatches (queued + running)
//!   reach the configured high-water mark, new requests are answered with
//!   a deterministic 429 instead of queueing without bound.
//! * **Per-request deadlines** — `X-Deadline-Millis` is checked when a
//!   dispatch thread dequeues the request; an expired deadline returns a
//!   structured 504 without running the selection. A budget of 0 is
//!   expired by definition, so the probe leaves it to a worker's 504.
//! * **Pipelining bounds** — per-connection parse backlog is capped at
//!   [`MAX_BUFFERED_BYTES`] (reads pause at the cap and resume as the
//!   backlog drains), and each connection is driven by an *iterative*
//!   state-machine loop ([`Loop::drive`]) with a bounded synchronous-
//!   response budget per cycle, so a client pipelining thousands of
//!   poll-thread-answerable requests (cache hits, 429s under overload,
//!   400s from bad deadline headers) can neither grow the poll thread's
//!   stack nor monopolize it.
//! * **Descriptor exhaustion** — an accept that fails for want of
//!   descriptors takes the listener out of the poller until the next
//!   sweep, so a server at its descriptor limit does not spin on the
//!   listener's level-triggered readiness; queued connections wait in the
//!   kernel's listen queue until descriptors free up.
//!
//! This loop is the service's only transport: every request is framed by
//! [`RequestParser`], answered by [`handle`] (or, for a cache hit, by
//! [`answer_cached`]), and serialized through [`Response::write_to`]. Every
//! response, the 400s, 408s, 429s, 504s and caught panics the loop gives
//! itself included, is counted and traced once, by [`finish`].

use crate::error::{parse_deadline, Deadline, ServiceError};
use crate::http::{Request, RequestParser, Response, MAX_BUFFERED_BYTES};
use crate::platform::{EpollEvent, Poller, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::routes::{answer_cached, finish, handle, By, ServiceState};
use crate::server::ServerConfig;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// Deadline-sweep period, and the poll timeout that drives the sweep.
const TICK_MS: u64 = 100;
/// Socket read chunk.
const READ_CHUNK: usize = 16 * 1024;
/// How many responses the poll thread answers synchronously (cache hits,
/// 400/408/429) on one connection per [`Loop::drive`] call before
/// yielding; the connection is re-queued via the redrive list so other
/// connections and deadlines run in between.
const SYNC_RESPONSES_PER_DRIVE: usize = 64;
/// Poller token of the accept listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Poller token of the wake channel (a Unix socket pair).
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// A response being written out, tolerant of partial writes.
#[derive(Default)]
struct WriteBuf {
    buf: Vec<u8>,
    written: usize,
}

enum WriteOutcome {
    /// Everything flushed.
    Done,
    /// The socket would block; bytes remain.
    Pending,
    /// The peer is gone.
    Error,
}

impl WriteBuf {
    fn is_empty(&self) -> bool {
        self.written >= self.buf.len()
    }

    fn set(&mut self, bytes: Vec<u8>) {
        self.buf = bytes;
        self.written = 0;
    }

    /// Pushes as many pending bytes as the writer accepts.
    fn write_to(&mut self, w: &mut impl Write) -> WriteOutcome {
        while self.written < self.buf.len() {
            let pending = self.buf.get(self.written..).unwrap_or(&[]);
            match w.write(pending) {
                Ok(0) => return WriteOutcome::Error,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return WriteOutcome::Pending,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return WriteOutcome::Error,
            }
        }
        WriteOutcome::Done
    }
}

/// Which deadline (if any) is armed for a connection.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TimerClass {
    /// No deadline — a dispatch is running (504s bound it instead).
    None,
    /// Keep-alive idle window; refreshed after every response.
    Idle,
    /// Mid-request window, pinned at the first byte of the request so a
    /// trickling peer cannot extend it.
    Request,
    /// Response-write window, pinned when the write first blocks.
    Write,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    write: WriteBuf,
    /// The poller interest mask; 0 while deregistered (as during a
    /// dispatch, so a hung-up peer cannot spin the loop on unmaskable
    /// `EPOLLHUP`).
    interest: u32,
    busy: bool,
    close_after_write: bool,
    read_closed: bool,
    timer: TimerClass,
    /// When `timer` fires, in milliseconds since the loop's epoch.
    due_ms: u64,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(),
            write: WriteBuf::default(),
            interest: 0,
            busy: false,
            close_after_write: false,
            read_closed: false,
            timer: TimerClass::None,
            due_ms: 0,
        }
    }

    /// Arms a `class` deadline `timeout_ms` after `now_ms`. `Request` and
    /// `Write` windows are pinned — re-arming the same class is a no-op,
    /// so a trickling peer cannot extend them — while `Idle` refreshes on
    /// every arm.
    fn arm(&mut self, class: TimerClass, now_ms: u64, timeout_ms: u64) {
        if self.timer == class && class != TimerClass::Idle {
            return;
        }
        self.timer = class;
        self.due_ms = now_ms.saturating_add(timeout_ms);
    }

    /// Whether an armed deadline has passed at `now_ms`.
    fn is_due(&self, now_ms: u64) -> bool {
        self.timer != TimerClass::None && self.due_ms <= now_ms
    }
}

/// A fully-parsed request handed to the dispatch pool.
struct Job {
    id: u64,
    req: Request,
    keep_alive: bool,
    deadline: Option<Deadline>,
}

/// A serialized response handed back to the poll loop.
struct Done {
    id: u64,
    bytes: Vec<u8>,
    close: bool,
}

fn now_ms(epoch: Instant) -> u64 {
    epoch.elapsed().as_millis() as u64
}

/// Serves `listener` until `stop` turns true. Returns an error only for
/// setup failures (epoll unavailable, no wake pair) — per-connection
/// failures close that connection and keep the loop running.
pub(crate) fn serve(
    listener: TcpListener,
    state: &ServiceState,
    cfg: &ServerConfig,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;

    // Wake channel: a Unix socket pair. Dispatch threads write one byte to
    // interrupt the poll wait as soon as a completion is queued.
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, EPOLLIN)?;

    // smin-lint: allow(no-wall-clock) -- the one monotonic epoch every deadline is measured against; never reaches a response body
    let epoch = Instant::now();

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Mutex::new(job_rx);
    let completions = Mutex::new(Vec::new());
    let pending = AtomicUsize::new(0);
    // The dispatch threads borrow these for the length of the scope.
    let (job_rx, completions, pending, wake_tx) = (&job_rx, &completions, &pending, &wake_tx);

    std::thread::scope(move |scope| {
        for _ in 0..cfg.workers.max(1) {
            scope.spawn(move || dispatch_loop(state, job_rx, completions, pending, wake_tx));
        }
        let mut el = Loop {
            poller,
            listener,
            listening: true,
            wake_rx,
            conns: BTreeMap::new(),
            next_id: 0,
            epoch,
            cfg,
            state,
            job_tx,
            completions,
            pending,
            redrive: Vec::new(),
        };
        let result = el.run(stop);
        // Dropping the loop closes the job channel, which drains the
        // dispatch pool; the scope then joins every dispatcher.
        drop(el);
        result
    })
}

/// One dispatch worker: dequeue, check the deadline, run the session
/// layer, serialize, hand the bytes back, wake the poll thread.
///
/// A panicking handler answers a structured 500 instead of killing the
/// worker: the unwind is caught, the completion goes back as usual, so
/// `pending` is released and the connection is answered. A select's
/// checked-out session unwinds with the handler and is dropped, not
/// shelved.
fn dispatch_loop(
    state: &ServiceState,
    job_rx: &Mutex<mpsc::Receiver<Job>>,
    completions: &Mutex<Vec<Done>>,
    pending: &AtomicUsize,
    wake_tx: &UnixStream,
) {
    loop {
        // Hold the lock only while dequeuing so workers run in parallel.
        let job = {
            let rx = job_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(job) = job else {
            break; // channel closed: shutting down
        };
        let (req, deadline) = (&job.req, job.deadline);
        let refuse =
            |e: ServiceError| finish(state, By::Loop(Some(req)), deadline, e.to_response());
        let resp = match deadline {
            Some(d) if d.remaining_ms() == 0 => refuse(ServiceError::deadline_exceeded(d.ms)),
            _ => catch_unwind(AssertUnwindSafe(|| handle(state, req, deadline)))
                .unwrap_or_else(|_| refuse(ServiceError::handler_panicked())),
        };
        let mut bytes = Vec::new();
        // Writing into a Vec cannot fail.
        let _ = resp.write_to(&mut bytes, job.keep_alive);
        completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Done {
                id: job.id,
                bytes,
                close: !job.keep_alive,
            });
        pending.fetch_sub(1, Ordering::SeqCst);
        // A full wake channel is fine: the poll thread already has a pending
        // wake-up it has not drained yet.
        let mut tx = wake_tx;
        let _ = tx.write(&[1u8]);
    }
}

/// What the incremental parser produced for one connection.
enum Parsed {
    Req(Request),
    Eof,
    Wait(TimerClass),
    Bad(String),
}

/// The poll thread's whole mutable state.
struct Loop<'a> {
    poller: Poller,
    listener: TcpListener,
    /// Whether the listener is registered with the poller: an accept that
    /// fails for want of descriptors takes it out until the next sweep.
    listening: bool,
    wake_rx: UnixStream,
    /// Open connections by id; an id is never reused.
    conns: BTreeMap<u64, Conn>,
    /// The next connection's id and poller token. Counting up from 0, it
    /// never reaches the two reserved tokens at the top of the range.
    next_id: u64,
    epoch: Instant,
    cfg: &'a ServerConfig,
    /// Shared state, for the loop-level metric series and trace log.
    state: &'a ServiceState,
    /// Dropped with the loop, which releases the dispatch pool.
    job_tx: mpsc::Sender<Job>,
    completions: &'a Mutex<Vec<Done>>,
    pending: &'a AtomicUsize,
    /// Connections that exhausted their synchronous-response budget and
    /// still hold parseable backlog; resumed on the next loop iteration.
    redrive: Vec<u64>,
}

impl Loop<'_> {
    fn run(&mut self, stop: &AtomicBool) -> std::io::Result<()> {
        let mut events = vec![EpollEvent::default(); 1024];
        let mut next_sweep_ms = 0;
        while !stop.load(Ordering::SeqCst) {
            // Pending redrives must not wait out the poll timeout: poll
            // without blocking, then resume them below.
            let timeout = if self.redrive.is_empty() {
                TICK_MS as i32
            } else {
                0
            };
            let n = {
                let _span = self.state.metrics().epoll_wait_micros.start_span();
                self.poller.wait(&mut events, timeout)?
            };
            // Loop-health gauges, sampled once per iteration before its
            // events are handled, so that a `/metrics` scrape this
            // iteration dispatches does not count itself: queued + running
            // dispatches, open connections, and connections awaiting a
            // redrive.
            let m = self.state.metrics();
            m.dispatch_queue_depth
                .set(u64::try_from(self.pending.load(Ordering::SeqCst)).unwrap_or(u64::MAX));
            m.slab_connections
                .set(u64::try_from(self.conns.len()).unwrap_or(u64::MAX));
            m.redrive_queue_length
                .set(u64::try_from(self.redrive.len()).unwrap_or(u64::MAX));
            for i in 0..n {
                let Some((token, ready)) = events.get(i).map(|e| (e.token(), e.ready())) else {
                    break;
                };
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake(),
                    id => self.conn_ready(id, ready),
                }
            }
            self.apply_completions();
            // Resume connections that ran out of synchronous-response
            // budget last cycle (a closed one is simply gone).
            for id in std::mem::take(&mut self.redrive) {
                self.drive(id);
            }
            let now = now_ms(self.epoch);
            if now >= next_sweep_ms {
                next_sweep_ms = now.saturating_add(TICK_MS);
                self.sweep(now);
            }
        }
        Ok(())
    }

    /// Once per tick: re-registers a listener that an accept failure took
    /// out, and fires every deadline that has passed.
    fn sweep(&mut self, now: u64) {
        if !self.listening {
            let fd = self.listener.as_raw_fd();
            self.listening = self.poller.add(fd, TOKEN_LISTENER, EPOLLIN).is_ok();
        }
        let due: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.is_due(now))
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            self.expire(id);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = self.next_id;
                    self.next_id += 1;
                    self.conns.insert(id, Conn::new(stream));
                    if self.set_interest(id, EPOLLIN).is_err() {
                        self.close_conn(id);
                        continue;
                    }
                    self.arm_timer(id, TimerClass::Idle);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::ConnectionAborted => continue,
                // Out of descriptors (EMFILE, ENFILE) or memory: the
                // level-triggered listener would be reported again at once,
                // so it leaves the poller until the next sweep.
                Err(_) => {
                    if self.poller.del(self.listener.as_raw_fd()).is_ok() {
                        self.listening = false;
                    }
                    break;
                }
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match self.wake_rx.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break, // WouldBlock: drained
            }
        }
    }

    /// Registers/modifies/deregisters the fd to match `interest` (0 = off).
    fn set_interest(&mut self, id: u64, interest: u32) -> std::io::Result<()> {
        let Some(conn) = self.conns.get_mut(&id) else {
            return Ok(());
        };
        let fd = conn.stream.as_raw_fd();
        let result = match (conn.interest, interest) {
            (current, i) if current == i => Ok(()),
            (0, i) => self.poller.add(fd, id, i),
            (_, 0) => self.poller.del(fd),
            (_, i) => self.poller.modify(fd, id, i),
        };
        if result.is_ok() {
            conn.interest = interest;
        }
        result
    }

    /// (Re-)arms the connection's deadline; see [`Conn::arm`].
    fn arm_timer(&mut self, id: u64, class: TimerClass) {
        let timeout_ms = match class {
            TimerClass::Idle => self.cfg.idle_timeout_ms,
            _ => self.cfg.request_timeout_ms,
        };
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.arm(class, now_ms(self.epoch), timeout_ms);
        }
    }

    fn conn_ready(&mut self, id: u64, ready: u32) {
        if ready & EPOLLERR != 0 {
            self.close_conn(id);
            return;
        }
        if ready & EPOLLOUT != 0 {
            self.drive(id);
        }
        if ready & (EPOLLIN | EPOLLHUP) != 0 {
            self.read_ready(id);
        }
    }

    fn read_ready(&mut self, id: u64) {
        enum After {
            Nothing,
            Close,
            Drive,
        }
        let mut buf = [0u8; READ_CHUNK];
        let mut nread = 0u64;
        let after = loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                break After::Nothing;
            };
            if conn.busy {
                break After::Nothing; // deregistered; a stray event is ignorable
            }
            if conn.read_closed {
                // EPOLLHUP after EOF: finish any in-flight write (it will
                // fail fast if the peer is fully gone), else close.
                break if conn.write.is_empty() {
                    After::Close
                } else {
                    After::Drive
                };
            }
            // Backlog cap: stop pulling bytes off the socket until the
            // already-buffered pipelined requests are consumed. The cap
            // exceeds any single request, so the drive below always makes
            // progress, and level-triggered readiness re-reports the
            // unread socket data once the backlog drains.
            if conn.parser.buffered_len() >= MAX_BUFFERED_BYTES {
                break After::Drive;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break After::Drive;
                }
                Ok(n) => {
                    nread = nread.saturating_add(n as u64);
                    conn.parser.feed(buf.get(..n).unwrap_or(&[]));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break After::Drive,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break After::Close,
            }
        };
        if nread > 0 {
            self.state.metrics().bytes_read.add(nread);
        }
        match after {
            After::Nothing => {}
            After::Close => self.close_conn(id),
            After::Drive => self.drive(id),
        }
    }

    /// Drives one connection's state machine to quiescence, iteratively:
    /// flush the queued response (if any), then parse the next buffered
    /// request, then loop. Returns when the connection blocks on I/O
    /// (interest re-armed), hands a request to the dispatch pool, closes,
    /// or exhausts its synchronous-response budget for this cycle (then
    /// re-queued on `redrive`). A flat loop rather than mutual recursion:
    /// a client pipelining thousands of poll-thread-answerable requests
    /// must not grow the stack per request.
    fn drive(&mut self, id: u64) {
        let mut sync_budget = SYNC_RESPONSES_PER_DRIVE;
        loop {
            // Phase 1: push out whatever is queued for writing.
            let (outcome, wrote) = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.write.is_empty() {
                    (None, 0u64)
                } else {
                    let Conn { stream, write, .. } = conn;
                    let before = write.written;
                    let outcome = write.write_to(stream);
                    (Some(outcome), write.written.saturating_sub(before) as u64)
                }
            };
            if wrote > 0 {
                self.state.metrics().bytes_written.add(wrote);
            }
            match outcome {
                Some(WriteOutcome::Error) => {
                    self.close_conn(id);
                    return;
                }
                Some(WriteOutcome::Pending) => {
                    if self.set_interest(id, EPOLLOUT).is_err() {
                        self.close_conn(id);
                        return;
                    }
                    self.arm_timer(id, TimerClass::Write);
                    return;
                }
                Some(WriteOutcome::Done) => {
                    let close = {
                        let Some(conn) = self.conns.get_mut(&id) else {
                            return;
                        };
                        conn.write.set(Vec::new());
                        conn.close_after_write
                    };
                    if close {
                        self.close_conn(id);
                        return;
                    }
                }
                None => {}
            }

            // Phase 2: the write side is clear — pull the next request.
            // One at a time: a response being computed or written blocks
            // the next pipelined request (natural backpressure).
            let parsed = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.busy {
                    return; // a dispatch is running; its completion re-drives
                }
                match conn.parser.try_next() {
                    Ok(Some(req)) => Parsed::Req(req),
                    Ok(None) if conn.read_closed => Parsed::Eof,
                    Ok(None) => Parsed::Wait(if conn.parser.mid_request() {
                        TimerClass::Request
                    } else {
                        TimerClass::Idle
                    }),
                    Err(e) => Parsed::Bad(e.message),
                }
            };
            match parsed {
                Parsed::Req(req) => {
                    // Handed to the pool (deregistered until the completion
                    // re-enters `drive`), or closed.
                    if !self.begin_dispatch(id, req) {
                        return;
                    }
                    // A hit, 400 or 429 was queued; loop back to flush it.
                }
                Parsed::Eof => {
                    self.close_conn(id);
                    return;
                }
                Parsed::Wait(class) => {
                    if self.set_interest(id, EPOLLIN).is_err() {
                        self.close_conn(id);
                        return;
                    }
                    self.arm_timer(id, class);
                    return;
                }
                Parsed::Bad(message) => {
                    // Protocol violation: the stream position is
                    // unknowable, so answer once and close.
                    let e = ServiceError::bad_request(format!("malformed HTTP: {message}"));
                    self.refuse(id, None, None, e);
                }
            }
            // A synchronous response was queued this iteration: spend
            // budget, and once it is gone yield so other connections and
            // the deadline sweep get the poll thread.
            sync_budget -= 1;
            if sync_budget == 0 {
                self.redrive.push(id);
                return;
            }
        }
    }

    /// Deadline parse, admission control and the cache probe, then
    /// hand-off to the pool. Returns whether the poll thread answered the
    /// request itself (a cache hit, 400, 429 or 500): the response then
    /// sits in the write buffer, not yet flushed.
    fn begin_dispatch(&mut self, id: u64, req: Request) -> bool {
        let keep_alive = req.keep_alive();
        let deadline = match parse_deadline(&req) {
            Ok(d) => d,
            Err(e) => {
                self.refuse(id, Some(&req), None, e);
                return true;
            }
        };
        if self.pending.load(Ordering::SeqCst) >= self.cfg.max_pending {
            self.refuse(id, Some(&req), deadline, ServiceError::overloaded());
            return true;
        }
        // A health probe or a cached select is answered here, without a
        // dispatch round trip.
        // A zero budget is expired before any worker could start it, so it
        // goes on to the worker's 504. Like a worker, the probe survives a
        // panic with a structured 500.
        if deadline.is_none_or(|d| d.ms != 0) {
            let probe = AssertUnwindSafe(|| answer_cached(self.state, &req, deadline));
            let answered = catch_unwind(probe).unwrap_or_else(|_| {
                let resp = ServiceError::handler_panicked().to_response();
                Some(finish(self.state, By::Loop(Some(&req)), deadline, resp))
            });
            if let Some(resp) = answered {
                self.queue_response(id, &resp, keep_alive);
                return true;
            }
        }
        self.pending.fetch_add(1, Ordering::SeqCst);
        // Deregister while the dispatch runs: no read backpressure games,
        // and an unmaskable EPOLLHUP cannot spin the poll thread.
        let _ = self.set_interest(id, 0);
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.busy = true;
            conn.timer = TimerClass::None;
        }
        let job = Job {
            id,
            req,
            keep_alive,
            deadline,
        };
        // The receiver outlives the loop, so this send cannot fail; were it
        // to, the connection would be closed rather than left busy.
        if self.job_tx.send(job).is_err() {
            self.pending.fetch_sub(1, Ordering::SeqCst);
            self.close_conn(id);
        }
        false
    }

    /// Queues a response the poll thread produced itself (a cache hit,
    /// 400/408/429/500) into the connection's write buffer; `drive` flushes
    /// it.
    fn queue_response(&mut self, id: u64, resp: &Response, keep_alive: bool) {
        let mut bytes = Vec::new();
        // Writing into a Vec cannot fail.
        let _ = resp.write_to(&mut bytes, keep_alive);
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        conn.write.set(bytes);
        conn.close_after_write = !keep_alive;
    }

    /// Queues the loop's own answer `e` to `req`; with no parsed request
    /// (`None`) the connection closes after it.
    fn refuse(&mut self, id: u64, req: Option<&Request>, d: Option<Deadline>, e: ServiceError) {
        let resp = finish(self.state, By::Loop(req), d, e.to_response());
        self.queue_response(id, &resp, req.is_some_and(Request::keep_alive));
    }

    /// Applies responses the dispatch pool queued.
    fn apply_completions(&mut self) {
        let done = {
            let mut guard = self.completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        for d in done {
            let Some(conn) = self.conns.get_mut(&d.id) else {
                continue; // connection died while its request ran
            };
            conn.busy = false;
            conn.write.set(d.bytes);
            conn.close_after_write = d.close;
            self.drive(d.id);
        }
    }

    /// A deadline passed: disarm it, then act on the connection's state.
    /// A stuck write, an idle connection and a stall before the head close
    /// silently; a stall after the head was parsed earns a 408 (the peer
    /// committed to a request).
    fn expire(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let class = std::mem::replace(&mut conn.timer, TimerClass::None);
        let timeout_408 = conn.write.is_empty() && conn.parser.head_parsed();
        let m = self.state.metrics();
        match class {
            TimerClass::None => {}
            TimerClass::Idle => m.timer_expirations_idle.inc(),
            TimerClass::Request => m.timer_expirations_request.inc(),
            TimerClass::Write => m.timer_expirations_write.inc(),
        }
        if !timeout_408 {
            self.close_conn(id);
            return;
        }
        // The deadline passed before a full request parsed: no request to
        // name.
        self.refuse(id, None, None, ServiceError::request_timeout());
        self.drive(id);
    }

    fn close_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        if conn.interest != 0 {
            let _ = self.poller.del(conn.stream.as_raw_fd());
        }
        // Dropping the stream closes the fd (and clears any leftover
        // registration kernel-side).
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts at most `cap` bytes per call, then blocks.
    struct Trickle {
        out: Vec<u8>,
        cap: usize,
        budget: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            let n = buf.len().min(self.cap).min(self.budget);
            self.out.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_survives_partial_writes_at_every_boundary() {
        let payload: Vec<u8> = (0u8..=255).collect();
        for cap in 1..payload.len() + 1 {
            // Each round the socket accepts exactly `cap` bytes then
            // blocks, exercising the resume path at every boundary.
            let mut w = Trickle {
                out: Vec::new(),
                cap,
                budget: cap,
            };
            let mut wb = WriteBuf::default();
            wb.set(payload.clone());
            let mut rounds = 0;
            loop {
                match wb.write_to(&mut w) {
                    WriteOutcome::Done => break,
                    WriteOutcome::Pending => w.budget = cap,
                    WriteOutcome::Error => panic!("trickle never errors"),
                }
                rounds += 1;
                assert!(rounds < 10_000);
            }
            assert_eq!(w.out, payload, "cap {cap} corrupted the stream");
            assert!(wb.is_empty());
        }
    }

    #[test]
    fn write_buf_reports_pending_and_resumes() {
        let payload = b"HTTP/1.1 200 OK\r\n\r\nhello".to_vec();
        let mut w = Trickle {
            out: Vec::new(),
            cap: 3,
            budget: 7,
        };
        let mut wb = WriteBuf::default();
        wb.set(payload.clone());
        assert!(matches!(wb.write_to(&mut w), WriteOutcome::Pending));
        assert_eq!(w.out.len(), 7);
        assert!(!wb.is_empty());
        w.budget = usize::MAX;
        assert!(matches!(wb.write_to(&mut w), WriteOutcome::Done));
        assert_eq!(w.out, payload);
    }

    #[test]
    fn request_and_write_deadlines_are_pinned_and_idle_refreshes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn::new(stream);
        assert!(!conn.is_due(u64::MAX), "a new connection has no deadline");

        conn.arm(TimerClass::Idle, 0, 500);
        conn.arm(TimerClass::Idle, 300, 500);
        assert!(!conn.is_due(799), "an idle window refreshes");
        assert!(conn.is_due(800));

        // The first byte of a request pins its window: more bytes later
        // do not move it.
        conn.arm(TimerClass::Request, 400, 200);
        conn.arm(TimerClass::Request, 550, 200);
        assert!(!conn.is_due(599));
        assert!(conn.is_due(600), "a trickling peer cannot extend it");

        // A blocked write pins a window of its own.
        conn.arm(TimerClass::Write, 700, 200);
        conn.arm(TimerClass::Write, 850, 200);
        assert!(!conn.is_due(899));
        assert!(conn.is_due(900));

        conn.timer = TimerClass::None;
        assert!(!conn.is_due(u64::MAX), "a running dispatch has no deadline");
    }
}
