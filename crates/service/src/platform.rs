//! Platform layer: the `epoll` bindings of the readiness event loop.
//!
//! `std` already links the C library, which exports the three functions
//! the event loop needs (`epoll_create1`, `epoll_ctl`, `epoll_wait`). The
//! `sys` module declares them in one `extern` block, the workspace's only
//! `unsafe` surface, and [`Poller`] holds the epoll instance in an
//! `OwnedFd`, whose drop closes it. Every target other than Linux gets a
//! stub whose [`Poller::new`] fails with `Unsupported`, so the crate still
//! builds there but serving fails.
//!
//! Only `epoll` itself needs these bindings: non-blocking mode, accept,
//! read, and write all go through `std::net`, so the sockets stay ordinary
//! `TcpStream`s owned by safe code.

/// Readable (or: a peer hung up and the final read will report it).
pub const EPOLLIN: u32 = 0x001;
/// Writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition — always reported, never requested.
pub const EPOLLERR: u32 = 0x008;
/// Peer hung up — always reported, never requested.
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;

/// `struct epoll_event` as the C library lays it out: packed on x86_64
/// (12 bytes, `data` unaligned, glibc's `__EPOLL_PACKED`), naturally
/// aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// The readiness mask the kernel reported (copied by value out of the
    /// possibly-packed struct).
    pub fn ready(&self) -> u32 {
        self.events
    }

    /// The caller-chosen token registered with the fd.
    pub fn token(&self) -> u64 {
        self.data
    }
}

/// An epoll instance. Registered fds are identified by caller-chosen `u64`
/// tokens; the instance's fd is an `OwnedFd` on Linux, closed on drop.
pub struct Poller {
    epfd: sys::Fd,
}

impl Poller {
    /// Creates an epoll instance (`EPOLL_CLOEXEC`). Fails with
    /// `Unsupported` on targets without epoll.
    pub fn new() -> std::io::Result<Poller> {
        let epfd = sys::create(EPOLL_CLOEXEC)?;
        Ok(Poller { epfd })
    }

    /// Registers `fd` for level-triggered notification under `token`.
    pub fn add(&self, fd: i32, token: u64, interest: u32) -> std::io::Result<()> {
        sys::ctl(&self.epfd, EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Replaces the interest mask (and token) of a registered `fd`.
    pub fn modify(&self, fd: i32, token: u64, interest: u32) -> std::io::Result<()> {
        sys::ctl(&self.epfd, EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Unregisters `fd`.
    pub fn del(&self, fd: i32) -> std::io::Result<()> {
        sys::ctl(&self.epfd, EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness or `timeout_ms` (−1 = forever), filling
    /// `events`; returns how many entries are valid. `EINTR` reads as an
    /// empty wake-up so callers never see a spurious error from signals.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        match sys::wait(&self.epfd, events, timeout_ms) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(0),
            result => result,
        }
    }
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    //! The C library's epoll functions. Each returns −1 and sets `errno`
    //! on failure, which `io::Error::last_os_error` reads.

    use super::EpollEvent;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::os::raw::c_int;

    pub use std::os::fd::OwnedFd as Fd;

    // SAFETY: the signatures match <sys/epoll.h>, and `EpollEvent` has the
    // layout of its `struct epoll_event`.
    unsafe extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(epfd: c_int, events: *mut EpollEvent, max: c_int, timeout: c_int) -> c_int;
    }

    /// The call's result, or the `errno` it left when it returned −1.
    fn check(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub fn create(flags: c_int) -> io::Result<Fd> {
        // SAFETY: epoll_create1 takes only a flags word; no pointers.
        let fd = check(unsafe { epoll_create1(flags) })?;
        // SAFETY: `fd` is a descriptor epoll_create1 just opened, and nothing
        // else owns it.
        Ok(unsafe { Fd::from_raw_fd(fd) })
    }

    pub fn ctl(epfd: &Fd, op: c_int, fd: c_int, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` is a live epoll_event for the duration of this
        // synchronous call; DEL ignores the pointer but gets a valid one
        // anyway (pre-2.6.9 kernels required it).
        check(unsafe { epoll_ctl(epfd.as_raw_fd(), op, fd, &mut ev) }).map(|_| ())
    }

    pub fn wait(epfd: &Fd, events: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
        // epoll_wait rejects a buffer of no entries with EINVAL.
        let max = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
        if max == 0 {
            return Ok(0);
        }
        let (epfd, buf) = (epfd.as_raw_fd(), events.as_mut_ptr());
        // SAFETY: the kernel fills at most `max` entries of the caller's
        // live mutable slice, which holds at least that many.
        let count = check(unsafe { epoll_wait(epfd, buf, max, timeout_ms) })?;
        Ok(count as usize)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Stub for targets without epoll: creating a poller fails with
    //! `Unsupported`, so [`crate::server::Server::run`] returns that error.
    //! With no poller, the other entry points cannot be reached.

    use super::EpollEvent;

    /// The fd of an epoll instance, of which this target has none.
    pub enum Fd {}

    pub fn create(_flags: i32) -> std::io::Result<Fd> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "epoll is only available on Linux",
        ))
    }

    pub fn ctl(epfd: &Fd, _op: i32, _fd: i32, _interest: u32, _token: u64) -> std::io::Result<()> {
        match *epfd {}
    }

    pub fn wait(epfd: &Fd, _events: &mut [EpollEvent], _timeout_ms: i32) -> std::io::Result<usize> {
        match *epfd {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn poller_reports_listener_readability() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 7, EPOLLIN).unwrap();

        let mut events = vec![EpollEvent::default(); 8];
        // Nothing pending: a zero timeout returns immediately with no events.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

        // A connect makes the listener readable.
        let addr = listener.local_addr().unwrap();
        let mut peer = TcpStream::connect(addr).unwrap();
        let n = poller.wait(&mut events, 2_000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].ready() & EPOLLIN, 0);

        // Accept, register the conn, and see its readability too.
        let (conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        poller.add(conn.as_raw_fd(), 9, EPOLLIN).unwrap();
        peer.write_all(b"x").unwrap();
        let n = poller.wait(&mut events, 2_000).unwrap();
        assert!(n >= 1);
        assert!(events.iter().take(n).any(|e| e.token() == 9));

        // Interest can be narrowed to nothing and the fd deleted.
        poller.modify(conn.as_raw_fd(), 9, 0).unwrap();
        poller.del(conn.as_raw_fd()).unwrap();
    }
}
