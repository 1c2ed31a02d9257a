//! Platform layer: `libc`-free raw `epoll` bindings for the readiness
//! event loop.
//!
//! The offline build has no `libc`/`mio` crates, so the four syscalls the
//! event loop needs (`epoll_create1`, `epoll_ctl`, `epoll_pwait`, `close`)
//! are issued directly via inline assembly on Linux x86_64/aarch64 — the
//! workspace's only `unsafe` surface, confined to the [`sys`] module. Every
//! other target gets a stub whose [`Poller::new`] fails with
//! `Unsupported`, so the crate still builds there but serving fails.
//!
//! Only `epoll` itself needs raw syscalls: non-blocking mode, accept, read,
//! and write all go through `std::net`, so the sockets stay ordinary
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
const EPOLL_CLOEXEC: usize = 0x80000;

/// `struct epoll_event` exactly as the kernel ABI lays it out: packed on
/// x86_64 (12 bytes, `data` unaligned), naturally aligned elsewhere.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct epoll_event` exactly as the kernel ABI lays it out.
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
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
/// tokens; the fd is closed on drop.
pub struct Poller {
    epfd: i32,
}

impl Poller {
    /// Creates an epoll instance (`EPOLL_CLOEXEC`). Fails with
    /// `Unsupported` on targets without the raw-syscall shims.
    pub fn new() -> std::io::Result<Poller> {
        let epfd = sys::epoll_create1(EPOLL_CLOEXEC)?;
        Ok(Poller { epfd })
    }

    /// Registers `fd` for level-triggered notification under `token`.
    pub fn add(&self, fd: i32, token: u64, interest: u32) -> std::io::Result<()> {
        sys::epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Replaces the interest mask (and token) of a registered `fd`.
    pub fn modify(&self, fd: i32, token: u64, interest: u32) -> std::io::Result<()> {
        sys::epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Unregisters `fd`.
    pub fn del(&self, fd: i32) -> std::io::Result<()> {
        sys::epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness or `timeout_ms` (−1 = forever), filling
    /// `events`; returns how many entries are valid. `EINTR` reads as an
    /// empty wake-up so callers never see a spurious error from signals.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        sys::epoll_pwait(self.epfd, events, timeout_ms)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close(self.epfd);
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
mod sys {
    //! The raw syscall shims. Register conventions per arch:
    //! x86_64 — nr in `rax`, args in `rdi rsi rdx r10 r8 r9`, `syscall`
    //! clobbers `rcx`/`r11`; aarch64 — nr in `x8`, args in `x0..x5`,
    //! `svc 0`. Both return the result (or `-errno`) in the first register.

    use super::EpollEvent;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const CLOSE: usize = 3;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EPOLL_CREATE1: usize = 291;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const CLOSE: usize = 57;
    }

    /// Issues one syscall with up to six arguments, returning the kernel's
    /// raw result (negative = `-errno`).
    ///
    /// SAFETY: arguments must be valid for syscall `n` — live fds and, for
    /// `epoll_pwait`, a caller-owned mutable `EpollEvent` buffer.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: the `syscall` instruction with the Linux x86_64 register
        // convention; rcx/r11 are declared clobbered as the ABI requires,
        // and argument validity is the caller's contract (above).
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") f,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// Issues one syscall with up to six arguments, returning the kernel's
    /// raw result (negative = `-errno`).
    ///
    /// SAFETY: same contract as the x86_64 variant — arguments must be
    /// valid for syscall `n`.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: `svc 0` with the Linux aarch64 register convention;
        // argument validity is the caller's contract (above).
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") n,
                inlateout("x0") a => ret,
                in("x1") b,
                in("x2") c,
                in("x3") d,
                in("x4") e,
                in("x5") f,
                options(nostack),
            );
        }
        ret
    }

    /// Maps a raw kernel result onto `io::Result`.
    fn check(ret: isize) -> std::io::Result<isize> {
        if ret < 0 {
            Err(std::io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create1(flags: usize) -> std::io::Result<i32> {
        // SAFETY: epoll_create1 takes only a flags word; no pointers.
        let ret = unsafe { syscall6(nr::EPOLL_CREATE1, flags, 0, 0, 0, 0, 0) };
        check(ret).map(|fd| fd as i32)
    }

    pub fn epoll_ctl(
        epfd: i32,
        op: i32,
        fd: i32,
        interest: u32,
        token: u64,
    ) -> std::io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        let ev_ptr = std::ptr::addr_of_mut!(ev);
        // SAFETY: `ev` is a live, kernel-ABI epoll_event for the duration
        // of this synchronous call; DEL ignores the pointer but gets a
        // valid one anyway (pre-2.6.9 kernels required it).
        let ret = unsafe {
            syscall6(
                nr::EPOLL_CTL,
                epfd as usize,
                op as usize,
                fd as usize,
                ev_ptr as usize,
                0,
                0,
            )
        };
        check(ret).map(|_| ())
    }

    pub fn epoll_pwait(
        epfd: i32,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> std::io::Result<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        // epoll_pwait (aarch64 has no plain epoll_wait); a null sigmask
        // means "don't touch the signal mask" and makes sigsetsize moot.
        // SAFETY: the pointer/len pair describes the caller's live mutable
        // slice, which the kernel fills up to `len` entries; no other
        // pointers are passed (sigmask is null).
        let ret = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                epfd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0,
                0,
            )
        };
        match check(ret) {
            Ok(count) => Ok(count as usize),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }

    pub fn close(fd: i32) {
        // SAFETY: close takes only the fd; the caller (Poller::drop) owns
        // it and never reuses it afterwards.
        let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    //! Stub for targets without the raw-syscall shims: every entry point
    //! fails with `Unsupported`, so [`crate::server::Server::run`] returns
    //! that error.

    use super::EpollEvent;

    fn unsupported<T>() -> std::io::Result<T> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "epoll is only available on Linux x86_64/aarch64",
        ))
    }

    pub fn epoll_create1(_flags: usize) -> std::io::Result<i32> {
        unsupported()
    }

    pub fn epoll_ctl(
        _epfd: i32,
        _op: i32,
        _fd: i32,
        _interest: u32,
        _token: u64,
    ) -> std::io::Result<()> {
        unsupported()
    }

    pub fn epoll_pwait(
        _epfd: i32,
        _events: &mut [EpollEvent],
        _timeout_ms: i32,
    ) -> std::io::Result<usize> {
        unsupported()
    }

    pub fn close(_fd: i32) {}
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
