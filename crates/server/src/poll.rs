//! A minimal, safe wrapper over Linux `epoll` — the readiness engine
//! behind the reactor in [`crate::server`].
//!
//! The build is offline (no `libc` crate), so the syscalls the reactor
//! needs — `epoll_create1`, `epoll_ctl`, `epoll_wait`, `close`,
//! `socket`, `connect` — are bound here directly. This module is the **only**
//! place in the crate allowed to contain `unsafe`; everything it
//! exposes is a safe API: a [`Poller`] owning the epoll instance and
//! plain-data [`PollEvent`]s out of [`Poller::wait`].
//!
//! Registration is level-triggered. The reactor re-arms write interest
//! only while a connection has buffered output, so level-triggered
//! semantics cost nothing and avoid the lost-wakeup pitfalls of
//! edge-triggered mode.
//!
//! [`connect_nonblocking`] binds `socket` and `connect` too: `std` can
//! only dial blocking, and a follower's dial to a silent leader host
//! must not stall the reactor that serves its reads.
#![allow(unsafe_code)]

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{FromRawFd, RawFd};
use std::time::Duration;

const AF_INET: i32 = 2;
const AF_INET6: i32 = 10;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0o4000;
const SOCK_CLOEXEC: i32 = 0o2_000_000;
const EINPROGRESS: i32 = 115;

const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel ABI
/// packs it there so 32-bit and 64-bit layouts match); natural layout
/// everywhere else.
#[derive(Clone, Copy)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
}

/// Starts a non-blocking TCP connect to `addr` and returns the socket at
/// once. The connect completes in the background: register the stream
/// for write interest, and when it is writable read the outcome with
/// [`TcpStream::take_error`].
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    // `struct sockaddr_in` / `sockaddr_in6`: family in host order, port
    // and address in network order.
    let (domain, raw) = match addr {
        SocketAddr::V4(a) => {
            let mut raw = vec![0u8; 16];
            raw[..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
            raw[2..4].copy_from_slice(&a.port().to_be_bytes());
            raw[4..8].copy_from_slice(&a.ip().octets());
            (AF_INET, raw)
        }
        SocketAddr::V6(a) => {
            let mut raw = vec![0u8; 28];
            raw[..2].copy_from_slice(&(AF_INET6 as u16).to_ne_bytes());
            raw[2..4].copy_from_slice(&a.port().to_be_bytes());
            raw[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
            raw[8..24].copy_from_slice(&a.ip().octets());
            raw[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            (AF_INET6, raw)
        }
    };
    let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // The stream owns the descriptor from here on, so every error path
    // below closes it.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let len = u32::try_from(raw.len()).expect("sockaddr length fits u32");
    match cvt(unsafe { connect(fd, raw.as_ptr(), len) }) {
        Ok(_) => Ok(stream),
        Err(e) if e.raw_os_error() == Some(EINPROGRESS) => Ok(stream),
        Err(e) => Err(e),
    }
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PollEvent {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// The descriptor has bytes to read (or a pending accept).
    pub readable: bool,
    /// The descriptor can take more bytes.
    pub writable: bool,
    /// The peer closed or the descriptor errored; the connection is
    /// done once drained.
    pub hangup: bool,
}

/// An owned epoll instance. Descriptors are registered with a caller
/// token that comes back verbatim in every [`PollEvent`]; the `Poller`
/// never closes registered descriptors, only its own epoll fd.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(
        &self,
        op: i32,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let mut interest = EPOLLRDHUP;
        if readable {
            interest |= EPOLLIN;
        }
        if writable {
            interest |= EPOLLOUT;
        }
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        let evp = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &raw mut ev
        };
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, evp) })?;
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest set.
    pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, readable, writable)
    }

    /// Re-arms an already-registered `fd` with a new interest set.
    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, readable, writable)
    }

    /// Deregisters `fd`. Safe to call for descriptors the kernel
    /// already dropped from the set (the error is swallowed — the
    /// reactor deregisters right before closing).
    pub fn delete(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, false, false);
    }

    /// Blocks until readiness or `timeout` (`None` = forever, rounded up
    /// to whole milliseconds), filling `events`. A signal wake-up
    /// retries; a timeout returns an empty vector.
    // Casts: CAPACITY (256) fits i32, the clamped timeout fits i32,
    // and `cvt` has already rejected negative returns before `n` is
    // widened to usize.
    #[allow(
        clippy::cast_possible_wrap,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    pub fn wait(&self, events: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        const CAPACITY: usize = 256;
        events.clear();
        // Rounded up, so a deadline a fraction of a millisecond away is
        // waited for rather than spun on.
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(t) => t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32,
        };
        let mut raw = [EpollEvent { events: 0, data: 0 }; CAPACITY];
        let n = loop {
            match cvt(unsafe {
                epoll_wait(self.epfd, raw.as_mut_ptr(), CAPACITY as i32, timeout_ms)
            }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &raw[..n] {
            // Copy out of the (possibly packed) struct before use.
            let (bits, token) = (ev.events, ev.data);
            events.push(PollEvent {
                token,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        let _ = unsafe { close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_readable_when_bytes_arrive() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        poller.add(b.as_raw_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();

        // Nothing pending: a zero timeout returns no events.
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");

        a.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn write_interest_is_rearmed_with_modify() {
        let poller = Poller::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        poller.add(a.as_raw_fd(), 1, true, false).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty(), "no interest armed yet: {events:?}");

        // An idle socket is immediately writable once we ask.
        poller.modify(a.as_raw_fd(), 1, true, true).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 1 && e.writable),
            "{events:?}"
        );

        // Level-triggered: it stays writable until disarmed.
        poller.modify(a.as_raw_fd(), 1, true, false).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(
            !events.iter().any(|e| e.writable),
            "write interest disarmed: {events:?}"
        );

        let mut buf = [0u8; 1];
        b.write_all(b"y").unwrap();
        let mut a2 = a;
        a2.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"y");
    }

    #[test]
    fn peer_close_raises_hangup() {
        let poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        poller.add(b.as_raw_fd(), 3, true, false).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1, "{events:?}");
        assert!(events[0].hangup, "{events:?}");
    }

    #[test]
    fn add_on_a_closed_fd_reports_the_error() {
        let poller = Poller::new().unwrap();
        // -1 is never a valid descriptor: EBADF, surfaced as an error
        // instead of being swallowed.
        let err = poller.add(-1, 1, true, false).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(9), "EBADF expected: {err}");
    }

    #[test]
    fn modify_on_an_unregistered_fd_reports_the_error() {
        let poller = Poller::new().unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        // Valid fd, but never added: ENOENT.
        let err = poller.modify(a.as_raw_fd(), 1, true, false).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(2), "ENOENT expected: {err}");
    }

    #[test]
    fn delete_on_an_invalid_fd_is_swallowed() {
        // The reactor deregisters right before closing; a descriptor
        // the kernel already dropped must not panic or error.
        let poller = Poller::new().unwrap();
        poller.delete(-1);
    }

    #[test]
    fn interrupted_wait_retries_until_readiness() {
        // Deliver a real SIGALRM to the waiting thread mid-wait:
        // epoll_wait returns EINTR (it is never auto-restarted,
        // signal(7)), and `wait` must retry instead of surfacing the
        // interrupt. The readiness byte arrives after the signal, so a
        // non-retrying implementation would error out before seeing it.
        extern "C" fn noop_handler(_sig: i32) {}
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
            fn pthread_self() -> usize;
            fn pthread_kill(thread: usize, sig: i32) -> i32;
        }
        const SIGALRM: i32 = 14;
        const SIG_ERR: usize = usize::MAX;
        let prev = unsafe { signal(SIGALRM, noop_handler as *const () as usize) };
        assert_ne!(prev, SIG_ERR, "installing the SIGALRM handler failed");

        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        poller.add(b.as_raw_fd(), 5, true, false).unwrap();

        let waiter = unsafe { pthread_self() };
        let interrupter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(unsafe { pthread_kill(waiter, SIGALRM) }, 0);
            std::thread::sleep(Duration::from_millis(30));
            a.write_all(b"x").unwrap();
            a // keep the write end open until the waiter saw the byte
        });

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(events.len(), 1, "{events:?}");
        assert!(events[0].readable, "{events:?}");
        drop(interrupter.join().unwrap());
    }

    #[test]
    fn nonblocking_connect_reports_its_outcome_as_writable() {
        use std::net::TcpListener;
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = connect_nonblocking(&addr).unwrap();
        poller.add(stream.as_raw_fd(), 1, false, true).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 1 && e.writable),
            "{events:?}"
        );
        assert!(stream.take_error().unwrap().is_none(), "connected");
        let (mut peer, _) = listener.accept().unwrap();
        let mut stream = stream;
        stream.write_all(b"x").unwrap();
        let mut buf = [0u8; 1];
        peer.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"x");

        // A port nobody listens on: the refusal arrives as an event,
        // and `take_error` names it.
        drop(listener);
        let refused = connect_nonblocking(&addr).unwrap();
        poller.add(refused.as_raw_fd(), 2, false, true).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 2 && e.hangup),
            "{events:?}"
        );
        assert!(refused.take_error().unwrap().is_some());
    }

    #[test]
    fn deregistered_fds_stop_reporting() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        poller.add(b.as_raw_fd(), 9, true, false).unwrap();
        a.write_all(b"z").unwrap();
        poller.delete(b.as_raw_fd());
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");
    }
}
