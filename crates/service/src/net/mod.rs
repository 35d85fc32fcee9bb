//! Readiness polling for the nonblocking server frontend.
//!
//! [`Poller`] owns this target's one native readiness facility —
//! `epoll(7)` on Linux and Android, `kqueue(2)` on 64-bit macOS, iOS,
//! OpenBSD and DragonFly — behind a level-triggered
//! `add`/`modify`/`remove`/`wait` interface over `(fd, token, interest)`
//! registrations (see `sys` for the backend contract and FFI
//! details). The choice is made at compile time by the crate's build
//! script; on any other target this module does not compile and
//! [`Server::run`](crate::Server::run) returns
//! [`io::ErrorKind::Unsupported`]. [`Waker`] is the cross-thread
//! wake-up: pool jobs finishing a request nudge the event loop out of
//! `wait` through a socketpair registered like any other connection.

pub(crate) mod frontend;
mod sys;

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// What readiness a registration asks to be told about.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or a peer hangup/error,
    /// which the poller folds into readability so the owner's next
    /// read observes it).
    pub readable: bool,
    /// Wake when the fd can accept more bytes without blocking.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only — the steady state of an idle connection.
    pub const READABLE: Interest = Interest { readable: true, writable: false };
    /// Write readiness only.
    pub const WRITABLE: Interest = Interest { readable: false, writable: true };
    /// Neither direction (used internally when diffing registrations).
    pub const NONE: Interest = Interest { readable: false, writable: false };
}

/// One readiness report from [`Poller::wait`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// The fd is readable (or broken — read to find out which).
    pub readable: bool,
    /// The fd is writable (or broken — write to find out which).
    pub writable: bool,
}

/// A level-triggered readiness poller over raw fds.
///
/// The caller keeps fd ownership; the poller only tracks interest. The
/// one protocol obligation is ordering: [`remove`](Poller::remove) an
/// fd *before* closing it, because the kernel-side interest tables key
/// on the open file description.
pub struct Poller {
    native: sys::Native,
}

impl Poller {
    /// Open a poller on this target's native backend.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller { native: sys::Native::new()? })
    }

    /// Register `fd` under `token`. One registration per fd; re-adding
    /// an fd without removing it first is a backend error.
    pub fn add(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.native.add(fd, token, interest)
    }

    /// Change an existing registration's token or interest.
    pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.native.modify(fd, token, interest)
    }

    /// Drop `fd`'s registration. Call before closing the fd.
    pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        self.native.remove(fd)
    }

    /// Block until readiness or `timeout` (`None` = forever), appending
    /// events to `out`. Returns how many were appended; 0 on timeout.
    /// A signal interruption reports as 0 events, never as an error.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        self.native.wait(out, timeout)
    }
}

/// The readable half of a wake-up socketpair, registered with the event
/// loop under a reserved token. Worker threads hold [`WakeHandle`]
/// clones; each [`WakeHandle::wake`] makes the loop's next (or current)
/// [`Poller::wait`] report the waker token readable.
pub struct Waker {
    rx: UnixStream,
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Build a waker and register its read end with `poller` under
    /// `token`.
    pub fn new(poller: &mut Poller, token: usize) -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        poller.add(rx.as_raw_fd(), token, Interest::READABLE)?;
        Ok(Waker { rx, tx: Arc::new(tx) })
    }

    /// A cheap, cloneable handle for waking from other threads.
    pub fn handle(&self) -> WakeHandle {
        WakeHandle { tx: Arc::clone(&self.tx) }
    }

    /// Consume all pending wake bytes so the (level-triggered) waker
    /// token stops reporting readable. Call once per observed wake.
    pub fn drain(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match self.rx.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
    }
}

/// Cloneable wake-up handle for a [`Waker`]; safe to call from any
/// thread.
#[derive(Clone)]
pub struct WakeHandle {
    tx: Arc<UnixStream>,
}

impl WakeHandle {
    /// Nudge the event loop. Best-effort by design: a full socketpair
    /// buffer means wake-ups are already pending, which is exactly the
    /// effect this call wants.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn readable_after_peer_writes() {
        let mut poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        poller.add(b.as_raw_fd(), 7, Interest::READABLE).unwrap();
        let mut events = Vec::new();

        // Nothing to read yet: the wait must time out.
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "spurious event {events:?}");

        a.write_all(b"hi").unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(n >= 1, "no event after write");
        assert!(events.iter().any(|e| e.token == 7 && e.readable), "{events:?}");
        poller.remove(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn level_triggered_until_drained() {
        let mut poller = Poller::new().unwrap();
        let (mut a, mut b) = pair();
        poller.add(b.as_raw_fd(), 1, Interest::READABLE).unwrap();
        a.write_all(b"x").unwrap();
        // Unread input keeps reporting — twice in a row.
        for _ in 0..2 {
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert!(events.iter().any(|e| e.token == 1 && e.readable));
        }
        // Draining silences it.
        let mut sink = [0u8; 8];
        let _ = b.read(&mut sink).unwrap();
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "{events:?}");
    }

    #[test]
    fn writable_interest_and_modify() {
        let mut poller = Poller::new().unwrap();
        let (a, _b) = pair();
        // A fresh socket with buffer space is immediately writable.
        poller.add(a.as_raw_fd(), 2, Interest::WRITABLE).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.writable), "{events:?}");

        // Downgrade to read interest: writability stops reporting.
        poller.modify(a.as_raw_fd(), 3, Interest::READABLE).unwrap();
        events.clear();
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "{events:?}");
    }

    #[test]
    fn removed_fd_is_silent() {
        let mut poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        poller.add(b.as_raw_fd(), 4, Interest::READABLE).unwrap();
        poller.remove(b.as_raw_fd()).unwrap();
        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "{events:?}");
    }

    #[test]
    fn waker_wakes_and_drains() {
        let mut poller = Poller::new().unwrap();
        let mut waker = Waker::new(&mut poller, 9).unwrap();
        let handle = waker.handle();
        let thread = std::thread::spawn(move || handle.wake());
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.readable), "{events:?}");
        thread.join().unwrap();
        waker.drain();
        events.clear();
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "waker not drained: {events:?}");
    }
}
