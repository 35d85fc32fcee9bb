//! The OS readiness backend behind [`Poller`](crate::net::Poller):
//! `epoll(7)` on Linux and Android, `kqueue(2)` on 64-bit macOS, iOS,
//! OpenBSD and DragonFly. Exactly one compiles per target — the crate's
//! build script names it as `cfg(poller = "…")` — and [`Native`] is
//! that one.
//!
//! The workspace builds with no registry access, so there is no `libc`
//! crate to lean on: the handful of syscall wrappers each backend needs
//! are declared here as `extern "C"` prototypes against the platform's
//! C library (which `std` already links). Every struct layout and
//! constant is the kernel ABI for the targets it is compiled on, and a
//! `const` size assertion beside each FFI struct fails the build when
//! a declaration drifts from it.
//!
//! Both backends keep the same level-triggered contract:
//!
//! * `add` / `modify` / `remove` manage `(fd, token, interest)`
//!   registrations;
//! * `wait` blocks up to a timeout and appends one
//!   [`Event`](crate::net::Event) per ready registration;
//! * readiness is *level*-triggered: an fd with unread input (or free
//!   send-buffer space under write interest) keeps reporting ready, so
//!   a frontend that processes a bounded amount per wake never loses
//!   events.

#[cfg(poller = "epoll")]
pub(crate) use epoll::Epoll as Native;
#[cfg(poller = "kqueue")]
pub(crate) use kqueue::Kqueue as Native;

#[cfg(poller = "epoll")]
mod epoll {
    //! Linux `epoll(7)` backend.

    use crate::net::{Event, Interest};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    // Kernel ABI (see `linux/eventpoll.h`). On x86 the struct is packed
    // (a 12-byte layout the kernel keeps for compatibility); every other
    // architecture uses natural alignment (16 bytes, data at offset 8).
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Copy, Clone)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    const _: () = assert!(
        std::mem::size_of::<EpollEvent>()
            == if cfg!(any(target_arch = "x86", target_arch = "x86_64")) { 12 } else { 16 }
    );

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    fn interest_mask(interest: Interest) -> u32 {
        let mut mask = 0;
        if interest.readable {
            mask |= EPOLLIN;
        }
        if interest.writable {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// A `timeout` as whole milliseconds for `epoll_wait`, rounded *up*
    /// so sub-millisecond waits don't spin, clamped to `i32::MAX`
    /// (`None` maps to the kernel's "wait forever" sentinel, −1).
    fn timeout_millis(timeout: Option<Duration>) -> i32 {
        match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis();
                let rounded = if d.subsec_nanos() % 1_000_000 != 0 { ms + 1 } else { ms };
                i32::try_from(rounded).unwrap_or(i32::MAX)
            }
        }
    }

    /// One epoll instance. The fd is an [`OwnedFd`], so `std` closes it
    /// on drop — no `close(2)` prototype needed.
    pub(crate) struct Epoll {
        epfd: OwnedFd,
        buf: Vec<EpollEvent>,
    }

    impl Epoll {
        pub(crate) fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers; a non-negative
            // return is a fresh fd this process owns exclusively, so
            // wrapping it in OwnedFd transfers that ownership once.
            let raw = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if raw < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `raw` was just returned by epoll_create1 and is
            // owned by no other wrapper.
            let epfd = unsafe { OwnedFd::from_raw_fd(raw) };
            Ok(Epoll { epfd, buf: vec![EpollEvent { events: 0, data: 0 }; 1024] })
        }

        fn ctl(&mut self, op: i32, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
            let mut ev = event.unwrap_or(EpollEvent { events: 0, data: 0 });
            // SAFETY: `ev` is a live stack value for the duration of the
            // call; the kernel only reads it (and ignores it for DEL).
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(crate) fn add(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let ev = EpollEvent { events: interest_mask(interest), data: token as u64 };
            self.ctl(EPOLL_CTL_ADD, fd, Some(ev))
        }

        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            let ev = EpollEvent { events: interest_mask(interest), data: token as u64 };
            self.ctl(EPOLL_CTL_MOD, fd, Some(ev))
        }

        pub(crate) fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        pub(crate) fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let millis = timeout_millis(timeout);
            // SAFETY: `buf` is a live Vec whose length bounds maxevents,
            // so the kernel writes only within the allocation.
            let n = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    millis,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for ev in &self.buf[..n as usize] {
                // Copy out of the (possibly packed) struct before use.
                let (events, data) = (ev.events, ev.data);
                // Error/hangup conditions surface as readable+writable so
                // the owner's next read/write observes the real error.
                let broken = events & (EPOLLERR | EPOLLHUP) != 0;
                out.push(Event {
                    token: data as usize,
                    readable: events & EPOLLIN != 0 || broken,
                    writable: events & EPOLLOUT != 0 || broken,
                });
            }
            Ok(n as usize)
        }
    }
}

#[cfg(poller = "kqueue")]
mod kqueue {
    //! `kqueue(2)` backend. Read and write interest are separate kernel
    //! filters, registered and deleted independently.
    //!
    //! Only targets whose `struct kevent` is the 32-byte layout below
    //! compile it. FreeBSD ≥ 12 (whose default `kevent` symbol takes a
    //! 64-byte struct with `ext[4]`) and NetBSD (a different struct and
    //! prototype) are deliberately left out.

    use crate::net::{Event, Interest};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const _: () = assert!(std::mem::size_of::<Timespec>() == 16);

    // The 64-bit `struct kevent` of macOS/iOS, OpenBSD and DragonFly
    // (ident and udata are pointer-sized; data is pointer-sized and
    // signed).
    #[repr(C)]
    #[derive(Copy, Clone)]
    struct KEvent {
        ident: usize,
        filter: i16,
        flags: u16,
        fflags: u32,
        data: isize,
        udata: usize,
    }
    const _: () = assert!(std::mem::size_of::<KEvent>() == 32);

    const EVFILT_READ: i16 = -1;
    const EVFILT_WRITE: i16 = -2;
    const EV_ADD: u16 = 0x0001;
    const EV_DELETE: u16 = 0x0002;
    const EV_ERROR: u16 = 0x4000;
    const EV_EOF: u16 = 0x8000;

    extern "C" {
        fn kqueue() -> i32;
        fn kevent(
            kq: i32,
            changelist: *const KEvent,
            nchanges: i32,
            eventlist: *mut KEvent,
            nevents: i32,
            timeout: *const Timespec,
        ) -> i32;
    }

    /// One kqueue instance plus the userspace view of registrations
    /// (needed to diff interest on modify/remove).
    pub(crate) struct Kqueue {
        kq: OwnedFd,
        registered: HashMap<RawFd, (usize, Interest)>,
        buf: Vec<KEvent>,
    }

    impl Kqueue {
        pub(crate) fn new() -> io::Result<Kqueue> {
            // SAFETY: kqueue takes no arguments; a non-negative return
            // is a fresh fd owned exclusively by this process.
            let raw = unsafe { kqueue() };
            if raw < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `raw` was just returned by kqueue and is owned by
            // no other wrapper.
            let kq = unsafe { OwnedFd::from_raw_fd(raw) };
            Ok(Kqueue {
                kq,
                registered: HashMap::new(),
                buf: vec![
                    KEvent { ident: 0, filter: 0, flags: 0, fflags: 0, data: 0, udata: 0 };
                    1024
                ],
            })
        }

        fn change(&mut self, fd: RawFd, filter: i16, flags: u16, token: usize) -> io::Result<()> {
            let change = KEvent {
                ident: fd as usize,
                filter,
                flags,
                fflags: 0,
                data: 0,
                udata: token,
            };
            // SAFETY: the changelist points at one live stack value; no
            // eventlist is supplied, so the kernel writes nothing back.
            let rc = unsafe { kevent(self.kq.as_raw_fd(), &change, 1, std::ptr::null_mut(), 0, std::ptr::null()) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn apply(&mut self, fd: RawFd, token: usize, interest: Interest, prior: Interest) -> io::Result<()> {
            if interest.readable {
                self.change(fd, EVFILT_READ, EV_ADD, token)?;
            } else if prior.readable {
                self.change(fd, EVFILT_READ, EV_DELETE, token)?;
            }
            if interest.writable {
                self.change(fd, EVFILT_WRITE, EV_ADD, token)?;
            } else if prior.writable {
                self.change(fd, EVFILT_WRITE, EV_DELETE, token)?;
            }
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn add(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.apply(fd, token, interest, Interest::NONE)
        }

        pub(crate) fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let prior = self.registered.get(&fd).map(|(_, i)| *i).unwrap_or(Interest::NONE);
            self.apply(fd, token, interest, prior)
        }

        pub(crate) fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            if let Some((token, prior)) = self.registered.remove(&fd) {
                self.apply(fd, token, Interest::NONE, prior)?;
                self.registered.remove(&fd);
            }
            Ok(())
        }

        pub(crate) fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            let ts = timeout.map(|d| Timespec {
                tv_sec: d.as_secs() as i64,
                tv_nsec: d.subsec_nanos() as i64,
            });
            let ts_ptr = ts.as_ref().map_or(std::ptr::null(), |t| t as *const Timespec);
            // SAFETY: `buf` is a live Vec whose length bounds nevents,
            // so the kernel writes only within the allocation; the
            // optional timespec outlives the call.
            let n = unsafe {
                kevent(
                    self.kq.as_raw_fd(),
                    std::ptr::null(),
                    0,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    ts_ptr,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for ev in &self.buf[..n as usize] {
                let broken = ev.flags & (EV_ERROR | EV_EOF) != 0;
                out.push(Event {
                    token: ev.udata,
                    readable: ev.filter == EVFILT_READ || broken,
                    writable: ev.filter == EVFILT_WRITE || broken,
                });
            }
            Ok(n as usize)
        }
    }
}
