//! The readiness abstraction: one API over `epoll(7)` (Linux) and
//! `poll(2)` (everywhere).
//!
//! A [`Poller`] maps raw fds to opaque `u64` tokens and answers "which
//! tokens are ready, and for what" — nothing more. Registration is
//! level-triggered: a readable fd keeps reporting readable until drained,
//! which pairs with the reactor's read-until-`WouldBlock` discipline, and
//! write interest is only registered while a connection has pending
//! output, so an idle connection costs nothing per wait.

use crate::sys;
use std::io;
use std::os::fd::RawFd;

/// Which readiness classes a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd accepts writes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest (the steady state of an idle connection).
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Read + write interest (a connection with queued output).
    pub const READ_WRITE: Interest = Interest { readable: true, writable: true };
    /// Write-only interest (a parked connection still flushing replies).
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// No interest at all (a parked, fully flushed connection). The fd
    /// stays registered and both backends still report error, hangup and
    /// the peer's FIN: `poll` always surfaces `POLLERR`/`POLLHUP`, and on
    /// Linux both the `poll` request and the epoll mask keep the read-hangup
    /// bit (`POLLRDHUP`/`EPOLLRDHUP`), so a parked peer's close is never
    /// missed there. Other platforms' `poll` has no such bit: a parked
    /// peer's plain close surfaces only once read interest returns.
    pub const NONE: Interest = Interest { readable: false, writable: false };
}

/// One readiness report.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd can be read (or has hung up / errored; reading surfaces it).
    pub readable: bool,
    /// The fd can be written.
    pub writable: bool,
    /// Error/hangup condition; the owner should read to collect the
    /// specifics and then close.
    pub closed: bool,
}

/// Which backend [`Poller::new`] should pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PollerKind {
    /// `epoll` on Linux, `poll` elsewhere.
    #[default]
    Auto,
    /// Force the portable `poll(2)` backend (O(n) per wait; also the
    /// cross-check backend in tests).
    Poll,
    /// Force `epoll(7)`; errors on non-Linux platforms.
    Epoll,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(EpollBackend),
    Poll(PollBackend),
}

/// The readiness selector.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// Opens a selector of the requested kind.
    pub fn new(kind: PollerKind) -> io::Result<Self> {
        let backend = match kind {
            PollerKind::Poll => Backend::Poll(PollBackend::default()),
            #[cfg(target_os = "linux")]
            PollerKind::Auto | PollerKind::Epoll => Backend::Epoll(EpollBackend::new()?),
            #[cfg(not(target_os = "linux"))]
            PollerKind::Auto => Backend::Poll(PollBackend::default()),
            #[cfg(not(target_os = "linux"))]
            PollerKind::Epoll => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "epoll is Linux-only; use PollerKind::Auto or Poll",
                ))
            }
        };
        Ok(Self { backend })
    }

    /// Which backend actually runs (for telemetry/diagnostics).
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            Backend::Poll(_) => "poll",
        }
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.register(fd, token, interest),
            Backend::Poll(b) => b.register(fd, token, interest),
        }
    }

    /// Changes an existing registration's interest.
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.reregister(fd, token, interest),
            Backend::Poll(b) => b.reregister(fd, token, interest),
        }
    }

    /// Removes a registration. The fd may already be closed on the `poll`
    /// backend (it just drops the entry); `epoll` removes it from the
    /// kernel set (a closed fd was removed implicitly already).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.deregister(fd),
            Backend::Poll(b) => b.deregister(fd),
        }
    }

    /// Blocks up to `timeout_ms` for readiness, appending reports to
    /// `events` (cleared first). Returns the number of reports.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        events.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.wait(events, timeout_ms),
            Backend::Poll(b) => b.wait(events, timeout_ms),
        }
    }
}

// ---------------------------------------------------------------------------
// poll(2) backend: a flat pollfd array rebuilt lazily from registrations.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PollBackend {
    /// (fd, token, interest), insertion-ordered.
    regs: Vec<(RawFd, u64, Interest)>,
    fds: Vec<sys::PollFd>,
    dirty: bool,
}

impl PollBackend {
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.regs.iter().any(|(f, _, _)| *f == fd) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd already registered"));
        }
        self.regs.push((fd, token, interest));
        self.dirty = true;
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self.regs.iter_mut().find(|(f, _, _)| *f == fd) {
            Some(entry) => {
                entry.1 = token;
                entry.2 = interest;
                self.dirty = true;
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let before = self.regs.len();
        self.regs.retain(|(f, _, _)| *f != fd);
        self.dirty = true;
        if self.regs.len() == before {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        if self.dirty {
            self.fds.clear();
            for &(fd, _, interest) in &self.regs {
                // Requested on every registration, like `EPOLLRDHUP`.
                let mut ev = sys::POLLRDHUP;
                if interest.readable {
                    ev |= sys::POLLIN;
                }
                if interest.writable {
                    ev |= sys::POLLOUT;
                }
                self.fds.push(sys::PollFd { fd, events: ev, revents: 0 });
            }
            self.dirty = false;
        }
        for f in &mut self.fds {
            f.revents = 0;
        }
        let n = sys::sys_poll(&mut self.fds, timeout_ms)?;
        if n > 0 {
            for (f, &(_, token, _)) in self.fds.iter().zip(&self.regs) {
                let r = f.revents;
                if r == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: r & (sys::POLLIN | sys::POLLERR | sys::POLLHUP | sys::POLLRDHUP)
                        != 0,
                    writable: r & sys::POLLOUT != 0,
                    closed: r & (sys::POLLERR | sys::POLLHUP | sys::POLLRDHUP) != 0,
                });
            }
        }
        Ok(events.len())
    }
}

// ---------------------------------------------------------------------------
// epoll(7) backend (Linux): O(ready) per wait, the 100k-connection path.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
struct EpollBackend {
    epfd: RawFd,
    buf: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollBackend {
    fn new() -> io::Result<Self> {
        Ok(Self {
            epfd: sys::sys_epoll_create()?,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = sys::EPOLLRDHUP;
        if interest.readable {
            m |= sys::EPOLLIN;
        }
        if interest.writable {
            m |= sys::EPOLLOUT;
        }
        m
    }

    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::sys_epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, Self::mask(interest), token)
    }

    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::sys_epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, Self::mask(interest), token)
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        sys::sys_epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        let n = sys::sys_epoll_wait(self.epfd, &mut self.buf, timeout_ms)?;
        for ev in &self.buf[..n] {
            // Copy out of the (potentially packed) kernel struct before
            // taking references.
            let bits = ev.events;
            let token = ev.data;
            events.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP)
                    != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        if n == self.buf.len() {
            // A full buffer means there may be more ready fds than slots;
            // grow so a huge ready set cannot starve high-numbered fds.
            let len = self.buf.len() * 2;
            self.buf.resize(len, sys::EpollEvent { events: 0, data: 0 });
        }
        Ok(events.len())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollBackend {
    fn drop(&mut self) {
        sys::sys_close(self.epfd);
    }
}
