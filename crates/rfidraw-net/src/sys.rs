//! Thin FFI shims over the readiness syscalls.
//!
//! The workspace vendors every dependency, so there is no `libc` crate to
//! lean on — but the C library itself is always linked (libstd links it),
//! so declaring the handful of symbols we need is enough. This module is
//! the crate's entire unsafe surface: four `epoll` calls on Linux; `poll`,
//! `close`, and the self-pipe quartet (`pipe`/`fcntl`/`read`/`write`, for
//! the reactor wakeup) everywhere. Everything above it is safe Rust.
//!
//! Errno is read through [`std::io::Error::last_os_error`], which already
//! knows each platform's thread-local errno location, so no
//! `__errno_location` shim is needed.

use std::io;
use std::os::fd::RawFd;

pub type CInt = i32;

/// `pollfd` from `poll(2)`. Identical layout on every POSIX platform.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    pub fd: CInt,
    pub events: i16,
    pub revents: i16,
}

pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;
pub const POLLERR: i16 = 0x008;
pub const POLLHUP: i16 = 0x010;
/// The peer shut down its write half (a FIN). Unlike `POLLHUP` it is only
/// reported when requested, and it is how a registration without read
/// interest hears a plain close. Linux only; elsewhere it is zero, so
/// requesting and testing it are no-ops.
#[cfg(target_os = "linux")]
pub const POLLRDHUP: i16 = 0x2000;
#[cfg(not(target_os = "linux"))]
pub const POLLRDHUP: i16 = 0;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: CInt) -> CInt;
    fn close(fd: CInt) -> CInt;
    fn pipe(fds: *mut CInt) -> CInt;
    fn fcntl(fd: CInt, cmd: CInt, arg: CInt) -> CInt;
    fn read(fd: CInt, buf: *mut u8, count: usize) -> isize;
    fn write(fd: CInt, buf: *const u8, count: usize) -> isize;
}

/// `F_SETFL` has the same value on Linux and the BSDs (including macOS).
const F_SETFL: CInt = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: CInt = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: CInt = 0x4;

/// Creates a pipe with both ends nonblocking — the reactor's wakeup
/// primitive. Returns `(read_fd, write_fd)`; the caller owns both.
pub fn sys_pipe_nonblocking() -> io::Result<(RawFd, RawFd)> {
    let mut fds = [0 as CInt; 2];
    // SAFETY: `fds` is a valid 2-element array; the kernel writes exactly
    // two descriptors into it on success.
    let rc = unsafe { pipe(fds.as_mut_ptr()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    for fd in fds {
        // SAFETY: `fd` was just returned by `pipe`, so it is owned here.
        let rc = unsafe { fcntl(fd, F_SETFL, O_NONBLOCK) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            sys_close(fds[0]);
            sys_close(fds[1]);
            return Err(err);
        }
    }
    Ok((fds[0], fds[1]))
}

/// Nonblocking read on a descriptor this crate owns (the wakeup pipe's
/// read end). `Ok(0)` means EOF; `WouldBlock` surfaces as an error.
pub fn sys_read(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a valid exclusive slice; the kernel writes at most
    // `buf.len()` bytes.
    let rc = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc as usize)
}

/// Nonblocking write on a descriptor this crate owns (the wakeup pipe's
/// write end).
pub fn sys_write(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a valid shared slice; the kernel only reads it.
    let rc = unsafe { write(fd, buf.as_ptr(), buf.len()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc as usize)
}

/// Safe wrapper over `poll(2)`: waits for readiness on `fds`, filling
/// `revents` in place. Returns the number of ready descriptors.
pub fn sys_poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is a valid, exclusively borrowed slice of `pollfd`
    // with the exact C layout; the kernel writes only within it.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

/// Closes a descriptor this crate owns (an epoll instance; connection fds
/// are owned and closed by their `TcpStream`s).
pub fn sys_close(fd: RawFd) {
    // SAFETY: callers only pass descriptors they exclusively own.
    unsafe {
        close(fd);
    }
}

#[cfg(target_os = "linux")]
pub use linux::*;

#[cfg(target_os = "linux")]
mod linux {
    use super::CInt;
    use std::io;
    use std::os::fd::RawFd;

    /// `struct epoll_event`. The kernel ABI packs it on x86, so the Rust
    /// mirror must match or `epoll_wait` scribbles over the wrong bytes.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Debug, Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: CInt = 1;
    pub const EPOLL_CTL_DEL: CInt = 2;
    pub const EPOLL_CTL_MOD: CInt = 3;

    const EPOLL_CLOEXEC: CInt = 0x80000;

    extern "C" {
        fn epoll_create1(flags: CInt) -> CInt;
        fn epoll_ctl(epfd: CInt, op: CInt, fd: CInt, event: *mut EpollEvent) -> CInt;
        fn epoll_wait(epfd: CInt, events: *mut EpollEvent, maxevents: CInt, timeout: CInt)
            -> CInt;
    }

    /// Creates an epoll instance (close-on-exec). The returned fd is owned
    /// by the caller and must go through [`super::sys_close`].
    pub fn sys_epoll_create() -> io::Result<RawFd> {
        // SAFETY: no pointers involved; the kernel either returns a fresh
        // fd or -1.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    /// Adds/modifies/removes one fd's registration.
    pub fn sys_epoll_ctl(epfd: RawFd, op: CInt, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` lives across the call; for EPOLL_CTL_DEL the kernel
        // ignores the pointer (passing a valid one is fine on every
        // kernel, including pre-2.6.9 where it must be non-null).
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits for readiness; fills `events` from the start and returns how
    /// many entries are valid.
    pub fn sys_epoll_wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a valid exclusive slice; the kernel writes at
        // most `events.len()` entries.
        let rc = unsafe {
            epoll_wait(epfd, events.as_mut_ptr(), events.len() as CInt, timeout_ms)
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}
