//! Raw `epoll` bindings — the only `unsafe` in the crate.
//!
//! The repo's no-external-crates rule leaves two ways to reach the kernel's
//! readiness API: a C shim (needs a build script and a C toolchain) or
//! direct `extern "C"` declarations against the libc that `std` already
//! links. This module takes the second route and keeps the blast radius
//! tiny: four syscall wrappers behind a safe [`linux::Epoll`] handle.
//! Everything else in the crate stays `deny(unsafe_code)`.

pub(crate) mod linux {
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;

    /// `EPOLLIN`: the fd is readable (or has pending EOF).
    pub const EPOLLIN: u32 = 0x001;
    /// `EPOLLOUT`: the fd is writable.
    pub const EPOLLOUT: u32 = 0x004;
    /// `EPOLLERR`: error condition; always reported, never requested.
    pub const EPOLLERR: u32 = 0x008;
    /// `EPOLLHUP`: hangup; always reported, never requested.
    pub const EPOLLHUP: u32 = 0x010;
    /// `EPOLLRDHUP`: peer shut down its write half.
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;

    /// `struct epoll_event`. The kernel ABI packs it on x86-64 (glibc's
    /// `__EPOLL_PACKED`); other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        /// Requested/reported readiness mask (`EPOLL*` bits).
        pub events: u32,
        /// Caller-chosen cookie, echoed back verbatim (our connection token).
        pub data: u64,
    }

    #[allow(unsafe_code)]
    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// An owned epoll instance. Closed on drop.
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// Creates a close-on-exec epoll instance.
        pub fn new() -> io::Result<Epoll> {
            #[allow(unsafe_code)]
            // SAFETY: epoll_create1 takes a flags integer and returns a new
            // fd or -1; no pointers are involved.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events,
                data: token,
            };
            #[allow(unsafe_code)]
            // SAFETY: `event` is a live, properly laid out epoll_event for
            // the duration of the call; the kernel only reads it.
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Starts watching `fd` for `events`, tagging reports with `token`.
        pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Changes the interest set of an already watched `fd`.
        pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        /// Stops watching `fd`. Errors are ignored: the fd may already be
        /// gone, and deregistration is best-effort cleanup.
        pub fn delete(&self, fd: RawFd) {
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }

        /// Waits for readiness. `timeout_ms` of `-1` blocks indefinitely.
        /// Returns the number of events written into `buf`; `EINTR` is
        /// reported as zero events so callers simply loop.
        pub fn wait(&self, buf: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
            #[allow(unsafe_code)]
            // SAFETY: `buf` is a live slice of epoll_event with at least
            // `buf.len()` elements; the kernel writes at most that many.
            let rc =
                unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
            if rc < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            Ok(rc as usize)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            #[allow(unsafe_code)]
            // SAFETY: `self.fd` is an fd this struct owns exclusively.
            unsafe {
                close(self.fd);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::Write;
        use std::os::unix::io::AsRawFd;
        use std::os::unix::net::UnixStream;

        #[test]
        fn epoll_reports_readability() {
            let epoll = Epoll::new().unwrap();
            let (mut tx, rx) = UnixStream::pair().unwrap();
            epoll.add(rx.as_raw_fd(), EPOLLIN, 42).unwrap();
            let mut buf = [EpollEvent { events: 0, data: 0 }; 8];
            // Nothing written yet: a zero-timeout wait reports no events.
            assert_eq!(epoll.wait(&mut buf, 0).unwrap(), 0);
            tx.write_all(b"x").unwrap();
            let n = epoll.wait(&mut buf, 1000).unwrap();
            assert_eq!(n, 1);
            let data = buf[0].data;
            let events = buf[0].events;
            assert_eq!(data, 42);
            assert_ne!(events & EPOLLIN, 0);
            // Interest can be modified and removed.
            epoll.modify(rx.as_raw_fd(), EPOLLIN | EPOLLOUT, 7).unwrap();
            let n = epoll.wait(&mut buf, 1000).unwrap();
            assert_eq!(n, 1);
            let data = buf[0].data;
            assert_eq!(data, 7);
            epoll.delete(rx.as_raw_fd());
            assert_eq!(epoll.wait(&mut buf, 0).unwrap(), 0);
        }
    }
}
