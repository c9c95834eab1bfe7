//! The readiness poller: how the event loop learns that a socket wants
//! attention.
//!
//! [`Poller`] owns one kernel `epoll` instance (via the raw-syscall
//! wrappers in [`crate::sys`]) and hides its bitmask format behind
//! [`Interest`] and [`Event`]. One `epoll_wait` call parks the loop until
//! any of 10k+ sockets (or the worker wakeup pipe) has bytes, with the next
//! timer deadline as the timeout.
//!
//! Readiness is level-triggered: an event is a *hint* that progress may be
//! possible, never a guarantee, and a consumer that does not drain a socket
//! will simply see the event again.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

use crate::sys::linux::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Which events a registered fd wants reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Report when reading may make progress.
    pub readable: bool,
    /// Report when writing may make progress.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle keep-alive
    /// connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    fn epoll_mask(self) -> u32 {
        let mut mask = 0;
        if self.readable {
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            mask |= EPOLLOUT;
        }
        mask
    }
}

/// One readiness report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Reading may make progress (includes hangup/error so EOF is seen).
    pub readable: bool,
    /// Writing may make progress.
    pub writable: bool,
}

/// An `epoll` instance plus the buffer its reports land in.
pub(crate) struct Poller {
    epoll: Epoll,
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// Creates a poller with room for 1024 reports per wait.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epoll: Epoll::new()?,
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    /// Starts reporting `interest` for `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.add(fd, interest.epoll_mask(), token)
    }

    /// Changes the interest set of a registered fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.modify(fd, interest.epoll_mask(), token)
    }

    /// Stops reporting `fd`. Best-effort.
    pub fn deregister(&mut self, fd: RawFd) {
        self.epoll.delete(fd);
    }

    /// Fills `out` with readiness reports, blocking up to `timeout`
    /// (forever when `None`).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let timeout_ms = match timeout {
            // Round up so a 100µs deadline does not spin at 0ms.
            Some(t) => {
                t.as_millis().min(i32::MAX as u128 - 1) as i32
                    + i32::from(t.subsec_nanos() % 1_000_000 != 0)
            }
            None => -1,
        };
        let n = self.epoll.wait(&mut self.buf, timeout_ms)?;
        for event in &self.buf[..n] {
            let bits = event.events;
            out.push(Event {
                token: event.data,
                readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_driver_reports_real_readiness() {
        use std::io::Write;
        use std::os::unix::io::AsRawFd;
        use std::os::unix::net::UnixStream;
        let mut poller = Poller::new().unwrap();
        let (mut tx, rx) = UnixStream::pair().unwrap();
        poller.register(rx.as_raw_fd(), 9, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty(), "no bytes, no events");
        tx.write_all(b"!").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 9);
        assert!(events[0].readable);
    }
}
