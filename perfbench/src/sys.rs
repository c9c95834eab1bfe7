//! The few Linux interfaces the standard library does not expose: `ppoll`
//! for the single-threaded generator, timer slack and priority for
//! on-time sends, CPU affinity, the CPU-time clocks, and `/proc` for peak
//! resident memory.

use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn nice(increment: i32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: the first 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, in increasing order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, exclusively borrowed buffer of exactly the
    // size passed; pid 0 is the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if ok != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread, and every thread or process it starts from
/// now on, to `cpu`. Returns whether the kernel accepted it.
pub fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Readiness wanted on one socket.
pub struct Want {
    pub fd: RawFd,
    pub write: bool,
}

/// Blocks until a socket in `wants` is readable (or writable, when asked)
/// or `timeout` passes. Interruptions and errors just return early: the
/// caller re-polls its sockets either way.
pub fn wait_ready(wants: &[Want], timeout: Duration) {
    let mut fds: Vec<PollFd> = wants
        .iter()
        .map(|w| PollFd {
            fd: w.fd,
            events: if w.write { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let timeout = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`s; `timeout` outlives the call; a null sigmask keeps
    // the current mask.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            &timeout,
            std::ptr::null(),
        );
    }
}

/// Drops the calling thread's timer slack to 1 ns so `ppoll` timeouts
/// wake the generator on its due times instead of up to 50 µs late.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches only
    // the calling thread's scheduling state.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Lowers the calling process's scheduling priority by `increment`.
pub fn lower_priority(increment: i32) {
    // SAFETY: `nice` only adjusts this process's scheduling weight; a
    // failure leaves the priority unchanged, which is harmless.
    unsafe {
        nice(increment);
    }
}

/// CPU time this process has run, in seconds: user + system, summed over
/// every thread it has had, exited ones included. With paravirtualized
/// steal accounting (as on KVM guests), time the host spent running other
/// guests on this process's vCPU is not charged to it, and neither is
/// time other processes held the CPU.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has run, in seconds (see [`process_cpu_s`]).
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed `struct timespec`;
    // both CPU-time clocks always exist on Linux.
    unsafe {
        clock_gettime(clock, &mut ts);
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set in KiB of process `pid` (`"self"` for this one):
/// the `VmHWM` line of its `/proc` status. `getrusage` and `wait4` would
/// not do: a process started by `posix_spawn` carries its parent's peak
/// across `exec`, so they report the parent's peak when it is the larger.
pub fn peak_rss_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}
