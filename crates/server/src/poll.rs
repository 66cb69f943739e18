//! Readiness notification for the server's threads: `epoll(7)` and an
//! `eventfd(2)` waker, declared straight against the platform libc
//! (like `signal(2)` in `bin/pnb-server.rs` — the offline workspace has
//! no `libc` crate). **Linux only**, and so is `pnb-server`. Every fd is
//! owned ([`OwnedFd`], or a [`File`] for the eventfd: close is `Drop`),
//! so the four foreign functions below are the whole `unsafe` surface.

use std::fs::File;
use std::io::{self, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

// `epoll_event.events` bits: readable (or the peer closed), writable,
// and "report a readiness *change* once" (edge-triggered).
pub const IN: u32 = 0x001;
pub const OUT: u32 = 0x004;
pub const ET: u32 = 1 << 31;

const CLOEXEC: i32 = 0o2000000; // EPOLL_CLOEXEC == EFD_CLOEXEC
const EFD_NONBLOCK: i32 = 0o4000;
const EPOLL_CTL_ADD: i32 = 1;

/// `struct epoll_event`: packed on x86-64 (12 bytes), natural elsewhere.
/// Only the token [`Poller::add`] was given is read back: the loops
/// visit whatever an event names and let `read`/`write` say what is up.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Debug, Default)]
pub struct Event {
    events: u32,
    pub token: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// Take ownership of a descriptor a foreign call just returned.
fn owned(fd: RawFd) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is open, fresh from the kernel, and owned by nobody else.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// One epoll instance. Closing a registered fd removes it from the set,
/// so there is no `remove`.
pub struct Poller(OwnedFd);

impl Poller {
    pub fn new() -> io::Result<Self> {
        // SAFETY: takes no pointers; returns a new fd or -1.
        owned(unsafe { epoll_create1(CLOEXEC) }).map(Poller)
    }

    /// Watch `fd` for `events`, reported under `token`. A condition that
    /// already holds is reported by the next [`wait`](Self::wait).
    pub fn add(&self, fd: &impl AsRawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = Event { events, token };
        // SAFETY: `ev` is a live `epoll_event` the kernel only reads; both fds are open.
        match unsafe { epoll_ctl(self.0.as_raw_fd(), EPOLL_CTL_ADD, fd.as_raw_fd(), &mut ev) } {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        }
    }

    /// Block until an event, the timeout (`None`: forever; rounded up to
    /// a millisecond) or a signal; fills `events` from the front and
    /// returns the count. `EINTR` is "zero events", not an error, and
    /// nothing else can fail on an fd and a buffer this process owns.
    pub fn wait(&self, events: &mut [Event], timeout: Option<Duration>) -> usize {
        let ms = timeout.map_or(-1, |t| {
            t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
        });
        let cap = events.len().min(i32::MAX as usize) as i32;
        // SAFETY: `events` is writable for `cap` entries and the kernel writes at most `cap`.
        let n = unsafe { epoll_wait(self.0.as_raw_fd(), events.as_mut_ptr(), cap, ms) };
        usize::try_from(n).unwrap_or_else(|_| {
            let err = io::Error::last_os_error();
            assert_eq!(err.kind(), io::ErrorKind::Interrupted, "epoll_wait: {err}");
            0
        })
    }
}

/// An eventfd. Registered edge-triggered it never needs reading: every
/// [`wake`](Self::wake) is a fresh edge for the poller that watches it.
#[derive(Debug)]
pub struct Waker(File);

impl Waker {
    pub fn new() -> io::Result<Self> {
        // SAFETY: takes no pointers; returns a new fd or -1.
        owned(unsafe { eventfd(0, CLOEXEC | EFD_NONBLOCK) }).map(|fd| Waker(File::from(fd)))
    }

    /// Add one to the counter, waking the watching poller. Cannot fail
    /// short of 2^64 wakes, so the result is ignored.
    pub fn wake(&self) {
        let _ = (&self.0).write(&1u64.to_ne_bytes());
    }
}

impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn event_has_the_kernel_layout() {
        let want = if cfg!(target_arch = "x86_64") { 12 } else { 16 };
        assert_eq!(std::mem::size_of::<Event>(), want);
    }

    #[test]
    fn an_unread_waker_reports_each_wake_once() {
        let (poller, waker) = (Poller::new().unwrap(), Waker::new().unwrap());
        poller.add(&waker, IN | ET, 7).unwrap();
        let mut ev = [Event::default(); 4];
        for _ in 0..3 {
            assert_eq!(poller.wait(&mut ev, Some(Duration::ZERO)), 0);
            waker.wake();
            assert_eq!((poller.wait(&mut ev, None), { ev[0].token }), (1, 7));
        }
    }

    #[test]
    fn a_signal_during_wait_reads_as_zero_events() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
            fn pthread_self() -> usize;
            fn pthread_kill(thread: usize, signum: i32) -> i32;
        }
        extern "C" fn ignore(_signum: i32) {}
        const SIGUSR1: i32 = 10;
        // SAFETY: `ignore` is async-signal-safe and has the handler's C signature.
        unsafe { signal(SIGUSR1, ignore as extern "C" fn(i32) as *const () as usize) };
        let (tx, rx) = std::sync::mpsc::channel();
        let poller = Poller::new().unwrap();
        let waiter = std::thread::spawn(move || {
            // SAFETY: takes no arguments; names the calling thread.
            tx.send(unsafe { pthread_self() }).unwrap();
            poller.wait(&mut [Event::default()], Some(Duration::from_secs(20)))
        });
        let (thread, t0) = (rx.recv().unwrap(), Instant::now());
        while !waiter.is_finished() {
            // SAFETY: `thread` is unjoined, so its id is still valid.
            unsafe { pthread_kill(thread, SIGUSR1) };
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(waiter.join().unwrap(), 0);
        assert!(t0.elapsed() < Duration::from_secs(10), "ended by timeout");
    }
}
