//! A worker blocked in `epoll_wait` must not hold an epoch pin: the
//! paper assumes a garbage collector, `crossbeam-epoch` stands in for
//! it, and one pinned-and-parked thread stops the epoch for everyone.
//!
//! Alone in its binary because the measurement is a process-global
//! counting allocator: live heap bytes plateau when retired nodes flow
//! back through the arenas, and grow with every update when they cannot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use pnb_server::{Client, ReqBody, RespBody, Server, ServerConfig};

struct LiveBytes;
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed
// atomic with no effect on the returned memory. (`realloc` keeps its
// default: `alloc` + copy + `dealloc`, so it is counted too.)
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// `rounds` pipelined bursts of insert-then-delete over 256 keys: every
/// pair retires nodes, the key set stays empty.
fn churn(c: &mut Client, rounds: usize) {
    for _ in 0..rounds {
        for k in 0..256u64 {
            c.send(ReqBody::Insert { key: k, value: k }).expect("send");
            c.send(ReqBody::Delete { key: k }).expect("send");
        }
        for _ in 0..512 {
            let (_, body) = c.recv().expect("recv");
            assert_eq!(body, RespBody::Bool(true));
        }
    }
}

#[test]
fn idle_worker_does_not_wedge_reclamation() {
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let (addr, shutdown, join) = Server::bind("127.0.0.1:0", cfg)
        .expect("bind")
        .spawn()
        .expect("spawn");
    // Round-robin hand-off: `a` lands on one worker, `b` on the other.
    let mut a = Client::connect(addr).expect("connect a");
    let mut b = Client::connect(addr).expect("connect b");
    // Worker B serves one request — so it has pinned a session — and is
    // then left blocked for the rest of the test.
    assert_eq!(b.get(1).expect("get"), None);

    churn(&mut a, 40); // warm: fill the arenas and the epoch pipeline
    let warm = LIVE.load(Ordering::Relaxed);
    churn(&mut a, 400); // 102,400 insert/delete pairs through worker A
    let grown = LIVE.load(Ordering::Relaxed) - warm;

    // Wedged, each pair strands two 64-byte nodes and their Info
    // records for good: 75 MiB over this run when tried. Reclaiming, the same
    // blocks go round and the heap stays where the warm-up left it.
    assert!(
        grown < 4 << 20,
        "live heap grew {grown} B across 102,400 update pairs beside an idle worker"
    );
    assert_eq!(b.get(1).expect("b still served"), None);
    shutdown.signal();
    join.join().expect("no panic").expect("clean exit");
}
