//! The readiness-driven I/O plane, observed from outside: an idle server
//! does nothing at all, idle connections cost the busy one nothing, a
//! request after idleness is served on the wake-up (not on a timer tick),
//! and the two deadlines a blocking loop must compute itself — drain end
//! and a lone write-paused connection's stall window — still fire.
//!
//! The first two assert the zero-spread counters `wakeups` and
//! `io_syscalls`; the timed ones carry generous bounds (the benchmark
//! prices latency, these only rule out "waited for a tick").

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pnb_server::{
    AdmissionConfig, Client, ReqBody, RespBody, Server, ServerConfig, ServerStats,
    ServerStatsSnapshot, ShutdownHandle,
};

struct Running {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    shutdown: ShutdownHandle,
    join: JoinHandle<std::io::Result<()>>,
}

fn start(cfg: ServerConfig) -> Running {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let stats = server.stats();
    let (addr, shutdown, join) = server.spawn().expect("spawn");
    Running {
        addr,
        stats,
        shutdown,
        join,
    }
}

impl Running {
    fn stop(self) {
        self.shutdown.signal();
        self.join.join().expect("no panic").expect("clean exit");
    }

    /// Wait until every server thread is blocked: two snapshots 30 ms
    /// apart that agree (a thread still finishing a pass would move
    /// `io_syscalls`), returning the settled one.
    fn settled(&self) -> ServerStatsSnapshot {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut last = self.stats.snapshot();
        loop {
            std::thread::sleep(Duration::from_millis(30));
            let now = self.stats.snapshot();
            if now == last {
                return now;
            }
            assert!(Instant::now() < deadline, "server never went idle: {now:?}");
            last = now;
        }
    }
}

/// `n` connections that have each completed a ping, so each is adopted
/// by its worker.
fn connect(addr: SocketAddr, n: usize) -> Vec<Client> {
    (0..n)
        .map(|_| {
            let mut c = Client::connect(addr).expect("connect");
            c.ping().expect("ping");
            c
        })
        .collect()
}

#[test]
fn idle_server_makes_no_wakeups_and_no_syscalls() {
    let server = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let idle = connect(server.addr, 4);
    let before = server.settled();
    std::thread::sleep(Duration::from_millis(300));
    let after = server.stats.snapshot();
    // The sleep-polling loop made ~600 passes per worker in this window,
    // each reading every connection.
    assert_eq!(after.wakeups - before.wakeups, 0, "idle wake-ups");
    assert_eq!(after.io_syscalls - before.io_syscalls, 0, "idle syscalls");
    drop(idle);
    server.stop();
}

#[test]
fn idle_connections_cost_the_active_one_nothing() {
    let server = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let idle = connect(server.addr, 256);
    let mut active = connect(server.addr, 1).pop().expect("one");
    let before = server.settled();
    let calls = 200u64;
    for k in 0..calls {
        assert_eq!(active.upsert(k, k * 7).expect("upsert"), None);
        assert_eq!(active.get(k).expect("get"), Some(k * 7));
    }
    let after = server.settled();
    let (requests, syscalls) = (
        after.requests - before.requests,
        after.io_syscalls - before.io_syscalls,
    );
    assert_eq!(requests, 2 * calls);
    // epoll_wait, read, the read that says WouldBlock, write: four per
    // request. A loop that sweeps every connection issues at least 257
    // reads per pass.
    assert!(
        syscalls <= 5 * requests,
        "{syscalls} I/O syscalls for {requests} requests beside 256 idle connections"
    );
    assert_eq!(after.wakeups - before.wakeups, requests, "one wake-up each");
    drop(idle);
    server.stop();
}

#[test]
fn first_request_after_idleness_is_not_a_timer_tick() {
    let server = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c = connect(server.addr, 1).pop().expect("one");
    let mut took: Vec<Duration> = (0..20)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(200));
            let t0 = Instant::now();
            c.ping().expect("ping");
            t0.elapsed()
        })
        .collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median first-request latency after 200 ms idle: {median:?}"
    );
    server.stop();
}

#[test]
fn idle_drain_ends_at_the_grace_deadline_and_the_backlog_is_served() {
    let grace = Duration::from_millis(150);
    let server = start(ServerConfig {
        workers: 2,
        drain_grace: grace,
        ..ServerConfig::default()
    });
    let idle = connect(server.addr, 2);
    server.settled();
    // Established and written to, but possibly still in the accept
    // backlog when the signal lands: adopted by the final sweep.
    let mut late = Client::connect(server.addr).expect("connect");
    let id = late.send(ReqBody::Ping).expect("send");
    let t0 = Instant::now();
    server.shutdown.signal();
    assert_eq!(
        late.recv().expect("answered in the drain"),
        (id, RespBody::Pong)
    );
    server.join.join().expect("no panic").expect("clean exit");
    let took = t0.elapsed();
    // Nothing but the drain deadline wakes the workers here.
    assert!(took >= grace, "drain cut short: {took:?}");
    assert!(
        took <= grace + Duration::from_millis(100),
        "idle drain took {took:?}"
    );
    drop(idle);
}

#[test]
fn lone_stalled_reader_is_disconnected_by_the_wait_timeout() {
    let write_cap = 64 * 1024;
    let window = Duration::from_millis(300);
    let server = start(ServerConfig {
        workers: 1,
        admission: AdmissionConfig {
            max_inflight: 1 << 20,
            max_queued_bytes: 1 << 30,
            max_conn_pending_write: write_cap,
            stall_window: window,
        },
        ..ServerConfig::default()
    });
    // Prefill so a full-range response is ~800 KB, then go quiet.
    let mut loader = connect(server.addr, 1).pop().expect("one");
    for chunk in 0..50u64 {
        for k in chunk * 1000..(chunk + 1) * 1000 {
            loader
                .send(ReqBody::Insert { key: k, value: k })
                .expect("send");
        }
        for _ in 0..1000 {
            loader.recv().expect("prefill ack");
        }
    }
    // Pipeline scans and never read: the connection write-pauses, and
    // from then on *nothing* happens on this worker — no other traffic,
    // no socket event. Only the timeout it computed can wake it.
    let mut stalled = Client::connect(server.addr).expect("connect");
    for _ in 0..30 {
        let (lo, hi, count_only) = (0, u64::MAX, false);
        stalled
            .send(ReqBody::Range { lo, hi, count_only })
            .expect("send range");
    }
    // Watch the counters until the disconnect, noting when the worker
    // was last seen doing anything before it. Its last act is the flush
    // that left the connection paused, in the pass that started the stall
    // clock — so the clock started no later than `last_move`.
    let t0 = Instant::now();
    let (mut last, mut last_move) = (server.stats.snapshot(), t0);
    while last.slow_reader_disconnects == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "never disconnected");
        std::thread::sleep(Duration::from_millis(2));
        let now = server.stats.snapshot();
        if now.slow_reader_disconnects == 0 && now != last {
            last_move = Instant::now();
        }
        last = now;
    }
    let quiet = last_move.elapsed();
    assert!(t0.elapsed() >= window, "disconnected inside the window");
    assert!(
        quiet <= window + Duration::from_millis(100),
        "disconnected {quiet:?} after the worker went quiet (window {window:?})"
    );
    assert_eq!(server.stats.snapshot().slow_reader_disconnects, 1);
    assert_eq!(
        loader.range_count(0, u64::MAX).expect("sibling"),
        50_000,
        "sibling survived"
    );
    server.stop();
}
