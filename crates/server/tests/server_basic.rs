//! End-to-end tests over real loopback sockets: the full stack
//! (client → framing → worker loop → sharded session → response).

use std::time::Duration;

use pnb_server::{Client, NetMap, ReqBody, RespBody, Server, ServerConfig};
use workload::{run_latency, ConcurrentMap, KeyDist, MapSession, Mix, RunConfig};

fn spawn(
    shards: usize,
    workers: usize,
) -> (
    std::net::SocketAddr,
    pnb_server::ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let cfg = ServerConfig {
        shards,
        workers,
        refresh_every: 64,
        drain_grace: Duration::from_millis(100),
        ..Default::default()
    };
    Server::bind("127.0.0.1:0", cfg)
        .expect("bind ephemeral")
        .spawn()
        .expect("spawn server")
}

#[test]
fn point_ops_roundtrip_over_loopback() {
    let (addr, shutdown, join) = spawn(4, 2);
    let mut c = Client::connect(addr).expect("connect");
    c.ping().expect("ping");
    assert!(c.insert(5, 50).unwrap());
    assert!(!c.insert(5, 51).unwrap(), "set semantics over the wire");
    assert_eq!(c.upsert(5, 55).unwrap(), Some(50));
    assert_eq!(c.get(5).unwrap(), Some(55));
    assert_eq!(c.get(6).unwrap(), None);
    assert!(c.contains(5).unwrap());
    assert!(c.delete(5).unwrap());
    assert!(!c.delete(5).unwrap());
    shutdown.signal();
    join.join().unwrap().unwrap();
}

#[test]
fn ranges_and_snapshots_over_the_wire() {
    let (addr, shutdown, join) = spawn(8, 2);
    let mut c = Client::connect(addr).expect("connect");
    for k in 0..500u64 {
        assert!(c.insert(k * 10, k).unwrap());
    }
    assert_eq!(c.range_count(0, u64::MAX).unwrap(), 500);
    let reply = c.range_entries(100, 200).unwrap();
    assert_eq!(reply.count, 11); // 100..=200 step 10
    assert_eq!(reply.entries.len(), 11);
    assert!(!reply.truncated, "11 entries is far below the cap");
    assert!(
        reply.entries.windows(2).all(|w| w[0].0 < w[1].0),
        "ascending"
    );
    assert_eq!(reply.entries[0], (100, 10));
    let snap = c.snapshot_entries(100, 200).unwrap();
    assert_eq!(snap.count, 11);
    assert!(!snap.truncated);
    assert_eq!(
        snap.entries, reply.entries,
        "quiescent: snapshot equals live range"
    );
    shutdown.signal();
    join.join().unwrap().unwrap();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (addr, shutdown, join) = spawn(4, 1);
    let mut c = Client::connect(addr).expect("connect");
    let n = 200u64;
    let mut ids = Vec::new();
    for k in 0..n {
        ids.push(c.send(ReqBody::Insert { key: k, value: k }).unwrap());
    }
    for (i, want) in ids.into_iter().enumerate() {
        let (got, body) = c.recv().expect("pipelined response");
        assert_eq!(got, want, "response {i} out of order");
        assert_eq!(body, RespBody::Bool(true));
    }
    assert_eq!(c.range_count(0, u64::MAX).unwrap(), n);
    shutdown.signal();
    join.join().unwrap().unwrap();
}

#[test]
fn concurrent_clients_share_one_map() {
    let (addr, shutdown, join) = spawn(8, 4);
    let writers = 4u64;
    let per = 250u64;
    std::thread::scope(|s| {
        for w in 0..writers {
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for i in 0..per {
                    // Disjoint key blocks per writer.
                    assert!(c.insert(w * 1_000_000 + i * 7, i).unwrap());
                }
            });
        }
    });
    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(c.range_count(0, u64::MAX).unwrap(), writers * per);
    let stats = c.stats().unwrap();
    assert!(stats.accepted >= writers, "accepted {}", stats.accepted);
    assert!(
        stats.requests >= writers * per,
        "requests {}",
        stats.requests
    );
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.shard_ops.len(), 8);
    let total: u64 = stats.shard_ops.iter().sum();
    assert!(total >= writers * per, "shard op totals {total}");
    shutdown.signal();
    join.join().unwrap().unwrap();
}

#[test]
fn long_lived_connection_survives_session_refreshes() {
    // refresh_every=64 and 1 worker: one connection's operation stream
    // crosses many server-side session refreshes; results must be
    // seamless (the DESIGN §6 drop-all-handles discipline at work).
    let (addr, shutdown, join) = spawn(4, 1);
    let mut c = Client::connect(addr).expect("connect");
    for k in 0..1_000u64 {
        assert!(c.insert(k, k).unwrap());
        if k >= 500 {
            assert!(c.delete(k - 500).unwrap());
        }
    }
    assert_eq!(c.range_count(0, u64::MAX).unwrap(), 500);
    shutdown.signal();
    join.join().unwrap().unwrap();
}

#[test]
fn netmap_drives_the_open_loop_engine() {
    let (addr, shutdown, join) = spawn(8, 2);
    let map = NetMap::connect(addr).expect("netmap connect");
    assert_eq!(map.name(), "pnb-sharded-net");

    let cfg = RunConfig::new(
        2,
        Duration::from_millis(400),
        KeyDist::scrambled_zipfian(1_024, 0.99),
        Mix::new(20, 20, 50, 10, 100),
    );
    let offered = 2_000.0;
    let m = run_latency(&map, &cfg, Some(offered)).expect("paced loop over the wire");
    assert_eq!(m.name, "pnb-sharded-net");
    assert!(m.classes.iter().map(|c| c.count).sum::<u64>() > 0);
    // Loopback at 2k ops/s should keep up to within a wide margin.
    assert!(
        m.achieved_rate > 0.5 * offered,
        "achieved {:.0} of offered {offered:.0}",
        m.achieved_rate,
    );
    assert!(!m.classes.is_empty());

    shutdown.signal();
    join.join().unwrap().unwrap();
}

#[test]
fn checkpoint_then_restore_restarts_with_state() {
    let dir = std::env::temp_dir().join(format!("pnb_e2e_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First life: load, checkpoint over the wire, drain.
    let cfg = ServerConfig {
        shards: 4,
        workers: 2,
        drain_grace: Duration::from_millis(100),
        checkpoint_dir: Some(dir.clone()),
        ..Default::default()
    };
    let (addr, shutdown, join) = Server::bind("127.0.0.1:0", cfg.clone())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut c = Client::connect(addr).expect("connect");
    for k in 0..300u64 {
        assert!(c.insert(k * 7, k).unwrap());
    }
    let (generation, entries) = c.checkpoint().expect("checkpoint over the wire");
    assert_eq!(generation, 1);
    assert_eq!(entries, 300);
    // Mutations after the checkpoint must NOT survive the restart.
    for k in 0..100u64 {
        assert!(c.delete(k * 7).unwrap());
    }
    shutdown.signal();
    join.join().unwrap().unwrap();

    // Second life: restore and verify the checkpointed cut, exactly.
    let cfg2 = ServerConfig {
        restore: true,
        ..cfg
    };
    let (addr2, shutdown2, join2) = Server::bind("127.0.0.1:0", cfg2)
        .expect("bind restored")
        .spawn()
        .expect("spawn restored");
    let mut c2 = Client::connect(addr2).expect("connect restored");
    assert_eq!(c2.range_count(0, u64::MAX).unwrap(), 300);
    assert_eq!(c2.get(0).unwrap(), Some(0), "pre-checkpoint key is back");
    let reply = c2.range_entries(0, 70).unwrap();
    assert_eq!(
        reply.entries,
        (0..=10u64).map(|k| (k * 7, k)).collect::<Vec<_>>()
    );
    shutdown2.signal();
    join2.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_without_a_checkpoint_fails_loudly() {
    let dir = std::env::temp_dir().join(format!("pnb_e2e_nockpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        restore: true,
        ..Default::default()
    };
    let err = match Server::bind("127.0.0.1:0", cfg) {
        Ok(_) => panic!("empty dir must not restore"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("no loadable committed checkpoint"),
        "got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn netmap_sessions_pool_connections() {
    let (addr, shutdown, join) = spawn(2, 1);
    let map = NetMap::connect(addr).expect("netmap connect");
    {
        let mut s = map.pin();
        assert!(s.insert(1, 10));
        assert_eq!(s.get(&1), Some(10));
    } // session drops: connection returns to the pool
    {
        let mut s = map.pin();
        assert_eq!(s.upsert(1, 11), Some(10));
        assert_eq!(s.range_scan(&0, &100), 1);
        s.refresh(); // no-op by contract, must not disturb the stream
        assert!(s.delete(&1));
    }
    let mut probe = Client::connect(addr).unwrap();
    let stats = probe.stats().unwrap();
    // NetMap dialed once for the probe ping; both sessions reused it.
    assert!(
        stats.accepted <= 3,
        "sessions should pool, accepted {}",
        stats.accepted
    );
    shutdown.signal();
    join.join().unwrap().unwrap();
}
