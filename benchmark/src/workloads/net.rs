//! The served workloads: `net-lowrate`, `net-pipeline`, `net-batch`,
//! `net-scan`. Each builds a map in-process, checkpoints it, starts a
//! one-worker `pnb-server` restored from that checkpoint on loopback in
//! this process, and drives it through one `Client` connection from the
//! main thread. Loopback, not a link: latencies are the sandbox's.

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::mem::{build_map, discard_map};
use super::{timed_setups, Layer, Outcome, RunConfig, Tally, SCAN_WIDTH, SHARDS};
use crate::check::{
    check_batch, check_range_reply, check_response, check_server_stats, Expect, Model,
};
use crate::counters;
use crate::gen::{lane, point_prefill, stream, Op, PointMix, Poisson, SplitMix64};
use crate::measure::{summarise, Done, Recorder, Timeline};
use crate::sys::{peak_rss_mib, thread_cpu_seconds, thread_ids, Placement};
use crate::trace::{name, Tracer, KEEP};
use pnb_server::{
    BatchSubOp, Client, ClientError, ReqBody, RespBody, Server, ServerConfig, ServerStats,
    ShutdownHandle,
};

/// Offered rate of the open loop. The worker is idle before every
/// request at this rate (service takes microseconds, gaps average 2 ms).
pub const LOWRATE_PER_S: f64 = 500.0;
/// The open loop's windows: 500 req/s × 2 s = 1000 samples, ten beyond
/// the window's p99.
const LOWRATE_WINDOW: Duration = Duration::from_secs(2);
/// A request issued later than this after its due time counts as late.
const LATE: Duration = Duration::from_micros(100);
pub const PIPELINE_DEPTH: usize = 64;
const BATCH_FRAMES_IN_FLIGHT: usize = 32;
pub const BATCH_SUBOPS: usize = 64;
const SCANS_IN_FLIGHT: usize = 4;

/// A running in-process server and what the harness knows about it.
pub struct Served {
    pub addr: SocketAddr,
    pub stats: Arc<ServerStats>,
    /// Threads that appeared across `Server::spawn`: accept + workers.
    pub threads: Vec<u32>,
    /// The client-side model of the served map.
    pub model: Model,
    shutdown: ShutdownHandle,
    join: JoinHandle<io::Result<()>>,
    dir: PathBuf,
}

/// Build a `space`-key point map, checkpoint it to a fresh directory
/// under `out_dir`, drop it, and start a one-worker server restored
/// from the checkpoint. Returns the server and a connected client that
/// has completed one ping.
pub fn serve(
    seed: u64,
    space: u64,
    out_dir: &Path,
    placement: &Placement,
) -> Result<(Served, Client), String> {
    static NEXT_DIR: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let n = NEXT_DIR.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = out_dir.join(format!("ckpt-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let mut model = Model::new(space);
    let keys = point_prefill(seed, space);
    for &k in &keys {
        model.insert(k);
    }
    let (source, _) = build_map(&keys);
    source
        .checkpoint(&dir)
        .map_err(|e| format!("checkpoint: {e}"))?;
    discard_map(source);

    let cfg = ServerConfig {
        shards: SHARDS,
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        restore: true,
        ..ServerConfig::default()
    };
    let server = Server::bind(("127.0.0.1", 0), cfg).map_err(|e| format!("bind: {e}"))?;
    let stats = server.stats();
    let before = thread_ids();
    // The server's threads inherit the CPU of the thread that spawns
    // them; the client then moves to its own.
    placement.pin_server();
    let (addr, shutdown, join) = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    placement.pin_load(0);
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(|e| format!("first ping: {e}"))?;
    // The ping was answered, so the worker exists by now.
    let threads = thread_ids()
        .into_iter()
        .filter(|t| !before.contains(t))
        .collect();
    Ok((
        Served {
            addr,
            stats,
            threads,
            model,
            shutdown,
            join,
            dir,
        },
        client,
    ))
}

impl Served {
    /// Signal shutdown, wait for the drain, remove the checkpoint.
    pub fn stop(self) -> Result<(), String> {
        self.shutdown.signal();
        let joined = self.join.join();
        let _ = std::fs::remove_dir_all(&self.dir);
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server exited with {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }

    /// CPU seconds consumed so far by the busiest server thread.
    fn busiest_thread_cpu(&self) -> f64 {
        self.threads
            .iter()
            .filter_map(|&t| thread_cpu_seconds(t))
            .fold(0.0, f64::max)
    }
}

pub fn body_of(op: Op) -> ReqBody {
    match op {
        Op::Insert(key) => ReqBody::Insert { key, value: key },
        Op::Delete(key) => ReqBody::Delete { key },
        Op::Get(key) => ReqBody::Get { key },
    }
}

pub fn sub_op_of(op: Op) -> BatchSubOp {
    match op {
        Op::Insert(key) => BatchSubOp::Insert { key, value: key },
        Op::Delete(key) => BatchSubOp::Delete { key },
        Op::Get(key) => BatchSubOp::Get { key },
    }
}

/// What the answer to a request in flight must be.
enum Want {
    Point(Expect, bool),
    Batch(Vec<Expect>, u64),
    Range(u64, u64),
}

struct InFlight {
    id: u64,
    sent: Instant,
    want: Want,
}

/// The state a served run threads through its loop.
struct Run<'a> {
    client: Client,
    served: &'a mut Served,
    t: Timeline,
    recorder: Recorder,
    tracer: Tracer,
    tally: Tally,
    frames_sent: u64,
    /// The busiest server thread's CPU time when the first measured
    /// request completed; `None` until then.
    cpu_at_origin: Option<f64>,
    /// Set when the transport failed: the run cannot continue.
    broken: Option<String>,
}

impl Run<'_> {
    /// Book a completed request unit.
    fn complete(&mut self, at: Instant, done: Done, since: Instant, verdict: Result<(), String>) {
        if Tracer::enabled() && self.cpu_at_origin.is_none() && at >= self.t.origin {
            self.cpu_at_origin = Some(self.served.busiest_thread_cpu());
        }
        let ok = verdict.is_ok();
        self.tally.book(done.ops, verdict);
        if ok {
            self.recorder.record(at, done, Some(at - since));
        }
    }

    /// Check `reply` against what `f` wanted and book the unit; a
    /// transport failure also marks the run broken.
    fn settle(&mut self, f: InFlight, reply: Result<(u64, RespBody), ClientError>, at: Instant) {
        let (done, verdict) = match (&f.want, reply) {
            (_, Err(e @ (ClientError::Io(_) | ClientError::Protocol(_)))) => {
                self.broken = Some(e.to_string());
                (done_of(&f.want, 0), Err(e.to_string()))
            }
            // A typed refusal: the request was consumed and answered.
            (want, Err(e)) => (done_of(want, 0), Err(e.to_string())),
            (Want::Point(want, is_update), Ok((id, body))) => (
                Done::point(*is_update),
                check_response(f.id, id, *want, &body),
            ),
            (Want::Batch(want, updates), Ok((id, body))) => {
                let verdict = match &body {
                    _ if id != f.id => Err(format!("response id {id}, wanted {}", f.id)),
                    RespBody::BatchResults(results) => check_batch(want, results),
                    other => Err(format!("batch {}: got {other:?}", f.id)),
                };
                (done_of(&f.want, *updates), verdict)
            }
            (Want::Range(lo, hi), Ok((id, body))) => match body {
                _ if id != f.id => (
                    Done::scan(0),
                    Err(format!("response id {id}, wanted {}", f.id)),
                ),
                RespBody::Entries {
                    count,
                    entries,
                    truncated,
                } => (
                    Done::scan(entries.len() as u64),
                    check_range_reply(&self.served.model, *lo, *hi, count, &entries, truncated),
                ),
                other => (Done::scan(0), Err(format!("range {}: got {other:?}", f.id))),
            },
        };
        self.complete(at, done, f.sent, verdict);
    }

    /// Closed loop, `depth` requests in flight on the one connection:
    /// one `send` per `recv` once the window is full.
    fn pipelined(&mut self, depth: usize, mut next: impl FnMut(&mut Model) -> (ReqBody, Want)) {
        let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(depth);
        let mut stopping = false;
        let mut seq = 0u64;
        while self.broken.is_none() {
            while !stopping && in_flight.len() < depth {
                let (body, want) = next(&mut self.served.model);
                seq += 1;
                let sent = Instant::now();
                let client = &mut self.client;
                match self
                    .tracer
                    .span(name::CLIENT_SEND, seq, |_| client.send(body))
                {
                    Ok(id) => {
                        self.frames_sent += 1;
                        in_flight.push_back(InFlight { id, sent, want });
                    }
                    Err(e) => {
                        self.tally.book(done_of(&want, 0).ops, Err(e.to_string()));
                        self.broken = Some(e.to_string());
                        break;
                    }
                }
            }
            let Some(oldest) = in_flight.pop_front() else {
                break;
            };
            let client = &mut self.client;
            let reply = self
                .tracer
                .span(name::CLIENT_RECV, oldest.id, |_| client.recv());
            let at = Instant::now();
            self.settle(oldest, reply, at);
            stopping |= at >= self.t.stop;
        }
        // Whatever was still in flight when the transport broke.
        for f in in_flight {
            self.tally
                .book(done_of(&f.want, 0).ops, Err("connection lost".to_string()));
        }
    }
}

/// The operation counts a request unit stands for.
fn done_of(want: &Want, updates: u64) -> Done {
    match want {
        Want::Point(_, is_update) => Done::point(*is_update),
        Want::Batch(ops, _) => Done {
            ops: ops.len() as u64,
            updates,
            keys: ops.len() as u64,
            scan_keys: 0,
        },
        Want::Range(..) => Done::scan(0),
    }
}

/// Sleep to within 200 µs of `due`, then spin: `sleep` alone overshoots
/// by the timer slack, and lateness would land in every latency.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Lateness {
    issued: u64,
    late: u64,
    max: Duration,
}

/// Which of the four loops to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Lowrate,
    Pipeline,
    Batch,
    Scan,
}

pub fn run(kind: Kind, cfg: &RunConfig) -> Result<Outcome, String> {
    let placement = Placement::detect();
    placement.pin_load(0);
    let space = cfg.space;
    let mut failed_setup = None;
    let (setup, setup_s) = timed_setups(
        || serve(cfg.seed, space, &cfg.out_dir, &placement),
        |previous| {
            if let Err(e) = previous.and_then(|(served, _client)| served.stop()) {
                failed_setup.get_or_insert(e);
            }
        },
    );
    let (mut served, client) = setup?;
    if let Some(e) = failed_setup {
        let _ = served.stop();
        return Err(e);
    }
    let prefill = served.model.len();

    let before = counters::snapshot(None);
    let window = if kind == Kind::Lowrate {
        LOWRATE_WINDOW
    } else {
        Duration::from_secs(1)
    };
    let t = Timeline::start(cfg.seconds, window);
    let mut run = Run {
        client,
        served: &mut served,
        t,
        recorder: Recorder::new(&t),
        tracer: Tracer::new("client", t.begin, t.origin, KEEP),
        tally: Tally::default(),
        // The ping of this server's set-up.
        frames_sent: 1,
        cpu_at_origin: None,
        broken: None,
    };
    let mut mix = PointMix::new(stream(cfg.seed, lane::LOAD), space);
    let mut lateness = Lateness::default();
    match kind {
        Kind::Lowrate => open_loop(&mut run, &mut mix, cfg.seed, &mut lateness),
        Kind::Pipeline => run.pipelined(PIPELINE_DEPTH, |model| {
            let op = mix.next_op();
            (body_of(op), Want::Point(model.apply(op), op.is_update()))
        }),
        Kind::Batch => run.pipelined(BATCH_FRAMES_IN_FLIGHT, |model| {
            let ops: Vec<Op> = (0..BATCH_SUBOPS).map(|_| mix.next_op()).collect();
            let updates = ops.iter().filter(|op| op.is_update()).count() as u64;
            let want = ops.iter().map(|&op| model.apply(op)).collect();
            let body = ReqBody::Batch {
                ops: ops.into_iter().map(sub_op_of).collect(),
            };
            (body, Want::Batch(want, updates))
        }),
        Kind::Scan => {
            let mut rng: SplitMix64 = stream(cfg.seed, lane::LOAD + 1);
            run.pipelined(SCANS_IN_FLIGHT, |_| {
                let lo = rng.below(space - SCAN_WIDTH);
                let hi = lo + SCAN_WIDTH - 1;
                let body = ReqBody::Range {
                    lo,
                    hi,
                    count_only: false,
                };
                (body, Want::Range(lo, hi))
            })
        }
    }
    let measured_for = Instant::now().duration_since(run.t.origin).as_secs_f64();
    let peak_rss_mb = peak_rss_mib();
    let after = counters::snapshot(None);
    let Run {
        mut client,
        recorder,
        tracer,
        tally,
        mut frames_sent,
        cpu_at_origin,
        broken,
        ..
    } = run;

    // Structural checks: the map holds what the model holds, the server
    // counted what was sent and refused nothing, and it drains cleanly.
    let mut check_errors: Vec<String> = broken.into_iter().collect();
    let mut layer = Layer::default();
    if check_errors.is_empty() {
        frames_sent += 1;
        match client.range_count(0, u64::MAX) {
            Ok(n) if n == served.model.len() => {}
            Ok(n) => check_errors.push(format!(
                "server holds {n} keys, the model {}",
                served.model.len()
            )),
            Err(e) => check_errors.push(format!("final count: {e}")),
        }
        if Tracer::enabled() {
            frames_sent += 1;
            if let Ok(wire) = client.stats() {
                let total: u64 = wire.shard_ops.iter().sum();
                let max = wire.shard_ops.iter().copied().max().unwrap_or(0);
                if total > 0 {
                    layer.set(
                        "shard.load_imbalance",
                        max as f64 * wire.shard_ops.len() as f64 / total as f64,
                    );
                }
            }
        }
    }
    let snapshot = served.stats.snapshot();
    if let Err(e) = check_server_stats(&snapshot, frames_sent) {
        check_errors.push(e);
    }
    if Tracer::enabled() {
        layer.set(
            "server.io.cpu_busy_frac",
            (served.busiest_thread_cpu() - cpu_at_origin.unwrap_or(0.0)) / measured_for,
        );
    }
    drop(client);
    let final_len = served.model.len();
    if let Err(e) = served.stop() {
        check_errors.push(e);
    }

    let trace = tracer.finish();
    if Tracer::enabled() {
        counters::report(&before, &after, 0, &mut layer);
        layer.set("server.stats.requests", snapshot.requests as f64);
        layer.set("server.stats.shed", snapshot.shed as f64);
        layer.set(
            "server.stats.protocol_errors",
            snapshot.protocol_errors as f64,
        );
        layer.set(
            "server.stats.peak_conn_pending_bytes",
            snapshot.peak_conn_pending_bytes as f64,
        );
        let agg = &trace.aggregates;
        if kind == Kind::Lowrate {
            layer.set(
                "gen.late_frac",
                lateness.late as f64 / lateness.issued.max(1) as f64,
            );
            layer.set("gen.max_late_us", lateness.max.as_secs_f64() * 1e6);
            layer.set(
                "server.client.call_ns",
                span_median_ns(&trace, name::CLIENT_CALL),
            );
        } else {
            layer.set(
                "server.client.send_ns",
                agg[name::CLIENT_SEND as usize].mean_ns(),
            );
            layer.set(
                "server.client.recv_wait_ns",
                agg[name::CLIENT_RECV as usize].mean_ns(),
            );
        }
    }
    let mut notes = vec![
        format!(
            "server: 1 worker, {SHARDS} shards, restored {prefill} of {space} keys; \
             {frames_sent} frames sent; final len {final_len}"
        ),
        placement.note(),
    ];
    if kind == Kind::Lowrate {
        notes.push(format!(
            "open loop {LOWRATE_PER_S} req/s Poisson: {} issued in the measured interval, \
             {} ({:.2} %) more than {} us late, worst {:.0} us",
            lateness.issued,
            lateness.late,
            100.0 * lateness.late as f64 / lateness.issued.max(1) as f64,
            LATE.as_micros(),
            lateness.max.as_secs_f64() * 1e6,
        ));
    }
    Ok(Outcome {
        tally,
        check_errors,
        setup_s,
        summary: summarise(&[recorder]),
        peak_rss_mb,
        layer,
        traces: vec![trace],
        notes,
    })
}

/// Median duration of the kept spans called `which`.
pub fn span_median_ns(trace: &crate::trace::ThreadTrace, which: u8) -> f64 {
    let durations: Vec<f64> = trace
        .spans
        .iter()
        .filter(|s| s.name == which)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    crate::stats::median(&durations)
}

/// `net-lowrate`: one blocking `Client::call` per Poisson arrival, each
/// timed from its due time — so a call that overruns into the next
/// arrival charges the wait to that arrival's latency.
fn open_loop(run: &mut Run<'_>, mix: &mut PointMix, seed: u64, lateness: &mut Lateness) {
    let mut schedule = Poisson::new(stream(seed, lane::SCHEDULE), LOWRATE_PER_S);
    for seq in 1u64.. {
        let due = run.t.begin + Duration::from_nanos(schedule.next_due_ns());
        if due >= run.t.stop || run.broken.is_some() {
            return;
        }
        wait_until(due);
        let issued = Instant::now();
        if due >= run.t.origin {
            let late = issued - due;
            lateness.issued += 1;
            lateness.late += (late > LATE) as u64;
            lateness.max = lateness.max.max(late);
        }
        let op = mix.next_op();
        let want = Want::Point(run.served.model.apply(op), op.is_update());
        let client = &mut run.client;
        let reply = run.tracer.span(name::REQUEST, seq, |tr| {
            tr.span(name::CLIENT_CALL, seq, |_| client.call(body_of(op)))
        });
        let at = Instant::now();
        run.frames_sent += 1;
        // `call` has matched the id already; hand `settle` the pair it
        // expects.
        let in_flight = InFlight {
            id: seq,
            sent: due,
            want,
        };
        run.settle(in_flight, reply.map(|body| (seq, body)), at);
    }
}
