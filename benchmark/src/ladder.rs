//! The layer ladder: one seeded point stream (and ranges, and 64-op
//! batches) replayed single-threaded at each layer boundary, from the
//! bare `Handle` out to the `ReconnectingClient`. A layer's **self**
//! time is its rung minus the rung below, so the rungs add up to the
//! call a client makes:
//!
//! ```text
//! Handle  →  ShardedSession  →  handler::handle  →  codec (5 calls)  →  Client::call  →  ReconnectingClient
//! core.handle.*  + shard.session.self  + server.handler.self  + server.codec.*  + server.io.wait  + server.retry.self
//! ```
//!
//! Every call is made from here, through public functions, with a span
//! around it; nothing inside the crates is touched. Runs only in the
//! traced build, after the traced workload.

use std::path::Path;
use std::time::{Duration, Instant};

use pnb_bst::{BatchOp, Handle};
use pnb_server::handler::handle;
use pnb_server::{
    decode_request, decode_response, encode_request, encode_response, FrameBuf, ReconnectingClient,
    ReqBody, Request, RespBody, Response, ServerStats,
};
use pnb_shard::{ShardedPnbBst, ShardedSession};

use crate::gen::{lane, point_prefill, stream, Op, PointMix, Poisson, SplitMix64};
use crate::sys::Placement;
use crate::trace::{alloc_counts, name, Aggregate, ThreadTrace, Tracer, NAMES};
use crate::workloads::mem::{build_map, discard_map};
use crate::workloads::net::{
    body_of, serve, span_median_ns, sub_op_of, BATCH_SUBOPS, LOWRATE_PER_S, PIPELINE_DEPTH,
};
use crate::workloads::{Layer, SCAN_WIDTH};

type Map = ShardedPnbBst<u64, u64>;
type Session<'a> = ShardedSession<'a, u64, u64>;

/// Operations in the point stream the four in-process rungs share.
const STREAM_OPS: u64 = 200_000;
/// Ranges and batches per rung.
const REPEATS: usize = 200;
/// Spans each ladder tracer keeps verbatim: examples for the trace
/// file, and every call of the socket probe (whose median is taken).
const LADDER_KEEP: usize = 2_000;
/// No point operation takes this long (the slowest, on the 2^20-key
/// trees, take ~10 µs): a longer span on a point rung is the box.
const DESCHEDULED: Duration = Duration::from_micros(100);
/// Keys per partitioner block (`RangePrefixPartitioner::new()`): a
/// range inside one block lives in one shard, so the bare handle and
/// the session scan the same tree.
const BLOCK: u64 = 4096;

pub struct Ladder {
    pub layer: Layer,
    /// Everything below the socket, per point request: handler rung
    /// plus the five codec calls.
    pub in_process_ns: f64,
    pub traces: Vec<ThreadTrace>,
}

fn mean_of(aggs: &[Aggregate; NAMES.len()], names: &[u8]) -> f64 {
    let (count, total) = names.iter().fold((0, 0), |(c, t), &n| {
        (c + aggs[n as usize].count, t + aggs[n as usize].total_ns)
    });
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// What an empty span costs: subtracted where a rung's absolute value
/// (not a difference of rungs) is reported.
fn span_overhead_ns() -> f64 {
    let now = Instant::now();
    let mut tracer = Tracer::new("calibrate", now, now, 0);
    for n in 0..100_000u64 {
        tracer.span(name::REQUEST, n, |_| std::hint::black_box(n));
    }
    tracer.finish().aggregates[name::REQUEST as usize].mean_ns()
}

/// Run `f`, adding the allocator calls and bytes it makes to `counts`.
fn counting_allocs<R>(counts: &mut (u64, u64), f: impl FnOnce() -> R) -> R {
    let before = alloc_counts();
    let out = f();
    let after = alloc_counts();
    counts.0 += after.0 - before.0;
    counts.1 += after.1 - before.1;
    out
}

/// The codec rung: a request goes encode → frame → decode → handler →
/// encode → frame → decode with a span around each call. The server's
/// and the client's `FrameBuf` live across requests, as a connection's
/// do; the allocator is counted around the five codec calls only.
struct CodecRung {
    tracer: Tracer,
    server_side: FrameBuf,
    client_side: FrameBuf,
    /// Allocation calls and bytes of the codec calls so far.
    allocs: (u64, u64),
}

const CODEC_SPANS: [u8; 5] = [
    name::ENCODE_REQ,
    name::FRAME,
    name::DECODE_REQ,
    name::ENCODE_RESP,
    name::DECODE_RESP,
];

impl CodecRung {
    fn new(tracer: Tracer) -> Self {
        CodecRung {
            tracer,
            server_side: FrameBuf::new(),
            client_side: FrameBuf::new(),
            allocs: (0, 0),
        }
    }

    /// One request through the whole in-process path; the response must
    /// survive the trip unchanged.
    fn pass(
        &mut self,
        req: &Request,
        session: &Session<'_>,
        stats: &ServerStats,
    ) -> Result<Response, String> {
        let CodecRung {
            tracer,
            server_side,
            client_side,
            allocs,
        } = self;
        let id = req.id;
        let bytes = counting_allocs(allocs, || {
            tracer.span(name::ENCODE_REQ, id, |_| encode_request(req))
        });
        let frame = counting_allocs(allocs, || {
            tracer.span(name::FRAME, id, |_| {
                server_side.feed(&bytes);
                server_side.next_frame()
            })
        });
        let frame = frame
            .map_err(|e| e.to_string())?
            .ok_or("request frame incomplete")?;
        let decoded = counting_allocs(allocs, || {
            tracer.span(name::DECODE_REQ, id, |_| decode_request(&frame))
        })
        .map_err(|e| e.to_string())?;
        let response = tracer.span(name::HANDLER, id, |_| {
            handle(&decoded, session, stats, None)
        });
        let opcode = decoded.body.opcode();
        let bytes = counting_allocs(allocs, || {
            tracer.span(name::ENCODE_RESP, id, |_| {
                encode_response(opcode, &response)
            })
        });
        let frame = counting_allocs(allocs, || {
            tracer.span(name::FRAME, id, |_| {
                client_side.feed(&bytes);
                client_side.next_frame()
            })
        });
        let frame = frame
            .map_err(|e| e.to_string())?
            .ok_or("response frame incomplete")?;
        let back = counting_allocs(allocs, || {
            tracer.span(name::DECODE_RESP, id, |_| decode_response(&frame))
        })
        .map_err(|e| e.to_string())?;
        if back == response {
            Ok(back)
        } else {
            Err(format!("request {id}: response changed in the codec"))
        }
    }

    /// The rung's trace, the nanoseconds its codec calls took in total,
    /// and their allocation calls and bytes.
    fn finish(self) -> (ThreadTrace, u64, (u64, u64)) {
        let trace = self.tracer.finish();
        let codec_ns = CODEC_SPANS
            .iter()
            .map(|&n| trace.aggregates[n as usize].total_ns)
            .sum();
        (trace, codec_ns, self.allocs)
    }
}

/// What every rung needs, and where its results go.
struct Rig<'a> {
    seed: u64,
    space: u64,
    out_dir: &'a Path,
    placement: &'a Placement,
    origin: Instant,
    stats: ServerStats,
    layer: Layer,
    traces: Vec<ThreadTrace>,
}

pub fn run(seed: u64, space: u64, out_dir: &Path, placement: &Placement) -> Result<Ladder, String> {
    placement.pin_load(0);
    let mut rig = Rig {
        seed,
        space,
        out_dir,
        placement,
        origin: Instant::now(),
        stats: ServerStats::default(),
        layer: Layer::default(),
        traces: Vec::new(),
    };
    let map: Map = build_map(&point_prefill(seed, space)).0;
    let in_process_ns = rig.point_rungs(&map)?;
    rig.range_rungs(&map)?;
    rig.batch_rungs(&map)?;
    rig.pin_and_refresh(&map);
    rig.persist(&map)?;
    discard_map(map);
    rig.socket_rungs(in_process_ns)?;
    Ok(Ladder {
        layer: rig.layer,
        in_process_ns,
        traces: rig.traces,
    })
}

impl Rig<'_> {
    fn tracer(&self, label: &str) -> Tracer {
        Tracer::new(label, self.origin, self.origin, LADDER_KEEP)
    }

    /// Bare handle, session, handler and codec on the point stream.
    /// Returns the in-process total per request.
    ///
    /// The four rungs share one stream over one map: each operation
    /// goes through a rung drawn at random. Every rung then sees the
    /// same mix on the same trees over the same seconds, and follows
    /// every other rung equally often (a fixed rotation would always
    /// run the bare handle on the caches the codec rung left behind) —
    /// so a difference of rungs is a difference of layers.
    fn point_rungs(&mut self, map: &Map) -> Result<f64, String> {
        let overhead = span_overhead_ns();
        let point_tracer = |label| self.tracer(label).ignoring_spans_over(DESCHEDULED);
        let mut rungs = [
            point_tracer("ladder:handle"),
            point_tracer("ladder:session"),
            point_tracer("ladder:handler"),
        ];
        let mut codec = CodecRung::new(point_tracer("ladder:codec"));
        {
            let handles: Vec<Handle<'_, u64, u64>> =
                (0..map.shard_count()).map(|i| map.shard(i).pin()).collect();
            let session = map.pin();
            let mut mix = PointMix::new(stream(self.seed, lane::LADDER), self.space);
            let mut turn: SplitMix64 = stream(self.seed, lane::LADDER + 5);
            for n in 0..STREAM_OPS {
                let op = mix.next_op();
                let (Op::Insert(k) | Op::Delete(k) | Op::Get(k)) = op;
                match turn.below(4) {
                    0 => {
                        // The shard is worked out before the span
                        // opens: the bare-handle rung pays no routing.
                        let (h, tracer) = (&handles[map.shard_of(&k)], &mut rungs[0]);
                        match op {
                            Op::Insert(k) => {
                                tracer.span(name::HANDLE_INSERT, n, |_| h.insert(k, k));
                            }
                            Op::Delete(k) => {
                                tracer.span(name::HANDLE_DELETE, n, |_| h.delete(&k));
                            }
                            Op::Get(k) => {
                                tracer.span(name::HANDLE_GET, n, |_| h.get(&k));
                            }
                        }
                    }
                    1 => {
                        let tracer = &mut rungs[1];
                        match op {
                            Op::Insert(k) => {
                                tracer.span(name::SESSION_INSERT, n, |_| session.insert(k, k));
                            }
                            Op::Delete(k) => {
                                tracer.span(name::SESSION_DELETE, n, |_| session.delete(&k));
                            }
                            Op::Get(k) => {
                                tracer.span(name::SESSION_GET, n, |_| session.get(&k));
                            }
                        }
                    }
                    2 => {
                        let req = Request {
                            id: n,
                            body: body_of(op),
                        };
                        rungs[2].span(name::HANDLER, n, |_| {
                            handle(&req, &session, &self.stats, None)
                        });
                    }
                    _ => {
                        let req = Request {
                            id: n,
                            body: body_of(op),
                        };
                        codec.pass(&req, &session, &self.stats)?;
                    }
                }
            }
        }
        let [handle_rung, session_rung, handler_rung] = rungs.map(Tracer::finish);
        let layer = &mut self.layer;

        let a = &handle_rung.aggregates;
        for (metric, span) in [
            ("core.handle.get_ns", name::HANDLE_GET),
            ("core.handle.insert_ns", name::HANDLE_INSERT),
            ("core.handle.delete_ns", name::HANDLE_DELETE),
        ] {
            layer.set(metric, a[span as usize].mean_ns() - overhead);
        }
        let handle_ns = mean_of(
            a,
            &[name::HANDLE_GET, name::HANDLE_INSERT, name::HANDLE_DELETE],
        );
        let session_ns = mean_of(
            &session_rung.aggregates,
            &[
                name::SESSION_GET,
                name::SESSION_INSERT,
                name::SESSION_DELETE,
            ],
        );
        layer.set("shard.session.self_ns", session_ns - handle_ns);
        let handler_ns = handler_rung.aggregates[name::HANDLER as usize].mean_ns();
        layer.set("server.handler.self_ns", handler_ns - session_ns);

        let (codec_rung, codec_ns, (alloc_calls, _)) = codec.finish();
        let a = &codec_rung.aggregates;
        let requests = a[name::HANDLER as usize].count as f64;
        // `frame_ns` holds two framings per request: the server's of the
        // request, the client's of the response.
        for (metric, span) in [
            ("server.codec.encode_req_ns", name::ENCODE_REQ),
            ("server.codec.frame_ns", name::FRAME),
            ("server.codec.decode_req_ns", name::DECODE_REQ),
            ("server.codec.encode_resp_ns", name::ENCODE_RESP),
            ("server.codec.decode_resp_ns", name::DECODE_RESP),
        ] {
            layer.set(metric, a[span as usize].total_ns as f64 / requests);
        }
        layer.set("server.codec.allocs_per_req", alloc_calls as f64 / requests);
        self.traces
            .extend([handle_rung, session_rung, handler_rung, codec_rung]);
        Ok(handler_ns + codec_ns as f64 / requests)
    }

    /// A scan of [`SCAN_WIDTH`] keys on the bare handle, through the
    /// session, and its reply through the codec.
    fn range_rungs(&mut self, map: &Map) -> Result<(), String> {
        let mut rng: SplitMix64 = stream(self.seed, lane::LADDER + 1);
        let ranges: Vec<(u64, u64)> = (0..2 * REPEATS)
            .map(|_| {
                let lo = rng.below(self.space / BLOCK) * BLOCK + rng.below(BLOCK - SCAN_WIDTH);
                (lo, lo + SCAN_WIDTH - 1)
            })
            .collect();

        // Alternate ranges go to the bare handle and to the session, so
        // both see the same seconds of the box.
        let mut bare = self.tracer("ladder:range-handle");
        let mut merged = self.tracer("ladder:range-session");
        let (mut bare_keys, mut merged_keys) = (0u64, 0u64);
        let session = map.pin();
        for (n, &(lo, hi)) in ranges.iter().enumerate() {
            let id = n as u64;
            let want = session.range(lo..=hi).count() as u64;
            let got = if n % 2 == 0 {
                let h = map.shard(map.shard_of(&lo)).pin();
                let range = bare.span(name::HANDLE_RANGE, id, |_| h.range(lo..=hi));
                let got = bare.span(name::RANGE_DRAIN, id, |_| range.count()) as u64;
                bare_keys += got;
                got
            } else {
                let range = merged.span(name::SESSION_RANGE, id, |_| session.range(lo..=hi));
                let got = merged.span(name::MERGE_DRAIN, id, |_| range.count()) as u64;
                merged_keys += got;
                got
            };
            if got != want {
                return Err(format!(
                    "scan [{lo}, {hi}] returned {got} keys, then {want}"
                ));
            }
        }
        let (bare, merged) = (bare.finish(), merged.finish());
        let open = bare.aggregates[name::HANDLE_RANGE as usize];
        let drain = bare.aggregates[name::RANGE_DRAIN as usize];
        self.layer.set("core.scan.open_ns", open.mean_ns());
        self.layer.set(
            "core.scan.ns_per_key",
            drain.total_ns as f64 / bare_keys.max(1) as f64,
        );
        let bare_per_key = (open.total_ns + drain.total_ns) as f64 / bare_keys.max(1) as f64;
        let a = &merged.aggregates;
        let merged_total =
            a[name::SESSION_RANGE as usize].total_ns + a[name::MERGE_DRAIN as usize].total_ns;
        self.layer.set(
            "shard.merge.self_ns_per_key",
            merged_total as f64 / merged_keys.max(1) as f64 - bare_per_key,
        );
        self.traces.extend([bare, merged]);

        let mut codec = CodecRung::new(self.tracer("ladder:range-codec"));
        let mut entries = 0u64;
        for (n, &(lo, hi)) in ranges.iter().take(REPEATS).enumerate() {
            let req = Request {
                id: n as u64,
                body: ReqBody::Range {
                    lo,
                    hi,
                    count_only: false,
                },
            };
            if let RespBody::Entries { entries: e, .. } =
                codec.pass(&req, &session, &self.stats)?.body
            {
                entries += e.len() as u64;
            }
        }
        let (trace, codec_ns, (_, alloc_bytes)) = codec.finish();
        let per_entry = |v: u64| v as f64 / entries.max(1) as f64;
        self.layer
            .set("server.codec.range_ns_per_entry", per_entry(codec_ns));
        self.layer
            .set("server.codec.alloc_bytes_per_entry", per_entry(alloc_bytes));
        self.traces.push(trace);
        Ok(())
    }

    /// A 64-op batch on one tree's bare handle, and through the codec.
    fn batch_rungs(&mut self, map: &Map) -> Result<(), String> {
        let mut mix = PointMix::new(stream(self.seed, lane::LADDER + 2), self.space);

        // Batches of keys that all live in shard 0, for its bare handle.
        let mut tracer = self.tracer("ladder:batch-handle");
        let (mut total_ops, mut root_descents) = (0u64, 0u64);
        {
            let h = map.shard(0).pin();
            for n in 0..REPEATS {
                let mut batch: Vec<BatchOp<u64, u64>> = Vec::with_capacity(BATCH_SUBOPS);
                while batch.len() < BATCH_SUBOPS {
                    let op = mix.next_op();
                    let (Op::Insert(k) | Op::Delete(k) | Op::Get(k)) = op;
                    if map.shard_of(&k) == 0 {
                        batch.push(match op {
                            Op::Insert(k) => BatchOp::Insert(k, k),
                            Op::Delete(k) => BatchOp::Delete(k),
                            Op::Get(k) => BatchOp::Get(k),
                        });
                    }
                }
                let (_, report) = tracer.span(name::HANDLE_BATCH, n as u64, |_| {
                    h.apply_batch_reported(&batch)
                });
                total_ops += report.ops;
                root_descents += report.root_descents;
            }
        }
        let bare = tracer.finish();
        self.layer.set(
            "core.batch.ns_per_op",
            bare.aggregates[name::HANDLE_BATCH as usize].total_ns as f64 / total_ops.max(1) as f64,
        );
        self.layer.set(
            "core.batch.ops_per_descent",
            total_ops as f64 / root_descents.max(1) as f64,
        );
        self.traces.push(bare);

        let mut codec = CodecRung::new(self.tracer("ladder:batch-codec"));
        let session = map.pin();
        for n in 0..REPEATS {
            let ops = (0..BATCH_SUBOPS)
                .map(|_| sub_op_of(mix.next_op()))
                .collect();
            let req = Request {
                id: n as u64,
                body: ReqBody::Batch { ops },
            };
            codec.pass(&req, &session, &self.stats)?;
        }
        let (trace, codec_ns, _) = codec.finish();
        self.layer.set(
            "server.codec.batch_ns_per_subop",
            codec_ns as f64 / (REPEATS * BATCH_SUBOPS) as f64,
        );
        self.traces.push(trace);
        Ok(())
    }

    /// `pin()` + drop, `Handle::refresh`, `ShardedSession::refresh`:
    /// plain timed loops (a span would cost more than the call).
    fn pin_and_refresh(&mut self, map: &Map) {
        const CALLS: u32 = 100_000;
        let per_call = |start: Instant| start.elapsed().as_nanos() as f64 / CALLS as f64;
        let tree = map.shard(0);
        let start = Instant::now();
        for _ in 0..CALLS {
            drop(std::hint::black_box(tree.pin()));
        }
        self.layer.set("core.handle.pin_ns", per_call(start));
        let mut h = tree.pin();
        let start = Instant::now();
        for _ in 0..CALLS {
            h.refresh();
        }
        self.layer.set("core.handle.refresh_ns", per_call(start));
        drop(h);
        let mut session = map.pin();
        let start = Instant::now();
        for _ in 0..CALLS {
            session.refresh();
        }
        self.layer.set("shard.session.refresh_ns", per_call(start));
    }

    /// Checkpoint, restore, bytes on disk per entry; the restored map
    /// must be the source, entry for entry.
    fn persist(&mut self, map: &Map) -> Result<(), String> {
        let dir = self
            .out_dir
            .join(format!("ckpt-ladder-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let layer = &mut self.layer;
        let result = (|| {
            let start = Instant::now();
            let report = map
                .checkpoint(&dir)
                .map_err(|e| format!("checkpoint: {e}"))?;
            layer.set(
                "core.persist.checkpoint_ms",
                start.elapsed().as_secs_f64() * 1e3,
            );
            let start = Instant::now();
            let restored = Map::restore(&dir).map_err(|e| format!("restore: {e}"))?;
            layer.set(
                "core.persist.restore_ms",
                start.elapsed().as_secs_f64() * 1e3,
            );
            layer.set(
                "core.persist.bytes_per_entry",
                dir_bytes(&dir) as f64 / report.entries.max(1) as f64,
            );
            let same = restored.pin().iter().eq(map.pin().iter());
            let len = restored.len() as u64;
            discard_map(restored);
            if same && len == report.entries {
                Ok(())
            } else {
                Err(format!(
                    "restored map differs from its source ({len} keys, checkpoint wrote {})",
                    report.entries
                ))
            }
        })();
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    /// The rungs that cross the socket: `Client::call` and the
    /// `ReconnectingClient` on alternate arrivals of one open-loop
    /// Poisson probe (the `net-lowrate` regime: the worker is idle
    /// before every request), then `Client::send` / `Client::recv` in a
    /// pipeline as deep as `net-pipeline`'s.
    fn socket_rungs(&mut self, in_process_ns: f64) -> Result<(), String> {
        const PROBE: Duration = Duration::from_secs(3);
        const PIPELINE: Duration = Duration::from_secs(1);
        let (served, mut client) = serve(self.seed, self.space, self.out_dir, self.placement)?;
        let result = (|| {
            let mut retrying = ReconnectingClient::new(served.addr);
            retrying.ping().map_err(|e| e.to_string())?;
            let mut mix = PointMix::new(stream(self.seed, lane::LADDER + 3), self.space);
            let mut schedule = Poisson::new(stream(self.seed, lane::LADDER + 4), LOWRATE_PER_S);
            let mut tracer = self.tracer("ladder:call");
            let begin = Instant::now();
            for n in 0u64.. {
                let due = begin + Duration::from_nanos(schedule.next_due_ns());
                if due >= begin + PROBE {
                    break;
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let op = mix.next_op();
                if n % 2 == 0 {
                    tracer
                        .span(name::CLIENT_CALL, n, |_| client.call(body_of(op)))
                        .map_err(|e| e.to_string())?;
                } else {
                    tracer
                        .span(name::RETRY_CALL, n, |_| match op {
                            Op::Insert(k) => retrying.insert(k, k).map(drop),
                            Op::Delete(k) => retrying.delete(k).map(drop),
                            Op::Get(k) => retrying.get(k).map(drop),
                        })
                        .map_err(|e| e.to_string())?;
                }
            }
            let calls = tracer.finish();
            let call_ns = span_median_ns(&calls, name::CLIENT_CALL);
            self.layer.set("server.client.call_ns", call_ns);
            self.layer.set("server.io.wait_ns", call_ns - in_process_ns);
            self.layer.set(
                "server.retry.self_ns",
                span_median_ns(&calls, name::RETRY_CALL) - call_ns,
            );
            self.traces.push(calls);

            let mut tracer = self.tracer("ladder:pipeline");
            let begin = Instant::now();
            let mut in_flight = 0usize;
            let mut n = 0u64;
            loop {
                let stopping = begin.elapsed() >= PIPELINE;
                while !stopping && in_flight < PIPELINE_DEPTH {
                    n += 1;
                    let body = body_of(mix.next_op());
                    tracer
                        .span(name::CLIENT_SEND, n, |_| client.send(body))
                        .map_err(|e| e.to_string())?;
                    in_flight += 1;
                }
                if in_flight == 0 {
                    break;
                }
                tracer
                    .span(name::CLIENT_RECV, n, |_| client.recv())
                    .map_err(|e| e.to_string())?;
                in_flight -= 1;
            }
            let pipeline = tracer.finish();
            self.layer.set(
                "server.client.send_ns",
                pipeline.aggregates[name::CLIENT_SEND as usize].mean_ns(),
            );
            self.layer.set(
                "server.client.recv_wait_ns",
                pipeline.aggregates[name::CLIENT_RECV as usize].mean_ns(),
            );
            self.traces.push(pipeline);
            Ok(())
        })();
        drop(client);
        let stopped = served.stop();
        result.and(stopped)
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                dir_bytes(&path)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}
