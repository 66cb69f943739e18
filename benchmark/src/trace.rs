//! Span recording around calls into the system's public functions, and
//! the counting allocator — both compiled only into the `trace` build.
//!
//! A span is `(name, start ns, end ns, parent span, request id)`. Every
//! span feeds a per-name aggregate (count, total time, time covered by
//! child spans — so self time is total minus children); the first
//! [`KEEP`] spans of each thread are also kept verbatim and written to
//! `out/trace-<workload>.json` when the run ends. Nothing is written
//! while a workload runs.
//!
//! Without the `trace` feature [`Tracer`] is a zero-sized type and
//! [`Tracer::span`] is the call it wraps, so the untraced build's loops
//! are the same source with nothing around the calls.

use std::time::Instant;

/// Span names: one per public function (or harness step) a span can
/// surround. The index into this table is what a span stores.
pub const NAMES: [&str; 23] = [
    "request",
    "Handle::get",
    "Handle::insert",
    "Handle::delete",
    "Handle::range",
    "Range::drain",
    "Handle::apply_batch",
    "ShardedSession::get",
    "ShardedSession::insert",
    "ShardedSession::delete",
    "ShardedSession::range",
    "MergeRange::drain",
    "ShardedSession::refresh",
    "handler::handle",
    "encode_request",
    "FrameBuf::feed+next_frame",
    "decode_request",
    "encode_response",
    "decode_response",
    "Client::call",
    "Client::send",
    "Client::recv",
    "ReconnectingClient::call",
];

/// Indices into [`NAMES`].
pub mod name {
    pub const REQUEST: u8 = 0;
    pub const HANDLE_GET: u8 = 1;
    pub const HANDLE_INSERT: u8 = 2;
    pub const HANDLE_DELETE: u8 = 3;
    pub const HANDLE_RANGE: u8 = 4;
    pub const RANGE_DRAIN: u8 = 5;
    pub const HANDLE_BATCH: u8 = 6;
    pub const SESSION_GET: u8 = 7;
    pub const SESSION_INSERT: u8 = 8;
    pub const SESSION_DELETE: u8 = 9;
    pub const SESSION_RANGE: u8 = 10;
    pub const MERGE_DRAIN: u8 = 11;
    pub const SESSION_REFRESH: u8 = 12;
    pub const HANDLER: u8 = 13;
    pub const ENCODE_REQ: u8 = 14;
    pub const FRAME: u8 = 15;
    pub const DECODE_REQ: u8 = 16;
    pub const ENCODE_RESP: u8 = 17;
    pub const DECODE_RESP: u8 = 18;
    pub const CLIENT_CALL: u8 = 19;
    pub const CLIENT_SEND: u8 = 20;
    pub const CLIENT_RECV: u8 = 21;
    pub const RETRY_CALL: u8 = 22;
}

/// Spans a workload thread keeps verbatim; later ones only reach the
/// aggregates. Bounds the trace file (≈ 2 MB per thread) and the
/// memory a fast workload's trace takes.
pub const KEEP: usize = 50_000;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: u8,
    pub parent: u32,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every span of a thread, kept or not.
#[derive(Clone, Copy, Debug, Default)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub child_ns: u64,
}

impl Aggregate {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// What a thread's tracer holds when the run ends.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    pub label: String,
    pub spans: Vec<Span>,
    pub aggregates: [Aggregate; NAMES.len()],
}

impl ThreadTrace {
    fn empty(label: &str) -> Self {
        ThreadTrace {
            label: label.to_string(),
            spans: Vec::new(),
            aggregates: [Aggregate::default(); NAMES.len()],
        }
    }
}

/// One thread's span recorder.
pub struct Tracer {
    #[cfg(feature = "trace")]
    inner: Recording,
}

#[cfg(feature = "trace")]
struct Recording {
    origin: Instant,
    record_from: Instant,
    trace: ThreadTrace,
    /// Open spans: (row in `spans`, or `NO_PARENT` when not kept; time
    /// covered by closed children).
    stack: Vec<(u32, u64)>,
    keep: usize,
    /// Spans longer than this stay out of the aggregates.
    ignore_over_ns: u64,
}

impl Tracer {
    /// A recorder whose span times count from `origin` (shared by all
    /// threads of a run, so their spans line up). Spans that start
    /// before `record_from` — the warm-up's — run but leave no record;
    /// of the rest the first `keep` are kept verbatim.
    pub fn new(label: &str, origin: Instant, record_from: Instant, keep: usize) -> Self {
        #[cfg(not(feature = "trace"))]
        {
            let _ = (label, origin, record_from, keep);
            Tracer {}
        }
        #[cfg(feature = "trace")]
        Tracer {
            inner: Recording {
                origin,
                record_from,
                trace: ThreadTrace {
                    spans: Vec::with_capacity(keep),
                    ..ThreadTrace::empty(label)
                },
                stack: Vec::with_capacity(8),
                keep,
                ignore_over_ns: u64::MAX,
            },
        }
    }

    /// Leave spans longer than `limit` out of the aggregates (they are
    /// still kept verbatim). For rungs whose calls take microseconds: a
    /// span of a millisecond is a descheduled vCPU, and one of those in
    /// fifty thousand moves a mean by more than a thin layer costs.
    pub fn ignoring_spans_over(self, limit: std::time::Duration) -> Self {
        #[cfg(not(feature = "trace"))]
        {
            let _ = limit;
            self
        }
        #[cfg(feature = "trace")]
        {
            let mut tracer = self;
            tracer.inner.ignore_over_ns = limit.as_nanos() as u64;
            tracer
        }
    }

    /// Whether this build records spans.
    pub const fn enabled() -> bool {
        cfg!(feature = "trace")
    }

    /// Run `f` inside a span. The closure receives the tracer back so a
    /// nested call can open a child span.
    #[inline(always)]
    pub fn span<R>(&mut self, name: u8, request: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        #[cfg(not(feature = "trace"))]
        {
            let _ = (name, request);
            f(self)
        }
        #[cfg(feature = "trace")]
        {
            let start = Instant::now();
            let rec = &mut self.inner;
            let recorded = start >= rec.record_from;
            // Rows are claimed at open, so a parent's row precedes its
            // children's, and filled at close.
            let row = if recorded && rec.trace.spans.len() < rec.keep {
                rec.trace.spans.push(Span {
                    name,
                    parent: rec.stack.last().map_or(NO_PARENT, |p| p.0),
                    request,
                    start_ns: (start - rec.origin).as_nanos() as u64,
                    end_ns: 0,
                });
                rec.trace.spans.len() as u32 - 1
            } else {
                NO_PARENT
            };
            rec.stack.push((row, 0));
            let out = f(self);
            let end = Instant::now();
            let rec = &mut self.inner;
            let (_, child_ns) = rec.stack.pop().expect("span stack balanced");
            let dur = (end - start).as_nanos() as u64;
            if let Some(parent) = rec.stack.last_mut() {
                parent.1 += dur;
            }
            if recorded && dur <= rec.ignore_over_ns {
                let agg = &mut rec.trace.aggregates[name as usize];
                agg.count += 1;
                agg.total_ns += dur;
                agg.child_ns += child_ns;
            }
            if row != NO_PARENT {
                rec.trace.spans[row as usize].end_ns = (end - rec.origin).as_nanos() as u64;
            }
            out
        }
    }

    pub fn finish(self) -> ThreadTrace {
        #[cfg(not(feature = "trace"))]
        {
            ThreadTrace::empty("")
        }
        #[cfg(feature = "trace")]
        self.inner.trace
    }
}

/// Sum of the per-name aggregates of several threads.
pub fn total_aggregates(threads: &[ThreadTrace]) -> [Aggregate; NAMES.len()] {
    let mut sum = [Aggregate::default(); NAMES.len()];
    for t in threads {
        for (s, a) in sum.iter_mut().zip(&t.aggregates) {
            s.count += a.count;
            s.total_ns += a.total_ns;
            s.child_ns += a.child_ns;
        }
    }
    sum
}

/// The trace file: span names, each thread's kept spans as
/// `[name, start_ns, end_ns, parent, request]` rows (`parent` −1 for a
/// root), the aggregates, and the counter deltas taken at the same
/// boundaries.
pub fn render_trace_file(
    workload: &str,
    seed: u64,
    threads: &[ThreadTrace],
    counters: &[(String, f64)],
) -> String {
    use crate::json::number;
    use std::fmt::Write as _;
    let mut out = String::new();
    let w = &mut out;
    let names: Vec<String> = NAMES.iter().map(|n| format!("\"{n}\"")).collect();
    writeln!(w, "{{\"workload\": \"{workload}\", \"seed\": {seed},").unwrap();
    writeln!(w, " \"span_names\": [{}],", names.join(", ")).unwrap();
    writeln!(
        w,
        " \"span_columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\"],"
    )
    .unwrap();
    writeln!(w, " \"threads\": [").unwrap();
    for (ti, t) in threads.iter().enumerate() {
        writeln!(w, "  {{\"label\": \"{}\", \"spans\": [", t.label).unwrap();
        for (i, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let comma = if i + 1 == t.spans.len() { "" } else { "," };
            writeln!(
                w,
                "   [{}, {}, {}, {}, {}]{comma}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )
            .unwrap();
        }
        let comma = if ti + 1 == threads.len() { "" } else { "," };
        writeln!(w, "  ]}}{comma}").unwrap();
    }
    writeln!(w, " ],").unwrap();
    writeln!(w, " \"aggregates\": {{").unwrap();
    let total = total_aggregates(threads);
    let used: Vec<usize> = (0..NAMES.len()).filter(|&i| total[i].count > 0).collect();
    for (n, &i) in used.iter().enumerate() {
        let a = total[i];
        let comma = if n + 1 == used.len() { "" } else { "," };
        writeln!(
            w,
            "  \"{}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"mean_ns\": {}}}{comma}",
            NAMES[i],
            a.count,
            a.total_ns,
            a.total_ns - a.child_ns.min(a.total_ns),
            number(a.mean_ns()),
        )
        .unwrap();
    }
    writeln!(w, " }},").unwrap();
    writeln!(w, " \"counters\": {{").unwrap();
    for (i, (k, v)) in counters.iter().enumerate() {
        let comma = if i + 1 == counters.len() { "" } else { "," };
        writeln!(w, "  \"{k}\": {}{comma}", number(*v)).unwrap();
    }
    writeln!(w, " }}\n}}").unwrap();
    out
}

// ---------------------------------------------------------------------------
// Counting allocator (trace build only)
// ---------------------------------------------------------------------------

#[cfg(feature = "trace")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub static BYTES: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    // SAFETY: every call is forwarded unchanged to `System`, which
    // upholds the `GlobalAlloc` contract; the counters touch no memory
    // the allocator manages.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            // SAFETY: same layout the caller vouched for.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
            // SAFETY: forwarded unchanged.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;
}

/// `(allocation calls, bytes requested)` by the whole process so far;
/// zeros in the untraced build, which keeps the system allocator.
pub fn alloc_counts() -> (u64, u64) {
    #[cfg(feature = "trace")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        (
            counting::ALLOCS.load(Relaxed),
            counting::BYTES.load(Relaxed),
        )
    }
    #[cfg(not(feature = "trace"))]
    (0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_indices_agree() {
        assert_eq!(NAMES[name::REQUEST as usize], "request");
        assert_eq!(NAMES[name::HANDLER as usize], "handler::handle");
        assert_eq!(NAMES[name::CLIENT_RECV as usize], "Client::recv");
        assert_eq!(NAMES[name::RETRY_CALL as usize], "ReconnectingClient::call");
        assert_eq!(name::RETRY_CALL as usize + 1, NAMES.len());
    }

    #[test]
    fn span_returns_the_closure_result_in_both_builds() {
        let now = Instant::now();
        let mut t = Tracer::new("t", now, now, KEEP);
        let v = t.span(name::REQUEST, 7, |t| {
            t.span(name::HANDLE_GET, 7, |_| 20) + t.span(name::HANDLE_INSERT, 7, |_| 22)
        });
        assert_eq!(v, 42);
        let trace = t.finish();
        if Tracer::enabled() {
            assert_eq!(trace.spans.len(), 3);
            // Rows are claimed at open: the parent is 0, children 1 and 2.
            assert_eq!(trace.spans[0].name, name::REQUEST);
            assert_eq!(trace.spans[0].parent, NO_PARENT);
            assert_eq!(trace.spans[1].parent, 0);
            assert_eq!(trace.spans[2].parent, 0);
            assert!(trace.spans.iter().all(|s| s.request == 7));
            let root = trace.aggregates[name::REQUEST as usize];
            let kids = trace.aggregates[name::HANDLE_GET as usize].total_ns
                + trace.aggregates[name::HANDLE_INSERT as usize].total_ns;
            assert_eq!(root.child_ns, kids);
            assert!(root.total_ns >= kids);
        } else {
            assert!(trace.spans.is_empty());
        }
    }

    #[test]
    fn trace_file_is_json() {
        let now = Instant::now();
        let mut t = Tracer::new("load-0", now, now, KEEP);
        t.span(name::CLIENT_CALL, 1, |_| ());
        let text = render_trace_file(
            "net-lowrate",
            3,
            &[t.finish()],
            &[("server.stats.requests".to_string(), 12.0)],
        );
        let v = crate::json::parse(&text).expect("trace file parses");
        assert_eq!(v.get("workload").unwrap().as_str(), Some("net-lowrate"));
        assert_eq!(v.get("span_names").unwrap().as_array().len(), NAMES.len());
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("server.stats.requests")
                .unwrap()
                .as_f64(),
            Some(12.0)
        );
    }
}
