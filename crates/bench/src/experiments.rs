//! The experiment table: E1–E8 reproduce the paper's evaluation
//! protocol (PNB-BST against the PODC 2010 tree it extends and the
//! lock-based maps), and E8r, E9, E10 and E13 are the design ablations
//! (collector, arena, shard count, batch size; see DESIGN.md §4). Each
//! experiment renders a markdown section with the rows the protocol
//! reports and appends machine-readable rows to a [`JsonLog`] so CI can
//! record `BENCH_*.json` perf trajectories across PRs.
//!
//! [`EXPERIMENTS`] is the one list of them: the `experiments` binary
//! parses its command line against it ([`parse_args`]) and the tests
//! run its entries by name. Open-loop and served-path measurements
//! live in `benchmark/`, not here.

use std::time::Duration;

use workload::{
    ConcurrentMap, KeyDist, MapSession, Measurement, Mix, RunConfig, ScanUpdaterConfig,
};

use crate::adapters::{self, required_caps, Structure};

pub use workload::json::JsonLog;
use workload::json::Val;

/// Global experiment options.
#[derive(Clone, Copy, Debug)]
pub struct ExpOpts {
    /// Quick mode: fewer thread counts, shorter durations (CI-friendly).
    pub quick: bool,
}

impl ExpOpts {
    fn duration(&self) -> Duration {
        if self.quick {
            Duration::from_millis(150)
        } else {
            Duration::from_millis(1200)
        }
    }

    fn threads(&self) -> Vec<usize> {
        if self.quick {
            vec![1, 2, 4]
        } else {
            vec![1, 2, 4, 8]
        }
    }

    fn key_ranges(&self) -> Vec<u64> {
        if self.quick {
            vec![1_000, 20_000]
        } else {
            vec![1_000, 100_000]
        }
    }
}

/// One experiment: the id it answers to on the command line and in
/// every JSON row it logs, and how to run it.
#[derive(Debug)]
pub struct Spec {
    /// Experiment id (`e1`, `e8r`, ...).
    pub name: &'static str,
    run: Run,
}

#[derive(Debug)]
enum Run {
    /// E1–E3: every capable structure × thread count × key range under
    /// one closed-loop mix (section title, mix).
    Sweep(&'static str, fn() -> Mix),
    /// Every other experiment.
    Custom(fn(&ExpOpts, &mut JsonLog) -> String),
}

impl Spec {
    /// Run the experiment, log its rows and return its markdown section.
    pub fn run(&self, opts: &ExpOpts, log: &mut JsonLog) -> String {
        match self.run {
            Run::Sweep(title, mix) => sweep(self.name, title, mix(), opts, log),
            Run::Custom(f) => f(opts, log),
        }
    }
}

/// Every experiment, in the order a bare `experiments` run executes them.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Spec] = &[
    Spec { name: "e1", run: Run::Sweep("E1 — Update-only scaling (50i/50d)", Mix::update_only) },
    Spec { name: "e2", run: Run::Sweep("E2 — Search-dominated scaling (10i/10d/80f)", Mix::read_mostly) },
    Spec { name: "e3", run: Run::Sweep(
        "E3 — Mixed workload with range queries (25i/25d/40f/10rq, width 100)",
        || Mix::with_ranges(100),
    ) },
    Spec { name: "e4", run: Run::Custom(e4) },
    Spec { name: "e5", run: Run::Custom(e5) },
    Spec { name: "e6", run: Run::Custom(e6) },
    Spec { name: "e7", run: Run::Custom(e7) },
    Spec { name: "e8", run: Run::Custom(e8) },
    Spec { name: "e8r", run: Run::Custom(e8r) },
    Spec { name: "e9", run: Run::Custom(e9) },
    Spec { name: "e10", run: Run::Custom(e10) },
    Spec { name: "e13", run: Run::Custom(e13) },
];

/// A parsed `experiments` command line.
#[derive(Debug)]
pub struct Args {
    /// `--quick`: CI-sized sweeps.
    pub quick: bool,
    /// `--json <path>`: also write every row to this file.
    pub json: Option<String>,
    /// The experiments to run, in command-line order (all of
    /// [`EXPERIMENTS`] when none is named).
    pub run: Vec<&'static Spec>,
}

/// Parse the binary's arguments (without the program name). Every
/// argument is checked before anything runs: an unknown flag, an
/// unknown experiment or a `--json` without a path is an error.
pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        json: None,
        run: Vec::new(),
    };
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(a) = it.next() {
        match a {
            "--quick" => parsed.quick = true,
            "--json" => match it.next() {
                Some(p) if !p.starts_with("--") => parsed.json = Some(p.to_string()),
                _ => return Err("--json requires a file path argument".into()),
            },
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown flag: {flag} (expected --quick, --json <path>)"
                ))
            }
            name => match EXPERIMENTS.iter().find(|s| s.name == name) {
                Some(spec) => parsed.run.push(spec),
                None => {
                    let known: Vec<&str> = EXPERIMENTS.iter().map(|s| s.name).collect();
                    return Err(format!(
                        "unknown experiment: {name} (expected one of {})",
                        known.join(", ")
                    ));
                }
            },
        }
    }
    if parsed.run.is_empty() {
        parsed.run = EXPERIMENTS.iter().collect();
    }
    Ok(parsed)
}

fn fmt_tput(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e6 {
        format!("{:.2} Mops/s", ops_per_sec / 1e6)
    } else {
        format!("{:.0} Kops/s", ops_per_sec / 1e3)
    }
}

/// A markdown table header: `structure`, then `cols`, then the `|---|` rule.
fn md_head(cols: impl IntoIterator<Item = String>) -> String {
    let cols: Vec<_> = std::iter::once("structure".to_string())
        .chain(cols)
        .collect();
    format!("{}|{}\n", md_row(&cols), "---|".repeat(cols.len()))
}

/// One markdown table row.
fn md_row(cells: &[String]) -> String {
    cells
        .iter()
        .fold("|".to_string(), |row, c| row + " " + c + " |")
        + "\n"
}

fn log_measurement(log: &mut JsonLog, exp: &str, key_range: u64, m: &Measurement) {
    log.push(
        exp,
        &[
            ("structure", Val::s(&m.name)),
            ("threads", Val::U(m.threads as u64)),
            ("key_range", Val::U(key_range)),
            ("elapsed_secs", Val::F(m.elapsed_secs)),
            ("inserts", Val::U(m.inserts)),
            ("upserts", Val::U(m.upserts)),
            ("deletes", Val::U(m.deletes)),
            ("finds", Val::U(m.finds)),
            ("scans", Val::U(m.scans)),
            ("scanned_keys", Val::U(m.scanned_keys)),
            ("total_ops", Val::U(m.total_ops)),
            ("ops_per_sec", Val::F(m.ops_per_sec)),
        ],
    );
}

/// E1–E3: closed-loop throughput of every structure whose capabilities
/// cover `mix`, per key range × thread count.
fn sweep(exp: &str, title: &str, mix: Mix, opts: &ExpOpts, log: &mut JsonLog) -> String {
    let mut out = format!("\n### {title}\n");
    let threads = opts.threads();
    for key_range in opts.key_ranges() {
        let log10 = (key_range as f64).log10();
        out.push_str(&format!("\n#### key range 10^{log10:.0} ({key_range})\n\n"));
        out.push_str(&md_head(threads.iter().map(|t| format!("{t} thr"))));
        for s in adapters::all_structures(required_caps(&mix)) {
            let mut cells = vec![s.name().to_string()];
            for &t in &threads {
                let cfg = RunConfig::new(t, opts.duration(), KeyDist::uniform(key_range), mix);
                eprintln!("  {} / {} threads / range {key_range} ...", s.name(), t);
                let m = adapters::dispatch!(&s, m => workload::run_throughput(m, &cfg))
                    .expect("roster is filtered by capability");
                log_measurement(log, exp, key_range, &m);
                cells.push(fmt_tput(m.ops_per_sec));
            }
            out.push_str(&md_row(&cells));
            // Measurement hygiene: drain still-deferred garbage into the
            // pools, then release the arena's retained footprint, so the
            // next structure is benchmarked neither inside this one's heap
            // nor while its garbage is still ripening (pnb-bst pools
            // deliberately hold their peak working set).
            pnb_bst::collector_drain(64);
            pnb_bst::arena_trim();
        }
    }
    out
}

/// E4: range-width sweep under a scan-heavy mix (10i/10d/30f/50rq).
fn e4(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let kr: u64 = if opts.quick { 20_000 } else { 100_000 };
    let widths: Vec<u64> = if opts.quick {
        vec![10, 100, 1_000]
    } else {
        vec![10, 100, 1_000, 10_000]
    };
    let threads = if opts.quick { 2 } else { 4 };
    let mut out = format!(
        "\n### E4 — Range-width sweep (10i/10d/30f/50rq, {threads} threads, key range {kr})\n\n"
    );
    out.push_str(&md_head(widths.iter().map(|w| format!("width {w}"))));

    let prototypes = [
        Structure::Pnb(adapters::Pnb::new()),
        Structure::Rw(adapters::Rw::new()),
    ];
    for proto in &prototypes {
        let mut cells = vec![proto.name().to_string()];
        for &w in &widths {
            // Fresh instance per cell so widths don't contaminate.
            let fresh = proto.fresh();
            let cfg = RunConfig::new(
                threads,
                opts.duration(),
                KeyDist::uniform(kr),
                Mix::scan_heavy(w),
            );
            eprintln!("  {} / width {w} ...", fresh.name());
            let m = adapters::dispatch!(&fresh, m => workload::run_throughput(m, &cfg))
                .expect("range-capable roster");
            log_measurement(log, "e4", kr, &m);
            cells.push(format!(
                "{} ({} keys/scan)",
                fmt_tput(m.ops_per_sec),
                m.scanned_keys.checked_div(m.scans).unwrap_or(0)
            ));
        }
        out.push_str(&md_row(&cells));
    }
    out
}

/// E5: cost of persistence — single-threaded op latency, PNB vs NB vs
/// sequential floor.
fn e5(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let n: u64 = if opts.quick { 10_000 } else { 50_000 };
    let reps: u64 = if opts.quick { 3 } else { 10 };
    let mut out = format!(
        "\n### E5 — Cost of persistence (single thread, {n}-key space, ns/op)\n\n\
         | structure | insert | find | delete |\n|---|---|---|---|\n"
    );

    // Concurrent structures through the adapter interface.
    for s in [
        Structure::Pnb(adapters::Pnb::new()),
        Structure::Nb(adapters::Nb::new()),
    ] {
        let (ins, fnd, del) = adapters::dispatch!(&s, m => {
            let mut session = m.pin();
            latency_triple(n, reps, |step, k| match step {
                Step::Insert => _ = session.insert(k, k),
                Step::Find => _ = std::hint::black_box(session.get(&k)),
                Step::Delete => _ = session.delete(&k),
                Step::Settle => session.refresh(),
            })
        });
        log_e5(log, s.name(), n, ins, fnd, del);
        out.push_str(&format!(
            "| {} | {ins:.0} | {fnd:.0} | {del:.0} |\n",
            s.name()
        ));
        pnb_bst::collector_drain(64);
        pnb_bst::arena_trim(); // heap hygiene between structures
    }

    // Sequential floor (needs &mut, measured directly).
    let mut t = lock_bst::seq::SeqBst::<u64, u64>::new();
    let (ins, fnd, del) = latency_triple(n, reps, |step, k| match step {
        Step::Insert => _ = t.insert(k, k),
        Step::Find => _ = std::hint::black_box(t.get(&k)),
        Step::Delete => _ = t.remove(&k),
        Step::Settle => {}
    });
    log_e5(log, "seq-bst", n, ins, fnd, del);
    out.push_str(&format!(
        "| seq-bst (floor) | {ins:.0} | {fnd:.0} | {del:.0} |\n"
    ));
    out
}

fn log_e5(log: &mut JsonLog, name: &str, key_space: u64, ins: f64, fnd: f64, del: f64) {
    log.push(
        "e5",
        &[
            ("structure", Val::s(name)),
            ("key_space", Val::U(key_space)),
            ("insert_ns", Val::F(ins)),
            ("find_ns", Val::F(fnd)),
            ("delete_ns", Val::F(del)),
        ],
    );
}

/// One step of E5's timing loop.
#[derive(Clone, Copy)]
enum Step {
    Insert,
    Find,
    Delete,
    /// Untimed, after each pass (a session refresh).
    Settle,
}

/// Mean ns/op of `reps` rounds of an insert, a find and a delete pass
/// over all `n` keys; `op(step, key)` performs one step.
fn latency_triple(n: u64, reps: u64, mut op: impl FnMut(Step, u64)) -> (f64, f64, f64) {
    let mut ns = [0.0f64; 3];
    for r in 0..reps {
        for (total, step) in ns.iter_mut().zip([Step::Insert, Step::Find, Step::Delete]) {
            let t0 = std::time::Instant::now();
            for i in 0..n {
                // Shuffled-ish order: an odd stride walks the whole space.
                op(step, (i.wrapping_mul(0x9E37 | 1) ^ r) % n);
            }
            *total += t0.elapsed().as_nanos() as f64;
            op(Step::Settle, 0);
        }
    }
    let per_op = |ns: f64| ns / (n * reps) as f64;
    (per_op(ns[0]), per_op(ns[1]), per_op(ns[2]))
}

/// E6: scan/update non-interference — dedicated scanners on disjoint vs
/// overlapping ranges against dedicated updaters (paper §1: "RangeScans
/// operating on different parts of the tree do not interfere").
fn e6(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let kr: u64 = if opts.quick { 20_000 } else { 100_000 };
    let scanner_counts = if opts.quick {
        vec![1, 2]
    } else {
        vec![1, 2, 4]
    };
    let mut out = format!(
        "\n### E6 — Scan/update interference (PNB-BST, 2 updaters, key range {kr})\n\n\
         | scanners | mode | scans/s | updates/s | keys/scan |\n|---|---|---|---|---|\n"
    );
    for &sc in &scanner_counts {
        for disjoint in [true, false] {
            let map = adapters::Pnb::new();
            let cfg = ScanUpdaterConfig {
                updaters: 2,
                scanners: sc,
                duration: opts.duration(),
                key_space: kr,
                disjoint,
                seed: 42,
            };
            eprintln!("  {sc} scanners / disjoint={disjoint} ...");
            let m = workload::run_scan_updater(&map, &cfg).expect("pnb-bst scans");
            log.push(
                "e6",
                &[
                    ("structure", Val::s(&m.name)),
                    ("updaters", Val::U(m.updaters as u64)),
                    ("scanners", Val::U(m.scanners as u64)),
                    ("disjoint", Val::B(m.disjoint)),
                    ("update_ops", Val::U(m.update_ops)),
                    ("scan_ops", Val::U(m.scan_ops)),
                    ("scanned_keys", Val::U(m.scanned_keys)),
                    ("elapsed_secs", Val::F(m.elapsed_secs)),
                    ("updates_per_sec", Val::F(m.updates_per_sec)),
                    ("scans_per_sec", Val::F(m.scans_per_sec)),
                ],
            );
            out.push_str(&format!(
                "| {sc} | {} | {:.0} | {:.0} | {} |\n",
                if disjoint { "disjoint" } else { "full-range" },
                m.scans_per_sec,
                m.updates_per_sec,
                m.scanned_keys.checked_div(m.scan_ops).unwrap_or(0),
            ));
        }
    }
    out
}

/// E7: ablation of the coordination mechanisms — handshake aborts and
/// helping as the scan rate grows, from the tree's counters.
fn e7(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let kr = 10_000u64;
    let threads = if opts.quick { 2 } else { 4 };
    let mut out = format!(
        "\n### E7 — Ablation: handshake aborts & helping vs scan rate \
         (PNB-BST, {threads} threads, key range {kr})\n\n\
         | scan % | total ops | handshake aborts | freeze aborts | helps | validation fails |\n\
         |---|---|---|---|---|---|\n"
    );
    for scan_pct in [0u32, 1, 10, 30] {
        let map = adapters::Pnb::new();
        let find = 40 - scan_pct;
        let mix = Mix::new(30, 30, find, scan_pct, 100);
        let cfg = RunConfig::new(threads, opts.duration(), KeyDist::uniform(kr), mix);
        eprintln!("  scan%={scan_pct} ...");
        let m = workload::run_throughput(&map, &cfg).expect("pnb-bst covers every mix");
        let st = map.0.stats();
        log.push(
            "e7",
            &[
                ("scan_pct", Val::U(scan_pct as u64)),
                ("threads", Val::U(threads as u64)),
                ("key_range", Val::U(kr)),
                ("total_ops", Val::U(m.total_ops)),
                ("handshake_aborts", Val::U(st.handshake_aborts)),
                ("freeze_aborts", Val::U(st.freeze_aborts)),
                ("helps", Val::U(st.helps)),
                ("validation_failures", Val::U(st.validation_failures)),
            ],
        );
        out.push_str(&format!(
            "| {scan_pct} | {} | {} | {} | {} | {} |\n",
            m.total_ops, st.handshake_aborts, st.freeze_aborts, st.helps, st.validation_failures
        ));
    }
    out
}

/// E8 (extension) — tail latency per operation class under a mixed load
/// with range queries. Wait-freedom is a *bound on individual operation
/// time*: the interesting comparison is the p99/p999 of updates while
/// scans run (lock-based maps stall writers behind every scan) and of
/// scans while updates run.
fn e8(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let kr: u64 = if opts.quick { 20_000 } else { 100_000 };
    let threads = if opts.quick { 2 } else { 4 };
    let mix = Mix::new(20, 20, 40, 20, 1_000); // scan-heavy enough to stall locks
    let mut out = format!(
        "\n### E8 — Tail latency under scan-heavy mix (20i/20d/40f/20rq width 1000, \
         {threads} threads, key range {kr})\n\n\
         | structure | op | samples | p50 | p99 | p999 |\n|---|---|---|---|---|---|\n"
    );
    let structures = [
        Structure::Pnb(adapters::Pnb::new()),
        Structure::Rw(adapters::Rw::new()),
    ];
    for s in &structures {
        eprintln!("  {} latency ...", s.name());
        let cfg = RunConfig::new(threads, opts.duration(), KeyDist::uniform(kr), mix);
        let rep = adapters::dispatch!(s, m => workload::run_latency(m, &cfg, None))
            .expect("range-capable roster");
        for c in &rep.classes {
            log.push(
                "e8",
                &[
                    ("structure", Val::s(&rep.name)),
                    ("op", Val::s(&c.class)),
                    ("threads", Val::U(threads as u64)),
                    ("key_range", Val::U(kr)),
                    ("samples", Val::U(c.count)),
                    ("p50_ns", Val::U(c.p50_ns)),
                    ("p99_ns", Val::U(c.p99_ns)),
                    ("p999_ns", Val::U(c.p999_ns)),
                ],
            );
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} |\n",
                rep.name,
                c.class,
                c.count,
                fmt_ns(c.p50_ns),
                fmt_ns(c.p99_ns),
                fmt_ns(c.p999_ns)
            ));
        }
        pnb_bst::collector_drain(64);
        pnb_bst::arena_trim(); // heap hygiene between structures
    }
    out
}

/// Collector counters bracketing a measured run: deltas of (bags
/// sealed, bags freed, advance attempts, advance successes).
fn collector_delta<T>(run: impl FnOnce() -> T) -> (T, [u64; 4]) {
    let b = pnb_bst::collector_stats();
    let out = run();
    let a = pnb_bst::collector_stats();
    (
        out,
        [
            a.bags_sealed - b.bags_sealed,
            a.bags_freed - b.bags_freed,
            a.advance_attempts - b.advance_attempts,
            a.advance_successes - b.advance_successes,
        ],
    )
}

/// E8r (extension) — collector reclamation scaling: a retire-heavy
/// update mix (50i/50d) over a tiny key range, so nearly every
/// committed update pushes garbage through the epoch collector. This is
/// the workload that used to measure the reclamation shim's two global
/// mutexes rather than the tree; with the lock-free collector the curve
/// tracks the structure. The table also shows the collector at work
/// (bags sealed/freed, epoch advances).
fn e8r(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let mut out = format!(
        "\n### E8r — Collector reclamation scaling (50i/50d, key range {CHURN_KEYS})\n\n\
         | structure | threads | throughput | bags sealed | bags freed | advances (ok/try) |\n\
         |---|---|---|---|---|---|\n"
    );
    out += &churn(opts, &[1, 2, 4, 8, 16], |s, cfg| {
        let t = cfg.threads;
        eprintln!("  {} / {t} threads (retire-heavy) ...", s.name());
        let (m, d) = collector_delta(|| {
            adapters::dispatch!(s, m => workload::run_throughput(m, cfg))
                .expect("update-only mix needs only point ops")
        });
        log.push(
            "e8r",
            &[
                ("structure", Val::s(&m.name)),
                ("threads", Val::U(t as u64)),
                ("key_range", Val::U(CHURN_KEYS)),
                ("total_ops", Val::U(m.total_ops)),
                ("ops_per_sec", Val::F(m.ops_per_sec)),
                ("bags_sealed", Val::U(d[0])),
                ("bags_freed", Val::U(d[1])),
                ("advance_attempts", Val::U(d[2])),
                ("advance_successes", Val::U(d[3])),
            ],
        );
        format!(
            "| {} | {t} | {} | {} | {} | {}/{} |\n",
            m.name,
            fmt_tput(m.ops_per_sec),
            d[0],
            d[1],
            d[3],
            d[2],
        )
    });
    out
}

/// Key range of the E8r and E9 cells: small enough that nearly every
/// committed update retires and allocates.
const CHURN_KEYS: u64 = 1_024;

/// The cells E8r and E9 share: the update-only mix over [`CHURN_KEYS`]
/// keys on pnb-bst and nb-bst, per thread count (`full` outside quick
/// mode). `cell` runs one, logs its row and returns its markdown row.
fn churn(
    opts: &ExpOpts,
    full: &[usize],
    mut cell: impl FnMut(&Structure, &RunConfig) -> String,
) -> String {
    let threads = if opts.quick { &[1, 2, 4][..] } else { full };
    let mut out = String::new();
    for s in [
        Structure::Pnb(adapters::Pnb::new()),
        Structure::Nb(adapters::Nb::new()),
    ] {
        for &t in threads {
            let keys = KeyDist::uniform(CHURN_KEYS);
            out += &cell(
                &s,
                &RunConfig::new(t, opts.duration(), keys, Mix::update_only()),
            );
        }
        pnb_bst::collector_drain(64);
        pnb_bst::arena_trim(); // heap hygiene between structures
    }
    out
}

/// Arena counters bracketing a measured run: deltas of (pool hits,
/// pool misses, recycled bytes).
fn arena_delta<T>(run: impl FnOnce() -> T) -> (T, [u64; 3]) {
    // Drain the collector around both snapshots: the counters are
    // process-global, so a previous structure's still-ripening garbage
    // must not recycle inside this bracket and be attributed to it.
    pnb_bst::collector_drain(64);
    let b = pnb_bst::arena_stats();
    let out = run();
    pnb_bst::collector_drain(64);
    let a = pnb_bst::arena_stats();
    (
        out,
        [
            a.pool_hits - b.pool_hits,
            a.pool_misses - b.pool_misses,
            a.recycled_bytes - b.recycled_bytes,
        ],
    )
}

/// E9 (extension) — allocator churn: the update-only mix over a tiny
/// key range, the workload where per-attempt `Node`/`Info` allocation
/// dominates. Tracks the per-thread arena pools at work (hits, misses,
/// recycled bytes) next to throughput; `nb-bst` rides
/// along as the non-pooled epoch baseline. The committed
/// `BENCH_baseline.json` E1 rows are the pre-arena reference this
/// experiment's gains are measured against.
fn e9(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let mut out = format!(
        "\n### E9 — Arena/allocator churn (50i/50d, key range {CHURN_KEYS})\n\n\
         | structure | threads | throughput | pool hits | pool misses | hit rate | recycled |\n\
         |---|---|---|---|---|---|---|\n"
    );
    out += &churn(opts, &[1, 2, 4, 8], |s, cfg| {
        let t = cfg.threads;
        eprintln!("  {} / {t} threads (alloc churn) ...", s.name());
        let (m, d) = arena_delta(|| {
            adapters::dispatch!(s, m => workload::run_throughput(m, cfg))
                .expect("update-only mix needs only point ops")
        });
        let hit_rate = if d[0] + d[1] > 0 {
            format!("{:.1}%", 100.0 * d[0] as f64 / (d[0] + d[1]) as f64)
        } else {
            "-".to_string()
        };
        log.push(
            "e9",
            &[
                ("structure", Val::s(&m.name)),
                ("threads", Val::U(t as u64)),
                ("key_range", Val::U(CHURN_KEYS)),
                ("total_ops", Val::U(m.total_ops)),
                ("ops_per_sec", Val::F(m.ops_per_sec)),
                ("pool_hits", Val::U(d[0])),
                ("pool_misses", Val::U(d[1])),
                ("recycled_bytes", Val::U(d[2])),
            ],
        );
        format!(
            "| {} | {t} | {} | {} | {} | {hit_rate} | {} |\n",
            m.name,
            fmt_tput(m.ops_per_sec),
            d[0],
            d[1],
            fmt_bytes(d[2]),
        )
    });
    out
}

/// E10 (extension) — shard scaling: point-op throughput of the sharded
/// front-end vs shard count, against the unsharded tree. The mix is
/// E1's update-only 50i/50d — the workload where a single tree's CAS,
/// helping and (with scans present) counter traffic all concentrate —
/// so the shard count divides the contended state `N` ways. The JSON
/// rows tag the sharded series `pnb-sharded-x{N}` so every shard count
/// is its own trajectory series, and carry an explicit `shards` field.
fn e10(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let kr: u64 = if opts.quick { 20_000 } else { 100_000 };
    let shard_counts: Vec<usize> = if opts.quick {
        vec![1, 2, 8]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let threads: Vec<usize> = if opts.quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let mix = Mix::update_only();
    let mut out = format!("\n### E10 — Shard scaling (50i/50d point ops, key range {kr})\n\n");
    out.push_str(&md_head(threads.iter().map(|t| format!("{t} thr"))));
    // Unsharded reference first: the same tree the sharded series wraps.
    let unsharded = (
        Structure::Pnb(adapters::Pnb::new()),
        "pnb-bst".to_string(),
        1,
    );
    let sharded = shard_counts.iter().map(|&n| {
        let s = Structure::PnbSharded(adapters::Sharded::with_shards(n));
        (s, format!("pnb-sharded-x{n}"), n)
    });
    for (s, label, shards) in std::iter::once(unsharded).chain(sharded) {
        let mut cells = vec![label.clone()];
        for &t in &threads {
            let fresh = s.fresh(); // fresh instance per cell: no carry-over heap
            let cfg = RunConfig::new(t, opts.duration(), KeyDist::uniform(kr), mix);
            eprintln!("  {label} / {t} threads ...");
            let m = adapters::dispatch!(&fresh, m => workload::run_throughput(m, &cfg))
                .expect("update-only mix needs only point ops");
            log.push(
                "e10",
                &[
                    ("structure", Val::s(&label)),
                    ("shards", Val::U(shards as u64)),
                    ("threads", Val::U(t as u64)),
                    ("key_range", Val::U(kr)),
                    ("total_ops", Val::U(m.total_ops)),
                    ("ops_per_sec", Val::F(m.ops_per_sec)),
                ],
            );
            cells.push(fmt_tput(m.ops_per_sec));
            pnb_bst::collector_drain(64);
            pnb_bst::arena_trim(); // heap hygiene between cells
        }
        out.push_str(&md_row(&cells));
    }
    out
}

/// E13 (extension) — batched + fused hot-path operations: sweep
/// `apply_batch` batch sizes against the singleton baseline on the
/// contended update-only mix (50% ins / 50% del over a 1 000-key
/// uniform space — the mix where descent sharing has the most overlap
/// to exploit and CAS contention is worst). Batch size 1 through the
/// batched driver *is* the singleton baseline — identical timing
/// windows and refresh cadence — so the `vs b=1` column isolates
/// exactly the batching effects. `ops_per_descent` is ops per walk from
/// a root: one per tree per lock-step window of ≤ 16 ops, plus one per
/// retry that found the prefix stack empty — ≈ 16 uncontended, lower as
/// lanes go stale behind contended neighbours (DESIGN.md §11.2). The
/// rest of the win is per-call amortization (pin, pooled scan stack)
/// and the window's overlapped misses. The roster is capability-filtered to
/// structures declaring [`workload::Caps::batched`] (the PNB tree and
/// its sharded front-end); everything else would only re-measure the
/// singleton fallback at 1.0 ops/descent.
fn e13(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let kr: u64 = 1_000;
    let mix = Mix::update_only();
    let batch_sizes: Vec<usize> = if opts.quick {
        vec![1, 16, 64]
    } else {
        vec![1, 4, 16, 64, 256]
    };
    let threads = opts.threads();
    let roster = adapters::all_structures(workload::Caps {
        range_scan: false,
        upsert: false,
        snapshot: false,
        batched: true,
    });

    let mut out = format!(
        "\n### E13 — Batch-size sweep: `apply_batch` vs singleton \
         (update-only 50i/50d, uniform {kr} keys, contended)\n\n"
    );
    out.push_str(
        "| structure | threads | batch | Mops/s | vs b=1 | ops/descent | p50 batch | p99 batch |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for s in &roster {
        for &t in &threads {
            let mut baseline = 0.0f64;
            for &b in &batch_sizes {
                eprintln!("  {} / {t} threads / batch {b} ...", s.name());
                let cfg = workload::BatchedRunConfig::new(
                    t,
                    opts.duration(),
                    KeyDist::uniform(kr),
                    mix,
                    b,
                );
                // Fresh instance per cell: a batch-size sweep must not
                // inherit the previous cell's heap or epoch garbage.
                let cell = s.fresh();
                let m = adapters::dispatch!(&cell, m => workload::run_batched_throughput(m, &cfg))
                    .expect("roster is filtered by Caps::batched; mix is range-free");
                if b == 1 {
                    baseline = m.ops_per_sec;
                }
                let speedup = if baseline > 0.0 {
                    m.ops_per_sec / baseline
                } else {
                    0.0
                };
                log.push(
                    "e13",
                    &[
                        ("structure", Val::s(&m.name)),
                        ("threads", Val::U(t as u64)),
                        ("key_range", Val::U(kr)),
                        ("batch_size", Val::U(m.batch_size as u64)),
                        ("elapsed_secs", Val::F(m.elapsed_secs)),
                        ("batches", Val::U(m.batches)),
                        ("total_ops", Val::U(m.total_ops)),
                        ("root_descents", Val::U(m.root_descents)),
                        ("ops_per_descent", Val::F(m.ops_per_descent)),
                        ("ops_per_sec", Val::F(m.ops_per_sec)),
                        ("speedup_vs_singleton", Val::F(speedup)),
                        ("p50_ns", Val::U(m.p50_ns)),
                        ("p99_ns", Val::U(m.p99_ns)),
                    ],
                );
                out.push_str(&format!(
                    "| {} | {t} | {b} | {} | {speedup:.2}× | {:.2} | {} | {} |\n",
                    m.name,
                    fmt_tput(m.ops_per_sec),
                    m.ops_per_descent,
                    fmt_ns(m.p50_ns),
                    fmt_ns(m.p99_ns),
                ));
                pnb_bst::collector_drain(64);
                pnb_bst::arena_trim(); // heap hygiene between cells
            }
        }
    }
    out.push_str(
        "\n*(per-batch latency percentiles: a batch of 64 trades one \
         longer call for 64 short ones, so compare p99 across batch \
         sizes per-op, not per-call; `vs b=1` already is per-op)*\n",
    );
    out
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    const TINY: ExpOpts = ExpOpts { quick: true };

    /// Run one entry of [`EXPERIMENTS`] in quick mode.
    fn run(name: &str, log: &mut JsonLog) -> String {
        let spec = EXPERIMENTS.iter().find(|s| s.name == name);
        spec.expect("experiment in the table").run(&TINY, log)
    }

    #[test]
    fn parse_args_takes_flags_and_names_in_command_line_order() {
        let all = parse_args::<&str>(&[]).unwrap();
        assert!(!all.quick && all.json.is_none());
        assert_eq!(all.run.len(), EXPERIMENTS.len());
        let a = parse_args(&["e5", "--quick", "e1", "--json", "out.json"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.json.as_deref(), Some("out.json"));
        let names: Vec<&str> = a.run.iter().map(|s| s.name).collect();
        assert_eq!(names, ["e5", "e1"]);
    }

    #[test]
    fn parse_args_rejects_an_unknown_flag() {
        let err = parse_args(&["--quik"]).unwrap_err();
        assert!(err.contains("unknown flag: --quik"), "{err}");
    }

    #[test]
    fn parse_args_rejects_an_unknown_experiment() {
        let err = parse_args(&["e1", "e99"]).unwrap_err();
        assert!(err.contains("unknown experiment: e99"), "{err}");
    }

    #[test]
    fn parse_args_rejects_json_without_a_path() {
        for args in [&["e1", "--json"][..], &["--json", "--quick"]] {
            let err = parse_args(args).unwrap_err();
            assert!(err.contains("--json requires a file path"), "{err}");
        }
    }

    // These are smoke tests: each experiment must run end-to-end and
    // produce a table (plus JSON rows for the trajectory file).

    /// E1–E3 log one row per capable structure × thread count × key
    /// range, and no cell may sit idle.
    fn assert_full_sweep(exp: &str, mix: Mix, log: &JsonLog) -> String {
        let structures = adapters::all_structures(required_caps(&mix)).len();
        let cells = structures * TINY.threads().len() * TINY.key_ranges().len();
        assert_eq!(log.len(), cells);
        let rendered = log.render("quick", 1);
        assert!(rendered.contains(&format!("\"experiment\": \"{exp}\"")));
        assert!(!rendered.contains("\"total_ops\": 0,"), "idle cell");
        rendered
    }

    #[test]
    fn e1_sweeps_every_structure_update_only() {
        let mut log = JsonLog::new();
        let s = run("e1", &mut log);
        assert!(s.contains("pnb-bst"));
        let rendered = assert_full_sweep("e1", Mix::update_only(), &log);
        assert!(!rendered.contains("\"inserts\": 0,"));
        assert!(!rendered.contains("\"deletes\": 0,"));
    }

    #[test]
    fn e2_sweeps_every_structure_read_mostly() {
        let mut log = JsonLog::new();
        let s = run("e2", &mut log);
        assert!(s.contains("pnb-bst"));
        let rendered = assert_full_sweep("e2", Mix::read_mostly(), &log);
        assert!(!rendered.contains("\"finds\": 0,"));
    }

    #[test]
    fn e3_sweeps_range_capable_structures_with_scans() {
        let mut log = JsonLog::new();
        let s = run("e3", &mut log);
        assert!(s.contains("pnb-bst"));
        let rendered = assert_full_sweep("e3", Mix::with_ranges(100), &log);
        assert!(!rendered.contains("\"scans\": 0,"), "no range query ran");
    }

    #[test]
    fn e4_runs_every_width_for_both_structures() {
        let mut log = JsonLog::new();
        let s = run("e4", &mut log);
        assert!(s.contains("pnb-bst"));
        assert!(s.contains("width 1000"));
        assert_eq!(log.len(), 6); // {pnb-bst, rwlock-btreemap} × 3 widths
        let rendered = log.render("quick", 1);
        assert!(!rendered.contains("\"scans\": 0,"), "no range query ran");
    }

    #[test]
    fn e5_produces_three_rows_and_json() {
        let mut log = JsonLog::new();
        let s = run("e5", &mut log);
        assert!(s.contains("pnb-bst"));
        assert!(s.contains("nb-bst"));
        assert!(s.contains("seq-bst"));
        assert_eq!(log.len(), 3);
        let rendered = log.render("quick", 1);
        assert!(rendered.contains("\"experiment\": \"e5\""));
        assert!(rendered.contains("\"structure\": \"pnb-bst\""));
    }

    #[test]
    fn e6_runs_disjoint_and_full_range() {
        let mut log = JsonLog::new();
        run("e6", &mut log);
        assert_eq!(log.len(), 4); // {1, 2} scanners × {disjoint, full-range}
        let rendered = log.render("quick", 1);
        assert!(rendered.contains("\"disjoint\": true"));
        assert!(rendered.contains("\"disjoint\": false"));
        assert!(!rendered.contains("\"scan_ops\": 0,"), "scanner starved");
        assert!(!rendered.contains("\"update_ops\": 0,"), "updater starved");
    }

    #[test]
    fn e7_runs_and_mentions_stats_state() {
        let mut log = JsonLog::new();
        let s = run("e7", &mut log);
        assert!(s.contains("scan %") || s.contains("scan%") || s.contains("| 0 |"));
        assert_eq!(log.len(), 4); // one row per scan percentage
    }

    #[test]
    fn table_formatting_helpers() {
        assert_eq!(fmt_tput(2_000_000.0), "2.00 Mops/s");
        assert_eq!(fmt_tput(5_000.0), "5 Kops/s");
    }

    #[test]
    fn e8_reports_both_structures() {
        let mut log = JsonLog::new();
        let s = run("e8", &mut log);
        assert!(s.contains("pnb-bst"));
        assert!(s.contains("rwlock-btreemap"));
        assert!(s.contains("range_scan"));
        assert!(log.len() >= 8); // ≥4 op classes × 2 structures
    }

    #[test]
    fn e8r_reports_collector_scaling_rows() {
        let mut log = JsonLog::new();
        let s = run("e8r", &mut log);
        assert!(s.contains("pnb-bst"));
        assert!(s.contains("nb-bst"));
        // 2 structures × 3 thread counts in quick mode.
        assert_eq!(log.len(), 6);
        let rendered = log.render("quick", 1);
        assert!(rendered.contains("\"experiment\": \"e8r\""));
        assert!(rendered.contains("\"bags_sealed\""));
    }

    #[test]
    fn e9_reports_arena_churn_rows() {
        let mut log = JsonLog::new();
        let s = run("e9", &mut log);
        assert!(s.contains("pnb-bst"));
        assert!(s.contains("nb-bst"));
        // 2 structures × 3 thread counts in quick mode.
        assert_eq!(log.len(), 6);
        let rendered = log.render("quick", 1);
        assert!(rendered.contains("\"experiment\": \"e9\""));
        assert!(rendered.contains("\"pool_hits\""));
        // The pnb rows must show the pools actually working: a hit rate.
        for row in s.lines().filter(|l| l.starts_with("| pnb-bst |")) {
            assert!(row.contains('%'), "no pool hits: {row}");
        }
    }

    #[test]
    fn e10_reports_shard_scaling_rows() {
        let mut log = JsonLog::new();
        let s = run("e10", &mut log);
        assert!(s.contains("pnb-bst"));
        assert!(s.contains("pnb-sharded-x8"));
        // (1 unsharded + 3 shard counts) × 3 thread counts in quick mode.
        assert_eq!(log.len(), 12);
        let rendered = log.render("quick", 1);
        assert!(rendered.contains("\"experiment\": \"e10\""));
        assert!(rendered.contains("\"shards\": 8"));
    }

    #[test]
    fn e13_reports_batched_rows_with_descent_sharing() {
        let mut log = JsonLog::new();
        let s = run("e13", &mut log);
        assert!(s.contains("Batch-size sweep"));
        assert!(s.contains("pnb-bst"));
        assert!(s.contains("pnb-sharded"));
        // 2 batch-capable structures × 3 thread counts × 3 batch sizes
        // in quick mode.
        assert_eq!(log.len(), 18);
        let rendered = log.render("quick", 1);
        assert!(rendered.contains("\"experiment\": \"e13\""));
        assert!(rendered.contains("\"batch_size\": 64"));
        assert!(rendered.contains("\"ops_per_descent\""));
        assert!(rendered.contains("\"speedup_vs_singleton\""));
        // Each row's batch percentiles are ordered, and the median batch
        // is not always the slowest one.
        let field = |row: &str, key: &str| -> u64 {
            let at = row.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
            let digits = row[at..].split(|c: char| !c.is_ascii_digit()).next();
            digits.and_then(|d| d.parse().ok()).expect("an integer")
        };
        let rows: Vec<(u64, u64)> = rendered
            .lines()
            .filter(|l| l.contains("\"experiment\": \"e13\""))
            .map(|row| (field(row, "p50_ns"), field(row, "p99_ns")))
            .collect();
        assert_eq!(rows.len(), 18);
        assert!(rows.iter().all(|(p50, p99)| p50 <= p99), "{rows:?}");
        assert!(rows.iter().any(|(p50, p99)| p50 < p99), "{rows:?}");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(2_500), "2.5 \u{b5}s");
        assert_eq!(fmt_ns(3_000_000), "3.0 ms");
    }
}
