//! Experiment definitions E1–E8 plus the E8r collector, E9 allocator,
//! E10 shard-scaling, E11 open-loop tail-latency and E13 batch-size
//! sweep extensions (see DESIGN.md §4): each function runs
//! one experiment family, renders a markdown section with the same
//! rows/series the paper's evaluation protocol reports, and appends
//! machine-readable rows to a [`json::JsonLog`] so CI can record
//! `BENCH_*.json` perf trajectories across PRs.
//!
//! The experiments bin (`cargo run --release -p pnbbst-bench --bin
//! experiments`) composes these into EXPERIMENTS.md material (and, with
//! `--json <path>`, the JSON trajectory file); it is the one runner of
//! every experiment.

use std::time::Duration;

use workload::{
    ConcurrentMap, KeyDist, MapSession, Measurement, Mix, OpenLoopConfig, RunConfig,
    ScanUpdaterConfig,
};

use crate::adapters::{self, required_caps, Structure};

pub use workload::json::{self, JsonLog, Val};

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

fn fmt_tput(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e6 {
        format!("{:.2} Mops/s", ops_per_sec / 1e6)
    } else {
        format!("{:.0} Kops/s", ops_per_sec / 1e3)
    }
}

/// Render a threads-vs-structures throughput table.
fn tput_table(title: &str, threads: &[usize], rows: &[(String, Vec<Measurement>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n#### {title}\n\n"));
    out.push_str("| structure |");
    for t in threads {
        out.push_str(&format!(" {t} thr |"));
    }
    out.push_str("\n|---|");
    for _ in threads {
        out.push_str("---|");
    }
    out.push('\n');
    for (name, ms) in rows {
        out.push_str(&format!("| {name} |"));
        for m in ms {
            out.push_str(&format!(" {} |", fmt_tput(m.ops_per_sec)));
        }
        out.push('\n');
    }
    out
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

fn sweep_structures(
    opts: &ExpOpts,
    mix: Mix,
    key_range: u64,
    exp: &str,
    log: &mut JsonLog,
) -> (Vec<usize>, Vec<(String, Vec<Measurement>)>) {
    let threads = opts.threads();
    let mut rows = Vec::new();
    for s in adapters::all_structures(required_caps(&mix)) {
        let mut ms = Vec::new();
        for &t in &threads {
            let cfg = RunConfig::new(t, opts.duration(), KeyDist::uniform(key_range), mix);
            eprintln!("  {} / {} threads / range {key_range} ...", s.name(), t);
            let m = s
                .run_throughput(&cfg)
                .expect("roster is filtered by capability");
            log_measurement(log, exp, key_range, &m);
            ms.push(m);
        }
        rows.push((s.name().to_string(), ms));
        // Measurement hygiene: drain still-deferred garbage into the
        // pools, then release the arena's retained footprint, so the
        // next structure is benchmarked neither inside this one's heap
        // nor while its garbage is still ripening (pnb-bst pools
        // deliberately hold their peak working set).
        pnb_bst::collector_drain(64);
        pnb_bst::arena_trim();
    }
    (threads, rows)
}

/// E1: update-only scaling (50% ins / 50% del), per key range.
pub fn e1(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let mut out = String::from("\n### E1 — Update-only scaling (50i/50d)\n");
    for kr in opts.key_ranges() {
        let (threads, rows) = sweep_structures(opts, Mix::update_only(), kr, "e1", log);
        out.push_str(&tput_table(
            &format!("key range 10^{:.0} ({kr})", (kr as f64).log10()),
            &threads,
            &rows,
        ));
    }
    out
}

/// E2: search-dominated scaling (10i/10d/80f), per key range.
pub fn e2(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let mut out = String::from("\n### E2 — Search-dominated scaling (10i/10d/80f)\n");
    for kr in opts.key_ranges() {
        let (threads, rows) = sweep_structures(opts, Mix::read_mostly(), kr, "e2", log);
        out.push_str(&tput_table(
            &format!("key range 10^{:.0} ({kr})", (kr as f64).log10()),
            &threads,
            &rows,
        ));
    }
    out
}

/// E3: range-query mix scaling (25i/25d/40f/10rq, width 100).
pub fn e3(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let mut out = String::from(
        "\n### E3 — Mixed workload with range queries (25i/25d/40f/10rq, width 100)\n",
    );
    for kr in opts.key_ranges() {
        let (threads, rows) = sweep_structures(opts, Mix::with_ranges(100), kr, "e3", log);
        out.push_str(&tput_table(
            &format!("key range 10^{:.0} ({kr})", (kr as f64).log10()),
            &threads,
            &rows,
        ));
    }
    out
}

/// E4: range-width sweep under a scan-heavy mix (10i/10d/30f/50rq).
pub fn e4(opts: &ExpOpts, log: &mut JsonLog) -> String {
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
    out.push_str("| structure |");
    for w in &widths {
        out.push_str(&format!(" width {w} |"));
    }
    out.push_str("\n|---|");
    for _ in &widths {
        out.push_str("---|");
    }
    out.push('\n');

    let prototypes = [
        Structure::Pnb(adapters::Pnb::new()),
        Structure::Rw(adapters::Rw::new()),
    ];
    for proto in &prototypes {
        let mut cells = Vec::new();
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
            let m = fresh.run_throughput(&cfg).expect("range-capable roster");
            log_measurement(log, "e4", kr, &m);
            cells.push(format!(
                "{} ({} keys/scan)",
                fmt_tput(m.ops_per_sec),
                m.scanned_keys.checked_div(m.scans).unwrap_or(0)
            ));
        }
        out.push_str(&format!("| {} |", proto.name()));
        for c in cells {
            out.push_str(&format!(" {c} |"));
        }
        out.push('\n');
    }
    out
}

/// E5: cost of persistence — single-threaded op latency, PNB vs NB vs
/// sequential floor.
pub fn e5(opts: &ExpOpts, log: &mut JsonLog) -> String {
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
        let (ins, fnd, del) = adapters::dispatch!(&s, m => latency_triple(m, n, reps));
        log_e5(log, s.name(), n, ins, fnd, del);
        out.push_str(&format!(
            "| {} | {ins:.0} | {fnd:.0} | {del:.0} |\n",
            s.name()
        ));
        pnb_bst::collector_drain(64);
        pnb_bst::arena_trim(); // heap hygiene between structures
    }

    // Sequential floor (needs &mut, measured directly).
    let (ins, fnd, del) = seq_latency_triple(n, reps);
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

fn latency_triple<M: ConcurrentMap>(map: &M, n: u64, reps: u64) -> (f64, f64, f64) {
    use std::time::Instant;
    let mut ins_ns = 0.0;
    let mut find_ns = 0.0;
    let mut del_ns = 0.0;
    let mut session = map.pin();
    for r in 0..reps {
        // Insert all keys in shuffled-ish order (odd stride walks the
        // whole space).
        let stride = 0x9E37u64 | 1;
        let t0 = Instant::now();
        for i in 0..n {
            let k = (i.wrapping_mul(stride) ^ r) % n;
            session.insert(k, k);
        }
        ins_ns += t0.elapsed().as_nanos() as f64;
        session.refresh();
        let t0 = Instant::now();
        for i in 0..n {
            let k = (i.wrapping_mul(stride) ^ r) % n;
            std::hint::black_box(session.get(&k));
        }
        find_ns += t0.elapsed().as_nanos() as f64;
        session.refresh();
        let t0 = Instant::now();
        for i in 0..n {
            let k = (i.wrapping_mul(stride) ^ r) % n;
            session.delete(&k);
        }
        del_ns += t0.elapsed().as_nanos() as f64;
        session.refresh();
    }
    let total = (n * reps) as f64;
    (ins_ns / total, find_ns / total, del_ns / total)
}

fn seq_latency_triple(n: u64, reps: u64) -> (f64, f64, f64) {
    use std::time::Instant;
    let mut t = lock_bst::seq::SeqBst::<u64, u64>::new();
    let mut ins_ns = 0.0;
    let mut find_ns = 0.0;
    let mut del_ns = 0.0;
    for r in 0..reps {
        let stride = 0x9E37u64 | 1;
        let t0 = Instant::now();
        for i in 0..n {
            let k = (i.wrapping_mul(stride) ^ r) % n;
            t.insert(k, k);
        }
        ins_ns += t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        for i in 0..n {
            let k = (i.wrapping_mul(stride) ^ r) % n;
            std::hint::black_box(t.get(&k));
        }
        find_ns += t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        for i in 0..n {
            let k = (i.wrapping_mul(stride) ^ r) % n;
            t.remove(&k);
        }
        del_ns += t0.elapsed().as_nanos() as f64;
    }
    let total = (n * reps) as f64;
    (ins_ns / total, find_ns / total, del_ns / total)
}

/// E6: scan/update non-interference — dedicated scanners on disjoint vs
/// overlapping ranges against dedicated updaters (paper §1: "RangeScans
/// operating on different parts of the tree do not interfere").
pub fn e6(opts: &ExpOpts, log: &mut JsonLog) -> String {
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
/// helping as the scan rate grows. Needs the `stats` build
/// (`--features stats`); otherwise counters read zero and the table says
/// so.
pub fn e7(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let kr = 10_000u64;
    let threads = if opts.quick { 2 } else { 4 };
    let mut out = format!(
        "\n### E7 — Ablation: handshake aborts & helping vs scan rate \
         (PNB-BST, {threads} threads, key range {kr})\n\n\
         | scan % | total ops | handshake aborts | freeze aborts | helps | validation fails |\n\
         |---|---|---|---|---|---|\n"
    );
    let stats_enabled = cfg!(feature = "stats");
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
                ("stats_enabled", Val::B(stats_enabled)),
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
    if !stats_enabled {
        out.push_str(
            "\n*(counters are all zero: rebuild with `--features stats` to \
             populate this table — kept out of the default build so shared \
             counters cannot perturb E1–E6)*\n",
        );
    }
    out
}

/// E8 (extension) — tail latency per operation class under a mixed load
/// with range queries. Wait-freedom is a *bound on individual operation
/// time*: the interesting comparison is the p99/p999 of updates while
/// scans run (lock-based maps stall writers behind every scan) and of
/// scans while updates run.
pub fn e8(opts: &ExpOpts, log: &mut JsonLog) -> String {
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
        let rep = s
            .run_latency(threads, opts.duration(), &KeyDist::uniform(kr), mix, 42)
            .expect("range-capable roster");
        for (label, count, p50, p99, p999) in &rep.classes {
            log.push(
                "e8",
                &[
                    ("structure", Val::s(&rep.name)),
                    ("op", Val::s(label)),
                    ("threads", Val::U(threads as u64)),
                    ("key_range", Val::U(kr)),
                    ("samples", Val::U(*count)),
                    ("p50_ns", Val::U(*p50)),
                    ("p99_ns", Val::U(*p99)),
                    ("p999_ns", Val::U(*p999)),
                ],
            );
            out.push_str(&format!(
                "| {} | {label} | {count} | {} | {} | {} |\n",
                rep.name,
                fmt_ns(*p50),
                fmt_ns(*p99),
                fmt_ns(*p999)
            ));
        }
        pnb_bst::collector_drain(64);
        pnb_bst::arena_trim(); // heap hygiene between structures
    }
    out
}

/// Collector counters bracketing a measured run: deltas of (bags
/// sealed, bags freed, advance attempts, advance successes). All zeros
/// without the `stats` build.
fn collector_delta<T>(run: impl FnOnce() -> T) -> (T, [u64; 4]) {
    #[cfg(feature = "stats")]
    {
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
    #[cfg(not(feature = "stats"))]
    {
        (run(), [0; 4])
    }
}

/// E8r (extension) — collector reclamation scaling: a retire-heavy
/// update mix (50i/50d) over a tiny key range, so nearly every
/// committed update pushes garbage through the epoch collector. This is
/// the workload that used to measure the reclamation shim's two global
/// mutexes rather than the tree; with the lock-free collector the curve
/// tracks the structure. With `--features stats` the table also shows
/// the collector at work (bags sealed/freed, epoch advances).
pub fn e8r(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let kr: u64 = 1_024;
    let threads: Vec<usize> = if opts.quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let stats_enabled = cfg!(feature = "stats");
    let mut out = format!(
        "\n### E8r — Collector reclamation scaling (50i/50d, key range {kr})\n\n\
         | structure | threads | throughput | bags sealed | bags freed | advances (ok/try) |\n\
         |---|---|---|---|---|---|\n"
    );
    let structures = [
        Structure::Pnb(adapters::Pnb::new()),
        Structure::Nb(adapters::Nb::new()),
    ];
    for s in &structures {
        for &t in &threads {
            let cfg = RunConfig::new(t, opts.duration(), KeyDist::uniform(kr), Mix::update_only());
            eprintln!("  {} / {t} threads (retire-heavy) ...", s.name());
            let (m, d) = collector_delta(|| {
                s.run_throughput(&cfg)
                    .expect("update-only mix needs only point ops")
            });
            log.push(
                "e8r",
                &[
                    ("structure", Val::s(&m.name)),
                    ("threads", Val::U(t as u64)),
                    ("key_range", Val::U(kr)),
                    ("stats_enabled", Val::B(stats_enabled)),
                    ("total_ops", Val::U(m.total_ops)),
                    ("ops_per_sec", Val::F(m.ops_per_sec)),
                    ("bags_sealed", Val::U(d[0])),
                    ("bags_freed", Val::U(d[1])),
                    ("advance_attempts", Val::U(d[2])),
                    ("advance_successes", Val::U(d[3])),
                ],
            );
            out.push_str(&format!(
                "| {} | {t} | {} | {} | {} | {}/{} |\n",
                m.name,
                fmt_tput(m.ops_per_sec),
                d[0],
                d[1],
                d[3],
                d[2],
            ));
        }
        pnb_bst::collector_drain(64);
        pnb_bst::arena_trim(); // heap hygiene between structures
    }
    if !stats_enabled {
        out.push_str(
            "\n*(collector columns are all zero: rebuild with `--features \
             stats` to watch the collector work)*\n",
        );
    }
    out
}

/// Arena counters bracketing a measured run: deltas of (pool hits,
/// pool misses, recycled bytes). All zeros without the `stats` build.
fn arena_delta<T>(run: impl FnOnce() -> T) -> (T, [u64; 3]) {
    #[cfg(feature = "stats")]
    {
        // Drain the collector around both snapshots: the counters are
        // process-global, so a previous structure's still-ripening
        // garbage must not recycle inside this bracket and be
        // attributed to it.
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
    #[cfg(not(feature = "stats"))]
    {
        (run(), [0; 3])
    }
}

/// E9 (extension) — allocator churn: the update-only mix over a tiny
/// key range, the workload where per-attempt `Node`/`Info` allocation
/// dominates. Tracks the per-thread arena pools at work (hits, misses,
/// recycled bytes — `stats` build) next to throughput; `nb-bst` rides
/// along as the non-pooled epoch baseline. The committed
/// `BENCH_baseline.json` E1 rows are the pre-arena reference this
/// experiment's gains are measured against.
pub fn e9(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let kr: u64 = 1_024;
    let threads: Vec<usize> = if opts.quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    };
    let stats_enabled = cfg!(feature = "stats");
    let mut out = format!(
        "\n### E9 — Arena/allocator churn (50i/50d, key range {kr})\n\n\
         | structure | threads | throughput | pool hits | pool misses | hit rate | recycled |\n\
         |---|---|---|---|---|---|---|\n"
    );
    let structures = [
        Structure::Pnb(adapters::Pnb::new()),
        Structure::Nb(adapters::Nb::new()),
    ];
    for s in &structures {
        for &t in &threads {
            let cfg = RunConfig::new(t, opts.duration(), KeyDist::uniform(kr), Mix::update_only());
            eprintln!("  {} / {t} threads (alloc churn) ...", s.name());
            let (m, d) = arena_delta(|| {
                s.run_throughput(&cfg)
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
                    ("key_range", Val::U(kr)),
                    ("stats_enabled", Val::B(stats_enabled)),
                    ("total_ops", Val::U(m.total_ops)),
                    ("ops_per_sec", Val::F(m.ops_per_sec)),
                    ("pool_hits", Val::U(d[0])),
                    ("pool_misses", Val::U(d[1])),
                    ("recycled_bytes", Val::U(d[2])),
                ],
            );
            out.push_str(&format!(
                "| {} | {t} | {} | {} | {} | {hit_rate} | {} |\n",
                m.name,
                fmt_tput(m.ops_per_sec),
                d[0],
                d[1],
                fmt_bytes(d[2]),
            ));
        }
        pnb_bst::collector_drain(64);
        pnb_bst::arena_trim(); // heap hygiene between structures
    }
    if !stats_enabled {
        out.push_str(
            "\n*(arena columns are all zero: rebuild with `--features \
             stats` to watch the pools work)*\n",
        );
    }
    out
}

/// E10 (extension) — shard scaling: point-op throughput of the sharded
/// front-end vs shard count, against the unsharded tree. The mix is
/// E1's update-only 50i/50d — the workload where a single tree's CAS,
/// helping and (with scans present) counter traffic all concentrate —
/// so the shard count divides the contended state `N` ways. The JSON
/// rows tag the sharded series `pnb-sharded-x{N}` so every shard count
/// is its own trajectory series, and carry an explicit `shards` field.
pub fn e10(opts: &ExpOpts, log: &mut JsonLog) -> String {
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
    let mut out = format!(
        "\n### E10 — Shard scaling (50i/50d point ops, key range {kr})\n\n\
         | structure |"
    );
    for t in &threads {
        out.push_str(&format!(" {t} thr |"));
    }
    out.push_str("\n|---|");
    for _ in &threads {
        out.push_str("---|");
    }
    out.push('\n');

    let mut run_row = |s: &Structure, label: String, shards: u64, log: &mut JsonLog| {
        let mut cells = Vec::new();
        for &t in &threads {
            let fresh = s.fresh(); // fresh instance per cell: no carry-over heap
            let cfg = RunConfig::new(t, opts.duration(), KeyDist::uniform(kr), mix);
            eprintln!("  {label} / {t} threads ...");
            let m = fresh
                .run_throughput(&cfg)
                .expect("update-only mix needs only point ops");
            log.push(
                "e10",
                &[
                    ("structure", Val::s(&label)),
                    ("shards", Val::U(shards)),
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
        out.push_str(&format!("| {label} |"));
        for c in cells {
            out.push_str(&format!(" {c} |"));
        }
        out.push('\n');
    };

    // Unsharded reference: the same tree the sharded series wraps.
    run_row(
        &Structure::Pnb(adapters::Pnb::new()),
        "pnb-bst".to_string(),
        1,
        log,
    );
    for &n in &shard_counts {
        run_row(
            &Structure::PnbSharded(adapters::Sharded::with_shards(n)),
            format!("pnb-sharded-x{n}"),
            n as u64,
            log,
        );
    }
    out
}

/// E11 (extension) — open-loop tail latency vs offered rate: the
/// latency-honest replacement for E8's closed-loop lens. Each cell
/// offers a *fixed* arrival rate (a per-thread intended-start schedule;
/// see `workload::schedule`) and records per-class latency from the
/// intended start, so queueing delay is charged to the structure instead
/// of silently omitted. Keys come from the scrambled-Zipfian
/// distribution — the same skew as rank-Zipf, but with the hot keys
/// dispersed across the key space instead of packed into block 0 (which
/// used to melt exactly one shard of `pnb-sharded` by accident). The
/// rows report offered vs achieved rate, so saturation is visible as a
/// rate gap rather than quietly renormalized percentiles.
pub fn e11(opts: &ExpOpts, log: &mut JsonLog) -> String {
    let kr: u64 = if opts.quick { 20_000 } else { 100_000 };
    let threads = if opts.quick { 2 } else { 4 };
    let rates: Vec<f64> = if opts.quick {
        vec![50e3, 200e3, 800e3]
    } else {
        vec![100e3, 400e3, 1600e3]
    };
    // Insert/delete/find only: nb-bst declares neither ranges nor
    // upserts, and the point of the table is comparing the same mix
    // across pnb, nb, sharded and the lock baseline.
    let mix = Mix::new(25, 25, 50, 0, 0);
    let mut out = format!(
        "\n### E11 — Open-loop tail latency vs offered rate (25i/25d/50f, \
         scrambled-Zipf θ=0.99, {threads} threads, key range {kr})\n\n\
         | structure | offered | achieved | op | samples | p50 | p99 | p999 |\n\
         |---|---|---|---|---|---|---|---|\n"
    );
    let structures = [
        Structure::Pnb(adapters::Pnb::new()),
        Structure::PnbSharded(adapters::Sharded::new()),
        Structure::Nb(adapters::Nb::new()),
        Structure::Rw(adapters::Rw::new()),
    ];
    for s in &structures {
        for &rate in &rates {
            // Fresh instance per rate so a saturated run's backlog and
            // heap do not contaminate the next cell.
            let fresh = s.fresh();
            let cfg = OpenLoopConfig {
                threads,
                target_rate: rate,
                duration: opts.duration(),
                key_dist: KeyDist::scrambled_zipfian(kr, 0.99),
                mix,
                prefill_fraction: 0.5,
                seed: 42,
                interval_log: None,
            };
            eprintln!("  {} / offered {:.0}k ops/s ...", fresh.name(), rate / 1e3);
            let m = fresh
                .run_open_loop(&cfg)
                .expect("point-op mix runs on the whole roster");
            for c in &m.classes {
                log.push(
                    "e11",
                    &[
                        ("structure", Val::s(&m.name)),
                        ("threads", Val::U(threads as u64)),
                        ("key_range", Val::U(kr)),
                        ("offered_rate", Val::F(m.offered_rate)),
                        ("achieved_rate", Val::F(m.achieved_rate)),
                        ("elapsed_secs", Val::F(m.elapsed_secs)),
                        ("op", Val::s(&c.class)),
                        ("samples", Val::U(c.count)),
                        ("p50_ns", Val::U(c.p50_ns)),
                        ("p99_ns", Val::U(c.p99_ns)),
                        ("p999_ns", Val::U(c.p999_ns)),
                        ("max_ns", Val::U(c.max_ns)),
                    ],
                );
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
                    m.name,
                    fmt_tput(m.offered_rate),
                    fmt_tput(m.achieved_rate),
                    c.class,
                    c.count,
                    fmt_ns(c.p50_ns),
                    fmt_ns(c.p99_ns),
                    fmt_ns(c.p999_ns),
                ));
            }
            pnb_bst::collector_drain(64);
            pnb_bst::arena_trim(); // heap hygiene between cells
        }
    }
    out.push_str(
        "\n*(latency measured from each operation's intended start — \
         queueing delay included; achieved < offered marks saturation)*\n",
    );
    out
}

/// E12 (extension) — checkpoint drag: what a concurrent durable
/// checkpointer costs the foreground. Each cell drives the open-loop
/// point mix against `pnb-sharded` at a fixed offered rate, once
/// undisturbed and once with a background thread repeatedly writing
/// full durable checkpoints (`ShardedPnbBst::checkpoint`, DESIGN §9)
/// into a scratch directory. Because the checkpointer's cut is a
/// wait-free `ShardedSnapshot`, the *expected* drag is IO + allocator
/// pressure, not blocking — the rows make that claim measurable:
/// `checkpoint_active` marks the mode, `checkpoints` counts completed
/// generations, and `interval_p99_max_ns` (worst per-interval p99 from
/// the interval log) exposes pauses that a whole-run p99 would average
/// away.
pub fn e12(opts: &ExpOpts, log: &mut JsonLog) -> String {
    use std::sync::atomic::{AtomicBool, Ordering};

    let kr: u64 = if opts.quick { 20_000 } else { 100_000 };
    let threads = if opts.quick { 2 } else { 4 };
    let rates: Vec<f64> = if opts.quick {
        vec![50e3, 200e3]
    } else {
        vec![100e3, 400e3]
    };
    let mix = Mix::new(25, 25, 50, 0, 0);
    let mut out = format!(
        "\n### E12 — Checkpoint drag on open-loop tail latency \
         (pnb-sharded, 25i/25d/50f, scrambled-Zipf θ=0.99, {threads} \
         threads, key range {kr})\n\n\
         | ckpt | offered | achieved | ckpts | op | samples | p50 | p99 | worst-interval p99 |\n\
         |---|---|---|---|---|---|---|---|---|\n"
    );
    let scratch = std::env::temp_dir().join(format!("pnb_e12_{}", std::process::id()));
    for checkpoint_active in [false, true] {
        for (cell, &rate) in rates.iter().enumerate() {
            let map = adapters::Sharded::new();
            let ckpt_dir = scratch.join(format!("ckpt_{checkpoint_active}_{cell}"));
            let log_path = scratch.join(format!("ivl_{checkpoint_active}_{cell}.jsonl"));
            let _ = std::fs::remove_file(&log_path);
            std::fs::create_dir_all(&scratch).expect("scratch dir");
            let cfg = OpenLoopConfig {
                threads,
                target_rate: rate,
                duration: opts.duration(),
                key_dist: KeyDist::scrambled_zipfian(kr, 0.99),
                mix,
                prefill_fraction: 0.5,
                seed: 42,
                interval_log: Some(workload::IntervalLogConfig::with_interval(
                    &log_path,
                    Duration::from_millis(50),
                )),
            };
            eprintln!(
                "  checkpointer {} / offered {:.0}k ops/s ...",
                if checkpoint_active { "on" } else { "off" },
                rate / 1e3
            );
            let stop = AtomicBool::new(false);
            let mut checkpoints = 0u64;
            let m = std::thread::scope(|s| {
                let ckpt = checkpoint_active.then(|| {
                    s.spawn(|| {
                        // Checkpoint continuously (with a breather) for
                        // the run's whole lifetime: every generation is
                        // a full wait-free cut serialized + fsynced.
                        let mut n = 0u64;
                        while !stop.load(Ordering::Acquire) {
                            map.0.checkpoint(&ckpt_dir).expect("checkpoint scratch dir");
                            n += 1;
                            for _ in 0..4 {
                                if stop.load(Ordering::Acquire) {
                                    break;
                                }
                                std::thread::sleep(Duration::from_millis(25));
                            }
                        }
                        n
                    })
                });
                let m = workload::run_open_loop(&map, &cfg)
                    .expect("sharded map declares the point-op surface");
                stop.store(true, Ordering::Release);
                if let Some(h) = ckpt {
                    checkpoints = h.join().expect("checkpointer thread joins");
                }
                m
            });

            // Worst per-interval p99 from the interval log: the pause
            // lens. (The log is JSONL written by this run alone.)
            let rows_text = std::fs::read_to_string(&log_path).unwrap_or_default();
            let mut intervals = 0u64;
            let mut interval_p99_max_ns = 0u64;
            for line in rows_text.lines() {
                if let Some(rest) = line.split("\"p99_ns\": ").nth(1) {
                    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                    if let Ok(v) = digits.parse::<u64>() {
                        intervals += 1;
                        interval_p99_max_ns = interval_p99_max_ns.max(v);
                    }
                }
            }
            let _ = std::fs::remove_file(&log_path);
            let _ = std::fs::remove_dir_all(&ckpt_dir);

            for c in &m.classes {
                log.push(
                    "e12",
                    &[
                        ("structure", Val::s(&m.name)),
                        ("threads", Val::U(threads as u64)),
                        ("key_range", Val::U(kr)),
                        ("checkpoint_active", Val::B(checkpoint_active)),
                        ("checkpoints", Val::U(checkpoints)),
                        ("offered_rate", Val::F(m.offered_rate)),
                        ("achieved_rate", Val::F(m.achieved_rate)),
                        ("elapsed_secs", Val::F(m.elapsed_secs)),
                        ("intervals", Val::U(intervals)),
                        ("interval_p99_max_ns", Val::U(interval_p99_max_ns)),
                        ("op", Val::s(&c.class)),
                        ("samples", Val::U(c.count)),
                        ("p50_ns", Val::U(c.p50_ns)),
                        ("p99_ns", Val::U(c.p99_ns)),
                        ("p999_ns", Val::U(c.p999_ns)),
                        ("max_ns", Val::U(c.max_ns)),
                    ],
                );
                out.push_str(&format!(
                    "| {} | {} | {} | {checkpoints} | {} | {} | {} | {} | {} |\n",
                    if checkpoint_active { "on" } else { "off" },
                    fmt_tput(m.offered_rate),
                    fmt_tput(m.achieved_rate),
                    c.class,
                    c.count,
                    fmt_ns(c.p50_ns),
                    fmt_ns(c.p99_ns),
                    fmt_ns(interval_p99_max_ns),
                ));
            }
            pnb_bst::collector_drain(64);
            pnb_bst::arena_trim(); // heap hygiene between cells
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    out.push_str(
        "\n*(checkpointer serializes a full wait-free cut + fsync per \
         generation; drag shows up as the on/off gap in p99 and \
         worst-interval p99, not as blocking)*\n",
    );
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
pub fn e13(opts: &ExpOpts, log: &mut JsonLog) -> String {
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
                let m = cell
                    .run_batched_throughput(&cfg)
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

/// E14 (extension) — the network round trip: open-loop tail latency vs
/// offered rate through `pnb-server` on loopback. Same engine and
/// schema as E11, but every operation crosses the full server stack
/// (frame encode → TCP → worker loop → long-lived sharded session →
/// response), so the rows price the paper's wait-free range queries as
/// a *service*: series `pnb-sharded-net`, one point-op mix and one
/// range mix, three offered rates each. A fresh in-process server is
/// spawned (ephemeral port) and drained per cell so one saturated
/// cell's backlog cannot contaminate the next. With `--features stats`
/// the per-shard op counters also yield a load-imbalance (max/mean)
/// figure per cell; without it that column reads `n/a`.
pub fn e14(opts: &ExpOpts, log: &mut JsonLog) -> String {
    use pnb_server::{Client, NetMap, Server, ServerConfig};

    let kr: u64 = if opts.quick { 8_192 } else { 65_536 };
    let threads = if opts.quick { 2 } else { 4 };
    let rates: Vec<f64> = if opts.quick {
        vec![5e3, 20e3, 80e3]
    } else {
        vec![20e3, 80e3, 320e3]
    };
    let mixes: [(&str, Mix); 2] = [
        ("point", Mix::new(25, 25, 50, 0, 0)),
        ("range", Mix::new(20, 20, 50, 10, 100)),
    ];
    let mut out = format!(
        "\n### E14 — Open-loop latency through the network server \
         (pnb-server on loopback, scrambled-Zipf θ=0.99, {threads} client \
         threads, key range {kr})\n\n\
         | mix | offered | achieved | imbalance | op | samples | p50 | p99 | p999 |\n\
         |---|---|---|---|---|---|---|---|---|\n"
    );
    for (mix_name, mix) in mixes {
        for &rate in &rates {
            // Fresh server per cell: its own map, workers and port;
            // drained and joined before the next cell starts.
            let server_cfg = ServerConfig {
                shards: 8,
                workers: threads,
                refresh_every: 256,
                drain_grace: Duration::from_millis(100),
                ..Default::default()
            };
            let (addr, shutdown, join) = Server::bind("127.0.0.1:0", server_cfg)
                .expect("bind loopback ephemeral port")
                .spawn()
                .expect("spawn in-process server");
            let map = NetMap::connect(addr).expect("dial in-process server");
            let cfg = OpenLoopConfig {
                threads,
                target_rate: rate,
                duration: opts.duration(),
                key_dist: KeyDist::scrambled_zipfian(kr, 0.99),
                mix,
                prefill_fraction: 0.5,
                seed: 42,
                interval_log: None,
            };
            eprintln!("  {mix_name} mix / offered {:.0}k ops/s ...", rate / 1e3);
            let m = workload::run_open_loop(&map, &cfg).expect("NetMap declares every capability");

            // Per-shard load spread, served by the Stats opcode (zeros
            // without the stats build).
            let shard_ops = Client::connect(addr)
                .and_then(|mut c| c.stats().map_err(|_| std::io::ErrorKind::Other.into()))
                .map(|s| s.shard_ops)
                .unwrap_or_default();
            let total: u64 = shard_ops.iter().sum();
            let imbalance = if total == 0 {
                None
            } else {
                let max = *shard_ops.iter().max().expect("non-empty") as f64;
                Some(max / (total as f64 / shard_ops.len() as f64))
            };
            let imb_label = imbalance.map_or("n/a".to_string(), |x| format!("{x:.2}"));

            drop(map);
            shutdown.signal();
            join.join()
                .expect("server thread joins")
                .expect("server drains cleanly");

            for c in &m.classes {
                log.push(
                    "e14",
                    &[
                        ("structure", Val::s(&m.name)),
                        ("mix", Val::s(mix_name)),
                        ("threads", Val::U(threads as u64)),
                        ("key_range", Val::U(kr)),
                        ("offered_rate", Val::F(m.offered_rate)),
                        ("achieved_rate", Val::F(m.achieved_rate)),
                        ("elapsed_secs", Val::F(m.elapsed_secs)),
                        ("load_imbalance", Val::F(imbalance.unwrap_or(0.0))),
                        ("op", Val::s(&c.class)),
                        ("samples", Val::U(c.count)),
                        ("p50_ns", Val::U(c.p50_ns)),
                        ("p99_ns", Val::U(c.p99_ns)),
                        ("p999_ns", Val::U(c.p999_ns)),
                        ("max_ns", Val::U(c.max_ns)),
                    ],
                );
                out.push_str(&format!(
                    "| {mix_name} | {} | {} | {imb_label} | {} | {} | {} | {} | {} |\n",
                    fmt_tput(m.offered_rate),
                    fmt_tput(m.achieved_rate),
                    c.class,
                    c.count,
                    fmt_ns(c.p50_ns),
                    fmt_ns(c.p99_ns),
                    fmt_ns(c.p999_ns),
                ));
            }
            pnb_bst::collector_drain(64);
            pnb_bst::arena_trim(); // heap hygiene between cells
        }
    }
    out.push_str(
        "\n*(every operation crosses loopback TCP and the server's worker \
         loop; imbalance is max/mean of per-shard op counts — `n/a` without \
         `--features stats`)*\n",
    );
    out
}

/// E15: the graceful-degradation curve. Calibrate the server's
/// single-connection capacity with a closed-loop pipelined burst, then
/// sweep offered rate at {0.5, 1, 2, 4}× capacity with an open-loop
/// pipelined driver (arrivals on schedule, *not* waiting for
/// responses, so the worker's backlog genuinely grows past its
/// admission limit) and record, per rate: goodput (accepted ops/s),
/// shed rate (fraction answered with a typed `Busy` frame), and the
/// p99 of *accepted* ops measured from each op's intended start.
///
/// The overload contract this plots: goodput must plateau near
/// capacity instead of collapsing, every over-limit request must be
/// *answered* (the driver asserts sent == accepted + shed), and the
/// Busy frames carry the shed signal clients back off on.
pub fn e15(opts: &ExpOpts, log: &mut JsonLog) -> String {
    use pnb_server::{
        decode_response, encode_request, AdmissionConfig, Client, FrameBuf, ReqBody, Request,
        RespBody, Server, ServerConfig,
    };
    use std::io::{Read, Write};
    use workload::HdrHistogram;

    let kr: u64 = if opts.quick { 8_192 } else { 65_536 };
    let duration = if opts.quick {
        Duration::from_millis(400)
    } else {
        Duration::from_millis(1500)
    };
    let multipliers = [0.5, 1.0, 2.0, 4.0];

    // One worker with a modest in-flight budget: overload must shed,
    // not absorb the whole sweep into queueing.
    let server_cfg = ServerConfig {
        shards: 8,
        workers: 1,
        drain_grace: Duration::from_millis(100),
        admission: AdmissionConfig {
            max_inflight: 512,
            ..AdmissionConfig::default()
        },
        ..Default::default()
    };
    let (addr, shutdown, join) = Server::bind("127.0.0.1:0", server_cfg)
        .expect("bind loopback ephemeral port")
        .spawn()
        .expect("spawn in-process server");

    // Prefill so gets have data to hit — windowed at 256 outstanding so
    // the admission limit (512) never sheds a prefill insert.
    {
        let mut c = Client::connect(addr).expect("dial for prefill");
        let n = kr.min(8_192);
        for batch in (0..n).step_by(256) {
            let hi = (batch + 256).min(n);
            for k in batch..hi {
                c.send(ReqBody::Insert { key: k, value: k }).expect("send");
            }
            for _ in batch..hi {
                c.recv().expect("prefill ack");
            }
        }
    }

    // Closed-loop calibration: a fixed window of pipelined gets (well
    // under max_inflight, so nothing sheds) for ~300 ms.
    let capacity = {
        let mut c = Client::connect(addr).expect("dial for calibration");
        let window = 256u64;
        for i in 0..window {
            c.send(ReqBody::Get { key: i % kr }).expect("send");
        }
        let t0 = std::time::Instant::now();
        let mut done = 0u64;
        while t0.elapsed() < Duration::from_millis(300) {
            c.recv().expect("calibration recv");
            c.send(ReqBody::Get { key: done % kr }).expect("send");
            done += 1;
        }
        for _ in 0..window {
            c.recv().expect("drain window");
        }
        done as f64 / t0.elapsed().as_secs_f64()
    };
    eprintln!("  calibrated capacity ≈ {:.0}k ops/s", capacity / 1e3);

    let mut out = format!(
        "\n### E15 — Graceful degradation past capacity (pnb-server on \
         loopback, 1 worker, max_inflight 512, calibrated capacity \
         {}, key range {kr})\n\n\
         | offered | ×cap | goodput | goodput/cap | shed | p99 accepted |\n\
         |---|---|---|---|---|---|\n",
        fmt_tput(capacity)
    );

    for &mult in &multipliers {
        let rate = capacity * mult;
        eprintln!("  offered {:.0}k ops/s ({mult}× capacity) ...", rate / 1e3);
        let stream = std::net::TcpStream::connect(addr).expect("dial driver conn");
        stream.set_nodelay(true).expect("nodelay");
        // Short read timeout: the reader re-checks the writer's final
        // sent count on each wakeup instead of parking forever once the
        // last response has been drained.
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("read timeout");
        let mut wstream = stream.try_clone().expect("clone for writer");
        let interval = Duration::from_secs_f64(1.0 / rate);
        let total_sent = std::sync::atomic::AtomicU64::new(u64::MAX);
        let (accepted, shed, hist, elapsed) = std::thread::scope(|s| {
            // Writer: open loop — send every op at its intended time,
            // batch whatever is due, never wait for responses.
            let sent_ref = &total_sent;
            s.spawn(move || {
                let start = std::time::Instant::now();
                let mut sent = 0u64;
                let mut buf = Vec::with_capacity(64 * 28);
                while start.elapsed() < duration {
                    let due = (start.elapsed().as_secs_f64() / interval.as_secs_f64()) as u64 + 1;
                    buf.clear();
                    while sent < due {
                        buf.extend_from_slice(&encode_request(&Request {
                            id: sent,
                            body: ReqBody::Get { key: sent % kr },
                        }));
                        sent += 1;
                    }
                    if !buf.is_empty() {
                        wstream.write_all(&buf).expect("driver write");
                    }
                    std::thread::sleep(interval.min(Duration::from_micros(200)));
                }
                sent_ref.store(sent, std::sync::atomic::Ordering::Release);
            });
            // Reader: responses come back in request order; latency is
            // measured from each op's *intended* start (index i maps to
            // start + i·interval) — coordinated-omission-free.
            let reader = s.spawn(move || {
                let start = std::time::Instant::now();
                let mut rstream = stream;
                let mut frames = FrameBuf::new();
                let mut chunk = [0u8; 64 * 1024];
                let mut hist = HdrHistogram::new();
                let (mut got, mut ok, mut busy) = (0u64, 0u64, 0u64);
                loop {
                    let target = sent_ref.load(std::sync::atomic::Ordering::Acquire);
                    if got >= target {
                        break;
                    }
                    assert!(
                        start.elapsed() < duration + Duration::from_secs(30),
                        "driver wedged: {got} of {target} responses after the deadline"
                    );
                    match frames.next_frame().expect("driver frame") {
                        Some(frame) => {
                            let resp = decode_response(&frame).expect("driver decode");
                            let intended = interval.mul_f64(got as f64);
                            match resp.body {
                                RespBody::Busy { .. } => busy += 1,
                                _ => {
                                    ok += 1;
                                    hist.record(
                                        start.elapsed().saturating_sub(intended).as_nanos() as u64,
                                    );
                                }
                            }
                            got += 1;
                        }
                        None => match rstream.read(&mut chunk) {
                            Ok(0) => panic!("server closed mid-run"),
                            Ok(n) => frames.feed(&chunk[..n]),
                            Err(e)
                                if e.kind() == std::io::ErrorKind::WouldBlock
                                    || e.kind() == std::io::ErrorKind::TimedOut => {}
                            Err(e) => panic!("driver read: {e}"),
                        },
                    }
                }
                assert_eq!(got, ok + busy, "every request answered, none dropped");
                (ok, busy, hist, start.elapsed())
            });
            reader.join().expect("reader thread")
        });
        let total = accepted + shed;
        let goodput = accepted as f64 / elapsed.as_secs_f64();
        let shed_rate = shed as f64 / total.max(1) as f64;
        let p99 = hist.value_at_percentile(99.0).unwrap_or(0);
        out.push_str(&format!(
            "| {} | {mult}× | {} | {:.2} | {:.1}% | {} |\n",
            fmt_tput(rate),
            fmt_tput(goodput),
            goodput / capacity,
            shed_rate * 100.0,
            fmt_ns(p99),
        ));
        log.push(
            "e15",
            &[
                ("structure", Val::s("pnb-sharded-net")),
                ("key_range", Val::U(kr)),
                ("capacity_ops", Val::F(capacity)),
                ("rate_multiplier", Val::F(mult)),
                ("offered_rate", Val::F(rate)),
                ("goodput", Val::F(goodput)),
                ("goodput_vs_capacity", Val::F(goodput / capacity)),
                ("shed_rate", Val::F(shed_rate)),
                ("accepted", Val::U(accepted)),
                ("shed", Val::U(shed)),
                ("p99_ns", Val::U(p99)),
            ],
        );
    }

    shutdown.signal();
    join.join()
        .expect("server thread joins")
        .expect("server drains cleanly");
    pnb_bst::collector_drain(64);
    pnb_bst::arena_trim();
    out.push_str(
        "\n*(open-loop pipelined driver on one connection: arrivals stay on \
         schedule past capacity, so the worker's backlog crosses its \
         admission limit and excess requests come back as typed `Busy` \
         frames; goodput plateauing near capacity — instead of collapsing \
         under queueing — is the graceful-degradation contract. p99 is over \
         accepted ops only, measured from intended start.)*\n",
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

// Re-exported so the roster helpers read naturally from the bin.
pub use workload::CapabilityError;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpOpts {
        ExpOpts { quick: true }
    }

    // These are smoke tests: each experiment must run end-to-end and
    // produce a table (plus JSON rows for the trajectory file).

    /// E1–E3 log one row per capable structure × thread count × key
    /// range, and no cell may sit idle.
    fn assert_full_sweep(exp: &str, mix: Mix, log: &JsonLog) -> String {
        let structures = adapters::all_structures(required_caps(&mix)).len();
        let o = tiny();
        assert_eq!(
            log.len(),
            structures * o.threads().len() * o.key_ranges().len()
        );
        let rendered = log.render("quick", 1);
        assert!(rendered.contains(&format!("\"experiment\": \"{exp}\"")));
        assert!(!rendered.contains("\"total_ops\": 0,"), "idle cell");
        rendered
    }

    #[test]
    fn e1_sweeps_every_structure_update_only() {
        let mut log = JsonLog::new();
        let s = e1(&tiny(), &mut log);
        assert!(s.contains("pnb-bst"));
        let rendered = assert_full_sweep("e1", Mix::update_only(), &log);
        assert!(!rendered.contains("\"inserts\": 0,"));
        assert!(!rendered.contains("\"deletes\": 0,"));
    }

    #[test]
    fn e2_sweeps_every_structure_read_mostly() {
        let mut log = JsonLog::new();
        let s = e2(&tiny(), &mut log);
        assert!(s.contains("pnb-bst"));
        let rendered = assert_full_sweep("e2", Mix::read_mostly(), &log);
        assert!(!rendered.contains("\"finds\": 0,"));
    }

    #[test]
    fn e3_sweeps_range_capable_structures_with_scans() {
        let mut log = JsonLog::new();
        let s = e3(&tiny(), &mut log);
        assert!(s.contains("pnb-bst"));
        let rendered = assert_full_sweep("e3", Mix::with_ranges(100), &log);
        assert!(!rendered.contains("\"scans\": 0,"), "no range query ran");
    }

    #[test]
    fn e4_runs_every_width_for_both_structures() {
        let mut log = JsonLog::new();
        let s = e4(&tiny(), &mut log);
        assert!(s.contains("pnb-bst"));
        assert!(s.contains("width 1000"));
        assert_eq!(log.len(), 6); // {pnb-bst, rwlock-btreemap} × 3 widths
        let rendered = log.render("quick", 1);
        assert!(!rendered.contains("\"scans\": 0,"), "no range query ran");
    }

    #[test]
    fn e5_produces_three_rows_and_json() {
        let mut log = JsonLog::new();
        let s = e5(&tiny(), &mut log);
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
        e6(&tiny(), &mut log);
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
        let s = e7(&tiny(), &mut log);
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
        let s = e8(&ExpOpts { quick: true }, &mut log);
        assert!(s.contains("pnb-bst"));
        assert!(s.contains("rwlock-btreemap"));
        assert!(s.contains("range_scan"));
        assert!(log.len() >= 8); // ≥4 op classes × 2 structures
    }

    #[test]
    fn e8r_reports_collector_scaling_rows() {
        let mut log = JsonLog::new();
        let s = e8r(&tiny(), &mut log);
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
        let s = e9(&tiny(), &mut log);
        assert!(s.contains("pnb-bst"));
        assert!(s.contains("nb-bst"));
        // 2 structures × 3 thread counts in quick mode.
        assert_eq!(log.len(), 6);
        let rendered = log.render("quick", 1);
        assert!(rendered.contains("\"experiment\": \"e9\""));
        assert!(rendered.contains("\"pool_hits\""));
        #[cfg(feature = "stats")]
        {
            // The pnb rows must show the pools actually working.
            assert!(rendered.contains("\"stats_enabled\": true"));
        }
    }

    #[test]
    fn e10_reports_shard_scaling_rows() {
        let mut log = JsonLog::new();
        let s = e10(&tiny(), &mut log);
        assert!(s.contains("pnb-bst"));
        assert!(s.contains("pnb-sharded-x8"));
        // (1 unsharded + 3 shard counts) × 3 thread counts in quick mode.
        assert_eq!(log.len(), 12);
        let rendered = log.render("quick", 1);
        assert!(rendered.contains("\"experiment\": \"e10\""));
        assert!(rendered.contains("\"shards\": 8"));
    }

    #[test]
    fn e11_reports_open_loop_rows_per_rate_and_class() {
        let mut log = JsonLog::new();
        let s = e11(&tiny(), &mut log);
        for name in ["pnb-bst", "pnb-sharded", "nb-bst", "rwlock-btreemap"] {
            assert!(s.contains(name), "{name} missing from the table");
        }
        // 4 structures × 3 offered rates × 3 op classes (every class of
        // a 25/25/50 mix is sampled thousands of times per cell).
        assert_eq!(log.len(), 36);
        let rendered = log.render("quick", 1);
        assert!(rendered.contains("\"experiment\": \"e11\""));
        assert!(rendered.contains("\"offered_rate\""));
        assert!(rendered.contains("\"achieved_rate\""));
        assert!(rendered.contains("\"p999_ns\""));
    }

    #[test]
    fn e12_reports_checkpoint_drag_rows_per_mode_rate_and_class() {
        let mut log = JsonLog::new();
        let s = e12(&tiny(), &mut log);
        assert!(s.contains("Checkpoint drag"));
        // 2 checkpointer modes × 2 offered rates × 3 op classes.
        assert_eq!(log.len(), 12);
        let rendered = log.render("quick", 1);
        assert!(rendered.contains("\"experiment\": \"e12\""));
        assert!(rendered.contains("\"checkpoint_active\": true"));
        assert!(rendered.contains("\"checkpoint_active\": false"));
        assert!(rendered.contains("\"checkpoints\""));
        assert!(rendered.contains("\"interval_p99_max_ns\""));
    }

    #[test]
    fn e13_reports_batched_rows_with_descent_sharing() {
        let mut log = JsonLog::new();
        let s = e13(&tiny(), &mut log);
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
        assert!(rendered.contains("\"p99_ns\""));
    }

    #[test]
    fn e15_reports_overload_shedding_rows() {
        let mut log = JsonLog::new();
        let s = e15(&tiny(), &mut log);
        assert!(s.contains("Graceful degradation"));
        assert!(s.contains("shed"));
        // One row per offered-rate multiplier.
        assert_eq!(log.len(), 4);
        let rendered = log.render("quick", 1);
        assert!(rendered.contains("\"experiment\": \"e15\""));
        assert!(rendered.contains("\"goodput\""));
        assert!(rendered.contains("\"shed_rate\""));
        assert!(rendered.contains("\"goodput_vs_capacity\""));
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
