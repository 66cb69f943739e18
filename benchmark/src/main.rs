//! The benchmark of the PNB-BST store: workloads from the bare
//! in-process map to a pipelined client of `pnb-server`, end-to-end
//! metrics from the untraced build, a per-layer ladder from the traced
//! one. See `README.md` beside this package for why each workload
//! exists and how the numbers are taken.
//!
//! ```text
//! pnb-benchmark [--seed N] [--seconds S] [--out FILE]              every workload, one child process each
//! pnb-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload; last line is the result JSON
//! pnb-benchmark --list                                             workload and metric names
//! pnb-benchmark compare A.json B.json                              two result files, row by row
//! ```

mod check;
mod compare;
mod counters;
mod gen;
mod json;
mod ladder;
mod measure;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use json::{obj, Value};
use spec::{END_TO_END, PER_LAYER};
use trace::Tracer;
use workloads::net::Kind;
use workloads::{key_space, Layer, Outcome, RunConfig};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The untraced run's result line, for `trace.overhead_frac`.
    reference: Option<String>,
    out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pnb-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--reference JSON] [--out FILE]\n       pnb-benchmark --list\n       \
         pnb-benchmark compare A.json B.json\nworkloads: {}",
        spec::workload_names().join(" ")
    );
    2.into()
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 22.0,
        trace: false,
        reference: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().ok()?,
            "--seconds" => parsed.seconds = value.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => parsed.trace = value.parse::<u8>().ok().filter(|t| *t <= 1)? == 1,
            "--reference" => parsed.reference = Some(value.clone()),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    Some(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("--list") => {
            print!("{}", spec::render_list());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let Some(args) = parse_args(&args) else {
        return usage();
    };
    match &args.workload {
        None => run_every_workload(&args),
        Some(name) if spec::workload_names().contains(&name.as_str()) => run_one(name, &args),
        Some(_) => usage(),
    }
}

/// One child process per workload: `peak_rss_mb` is a process-wide
/// high-water mark, so workloads must not share a process.
fn run_every_workload(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for w in spec::all_workloads() {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            child.arg("--out").arg(out);
        }
        // `status` waits for the child to end.
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{}: {status}", w.name);
                all_ok = false;
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    if args.trace != Tracer::enabled() {
        eprintln!(
            "this executable was built {} the `trace` feature, and --trace {} needs the other \
             build: end-to-end metrics come from the untraced build only, per-layer metrics from \
             the traced one. `bash benchmark/run.sh` builds and picks the right one.",
            if Tracer::enabled() { "with" } else { "without" },
            args.trace as u8,
        );
        return 2.into();
    }
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        space: key_space(workload),
        out_dir,
    };
    println!(
        "== {workload}  seed {}  {} s measured after {} s warm-up  {} build  nproc {}",
        cfg.seed,
        cfg.seconds,
        measure::WARMUP.as_secs(),
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let outcome = match workload {
        "mem-point" => Ok(workloads::mem::mem_point(&cfg)),
        "mem-scan" => Ok(workloads::mem::mem_scan(&cfg)),
        "net-lowrate" => workloads::net::run(Kind::Lowrate, &cfg),
        "net-pipeline" => workloads::net::run(Kind::Pipeline, &cfg),
        "net-batch" => workloads::net::run(Kind::Batch, &cfg),
        "net-scan" => workloads::net::run(Kind::Scan, &cfg),
        _ => unreachable!("checked against the workload list"),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        match per_layer(workload, args, &cfg, &mut outcome) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("{workload}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        end_to_end(&outcome)
    };
    report(workload, args, &outcome, metrics)
}

fn end_to_end(o: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => o.setup_s,
                "ops_per_s" => o.summary.ops_per_s,
                "keys_per_s" => o.summary.keys_per_s,
                "p50_us" => o.summary.p50_us,
                "peak_rss_mb" => o.peak_rss_mb,
                other => unreachable!("end-to-end metric `{other}` has no source"),
            };
            (m.name, m.unit, value)
        })
        .collect()
}

/// The traced run's part: the ladder, the workload's own layer values
/// over it, the overhead against the untraced reference, and the trace
/// file.
fn per_layer(
    workload: &str,
    args: &Args,
    cfg: &RunConfig,
    o: &mut Outcome,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let placement = sys::Placement::detect();
    let ladder = ladder::run(cfg.seed, cfg.space, &cfg.out_dir, &placement)
        .map_err(|e| format!("ladder: {e}"))?;
    let mut layer: Layer = ladder.layer;
    layer.extend(std::mem::take(&mut o.layer));
    layer.set("update_ops_per_s", o.summary.update_ops_per_s);
    layer.set("scan_keys_per_s", o.summary.scan_keys_per_s);
    layer.set("p95_us", o.summary.p95_us);
    layer.set("p99_us", o.summary.p99_us);
    if workload == "net-lowrate" {
        // The workload's own median call, not the ladder's probe.
        layer.set(
            "server.io.wait_ns",
            layer.get("server.client.call_ns") - ladder.in_process_ns,
        );
    }
    let reference = args
        .reference
        .as_deref()
        .ok_or("--trace 1 needs --reference <the untraced run's result line>")?;
    let reference = json::parse(reference).map_err(|e| format!("--reference: {e}"))?;
    let untraced = |metric: &str| {
        reference
            .get("metrics")
            .and_then(|m| m.get(metric)?.get("value")?.as_f64())
            .filter(|v| *v > 0.0)
            .ok_or(format!("--reference has no `{metric}`"))
    };
    // The workload's first metric: a rate, except in the open loop,
    // whose rate is the schedule's.
    let overhead = if workload == "net-lowrate" {
        o.summary.p50_us / untraced("p50_us")? - 1.0
    } else {
        1.0 - o.summary.ops_per_s / untraced("ops_per_s")?
    };
    layer.set("trace.overhead_frac", overhead);

    o.traces.extend(ladder.traces);
    let counters: Vec<(String, f64)> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), layer.get(m.name)))
        .collect();
    let path = cfg.out_dir.join(format!("trace-{workload}.json"));
    std::fs::write(
        &path,
        trace::render_trace_file(workload, cfg.seed, &o.traces, &counters),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    o.notes.push(format!("trace written to {}", path.display()));
    Ok(PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, layer.get(m.name)))
        .collect())
}

/// Print the run for a reader, then the result line for the driver.
fn report(
    workload: &str,
    args: &Args,
    o: &Outcome,
    metrics: Vec<(&'static str, &'static str, f64)>,
) -> ExitCode {
    for note in &o.notes {
        println!("   {note}");
    }
    println!(
        "   latency samples in the smallest window: {} (1000 put fifty beyond its p95, ten \
         beyond its p99); median window p95 {:.1} us, p99 {:.1} us",
        o.summary.min_window_samples, o.summary.p95_us, o.summary.p99_us
    );
    let windows: Vec<String> = o
        .summary
        .window_ops_per_s
        .iter()
        .map(|w| format!("{w:.0}"))
        .collect();
    println!("   ops/s window by window: {}", windows.join(" "));
    for (name, unit, value) in &metrics {
        println!("   {name:<40} {value:>16.4} {unit}");
    }
    for e in o.tally.errors.iter().chain(&o.check_errors) {
        println!("   FAILED: {e}");
    }
    let all_finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let correct = o.tally.failed == 0 && o.check_errors.is_empty() && all_finite;
    let result = vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(o.tally.attempted.max(1) as f64)),
        ("failed", Value::Num(o.tally.failed as f64)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|&(name, unit, value)| {
                        let cell = obj(vec![
                            ("value", Value::Num(value)),
                            ("unit", Value::Str(unit.to_string())),
                        ]);
                        (name.to_string(), cell)
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(path) = &args.out {
        let mut record = vec![
            ("workload", Value::Str(workload.to_string())),
            ("seed", Value::Num(args.seed as f64)),
            ("seconds", Value::Num(args.seconds)),
            ("trace", Value::Num(args.trace as u8 as f64)),
            (
                "nproc",
                Value::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
            ),
        ];
        record.extend(result.iter().cloned());
        let line = obj(record).render();
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("append to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", obj(result).render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
