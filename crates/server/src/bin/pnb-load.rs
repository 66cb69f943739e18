//! `pnb-load` — open-loop load driver for a running `pnb-server`.
//!
//! ```text
//! pnb-load --addr HOST:PORT [--threads 2] [--rate 10000]
//!          [--duration-ms 2000] [--keys 65536]
//!          [--dist scrambled-zipf|zipf|uniform] [--theta 0.99]
//!          [--mix point|range|update|find] [--prefill 0.5] [--seed 42]
//!          [--json PATH]
//! pnb-load --addr HOST:PORT --checkpoint-now
//! pnb-load --addr HOST:PORT --count
//! pnb-load --addr HOST:PORT --fill N
//! ```
//!
//! `--retry-deadline-ms` and `--retry-mutations` configure the
//! self-healing connection layer (see `pnb_server::retry`): transient
//! resets and `Busy` shedding are retried inside each call's deadline
//! budget, with the retry time landing in the measured latency. Every
//! failure path exits nonzero with a one-line typed message — a panic
//! hook turns even a worker-thread failure into one line, not a
//! backtrace.
//!
//! Runs `workload::run_latency` paced at `--rate` over the
//! [`pnb_server::NetMap`] adapter: arrivals on a fixed schedule,
//! latency measured from each operation's *intended* start
//! (coordinated-omission-free), per-class HDR histograms. Emits a human
//! summary on stdout; `--json` writes one row per op class
//! (`offered_rate`, `achieved_rate`, `p50_ns`, `p99_ns`, `p999_ns`,
//! `max_ns`, …). Out-of-range numbers (`--rate`, `--threads`,
//! `--prefill`, `--keys`) exit 2 before anything connects.
//!
//! Two one-shot modes support the checkpoint smoke test (CI): with
//! `--checkpoint-now` the driver connects, triggers one durable
//! checkpoint on a server started with `--checkpoint-dir`, prints
//! `pnb-load: checkpoint generation=N entries=M`, and exits; with
//! `--count` it prints `pnb-load: count=N` (a full-range count) and
//! exits. Both skip the load phase entirely.

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use pnb_server::{NetMap, ReconnectingClient, RetryPolicy};
use workload::json::{JsonLog, Val};
use workload::{run_latency, KeyDist, Mix, RunConfig};

/// `eprintln!` that ignores a failed write. With stderr a closed pipe,
/// `eprintln!` panics, and a second panic inside the panic hook aborts
/// the process (exit 134) instead of exiting with the intended code.
macro_rules! to_stderr {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

fn usage() -> ! {
    to_stderr!(
        "usage: pnb-load --addr HOST:PORT [--threads N] [--rate OPS_PER_SEC] \
         [--duration-ms MS] [--keys N] [--dist scrambled-zipf|zipf|uniform] \
         [--theta F] [--mix point|range|update|find] [--prefill F] [--seed N] \
         [--json PATH] \
         [--retry-deadline-ms MS] [--retry-mutations]\n\
         \x20      pnb-load --addr HOST:PORT --checkpoint-now | --count | --fill N"
    );
    std::process::exit(2);
}

/// Turn any panic — the `NetMap` sessions fail loudly on final
/// transport errors, including from worker threads — into a one-line
/// typed message and a nonzero exit, never a backtrace.
fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown failure".to_string());
        // One line, no location, no backtrace: scripts grep this.
        to_stderr!("pnb-load: fatal: {msg}");
        std::process::exit(1);
    }));
}

struct Opts {
    addr: String,
    threads: usize,
    rate: f64,
    duration: Duration,
    keys: u64,
    dist: String,
    theta: f64,
    mix: String,
    prefill: f64,
    seed: u64,
    json: Option<String>,
    checkpoint_now: bool,
    count: bool,
    fill: Option<u64>,
    retry_deadline: Duration,
    retry_mutations: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            addr: String::new(),
            threads: 2,
            rate: 10_000.0,
            duration: Duration::from_millis(2_000),
            keys: 65_536,
            dist: "scrambled-zipf".into(),
            theta: 0.99,
            mix: "point".into(),
            prefill: 0.5,
            seed: 42,
            json: None,
            checkpoint_now: false,
            count: false,
            fill: None,
            retry_deadline: Duration::from_secs(10),
            retry_mutations: false,
        }
    }
}

fn parse_args() -> Opts {
    let mut o = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| {
                to_stderr!("{name} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--addr" => o.addr = take("--addr"),
            "--threads" => o.threads = parse(&take("--threads"), "--threads"),
            "--rate" => o.rate = parse(&take("--rate"), "--rate"),
            "--duration-ms" => {
                o.duration = Duration::from_millis(parse(&take("--duration-ms"), "--duration-ms"))
            }
            "--keys" => o.keys = parse(&take("--keys"), "--keys"),
            "--dist" => o.dist = take("--dist"),
            "--theta" => o.theta = parse(&take("--theta"), "--theta"),
            "--mix" => o.mix = take("--mix"),
            "--prefill" => o.prefill = parse(&take("--prefill"), "--prefill"),
            "--seed" => o.seed = parse(&take("--seed"), "--seed"),
            "--json" => o.json = Some(take("--json")),
            "--checkpoint-now" => o.checkpoint_now = true,
            "--count" => o.count = true,
            "--fill" => o.fill = Some(parse(&take("--fill"), "--fill")),
            "--retry-deadline-ms" => {
                o.retry_deadline = Duration::from_millis(parse(
                    &take("--retry-deadline-ms"),
                    "--retry-deadline-ms",
                ))
            }
            "--retry-mutations" => o.retry_mutations = true,
            "--help" | "-h" => usage(),
            other => {
                to_stderr!("unknown argument: {other}");
                usage();
            }
        }
    }
    if o.addr.is_empty() {
        to_stderr!("--addr is required");
        usage();
    }
    if let Err(e) = validate(&o) {
        to_stderr!("{e}");
        usage();
    }
    o
}

/// Reject the numbers no load phase can run with, before anything
/// connects: a rate that is not a positive finite number (it divides
/// the metronome's interval), a thread count outside 1..=256 (each is
/// an OS thread), a prefill fraction outside [0, 1] and an empty key
/// space.
fn validate(o: &Opts) -> Result<(), String> {
    if !(o.rate.is_finite() && o.rate > 0.0) {
        return Err(format!(
            "--rate must be positive and finite, got {}",
            o.rate
        ));
    }
    if !(1..=256).contains(&o.threads) {
        return Err(format!("--threads must be in 1..=256, got {}", o.threads));
    }
    if !(0.0..=1.0).contains(&o.prefill) {
        return Err(format!("--prefill must be in [0, 1], got {}", o.prefill));
    }
    if o.keys == 0 {
        return Err("--keys must be at least 1".to_string());
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(s: &str, name: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        to_stderr!("cannot parse {name} value: {s}");
        usage();
    })
}

impl Opts {
    fn policy(&self) -> RetryPolicy {
        RetryPolicy {
            call_deadline: self.retry_deadline,
            retry_mutations: self.retry_mutations,
            seed: self.seed,
            ..RetryPolicy::default()
        }
    }
}

/// `--fill N`: insert keys `0..N` through the self-healing client
/// (set-semantics inserts are safe to retry, so mutation retries are
/// forced on) and report how many were acknowledged. The chaos smoke
/// drives this through faults and then checks the server's count
/// against the acknowledged number — zero lost acknowledged ops.
fn run_fill(o: &Opts, n: u64) -> ExitCode {
    let addr = match o.addr.parse() {
        Ok(a) => a,
        Err(e) => {
            to_stderr!("pnb-load: bad --addr {}: {e}", o.addr);
            return ExitCode::FAILURE;
        }
    };
    let mut c = ReconnectingClient::with_policy(
        addr,
        RetryPolicy {
            retry_mutations: true,
            ..o.policy()
        },
    );
    let mut acked = 0u64;
    for k in 0..n {
        match c.insert(k, k) {
            Ok(_) => acked += 1,
            Err(e) => {
                to_stderr!("pnb-load: fill stopped at key {k}: {e}");
                println!("pnb-load: fill acked={acked} of {n}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("pnb-load: fill acked={acked} of {n}");
    ExitCode::SUCCESS
}

/// One-shot administrative modes (`--checkpoint-now`, `--count`): a
/// bare [`pnb_server::Client`], one request, one greppable stdout line.
fn run_one_shot(o: &Opts) -> ExitCode {
    let mut c = match pnb_server::Client::connect(o.addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            to_stderr!("pnb-load: cannot reach {}: {e}", o.addr);
            return ExitCode::FAILURE;
        }
    };
    if o.checkpoint_now {
        match c.checkpoint() {
            Ok((generation, entries)) => {
                println!("pnb-load: checkpoint generation={generation} entries={entries}");
            }
            Err(e) => {
                to_stderr!("pnb-load: checkpoint failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if o.count {
        match c.range_count(0, u64::MAX) {
            Ok(n) => println!("pnb-load: count={n}"),
            Err(e) => {
                to_stderr!("pnb-load: count failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    install_panic_hook();
    let o = parse_args();
    if let Some(n) = o.fill {
        return run_fill(&o, n);
    }
    if o.checkpoint_now || o.count {
        return run_one_shot(&o);
    }
    let key_dist = match o.dist.as_str() {
        "uniform" => KeyDist::uniform(o.keys),
        "zipf" => KeyDist::zipfian(o.keys, o.theta),
        "scrambled-zipf" => KeyDist::scrambled_zipfian(o.keys, o.theta),
        other => {
            to_stderr!("unknown --dist {other} (uniform|zipf|scrambled-zipf)");
            usage();
        }
    };
    // Mix shapes: point = 25i/25u(del)/50f, range adds
    // 10% width-100 scans, update is insert/delete only; find is a
    // read-only mix (keeps map content fixed — checkpoint smoke uses it
    // to apply load across a kill -9 without changing the key set).
    let mix = match o.mix.as_str() {
        "point" => Mix::new(25, 25, 50, 0, 0),
        "range" => Mix::new(20, 20, 50, 10, 100),
        "update" => Mix::new(50, 50, 0, 0, 0),
        "find" => Mix::new(0, 0, 100, 0, 0),
        other => {
            to_stderr!("unknown --mix {other} (point|range|update|find)");
            usage();
        }
    };

    let map = match NetMap::connect_with_policy(o.addr.as_str(), o.policy()) {
        Ok(m) => m,
        Err(e) => {
            to_stderr!("pnb-load: cannot reach {}: {e}", o.addr);
            return ExitCode::FAILURE;
        }
    };

    let cfg = RunConfig {
        threads: o.threads,
        duration: o.duration,
        key_dist,
        mix,
        prefill_fraction: o.prefill,
        seed: o.seed,
    };
    to_stderr!(
        "pnb-load: {} threads offering {:.0} ops/s of `{}` at {} for {:?}",
        o.threads,
        o.rate,
        o.mix,
        o.addr,
        o.duration
    );
    let m = match run_latency(&map, &cfg, Some(o.rate)) {
        Ok(m) => m,
        Err(e) => {
            to_stderr!("pnb-load: {e}");
            return ExitCode::FAILURE;
        }
    };

    let total_ops: u64 = m.classes.iter().map(|c| c.count).sum();
    println!(
        "{}: offered {:.0} ops/s, achieved {:.0} ops/s over {:.2}s ({total_ops} ops)",
        m.name, o.rate, m.achieved_rate, m.elapsed_secs
    );
    println!("| op | samples | p50_ns | p99_ns | p999_ns | max_ns |");
    println!("|---|---|---|---|---|---|");
    let mut log = JsonLog::new();
    for c in &m.classes {
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            c.class, c.count, c.p50_ns, c.p99_ns, c.p999_ns, c.max_ns
        );
        log.push(
            "pnb-load",
            &[
                ("structure", Val::s(&m.name)),
                ("threads", Val::U(m.threads as u64)),
                ("key_range", Val::U(o.keys)),
                ("mix", Val::s(&o.mix)),
                ("offered_rate", Val::F(o.rate)),
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
    }
    if let Some(path) = &o.json {
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        if let Err(e) = std::fs::write(path, log.render("pnb-load", threads)) {
            to_stderr!("pnb-load: cannot write --json {path}: {e}");
            return ExitCode::FAILURE;
        }
        to_stderr!("pnb-load: wrote {} rows to {path}", log.len());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_numbers_no_load_phase_can_run_with() {
        // Rejected values only: nothing here may reach a driver (the
        // smokes run the accepted defaults end to end).
        let bad: [fn(&mut Opts); 10] = [
            |o| o.rate = 0.0,
            |o| o.rate = -5.0,
            |o| o.rate = f64::NAN,
            |o| o.rate = f64::INFINITY,
            |o| o.threads = 0,
            |o| o.threads = 257,
            |o| o.threads = usize::MAX,
            |o| o.prefill = -0.1,
            |o| o.prefill = 1.5,
            |o| o.keys = 0,
        ];
        for (i, set) in bad.iter().enumerate() {
            let mut o = Opts::default();
            set(&mut o);
            assert!(validate(&o).is_err(), "case {i} accepted");
        }
    }

    #[test]
    fn validate_accepts_the_edges_of_each_range() {
        // `validate` alone: no driver runs, so the 256-thread edge
        // starts no thread.
        let good: [fn(&mut Opts); 6] = [
            |o| o.rate = f64::MIN_POSITIVE,
            |o| o.threads = 1,
            |o| o.threads = 256,
            |o| o.prefill = 0.0,
            |o| o.prefill = 1.0,
            |o| o.keys = 1,
        ];
        assert_eq!(validate(&Opts::default()), Ok(()));
        for (i, set) in good.iter().enumerate() {
            let mut o = Opts::default();
            set(&mut o);
            assert_eq!(validate(&o), Ok(()), "case {i} rejected");
        }
    }
}
