//! Regenerate the experiment tables: the paper's evaluation (E1–E8) and
//! the design ablations (E8r collector, E9 arena, E10 shard count, E13
//! batch size).
//!
//! ```text
//! cargo run --release -p pnbbst-bench --bin experiments            # full sweep
//! cargo run --release -p pnbbst-bench --bin experiments -- --quick # CI-sized
//! cargo run --release -p pnbbst-bench --bin experiments -- e1 e5   # subset
//! cargo run --release -p pnbbst-bench --bin experiments -- e7 e9   # counters
//! cargo run --release -p pnbbst-bench --bin experiments -- e10  # shard-count sweep
//! cargo run --release -p pnbbst-bench --bin experiments -- --quick --json BENCH_quick.json
//! ```
//!
//! Markdown goes to stdout (pipe into EXPERIMENTS.md material); progress
//! goes to stderr; `--json <path>` additionally writes every measurement
//! as a flat machine-readable row so CI can record `BENCH_*.json` perf
//! trajectories across PRs. A bad argument exits 2 before any
//! experiment runs.

use pnbbst_bench::experiments::{parse_args, ExpOpts, JsonLog};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let mode = if args.quick { "quick" } else { "full" };
    let opts = ExpOpts { quick: args.quick };
    let hw_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("## Experiment results ({mode} mode, {hw_threads} hardware threads)\n");

    let mut log = JsonLog::new();
    for spec in &args.run {
        eprintln!("=== running {} ===", spec.name);
        println!("{}", spec.run(&opts, &mut log));
    }

    if let Some(path) = args.json {
        if let Err(e) = std::fs::write(&path, log.render(mode, hw_threads)) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} JSON rows to {path}", log.len());
    }
}
