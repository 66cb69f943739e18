//! The names: workloads, end-to-end metrics, per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! at the bottom of this file fails when the two drift apart. Later
//! changes quote these names in their claims, so they are fixed here
//! and nowhere else in the harness.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads `BENCHMARK.json` names: the driver runs each of them
/// 22 times inside 57 minutes, which pays for four runs of 22 s and not
/// for six.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mem-point",
        why: "in-process point mix, 2 threads, 2^20 keys (larger than cache): crates/core does the work, crates/server none - bypass for codec and I/O changes",
    },
    Workload {
        name: "mem-scan",
        why: "in-process updater beside a wait-free scanner, 2^18 keys (larger than cache): the paper's headline; scan gains that tax updates show as one metric up, one down",
    },
    Workload {
        name: "net-lowrate",
        why: "open loop, Poisson 500 req/s, 1 connection: worker idle before every request, so wake-up in server.rs/conn.rs is ~99 % of latency; a core change must not move it",
    },
    Workload {
        name: "net-batch",
        why: "1 connection, 32 Batch frames x 64 sub-ops in flight, 2^20 keys: tree work keeps the worker busy, I/O amortised 64x - bypass for I/O, target for batch changes",
    },
];

/// Workloads the harness runs by name (and with every other when no
/// `--workload` is given) but `BENCHMARK.json` leaves out: today both
/// measure the worker's idle sleep a second and a third time, which
/// `net-lowrate` already prices. They become the codec's workloads once
/// the worker stops sleeping.
pub const EXTRA_WORKLOADS: [Workload; 2] = [
    Workload {
        name: "net-pipeline",
        why: "1 connection, 64 singleton requests in flight: smallest frame, per-frame cost (syscalls, FrameBuf, encode/decode, worker pass) dominates",
    },
    Workload {
        name: "net-scan",
        why: "1 connection, 4 Range requests in flight, ~800 entries (13 KB) per response: largest message, payload copies and MergeRange dominate - the codec used the opposite way",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "build + prefill, and checkpoint + restore + bind + connect where a server is used; median of 3 set-ups in the run",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.20,
        what: "completed, check-passing operations per second (a scan is one operation, Batch sub-ops count one each); median 1-s window",
    },
    EndToEnd {
        name: "keys_per_s",
        unit: "keys/s",
        better: "higher",
        bound: 0.20,
        what: "keys read, written or returned per second (a point operation is one key, a scan its entries); median 1-s window",
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: "lower",
        bound: 0.20,
        what: "latency of the workload's request unit (served: request or Batch frame; in-process: a scan, or a burst of 16 calls), from its due time in the open loop; median over windows of the window median",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        what: "VmHWM of the process (harness + in-process server) when the measured run ends: tree, versioned nodes, Info records, sealed bags",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric this one should move, and where.
    pub feeds: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    feeds: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        feeds,
    }
}

pub const PER_LAYER: [PerLayer; 54] = [
    // The two rates `mem-scan` trades against each other, under the
    // names the issue gave them as end-to-end metrics (not every
    // workload has a scanner or an updater, and every end-to-end metric
    // must be reported by every workload).
    layer(
        "update_ops_per_s",
        "ops/s",
        "higher",
        "ops_per_s on mem-scan",
    ),
    layer(
        "scan_keys_per_s",
        "keys/s",
        "higher",
        "keys_per_s on mem-scan, net-scan",
    ),
    // The tail the issue asked for end to end. Every workload must
    // report every end-to-end metric, and over ten runs of unchanged
    // code the median window's p99 spread 8-14 % on the served workloads
    // and its p95 up to 12 % on mem-scan (a slow mode that comes and goes
    // over seconds, and the median window flips between the two), so by
    // the issue's own rule both are reported here and carry no bound.
    layer(
        "p95_us",
        "us",
        "lower",
        "p50_us on every workload (the same latencies, further out)",
    ),
    layer(
        "p99_us",
        "us",
        "lower",
        "p50_us on every workload (the same latencies, further out)",
    ),
    layer(
        "core.handle.get_ns",
        "ns",
        "lower",
        "ops_per_s on mem-point, net-batch",
    ),
    layer(
        "core.handle.insert_ns",
        "ns",
        "lower",
        "ops_per_s on mem-point, net-batch",
    ),
    layer(
        "core.handle.delete_ns",
        "ns",
        "lower",
        "ops_per_s on mem-point, net-batch",
    ),
    layer(
        "core.handle.pin_ns",
        "ns",
        "lower",
        "ops_per_s on mem-point",
    ),
    layer(
        "core.handle.refresh_ns",
        "ns",
        "lower",
        "ops_per_s on mem-point",
    ),
    layer(
        "core.handle.attempts_per_update",
        "ratio",
        "lower",
        "ops_per_s on mem-scan",
    ),
    layer(
        "core.handle.helps",
        "count",
        "lower",
        "ops_per_s on mem-scan",
    ),
    layer(
        "core.handle.cas_failures",
        "count",
        "lower",
        "ops_per_s on mem-scan",
    ),
    layer(
        "core.handle.validation_failures",
        "count",
        "lower",
        "ops_per_s on mem-scan",
    ),
    layer(
        "core.handle.handshake_aborts",
        "count",
        "lower",
        "ops_per_s on mem-scan",
    ),
    layer("core.scan.open_ns", "ns", "lower", "keys_per_s on mem-scan"),
    layer(
        "core.scan.ns_per_key",
        "ns",
        "lower",
        "keys_per_s on mem-scan, net-scan",
    ),
    layer(
        "core.scan.helps",
        "count",
        "lower",
        "keys_per_s on mem-scan",
    ),
    layer(
        "core.batch.ns_per_op",
        "ns",
        "lower",
        "ops_per_s on net-batch",
    ),
    layer(
        "core.batch.ops_per_descent",
        "ratio",
        "higher",
        "ops_per_s on net-batch",
    ),
    layer(
        "core.arena.hit_ratio",
        "ratio",
        "higher",
        "ops_per_s, peak_rss_mb on mem-point",
    ),
    layer(
        "core.arena.recycled_mb",
        "MiB",
        "higher",
        "peak_rss_mb on mem-point",
    ),
    layer(
        "epoch.items_freed",
        "count",
        "higher",
        "peak_rss_mb on mem-scan, mem-point",
    ),
    layer(
        "epoch.bags_pending",
        "count",
        "lower",
        "peak_rss_mb on mem-scan, mem-point",
    ),
    layer(
        "epoch.advance_success_ratio",
        "ratio",
        "higher",
        "peak_rss_mb on mem-scan",
    ),
    layer(
        "core.persist.checkpoint_ms",
        "ms",
        "lower",
        "setup_s on net-batch",
    ),
    layer(
        "core.persist.restore_ms",
        "ms",
        "lower",
        "setup_s on net-batch",
    ),
    layer(
        "core.persist.bytes_per_entry",
        "B",
        "lower",
        "setup_s on net-batch",
    ),
    layer(
        "shard.session.self_ns",
        "ns",
        "lower",
        "ops_per_s on mem-point",
    ),
    layer(
        "shard.session.refresh_ns",
        "ns",
        "lower",
        "ops_per_s on mem-point",
    ),
    layer(
        "shard.merge.self_ns_per_key",
        "ns",
        "lower",
        "keys_per_s on mem-scan, net-scan",
    ),
    layer(
        "shard.load_imbalance",
        "ratio",
        "lower",
        "ops_per_s on mem-point",
    ),
    layer(
        "server.handler.self_ns",
        "ns",
        "lower",
        "ops_per_s on net-pipeline, net-batch",
    ),
    layer(
        "server.codec.encode_req_ns",
        "ns",
        "lower",
        "ops_per_s on net-pipeline",
    ),
    layer(
        "server.codec.frame_ns",
        "ns",
        "lower",
        "ops_per_s on net-pipeline",
    ),
    layer(
        "server.codec.decode_req_ns",
        "ns",
        "lower",
        "ops_per_s on net-pipeline",
    ),
    layer(
        "server.codec.encode_resp_ns",
        "ns",
        "lower",
        "ops_per_s on net-pipeline",
    ),
    layer(
        "server.codec.decode_resp_ns",
        "ns",
        "lower",
        "ops_per_s on net-pipeline",
    ),
    layer(
        "server.codec.range_ns_per_entry",
        "ns",
        "lower",
        "keys_per_s on net-scan",
    ),
    layer(
        "server.codec.batch_ns_per_subop",
        "ns",
        "lower",
        "ops_per_s on net-batch",
    ),
    layer(
        "server.codec.allocs_per_req",
        "count",
        "lower",
        "ops_per_s on net-pipeline",
    ),
    layer(
        "server.codec.alloc_bytes_per_entry",
        "B",
        "lower",
        "keys_per_s on net-scan",
    ),
    layer(
        "server.client.call_ns",
        "ns",
        "lower",
        "p50_us on net-lowrate",
    ),
    layer(
        "server.io.wait_ns",
        "ns",
        "lower",
        "p50_us on net-lowrate (and its p95_us, p99_us)",
    ),
    layer(
        "server.io.cpu_busy_frac",
        "ratio",
        "higher",
        "ops_per_s on net-batch (must be ~1 before a fall is called cost)",
    ),
    layer(
        "server.client.send_ns",
        "ns",
        "lower",
        "ops_per_s on net-pipeline",
    ),
    layer(
        "server.client.recv_wait_ns",
        "ns",
        "lower",
        "ops_per_s on net-pipeline",
    ),
    layer(
        "server.retry.self_ns",
        "ns",
        "lower",
        "p50_us on net-lowrate",
    ),
    layer(
        "server.stats.requests",
        "count",
        "higher",
        "failure share on net-*",
    ),
    layer(
        "server.stats.shed",
        "count",
        "lower",
        "failure share on net-*",
    ),
    layer(
        "server.stats.protocol_errors",
        "count",
        "lower",
        "failure share on net-*",
    ),
    layer(
        "server.stats.peak_conn_pending_bytes",
        "B",
        "lower",
        "keys_per_s on net-scan (write-pause at 256 KiB)",
    ),
    layer(
        "gen.late_frac",
        "ratio",
        "lower",
        "validity of p50_us on net-lowrate (and its p95_us, p99_us)",
    ),
    layer(
        "gen.max_late_us",
        "us",
        "lower",
        "validity of p50_us on net-lowrate (and its p95_us, p99_us)",
    ),
    layer(
        "trace.overhead_frac",
        "ratio",
        "lower",
        "none: 1 - traced / untraced ops_per_s",
    ),
];

/// The driver's workloads, then the extra ones.
pub fn all_workloads() -> impl Iterator<Item = &'static Workload> {
    WORKLOADS.iter().chain(&EXTRA_WORKLOADS)
}

pub fn workload_names() -> Vec<&'static str> {
    all_workloads().map(|w| w.name).collect()
}

/// What `--list` prints.
pub fn render_list() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "workloads:").unwrap();
    for w in &WORKLOADS {
        writeln!(out, "  {:<14} {}", w.name, w.why).unwrap();
    }
    writeln!(out, "extra_workloads (not in BENCHMARK.json):").unwrap();
    for w in &EXTRA_WORKLOADS {
        writeln!(out, "  {:<14} {}", w.name, w.why).unwrap();
    }
    writeln!(out, "end_to_end:").unwrap();
    for m in &END_TO_END {
        writeln!(
            out,
            "  {:<14} [{}] {} is better, bound {}: {}",
            m.name, m.unit, m.better, m.bound, m.what
        )
        .unwrap();
    }
    writeln!(out, "per_layer:").unwrap();
    for m in &PER_LAYER {
        writeln!(
            out,
            "  {:<40} [{}] {} is better; should move {}",
            m.name, m.unit, m.better, m.feeds
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn names_in(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json has `{key}`"))
            .as_array()
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    /// The names `--list` printed under `section`.
    fn listed(section: &str) -> Vec<String> {
        render_list()
            .lines()
            .skip_while(|l| *l != format!("{section}:"))
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .map(|l| l.split_whitespace().next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn list_and_benchmark_json_name_the_same_things() {
        let file = benchmark_json();
        assert_eq!(listed("workloads"), names_in(&file, "workloads"));
        assert_eq!(listed("end_to_end"), names_in(&file, "end_to_end"));
        assert_eq!(listed("per_layer"), names_in(&file, "per_layer"));
    }

    #[test]
    fn units_directions_and_bounds_agree_with_benchmark_json() {
        let file = benchmark_json();
        for (m, j) in END_TO_END
            .iter()
            .zip(file.get("end_to_end").unwrap().as_array())
        {
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                j.get("better").unwrap().as_str(),
                Some(m.better),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("bound").unwrap().as_f64(),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        for (m, j) in PER_LAYER
            .iter()
            .zip(file.get("per_layer").unwrap().as_array())
        {
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                j.get("better").unwrap().as_str(),
                Some(m.better),
                "{}",
                m.name
            );
        }
        for (w, j) in WORKLOADS
            .iter()
            .zip(file.get("workloads").unwrap().as_array())
        {
            assert_eq!(j.get("why").unwrap().as_str(), Some(w.why), "{}", w.name);
        }
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut all: Vec<&str> = workload_names();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &all {
            assert!(ok(n, "_.-", 64), "name `{n}`");
            assert!(
                n.chars().next().unwrap().is_ascii_alphanumeric(),
                "name `{n}`"
            );
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(ok(unit, "_/%.-", 16), "unit `{unit}`");
        }
        for w in all_workloads() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == "lower"
            && m.bound == END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max)));
    }
}
