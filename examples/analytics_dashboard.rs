//! Analytics over a live index — the paper's motivating big-data
//! scenario (§1: "shared in-memory tree-based data indices must be
//! created for fast data retrieval and useful data analytics").
//!
//! Ingest threads continuously index "orders" keyed by timestamp while
//! dashboard threads concurrently compute per-window aggregates with
//! wait-free range queries. Every aggregate is computed from one
//! linearizable scan, so the dashboard never shows a torn window — and
//! the scans never block ingest.
//!
//! ```sh
//! cargo run --release --example analytics_dashboard
//! ```

use pnbbst_repro::PnbBst;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// An indexed order: key = logical timestamp, value = cents.
type OrderIndex = PnbBst<u64, u64>;

const INGEST_THREADS: u64 = 2;
const WINDOW: u64 = 1_000; // dashboard window width (logical time)
const RUN_MS: u64 = 800;

fn main() {
    let index: Arc<OrderIndex> = Arc::new(PnbBst::new());
    let clock = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // --- Ingest: each thread appends orders at interleaved timestamps.
    let ingest: Vec<_> = (0..INGEST_THREADS)
        .map(|t| {
            let index = Arc::clone(&index);
            let clock = Arc::clone(&clock);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                // Ingest is the hot path: one pinned session, refreshed
                // every batch, instead of a guard pin per order.
                let mut session = index.pin();
                let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(t + 1);
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let ts = clock.fetch_add(1, Ordering::Relaxed);
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let cents = 100 + (x >> 33) % 10_000;
                    session.insert(ts, cents);
                    n += 1;
                    if n.is_multiple_of(64) {
                        session.refresh();
                    }
                }
                n
            })
        })
        .collect();

    // --- Dashboard: sliding-window aggregates via wait-free scans.
    let dashboard = {
        let index = Arc::clone(&index);
        let clock = Arc::clone(&clock);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut reports = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let now = clock.load(Ordering::Relaxed);
                let lo = now.saturating_sub(WINDOW);
                // One linearizable, wait-free lazy scan per report —
                // the aggregate folds the iterator without ever
                // materializing the window.
                let session = index.pin();
                let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
                for (_, cents) in session.range(lo..=now) {
                    count += 1;
                    sum += cents;
                    max = max.max(cents);
                }
                drop(session);
                if count > 0 && reports.is_multiple_of(50) {
                    println!(
                        "[dashboard] window [{lo}, {now}]: {count} orders, avg {:.2}¢, max {max}¢",
                        sum as f64 / count as f64
                    );
                }
                reports += 1;
            }
            reports
        })
    };

    // --- Compliance: periodic full snapshots for point-in-time audit.
    let audit = {
        let index = Arc::clone(&index);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut audits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = index.snapshot();
                // Everything read from `snap` is mutually consistent,
                // however long the audit takes.
                let total = snap.len();
                let first = snap.to_vec().first().map(|(k, _)| *k);
                if audits.is_multiple_of(10) {
                    println!(
                        "[audit] snapshot@phase {}: {total} orders, oldest ts {first:?}",
                        snap.seq()
                    );
                }
                audits += 1;
                drop(snap);
                thread::sleep(Duration::from_millis(20));
            }
            audits
        })
    };

    thread::sleep(Duration::from_millis(RUN_MS));
    stop.store(true, Ordering::Relaxed);

    let ingested: u64 = ingest.into_iter().map(|h| h.join().unwrap()).sum();
    let reports = dashboard.join().unwrap();
    let audits = audit.join().unwrap();

    let final_size = index.snapshot().len();
    println!("---");
    println!("ingested {ingested} orders, indexed size {final_size}");
    println!("dashboard produced {reports} aggregate reports (wait-free scans)");
    println!("audit took {audits} full snapshots");
    assert_eq!(
        final_size as u64, ingested,
        "every ingested order is indexed"
    );
    println!("analytics_dashboard OK");
}
