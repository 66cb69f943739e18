//! Distance-based outlier detection over a live sensor index — the
//! paper cites range queries for exactly this workload (Knorr, Ng &
//! Tucakov, "Distance-based outliers", VLDB J. 2000).
//!
//! A reading `v` is a DB(ε, π)-outlier if fewer than `π` of the indexed
//! readings fall within `[v - ε, v + ε]`. With a PNB-BST keyed by
//! reading value, that neighbourhood count is a single wait-free range
//! query — even while sensor threads keep inserting and an evictor
//! deletes expired readings.
//!
//! ```sh
//! cargo run --release --example sensor_outliers
//! ```

use pnbbst_repro::PnbBst;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Index keyed by scaled sensor value; payload = sensor id.
type ValueIndex = PnbBst<u64, u32>;

const EPS: u64 = 40; // neighbourhood half-width ε
const PI: usize = 3; // density threshold π
const CENTER: u64 = 5_000;

fn main() {
    let index: Arc<ValueIndex> = Arc::new(PnbBst::new());
    let stop = Arc::new(AtomicBool::new(false));

    // --- Sensors: cluster tightly around CENTER with occasional spikes.
    let sensors: Vec<_> = (0..2u32)
        .map(|id| {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                // One pinned session per sensor thread: ingest is the
                // hot path, so the epoch guard is amortized.
                let mut session = index.pin();
                let mut x = 0xC0FFEEu64.wrapping_add(id as u64);
                let mut produced = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let noise = (x >> 33) % 200;
                    // 1-in-64 readings is a wild spike (a real outlier).
                    let value = if (x >> 20).is_multiple_of(64) {
                        CENTER + 2_000 + (x >> 40) % 1_000
                    } else {
                        CENTER + noise
                    };
                    // Perturb equal values so distinct readings coexist
                    // (set semantics).
                    let key = value * 16 + (x % 16);
                    session.insert(key, id);
                    produced += 1;
                    if produced.is_multiple_of(64) {
                        session.refresh();
                    }
                }
                produced
            })
        })
        .collect();

    // --- Evictor: keeps the index from growing without bound by
    // deleting random old readings (delete path under churn).
    let evictor = {
        let index = Arc::clone(&index);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut evicted = 0u64;
            let mut session = index.pin();
            while !stop.load(Ordering::Relaxed) {
                if session.snapshot().len() > 4_000 {
                    // Lazily walk a band and delete every other key —
                    // no victim list is ever materialized: the Range
                    // iterator reads a closed phase, so deleting through
                    // the same session mid-iteration is safe.
                    let mut parity = false;
                    for (k, _) in session.range(0..=CENTER * 16) {
                        parity = !parity;
                        if parity && session.delete(&k) {
                            evicted += 1;
                        }
                    }
                    session.refresh();
                } else {
                    thread::sleep(Duration::from_millis(5));
                }
            }
            evicted
        })
    };

    // --- Detector: classify fresh readings by neighbourhood density.
    let detector = {
        let index = Arc::clone(&index);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut outliers = 0u64;
            let mut inliers = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Take a snapshot so candidate selection and the density
                // queries see one consistent world.
                let snap = index.snapshot();
                // Lazy candidate sampling: `take(16)` touches O(depth +
                // 16) nodes, not the whole spike band.
                let sample: Vec<u64> = snap
                    .range((CENTER + 1_500) * 16..=u64::MAX / 2)
                    .take(16)
                    .map(|(k, _)| k)
                    .collect();
                for key in sample {
                    let lo = key.saturating_sub(EPS * 16);
                    let hi = key.saturating_add(EPS * 16);
                    let density = snap.range(lo..=hi).count();
                    if density < PI {
                        outliers += 1;
                    } else {
                        inliers += 1;
                    }
                }
                drop(snap);
                thread::sleep(Duration::from_millis(10));
            }
            (outliers, inliers)
        })
    };

    thread::sleep(Duration::from_millis(700));
    stop.store(true, Ordering::Relaxed);

    let produced: u64 = sensors.into_iter().map(|h| h.join().unwrap()).sum();
    let evicted = evictor.join().unwrap();
    let (outliers, inliers) = detector.join().unwrap();

    println!("readings produced: {produced}, evicted: {evicted}");
    println!("spike classifications: {outliers} outliers, {inliers} dense");
    println!("index size at shutdown: {}", index.snapshot().len());
    // Sanity: the cluster around CENTER must be dense.
    let cluster = index.pin().range(CENTER * 16..=(CENTER + 200) * 16).count();
    println!("cluster density near center: {cluster}");
    println!("sensor_outliers OK");
}
