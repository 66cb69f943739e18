//! Per-operation latency measurement (tail-latency lens).
//!
//! Throughput hides exactly the effect wait-freedom exists to produce:
//! *bounded individual operation time*. A lock-based map can post great
//! averages while a scan stalls every writer behind it (and vice versa);
//! a wait-free scan's p99 stays flat no matter what updaters do. This
//! module provides a closed-loop driver that records per-operation-type
//! latency percentiles under a mixed load — the E8 extension
//! experiment. The driver records into [`HdrHistogram`] (~1.6%
//! relative error); for latency-*honest* tails under a fixed offered
//! rate, use [`crate::run_open_loop`], which also charges queueing
//! delay instead of silently omitting it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::dist::KeyDist;
use crate::histogram::HdrHistogram;
use crate::mix::{Mix, Op};
use crate::runner::prefill;
use crate::schedule::CLASS_LABELS;
use crate::seed;
use crate::{CapabilityError, ConcurrentMap, MapSession};

/// Latency percentiles for each operation class.
#[derive(Clone, Debug, Serialize)]
pub struct LatencyReport {
    /// Structure name.
    pub name: String,
    /// Worker thread count.
    pub threads: usize,
    /// Samples per class: (class, count, p50 ns, p99 ns, p999 ns).
    pub classes: Vec<(String, u64, u64, u64, u64)>,
}

/// Run a mixed workload for `duration` on `threads` workers, recording
/// per-class operation latencies. The map is prefilled to 50%. The mix
/// is checked against the structure's capabilities before anything runs.
pub fn run_latency<M: ConcurrentMap>(
    map: &M,
    threads: usize,
    duration: Duration,
    key_dist: &KeyDist,
    mix: Mix,
    seed: u64,
) -> Result<LatencyReport, CapabilityError> {
    map.capabilities().check(&mix, map.name())?;
    prefill(map, key_dist.key_space(), 0.5, seed);
    let stop = AtomicBool::new(false);
    let start_line = std::sync::Barrier::new(threads + 1);

    // One histogram per class: ins/ups/del/find/scan.
    let per_thread: Vec<[HdrHistogram; 5]> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let stop = &stop;
                let start_line = &start_line;
                let dist = key_dist.clone();
                let wseed = seed::worker_seed(seed, tid as u64);
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(wseed);
                    let mut hists: [HdrHistogram; 5] = std::array::from_fn(|_| HdrHistogram::new());
                    let mut session = map.pin();
                    start_line.wait();
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..32 {
                            let k = dist.sample(&mut rng);
                            let op = mix.sample(&mut rng);
                            let t0 = Instant::now();
                            let class = match op {
                                Op::Insert => {
                                    std::hint::black_box(session.insert(k, k));
                                    0
                                }
                                Op::Upsert => {
                                    std::hint::black_box(session.upsert(k, k));
                                    1
                                }
                                Op::Delete => {
                                    std::hint::black_box(session.delete(&k));
                                    2
                                }
                                Op::Find => {
                                    std::hint::black_box(session.get(&k));
                                    3
                                }
                                Op::RangeScan => {
                                    let hi = k.saturating_add(mix.range_width.saturating_sub(1));
                                    std::hint::black_box(session.range_scan(&k, &hi));
                                    4
                                }
                            };
                            hists[class].record_duration(t0.elapsed());
                        }
                        // Outside the timing windows: reclamation catch-up.
                        session.refresh();
                    }
                    hists
                })
            })
            .collect();
        start_line.wait();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut merged: [HdrHistogram; 5] = std::array::from_fn(|_| HdrHistogram::new());
    for hs in &per_thread {
        for (m, h) in merged.iter_mut().zip(hs.iter()) {
            m.merge(h);
        }
    }
    let classes = merged
        .iter()
        .zip(CLASS_LABELS)
        .filter(|(h, _)| !h.is_empty())
        .map(|(h, label)| {
            let (p50, p99, p999) = h.summary();
            (label.to_string(), h.len(), p50, p99, p999)
        })
        .collect();
    Ok(LatencyReport {
        name: map.name().to_string(),
        threads,
        classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_driver_produces_all_classes() {
        use crate::Caps;
        use std::collections::BTreeMap;
        use std::sync::Mutex;
        struct M(Mutex<BTreeMap<u64, u64>>);
        struct S<'a>(&'a M);
        impl MapSession for S<'_> {
            fn insert(&mut self, k: u64, v: u64) -> bool {
                self.0 .0.lock().unwrap().insert(k, v).is_none()
            }
            fn upsert(&mut self, k: u64, v: u64) -> Option<u64> {
                self.0 .0.lock().unwrap().insert(k, v)
            }
            fn delete(&mut self, k: &u64) -> bool {
                self.0 .0.lock().unwrap().remove(k).is_some()
            }
            fn get(&mut self, k: &u64) -> Option<u64> {
                self.0 .0.lock().unwrap().get(k).copied()
            }
            fn range_scan(&mut self, lo: &u64, hi: &u64) -> usize {
                self.0 .0.lock().unwrap().range(*lo..=*hi).count()
            }
        }
        impl ConcurrentMap for M {
            type Session<'a> = S<'a>;
            fn pin(&self) -> S<'_> {
                S(self)
            }
            fn capabilities(&self) -> Caps {
                Caps::all()
            }
            fn name(&self) -> &'static str {
                "test-map"
            }
        }
        let m = M(Mutex::new(BTreeMap::new()));
        let rep = run_latency(
            &m,
            2,
            Duration::from_millis(60),
            &KeyDist::uniform(512),
            Mix::with_ranges(16),
            9,
        )
        .expect("caps cover the mix");
        assert_eq!(rep.threads, 2);
        assert_eq!(rep.classes.len(), 4, "the four mixed classes sampled");
        for (label, count, p50, p99, p999) in &rep.classes {
            assert!(*count > 0, "{label} unsampled");
            assert!(p50 <= p99 && p99 <= p999, "{label} percentiles ordered");
        }
    }
}
