//! Measurement arithmetic: a fixed-size log-linear latency histogram,
//! percentiles, medians, and the quartile spread the acceptance rule
//! uses.
//!
//! A histogram (not a sample vector) so that recording costs the same
//! memory at 500 req/s and at 500 k ops/s: `peak_rss_mb` must not grow
//! because the system got faster.

/// Sub-buckets per octave: relative bucket width ≤ 1/64.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` get one exact bucket each; each octave above
/// adds `SUB` more, up to the top bit of a `u64`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Log-linear histogram over nanosecond values, whole `u64` range.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = octave - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB - 1);
    (octave - SUB_BITS + 1) as usize * SUB + sub
}

/// Lowest value of bucket `i` and the bucket's width.
fn bucket_range(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = (i / SUB - 1) as u32;
    (((SUB + i % SUB) as u64) << shift, 1u64 << shift)
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        let c = &mut self.counts[bucket_of(v)];
        *c = c.saturating_add(1);
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `p`-quantile (`0 < p <= 1`), placed inside its
    /// bucket by the rank's position among the bucket's samples — so
    /// the result moves continuously with the data instead of snapping
    /// to bucket edges. `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if before + c >= rank {
                let (lo, width) = bucket_range(i);
                let within = (rank - before) as f64 - 0.5;
                return Some(lo as f64 + width as f64 * within / c as f64);
            }
            before += c;
        }
        unreachable!("rank <= total")
    }
}

/// Nearest-rank quantile of an ascending slice: the oracle the
/// histogram is tested against.
#[cfg(test)]
pub fn quantile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method) — the acceptance rule's definition of spread. Needs two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SplitMix64;

    #[test]
    fn buckets_tile_the_range() {
        let mut expect = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bucket_range(i);
            assert_eq!(
                lo,
                expect,
                "bucket {i} starts where {} ended",
                i.wrapping_sub(1)
            );
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + (width - 1)), i);
            expect = lo.wrapping_add(width);
        }
        assert_eq!(expect, 0, "the last bucket ends at 2^64");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_matches_the_sorted_oracle() {
        let mut rng = SplitMix64::new(5);
        let mut h = Histogram::default();
        // Latency-shaped: a body around 500 µs and a heavy tail.
        let mut samples: Vec<u64> = (0..20_000)
            .map(|_| {
                let body = 400_000 + rng.below(200_000);
                if rng.below(50) == 0 {
                    body * (2 + rng.below(40))
                } else {
                    body
                }
            })
            .collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for p in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = quantile_sorted(&samples, p) as f64;
            let got = h.quantile(p).unwrap();
            assert!(
                (got - want).abs() <= want / SUB as f64,
                "p{p}: histogram {got}, oracle {want}"
            );
        }
        // Below 2*SUB every value has its own bucket: exact to the
        // half-unit the in-bucket placement adds.
        let mut small = Histogram::default();
        let vals: Vec<u64> = (0..100).map(|i| (i * 7) % 101).collect();
        for &s in &vals {
            small.record(s);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for p in [0.1, 0.5, 0.99] {
            let want = quantile_sorted(&sorted, p) as f64;
            assert!((small.quantile(p).unwrap() - want).abs() < 1.0);
        }
        assert_eq!(Histogram::default().quantile(0.5), None);
    }

    #[test]
    fn merge_is_the_union() {
        let (mut a, mut b, mut both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in 0..1000u64 {
            let x = v * v;
            if v % 2 == 0 { &mut a } else { &mut b }.record(x);
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.quantile(0.9), both.quantile(0.9));
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        // Nine steady windows and one in which the box stalled.
        let mut windows = vec![84_000.0; 9];
        windows.push(1_600.0);
        assert_eq!(median(&windows), 84_000.0);
        let mean = windows.iter().sum::<f64>() / windows.len() as f64;
        assert!(mean < 80_000.0, "the mean does not ignore it");
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
