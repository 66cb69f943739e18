//! HDR-style log-linear latency histogram.
//!
//! One-octave (power-of-two) buckets would be cheaper, but their
//! resolution is a factor of two, so p99 and p999 frequently collapse
//! into the same bucket and any reported percentile can overestimate by
//! up to 2×. Every driver records here instead: the classic HdrHistogram
//! bucket layout (Gil Tene's design, as used by `hdrhistogram` and
//! cql-stress) — logarithmic *buckets*, each subdivided into 64 linear
//! *sub-buckets* — giving a guaranteed relative error of at most 1/64
//! (≈1.6%, i.e. ~2 significant digits) at every magnitude from 1 ns to
//! beyond 2⁶³ ns, in a fixed 3 776-slot table (~30 KiB).
//!
//! Recording is an index computation plus one increment, cheap enough
//! for per-operation use on a measured hot path. Each worker thread
//! records into its own histograms (no shared cache lines on the hot
//! path), and the driver merges them once the workers have joined.

/// log₂ of the linear sub-bucket half count (64 sub-buckets of
/// distinct resolution per bucket).
const SUB_HALF_MAGNITUDE: u32 = 6;
/// Sub-buckets whose resolution is unique to their bucket (the lower 64
/// of each bucket's 128 overlap the previous bucket's range).
const SUB_HALF_COUNT: usize = 1 << SUB_HALF_MAGNITUDE; // 64
/// Total linear subdivisions of the first bucket.
const SUB_COUNT: usize = SUB_HALF_COUNT * 2; // 128
/// Mask selecting a value's sub-bucket within bucket 0.
const SUB_MASK: u64 = (SUB_COUNT - 1) as u64; // 127
/// Number of power-of-two buckets needed to span all of `u64`.
const BUCKET_COUNT: usize = 64 - SUB_HALF_MAGNITUDE as usize - 1; // 57
/// Backing-array length: bucket 0 contributes 128 slots, each further
/// bucket 64 more; bucket 57 tops out above 2⁶³ so every `u64` indexes
/// in range.
const COUNTS_LEN: usize = (BUCKET_COUNT + 2) * SUB_HALF_COUNT; // 3776

/// An HDR-style log-linear histogram of nanosecond values.
///
/// Values of any `u64` magnitude are recorded with ≤1/64 (~1.6%)
/// relative error. Percentiles report the *highest value equivalent* to
/// the bucket holding the requested rank (the HdrHistogram convention),
/// capped at the true recorded maximum.
#[derive(Clone, Debug)]
pub struct HdrHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for HdrHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl HdrHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        HdrHistogram {
            counts: vec![0; COUNTS_LEN],
            total: 0,
            max: 0,
        }
    }

    /// Index of the slot counting `v`.
    #[inline]
    fn index_for(v: u64) -> usize {
        // Bucket = how far v's magnitude exceeds the linear range of
        // bucket 0 (the `| SUB_MASK` makes small values land in
        // bucket 0 without a branch).
        let pow = 63 - (v | SUB_MASK).leading_zeros();
        let bucket = (pow - SUB_HALF_MAGNITUDE) as usize;
        // Sub-bucket: the top 7 significant bits of v. For bucket 0 this
        // is v itself (0..128); for bucket b it lands in 64..128.
        let sub = (v >> bucket) as usize;
        bucket * SUB_HALF_COUNT + sub
    }

    /// Lowest and highest value mapping to slot `idx` (the slot's
    /// equivalent range).
    #[inline]
    fn range_for(idx: usize) -> (u64, u64) {
        let (bucket, sub) = if idx < SUB_COUNT {
            (0usize, idx)
        } else {
            let bucket = idx / SUB_HALF_COUNT - 1;
            (bucket, idx - bucket * SUB_HALF_COUNT)
        };
        let lo = (sub as u64) << bucket;
        // Add (size - 1), not (size) - 1: the top slot's `lo + size` is
        // exactly 2^64 and would overflow before the subtraction.
        let hi = lo + ((1u64 << bucket) - 1);
        (lo, hi)
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index_for(v)] += 1;
        self.total += 1;
        if v > self.max {
            self.max = v;
        }
    }

    /// Record a [`std::time::Duration`] as nanoseconds (saturating).
    #[inline]
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the histogram holds no samples.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Merge `other` into `self`.
    pub fn merge(&mut self, other: &HdrHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q ∈ [0, 1]`, or `None` if empty.
    ///
    /// Returns the highest value equivalent to the slot containing the
    /// `⌈q·total⌉`-th smallest sample, capped at the recorded maximum —
    /// so the result is never below the true quantile and overshoots it
    /// by at most 1/64 (~1.6%).
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((self.total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = Self::range_for(idx);
                return Some(hi.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Convenience: (p50, p99, p999) in the recorded unit.
    pub fn summary(&self) -> (u64, u64, u64) {
        (
            self.value_at_quantile(0.50).unwrap_or(0),
            self.value_at_quantile(0.99).unwrap_or(0),
            self.value_at_quantile(0.999).unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn index_and_range_agree_across_magnitudes() {
        // Every probed value must land in a slot whose equivalent range
        // contains it, and slot ranges must tile without gaps.
        for shift in 0..63 {
            for near in [0u64, 1, 2, 63, 64, 127] {
                let v = (1u64 << shift).saturating_add(near);
                let idx = HdrHistogram::index_for(v);
                let (lo, hi) = HdrHistogram::range_for(idx);
                assert!(lo <= v && v <= hi, "v={v} idx={idx} range=({lo},{hi})");
            }
        }
        assert!(HdrHistogram::index_for(u64::MAX) < COUNTS_LEN);
        // Tiling: consecutive slots abut exactly.
        for idx in 0..COUNTS_LEN - 1 {
            let (_, hi) = HdrHistogram::range_for(idx);
            let (lo_next, _) = HdrHistogram::range_for(idx + 1);
            if lo_next > 0 {
                assert_eq!(hi + 1, lo_next, "gap between slots {idx} and {}", idx + 1);
            }
        }
    }

    #[test]
    fn low_values_are_exact() {
        // Bucket 0 is fully linear: values below 128 are recorded with
        // zero error.
        let mut h = HdrHistogram::new();
        for v in 0..128u64 {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.0), Some(0));
        assert_eq!(h.value_at_quantile(1.0), Some(127));
        assert_eq!(h.max(), 127);
    }

    #[test]
    fn p99_and_p999_distinguish_within_one_octave() {
        // The one-octave histogram collapsed these to the same bucket;
        // the log-linear layout must keep them apart.
        let mut h = HdrHistogram::new();
        for i in 0..1_000u64 {
            h.record(1_024 + i); // all within [2^10, 2^11)
        }
        let p99 = h.value_at_quantile(0.99).unwrap();
        let p999 = h.value_at_quantile(0.999).unwrap();
        assert!(p999 > p99, "p999={p999} vs p99={p99}");
        // And both are within the promised 1/64 of the exact answer.
        assert!((p99 as i64 - 2_013).unsigned_abs() <= 2_013 / 64 + 1);
        assert!((p999 as i64 - 2_022).unsigned_abs() <= 2_022 / 64 + 1);
    }

    #[test]
    fn merge_round_trip() {
        let mut a = HdrHistogram::new();
        let mut b = HdrHistogram::new();
        assert_eq!(a.value_at_quantile(0.5), None);
        for _ in 0..5 {
            a.record(100);
        }
        for _ in 0..3 {
            b.record(1_000_000);
        }
        a.merge(&b);
        assert_eq!(a.len(), 8);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(a.value_at_quantile(0.5), Some(100));
    }

    #[test]
    fn record_duration_saturates() {
        let mut h = HdrHistogram::new();
        h.record_duration(std::time::Duration::from_nanos(500));
        h.record_duration(std::time::Duration::from_secs(u64::MAX)); // > u64 ns
        assert_eq!(h.len(), 2);
        // Highest-equivalent-value convention: 500 lands in the [500,
        // 503] slot, so the report is the slot's upper bound — within
        // the promised 1/64.
        let got = h.value_at_quantile(0.25).unwrap();
        assert!((500..=500 + 500 / 64 + 1).contains(&got), "got {got}");
    }

    /// Exact quantile oracle on a sorted vector: value of the
    /// `⌈q·n⌉`-th smallest sample.
    fn oracle(sorted: &[u64], q: f64) -> u64 {
        let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The acceptance bound from the module docs: the reported
        // percentile never undershoots the exact order statistic and
        // overshoots by at most 1/64 of its value (+1 for integer
        // truncation).
        #[test]
        fn hdr_percentiles_match_sorted_oracle(
            values in prop::collection::vec(0u64..3_000_000_000, 1..300)
        ) {
            let mut h = HdrHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut values = values;
            values.sort_unstable();
            for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = oracle(&values, q);
                let got = h.value_at_quantile(q).unwrap();
                prop_assert!(got >= exact, "q={q}: got {got} < exact {exact}");
                prop_assert!(
                    got <= exact + exact / 64 + 1,
                    "q={q}: got {got} exceeds {exact} by more than 1/64"
                );
            }
            prop_assert_eq!(h.len(), values.len() as u64);
            prop_assert_eq!(h.max(), *values.last().unwrap());
        }

        // Merging two histograms must agree with recording everything
        // into one.
        #[test]
        fn hdr_merge_equals_union(
            a in prop::collection::vec(0u64..1_000_000, 0..100),
            b in prop::collection::vec(0u64..1_000_000, 0..100)
        ) {
            let mut ha = HdrHistogram::new();
            let mut hb = HdrHistogram::new();
            let mut hu = HdrHistogram::new();
            for &v in &a { ha.record(v); hu.record(v); }
            for &v in &b { hb.record(v); hu.record(v); }
            ha.merge(&hb);
            prop_assert_eq!(ha.len(), hu.len());
            for q in [0.25, 0.5, 0.75, 0.99] {
                prop_assert_eq!(ha.value_at_quantile(q), hu.value_at_quantile(q));
            }
        }
    }
}
