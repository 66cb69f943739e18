//! Seeded input generation: splitmix64 streams, the point-operation
//! mix, prefill key sets and the Poisson arrival schedule.
//!
//! Everything a workload feeds the system is a pure function of
//! `--seed` and a small per-stream lane number, so two launches with the
//! same seed replay the same inputs, and the system under test receives
//! only generated inputs — never the seed.
//!
//! ## Sentinel keys
//!
//! Keys ≡ 0 (mod 64) are inserted during prefill and never mutated;
//! keys ≡ 1 (mod 64) are never inserted. Mutation streams skip both
//! classes, so a `get` of a sentinel has a known answer even while two
//! threads race on the rest of the key space.

/// The splitmix64 generator (Steele, Lea & Flood 2014): one 64-bit
/// state word, full period, passes BigCrush — and ten lines, so the
/// harness needs no `rand`.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias of at most
    /// `n / 2^64` is far below anything a workload can observe).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `(0, 1]` — never 0, so `ln` is always finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The independent stream for `lane` (a thread, a connection, the
/// prefill, the schedule) under `seed`.
pub fn stream(seed: u64, lane: u64) -> SplitMix64 {
    let mut mixer = SplitMix64::new(seed ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    SplitMix64::new(mixer.next_u64())
}

/// Lanes, so no two consumers of one seed share a stream.
pub mod lane {
    pub const PREFILL: u64 = 1;
    pub const SCHEDULE: u64 = 2;
    pub const LADDER: u64 = 3;
    /// Load thread / connection `i` uses `LOAD + i`.
    pub const LOAD: u64 = 16;
}

/// Always present (prefilled, never mutated).
pub fn is_present_sentinel(key: u64) -> bool {
    key.is_multiple_of(64)
}

/// Never present.
pub fn is_absent_sentinel(key: u64) -> bool {
    key % 64 == 1
}

/// A uniform key of `[0, space)` that is in neither sentinel class.
pub fn mutable_key(rng: &mut SplitMix64, space: u64) -> u64 {
    let k = rng.below(space);
    if k % 64 < 2 {
        k + 2
    } else {
        k
    }
}

/// One point operation; the value written is always the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    Insert(u64),
    Delete(u64),
    Get(u64),
}

impl Op {
    pub fn is_update(&self) -> bool {
        !matches!(self, Op::Get(_))
    }
}

/// The point mix every point workload shares: 25 % insert, 25 %
/// delete, 50 % get, uniform keys. Gets draw from the whole key space
/// (sentinels included, so some answers are checkable); mutations skip
/// the sentinel classes.
#[derive(Clone, Debug)]
pub struct PointMix {
    rng: SplitMix64,
    space: u64,
}

impl PointMix {
    pub fn new(rng: SplitMix64, space: u64) -> Self {
        assert!(space >= 128, "key space too small for the sentinel classes");
        PointMix { rng, space }
    }

    pub fn next_op(&mut self) -> Op {
        match self.rng.next_u64() & 3 {
            0 => Op::Insert(mutable_key(&mut self.rng, self.space)),
            1 => Op::Delete(mutable_key(&mut self.rng, self.space)),
            _ => Op::Get(self.rng.below(self.space)),
        }
    }
}

/// Seeded Fisher–Yates shuffle.
fn shuffle(keys: &mut [u64], rng: &mut SplitMix64) {
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The keys a served or in-process point map starts with, in insertion
/// order: every present-sentinel and `space / 2` seeded random draws of
/// mutable keys (≈ 39 % of the space ends up distinct), shuffled
/// together — the trees do not rebalance, so ascending sentinels would
/// build a spine; a random order builds a random BST.
pub fn point_prefill(seed: u64, space: u64) -> Vec<u64> {
    let mut rng = stream(seed, lane::PREFILL);
    let mut keys: Vec<u64> = (0..space).step_by(64).collect();
    keys.extend((0..space / 2).map(|_| mutable_key(&mut rng, space)));
    shuffle(&mut keys, &mut rng);
    keys
}

/// The keys `mem-scan` starts with, in insertion order: every even key
/// (never touched again) and a seeded random half of the odd ones (the
/// updater's steady state), shuffled together.
pub fn scan_prefill(seed: u64, space: u64) -> Vec<u64> {
    let mut rng = stream(seed, lane::PREFILL);
    let mut keys: Vec<u64> = (0..space).step_by(2).collect();
    keys.extend((0..space / 4).map(|_| 2 * rng.below(space / 2) + 1));
    shuffle(&mut keys, &mut rng);
    keys
}

/// Seeded Poisson arrivals: exponential gaps with mean `1 / rate`.
/// A fixed comb would phase-lock with the server's 500 µs idle sleep;
/// memoryless gaps sample every phase of it.
#[derive(Clone, Debug)]
pub struct Poisson {
    rng: SplitMix64,
    mean_gap_ns: f64,
    due_ns: f64,
}

impl Poisson {
    pub fn new(rng: SplitMix64, rate_per_s: f64) -> Self {
        Poisson {
            rng,
            mean_gap_ns: 1e9 / rate_per_s,
            due_ns: 0.0,
        }
    }

    /// The next due time, nanoseconds after the schedule's origin.
    pub fn next_due_ns(&mut self) -> u64 {
        self.due_ns += -self.rng.unit().ln() * self.mean_gap_ns;
        self.due_ns as u64
    }
}

/// FNV-1a over the first `n` operations of lane `lane`'s point stream:
/// a fingerprint of the generated input, for the determinism tests.
#[cfg(test)]
pub fn op_stream_hash(seed: u64, lane: u64, space: u64, n: usize) -> u64 {
    let mut mix = PointMix::new(stream(seed, lane), space);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for _ in 0..n {
        let (tag, key) = match mix.next_op() {
            Op::Insert(k) => (1u64, k),
            Op::Delete(k) => (2, k),
            Op::Get(k) => (3, k),
        };
        for word in [tag, key] {
            for b in word.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a = op_stream_hash(7, lane::LOAD, 1 << 16, 10_000);
        assert_eq!(a, op_stream_hash(7, lane::LOAD, 1 << 16, 10_000));
        assert_ne!(a, op_stream_hash(8, lane::LOAD, 1 << 16, 10_000));
        // Two threads of one run must not replay each other.
        assert_ne!(a, op_stream_hash(7, lane::LOAD + 1, 1 << 16, 10_000));
    }

    #[test]
    fn mutations_never_touch_a_sentinel() {
        let mut mix = PointMix::new(stream(3, lane::LOAD), 1 << 12);
        let (mut updates, mut gets) = (0u32, 0u32);
        for _ in 0..100_000 {
            match mix.next_op() {
                Op::Insert(k) | Op::Delete(k) => {
                    assert!(!is_present_sentinel(k) && !is_absent_sentinel(k));
                    assert!(k < 1 << 12);
                    updates += 1;
                }
                Op::Get(k) => {
                    assert!(k < 1 << 12);
                    gets += 1;
                }
            }
        }
        // 50 % updates, 50 % gets, to within sampling noise.
        assert!((updates as f64 / 100_000.0 - 0.5).abs() < 0.01);
        assert_eq!(updates + gets, 100_000);
    }

    #[test]
    fn prefill_holds_every_present_sentinel_and_no_absent_one() {
        let order = point_prefill(1, 1 << 12);
        assert!(order.windows(2).any(|w| w[0] > w[1]), "not ascending");
        let keys: std::collections::BTreeSet<u64> = order.into_iter().collect();
        for k in (0..1u64 << 12).step_by(64) {
            assert!(keys.contains(&k));
            assert!(!keys.contains(&(k + 1)));
        }
        let share = keys.len() as f64 / (1u64 << 12) as f64;
        assert!((0.36..0.44).contains(&share), "distinct share {share}");
    }

    #[test]
    fn poisson_mean_gap_is_one_over_rate() {
        let mut p = Poisson::new(stream(11, lane::SCHEDULE), 500.0);
        let n = 100_000;
        let mut last = 0;
        for _ in 0..n {
            let due = p.next_due_ns();
            assert!(due >= last, "due times never go backwards");
            last = due;
        }
        let mean_gap = last as f64 / n as f64;
        let want = 1e9 / 500.0;
        assert!(
            (mean_gap / want - 1.0).abs() < 0.02,
            "mean gap {mean_gap} ns, wanted {want} ns"
        );
    }
}
