//! One seed spawner for every driver.
//!
//! The drivers used to derive per-thread RNG seeds ad hoc — `run_latency`
//! used `seed + 17*(tid+1)`, `run_throughput` used `seed + tid + 1`,
//! and prefill reused the base seed unchanged. Three consequences, all
//! bad for reproducibility:
//!
//! * "same seed" meant a *different* operation stream per driver, so a
//!   latency run and a throughput run with `seed = 42` exercised
//!   different keys;
//! * adjacent base seeds produced *overlapping* worker streams
//!   (`seed = 42, tid = 1` collided with `seed = 43, tid = 0`);
//! * a worker's stream could alias the prefill stream exactly.
//!
//! Every driver now derives seeds through [`worker_seed`]: a
//! splitmix64-style finalizer over `base ⊕ (stream+1)·γ`, where γ is the
//! 64-bit golden-ratio constant. Distinct `(base, stream)` pairs map to
//! effectively independent seeds (the finalizer is a bijection with full
//! avalanche), and the prefill stream id is reserved out of the worker
//! id range.

/// 64-bit golden-ratio constant (2⁶⁴/φ), the splitmix64 stream
/// increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Reserved stream id for the prefill pass, far outside any plausible
/// worker thread id, so worker streams can never alias the prefill
/// stream.
pub const PREFILL_STREAM: u64 = u64::MAX;

/// The splitmix64 finalizer: a bijective 64-bit mix with full avalanche
/// (Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014). Also used by the scrambled-Zipfian key
/// distribution to decorrelate rank from key.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-stream seed derivation shared by *all* drivers: stream `s` of
/// base seed `b` is `splitmix64(b ⊕ (s+1)·γ)`. Worker `tid` uses stream
/// `tid`; the prefill pass uses [`PREFILL_STREAM`].
#[inline]
pub fn worker_seed(base: u64, stream: u64) -> u64 {
    splitmix64(base ^ stream.wrapping_add(1).wrapping_mul(GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streams_of_one_base_are_distinct() {
        let mut seen = HashSet::new();
        for tid in 0..1_000 {
            assert!(seen.insert(worker_seed(42, tid)), "stream {tid} collided");
        }
        assert!(
            seen.insert(worker_seed(42, PREFILL_STREAM)),
            "prefill stream aliased a worker stream"
        );
    }

    #[test]
    fn adjacent_bases_do_not_alias() {
        // The old `seed + tid + 1` scheme had worker (42, 1) == (43, 0).
        let mut seen = HashSet::new();
        for base in 40..48u64 {
            for tid in 0..16 {
                assert!(
                    seen.insert(worker_seed(base, tid)),
                    "base {base} stream {tid} collided with a neighbour"
                );
            }
        }
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(worker_seed(7, 3), worker_seed(7, 3));
        assert_ne!(worker_seed(7, 3), worker_seed(7, 4));
        assert_ne!(worker_seed(7, 3), worker_seed(8, 3));
    }

    #[test]
    fn splitmix_is_a_bijection_on_a_sample() {
        // Spot-check injectivity (a true bijection can't be tested
        // exhaustively; distinct outputs on a dense sample catches
        // accidental truncation).
        let mut seen = HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(splitmix64(x)));
        }
    }
}
