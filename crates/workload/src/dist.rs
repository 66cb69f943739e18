//! Key distributions: uniform and Zipfian (rank-ordered and scrambled).
//!
//! The Zipfian generator uses the rejection-inversion method of
//! Hörmann & Derflinger ("Rejection-inversion to generate variates from
//! monotone discrete distributions", 1996) — the same algorithm used by
//! YCSB and `rand_distr` — so it supports large key spaces (10⁶+) without
//! precomputing a CDF table.
//!
//! Rank-ordered Zipf has a measurement trap: the hottest keys are
//! `0, 1, 2, …`, i.e. they all cluster at the bottom of the key space.
//! Any structure that partitions by key range (the sharded front-end's
//! `RangePrefixPartitioner` routes 4096-key blocks) then melts exactly
//! one partition *by accident of rank labelling*, not because the
//! workload is inherently that adversarial. [`ScrambledZipf`] keeps the
//! Zipfian frequency *curve* but decorrelates rank from key via a
//! splitmix64 bijection (YCSB's `ScrambledZipfianGenerator` does the
//! same with FNV), so hot keys disperse across the whole space.

use rand::Rng;

use crate::seed::splitmix64;

/// A key distribution over `[0, n)`.
#[derive(Clone, Debug)]
pub enum KeyDist {
    /// Uniform over the key space.
    Uniform {
        /// Key-space size.
        n: u64,
    },
    /// Zipfian over the key space (popular keys get most traffic; the
    /// hottest keys are the *smallest* keys).
    Zipfian(Zipf),
    /// Zipfian frequencies with the rank→key mapping scrambled by a
    /// splitmix64 bijection: same skew, hot keys dispersed over the
    /// whole key space.
    ScrambledZipfian(ScrambledZipf),
}

impl KeyDist {
    /// Uniform distribution over `[0, n)`.
    pub fn uniform(n: u64) -> Self {
        assert!(n > 0);
        KeyDist::Uniform { n }
    }

    /// Zipfian distribution over `[0, n)` with exponent `theta`
    /// (typically 0.99, YCSB's default).
    pub fn zipfian(n: u64, theta: f64) -> Self {
        KeyDist::Zipfian(Zipf::new(n, theta))
    }

    /// Scrambled-Zipfian distribution over `[0, n)` with exponent
    /// `theta`: Zipfian traffic shares, hot keys spread across the key
    /// space instead of clustering at 0.
    pub fn scrambled_zipfian(n: u64, theta: f64) -> Self {
        KeyDist::ScrambledZipfian(ScrambledZipf::new(n, theta))
    }

    /// Key-space size.
    pub fn key_space(&self) -> u64 {
        match self {
            KeyDist::Uniform { n } => *n,
            KeyDist::Zipfian(z) => z.n,
            KeyDist::ScrambledZipfian(z) => z.zipf.n,
        }
    }

    /// Draw a key.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        match self {
            KeyDist::Uniform { n } => rng.gen_range(0..*n),
            KeyDist::Zipfian(z) => z.sample(rng),
            KeyDist::ScrambledZipfian(z) => z.sample(rng),
        }
    }
}

/// Zipfian frequencies with ranks scrambled across the key space.
///
/// A rank `r` drawn from the underlying [`Zipf`] is mapped to key
/// `splitmix64(r) mod n`. The finalizer is a bijection on `u64`, so
/// distinct ranks collide on a key only through the final modulo —
/// with the same (vanishing, for n ≪ 2⁶⁴) probability as YCSB's
/// FNV-based scrambling. Traffic shares per *rank* are exactly
/// Zipfian; per *key* they match up to those rare collisions, with the
/// hot ranks landing at effectively uniform positions.
#[derive(Clone, Debug)]
pub struct ScrambledZipf {
    zipf: Zipf,
}

impl ScrambledZipf {
    /// Create a sampler over `[0, n)` with exponent `theta`.
    pub fn new(n: u64, theta: f64) -> Self {
        ScrambledZipf {
            zipf: Zipf::new(n, theta),
        }
    }

    /// The key that rank `r` (0 = hottest) scrambles to.
    #[inline]
    pub fn key_of_rank(&self, r: u64) -> u64 {
        splitmix64(r) % self.zipf.n
    }

    /// Draw a key.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        self.key_of_rank(self.zipf.sample(rng))
    }
}

/// Zipfian sampler (rejection-inversion, Hörmann & Derflinger 1996).
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Number of elements.
    pub n: u64,
    /// Exponent (s > 0, s != 1 handled; s == 1 uses the harmonic case).
    s: f64,
    // Precomputed constants.
    h_x1: f64,
    h_half: f64,
    dd: f64,
}

impl Zipf {
    /// Create a sampler over `[0, n)` with exponent `s`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!(s > 0.0, "exponent must be positive");
        let nf = n as f64;
        let h_x1 = Self::h(1.5, s) - 1.0;
        let h_half = Self::h(0.5, s);
        let dd = Self::h(nf + 0.5, s) - h_half;
        Zipf {
            n,
            s,
            h_x1,
            h_half,
            dd,
        }
    }

    /// H(x) = integral of x^-s  (antiderivative, branch for s == 1).
    #[inline]
    fn h(x: f64, s: f64) -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            x.ln()
        } else {
            x.powf(1.0 - s) / (1.0 - s)
        }
    }

    /// Inverse of H.
    #[inline]
    fn h_inv(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-9 {
            x.exp()
        } else {
            ((1.0 - self.s) * x).powf(1.0 / (1.0 - self.s))
        }
    }

    /// Draw a rank in `[0, n)` (0 is the most popular).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.h_half + rng.gen::<f64>() * self.dd;
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().max(1.0);
            let k = (k as u64).min(self.n);
            // Acceptance test.
            if u >= Self::h(k as f64 + 0.5, self.s) - (k as f64).powf(-self.s)
                || k == 1 && u >= self.h_x1
            {
                return k - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_covers_space() {
        let d = KeyDist::uniform(100);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 100];
        for _ in 0..10_000 {
            let k = d.sample(&mut rng);
            assert!(k < 100);
            seen[k as usize] = true;
        }
        assert!(seen.iter().filter(|&&b| b).count() > 95);
    }

    #[test]
    fn zipf_in_range_and_skewed() {
        let d = KeyDist::zipfian(1_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut head = 0usize;
        let samples = 50_000;
        for _ in 0..samples {
            let k = d.sample(&mut rng);
            assert!(k < 1_000);
            if k < 10 {
                head += 1;
            }
        }
        // With theta=0.99 the top-10 of 1000 keys should draw a large
        // share of traffic (~45% theoretically); be generous.
        assert!(
            head as f64 > samples as f64 * 0.25,
            "zipf not skewed enough: head={head}"
        );
    }

    #[test]
    fn zipf_theta_one_harmonic_branch() {
        let d = Zipf::new(100, 1.0);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..5_000 {
            assert!(d.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn zipf_small_spaces() {
        for n in [1u64, 2, 3] {
            let d = Zipf::new(n, 0.8);
            let mut rng = SmallRng::seed_from_u64(9);
            for _ in 0..1_000 {
                assert!(d.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    fn scrambled_zipf_matches_rank_zipf_frequency_curve() {
        // Same n/theta: the sorted frequency curves must agree (the
        // scramble permutes labels, it does not change shares), while
        // the hot *keys* must stop clustering at the bottom of the
        // space.
        let n = 32_768u64; // 8 blocks of the sharded partitioner's 4096
        let theta = 0.99;
        let rank = KeyDist::zipfian(n, theta);
        let scram = KeyDist::scrambled_zipfian(n, theta);
        let samples = 200_000usize;

        let count = |d: &KeyDist, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut c = std::collections::HashMap::<u64, u64>::new();
            for _ in 0..samples {
                *c.entry(d.sample(&mut rng)).or_insert(0) += 1;
            }
            let mut freqs: Vec<(u64, u64)> = c.into_iter().map(|(k, v)| (v, k)).collect();
            freqs.sort_unstable_by(|a, b| b.cmp(a)); // hottest first
            freqs
        };
        let rank_freqs = count(&rank, 21);
        let scram_freqs = count(&scram, 21);

        // Top-1 and top-10 traffic shares agree within a few points.
        let share = |f: &[(u64, u64)], k: usize| {
            f.iter().take(k).map(|(c, _)| *c).sum::<u64>() as f64 / samples as f64
        };
        assert!(
            (share(&rank_freqs, 1) - share(&scram_freqs, 1)).abs() < 0.03,
            "top-1 share diverged: {} vs {}",
            share(&rank_freqs, 1),
            share(&scram_freqs, 1)
        );
        assert!(
            (share(&rank_freqs, 10) - share(&scram_freqs, 10)).abs() < 0.03,
            "top-10 share diverged"
        );

        // Rank-Zipf's 8 hottest keys all live in the first 4096-key
        // block; the scrambled hot keys must spread over several blocks.
        let block = |k: u64| k / 4_096;
        let rank_blocks: std::collections::HashSet<u64> =
            rank_freqs.iter().take(8).map(|&(_, k)| block(k)).collect();
        assert_eq!(
            rank_blocks.len(),
            1,
            "rank-zipf hot keys cluster (the trap)"
        );
        let scram_blocks: std::collections::HashSet<u64> =
            scram_freqs.iter().take(8).map(|&(_, k)| block(k)).collect();
        assert!(
            scram_blocks.len() >= 4,
            "scrambled hot keys still clustered: blocks {scram_blocks:?}"
        );
    }

    #[test]
    fn scrambled_zipf_stays_in_range() {
        let d = ScrambledZipf::new(1_000, 1.1);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) < 1_000);
        }
        // The rank→key map is deterministic.
        assert_eq!(d.key_of_rank(0), d.key_of_rank(0));
    }

    #[test]
    fn zipf_rank_frequencies_decrease() {
        let d = Zipf::new(50, 1.2);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut counts = [0usize; 50];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng) as usize] += 1;
        }
        // Monotone on a coarse scale: rank 0 >> rank 10 >> rank 40.
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[40]);
    }
}
