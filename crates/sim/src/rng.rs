//! Deterministic pseudo-random number generation for simulations.
//!
//! The simulator needs bit-for-bit reproducible Monte Carlo runs across
//! platforms and across dependency upgrades, so the core generator
//! (xoshiro256++ seeded through SplitMix64) is implemented here rather than
//! borrowed from an external crate.
//!
//! # Examples
//!
//! ```
//! use lowsense_sim::rng::SimRng;
//!
//! let mut rng = SimRng::new(42);
//! let x = rng.f64();
//! assert!((0.0..1.0).contains(&x));
//! // Identical seeds give identical streams.
//! assert_eq!(SimRng::new(7).next_u64(), SimRng::new(7).next_u64());
//! ```

/// A small, fast, deterministic PRNG (xoshiro256++).
///
/// Statistical quality is more than sufficient for Monte Carlo simulation
/// (it passes BigCrush); it is *not* cryptographically secure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into the xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Any seed (including 0) is valid; SplitMix64 expansion guarantees a
    /// non-degenerate internal state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator.
    ///
    /// Used to give packets, threads, or adversaries their own streams
    /// without coupling their consumption rates.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64() ^ 0xA5A5_A5A5_DEAD_BEEF)
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.f64() < p
    }

    /// Returns a uniform integer in `[0, n)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn range_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range_u64 requires n > 0");
        // Lemire's nearly-divisionless unbiased method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn range_usize(&mut self, n: usize) -> usize {
        self.range_u64(n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = SimRng::new(5);
        let mut child = parent.fork();
        // Parent continues its own stream; child stream differs.
        let same = (0..64)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = SimRng::new(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SimRng::new(3);
        assert!(rng.bernoulli(1.0));
        assert!(rng.bernoulli(1.5));
        assert!(!rng.bernoulli(0.0));
        assert!(!rng.bernoulli(-0.5));
        assert!(!rng.bernoulli(f64::NAN)); // NaN comparison is false
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = SimRng::new(17);
        let n = 200_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn range_u64_bounds_and_uniformity() {
        let mut rng = SimRng::new(19);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let x = rng.range_u64(10);
            assert!(x < 10);
            counts[x as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow generous slack.
            assert!((8_500..11_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_u64_n_one() {
        let mut rng = SimRng::new(21);
        for _ in 0..100 {
            assert_eq!(rng.range_u64(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn range_u64_zero_panics() {
        SimRng::new(1).range_u64(0);
    }

    #[test]
    fn matches_reference_xoshiro_stream_shape() {
        // Smoke check: outputs are well distributed at the bit level.
        let mut rng = SimRng::new(0);
        let mut ones = 0u32;
        for _ in 0..1000 {
            ones += rng.next_u64().count_ones();
        }
        let frac = ones as f64 / (1000.0 * 64.0);
        assert!((frac - 0.5).abs() < 0.02, "bit balance {frac}");
    }
}
