//! Binary exponential backoff — the classical baseline (paper §1).
//!
//! Two standard formulations:
//!
//! * [`WindowedBeb`] — after the `i`-th collision, the packet picks a
//!   uniformly random slot in a contention window of `w₀·2^min(i, cap)`
//!   slots (Ethernet-style \[Metcalfe–Boggs 1976\]).
//! * [`ProbBeb`] — the memoryless variant: transmit each slot with
//!   probability `p₀·2^{-i}`.
//!
//! Both are **oblivious**: they never listen, learning only from their own
//! collisions. The paper quotes the consequence (\[23\]): throughput on batch
//! inputs is `O(1/ln N)` — the curve experiment T2 reproduces — and a
//! reactive adversary can starve them with `Θ(ln T)` targeted jams (T9).

use lowsense_sim::dist::geometric_fast;
use lowsense_sim::feedback::{Intent, Observation};
use lowsense_sim::protocol::{Protocol, SparseProtocol};
use lowsense_sim::rng::SimRng;

/// Ethernet-style windowed binary exponential backoff.
///
/// # Examples
///
/// ```
/// use lowsense_baselines::WindowedBeb;
/// use lowsense_sim::prelude::*;
///
/// let result = run_sparse(
///     &SimConfig::new(1),
///     Batch::new(64),
///     NoJam,
///     |rng| WindowedBeb::new(2, 20, rng),
///     &mut NoHooks,
/// );
/// assert!(result.drained());
/// ```
#[derive(Debug, Clone)]
pub struct WindowedBeb {
    w0: u64,
    cap_exponent: u32,
    attempt: u32,
    /// Slots until the next transmission, counted from the next candidate
    /// slot (injection slot, or the slot after the last access).
    countdown: u64,
    rng: SimRng,
}

impl WindowedBeb {
    /// Creates a packet with initial window `w0`, doubling on each collision
    /// up to `w0·2^cap_exponent`.
    ///
    /// The factory RNG seeds a private per-packet stream so collision-time
    /// resampling stays deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `w0 == 0`.
    pub fn new(w0: u64, cap_exponent: u32, rng: &mut SimRng) -> Self {
        assert!(w0 > 0, "initial window must be positive");
        let mut own = rng.fork();
        let countdown = own.range_u64(w0);
        WindowedBeb {
            w0,
            cap_exponent,
            attempt: 0,
            countdown,
            rng: own,
        }
    }

    /// Current contention-window length `w₀·2^min(i, cap)`.
    pub fn window(&self) -> u64 {
        self.w0 << self.attempt.min(self.cap_exponent).min(63)
    }

    /// Collisions suffered so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    fn resample(&mut self) {
        let w = self.window();
        self.countdown = self.rng.range_u64(w);
    }
}

impl Protocol for WindowedBeb {
    fn intent(&mut self, _rng: &mut SimRng) -> Intent {
        if self.countdown == 0 {
            Intent::Send
        } else {
            self.countdown -= 1;
            Intent::Sleep
        }
    }

    fn observe(&mut self, obs: &Observation) {
        debug_assert!(obs.sent, "oblivious protocol only observes own sends");
        if obs.succeeded {
            return; // departing
        }
        // Collision (or jam — indistinguishable): back off and repick.
        self.attempt += 1;
        self.resample();
    }

    fn send_probability(&self) -> f64 {
        // Nominal per-slot rate: one transmission per window.
        1.0 / self.window() as f64
    }

    fn next_wake(&mut self, _rng: &mut SimRng) -> Option<u64> {
        // `countdown` was freshly sampled at construction or in `observe`.
        Some(self.countdown)
    }
}

impl SparseProtocol for WindowedBeb {
    fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
        true
    }
}

/// Memoryless probability-halving exponential backoff.
#[derive(Debug, Clone, Copy)]
pub struct ProbBeb {
    p0: f64,
    attempt: u32,
}

impl ProbBeb {
    /// Creates a packet transmitting with probability `p0` per slot,
    /// halving after every collision.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p0 <= 1`.
    pub fn new(p0: f64) -> Self {
        assert!(p0 > 0.0 && p0 <= 1.0, "p0 {p0} out of (0,1]");
        ProbBeb { p0, attempt: 0 }
    }

    /// Current per-slot transmission probability.
    pub fn probability(&self) -> f64 {
        self.p0 * (-(self.attempt as f64)).exp2()
    }
}

impl Protocol for ProbBeb {
    fn intent(&mut self, rng: &mut SimRng) -> Intent {
        if rng.bernoulli(self.probability()) {
            Intent::Send
        } else {
            Intent::Sleep
        }
    }

    fn observe(&mut self, obs: &Observation) {
        debug_assert!(obs.sent, "oblivious protocol only observes own sends");
        if !obs.succeeded {
            self.attempt = self.attempt.saturating_add(1);
        }
    }

    fn send_probability(&self) -> f64 {
        self.probability()
    }

    fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
        // `geometric_fast`, not `geometric`: the two draw different bits,
        // and the committed `CAMPAIGN_feedback_grid.json` pins these
        // (its `beb-prob` cells).
        Some(geometric_fast(rng, self.probability()))
    }
}

impl SparseProtocol for ProbBeb {
    fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowsense_sim::arrivals::Batch;
    use lowsense_sim::config::SimConfig;
    use lowsense_sim::engine::{run_dense, run_sparse};
    use lowsense_sim::feedback::Feedback;
    use lowsense_sim::hooks::NoHooks;
    use lowsense_sim::jamming::NoJam;

    fn collision(slot: u64) -> Observation {
        Observation {
            slot,
            feedback: Feedback::Noisy,
            sent: true,
            succeeded: false,
        }
    }

    #[test]
    fn window_doubles_and_caps() {
        let mut rng = SimRng::new(1);
        let mut b = WindowedBeb::new(4, 3, &mut rng);
        assert_eq!(b.window(), 4);
        for _ in 0..5 {
            b.observe(&collision(0));
        }
        // Capped at 4·2³ = 32 despite 5 collisions.
        assert_eq!(b.window(), 32);
        assert_eq!(b.attempts(), 5);
    }

    #[test]
    fn countdown_schedule_sends_within_first_window() {
        // The first transmission lands inside the first window of 8 slots;
        // engines always deliver an observation after a send, which either
        // departs the packet or resamples the countdown.
        let mut rng = SimRng::new(2);
        let mut b = WindowedBeb::new(8, 10, &mut rng);
        let mut first_send = None;
        for slot in 0..8 {
            if matches!(b.intent(&mut rng), Intent::Send) {
                first_send = Some(slot);
                b.observe(&collision(slot));
                break;
            }
        }
        assert!(first_send.is_some(), "no send in the first window");
        // After the collision, the window doubled and a new slot was picked.
        assert_eq!(b.window(), 16);
    }

    #[test]
    fn windowed_beb_drains_batch() {
        let r = run_sparse(
            &SimConfig::new(3),
            Batch::new(100),
            NoJam,
            |rng| WindowedBeb::new(2, 16, rng),
            &mut NoHooks,
        );
        assert!(r.drained());
        assert_eq!(r.totals.listens, 0, "BEB never listens");
    }

    #[test]
    fn windowed_beb_dense_sparse_agree() {
        let mean = |f: &dyn Fn(u64) -> u64| (0..8).map(f).sum::<u64>() as f64 / 8.0;
        let dense = mean(&|s| {
            run_dense(
                &SimConfig::new(s),
                Batch::new(50),
                NoJam,
                |rng| WindowedBeb::new(2, 16, rng),
                &mut NoHooks,
            )
            .totals
            .active_slots
        });
        let sparse = mean(&|s| {
            run_sparse(
                &SimConfig::new(s + 50),
                Batch::new(50),
                NoJam,
                |rng| WindowedBeb::new(2, 16, rng),
                &mut NoHooks,
            )
            .totals
            .active_slots
        });
        assert!(
            (dense - sparse).abs() / dense < 0.3,
            "dense {dense} sparse {sparse}"
        );
    }

    #[test]
    fn prob_beb_halves() {
        let mut b = ProbBeb::new(0.5);
        assert_eq!(b.probability(), 0.5);
        b.observe(&collision(0));
        assert_eq!(b.probability(), 0.25);
        b.observe(&collision(1));
        assert_eq!(b.probability(), 0.125);
    }

    #[test]
    fn prob_beb_success_does_not_halve() {
        let mut b = ProbBeb::new(0.5);
        b.observe(&Observation {
            slot: 0,
            feedback: Feedback::Success,
            sent: true,
            succeeded: true,
        });
        assert_eq!(b.probability(), 0.5);
    }

    #[test]
    fn prob_beb_drains_batch() {
        let r = run_sparse(
            &SimConfig::new(4),
            Batch::new(100),
            NoJam,
            |_| ProbBeb::new(0.5),
            &mut NoHooks,
        );
        assert!(r.drained());
    }

    #[test]
    fn beb_batch_throughput_degrades_with_n() {
        // The O(1/ln N) ceiling: throughput at N=4096 is measurably below
        // throughput at N=64.
        let tp = |n: u64, seed: u64| {
            run_sparse(
                &SimConfig::new(seed),
                Batch::new(n),
                NoJam,
                |rng| WindowedBeb::new(2, 30, rng),
                &mut NoHooks,
            )
            .totals
            .throughput()
        };
        let small: f64 = (0..4).map(|s| tp(64, s)).sum::<f64>() / 4.0;
        let large: f64 = (0..4).map(|s| tp(4096, s)).sum::<f64>() / 4.0;
        assert!(
            large < small,
            "expected degradation: small-N {small}, large-N {large}"
        );
    }
}
