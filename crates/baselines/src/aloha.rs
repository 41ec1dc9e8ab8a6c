//! Slotted ALOHA (Abramson 1970, Roberts 1972).
//!
//! Each packet transmits with a fixed probability every slot. With the
//! genie-given choice `p = 1/N` for a batch of `N`, the success rate per
//! slot approaches the famous `1/e ≈ 0.368` — the throughput gold standard
//! that experiment T2 plots as the (unachievable without knowing `N`)
//! upper reference line.

use lowsense_sim::dist::geometric_fast;
use lowsense_sim::feedback::{Intent, Observation};
use lowsense_sim::protocol::{Protocol, SparseProtocol};
use lowsense_sim::rng::SimRng;

/// Fixed-probability slotted ALOHA.
#[derive(Debug, Clone, Copy)]
pub struct SlottedAloha {
    p: f64,
}

impl SlottedAloha {
    /// Transmit with probability `p` each slot.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p {p} out of (0,1]");
        SlottedAloha { p }
    }

    /// The genie configuration for a batch of `n` packets: `p = 1/n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn genie(n: u64) -> Self {
        assert!(n > 0, "batch size must be positive");
        SlottedAloha { p: 1.0 / n as f64 }
    }
}

impl Protocol for SlottedAloha {
    fn intent(&mut self, rng: &mut SimRng) -> Intent {
        if rng.bernoulli(self.p) {
            Intent::Send
        } else {
            Intent::Sleep
        }
    }

    fn observe(&mut self, _obs: &Observation) {}

    fn send_probability(&self) -> f64 {
        self.p
    }

    fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
        // `geometric_fast`, not `geometric`: the two draw different bits,
        // so switching would move every ALOHA result.
        Some(geometric_fast(rng, self.p))
    }
}

impl SparseProtocol for SlottedAloha {
    fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowsense_sim::arrivals::Batch;
    use lowsense_sim::config::SimConfig;
    use lowsense_sim::engine::run_sparse;
    use lowsense_sim::hooks::NoHooks;
    use lowsense_sim::jamming::NoJam;

    #[test]
    fn genie_probability() {
        assert_eq!(SlottedAloha::genie(100).send_probability(), 0.01);
    }

    #[test]
    fn genie_batch_peak_throughput_near_1_over_e() {
        // Early-phase success rate with N packets at p = 1/N is ≈ 1/e.
        // Measure over the first half of the drain (before the population
        // thins and the fixed p becomes stale).
        let n = 1000u64;
        let r = run_sparse(
            &SimConfig::new(1)
                .metrics(lowsense_sim::metrics::MetricsConfig::default().with_series(1.05)),
            Batch::new(n),
            NoJam,
            |_| SlottedAloha::genie(n),
            &mut NoHooks,
        );
        assert!(r.drained());
        // Find the sample closest to half the packets delivered.
        let half = r
            .series
            .iter()
            .find(|s| s.totals.successes >= n / 2)
            .expect("series covers the run");
        let rate = half.totals.clean_throughput();
        assert!(
            (rate - 1.0 / std::f64::consts::E).abs() < 0.08,
            "early success rate {rate}"
        );
    }

    #[test]
    fn tail_is_slow_with_fixed_p() {
        // The last packet alone still sends w.p. 1/N: the overall makespan
        // is dominated by the tail, so overall throughput << 1/e.
        let n = 500u64;
        let r = run_sparse(
            &SimConfig::new(2),
            Batch::new(n),
            NoJam,
            |_| SlottedAloha::genie(n),
            &mut NoHooks,
        );
        assert!(r.drained());
        assert!(r.totals.throughput() < 0.3, "{}", r.totals.throughput());
    }

    #[test]
    #[should_panic(expected = "out of (0,1]")]
    fn rejects_bad_p() {
        SlottedAloha::new(0.0);
    }
}
