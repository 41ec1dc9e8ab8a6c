//! # lowsense — `LOW-SENSING BACKOFF`
//!
//! Reference implementation of the contention-resolution algorithm from
//! *"Fully Energy-Efficient Randomized Backoff: Slow Feedback Loops Yield
//! Fast Contention Resolution"* (Bender, Fineman, Gilbert, Kuszmaul, Young —
//! PODC 2024, arXiv:2302.07751), together with the analysis machinery the
//! paper builds: the potential function `Φ(t)`, contention regimes, and the
//! interval schedule of Theorem 5.18.
//!
//! The algorithm achieves, with high probability, **Θ(1) throughput** and
//! **polylog(N+J) channel accesses per packet** (sends *and* listens — "fully
//! energy-efficient") under adaptive adversarial arrivals and jamming, in the
//! plain ternary-feedback model with no control messages.
//!
//! ## Quick start
//!
//! ```
//! use lowsense::{LowSensing, Params};
//! use lowsense_sim::prelude::*;
//!
//! // 1000 packets arrive at once; LOW-SENSING BACKOFF drains them in O(N)
//! // slots with only polylog channel accesses per packet.
//! let result = run_sparse(
//!     &SimConfig::new(42),
//!     Batch::new(1000),
//!     NoJam,
//!     |_rng| LowSensing::new(Params::default()),
//!     &mut NoHooks,
//! );
//! assert!(result.drained());
//! assert!(result.totals.throughput() > 0.05);
//! // Energy stays polylogarithmic: ln⁴(1000) ≈ 2300 ≫ the observed max,
//! // while an every-slot listener would pay ≈ 10⁴ accesses here.
//! let max_accesses = result.access_counts().into_iter().max().unwrap();
//! assert!(max_accesses < 2300);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`params`] | validated algorithm constants `c`, `w_min` and the Figure-1 [`Rule`] |
//! | [`window`] | the multiplicative back-off/back-on rules |
//! | [`ladder`] | the quantized reachable-window table the hot path steps |
//! | [`protocol`] | [`LowSensing`]: the Figure 1 state machine |
//! | [`potential`] | `Φ(t)`, contention, regimes (§4.1–4.2) |
//! | [`intervals`] | Theorem 5.18 interval drift recorder |
//! | [`theory`] | closed-form bounds for paper-vs-measured checks |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod intervals;
pub mod ladder;
pub mod params;
pub mod potential;
pub mod protocol;
pub mod theory;
pub mod window;

// Test-only: the ablation rules' parameter samples and their checks.
#[cfg(test)]
mod variant;

pub use intervals::{IntervalRecord, IntervalRecorder};
pub use ladder::{Ladder, LadderRow};
pub use params::{Coupling, ParamError, Params, Rule, Update};
pub use potential::{Alphas, PotentialTracker, Regime, RegimeOccupancy, RegimeThresholds};
pub use protocol::LowSensing;

/// Packet factory running `LOW-SENSING BACKOFF` with default parameters —
/// the canonical protocol argument for the engines and the scenario layer.
///
/// ```
/// use lowsense_sim::prelude::*;
///
/// let r = scenarios::batch_drain(32).run_sparse(lowsense::lsb());
/// assert!(r.drained());
/// ```
pub fn lsb() -> impl FnMut(&mut lowsense_sim::rng::SimRng) -> LowSensing + Clone {
    |_| LowSensing::new(Params::default())
}

#[cfg(test)]
mod integration_tests {
    use super::*;
    use lowsense_sim::prelude::*;

    #[test]
    fn batch_drains_with_constant_throughput() {
        let r = run_sparse(
            &SimConfig::new(1),
            Batch::new(2000),
            NoJam,
            |_| LowSensing::new(Params::default()),
            &mut NoHooks,
        );
        assert!(r.drained());
        let tp = r.totals.throughput();
        assert!(tp > 0.08, "throughput {tp}");
    }

    #[test]
    fn dense_and_sparse_agree_statistically() {
        // Same workload, both engines; mean active-slot counts within 25%
        // across seeds (different random executions of the same process).
        let n = 200;
        let mean = |results: Vec<u64>| results.iter().sum::<u64>() as f64 / results.len() as f64;
        let dense: Vec<u64> = (0..8)
            .map(|s| {
                run_dense(
                    &SimConfig::new(s),
                    Batch::new(n),
                    NoJam,
                    |_| LowSensing::new(Params::default()),
                    &mut NoHooks,
                )
                .totals
                .active_slots
            })
            .collect();
        let sparse: Vec<u64> = (100..108)
            .map(|s| {
                run_sparse(
                    &SimConfig::new(s),
                    Batch::new(n),
                    NoJam,
                    |_| LowSensing::new(Params::default()),
                    &mut NoHooks,
                )
                .totals
                .active_slots
            })
            .collect();
        let (md, ms) = (mean(dense), mean(sparse));
        assert!(
            (md - ms).abs() / md < 0.25,
            "dense mean {md}, sparse mean {ms}"
        );
    }

    #[test]
    fn survives_heavy_random_jamming() {
        // ρ stays below 1/2: at ρ ≥ 1/2 sustained indefinitely, the lone
        // last packet's window walk loses its downward drift and the run
        // may never drain (consistent with the paper — the unbounded J_t
        // keeps implicit throughput Ω(1), but drain is not guaranteed).
        let r = run_sparse(
            &SimConfig::new(2),
            Batch::new(500),
            RandomJam::new(0.4),
            |_| LowSensing::new(Params::default()),
            &mut NoHooks,
        );
        assert!(r.drained());
        // With the jam credit, throughput is still constant.
        assert!(r.totals.throughput() > 0.2, "{}", r.totals.throughput());
    }

    #[test]
    fn potential_is_zero_after_drain() {
        let mut tracker = PotentialTracker::default();
        let r = run_sparse(
            &SimConfig::new(3),
            Batch::new(300),
            NoJam,
            |_| LowSensing::new(Params::default()),
            &mut tracker,
        );
        assert!(r.drained());
        assert_eq!(tracker.packets(), 0);
        assert!(tracker.phi().abs() < 1e-9);
        assert!(tracker.contention().abs() < 1e-9);
    }

    #[test]
    fn energy_is_small_for_large_batches() {
        let r = run_sparse(
            &SimConfig::new(4),
            Batch::new(10_000),
            NoJam,
            |_| LowSensing::new(Params::default()),
            &mut NoHooks,
        );
        assert!(r.drained());
        let counts = r.access_counts();
        let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        // Theorem 5.25 shape: accesses are polylog(N) — hundreds at N = 10⁴
        // (ln⁴(10⁴) ≈ 7200), versus ~10⁵ for an every-slot listener.
        assert!(mean < theory::energy_bound_finite(10_000, 0), "mean {mean}");
        assert!(
            max < theory::energy_bound_finite(10_000, 0) * 3.0,
            "max {max}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use lowsense_sim::feedback::{Feedback, Observation};
    use lowsense_sim::protocol::Protocol;
    use proptest::prelude::*;

    fn obs(feedback: Feedback) -> Observation {
        Observation {
            slot: 0,
            feedback,
            sent: false,
            succeeded: false,
        }
    }

    proptest! {
        /// The window floor invariant holds under any feedback sequence.
        #[test]
        fn window_respects_floor(seq in proptest::collection::vec(0u8..3, 0..500)) {
            let params = Params::default();
            let mut p = LowSensing::new(params);
            for s in seq {
                let fb = match s {
                    0 => Feedback::Empty,
                    1 => Feedback::Success,
                    _ => Feedback::Noisy,
                };
                p.observe(&obs(fb));
                prop_assert!(p.window() >= params.w_min());
                prop_assert!(p.window().is_finite());
                // Cached probabilities stay in [0,1] and consistent.
                let send = p.send_probability();
                prop_assert!((0.0..=1.0).contains(&send));
                prop_assert!((send - 1.0 / p.window()).abs() < 1e-9);
            }
        }

        /// Back-off grows, back-on shrinks (down to the floor clamp).
        #[test]
        fn backoff_monotone(w in 4.0f64..1e9) {
            let params = Params::default();
            let up = window::back_off(&params, w);
            let down = window::back_on(&params, w);
            prop_assert!(up > w);
            prop_assert!(down <= w);
            prop_assert!(down >= params.w_min());
        }

        /// Valid parameter space: construction succeeds iff constraints hold.
        #[test]
        fn params_validation_is_total(c in 0.01f64..10.0, w in 2.0f64..1e6) {
            match Params::new(c, w) {
                Ok(p) => {
                    prop_assert!(c * w.ln().powi(3) >= 1.0);
                    let row = ladder::derive(&p, w).row;
                    prop_assert!(row.p_listen <= 1.0);
                    prop_assert!(row.p_send_given_listen <= 1.0);
                }
                Err(ParamError::SendProbabilityOverflow) => {
                    prop_assert!(c * w.ln().powi(3) < 1.0);
                }
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
    }
}
