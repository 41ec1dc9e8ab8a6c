//! Parametric `LOW-SENSING BACKOFF` variants for the ablation experiments.
//!
//! Three design choices of the paper's algorithm are made tunable:
//!
//! * **listening exponent** `k` in `p_listen = c·ln^k(w)/w` (A2; the paper
//!   uses `k = 3` so that a listen moves `H(t)` by `Θ(1/(c·ln³ w))` and the
//!   conditional send probability `1/(c·ln^k w)` stays a probability);
//! * **update rule** — the paper's gentle `1 + 1/(c·ln w)` factor versus a
//!   blunt constant factor (A3; doubling overshoots with rare listening);
//! * **coupling** — the paper sends only when already listening, keeping
//!   every access "useful"; the independent variant flips separate coins
//!   (A4).
//!
//! The unconditional send probability is `1/w` in every configuration, so
//! ablations isolate the *feedback loop*, not the offered load.

use lowsense_sim::dist::{fast_ln, geometric4_inv, geometric_inv};
use lowsense_sim::feedback::{Feedback, Intent, Observation};
use lowsense_sim::protocol::{Protocol, SparseProtocol};
use lowsense_sim::rng::SimRng;

/// How the window reacts to feedback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateRule {
    /// The paper's `w ← w·(1 ± ...)` with factor `1 + 1/(c·ln w)`.
    Gentle,
    /// Constant multiplicative factor (e.g. `2.0` = doubling/halving).
    Factor(f64),
}

/// Whether the send coin is nested inside the listen coin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coupling {
    /// Paper: listen w.p. `p_l`; send w.p. `p_s/p_l` given listening.
    Coupled,
    /// Ablation: independent coins for listening (`p_l`) and sending
    /// (`1/w`); a send without a listen still observes the outcome.
    Independent,
}

/// Configuration of a [`LowSensingVariant`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantConfig {
    /// The multiplier `c`.
    pub c: f64,
    /// Minimum window.
    pub w_min: f64,
    /// Exponent `k` of `ln^k(w)` in the listen probability.
    pub listen_exponent: i32,
    /// Window update rule.
    pub update: UpdateRule,
    /// Send/listen coin coupling.
    pub coupling: Coupling,
}

impl VariantConfig {
    /// The paper's algorithm: `k = 3`, gentle updates, coupled coins.
    pub fn paper(c: f64, w_min: f64) -> Self {
        VariantConfig {
            c,
            w_min,
            listen_exponent: 3,
            update: UpdateRule::Gentle,
            coupling: Coupling::Coupled,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `c`, `w_min < 2`, negative exponent, or a
    /// `Factor` rule with factor ≤ 1.
    pub fn validate(&self) {
        assert!(self.c > 0.0 && self.c.is_finite(), "c must be positive");
        assert!(self.w_min >= 2.0, "w_min must be at least 2");
        assert!(self.listen_exponent >= 0, "listen exponent must be >= 0");
        if let UpdateRule::Factor(f) = self.update {
            assert!(f > 1.0, "constant update factor must exceed 1");
        }
    }
}

/// A `LOW-SENSING BACKOFF` variant with tunable design choices.
// Everything derived from the window is cached and refreshed only when the
// window changes — the same treatment the core `LowSensing` got (PR 5's
// reciprocal-form caches, now ladder rows): the old implementation paid a
// `ln` + `powi` recompute of the update factor on **every** observation and
// a fresh `ln(1-p_access)` plus a divide on **every** wake draw. Window
// updates multiply against the cached factor / reciprocal pair, and the
// wake draws are one `fast_ln(U)` multiply via the cached
// `1/ln(1-p_access)`.
#[derive(Debug, Clone, Copy)]
pub struct LowSensingVariant {
    cfg: VariantConfig,
    w: f64,
    p_listen: f64,
    // Cached per-window derived values, refreshed by `recompute`:
    p_send: f64,
    p_access: f64,
    // `1/ln(1 - p_access)` for the wake draws; 0 in the degenerate cases
    // the draw guards short-circuit (`p_access` outside `(0, 1)`).
    inv_ln_q_access: f64,
    // Conditional coin biases (`p_send/p_listen`, `p_send/p_access`), so
    // `intent` and `send_on_access` are divide-free per call.
    p_send_given_listen: f64,
    p_send_given_access: f64,
    // Update factor of the *current* window and its reciprocal: back-off
    // multiplies by `factor`, back-on by `inv_factor` (floored at `w_min`).
    factor: f64,
    inv_factor: f64,
}

impl LowSensingVariant {
    /// A freshly injected packet (window `w_min`).
    pub fn new(cfg: VariantConfig) -> Self {
        cfg.validate();
        let mut v = LowSensingVariant {
            cfg,
            w: cfg.w_min,
            p_listen: 0.0,
            p_send: 0.0,
            p_access: 0.0,
            inv_ln_q_access: 0.0,
            p_send_given_listen: 0.0,
            p_send_given_access: 0.0,
            factor: 0.0,
            inv_factor: 0.0,
        };
        v.recompute();
        v
    }

    /// Current window.
    pub fn window(&self) -> f64 {
        self.w
    }

    /// The configuration.
    pub fn config(&self) -> &VariantConfig {
        &self.cfg
    }

    // Refreshes every window-derived cache; the only place the variant
    // evaluates logarithms or divides.
    fn recompute(&mut self) {
        self.p_listen =
            (self.cfg.c * self.w.ln().powi(self.cfg.listen_exponent) / self.w).clamp(0.0, 1.0);
        self.p_send = 1.0 / self.w;
        self.factor = match self.cfg.update {
            UpdateRule::Gentle => 1.0 + 1.0 / (self.cfg.c * self.w.ln()),
            UpdateRule::Factor(f) => f,
        };
        self.inv_factor = 1.0 / self.factor;
        self.p_access = match self.cfg.coupling {
            Coupling::Coupled => self.p_listen.max(self.p_send),
            Coupling::Independent => 1.0 - (1.0 - self.p_listen) * (1.0 - self.p_send),
        };
        self.inv_ln_q_access = if self.p_access <= 0.0 || self.p_access >= 1.0 {
            // Degenerate: the wake draws short-circuit before using this.
            0.0
        } else if self.p_access < 1e-8 {
            // `1 - p` rounds to 1 here; `ln_1p` keeps full precision.
            1.0 / (-self.p_access).ln_1p()
        } else {
            1.0 / fast_ln(1.0 - self.p_access)
        };
        self.p_send_given_listen = self.p_send / self.p_listen;
        self.p_send_given_access = self.p_send / self.p_access;
    }

    fn apply(&mut self, fb: Feedback) {
        // Divide-free window update against the cached factor / reciprocal
        // pair; a back-on clamped at the floor skips the recompute (the
        // window and every cache are unchanged).
        let new_w = match fb {
            Feedback::Empty => (self.w * self.inv_factor).max(self.cfg.w_min),
            Feedback::Noisy => self.w * self.factor,
            Feedback::Success => return,
        };
        if new_w == self.w {
            return;
        }
        self.w = new_w;
        self.recompute();
    }

    /// Per-slot probability of touching the channel at all.
    pub fn access_probability(&self) -> f64 {
        self.p_access
    }
}

impl Protocol for LowSensingVariant {
    fn intent(&mut self, rng: &mut SimRng) -> Intent {
        match self.cfg.coupling {
            Coupling::Coupled => {
                if !rng.bernoulli(self.p_listen) {
                    return Intent::Sleep;
                }
                // Conditional send probability p_send/p_listen keeps the
                // unconditional rate at exactly 1/w.
                if rng.bernoulli(self.p_send_given_listen) {
                    Intent::Send
                } else {
                    Intent::Listen
                }
            }
            Coupling::Independent => {
                let send = rng.bernoulli(self.p_send);
                let listen = rng.bernoulli(self.p_listen);
                if send {
                    Intent::Send
                } else if listen {
                    Intent::Listen
                } else {
                    Intent::Sleep
                }
            }
        }
    }

    fn observe(&mut self, obs: &Observation) {
        self.apply(obs.feedback);
    }

    fn send_probability(&self) -> f64 {
        self.p_send
    }

    fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
        // One `fast_ln(U)` multiply against the cached reciprocal —
        // bit-identical per lane to the 4-wide `next_wake4` below (both
        // route through the `geometric_inv` family).
        Some(geometric_inv(rng, self.p_access, self.inv_ln_q_access))
    }
}

impl SparseProtocol for LowSensingVariant {
    fn send_on_access(&mut self, rng: &mut SimRng) -> bool {
        rng.bernoulli(self.p_send_given_access)
    }

    // Variants listen without sending, so the sparse engine's wake pass
    // feeds their listener cohorts through this: four geometric redraws at
    // per-lane cached access probabilities, uniforms drawn in ascending
    // lane order, the `ln U`s 4-wide.
    fn next_wake4(states: &mut [&mut Self; 4], rng: &mut SimRng) -> [Option<u64>; 4] {
        let p = [
            states[0].p_access,
            states[1].p_access,
            states[2].p_access,
            states[3].p_access,
        ];
        let inv = [
            states[0].inv_ln_q_access,
            states[1].inv_ln_q_access,
            states[2].inv_ln_q_access,
            states[3].inv_ln_q_access,
        ];
        geometric4_inv(rng, p, inv).map(Some)
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

    fn obs(fb: Feedback) -> Observation {
        Observation {
            slot: 0,
            feedback: fb,
            sent: false,
            succeeded: false,
        }
    }

    #[test]
    fn paper_config_matches_core_probabilities() {
        let v = LowSensingVariant::new(VariantConfig::paper(0.5, 4.0));
        let core = lowsense::LowSensing::new(lowsense::Params::new(0.5, 4.0).unwrap());
        assert!((v.access_probability() - core.access_probability()).abs() < 1e-12);
        assert!((v.send_probability() - core.send_probability()).abs() < 1e-12);
    }

    #[test]
    fn factor_rule_doubles_and_halves() {
        let cfg = VariantConfig {
            update: UpdateRule::Factor(2.0),
            ..VariantConfig::paper(0.5, 4.0)
        };
        let mut v = LowSensingVariant::new(cfg);
        v.observe(&obs(Feedback::Noisy));
        assert_eq!(v.window(), 8.0);
        v.observe(&obs(Feedback::Noisy));
        assert_eq!(v.window(), 16.0);
        v.observe(&obs(Feedback::Empty));
        assert_eq!(v.window(), 8.0);
    }

    #[test]
    fn exponent_zero_listens_rarely() {
        let cfg = VariantConfig {
            listen_exponent: 0,
            c: 1.0,
            ..VariantConfig::paper(1.0, 4.0)
        };
        let v = LowSensingVariant::new(cfg);
        // p_listen = c/w = 0.25 at w=4.
        assert!((v.access_probability() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn send_rate_is_one_over_w_in_both_couplings() {
        for coupling in [Coupling::Coupled, Coupling::Independent] {
            let cfg = VariantConfig {
                coupling,
                ..VariantConfig::paper(0.5, 4.0)
            };
            let mut v = LowSensingVariant::new(cfg);
            // Move the window up a bit first.
            for _ in 0..10 {
                v.observe(&obs(Feedback::Noisy));
            }
            let mut rng = SimRng::new(1);
            let n = 300_000;
            let sends = (0..n)
                .filter(|_| matches!(v.intent(&mut rng), Intent::Send))
                .count();
            let rate = sends as f64 / n as f64;
            let expect = 1.0 / v.window();
            assert!(
                (rate - expect).abs() < 0.2 * expect + 0.001,
                "{coupling:?}: rate {rate} expect {expect}"
            );
        }
    }

    #[test]
    fn all_variants_drain_a_batch() {
        let mut configs = vec![VariantConfig::paper(0.5, 4.0)];
        configs.push(VariantConfig {
            listen_exponent: 1,
            ..configs[0]
        });
        configs.push(VariantConfig {
            update: UpdateRule::Factor(2.0),
            ..configs[0]
        });
        configs.push(VariantConfig {
            coupling: Coupling::Independent,
            ..configs[0]
        });
        for cfg in configs {
            let r = run_sparse(
                &SimConfig::new(9),
                Batch::new(200),
                NoJam,
                |_| LowSensingVariant::new(cfg),
                &mut NoHooks,
            );
            assert!(r.drained(), "variant {cfg:?} failed to drain");
        }
    }

    #[test]
    fn caches_track_the_window_across_walks() {
        // After any feedback walk, every cached derived value must equal a
        // fresh recompute from the current window — the audit that the
        // caches cannot go stale (the old code recomputed `ln(1-p_access)`
        // per draw and the update factor per observe; now both are cached).
        let configs = [
            VariantConfig::paper(0.5, 4.0),
            VariantConfig {
                listen_exponent: 1,
                ..VariantConfig::paper(0.5, 4.0)
            },
            VariantConfig {
                update: UpdateRule::Factor(2.0),
                ..VariantConfig::paper(0.5, 4.0)
            },
            VariantConfig {
                coupling: Coupling::Independent,
                ..VariantConfig::paper(0.5, 4.0)
            },
        ];
        for cfg in configs {
            let mut v = LowSensingVariant::new(cfg);
            let mut seq = SimRng::new(21);
            for _ in 0..1_000 {
                let fb = match seq.range_u64(3) {
                    0 => Feedback::Empty,
                    1 => Feedback::Noisy,
                    _ => Feedback::Success,
                };
                v.observe(&obs(fb));
                let mut fresh = v;
                fresh.recompute();
                assert_eq!(v.p_listen.to_bits(), fresh.p_listen.to_bits());
                assert_eq!(v.p_send.to_bits(), fresh.p_send.to_bits());
                assert_eq!(v.p_access.to_bits(), fresh.p_access.to_bits());
                assert_eq!(
                    v.inv_ln_q_access.to_bits(),
                    fresh.inv_ln_q_access.to_bits(),
                    "cfg {cfg:?} w {}",
                    v.window()
                );
                assert_eq!(v.factor.to_bits(), fresh.factor.to_bits());
            }
        }
    }

    #[test]
    fn batched_wake_matches_scalar_bitwise() {
        // The cached-reciprocal draws must keep the scalar/4-wide pair in
        // lockstep (the sparse engine uses next_wake4 on cohorts while the
        // reference engine draws scalars).
        let mut lanes: Vec<LowSensingVariant> = (0..4)
            .map(|i| {
                let mut v = LowSensingVariant::new(VariantConfig::paper(0.5, 4.0));
                for _ in 0..i * 3 {
                    v.observe(&obs(Feedback::Noisy));
                }
                v
            })
            .collect();
        let mut scalar = lanes.clone();
        let mut rng_b = SimRng::new(55);
        let mut rng_s = SimRng::new(55);
        for _ in 0..2_000 {
            let [a, b, c, d] = &mut lanes[..] else {
                unreachable!()
            };
            let batch = LowSensingVariant::next_wake4(&mut [a, b, c, d], &mut rng_b);
            let mut seq = [None; 4];
            for (o, v) in seq.iter_mut().zip(scalar.iter_mut()) {
                *o = v.next_wake(&mut rng_s);
            }
            assert_eq!(batch, seq);
        }
        assert_eq!(rng_b.next_u64(), rng_s.next_u64(), "stream lockstep");
    }

    #[test]
    #[should_panic(expected = "factor must exceed 1")]
    fn validates_factor() {
        LowSensingVariant::new(VariantConfig {
            update: UpdateRule::Factor(1.0),
            ..VariantConfig::paper(0.5, 4.0)
        });
    }
}
