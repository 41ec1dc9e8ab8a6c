//! Chang–Jin–Pettie-style multiplicative weight updates (SOSA 2019).
//!
//! The short-feedback-loop antithesis of `LOW-SENSING BACKOFF`: every packet
//! **listens in every slot** and multiplicatively adjusts its transmission
//! probability from the ternary feedback — up on silence, down on noise,
//! unchanged on success. Constant throughput, excellent constants, but the
//! listening cost is `Θ(lifetime)` per packet: this is the baseline that
//! makes "fully energy-efficient" measurable (experiments F6, T4).
//!
//! Because the update depends only on the common feedback, all packets
//! injected in the same slot share state forever, so the protocol also
//! implements [`SymmetricProtocol`] and runs at scale under the grouped
//! engine.

use lowsense_sim::dist::geometric;
use lowsense_sim::engine::SymmetricProtocol;
use lowsense_sim::feedback::{Feedback, Intent, Observation};
use lowsense_sim::protocol::{Protocol, SparseProtocol};
use lowsense_sim::rng::SimRng;

/// Multiplicative step `γ = e^{1/4}`: silence multiplies `p` by `γ`, noise
/// divides it. The literal is `0.25f64.exp()` to the bit (pinned by a test).
const GAMMA: f64 = 1.2840254166877414;

/// Initial and ceiling transmission probability.
const P_MAX: f64 = 0.25;

/// Per-packet (equivalently, per-cohort) state of the MWU baseline.
///
/// `γ = e^{1/4}` and `p_init = p_max = 1/4`, the shape used in the paper's
/// discussion of \[36\]; the exact constants are immaterial for the
/// baseline's role here.
#[derive(Debug, Clone, Copy)]
pub struct CjpMwu {
    p: f64,
}

impl Default for CjpMwu {
    /// A freshly injected packet: `p = 1/4`.
    fn default() -> Self {
        CjpMwu { p: P_MAX }
    }
}

impl CjpMwu {
    /// Current transmission probability.
    pub fn probability(&self) -> f64 {
        self.p
    }

    fn update(&mut self, fb: Feedback) {
        match fb {
            Feedback::Empty => self.p = (self.p * GAMMA).min(P_MAX),
            Feedback::Noisy => self.p /= GAMMA,
            Feedback::Success => {}
        }
    }
}

impl Protocol for CjpMwu {
    fn intent(&mut self, rng: &mut SimRng) -> Intent {
        // Listens every slot; sends with probability p.
        if rng.bernoulli(self.p) {
            Intent::Send
        } else {
            Intent::Listen
        }
    }

    fn observe(&mut self, obs: &Observation) {
        self.update(obs.feedback);
    }

    fn send_probability(&self) -> f64 {
        self.p
    }

    /// Every slot is an access: the sparse engine degenerates to dense
    /// (correct, but without speedup — use the grouped engine at scale).
    fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
        Some(geometric(rng, 1.0))
    }
}

impl SparseProtocol for CjpMwu {
    fn send_on_access(&mut self, rng: &mut SimRng) -> bool {
        rng.bernoulli(self.p)
    }
}

impl SymmetricProtocol for CjpMwu {
    fn send_probability(&self) -> f64 {
        self.p
    }

    fn on_feedback(&mut self, fb: Feedback) {
        self.update(fb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowsense_sim::arrivals::Batch;
    use lowsense_sim::config::SimConfig;
    use lowsense_sim::engine::{run_dense, run_grouped};
    use lowsense_sim::hooks::NoHooks;
    use lowsense_sim::jamming::NoJam;

    #[test]
    fn updates_move_probability() {
        let mut m = CjpMwu::default();
        let p0 = m.probability();
        m.on_feedback(Feedback::Noisy);
        assert!(m.probability() < p0);
        m.on_feedback(Feedback::Empty);
        assert!((m.probability() - p0).abs() < 1e-12);
        // Ceiling binds.
        m.on_feedback(Feedback::Empty);
        assert_eq!(m.probability(), 0.25);
        m.on_feedback(Feedback::Success);
        assert_eq!(m.probability(), 0.25);
    }

    #[test]
    fn drains_batch_with_constant_throughput() {
        let r = run_grouped(&SimConfig::new(1), Batch::new(2000), NoJam, |_| {
            CjpMwu::default()
        });
        assert!(r.drained());
        assert!(r.totals.throughput() > 0.15, "{}", r.totals.throughput());
    }

    #[test]
    fn listens_every_slot_of_life() {
        let r = run_grouped(&SimConfig::new(2), Batch::new(100), NoJam, |_| {
            CjpMwu::default()
        });
        let ps = r.per_packet.as_ref().unwrap();
        for p in ps {
            let lifetime = p.departed.unwrap() - p.injected + 1;
            assert_eq!(p.accesses(), lifetime, "accesses == lifetime");
        }
    }

    #[test]
    fn grouped_and_dense_agree_statistically() {
        let mean = |f: &dyn Fn(u64) -> u64| (0..6).map(f).sum::<u64>() as f64 / 6.0;
        let dense = mean(&|s| {
            run_dense(
                &SimConfig::new(s),
                Batch::new(100),
                NoJam,
                |_| CjpMwu::default(),
                &mut NoHooks,
            )
            .totals
            .active_slots
        });
        let grouped = mean(&|s| {
            run_grouped(&SimConfig::new(s + 77), Batch::new(100), NoJam, |_| {
                CjpMwu::default()
            })
            .totals
            .active_slots
        });
        assert!(
            (dense - grouped).abs() / dense < 0.3,
            "dense {dense} grouped {grouped}"
        );
    }

    #[test]
    fn gamma_is_exp_one_quarter_bitwise() {
        assert_eq!(GAMMA.to_bits(), 0.25f64.exp().to_bits());
        assert_eq!(std::mem::size_of::<CjpMwu>(), 8);
    }
}
