//! The ablation variants of Figure 1 (A2–A4) under test: one parameter set
//! per ablation axis, and checks that [`LowSensing`] runs each rule as the
//! experiments drive it, through both engines' draws.

use crate::params::{Coupling, Params, Rule, Update};

/// One parameter set per ablation axis, each one choice from the paper's:
/// `k = 0` (at `c = 1`, the least a coupled `k = 0` admits), doubling, and
/// independent coins.
pub(crate) fn ablation_samples() -> [Params; 3] {
    let [mut k0, mut doubling, mut independent] = [Rule::PAPER; 3];
    k0.listen_exponent = 0;
    doubling.update = Update::Factor(2.0);
    independent.coupling = Coupling::Independent;
    [(1.0, k0), (0.5, doubling), (0.5, independent)]
        .map(|(c, rule)| Params::new(c, 4.0).and_then(|p| p.with_rule(rule)).unwrap())
}

mod tests {
    use super::*;
    use crate::ladder::derive;
    use crate::{LadderRow, LowSensing};
    use lowsense_sim::feedback::{Feedback, Intent, Observation};
    use lowsense_sim::protocol::{Protocol, SparseProtocol};
    use lowsense_sim::rng::SimRng;

    fn obs(feedback: Feedback) -> Observation {
        Observation {
            slot: 0,
            feedback,
            sent: false,
            succeeded: false,
        }
    }

    /// One step of a uniformly random feedback walk.
    fn step(seq: &mut SimRng) -> Observation {
        obs([Feedback::Empty, Feedback::Noisy, Feedback::Success][seq.range_u64(3) as usize])
    }

    #[test]
    fn paper_config_matches_core_probabilities() {
        // The paper rule, asked for by name, is the default: the same rung
        // records, so the same probabilities, along any walk.
        let named = Params::new(0.5, 4.0).unwrap().with_rule(Rule::PAPER);
        let mut named = LowSensing::new(named.unwrap());
        let mut core = LowSensing::new(Params::new(0.5, 4.0).unwrap());
        let mut seq = SimRng::new(5);
        for _ in 0..1_000 {
            assert!(named == core, "{named:?} vs {core:?}");
            let (a, b) = (named.access_probability(), core.access_probability());
            assert_eq!(a.to_bits(), b.to_bits());
            let (a, b) = (named.send_probability(), core.send_probability());
            assert_eq!(a.to_bits(), b.to_bits());
            let o = step(&mut seq);
            named.observe(&o);
            core.observe(&o);
        }
    }

    #[test]
    fn exponent_zero_listens_rarely() {
        // k = 0 listens at c/w, a quarter of the slots at w_min = 4, c = 1
        // (the paper's k = 3 listens at c·ln³(w)/w), and each listen sends.
        let mut p = LowSensing::new(ablation_samples()[0]);
        assert_eq!(p.access_probability(), 0.25);
        for _ in 0..200 {
            let w = p.window();
            assert_eq!(p.access_probability().to_bits(), (1.0 / w).to_bits());
            assert_eq!(p.send_probability(), p.access_probability(), "w={w}");
            p.observe(&obs(Feedback::Noisy));
        }
    }

    #[test]
    fn send_rate_is_one_over_w_in_both_couplings() {
        // Sampled rather than read off the row: the dense engine's intent
        // coins and the sparse engine's access gaps and send coin both send
        // at 1/w, under coupled coins and under independent ones.
        for params in [Params::default(), ablation_samples()[2]] {
            let mut p = LowSensing::new(params);
            for _ in 0..10 {
                p.observe(&obs(Feedback::Noisy));
            }
            let expect = 1.0 / p.window();
            let mut rng = SimRng::new(1);
            let n = 1_000_000;
            let sends = (0..n)
                .filter(|_| matches!(p.intent(&mut rng), Intent::Send))
                .count();
            let dense = sends as f64 / n as f64;
            let (mut slots, mut sends) = (0u64, 0u64);
            for _ in 0..n {
                slots += p.next_wake(&mut rng).unwrap() + 1;
                sends += u64::from(p.send_on_access(&mut rng));
            }
            let sparse = sends as f64 / slots as f64;
            for rate in [dense, sparse] {
                assert!(
                    (rate - expect).abs() < 0.1 * expect,
                    "{:?}: rate {rate} expect {expect}",
                    params.rule()
                );
            }
        }
    }

    #[test]
    fn caches_track_the_window_across_walks() {
        // After any feedback walk the state's row is what `derive` makes of
        // its window, and the window moved as the rule says: up on noise
        // (but at the top), down on silence (but at the floor), by exactly
        // the factor under a constant-factor rule.
        let bits = |r: &LadderRow| {
            [r.p_listen, r.p_send_given_listen, r.inv_ln_q_listen].map(f64::to_bits)
        };
        for params in std::iter::once(Params::default()).chain(ablation_samples()) {
            let (mut p, floor) = (LowSensing::new(params), params.w_min());
            let mut seq = SimRng::new(21);
            for _ in 0..1_000 {
                let (w, o) = (p.window(), step(&mut seq));
                p.observe(&o);
                let (row, d) = (p.ladder().row(p.level()), derive(&params, p.window()).row);
                assert_eq!(bits(row), bits(&d), "{params:?} w {}", p.window());
                let top = p.level() == p.ladder().top_level();
                let moved = match (o.feedback, params.rule().update) {
                    (Feedback::Success, _) => p.window() == w,
                    (Feedback::Noisy, _) if top && p.window() == w => true,
                    (Feedback::Noisy, Update::Factor(f)) => p.window() == w * f,
                    (Feedback::Noisy, Update::Gentle) => p.window() > w,
                    (Feedback::Empty, Update::Factor(f)) => p.window() == (w / f).max(floor),
                    (Feedback::Empty, Update::Gentle) => p.window() < w || p.window() == floor,
                };
                assert!(
                    moved,
                    "{params:?}: {:?} took w {w} to {}",
                    o.feedback,
                    p.window()
                );
            }
        }
    }

    #[test]
    fn batched_wake_matches_scalar_bitwise() {
        // One cohort may mix rules: four lanes on four ladders (the paper's
        // and each ablation's), spread up their ladders, draw four-wide
        // exactly as they draw alone, and walk the same rungs.
        let rules = std::iter::once(Params::default()).chain(ablation_samples());
        let mut scalar: Vec<LowSensing> = rules
            .enumerate()
            .map(|(i, params)| {
                let mut p = LowSensing::new(params);
                for _ in 0..i * 3 {
                    p.observe(&obs(Feedback::Noisy));
                }
                p
            })
            .collect();
        let mut batched = scalar.clone();
        let (mut rng_s, mut rng_b, mut seq) = (SimRng::new(55), SimRng::new(55), SimRng::new(8));
        for round in 0..2_000 {
            let o = step(&mut seq);
            let mut delays = [None; 4];
            for (d, p) in delays.iter_mut().zip(scalar.iter_mut()) {
                p.observe(&o);
                *d = p.next_wake(&mut rng_s);
            }
            for p in batched.iter_mut() {
                p.observe(&o);
            }
            let [a, b, c, d] = &mut batched[..] else {
                unreachable!()
            };
            let batch = LowSensing::next_wake4(&mut [a, b, c, d], &mut rng_b);
            assert_eq!(batch, delays, "round {round}");
            assert_eq!(scalar, batched, "round {round}");
        }
        assert_eq!(rng_s.next_u64(), rng_b.next_u64(), "stream lockstep");
    }
}
