//! Backoff without collision detection — in the spirit of Jiang–Zheng
//! (arXiv:2111.06650).
//!
//! On the no-collision-detection channel a listener cannot tell a
//! collision from silence, so the classical "noise means contention"
//! update rule has nothing to bite on. The robust alternative keys every
//! update off the only trustworthy signals the channel still carries:
//!
//! * a station's **own failed transmission** (implicit acknowledgement
//!   failure) is evidence of contention — grow the window;
//! * an **overheard success** is evidence the channel is being won (and a
//!   contender just left) — shrink the window;
//! * everything else (silence, which may hide a collision; noise under a
//!   richer channel) is uninformative — change nothing.
//!
//! [`NoCdBackoff`] implements that rule over a multiplicative window
//! ladder: stations access the channel with probability `2/w` and, on each
//! access, flip a fair coin between transmitting and listening, so the
//! success signal actually reaches its neighbours. The protocol never
//! reads anything a no-CD channel cannot provide, which makes it a fair
//! baseline under *every* [`FeedbackModel`]: on the richer ternary channel
//! it simply ignores the extra information.
//!
//! [`FeedbackModel`]: lowsense_sim::feedback::FeedbackModel

use lowsense_sim::dist::geometric;
use lowsense_sim::feedback::{Feedback, Intent, Observation};
use lowsense_sim::protocol::{Protocol, SparseProtocol};
use lowsense_sim::rng::SimRng;

/// Multiplicative-window backoff driven only by no-CD-observable signals.
///
/// # Examples
///
/// ```
/// use lowsense_baselines::NoCdBackoff;
/// use lowsense_sim::prelude::*;
///
/// let result = run_sparse(
///     &SimConfig::new(1)
///         .until_slot(2_000_000)
///         .model(ChannelModel::NoCollisionDetection),
///     Batch::new(48),
///     NoJam,
///     |_| NoCdBackoff::new(4.0, 4096.0, 2.0),
///     &mut NoHooks,
/// );
/// assert!(result.drained());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NoCdBackoff {
    w: f64,
    w_min: f64,
    w_max: f64,
    growth: f64,
}

impl NoCdBackoff {
    /// Creates a station with initial (and minimum) window `w0`, growing by
    /// `growth` on each failed transmission up to `w_max` and shrinking by
    /// the same factor on each overheard success down to `w0`.
    ///
    /// # Panics
    ///
    /// Panics unless `w0 >= 2`, `w_max >= w0`, and `growth > 1` (all
    /// finite): `w >= 2` keeps the access probability `2/w` a probability.
    pub fn new(w0: f64, w_max: f64, growth: f64) -> Self {
        assert!(
            w0.is_finite() && w0 >= 2.0,
            "initial window {w0} must be finite and >= 2"
        );
        assert!(
            w_max.is_finite() && w_max >= w0,
            "w_max {w_max} must be finite and >= w0 {w0}"
        );
        assert!(
            growth.is_finite() && growth > 1.0,
            "growth {growth} must be finite and > 1"
        );
        NoCdBackoff {
            w: w0,
            w_min: w0,
            w_max,
            growth,
        }
    }

    /// Current window length `w`.
    pub fn window(&self) -> f64 {
        self.w
    }

    /// Probability of touching the channel (send or listen) in a slot.
    fn access_probability(&self) -> f64 {
        (2.0 / self.w).min(1.0)
    }
}

impl Protocol for NoCdBackoff {
    fn intent(&mut self, rng: &mut SimRng) -> Intent {
        if !rng.bernoulli(self.access_probability()) {
            return Intent::Sleep;
        }
        // Fair coin between transmitting and eavesdropping: listening half
        // the time is what carries the success signal to the window rule.
        if rng.bernoulli(0.5) {
            Intent::Send
        } else {
            Intent::Listen
        }
    }

    fn observe(&mut self, obs: &Observation) {
        if obs.sent {
            if obs.succeeded {
                return; // departing
            }
            // Own transmission failed — the one contention signal a no-CD
            // sender always gets.
            self.w = (self.w * self.growth).min(self.w_max);
        } else {
            match obs.feedback {
                // Someone won the channel (and left): re-tighten.
                Feedback::Success => self.w = (self.w / self.growth).max(self.w_min),
                // Silence may hide a collision on this channel; noise (only
                // visible under richer models) is deliberately ignored too.
                Feedback::Empty | Feedback::Noisy => {}
            }
        }
    }

    fn send_probability(&self) -> f64 {
        0.5 * self.access_probability()
    }

    fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
        Some(geometric(rng, self.access_probability()))
    }
}

impl SparseProtocol for NoCdBackoff {
    fn send_on_access(&mut self, rng: &mut SimRng) -> bool {
        rng.bernoulli(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowsense_sim::arrivals::Batch;
    use lowsense_sim::config::SimConfig;
    use lowsense_sim::engine::run_sparse;
    use lowsense_sim::feedback::ChannelModel;
    use lowsense_sim::hooks::NoHooks;
    use lowsense_sim::jamming::NoJam;

    fn own_failure(slot: u64) -> Observation {
        Observation {
            slot,
            feedback: Feedback::Noisy,
            sent: true,
            succeeded: false,
        }
    }

    fn heard(slot: u64, feedback: Feedback) -> Observation {
        Observation {
            slot,
            feedback,
            sent: false,
            succeeded: false,
        }
    }

    #[test]
    fn own_failures_grow_the_window_to_the_cap() {
        let mut p = NoCdBackoff::new(4.0, 32.0, 2.0);
        assert_eq!(p.window(), 4.0);
        for s in 0..5 {
            p.observe(&own_failure(s));
        }
        // 4 → 8 → 16 → 32, then capped.
        assert_eq!(p.window(), 32.0);
    }

    #[test]
    fn overheard_successes_shrink_the_window_to_the_floor() {
        let mut p = NoCdBackoff::new(4.0, 64.0, 2.0);
        for s in 0..3 {
            p.observe(&own_failure(s));
        }
        assert_eq!(p.window(), 32.0);
        for s in 0..5 {
            p.observe(&heard(s, Feedback::Success));
        }
        // 32 → 16 → 8 → 4, then floored at w0.
        assert_eq!(p.window(), 4.0);
    }

    #[test]
    fn silence_and_noise_are_ignored_as_a_listener() {
        let mut p = NoCdBackoff::new(8.0, 64.0, 2.0);
        p.observe(&heard(0, Feedback::Empty));
        p.observe(&heard(1, Feedback::Noisy));
        assert_eq!(p.window(), 8.0);
    }

    #[test]
    fn own_success_leaves_state_alone() {
        let mut p = NoCdBackoff::new(4.0, 64.0, 2.0);
        p.observe(&Observation {
            slot: 0,
            feedback: Feedback::Success,
            sent: true,
            succeeded: true,
        });
        assert_eq!(p.window(), 4.0);
    }

    #[test]
    fn drains_a_batch_on_the_no_cd_channel() {
        let cfg = SimConfig::new(7)
            .until_slot(2_000_000)
            .model(ChannelModel::NoCollisionDetection);
        let r = run_sparse(
            &cfg,
            Batch::new(64),
            NoJam,
            |_| NoCdBackoff::new(4.0, 4096.0, 2.0),
            &mut NoHooks,
        );
        assert!(r.drained(), "undrained: {:?}", r.totals);
        assert!(r.totals.listens > 0, "the listener half never fired");
    }

    #[test]
    fn also_runs_on_the_ternary_channel() {
        // The protocol reads nothing ternary-specific, so the default
        // channel must work too (it just carries unused information).
        let cfg = SimConfig::new(8).until_slot(2_000_000);
        let r = run_sparse(
            &cfg,
            Batch::new(64),
            NoJam,
            |_| NoCdBackoff::new(4.0, 4096.0, 2.0),
            &mut NoHooks,
        );
        assert!(r.drained(), "undrained: {:?}", r.totals);
    }
}
