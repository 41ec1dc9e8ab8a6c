//! The interface between packets and the channel.
//!
//! A [`Protocol`] is the per-packet state machine: each slot it declares an
//! [`Intent`] (sleep / listen / send) and receives an [`Observation`] for
//! every slot it accessed. The adversary never sees inside a protocol; the
//! engines never interpret its state.
//!
//! [`SparseProtocol`] is the refinement that unlocks the exact event-driven
//! engine: protocols whose state is frozen between channel accesses and
//! whose next access time is samplable in closed form. Its defaulted
//! [`next_wake4`](SparseProtocol::next_wake4) method is the batched wake
//! draw: the sparse engine feeds each slot's cohorts (its listeners and,
//! after a failed slot, its senders) through it four at a time, and the
//! low-sensing protocols override it with a 4-wide geometric redraw that
//! stays bit-identical to the scalar path.

use crate::feedback::{Intent, Observation};
use crate::rng::SimRng;

/// Lane count of the batched wake draw
/// ([`SparseProtocol::next_wake4`]).
///
/// Four `f64` lanes fill one AVX register (and two SSE2 registers), which
/// is the widest batch the auto-vectorizer reliably profits from without
/// `std::simd`; the sparse engine chunks its listener and losing-sender
/// cohorts at this width and draws the remainder through the scalar
/// [`Protocol::next_wake`].
pub const BATCH_LANES: usize = 4;

/// Per-packet contention-resolution state machine.
///
/// Implementations must be cheap to clone (the engines clone state around
/// observations so analysis hooks can see before/after pairs).
pub trait Protocol: Clone {
    /// Samples the packet's action for the current slot.
    ///
    /// Called exactly once per slot per active packet by dense engines.
    fn intent(&mut self, rng: &mut SimRng) -> Intent;

    /// Delivers the outcome of a slot this packet accessed.
    ///
    /// Not called for slots the packet slept through, matching the model: a
    /// sleeping packet learns nothing. A packet that sent and succeeded
    /// departs immediately after this call.
    fn observe(&mut self, obs: &Observation);

    /// The packet's current unconditional probability of transmitting in the
    /// next slot.
    ///
    /// Engines maintain the system *contention* `C(t) = Σ_u p_u` (paper
    /// §4.1) incrementally from this value; it must stay constant between
    /// calls to [`Protocol::observe`].
    fn send_probability(&self) -> f64;

    /// Samples the number of slots the packet sleeps before its next channel
    /// access, if the protocol can express that wait in closed form.
    ///
    /// This is the hook the event-driven engines schedule from: a packet
    /// returning `Some(delay)` at a moment where the first candidate slot is
    /// `s` promises to sleep through `delay` slots and access the channel in
    /// slot `s + delay` (the engine chooses `s` as the injection slot for
    /// fresh packets and `t + 1` after an access in slot `t`). `None` — the
    /// default — means the wait is not statically samplable; engines that
    /// require event scheduling treat such a packet as never waking on its
    /// own, and the slot-stepping engines never call this method, so the
    /// default preserves the dense slot-by-slot behaviour exactly.
    fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
        let _ = rng;
        None
    }
}

/// A protocol whose behaviour between channel accesses is statically
/// samplable, enabling exact event-driven simulation.
///
/// # Contract
///
/// * The state (and therefore [`Protocol::send_probability`]) changes only
///   inside [`Protocol::observe`].
/// * [`Protocol::next_wake`] returns `Some(delay)` for every reachable
///   state (a `None` is treated by the event-driven engines as "never wakes
///   again", which is only meaningful for degenerate protocols).
/// * The marginal distribution of (access slots, send decisions) induced by
///   [`Protocol::next_wake`] and
///   [`send_on_access`](SparseProtocol::send_on_access) must equal that
///   induced by [`Protocol::intent`]; the cross-engine equivalence tests
///   enforce this statistically.
pub trait SparseProtocol: Protocol {
    /// Given that the packet accesses the channel, samples whether it
    /// transmits (otherwise it listens only).
    fn send_on_access(&mut self, rng: &mut SimRng) -> bool;

    /// Samples four packets' next-wake delays at once.
    ///
    /// The batched draw of the sparse engine's *cohort sweep*, which feeds
    /// each slot's listeners, and the senders of a slot that did not
    /// succeed, through it four at a time. It consumes
    /// randomness, so the contract pins the order: RNG values must be
    /// drawn **in ascending lane order** (lane 0 first; the engine fills
    /// lanes in cohort order, i.e. the slot's insertion order), with each
    /// lane drawing exactly what its scalar [`Protocol::next_wake`] would
    /// (including lanes that draw nothing), and each lane's returned delay
    /// must be bit-identical to the scalar call's: the sparse engine uses
    /// this method while its reference oracle uses the scalar path, and
    /// `tests/sparse_equivalence.rs` compares complete `RunResult`s with
    /// exact equality. Overrides draw the lanes' uniforms sequentially and
    /// then evaluate the logarithms 4-wide (see
    /// [`geometric4_inv`](crate::dist::geometric4_inv)); the default falls
    /// back to the scalar method per lane, which is bit-identical by
    /// definition. Protocols that listen reach it through their listener
    /// cohorts; always-send protocols (the BEB family, ALOHA, polynomial
    /// backoff) reach it through their losing senders, and the default
    /// serves them without an override.
    fn next_wake4(
        states: &mut [&mut Self; BATCH_LANES],
        rng: &mut SimRng,
    ) -> [Option<u64>; BATCH_LANES]
    where
        Self: Sized,
    {
        let mut out = [None; BATCH_LANES];
        for (o, s) in out.iter_mut().zip(states.iter_mut()) {
            *o = s.next_wake(rng);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::geometric;
    use crate::feedback::Feedback;

    /// Minimal memoryless protocol for exercising the traits: access with
    /// probability `q`, always send on access.
    #[derive(Debug, Clone)]
    struct FixedProb {
        q: f64,
    }

    impl Protocol for FixedProb {
        fn intent(&mut self, rng: &mut SimRng) -> Intent {
            if rng.bernoulli(self.q) {
                Intent::Send
            } else {
                Intent::Sleep
            }
        }

        fn observe(&mut self, _obs: &Observation) {}

        fn send_probability(&self) -> f64 {
            self.q
        }

        fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
            Some(geometric(rng, self.q))
        }
    }

    impl SparseProtocol for FixedProb {
        fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
            true
        }
    }

    #[test]
    fn fixed_prob_intent_rate_matches_send_probability() {
        let mut p = FixedProb { q: 0.25 };
        let mut rng = SimRng::new(1);
        let n = 100_000;
        let sends = (0..n)
            .filter(|_| matches!(p.intent(&mut rng), Intent::Send))
            .count();
        let rate = sends as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn sparse_delay_matches_geometric_mean() {
        let mut p = FixedProb { q: 0.25 };
        let mut rng = SimRng::new(2);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| p.next_wake(&mut rng).unwrap()).sum();
        let mean = sum as f64 / n as f64;
        // E[geometric(0.25)] = 3.
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn observe_is_callable() {
        let mut p = FixedProb { q: 0.5 };
        p.observe(&Observation {
            slot: 0,
            feedback: Feedback::Empty,
            sent: false,
            succeeded: false,
        });
        assert_eq!(p.send_probability(), 0.5);
    }
}
