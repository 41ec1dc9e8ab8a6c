//! The shared engine substrate.
//!
//! Every engine — dense, sparse, grouped — is a *stepping strategy* over
//! one [`EngineCore`]: the core owns the run's RNG, the arrival cursor, the
//! jammer (adaptive + reactive decision order), slot resolution and
//! metrics, while the strategy owns only its per-packet bookkeeping (an
//! epoch-compacted packet table plus a calendar wake queue, an access
//! heap, or cohort groups) and the order in which slots are visited, up to
//! the run's slot horizon ([`SimConfig::max_slot`]). This is what keeps
//! the three engines semantically interchangeable: the plumbing they share
//! is shared code, not triplicated code.
//!
//! The adversary contract lives here too: arrival processes and jammers are
//! always consulted with a [`SystemView`] of the system as of the end of
//! the previous slot, and a reactive jammer is consulted only after the
//! adaptive decision declined and with the slot's sender set visible
//! (paper §1.1, §1.3).
//!
//! # Logical vs physical time
//!
//! The core is generic over a [`FeedbackModel`]. Models may charge extra
//! *physical* slots for an outcome (costly collisions); the core keeps all
//! scheduling — wake slots, arrivals, jammer decisions, the horizon — in
//! **logical** time and accumulates the model's overhead as a clock
//! `skew`, applied only when recording into metrics. This keeps every
//! stepping strategy's event order identical across models (the sparse
//! oracle suite stays three-way bit-identical), while reported slot
//! numbers, latencies, and `last_slot` reflect physical time. Under
//! [`Ternary`] the skew is identically zero and the slot loop monomorphizes
//! to the pre-model machine code.

use crate::arrivals::ArrivalProcess;
use crate::config::{ArrivalCursor, SimConfig};
use crate::feedback::{resolve_slot, FeedbackModel, SlotOutcome, Ternary};
use crate::jamming::Jammer;
use crate::metrics::{Metrics, RunResult};
use crate::packet::PacketId;
use crate::rng::SimRng;
use crate::time::Slot;
use crate::view::SystemView;

/// Shared state and plumbing for one simulation run.
///
/// Constructed by an engine's entry point from a [`SimConfig`], an arrival
/// process, and a jammer; consumed by [`EngineCore::finish`] into the run's
/// [`RunResult`]. The third parameter is the run's [`FeedbackModel`],
/// defaulting to the paper's [`Ternary`] channel.
#[derive(Debug)]
pub(crate) struct EngineCore<A, J, M = Ternary> {
    /// The run's deterministic RNG. Engines draw protocol coins from it so
    /// one seed fixes the entire execution.
    pub rng: SimRng,
    /// Accounting state; engines attribute per-packet sends/listens through
    /// it directly.
    pub metrics: Metrics,
    seed: u64,
    cursor: ArrivalCursor<A>,
    jammer: J,
    model: M,
    /// Physical-minus-logical clock skew accumulated from model overhead.
    skew: u64,
}

impl<A: ArrivalProcess, J: Jammer, M: FeedbackModel> EngineCore<A, J, M> {
    /// Creates the substrate for one run under an explicit feedback model.
    pub fn with_model(cfg: &SimConfig, arrivals: A, jammer: J, model: M) -> Self {
        EngineCore {
            rng: SimRng::new(cfg.seed),
            metrics: Metrics::new(cfg.metrics),
            seed: cfg.seed,
            cursor: ArrivalCursor::new(arrivals),
            jammer,
            model,
            skew: 0,
        }
    }

    /// Peeks the next arrival event at slot ≥ `t` under the current system
    /// state, honouring the adaptive/non-adaptive consumption contract of
    /// [`crate::arrivals`].
    pub fn peek_arrival(&mut self, t: Slot, backlog: u64, contention: f64) -> Option<(Slot, u32)> {
        let view = SystemView {
            slot: t,
            backlog,
            contention,
            totals: &self.metrics.totals,
        };
        self.cursor.peek(t, &view, &mut self.rng)
    }

    /// Marks the last peeked arrival event as consumed.
    #[inline]
    pub fn consume_arrival(&mut self) {
        self.cursor.consume();
    }

    /// Registers an injected packet and returns its id. The injection is
    /// recorded at physical time so latencies stay internally consistent
    /// under time-dilating models.
    #[inline]
    pub fn note_inject(&mut self, t: Slot) -> PacketId {
        self.metrics.note_inject(t + self.skew)
    }

    /// Marks `id` as departed in logical slot `t`, recorded at physical
    /// time. Engines must route departures through here (not directly via
    /// `metrics`) so skew is applied uniformly.
    #[inline]
    pub fn note_depart(&mut self, id: PacketId, t: Slot) {
        self.metrics.note_depart(id, t + self.skew);
    }

    /// Full jamming decision for slot `t`: the adaptive decision first,
    /// then — only if it declined and the jammer has a reactive component —
    /// the reactive decision over the visible sender set.
    pub fn jam_decision(
        &mut self,
        t: Slot,
        backlog: u64,
        contention: f64,
        senders: &[PacketId],
    ) -> bool {
        let view = SystemView {
            slot: t,
            backlog,
            contention,
            totals: &self.metrics.totals,
        };
        let mut jam = self.jammer.jams(t, &view, &mut self.rng);
        if !jam && self.jammer.is_reactive() {
            jam = self.jammer.reactive_jams(t, senders, &view, &mut self.rng);
        }
        jam
    }

    /// Adaptive-only jamming decision, for slots provably without senders
    /// (a reactive component can never fire on an empty sender set).
    pub fn adaptive_jam(&mut self, t: Slot, backlog: u64, contention: f64) -> bool {
        let view = SystemView {
            slot: t,
            backlog,
            contention,
            totals: &self.metrics.totals,
        };
        self.jammer.jams(t, &view, &mut self.rng)
    }

    /// Resolves slot `t` from the jam decision and sender set, and accounts
    /// it (at physical time). The caller forwards the outcome to its hooks.
    ///
    /// If the feedback model charges overhead for the outcome, the skew
    /// grows *after* the slot is recorded: the slot itself sits at the
    /// current physical time and everything later shifts.
    pub fn resolve(&mut self, t: Slot, jam: bool, senders: &[PacketId]) -> SlotOutcome {
        let outcome = resolve_slot(jam, senders);
        self.metrics.note_slot(t + self.skew, &outcome);
        let extra = self.model.overhead_slots(&outcome);
        if extra > 0 {
            self.skew += extra;
            self.metrics.note_overhead(extra);
        }
        outcome
    }

    /// Accounts a gap `[from, to)` in which no packet accesses the channel.
    ///
    /// With packets in the system (`backlog > 0`) the gap is active: the
    /// jammer's range sampler decides how many of its slots were jammed and
    /// the count is returned (for [`Hooks::on_gap`]). Inactive gaps are not
    /// accounted (the paper ignores inactive slots) and yield `None`.
    ///
    /// [`Hooks::on_gap`]: crate::hooks::Hooks::on_gap
    pub fn account_gap(
        &mut self,
        from: Slot,
        to: Slot,
        backlog: u64,
        contention: f64,
    ) -> Option<u64> {
        if backlog > 0 {
            let jammed = {
                let view = SystemView {
                    slot: from,
                    backlog,
                    contention,
                    totals: &self.metrics.totals,
                };
                self.jammer.count_range(from, to, &view, &mut self.rng)
            };
            self.metrics
                .note_gap(from + self.skew, to + self.skew, true, jammed);
            Some(jammed)
        } else {
            self.metrics
                .note_gap(from + self.skew, to + self.skew, false, 0);
            None
        }
    }

    /// Takes a trajectory sample if the active-slot count crossed a
    /// checkpoint (sampled at physical time).
    #[inline]
    pub fn checkpoint(&mut self, slot: Slot, backlog: u64, contention: f64) {
        self.metrics
            .maybe_checkpoint(slot + self.skew, backlog, contention);
    }

    /// Finalizes the run.
    pub fn finish(self) -> RunResult {
        self.metrics.finish(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::Batch;
    use crate::jamming::{NoJam, PeriodicBurst, ReactiveAny};

    #[test]
    fn arrival_cursor_consumption_via_core() {
        let cfg = SimConfig::new(2);
        let mut core = EngineCore::with_model(&cfg, Batch::new(5), NoJam, Ternary);
        assert_eq!(core.peek_arrival(0, 0, 0.0), Some((0, 5)));
        assert_eq!(core.peek_arrival(0, 0, 0.0), Some((0, 5)), "peek caches");
        core.consume_arrival();
        assert_eq!(core.peek_arrival(1, 5, 0.0), None);
    }

    #[test]
    fn jam_decision_consults_reactive_only_with_senders() {
        let cfg = SimConfig::new(3);
        let mut core = EngineCore::with_model(&cfg, Batch::new(1), ReactiveAny::new(1), Ternary);
        // Adaptive-only path can never fire for a reactive adversary.
        assert!(!core.adaptive_jam(0, 1, 1.0));
        // No senders: reactive declines.
        assert!(!core.jam_decision(1, 1, 1.0, &[]));
        // A sender set triggers it, once (budget 1).
        assert!(core.jam_decision(2, 1, 1.0, &[PacketId(0)]));
        assert!(!core.jam_decision(3, 1, 1.0, &[PacketId(0)]));
    }

    #[test]
    fn resolve_accounts_the_slot() {
        let cfg = SimConfig::new(4);
        let mut core = EngineCore::with_model(&cfg, Batch::new(1), NoJam, Ternary);
        let outcome = core.resolve(7, false, &[PacketId(0)]);
        assert_eq!(outcome, SlotOutcome::Success { id: PacketId(0) });
        assert_eq!(core.metrics.totals.successes, 1);
        assert_eq!(core.metrics.totals.last_slot, 7);
    }

    #[test]
    fn gap_accounting_splits_active_and_inactive() {
        let cfg = SimConfig::new(5);
        let mut core =
            EngineCore::with_model(&cfg, Batch::new(1), PeriodicBurst::new(10, 3, 0), Ternary);
        // Active gap: jam slots counted exactly by the deterministic jammer.
        assert_eq!(core.account_gap(0, 20, 2, 0.5), Some(6));
        assert_eq!(core.metrics.totals.active_slots, 20);
        assert_eq!(core.metrics.totals.jammed_active, 6);
        // Inactive gap: ignored entirely.
        assert_eq!(core.account_gap(20, 40, 0, 0.0), None);
        assert_eq!(core.metrics.totals.active_slots, 20);
    }

    #[test]
    fn costly_model_skews_physical_time_only() {
        use crate::feedback::CostlyCollisions;
        let cfg = SimConfig::new(6);
        let mut core =
            EngineCore::with_model(&cfg, Batch::new(3), NoJam, CostlyCollisions::new(0.5));
        let a = core.note_inject(0);
        let b = core.note_inject(0);
        // Logical slot 0: a 2-way collision → 1 extra physical slot.
        let o = core.resolve(0, false, &[a, b]);
        assert_eq!(o, SlotOutcome::Collision { senders: 2 });
        assert_eq!(core.metrics.totals.last_slot, 0, "slot recorded pre-skew");
        assert_eq!(core.skew, 1);
        assert_eq!(core.metrics.totals.overhead_slots, 1);
        // Logical slot 1 lands at physical slot 2.
        core.resolve(1, false, &[a]);
        assert_eq!(core.metrics.totals.last_slot, 2);
        core.note_depart(a, 1);
        // The logical partition is unaffected by the dilation.
        let t = core.metrics.totals;
        assert_eq!(t.active_slots, 2);
        assert_eq!(
            t.active_slots,
            t.empty_active + t.successes + t.collision_slots + t.jammed_active
        );
    }

    #[test]
    fn ternary_core_has_zero_skew() {
        let cfg = SimConfig::new(7);
        let mut core = EngineCore::with_model(&cfg, Batch::new(2), NoJam, Ternary);
        core.resolve(0, false, &[PacketId(0), PacketId(1)]);
        core.resolve(1, true, &[PacketId(0), PacketId(1)]);
        assert_eq!(core.skew, 0);
        assert_eq!(core.metrics.totals.overhead_slots, 0);
    }

    #[test]
    fn finish_carries_the_seed() {
        let cfg = SimConfig::new(99);
        let core = EngineCore::with_model(&cfg, Batch::new(0), NoJam, Ternary);
        assert_eq!(core.finish().seed, 99);
    }
}
