//! Analysis hooks: observe a run without perturbing it.
//!
//! The engines are generic over a [`Hooks`] implementation that gets called
//! at every state transition. This is how the `lowsense` crate's potential
//! function `Φ(t)` (paper §4.2) is tracked incrementally without the
//! simulator knowing anything about windows, and how tests assert engine
//! invariants. [`NoHooks`] compiles to nothing.

use crate::feedback::SlotOutcome;
use crate::metrics::Totals;
use crate::packet::PacketId;
use crate::time::Slot;

/// One phase of the sparse engine's slot loop, in loop order.
///
/// [`Hooks::on_phase`] receives a phase as the loop *leaves* it, so the
/// work between two consecutive marks belongs to the later one. The
/// [`slug`](Phase::slug)s are stable machine-readable keys (the phase
/// names in `BENCH_engine.json` and the CI canaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Next-event selection, gap accounting, and the wake-set advance.
    Control,
    /// Arrivals: the protocol factory, first wake draws and schedules.
    Inject,
    /// Draining the slot's bucket into the participant list.
    Take,
    /// Staged slots only: the resolve and state copy-in sweeps.
    Gather,
    /// `send_on_access` draws splitting senders from listeners.
    Split,
    /// The jam decision and slot outcome (all of an arrival-only slot
    /// after its bucket drain).
    Resolve,
    /// The listener cohort's sweep: observations, contention updates,
    /// wake draws and wake-set pushes, four listeners at a time.
    Listeners,
    /// The senders: the winner's observation, or the losing cohort's sweep
    /// (the same steps as [`Listeners`](Phase::Listeners)).
    Senders,
    /// Staged slots only: the state copy-back sweep.
    Scatter,
    /// Retiring the winner, compaction, the per-slot buffers' end-of-slot
    /// shrink, checkpoint.
    Depart,
}

impl Phase {
    /// Every phase, in loop order.
    pub const ALL: [Phase; 10] = [
        Phase::Control,
        Phase::Inject,
        Phase::Take,
        Phase::Gather,
        Phase::Split,
        Phase::Resolve,
        Phase::Listeners,
        Phase::Senders,
        Phase::Scatter,
        Phase::Depart,
    ];

    /// The stable machine-readable key.
    pub fn slug(self) -> &'static str {
        match self {
            Phase::Control => "control",
            Phase::Inject => "inject",
            Phase::Take => "take",
            Phase::Gather => "gather",
            Phase::Split => "split",
            Phase::Resolve => "resolve",
            Phase::Listeners => "listeners",
            Phase::Senders => "senders",
            Phase::Scatter => "scatter",
            Phase::Depart => "depart",
        }
    }
}

/// One out-of-band snapshot of engine state, handed to
/// [`Hooks::on_sample`] every [`Hooks::sample_period`] event slots.
///
/// Every field is copied from accounting state the engine already
/// maintains ([`Totals`], the live backlog/contention registers, and the
/// sparse-path memory footprints) *after* the slot resolved — taking a
/// sample never touches RNG state, packet ordering, or f64 accumulation,
/// so sampled and unsampled runs produce bit-identical `RunResult`s.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineSample {
    /// Wall-clock slot the sample was taken at (the slot just resolved).
    pub slot: Slot,
    /// Event slots processed so far (slots the sparse engine actually
    /// simulated; gaps are excluded). This is the sampling clock.
    pub event_slots: u64,
    /// Packets currently in the system.
    pub backlog: u64,
    /// Contention `C(t)` after the slot resolved.
    pub contention: f64,
    /// The run's counters after the slot resolved.
    pub totals: Totals,
    /// Wake-structure heap footprint in bytes (0 where not tracked).
    pub footprint_bytes: u64,
    /// Packet-table bookkeeping bytes: the id and remap lanes, *not* the
    /// protocol-state lane, whose size is the protocol's (0 where not
    /// tracked).
    pub state_bytes: u64,
    /// Per-slot buffers in bytes: the stage plan's participant list and
    /// handles, the split's one cohort buffer (listeners and senders) and
    /// sender ids, and the staged state scratch, all kept from slot to
    /// slot (0 where not tracked). The engine's per-station overhead is `footprint_bytes +
    /// state_bytes + stage_bytes` over the backlog.
    pub stage_bytes: u64,
}

/// Callbacks invoked by the engines as the run evolves.
///
/// All methods have empty default bodies; implement only what you need.
/// `P` is the protocol type, so hooks can inspect protocol state (e.g. a
/// backoff window) before and after each observation.
///
/// Packet identity is always the original injection-order [`PacketId`]:
/// engines that relocate per-packet state internally (the sparse engine's
/// epoch-compacted table remaps ids to dense indices) resolve the remap
/// before calling any hook, so one id refers to one packet for the whole
/// run.
pub trait Hooks<P> {
    /// Whether this hook set actually inspects observation state pairs.
    ///
    /// Engines clone each listener's state solely to hand
    /// [`Hooks::on_observe`] its `before`/`after` pair; a hook set that
    /// leaves `on_observe` defaulted can return `false` and the hot
    /// listener path skips the clone (and the call) entirely. This is a
    /// pure engine-side elision: all accounting (contention deltas,
    /// metrics, RNG draws) is unchanged, so `RunResult`s are bit-identical
    /// either way — only the no-op calls disappear. Implementations must
    /// return a constant (the engines monomorphize it into a dead-branch
    /// removal, and may consult it once per run or once per slot).
    fn wants_observe(&self) -> bool {
        true
    }

    /// A packet entered the system in slot `t` with initial state `state`.
    fn on_inject(&mut self, t: Slot, id: PacketId, state: &P) {
        let _ = (t, id, state);
    }

    /// A packet succeeded in slot `t`; `state` is its final state.
    fn on_depart(&mut self, t: Slot, id: PacketId, state: &P) {
        let _ = (t, id, state);
    }

    /// A packet observed slot `t`; `before`/`after` bracket the state
    /// update its observation caused.
    fn on_observe(&mut self, t: Slot, id: PacketId, before: &P, after: &P) {
        let _ = (t, id, before, after);
    }

    /// Slot `t` resolved with `outcome` (called for event slots only in the
    /// sparse engine; silent gaps arrive via [`Hooks::on_gap`]).
    fn on_slot(&mut self, t: Slot, outcome: &SlotOutcome) {
        let _ = (t, outcome);
    }

    /// The sparse engine skipped slots `[from, to)` during which no packet
    /// accessed the channel and all per-packet state was constant;
    /// `jammed` of them were jammed.
    fn on_gap(&mut self, from: Slot, to: Slot, jammed: u64) {
        let _ = (from, to, jammed);
    }

    /// How often (in processed event slots) this hook set wants an
    /// [`EngineSample`]; `None` (the default) disables sampling and the
    /// engine's sampling branch compiles away entirely. Like
    /// [`Hooks::wants_observe`], implementations must return a constant:
    /// engines consult it once per run and monomorphize the dead branch
    /// out.
    fn sample_period(&self) -> Option<u64> {
        None
    }

    /// A periodic out-of-band engine snapshot, delivered every
    /// [`Hooks::sample_period`] event slots after the slot resolves.
    fn on_sample(&mut self, sample: &EngineSample) {
        let _ = sample;
    }

    /// The sparse engine's slot loop just finished `phase`.
    ///
    /// Each event slot marks its phases in [`Phase`] order: `gather` and
    /// `scatter` only on staged slots, and an arrival-only
    /// slot marks `control`, `inject`, `take`, `resolve`. Only the sparse
    /// engine marks phases. The empty default compiles the marks away, so
    /// implement this only to time the loop.
    fn on_phase(&mut self, phase: Phase) {
        let _ = phase;
    }
}

/// The trivial hook set: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoHooks;

impl<P> Hooks<P> for NoHooks {
    fn wants_observe(&self) -> bool {
        false
    }
}

/// Combines two hook sets; both observe every event, in order.
#[derive(Debug, Clone, Default)]
pub struct Both<A, B>(pub A, pub B);

impl<P, A: Hooks<P>, B: Hooks<P>> Hooks<P> for Both<A, B> {
    fn wants_observe(&self) -> bool {
        self.0.wants_observe() || self.1.wants_observe()
    }

    fn on_inject(&mut self, t: Slot, id: PacketId, state: &P) {
        self.0.on_inject(t, id, state);
        self.1.on_inject(t, id, state);
    }

    fn on_depart(&mut self, t: Slot, id: PacketId, state: &P) {
        self.0.on_depart(t, id, state);
        self.1.on_depart(t, id, state);
    }

    fn on_observe(&mut self, t: Slot, id: PacketId, before: &P, after: &P) {
        self.0.on_observe(t, id, before, after);
        self.1.on_observe(t, id, before, after);
    }

    fn on_slot(&mut self, t: Slot, outcome: &SlotOutcome) {
        self.0.on_slot(t, outcome);
        self.1.on_slot(t, outcome);
    }

    fn on_gap(&mut self, from: Slot, to: Slot, jammed: u64) {
        self.0.on_gap(from, to, jammed);
        self.1.on_gap(from, to, jammed);
    }

    /// The gcd of both periods, so every multiple of either one is a
    /// sample point; [`on_sample`](Hooks::on_sample) then forwards to each
    /// side only on multiples of its own period.
    fn sample_period(&self) -> Option<u64> {
        match (self.0.sample_period(), self.1.sample_period()) {
            (Some(a), Some(b)) => Some(gcd(a, b)),
            (a, b) => a.or(b),
        }
    }

    fn on_sample(&mut self, sample: &EngineSample) {
        let due =
            |period: Option<u64>| period.is_some_and(|p| sample.event_slots.is_multiple_of(p));
        if due(self.0.sample_period()) {
            self.0.on_sample(sample);
        }
        if due(self.1.sample_period()) {
            self.1.on_sample(sample);
        }
    }

    fn on_phase(&mut self, phase: Phase) {
        self.0.on_phase(phase);
        self.1.on_phase(phase);
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        injects: u32,
        departs: u32,
        observes: u32,
        slots: u32,
        gaps: u32,
        phases: u32,
    }

    impl Hooks<u8> for Counter {
        fn on_inject(&mut self, _t: Slot, _id: PacketId, _s: &u8) {
            self.injects += 1;
        }
        fn on_depart(&mut self, _t: Slot, _id: PacketId, _s: &u8) {
            self.departs += 1;
        }
        fn on_observe(&mut self, _t: Slot, _id: PacketId, _b: &u8, _a: &u8) {
            self.observes += 1;
        }
        fn on_slot(&mut self, _t: Slot, _o: &SlotOutcome) {
            self.slots += 1;
        }
        fn on_gap(&mut self, _f: Slot, _t: Slot, _j: u64) {
            self.gaps += 1;
        }
        fn on_phase(&mut self, _phase: Phase) {
            self.phases += 1;
        }
    }

    #[test]
    fn both_fans_out() {
        let mut both = Both(Counter::default(), Counter::default());
        Hooks::<u8>::on_inject(&mut both, 0, PacketId(0), &0);
        Hooks::<u8>::on_depart(&mut both, 0, PacketId(0), &0);
        Hooks::<u8>::on_observe(&mut both, 0, PacketId(0), &0, &1);
        Hooks::<u8>::on_slot(&mut both, 0, &SlotOutcome::Empty);
        Hooks::<u8>::on_gap(&mut both, 0, 5, 1);
        Hooks::<u8>::on_phase(&mut both, Phase::Control);
        for c in [&both.0, &both.1] {
            assert_eq!(
                (c.injects, c.departs, c.observes, c.slots, c.gaps, c.phases),
                (1, 1, 1, 1, 1, 1)
            );
        }
    }

    #[test]
    fn no_hooks_is_callable() {
        let mut h = NoHooks;
        Hooks::<u8>::on_inject(&mut h, 0, PacketId(0), &0);
        Hooks::<u8>::on_gap(&mut h, 0, 1, 0);
    }

    struct Sampler {
        period: u64,
        samples: u32,
    }

    impl Hooks<u8> for Sampler {
        fn sample_period(&self) -> Option<u64> {
            Some(self.period)
        }
        fn on_sample(&mut self, _s: &EngineSample) {
            self.samples += 1;
        }
    }

    /// Drives `hooks` the way the engine does: a sample at every multiple
    /// of the reported period over `event_slots` event slots.
    fn drive_samples(hooks: &mut impl Hooks<u8>, event_slots: u64) {
        let Some(period) = hooks.sample_period() else {
            return;
        };
        for e in (period..=event_slots).step_by(period as usize) {
            hooks.on_sample(&EngineSample {
                event_slots: e,
                ..EngineSample::default()
            });
        }
    }

    #[test]
    fn both_keeps_each_sides_sample_period() {
        assert_eq!(Hooks::<u8>::sample_period(&NoHooks), None);
        let sampler = |period| Sampler { period, samples: 0 };
        let mut both = Both(sampler(64), sampler(24));
        assert_eq!(Hooks::<u8>::sample_period(&both), Some(8));
        drive_samples(&mut both, 192);
        assert_eq!((both.0.samples, both.1.samples), (3, 8));
        // One-sided: the present period wins, and the side without one
        // is never sampled.
        let mut one = Both(NoHooks, sampler(8));
        assert_eq!(Hooks::<u8>::sample_period(&one), Some(8));
        drive_samples(&mut one, 64);
        assert_eq!(one.1.samples, 8);
    }
}
