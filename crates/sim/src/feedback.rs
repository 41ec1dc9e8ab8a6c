//! Channel actions, feedback models, and slot outcomes (paper §1.1).
//!
//! The paper's channel is the *ternary full-sensing* model: a listener
//! hears empty / success / noise and cannot tell collision noise from
//! jamming noise. Related work studies the same protocols under different
//! channels, so the mapping from a resolved [`SlotOutcome`] to what each
//! station perceives is factored into a [`FeedbackModel`]: [`Ternary`]
//! (the paper, and the default), [`NoCollisionDetection`] (Jiang–Zheng,
//! arXiv:2111.06650), and [`CostlyCollisions`] (Anderton–Young,
//! arXiv:1705.09271). Engine loops are generic over the model and
//! monomorphize; [`ChannelModel`] is the runtime-selectable mirror a run
//! carries in [`SimConfig::model`](crate::config::SimConfig::model), and
//! every engine entry point maps it to its model type once per run.

use crate::packet::PacketId;
use crate::time::Slot;

/// What a listening packet hears about a slot — the *ternary feedback model*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feedback {
    /// (0) No packet transmitted and the slot was not jammed.
    Empty,
    /// (1) Exactly one packet transmitted in an unjammed slot.
    Success,
    /// (2+) Two or more packets transmitted, or the slot was jammed.
    ///
    /// A listener cannot distinguish collision noise from jamming noise.
    Noisy,
}

/// A packet's action in a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intent {
    /// Do not access the channel; learn nothing.
    Sleep,
    /// Listen only. Costs one channel access.
    Listen,
    /// Transmit. Costs one channel access; the sender learns the slot
    /// outcome implicitly (it either departs or observes noise).
    Send,
}

impl Intent {
    /// Whether this action touches the channel (send or listen).
    #[inline]
    pub fn accesses_channel(self) -> bool {
        !matches!(self, Intent::Sleep)
    }
}

/// Everything a packet learns about a slot it accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// The slot observed.
    pub slot: Slot,
    /// Channel feedback for the slot, as filtered by the run's
    /// [`FeedbackModel`] (ternary under the paper's model).
    pub feedback: Feedback,
    /// Whether this packet transmitted in the slot.
    pub sent: bool,
    /// Whether this packet's transmission succeeded (implies `sent`).
    pub succeeded: bool,
}

impl Observation {
    /// Builds an observation, checking the `succeeded ⇒ sent` invariant.
    ///
    /// A feedback model that claims a station succeeded without having
    /// transmitted would hand protocols a contradictory world; the
    /// `debug_assert!` makes that loud in every debug/test build.
    #[inline]
    pub fn new(slot: Slot, feedback: Feedback, sent: bool, succeeded: bool) -> Self {
        debug_assert!(sent || !succeeded, "Observation: succeeded implies sent");
        Observation {
            slot,
            feedback,
            sent,
            succeeded,
        }
    }

    /// Observation delivered to a pure listener (did not send).
    #[inline]
    pub fn listener(slot: Slot, feedback: Feedback) -> Self {
        Self::new(slot, feedback, false, false)
    }

    /// Observation delivered to a sender.
    #[inline]
    pub fn sender(slot: Slot, feedback: Feedback, succeeded: bool) -> Self {
        Self::new(slot, feedback, true, succeeded)
    }
}

/// Global resolution of one slot, as seen by an omniscient observer.
///
/// Protocols never see this; it feeds metrics, hooks, and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// At least one packet active, nobody transmitted, no jamming.
    Empty,
    /// Exactly one transmission, no jamming: the packet departs.
    Success {
        /// The packet that succeeded.
        id: PacketId,
    },
    /// Two or more transmissions, no jamming.
    Collision {
        /// Number of simultaneous transmissions.
        senders: u32,
    },
    /// The adversary jammed the slot (any number of senders fail).
    Jammed {
        /// Number of transmissions swallowed by the jam.
        senders: u32,
    },
}

impl SlotOutcome {
    /// The ternary feedback a listener receives for this outcome.
    #[inline]
    pub fn feedback(&self) -> Feedback {
        match self {
            SlotOutcome::Empty => Feedback::Empty,
            SlotOutcome::Success { .. } => Feedback::Success,
            SlotOutcome::Collision { .. } | SlotOutcome::Jammed { .. } => Feedback::Noisy,
        }
    }

    /// Whether the algorithm "used" the slot in the throughput sense
    /// (a success, or a jammed slot which no algorithm could have used).
    #[inline]
    pub fn is_useful(&self) -> bool {
        matches!(
            self,
            SlotOutcome::Success { .. } | SlotOutcome::Jammed { .. }
        )
    }
}

/// How a resolved [`SlotOutcome`] is perceived by stations, and what it
/// costs in physical time.
///
/// Implementations are zero-sized (or tiny `Copy` structs) so the engines
/// can be generic over the model and monomorphize: under [`Ternary`] every
/// method is a trivial inline and the slot loops compile to the same
/// machine code as before the model existed. The mapping must be total —
/// every implementation matches all four [`SlotOutcome`] variants, so a new
/// outcome variant is a compile error in every model rather than a silent
/// misclassification.
pub trait FeedbackModel: Copy + Send + Sync + 'static {
    /// What a pure listener hears for this outcome.
    fn listener_feedback(&self, outcome: &SlotOutcome) -> Feedback;

    /// What a sender perceives for this outcome. `succeeded` is whether
    /// this sender's own transmission won the slot.
    fn sender_feedback(&self, outcome: &SlotOutcome, succeeded: bool) -> Feedback;

    /// Extra *physical* slots this outcome occupies beyond its logical
    /// slot. The engine accumulates this as clock skew: scheduling stays in
    /// logical time, metrics are recorded at physical time.
    #[inline]
    fn overhead_slots(&self, outcome: &SlotOutcome) -> u64 {
        let _ = outcome;
        0
    }
}

/// The paper's ternary full-sensing channel — the default model.
///
/// Listeners and senders both perceive the raw ternary feedback of the
/// outcome; nothing costs extra time. This is bit-identical to the
/// pre-model engines (pinned by `tests/feedback_recordings.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ternary;

impl FeedbackModel for Ternary {
    #[inline]
    fn listener_feedback(&self, outcome: &SlotOutcome) -> Feedback {
        outcome.feedback()
    }

    #[inline]
    fn sender_feedback(&self, outcome: &SlotOutcome, _succeeded: bool) -> Feedback {
        outcome.feedback()
    }
}

/// No collision detection (Jiang–Zheng, arXiv:2111.06650).
///
/// Listeners cannot distinguish a collision (or a jammed slot) from
/// silence — only a lone transmission is audible. Senders still learn
/// whether their own transmission succeeded (acknowledgement), but nothing
/// more: a failed send sounds like noise regardless of cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoCollisionDetection;

impl FeedbackModel for NoCollisionDetection {
    #[inline]
    fn listener_feedback(&self, outcome: &SlotOutcome) -> Feedback {
        match outcome {
            SlotOutcome::Success { .. } => Feedback::Success,
            SlotOutcome::Empty | SlotOutcome::Collision { .. } | SlotOutcome::Jammed { .. } => {
                Feedback::Empty
            }
        }
    }

    #[inline]
    fn sender_feedback(&self, outcome: &SlotOutcome, succeeded: bool) -> Feedback {
        match outcome {
            SlotOutcome::Empty
            | SlotOutcome::Success { .. }
            | SlotOutcome::Collision { .. }
            | SlotOutcome::Jammed { .. } => {
                if succeeded {
                    Feedback::Success
                } else {
                    Feedback::Noisy
                }
            }
        }
    }
}

/// Collisions cost time proportional to contention (Anderton–Young,
/// arXiv:1705.09271).
///
/// Sensing stays ternary, but a collision among `k` senders occupies
/// `1 + ceil(α·k)` physical slots instead of 1. Jammed slots are *not*
/// dilated: the adversary burns exactly the slots it jams. The engine
/// keeps scheduling in logical time and carries the accumulated overhead
/// as clock skew, so all stepping strategies agree on wake/arrival order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostlyCollisions {
    /// Per-contender cost factor `α ≥ 0`.
    pub alpha: f64,
}

impl CostlyCollisions {
    /// Creates the model with cost factor `alpha` (must be finite and ≥ 0).
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "CostlyCollisions alpha must be finite and non-negative"
        );
        CostlyCollisions { alpha }
    }
}

impl FeedbackModel for CostlyCollisions {
    #[inline]
    fn listener_feedback(&self, outcome: &SlotOutcome) -> Feedback {
        outcome.feedback()
    }

    #[inline]
    fn sender_feedback(&self, outcome: &SlotOutcome, _succeeded: bool) -> Feedback {
        outcome.feedback()
    }

    #[inline]
    fn overhead_slots(&self, outcome: &SlotOutcome) -> u64 {
        match outcome {
            SlotOutcome::Collision { senders } => (self.alpha * f64::from(*senders)).ceil() as u64,
            SlotOutcome::Empty | SlotOutcome::Success { .. } | SlotOutcome::Jammed { .. } => 0,
        }
    }
}

/// Runtime-selectable channel model — the run-configuration mirror of the
/// static [`FeedbackModel`] implementations.
///
/// A run carries one in [`SimConfig::model`](crate::config::SimConfig::model)
/// (scenarios and campaign specs set it there), and each engine entry point
/// dispatches on it **once per run**, outside the slot loop, to the
/// matching monomorphized engine body, so model choice never costs dyn
/// dispatch per slot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ChannelModel {
    /// The paper's ternary full-sensing channel (default).
    #[default]
    Ternary,
    /// Jiang–Zheng no-collision-detection channel.
    NoCollisionDetection,
    /// Anderton–Young costly collisions with cost factor `alpha`.
    CostlyCollisions {
        /// Per-contender cost factor `α ≥ 0`.
        alpha: f64,
    },
}

impl ChannelModel {
    /// Human/artifact label, including parameters.
    pub fn label(&self) -> String {
        match self {
            ChannelModel::Ternary => "ternary".to_string(),
            ChannelModel::NoCollisionDetection => "no-cd".to_string(),
            ChannelModel::CostlyCollisions { alpha } => format!("costly(alpha={alpha})"),
        }
    }
}

/// Evaluates `$body` with `$m` bound to the [`FeedbackModel`] that a
/// [`ChannelModel`] selects — the one runtime → static mapping every
/// engine entry point dispatches through, once per run.
macro_rules! with_feedback_model {
    ($model:expr, |$m:ident| $body:expr) => {
        match $model {
            $crate::feedback::ChannelModel::Ternary => {
                let $m = $crate::feedback::Ternary;
                $body
            }
            $crate::feedback::ChannelModel::NoCollisionDetection => {
                let $m = $crate::feedback::NoCollisionDetection;
                $body
            }
            $crate::feedback::ChannelModel::CostlyCollisions { alpha } => {
                let $m = $crate::feedback::CostlyCollisions::new(alpha);
                $body
            }
        }
    };
}
pub(crate) use with_feedback_model;

/// Resolves a slot given the sender set and the jamming decision.
#[inline]
pub fn resolve_slot(jammed: bool, senders: &[PacketId]) -> SlotOutcome {
    if jammed {
        SlotOutcome::Jammed {
            senders: senders.len() as u32,
        }
    } else {
        match senders {
            [] => SlotOutcome::Empty,
            [only] => SlotOutcome::Success { id: *only },
            many => SlotOutcome::Collision {
                senders: many.len() as u32,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_truth_table() {
        let a = PacketId(0);
        let b = PacketId(1);
        assert_eq!(resolve_slot(false, &[]), SlotOutcome::Empty);
        assert_eq!(resolve_slot(false, &[a]), SlotOutcome::Success { id: a });
        assert_eq!(
            resolve_slot(false, &[a, b]),
            SlotOutcome::Collision { senders: 2 }
        );
        assert_eq!(resolve_slot(true, &[]), SlotOutcome::Jammed { senders: 0 });
        assert_eq!(resolve_slot(true, &[a]), SlotOutcome::Jammed { senders: 1 });
        assert_eq!(
            resolve_slot(true, &[a, b]),
            SlotOutcome::Jammed { senders: 2 }
        );
    }

    #[test]
    fn feedback_matches_model() {
        assert_eq!(SlotOutcome::Empty.feedback(), Feedback::Empty);
        assert_eq!(
            SlotOutcome::Success { id: PacketId(3) }.feedback(),
            Feedback::Success
        );
        assert_eq!(
            SlotOutcome::Collision { senders: 2 }.feedback(),
            Feedback::Noisy
        );
        // Jammed slots are full and noisy even with zero senders.
        assert_eq!(
            SlotOutcome::Jammed { senders: 0 }.feedback(),
            Feedback::Noisy
        );
    }

    #[test]
    fn useful_slots() {
        assert!(SlotOutcome::Success { id: PacketId(0) }.is_useful());
        assert!(SlotOutcome::Jammed { senders: 0 }.is_useful());
        assert!(!SlotOutcome::Empty.is_useful());
        assert!(!SlotOutcome::Collision { senders: 2 }.is_useful());
    }

    #[test]
    fn intent_channel_access() {
        assert!(!Intent::Sleep.accesses_channel());
        assert!(Intent::Listen.accesses_channel());
        assert!(Intent::Send.accesses_channel());
    }

    /// All four outcome variants, for exhaustive model-mapping checks.
    fn all_outcomes() -> [SlotOutcome; 4] {
        [
            SlotOutcome::Empty,
            SlotOutcome::Success { id: PacketId(7) },
            SlotOutcome::Collision { senders: 3 },
            SlotOutcome::Jammed { senders: 1 },
        ]
    }

    #[test]
    fn ternary_model_matches_raw_feedback_exhaustively() {
        for o in all_outcomes() {
            assert_eq!(Ternary.listener_feedback(&o), o.feedback());
            for succeeded in [false, true] {
                // A sender under ternary hears the raw channel, same as a
                // listener — success is inferred from departing.
                assert_eq!(Ternary.sender_feedback(&o, succeeded), o.feedback());
            }
            assert_eq!(Ternary.overhead_slots(&o), 0);
        }
    }

    #[test]
    fn no_cd_listener_collapses_everything_but_success() {
        let m = NoCollisionDetection;
        assert_eq!(m.listener_feedback(&SlotOutcome::Empty), Feedback::Empty);
        assert_eq!(
            m.listener_feedback(&SlotOutcome::Success { id: PacketId(0) }),
            Feedback::Success
        );
        // The defining property: collisions and jams are inaudible.
        assert_eq!(
            m.listener_feedback(&SlotOutcome::Collision { senders: 9 }),
            Feedback::Empty
        );
        assert_eq!(
            m.listener_feedback(&SlotOutcome::Jammed { senders: 0 }),
            Feedback::Empty
        );
        for o in all_outcomes() {
            assert_eq!(m.sender_feedback(&o, true), Feedback::Success);
            assert_eq!(m.sender_feedback(&o, false), Feedback::Noisy);
            assert_eq!(m.overhead_slots(&o), 0);
        }
    }

    #[test]
    fn costly_collisions_dilate_only_collisions() {
        let m = CostlyCollisions::new(0.5);
        for o in all_outcomes() {
            // Sensing is ternary; only the clock changes.
            assert_eq!(m.listener_feedback(&o), o.feedback());
            assert_eq!(m.sender_feedback(&o, false), o.feedback());
        }
        assert_eq!(m.overhead_slots(&SlotOutcome::Empty), 0);
        assert_eq!(
            m.overhead_slots(&SlotOutcome::Success { id: PacketId(0) }),
            0
        );
        assert_eq!(m.overhead_slots(&SlotOutcome::Collision { senders: 2 }), 1);
        assert_eq!(m.overhead_slots(&SlotOutcome::Collision { senders: 3 }), 2);
        assert_eq!(m.overhead_slots(&SlotOutcome::Collision { senders: 5 }), 3);
        // Jamming is the adversary's time, not a collision penalty.
        assert_eq!(m.overhead_slots(&SlotOutcome::Jammed { senders: 5 }), 0);
        // α = 0 degenerates to free collisions.
        let free = CostlyCollisions::new(0.0);
        assert_eq!(
            free.overhead_slots(&SlotOutcome::Collision { senders: 100 }),
            0
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn costly_collisions_rejects_negative_alpha() {
        let _ = CostlyCollisions::new(-0.1);
    }

    #[test]
    fn observation_constructors_set_roles() {
        let l = Observation::listener(4, Feedback::Noisy);
        assert!(!l.sent && !l.succeeded);
        let s = Observation::sender(4, Feedback::Success, true);
        assert!(s.sent && s.succeeded);
        let f = Observation::sender(4, Feedback::Noisy, false);
        assert!(f.sent && !f.succeeded);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "succeeded implies sent")]
    fn observation_rejects_succeeded_without_sent() {
        let _ = Observation::new(0, Feedback::Success, false, true);
    }

    #[test]
    fn channel_model_labels_and_default() {
        assert_eq!(ChannelModel::default(), ChannelModel::Ternary);
        assert_eq!(ChannelModel::Ternary.label(), "ternary");
        assert_eq!(ChannelModel::NoCollisionDetection.label(), "no-cd");
        assert_eq!(
            ChannelModel::CostlyCollisions { alpha: 0.5 }.label(),
            "costly(alpha=0.5)"
        );
    }
}
