//! The potential function `Φ(t)` and contention-regime accounting (§4.1–4.2).
//!
//! `Φ(t) = α₁·N(t) + α₂·H(t) + α₃·L(t)` with
//!
//! * `N(t)` — number of packets in the system,
//! * `H(t) = Σ_u 1/ln(w_u)` — the high-contention term,
//! * `L(t) = w_max/ln²(w_max)` — the large-window term (0 when idle),
//!
//! and `α₁ > α₂ > α₃ > 0`. Contention is `C(t) = Σ_u 1/w_u`; the regimes
//! are *low* (`C < C_low`), *good* (`C_low ≤ C ≤ C_high`), *high*
//! (`C > C_high`), with `C_low ≤ 1/w_min` and `C_high > 1` (§4.1).
//!
//! [`PotentialTracker`] maintains all of this incrementally through the
//! engine [`Hooks`]: `O(log n)` per window change (an ordered multiset of
//! window bit patterns yields `w_max`), `O(1)` per slot.

use std::collections::BTreeMap;

use lowsense_sim::feedback::SlotOutcome;
use lowsense_sim::hooks::Hooks;
use lowsense_sim::packet::PacketId;
use lowsense_sim::time::Slot;

use crate::protocol::LowSensing;

/// Weights of the three potential terms; the analysis needs
/// `α₁ > α₂ > α₃ > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alphas {
    /// Weight of `N(t)`.
    pub a1: f64,
    /// Weight of `H(t)`.
    pub a2: f64,
    /// Weight of `L(t)`.
    pub a3: f64,
}

impl Default for Alphas {
    /// `(4, 2, 1)` — any strictly decreasing positive triple works for
    /// measurement purposes.
    fn default() -> Self {
        Alphas {
            a1: 4.0,
            a2: 2.0,
            a3: 1.0,
        }
    }
}

impl Alphas {
    /// Validated constructor enforcing `a1 > a2 > a3 > 0`.
    ///
    /// # Panics
    ///
    /// Panics if the ordering constraint is violated.
    pub fn new(a1: f64, a2: f64, a3: f64) -> Self {
        assert!(
            a1 > a2 && a2 > a3 && a3 > 0.0,
            "potential weights must satisfy a1 > a2 > a3 > 0"
        );
        Alphas { a1, a2, a3 }
    }
}

/// Contention-regime thresholds (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegimeThresholds {
    /// Below this, contention is *low*. Must be `≤ 1/w_min`.
    pub c_low: f64,
    /// Above this, contention is *high*. Must exceed 1.
    pub c_high: f64,
}

impl Default for RegimeThresholds {
    /// `C_low = 0.25 = 1/w_min` (for the default `w_min = 4`), `C_high = 2`.
    fn default() -> Self {
        RegimeThresholds {
            c_low: 0.25,
            c_high: 2.0,
        }
    }
}

/// The three contention regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// `C < C_low`: slots are mostly silent; progress comes from `L(t)`.
    Low,
    /// `C_low ≤ C ≤ C_high`: constant success probability per slot.
    Good,
    /// `C > C_high`: slots are mostly noisy; `H(t)` drains.
    High,
}

impl RegimeThresholds {
    /// Classifies a contention value.
    #[inline]
    pub fn classify(&self, c: f64) -> Regime {
        if c < self.c_low {
            Regime::Low
        } else if c <= self.c_high {
            Regime::Good
        } else {
            Regime::High
        }
    }
}

/// Slots spent in each contention regime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegimeOccupancy {
    /// Active slots with low contention.
    pub low: u64,
    /// Active slots with good contention.
    pub good: u64,
    /// Active slots with high contention.
    pub high: u64,
}

impl RegimeOccupancy {
    /// Total classified slots.
    pub fn total(&self) -> u64 {
        self.low + self.good + self.high
    }
}

/// Order-preserving bit pattern of a positive finite `f64`.
#[inline]
fn bits(w: f64) -> u64 {
    debug_assert!(w > 0.0 && w.is_finite());
    w.to_bits()
}

/// Incremental tracker of `Φ(t)`, contention, and regime occupancy for a
/// population of [`LowSensing`] packets.
///
/// Plug it into an engine as a [`Hooks`] implementation:
///
/// ```
/// use lowsense::{LowSensing, Params, PotentialTracker};
/// use lowsense_sim::prelude::*;
///
/// let mut tracker = PotentialTracker::default();
/// let result = run_sparse(
///     &SimConfig::new(3),
///     Batch::new(100),
///     NoJam,
///     |_rng| LowSensing::new(Params::default()),
///     &mut tracker,
/// );
/// assert_eq!(result.totals.successes, 100);
/// assert_eq!(tracker.packets(), 0, "drained system has Φ = 0");
/// assert!(tracker.phi().abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct PotentialTracker {
    alphas: Alphas,
    thresholds: RegimeThresholds,
    n: u64,
    h: f64,
    contention: f64,
    /// Multiset of live window sizes keyed by order-preserving bits.
    windows: BTreeMap<u64, u32>,
    occupancy: RegimeOccupancy,
}

impl Default for PotentialTracker {
    fn default() -> Self {
        PotentialTracker::new(Alphas::default(), RegimeThresholds::default())
    }
}

impl PotentialTracker {
    /// Creates a tracker with explicit weights and thresholds.
    pub fn new(alphas: Alphas, thresholds: RegimeThresholds) -> Self {
        PotentialTracker {
            alphas,
            thresholds,
            n: 0,
            h: 0.0,
            contention: 0.0,
            windows: BTreeMap::new(),
            occupancy: RegimeOccupancy::default(),
        }
    }

    /// Packets currently tracked (`N(t)`).
    pub fn packets(&self) -> u64 {
        self.n
    }

    /// The `H(t) = Σ 1/ln w_u` term.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Current contention `C(t) = Σ 1/w_u`.
    pub fn contention(&self) -> f64 {
        self.contention
    }

    /// Largest live window, if any packet is active.
    pub fn w_max(&self) -> Option<f64> {
        self.windows
            .last_key_value()
            .map(|(&bits, _)| f64::from_bits(bits))
    }

    /// The `L(t) = w_max/ln²(w_max)` term (0 when the system is idle).
    pub fn l(&self) -> f64 {
        match self.w_max() {
            Some(w) => w / w.ln().powi(2),
            None => 0.0,
        }
    }

    /// The potential `Φ(t) = α₁N + α₂H + α₃L`.
    pub fn phi(&self) -> f64 {
        self.alphas.a1 * self.n as f64 + self.alphas.a2 * self.h + self.alphas.a3 * self.l()
    }

    /// Current contention regime.
    pub fn regime(&self) -> Regime {
        self.thresholds.classify(self.contention)
    }

    /// Slots spent per regime so far.
    pub fn occupancy(&self) -> RegimeOccupancy {
        self.occupancy
    }

    /// The weights in use.
    pub fn alphas(&self) -> Alphas {
        self.alphas
    }

    fn add_window(&mut self, w: f64) {
        self.h += 1.0 / w.ln();
        self.contention += 1.0 / w;
        *self.windows.entry(bits(w)).or_insert(0) += 1;
    }

    fn remove_window(&mut self, w: f64) {
        self.h -= 1.0 / w.ln();
        self.contention -= 1.0 / w;
        let b = bits(w);
        match self.windows.get_mut(&b) {
            Some(1) => {
                self.windows.remove(&b);
            }
            Some(k) => *k -= 1,
            None => panic!("removing untracked window {w}"),
        }
    }

    fn classify_slots(&mut self, slots: u64) {
        match self.regime() {
            Regime::Low => self.occupancy.low += slots,
            Regime::Good => self.occupancy.good += slots,
            Regime::High => self.occupancy.high += slots,
        }
    }
}

impl Hooks<LowSensing> for PotentialTracker {
    fn on_inject(&mut self, _t: Slot, _id: PacketId, state: &LowSensing) {
        self.n += 1;
        self.add_window(state.window());
    }

    fn on_depart(&mut self, _t: Slot, _id: PacketId, state: &LowSensing) {
        self.n -= 1;
        self.remove_window(state.window());
    }

    fn on_observe(&mut self, _t: Slot, _id: PacketId, before: &LowSensing, after: &LowSensing) {
        if before.window() != after.window() {
            self.remove_window(before.window());
            self.add_window(after.window());
        }
    }

    fn on_slot(&mut self, _t: Slot, _outcome: &SlotOutcome) {
        self.classify_slots(1);
    }

    fn on_gap(&mut self, from: Slot, to: Slot, _jammed: u64) {
        self.classify_slots(to - from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use lowsense_sim::feedback::{Feedback, Observation};
    use lowsense_sim::protocol::Protocol;

    fn pkt(w: f64) -> LowSensing {
        LowSensing::with_window(Params::default(), w)
    }

    #[test]
    fn empty_system_has_zero_phi() {
        let tr = PotentialTracker::default();
        assert_eq!(tr.phi(), 0.0);
        assert_eq!(tr.l(), 0.0);
        assert_eq!(tr.w_max(), None);
    }

    #[test]
    fn inject_depart_roundtrip() {
        let mut tr = PotentialTracker::default();
        let a = pkt(4.0);
        let b = pkt(100.0);
        tr.on_inject(0, PacketId(0), &a);
        tr.on_inject(0, PacketId(1), &b);
        assert_eq!(tr.packets(), 2);
        assert_eq!(tr.w_max(), Some(100.0));
        let expect_h = 1.0 / 4.0f64.ln() + 1.0 / 100.0f64.ln();
        assert!((tr.h() - expect_h).abs() < 1e-12);
        let expect_c = 0.25 + 0.01;
        assert!((tr.contention() - expect_c).abs() < 1e-12);
        tr.on_depart(1, PacketId(1), &b);
        assert_eq!(tr.w_max(), Some(4.0));
        tr.on_depart(1, PacketId(0), &a);
        assert_eq!(tr.phi(), 0.0);
        assert!(tr.h().abs() < 1e-12);
        assert!(tr.contention().abs() < 1e-12);
    }

    #[test]
    fn observe_moves_window_in_multiset() {
        let mut tr = PotentialTracker::default();
        let before = pkt(50.0);
        let mut after = before;
        after.observe(&Observation {
            slot: 0,
            feedback: Feedback::Noisy,
            sent: false,
            succeeded: false,
        });
        tr.on_inject(0, PacketId(0), &before);
        tr.on_observe(1, PacketId(0), &before, &after);
        assert_eq!(tr.w_max(), Some(after.window()));
        assert!((tr.contention() - 1.0 / after.window()).abs() < 1e-12);
    }

    #[test]
    fn duplicate_windows_counted() {
        let mut tr = PotentialTracker::default();
        let a = pkt(8.0);
        tr.on_inject(0, PacketId(0), &a);
        tr.on_inject(0, PacketId(1), &a);
        tr.on_depart(1, PacketId(0), &a);
        // The second copy keeps w_max alive.
        assert_eq!(tr.w_max(), Some(8.0));
    }

    #[test]
    fn phi_weights_apply() {
        let mut tr = PotentialTracker::new(Alphas::new(4.0, 2.0, 1.0), RegimeThresholds::default());
        let a = pkt(10.0);
        tr.on_inject(0, PacketId(0), &a);
        let expect = 4.0 + 2.0 / 10.0f64.ln() + 10.0 / 10.0f64.ln().powi(2);
        assert!((tr.phi() - expect).abs() < 1e-12, "phi {}", tr.phi());
    }

    #[test]
    fn regime_classification_and_occupancy() {
        let th = RegimeThresholds::default();
        assert_eq!(th.classify(0.0), Regime::Low);
        assert_eq!(th.classify(0.25), Regime::Good);
        assert_eq!(th.classify(2.0), Regime::Good);
        assert_eq!(th.classify(2.1), Regime::High);

        let mut tr = PotentialTracker::default();
        // No packets: contention 0 → low regime.
        tr.on_gap(0, 10, 0);
        // 12 packets at w=4: contention 3 → high regime.
        for i in 0..12 {
            tr.on_inject(10, PacketId(i), &pkt(4.0));
        }
        tr.on_slot(10, &SlotOutcome::Empty);
        let occ = tr.occupancy();
        assert_eq!(occ.low, 10);
        assert_eq!(occ.high, 1);
        assert_eq!(occ.total(), 11);
    }

    #[test]
    #[should_panic(expected = "a1 > a2 > a3 > 0")]
    fn alphas_must_decrease() {
        Alphas::new(1.0, 2.0, 3.0);
    }
}
