//! Run accounting: totals, per-packet statistics, and time series.
//!
//! Terminology follows the paper (§1.1):
//! * a slot is **active** if ≥ 1 packet is in the system during it; `S_t`
//!   counts active slots;
//! * **throughput** at the end of a finite run is `(T + J) / S` where `T`
//!   counts successes and `J` jammed (active) slots;
//! * **implicit throughput** at slot `t` is `(N_t + J_t) / S_t` where `N_t`
//!   counts arrivals so far.
//!
//! Jammed slots during *inactive* periods are ignored — no algorithm is
//! being measured there and the paper's metrics only ever divide by active
//! slots.
//!
//! [`Totals`] is the one counter record and holds the one copy of each
//! ratio: a [`RunResult`], each [`SeriesPoint`] and each engine sample
//! ([`EngineSample`](crate::hooks::EngineSample)) carry it whole.

use crate::feedback::SlotOutcome;
use crate::packet::{PacketId, PacketStats};
use crate::time::Slot;

/// Cumulative counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Packets injected so far (`N_t`).
    pub arrivals: u64,
    /// Packets delivered so far (`T_t`).
    pub successes: u64,
    /// Active slots so far (`S_t`).
    pub active_slots: u64,
    /// Jammed active slots so far (`J_t`).
    pub jammed_active: u64,
    /// Active slots with zero senders and no jam.
    pub empty_active: u64,
    /// Active slots with ≥ 2 senders and no jam.
    pub collision_slots: u64,
    /// Total transmissions (channel accesses that sent).
    pub sends: u64,
    /// Total pure listens (channel accesses that did not send).
    pub listens: u64,
    /// Largest backlog observed.
    pub max_backlog: u64,
    /// Last slot index the engine processed.
    pub last_slot: Slot,
    /// Extra *physical* slots charged by the feedback model (e.g. costly
    /// collisions dilating the clock). Deliberately outside the logical
    /// partition: `active_slots == empty_active + successes +
    /// collision_slots + jammed_active` holds regardless of overhead.
    pub overhead_slots: u64,
}

impl Totals {
    /// `(T + J) / S` — the paper's throughput with jamming (0/0 ⇒ 1).
    pub fn throughput(&self) -> f64 {
        if self.active_slots == 0 {
            1.0
        } else {
            (self.successes + self.jammed_active) as f64 / self.active_slots as f64
        }
    }

    /// `T / S` — throughput ignoring the jam credit (0/0 ⇒ 1).
    pub fn clean_throughput(&self) -> f64 {
        if self.active_slots == 0 {
            1.0
        } else {
            self.successes as f64 / self.active_slots as f64
        }
    }

    /// `(N_t + J_t) / S_t` — implicit throughput (0/0 ⇒ 1).
    pub fn implicit_throughput(&self) -> f64 {
        if self.active_slots == 0 {
            1.0
        } else {
            (self.arrivals + self.jammed_active) as f64 / self.active_slots as f64
        }
    }

    /// Total channel accesses.
    pub fn accesses(&self) -> u64 {
        self.sends + self.listens
    }

    /// Packets still in the system.
    pub fn backlog(&self) -> u64 {
        self.arrivals - self.successes
    }
}

/// One sample of the run's trajectory, taken at geometrically spaced
/// active-slot checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Wall-clock slot of the sample.
    pub slot: Slot,
    /// Packets in the system.
    pub backlog: u64,
    /// Contention `C(t)` at the sample.
    pub contention: f64,
    /// The run's counters at the sample. `totals.active_slots` is the
    /// x-axis of the paper's implicit-throughput statements ("at the t-th
    /// active slot"), and `totals.implicit_throughput()` their y-axis.
    pub totals: Totals,
}

/// What to record beyond totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsConfig {
    /// Record a [`PacketStats`] entry per packet (memory: O(arrivals)).
    pub per_packet: bool,
    /// Record a [`SeriesPoint`] whenever active slots cross checkpoints
    /// spaced by this factor (`None` disables the series).
    pub series_factor: Option<f64>,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            per_packet: true,
            series_factor: None,
        }
    }
}

impl MetricsConfig {
    /// Totals only — the cheapest configuration.
    pub fn totals_only() -> Self {
        MetricsConfig {
            per_packet: false,
            series_factor: None,
        }
    }

    /// Enables the trajectory series with checkpoint spacing `factor`
    /// (e.g. `1.2` ⇒ samples at active-slot counts 1, 2, 3, …, ~⌈1.2ᵏ⌉).
    pub fn with_series(mut self, factor: f64) -> Self {
        assert!(factor > 1.0, "series factor must exceed 1");
        self.series_factor = Some(factor);
        self
    }
}

/// Mutable accounting state used by the engines.
#[derive(Debug, Clone)]
pub struct Metrics {
    cfg: MetricsConfig,
    /// Cumulative counters (public for cheap read access by engines/views).
    pub totals: Totals,
    per_packet: Vec<PacketStats>,
    series: Vec<SeriesPoint>,
    next_checkpoint: u64,
}

impl Metrics {
    /// Creates empty accounting state.
    pub fn new(cfg: MetricsConfig) -> Self {
        Metrics {
            cfg,
            totals: Totals::default(),
            per_packet: Vec::new(),
            series: Vec::new(),
            next_checkpoint: 1,
        }
    }

    /// Registers an injected packet; returns its id.
    pub fn note_inject(&mut self, t: Slot) -> PacketId {
        let id = PacketId(self.totals.arrivals as u32);
        self.totals.arrivals += 1;
        let backlog = self.totals.backlog();
        if backlog > self.totals.max_backlog {
            self.totals.max_backlog = backlog;
        }
        if self.cfg.per_packet {
            self.per_packet.push(PacketStats::new(t));
        }
        id
    }

    /// Accounts one resolved active slot.
    pub fn note_slot(&mut self, t: Slot, outcome: &SlotOutcome) {
        self.totals.active_slots += 1;
        self.totals.last_slot = t;
        match outcome {
            SlotOutcome::Empty => self.totals.empty_active += 1,
            SlotOutcome::Success { .. } => self.totals.successes += 1,
            SlotOutcome::Collision { .. } => self.totals.collision_slots += 1,
            SlotOutcome::Jammed { .. } => self.totals.jammed_active += 1,
        }
    }

    /// Accounts extra physical slots charged by the feedback model for the
    /// slot just resolved (no-op for `extra == 0`, the ternary steady state).
    #[inline]
    pub fn note_overhead(&mut self, extra: u64) {
        self.totals.overhead_slots += extra;
    }

    /// Accounts a gap `[from, to)` of slots in which no packet accessed the
    /// channel. `active` says whether packets were in the system (constant
    /// across the gap); `jammed` is the number of jammed slots in the gap.
    pub fn note_gap(&mut self, from: Slot, to: Slot, active: bool, jammed: u64) {
        debug_assert!(to >= from);
        let len = to - from;
        if len == 0 {
            return;
        }
        if active {
            self.totals.active_slots += len;
            self.totals.jammed_active += jammed;
            self.totals.empty_active += len - jammed;
            // Inactive gaps are not simulated (the dense engine never visits
            // them), so only active gaps advance the clock watermark.
            self.totals.last_slot = to.saturating_sub(1);
        }
    }

    /// Accounts a transmission by `id`.
    pub fn note_send(&mut self, id: PacketId) {
        self.totals.sends += 1;
        if self.cfg.per_packet {
            self.per_packet[id.index()].sends += 1;
        }
    }

    /// Accounts a pure listen by `id`.
    pub fn note_listen(&mut self, id: PacketId) {
        self.totals.listens += 1;
        if self.cfg.per_packet {
            self.per_packet[id.index()].listens += 1;
        }
    }

    /// Accounts bulk sends/listens without per-packet attribution (grouped
    /// engine).
    pub fn note_bulk_accesses(&mut self, sends: u64, listens: u64) {
        self.totals.sends += sends;
        self.totals.listens += listens;
    }

    /// Sets `id`'s pure-listen count to `lifetime_slots − sends` without
    /// touching aggregate counters.
    ///
    /// Used by the grouped engine, where aggregate listens are accounted in
    /// bulk per slot and per-packet listens are reconstructed from lifetimes
    /// (every-slot listeners access the channel once per slot of life).
    pub fn reconcile_listens(&mut self, id: PacketId, lifetime_slots: u64) {
        if self.cfg.per_packet {
            let p = &mut self.per_packet[id.index()];
            p.listens = lifetime_slots
                .saturating_sub(p.sends as u64)
                .min(u32::MAX as u64) as u32;
        }
    }

    /// Marks `id` as departed in slot `t`.
    pub fn note_depart(&mut self, id: PacketId, t: Slot) {
        if self.cfg.per_packet {
            self.per_packet[id.index()].departed = Some(t);
        }
    }

    /// Takes a series sample if the active-slot count crossed a checkpoint.
    pub fn maybe_checkpoint(&mut self, slot: Slot, backlog: u64, contention: f64) {
        let Some(factor) = self.cfg.series_factor else {
            return;
        };
        if self.totals.active_slots < self.next_checkpoint {
            return;
        }
        self.series.push(SeriesPoint {
            slot,
            backlog,
            contention,
            totals: self.totals,
        });
        let mut next = (self.next_checkpoint as f64 * factor) as u64;
        if next <= self.totals.active_slots {
            next = self.totals.active_slots + 1;
        }
        self.next_checkpoint = next;
    }

    /// Finalizes into an immutable [`RunResult`].
    pub fn finish(self, seed: u64) -> RunResult {
        RunResult {
            seed,
            totals: self.totals,
            per_packet: if self.cfg.per_packet {
                Some(self.per_packet)
            } else {
                None
            },
            series: self.series,
        }
    }
}

/// Immutable outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Seed the run was driven by.
    pub seed: u64,
    /// Cumulative counters at the end of the run.
    pub totals: Totals,
    /// Per-packet lifetime statistics, if recorded.
    pub per_packet: Option<Vec<PacketStats>>,
    /// Trajectory samples, if recorded.
    pub series: Vec<SeriesPoint>,
}

impl RunResult {
    /// Channel accesses per *delivered* packet.
    ///
    /// Returns an empty vector when per-packet stats were not recorded.
    pub fn access_counts(&self) -> Vec<u64> {
        self.per_packet
            .as_deref()
            .map(|ps| {
                ps.iter()
                    .filter(|p| p.departed.is_some())
                    .map(|p| p.accesses())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Latencies (injection → success, inclusive) of delivered packets.
    pub fn latencies(&self) -> Vec<u64> {
        self.per_packet
            .as_deref()
            .map(|ps| ps.iter().filter_map(|p| p.latency()).collect())
            .unwrap_or_default()
    }

    /// Whether every injected packet was delivered.
    pub fn drained(&self) -> bool {
        self.totals.backlog() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_definitions() {
        let t = Totals {
            arrivals: 10,
            successes: 8,
            active_slots: 20,
            jammed_active: 2,
            ..Totals::default()
        };
        assert!((t.throughput() - 0.5).abs() < 1e-12);
        assert!((t.clean_throughput() - 0.4).abs() < 1e-12);
        assert!((t.implicit_throughput() - 0.6).abs() < 1e-12);
        assert_eq!(t.backlog(), 2);
    }

    #[test]
    fn empty_run_throughput_is_one() {
        let t = Totals::default();
        assert_eq!(t.throughput(), 1.0);
        assert_eq!(t.implicit_throughput(), 1.0);
    }

    #[test]
    fn inject_assigns_dense_ids_and_tracks_backlog() {
        let mut m = Metrics::new(MetricsConfig::default());
        let a = m.note_inject(0);
        let b = m.note_inject(0);
        assert_eq!(a, PacketId(0));
        assert_eq!(b, PacketId(1));
        assert_eq!(m.totals.max_backlog, 2);
        m.note_slot(0, &SlotOutcome::Success { id: a });
        m.note_depart(a, 0);
        assert_eq!(m.totals.backlog(), 1);
    }

    #[test]
    fn slot_classification() {
        let mut m = Metrics::new(MetricsConfig::totals_only());
        m.note_slot(0, &SlotOutcome::Empty);
        m.note_slot(1, &SlotOutcome::Collision { senders: 2 });
        m.note_slot(2, &SlotOutcome::Jammed { senders: 0 });
        assert_eq!(m.totals.active_slots, 3);
        assert_eq!(m.totals.empty_active, 1);
        assert_eq!(m.totals.collision_slots, 1);
        assert_eq!(m.totals.jammed_active, 1);
        assert_eq!(m.totals.last_slot, 2);
    }

    #[test]
    fn overhead_stays_outside_the_active_partition() {
        let mut m = Metrics::new(MetricsConfig::totals_only());
        m.note_slot(0, &SlotOutcome::Collision { senders: 4 });
        m.note_overhead(2);
        m.note_overhead(0);
        let t = m.totals;
        assert_eq!(t.overhead_slots, 2);
        assert_eq!(
            t.active_slots,
            t.empty_active + t.successes + t.collision_slots + t.jammed_active,
            "overhead must not leak into the logical slot partition"
        );
    }

    #[test]
    fn gap_accounting_active_and_inactive() {
        let mut m = Metrics::new(MetricsConfig::totals_only());
        m.note_gap(10, 20, true, 3);
        assert_eq!(m.totals.active_slots, 10);
        assert_eq!(m.totals.jammed_active, 3);
        assert_eq!(m.totals.empty_active, 7);
        m.note_gap(20, 30, false, 0);
        assert_eq!(m.totals.active_slots, 10, "inactive gaps not counted");
        m.note_gap(30, 30, true, 0); // zero-length is a no-op
        assert_eq!(m.totals.active_slots, 10);
    }

    #[test]
    fn per_packet_attribution() {
        let mut m = Metrics::new(MetricsConfig::default());
        let id = m.note_inject(5);
        m.note_send(id);
        m.note_listen(id);
        m.note_listen(id);
        m.note_slot(9, &SlotOutcome::Success { id });
        m.note_depart(id, 9);
        let r = m.finish(0);
        let ps = r.per_packet.as_ref().unwrap();
        assert_eq!(ps[0].sends, 1);
        assert_eq!(ps[0].listens, 2);
        assert_eq!(r.access_counts(), vec![3]);
        assert_eq!(r.latencies(), vec![5]);
        assert!(r.drained());
    }

    #[test]
    fn series_checkpoints_are_geometric() {
        let mut m = Metrics::new(MetricsConfig::totals_only().with_series(2.0));
        for t in 0..100u64 {
            m.note_slot(t, &SlotOutcome::Empty);
            m.maybe_checkpoint(t, 1, 0.5);
        }
        let r = m.finish(0);
        let xs: Vec<u64> = r.series.iter().map(|p| p.totals.active_slots).collect();
        assert_eq!(xs, vec![1, 2, 4, 8, 16, 32, 64]);
        assert!(r.series.iter().all(|p| (p.contention - 0.5).abs() < 1e-12));
    }

    #[test]
    fn series_carries_overhead_slots() {
        let mut m = Metrics::new(MetricsConfig::totals_only().with_series(2.0));
        m.note_slot(0, &SlotOutcome::Collision { senders: 3 });
        m.note_overhead(5);
        m.maybe_checkpoint(0, 3, 1.5);
        m.note_slot(1, &SlotOutcome::Empty);
        m.maybe_checkpoint(1, 3, 1.5);
        let r = m.finish(0);
        let ov: Vec<u64> = r.series.iter().map(|p| p.totals.overhead_slots).collect();
        assert_eq!(ov, vec![5, 5], "samples snapshot cumulative overhead");
    }

    #[test]
    fn series_disabled_records_nothing() {
        let mut m = Metrics::new(MetricsConfig::totals_only());
        m.note_slot(0, &SlotOutcome::Empty);
        m.maybe_checkpoint(0, 1, 0.0);
        assert!(m.finish(0).series.is_empty());
    }

    #[test]
    #[should_panic(expected = "factor must exceed 1")]
    fn bad_series_factor_panics() {
        let _ = MetricsConfig::default().with_series(1.0);
    }
}
