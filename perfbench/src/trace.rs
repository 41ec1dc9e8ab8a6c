//! Spans recorded by the benchmark around its calls into each layer, and
//! the counting hooks the traced engine runs carry.
//!
//! Spans live in memory for the whole traced run and are summarized when
//! it ends. A span's self time is its duration minus the part of its
//! interval that its child spans cover; children that ran in parallel on
//! different shards are merged first, so overlap is never subtracted
//! twice.

use std::time::Instant;

use lowsense_sim::feedback::SlotOutcome;
use lowsense_sim::hooks::{EngineSample, Hooks};
use lowsense_sim::packet::PacketId;
use lowsense_sim::time::Slot;

/// One timed interval, in seconds since the trace's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span log sharing one epoch.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty log measuring from `epoch`, so spans of several logs (and
    /// of other threads) share one clock.
    pub fn with_epoch(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Appends a span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Starts a span named `name` under `parent`; [`close`](Self::close)
    /// ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.push(Span {
            name,
            start: now,
            end: now,
            parent,
        })
    }

    /// Ends span `idx` now.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
    }

    /// Runs `f` inside a new span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let idx = self.open(name, parent);
        let out = f();
        self.close(idx);
        (idx, out)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of all spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).fold(0.0, |a, b| a + b)
    }

    /// Durations of all spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::secs).collect()
    }

    /// Self time of span `idx`: see [`self_time`].
    pub fn self_secs(&self, idx: usize) -> f64 {
        let children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start, s.end))
            .collect();
        let s = &self.spans[idx];
        self_time((s.start, s.end), &children)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// The part of `span` that no interval in `children` covers. Children are
/// clipped to the span and their union is subtracted, so children that
/// overlap each other (parallel shards) are counted once.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (lo, hi) = span;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN span bound"));
    let mut covered = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    (hi - lo) - covered
}

/// Engine counters gathered through the public [`Hooks`] surface. The
/// hooks only read what the engine hands them, so a run carrying them
/// returns the same `RunResult` as one without.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Slots the engine simulated one by one.
    pub event_slots: u64,
    /// Active slots the engine skipped as silent gaps.
    pub gap_slots: u64,
    /// Packets injected.
    pub stations: u64,
    /// Σ over packets of `depart − inject + 1`, before adding the packets
    /// still pending at the end (see [`Counters::station_slots`]).
    lifetime_partial: i128,
    /// Packets injected and not yet departed.
    pending: u64,
    /// Peak engine footprint seen by the sampler: wake structure plus the
    /// table's bookkeeping lanes, in bytes.
    pub peak_footprint_bytes: u64,
    /// Sampling period in event slots (0 disables sampling).
    period: u64,
}

impl Counters {
    /// Fresh counters sampling the engine footprint every `period` event
    /// slots.
    pub fn new(period: u64) -> Self {
        Counters {
            period,
            ..Self::default()
        }
    }

    /// Slots packets spent in the system, summed over packets, for a run
    /// whose last processed slot was `last_slot` (packets still pending
    /// count up to and including it).
    pub fn station_slots(&self, last_slot: Slot) -> u64 {
        let total = self.lifetime_partial + self.pending as i128 * (last_slot as i128 + 1);
        u64::try_from(total).expect("station-slots fit in u64")
    }
}

impl<P> Hooks<P> for Counters {
    fn wants_observe(&self) -> bool {
        false
    }

    fn on_inject(&mut self, t: Slot, _id: PacketId, _state: &P) {
        self.stations += 1;
        self.pending += 1;
        self.lifetime_partial -= t as i128;
    }

    fn on_depart(&mut self, t: Slot, _id: PacketId, _state: &P) {
        self.pending -= 1;
        self.lifetime_partial += t as i128 + 1;
    }

    fn on_slot(&mut self, _t: Slot, _outcome: &SlotOutcome) {
        self.event_slots += 1;
    }

    fn on_gap(&mut self, from: Slot, to: Slot, _jammed: u64) {
        self.gap_slots += to - from;
    }

    fn sample_period(&self) -> Option<u64> {
        (self.period > 0).then_some(self.period)
    }

    fn on_sample(&mut self, sample: &EngineSample) {
        let bytes = sample.footprint_bytes + sample.state_bytes;
        self.peak_footprint_bytes = self.peak_footprint_bytes.max(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((1.0, 4.0), &[]), 3.0);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let s = self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]);
        assert!((s - 7.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Two shards running units side by side: [1, 6) ∪ [2, 8) = [1, 8).
        let s = self_time((0.0, 10.0), &[(2.0, 8.0), (1.0, 6.0)]);
        assert!((s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let s = self_time((2.0, 5.0), &[(0.0, 3.0), (4.5, 9.0), (6.0, 7.0)]);
        assert!((s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn trace_self_secs_uses_parent_links() {
        let mut t = Trace::with_epoch(Instant::now());
        let root = t.push(Span {
            name: "root",
            start: 0.0,
            end: 10.0,
            parent: None,
        });
        let child = t.push(Span {
            name: "child",
            start: 1.0,
            end: 4.0,
            parent: Some(root),
        });
        t.push(Span {
            name: "grandchild",
            start: 2.0,
            end: 3.0,
            parent: Some(child),
        });
        assert!((t.self_secs(root) - 7.0).abs() < 1e-12);
        assert!((t.self_secs(child) - 2.0).abs() < 1e-12);
        assert_eq!(t.total("child"), 3.0);
    }

    #[test]
    fn station_slots_count_pending_packets_to_the_last_slot() {
        let mut c = Counters::default();
        let h: &mut dyn Hooks<()> = &mut c;
        h.on_inject(0, PacketId(0), &());
        h.on_inject(2, PacketId(1), &());
        h.on_depart(4, PacketId(0), &());
        // Packet 0 lived slots 0..=4 (5), packet 1 lives 2..=9 (8).
        assert_eq!(c.station_slots(9), 13);
        assert_eq!(c.stations, 2);
    }
}
