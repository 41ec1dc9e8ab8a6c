//! The engine flight recorder: a bounded ring of periodic
//! [`EngineSample`]s with JSONL export and inline stall detection.
//!
//! [`FlightRecorder`] implements [`Hooks`] for every protocol type: it
//! leaves all per-event callbacks defaulted (`wants_observe` stays
//! `false`, so the engine's listener-clone elision is preserved) and only
//! requests the periodic out-of-band sample the sparse engine takes after
//! a slot has fully resolved. Attaching one to a run therefore changes
//! nothing about the run — the equivalence suite pins this bitwise.

use std::collections::VecDeque;

use lowsense_sim::hooks::{EngineSample, Hooks};

use crate::json::{esc, num};
use crate::registry::Registry;
use crate::stall::{StallDetector, StallEvent};

/// Schema tag stamped on [`FlightRecorder::to_jsonl`] headers.
pub const FLIGHT_SCHEMA: &str = "lowsense-obs-flight/1";

/// Bounded flight recorder over the sparse engine's sample stream.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    context: String,
    period: u64,
    capacity: usize,
    ring: VecDeque<EngineSample>,
    dropped: u64,
    detector: Option<StallDetector>,
    stalls: Vec<StallEvent>,
}

impl FlightRecorder {
    /// A recorder labelled `context` (scenario/run name in exports),
    /// sampling every `period` event slots and retaining the most recent
    /// `capacity` samples. Stall detection is on by default
    /// ([`StallDetector::default`]); see
    /// [`FlightRecorder::with_detector`] /
    /// [`FlightRecorder::without_detector`].
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `capacity == 0`.
    pub fn new(context: impl Into<String>, period: u64, capacity: usize) -> Self {
        assert!(period > 0, "sample period must be positive");
        assert!(capacity > 0, "capacity must be positive");
        FlightRecorder {
            context: context.into(),
            period,
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
            detector: Some(StallDetector::default()),
            stalls: Vec::new(),
        }
    }

    /// Replaces the stall detector (e.g. with a tighter window).
    pub fn with_detector(mut self, detector: StallDetector) -> Self {
        self.detector = Some(detector);
        self
    }

    /// Disables stall detection.
    pub fn without_detector(mut self) -> Self {
        self.detector = None;
        self
    }

    /// The context label given at construction.
    pub fn context(&self) -> &str {
        &self.context
    }

    /// The sampling period in event slots.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> &VecDeque<EngineSample> {
        &self.ring
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<&EngineSample> {
        self.ring.back()
    }

    /// Samples evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Stall events detected so far (never evicted; stalls are rare and
    /// each spans a whole detector window).
    pub fn stalls(&self) -> &[StallEvent] {
        &self.stalls
    }

    /// Serializes the recording as JSON Lines: one header record (schema,
    /// context, period, capacity, dropped/retained counts), one record per
    /// retained sample (oldest first), then one record per stall event
    /// with its rendered diagnosis.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\":\"{FLIGHT_SCHEMA}\",\"context\":\"{}\",\"period\":{},\
             \"capacity\":{},\"dropped\":{},\"samples\":{},\"stalls\":{}}}",
            esc(&self.context),
            self.period,
            self.capacity,
            self.dropped,
            self.ring.len(),
            self.stalls.len(),
        );
        for s in &self.ring {
            let t = &s.totals;
            let _ = writeln!(
                out,
                "{{\"t\":\"sample\",\"slot\":{},\"event_slots\":{},\"backlog\":{},\
                 \"arrivals\":{},\"successes\":{},\"active_slots\":{},\
                 \"empty_active\":{},\"collision_slots\":{},\"jammed_active\":{},\
                 \"sends\":{},\"listens\":{},\"overhead_slots\":{},\
                 \"contention\":{},\"implicit_throughput\":{},\
                 \"footprint_bytes\":{},\"state_bytes\":{},\"stage_bytes\":{}}}",
                s.slot,
                s.event_slots,
                s.backlog,
                t.arrivals,
                t.successes,
                t.active_slots,
                t.empty_active,
                t.collision_slots,
                t.jammed_active,
                t.sends,
                t.listens,
                t.overhead_slots,
                num(s.contention),
                num(t.implicit_throughput()),
                s.footprint_bytes,
                s.state_bytes,
                s.stage_bytes,
            );
        }
        for ev in &self.stalls {
            let _ = writeln!(out, "{}", ev.to_json());
        }
        out
    }

    /// Publishes the recording's final counters and last-sample gauges
    /// into `out` under the `flight.*` namespace.
    pub fn publish(&self, out: &mut Registry) {
        out.add("flight.samples", self.ring.len() as u64 + self.dropped);
        out.add("flight.dropped", self.dropped);
        out.add("flight.stalls", self.stalls.len() as u64);
        if let Some(s) = self.last() {
            let t = &s.totals;
            out.set("flight.last.backlog", s.backlog as f64);
            out.set("flight.last.contention", s.contention);
            out.set("flight.last.implicit_throughput", t.implicit_throughput());
            out.set("flight.last.footprint_bytes", s.footprint_bytes as f64);
            out.set("flight.last.state_bytes", s.state_bytes as f64);
            out.set("flight.last.stage_bytes", s.stage_bytes as f64);
            out.set("flight.last.overhead_slots", t.overhead_slots as f64);
        }
    }
}

impl<P> Hooks<P> for FlightRecorder {
    fn wants_observe(&self) -> bool {
        false
    }

    fn sample_period(&self) -> Option<u64> {
        Some(self.period)
    }

    fn on_sample(&mut self, sample: &EngineSample) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(*sample);
        if let Some(d) = self.detector.as_mut() {
            if let Some(ev) = d.feed(sample) {
                self.stalls.push(ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stall::StallConfig;
    use lowsense_sim::metrics::Totals;

    fn sample(event_slots: u64) -> EngineSample {
        EngineSample {
            slot: event_slots,
            event_slots,
            backlog: 4,
            contention: 2.0,
            totals: Totals {
                arrivals: 4,
                active_slots: event_slots,
                collision_slots: event_slots,
                sends: 2 * event_slots,
                ..Totals::default()
            },
            footprint_bytes: 1024,
            state_bytes: 512,
            stage_bytes: 256,
        }
    }

    fn feed<P>(rec: &mut FlightRecorder, s: &EngineSample)
    where
        FlightRecorder: Hooks<P>,
    {
        Hooks::<P>::on_sample(rec, s);
    }

    #[test]
    fn ring_bounds_and_drops() {
        let mut rec = FlightRecorder::new("test", 1, 3).without_detector();
        for k in 1..=5 {
            feed::<u8>(&mut rec, &sample(k));
        }
        assert_eq!(rec.samples().len(), 3);
        assert_eq!(rec.dropped(), 2);
        assert_eq!(rec.samples().front().unwrap().event_slots, 3);
        assert_eq!(rec.last().unwrap().event_slots, 5);
    }

    #[test]
    fn hooks_surface_is_sample_only() {
        let rec = FlightRecorder::new("test", 16, 8);
        assert!(!Hooks::<u8>::wants_observe(&rec));
        assert_eq!(Hooks::<u8>::sample_period(&rec), Some(16));
    }

    #[test]
    fn jsonl_has_header_samples_and_stalls() {
        let mut rec = FlightRecorder::new("ctx\"quoted", 1, 64).with_detector(StallDetector::new(
            StallConfig {
                window: 4,
                dominance: 0.9,
            },
        ));
        for k in [1u64, 8] {
            feed::<u8>(&mut rec, &sample(k));
        }
        assert_eq!(rec.stalls().len(), 1, "pure-collision stretch stalls");
        let text = rec.to_jsonl();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"schema\":\"lowsense-obs-flight/1\""));
        assert!(header.contains("\"context\":\"ctx\\\"quoted\""));
        assert!(header.contains("\"samples\":2"));
        assert!(header.contains("\"stalls\":1"));
        let samples: Vec<&str> = lines
            .clone()
            .filter(|l| l.contains("\"t\":\"sample\""))
            .collect();
        assert_eq!(samples.len(), 2);
        // Every sample carries all three engine byte terms, `stage_bytes` last.
        let bytes = "\"footprint_bytes\":1024,\"state_bytes\":512,\"stage_bytes\":256}";
        assert!(samples.iter().all(|l| l.ends_with(bytes)));
        let stall_line = lines.find(|l| l.contains("\"t\":\"stall\"")).unwrap();
        assert!(stall_line.contains("collision-dominated"));
    }

    #[test]
    fn publish_writes_flight_namespace() {
        let mut rec = FlightRecorder::new("t", 1, 4).without_detector();
        feed::<u8>(&mut rec, &sample(2));
        let mut reg = Registry::new();
        rec.publish(&mut reg);
        assert_eq!(reg.counter("flight.samples"), 1);
        assert_eq!(reg.gauge("flight.last.backlog"), Some(4.0));
        assert_eq!(reg.gauge("flight.last.footprint_bytes"), Some(1024.0));
        assert_eq!(reg.gauge("flight.last.state_bytes"), Some(512.0));
        assert_eq!(reg.gauge("flight.last.stage_bytes"), Some(256.0));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        FlightRecorder::new("t", 0, 1);
    }
}
