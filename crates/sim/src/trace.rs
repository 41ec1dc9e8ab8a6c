//! Event tracing: a bounded in-memory log of everything that happened.
//!
//! [`EventLog`] is a [`Hooks`] implementation that records injections,
//! observations, slot outcomes, gaps, and departures — capped at a
//! configurable length so long runs cannot exhaust memory. Logged
//! [`PacketId`]s are original injection-order ids, stable for the whole
//! run: the sparse engine's internal table compaction never shows through
//! (see [`PacketTable`](crate::engine::table::PacketTable)). It is the
//! debugging companion for protocol implementations: run a small instance,
//! dump the log, and read the execution slot by slot.
//!
//! ```
//! use lowsense_sim::prelude::*;
//! use lowsense_sim::trace::{Event, EventLog};
//! use lowsense_sim::dist::geometric;
//!
//! #[derive(Clone)]
//! struct Fixed(f64);
//! impl Protocol for Fixed {
//!     fn intent(&mut self, rng: &mut SimRng) -> Intent {
//!         if rng.bernoulli(self.0) { Intent::Send } else { Intent::Sleep }
//!     }
//!     fn observe(&mut self, _obs: &Observation) {}
//!     fn send_probability(&self) -> f64 { self.0 }
//!     fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
//!         Some(geometric(rng, self.0))
//!     }
//! }
//! impl SparseProtocol for Fixed {
//!     fn send_on_access(&mut self, _rng: &mut SimRng) -> bool { true }
//! }
//!
//! let mut log = EventLog::new(1024);
//! let _ = run_sparse(&SimConfig::new(1), Batch::new(2), NoJam, |_| Fixed(0.2), &mut log);
//! assert!(log.events().any(|e| matches!(e, Event::Depart { .. })));
//! ```

use std::collections::VecDeque;
use std::fmt;

use crate::feedback::SlotOutcome;
use crate::hooks::Hooks;
use crate::packet::PacketId;
use crate::time::Slot;

/// One recorded simulation event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A packet entered the system.
    Inject {
        /// Slot of injection.
        slot: Slot,
        /// The packet.
        id: PacketId,
    },
    /// A packet left the system (successful transmission).
    Depart {
        /// Slot of success.
        slot: Slot,
        /// The packet.
        id: PacketId,
    },
    /// A packet observed a slot it accessed.
    Observe {
        /// The observed slot.
        slot: Slot,
        /// The packet.
        id: PacketId,
    },
    /// A slot resolved with the given outcome.
    Slot {
        /// The slot.
        slot: Slot,
        /// Its resolution.
        outcome: SlotOutcome,
    },
    /// The engine skipped a silent range `[from, to)`.
    Gap {
        /// First skipped slot.
        from: Slot,
        /// One past the last skipped slot.
        to: Slot,
        /// Jammed slots inside the range.
        jammed: u64,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Inject { slot, id } => write!(f, "[{slot}] inject {id}"),
            Event::Depart { slot, id } => write!(f, "[{slot}] depart {id}"),
            Event::Observe { slot, id } => write!(f, "[{slot}] observe {id}"),
            Event::Slot { slot, outcome } => write!(f, "[{slot}] {outcome:?}"),
            Event::Gap { from, to, jammed } => {
                write!(f, "[{from}..{to}) silent gap ({jammed} jammed)")
            }
        }
    }
}

/// A bounded event log; oldest events are evicted once `capacity` is
/// reached.
#[derive(Debug, Clone)]
pub struct EventLog {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl EventLog {
    /// Creates a log holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        EventLog {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, e: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl ExactSizeIterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of events evicted due to the capacity cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the retained tail as one line per event.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.dropped > 0 {
            let _ = writeln!(out, "… {} earlier events dropped …", self.dropped);
        }
        for e in &self.events {
            let _ = writeln!(out, "{e}");
        }
        out
    }

    /// Serializes the log as JSON Lines: a header record carrying the
    /// schema tag, the capacity, and the `dropped` count, followed by one
    /// record per retained event (oldest first). The exact inverse of
    /// [`EventLog::from_jsonl`].
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\":\"{}\",\"capacity\":{},\"dropped\":{},\"events\":{}}}",
            TRACE_SCHEMA,
            self.capacity,
            self.dropped,
            self.events.len()
        );
        for e in &self.events {
            match e {
                Event::Inject { slot, id } => {
                    let _ = writeln!(out, "{{\"ev\":\"inject\",\"slot\":{slot},\"id\":{}}}", id.0);
                }
                Event::Depart { slot, id } => {
                    let _ = writeln!(out, "{{\"ev\":\"depart\",\"slot\":{slot},\"id\":{}}}", id.0);
                }
                Event::Observe { slot, id } => {
                    let _ = writeln!(
                        out,
                        "{{\"ev\":\"observe\",\"slot\":{slot},\"id\":{}}}",
                        id.0
                    );
                }
                Event::Slot { slot, outcome } => {
                    let _ = match outcome {
                        SlotOutcome::Empty => writeln!(
                            out,
                            "{{\"ev\":\"slot\",\"slot\":{slot},\"outcome\":\"empty\"}}"
                        ),
                        SlotOutcome::Success { id } => writeln!(
                            out,
                            "{{\"ev\":\"slot\",\"slot\":{slot},\"outcome\":\"success\",\"id\":{}}}",
                            id.0
                        ),
                        SlotOutcome::Collision { senders } => writeln!(
                            out,
                            "{{\"ev\":\"slot\",\"slot\":{slot},\"outcome\":\"collision\",\"senders\":{senders}}}"
                        ),
                        SlotOutcome::Jammed { senders } => writeln!(
                            out,
                            "{{\"ev\":\"slot\",\"slot\":{slot},\"outcome\":\"jammed\",\"senders\":{senders}}}"
                        ),
                    };
                }
                Event::Gap { from, to, jammed } => {
                    let _ = writeln!(
                        out,
                        "{{\"ev\":\"gap\",\"from\":{from},\"to\":{to},\"jammed\":{jammed}}}"
                    );
                }
            }
        }
        out
    }

    /// Reconstructs a log from [`EventLog::to_jsonl`] output.
    ///
    /// Returns an error naming the offending line for an unknown schema,
    /// a malformed record (including an id or sender count above
    /// `u32::MAX`), a record past the header's capacity, or an event count
    /// that disagrees with the header. Round-trips exactly: capacity,
    /// dropped count, and the retained event sequence all survive.
    pub fn from_jsonl(text: &str) -> Result<EventLog, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty trace: missing header")?;
        if json_str(header, "schema").as_deref() != Some(TRACE_SCHEMA) {
            return Err(format!("unknown trace schema in header: {header}"));
        }
        let capacity = json_u64(header, "capacity")
            .ok_or_else(|| format!("header missing capacity: {header}"))?
            as usize;
        let dropped = json_u64(header, "dropped")
            .ok_or_else(|| format!("header missing dropped: {header}"))?;
        let declared =
            json_u64(header, "events").ok_or_else(|| format!("header missing events: {header}"))?;
        let mut log = EventLog::new(capacity.max(1));
        let mut events = VecDeque::new();
        for line in lines {
            let bad = || format!("malformed trace record: {line}");
            if events.len() == log.capacity {
                return Err(format!("trace record past capacity {capacity}: {line}"));
            }
            let ev = json_str(line, "ev").ok_or_else(bad)?;
            let e = match ev.as_str() {
                "inject" | "depart" | "observe" => {
                    let slot = json_u64(line, "slot").ok_or_else(bad)?;
                    let id = PacketId(json_u32(line, "id").ok_or_else(bad)?);
                    match ev.as_str() {
                        "inject" => Event::Inject { slot, id },
                        "depart" => Event::Depart { slot, id },
                        _ => Event::Observe { slot, id },
                    }
                }
                "slot" => {
                    let slot = json_u64(line, "slot").ok_or_else(bad)?;
                    let outcome = match json_str(line, "outcome").ok_or_else(bad)?.as_str() {
                        "empty" => SlotOutcome::Empty,
                        "success" => SlotOutcome::Success {
                            id: PacketId(json_u32(line, "id").ok_or_else(bad)?),
                        },
                        "collision" => SlotOutcome::Collision {
                            senders: json_u32(line, "senders").ok_or_else(bad)?,
                        },
                        "jammed" => SlotOutcome::Jammed {
                            senders: json_u32(line, "senders").ok_or_else(bad)?,
                        },
                        _ => return Err(bad()),
                    };
                    Event::Slot { slot, outcome }
                }
                "gap" => Event::Gap {
                    from: json_u64(line, "from").ok_or_else(bad)?,
                    to: json_u64(line, "to").ok_or_else(bad)?,
                    jammed: json_u64(line, "jammed").ok_or_else(bad)?,
                },
                _ => return Err(bad()),
            };
            events.push_back(e);
        }
        if events.len() as u64 != declared {
            return Err(format!(
                "header declares {declared} events, found {}",
                events.len()
            ));
        }
        log.events = events;
        log.dropped = dropped;
        Ok(log)
    }
}

/// Schema tag stamped on the [`EventLog::to_jsonl`] header record.
pub const TRACE_SCHEMA: &str = "lowsense-trace/1";

/// Extracts the unsigned-integer value of `"key":<digits>` from a flat
/// one-line JSON record (the only shape this module emits).
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// [`json_u64`] for a `u32` field: a larger value is malformed, never
/// truncated.
fn json_u32(line: &str, key: &str) -> Option<u32> {
    json_u64(line, key).and_then(|v| u32::try_from(v).ok())
}

/// Extracts the string value of `"key":"…"` from a flat one-line JSON
/// record. Values never contain escapes in this module's schema.
fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    Some(rest[..rest.find('"')?].to_string())
}

impl<P> Hooks<P> for EventLog {
    fn on_inject(&mut self, t: Slot, id: PacketId, _state: &P) {
        self.push(Event::Inject { slot: t, id });
    }

    fn on_depart(&mut self, t: Slot, id: PacketId, _state: &P) {
        self.push(Event::Depart { slot: t, id });
    }

    fn on_observe(&mut self, t: Slot, id: PacketId, _before: &P, _after: &P) {
        self.push(Event::Observe { slot: t, id });
    }

    fn on_slot(&mut self, t: Slot, outcome: &SlotOutcome) {
        self.push(Event::Slot {
            slot: t,
            outcome: *outcome,
        });
    }

    fn on_gap(&mut self, from: Slot, to: Slot, jammed: u64) {
        self.push(Event::Gap { from, to, jammed });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hooks(log: &mut EventLog) -> &mut dyn Hooks<u8> {
        log
    }

    #[test]
    fn records_in_order() {
        let mut log = EventLog::new(16);
        hooks(&mut log).on_inject(0, PacketId(0), &0);
        hooks(&mut log).on_slot(0, &SlotOutcome::Empty);
        hooks(&mut log).on_gap(1, 5, 2);
        hooks(&mut log).on_observe(5, PacketId(0), &0, &1);
        hooks(&mut log).on_depart(5, PacketId(0), &1);
        let events: Vec<&Event> = log.events().collect();
        assert_eq!(events.len(), 5);
        assert!(matches!(events[0], Event::Inject { slot: 0, .. }));
        assert!(matches!(events[4], Event::Depart { slot: 5, .. }));
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut log = EventLog::new(3);
        for t in 0..5 {
            hooks(&mut log).on_slot(t, &SlotOutcome::Empty);
        }
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.dropped(), 2);
        // Oldest retained event is slot 2.
        assert!(matches!(
            log.events().next(),
            Some(Event::Slot { slot: 2, .. })
        ));
    }

    #[test]
    fn dump_is_line_per_event() {
        let mut log = EventLog::new(2);
        for t in 0..3 {
            hooks(&mut log).on_slot(t, &SlotOutcome::Empty);
        }
        let dump = log.dump();
        assert!(dump.starts_with("… 1 earlier events dropped …"));
        assert_eq!(dump.lines().count(), 3);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Event::Inject {
                slot: 3,
                id: PacketId(1)
            }
            .to_string(),
            "[3] inject pkt#1"
        );
        assert_eq!(
            Event::Gap {
                from: 2,
                to: 9,
                jammed: 1
            }
            .to_string(),
            "[2..9) silent gap (1 jammed)"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        EventLog::new(0);
    }

    #[test]
    fn jsonl_round_trips_with_dropped_header() {
        let mut log = EventLog::new(4);
        hooks(&mut log).on_inject(0, PacketId(0), &0);
        hooks(&mut log).on_slot(0, &SlotOutcome::Collision { senders: 2 });
        hooks(&mut log).on_gap(1, 9, 3);
        hooks(&mut log).on_slot(9, &SlotOutcome::Success { id: PacketId(0) });
        hooks(&mut log).on_observe(9, PacketId(0), &0, &1);
        hooks(&mut log).on_depart(9, PacketId(0), &1);
        assert_eq!(log.dropped(), 2, "capacity 4 evicted the oldest two");

        let text = log.to_jsonl();
        let header = text.lines().next().unwrap();
        assert!(header.contains("\"schema\":\"lowsense-trace/1\""));
        assert!(header.contains("\"dropped\":2"));
        assert_eq!(text.lines().count(), 1 + 4, "header + retained events");

        let back = EventLog::from_jsonl(&text).unwrap();
        assert_eq!(back.dropped(), log.dropped());
        assert_eq!(
            back.events().collect::<Vec<_>>(),
            log.events().collect::<Vec<_>>()
        );
        // A second trip is byte-stable.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn jsonl_covers_every_outcome_variant() {
        let mut log = EventLog::new(8);
        hooks(&mut log).on_slot(0, &SlotOutcome::Empty);
        hooks(&mut log).on_slot(1, &SlotOutcome::Success { id: PacketId(7) });
        hooks(&mut log).on_slot(2, &SlotOutcome::Collision { senders: 5 });
        hooks(&mut log).on_slot(3, &SlotOutcome::Jammed { senders: 1 });
        let back = EventLog::from_jsonl(&log.to_jsonl()).unwrap();
        assert_eq!(
            back.events().collect::<Vec<_>>(),
            log.events().collect::<Vec<_>>()
        );
    }

    #[test]
    fn jsonl_rejects_malformed_input() {
        assert!(EventLog::from_jsonl("").is_err());
        assert!(EventLog::from_jsonl("{\"schema\":\"bogus/9\"}").is_err());
        let missing =
            "{\"schema\":\"lowsense-trace/1\",\"capacity\":4,\"dropped\":0,\"events\":1}\n\
                       {\"ev\":\"slot\",\"slot\":0}";
        assert!(EventLog::from_jsonl(missing).is_err(), "outcome missing");
        let miscount =
            "{\"schema\":\"lowsense-trace/1\",\"capacity\":4,\"dropped\":0,\"events\":2}\n\
                        {\"ev\":\"gap\",\"from\":0,\"to\":5,\"jammed\":0}";
        assert!(EventLog::from_jsonl(miscount).is_err(), "count mismatch");
        // A loaded log must keep its bound: `push` evicts only at
        // `len == capacity`, so a log loaded past it would never evict.
        let over_capacity =
            "{\"schema\":\"lowsense-trace/1\",\"capacity\":1,\"dropped\":0,\"events\":3}\n\
                             {\"ev\":\"inject\",\"slot\":0,\"id\":0}\n\
                             {\"ev\":\"inject\",\"slot\":0,\"id\":1}\n\
                             {\"ev\":\"inject\",\"slot\":0,\"id\":2}";
        assert!(
            EventLog::from_jsonl(over_capacity).is_err(),
            "past capacity"
        );
        assert!(
            EventLog::from_jsonl(&over_capacity.replace("\"capacity\":1", "\"capacity\":3"))
                .is_ok()
        );
        let wide_id =
            "{\"schema\":\"lowsense-trace/1\",\"capacity\":4,\"dropped\":0,\"events\":1}\n\
                       {\"ev\":\"inject\",\"slot\":0,\"id\":4294967296}";
        assert!(EventLog::from_jsonl(wide_id).is_err(), "id above u32::MAX");
        assert!(EventLog::from_jsonl(&wide_id.replace("4294967296", "4294967295")).is_ok());
        let wide_senders =
            "{\"schema\":\"lowsense-trace/1\",\"capacity\":4,\"dropped\":0,\"events\":1}\n\
                            {\"ev\":\"slot\",\"slot\":0,\"outcome\":\"collision\",\"senders\":4294967296}";
        assert!(
            EventLog::from_jsonl(wide_senders).is_err(),
            "senders above u32::MAX"
        );
        assert!(EventLog::from_jsonl(&wide_senders.replace("4294967296", "4294967295")).is_ok());
    }
}
