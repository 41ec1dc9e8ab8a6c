//! # lowsense-obs — deterministic observability
//!
//! The observation layer for the lowsense workspace: named telemetry, an
//! engine flight recorder, and stall/livelock detection — all built on one
//! rule that makes them safe to thread through a bit-reproducible
//! simulator:
//!
//! > **Telemetry only ever *reads* state the instrumented code already
//! > maintains, after the instrumented step has fully resolved.** It never
//! > draws randomness, never reorders work, never adds floating-point
//! > operations to accumulation chains. A run with telemetry attached is
//! > bit-identical to the same run without it.
//!
//! Three pieces:
//!
//! * [`Registry`] — named counters and gauges with one name-ordered JSON
//!   export. A publisher fills a `&mut Registry` once the run it describes
//!   has ended, so no publish call sits on a hot path.
//! * [`FlightRecorder`] — a [`Hooks`](lowsense_sim::hooks::Hooks)
//!   implementation that asks the sparse engine for a periodic
//!   [`EngineSample`](lowsense_sim::hooks::EngineSample) (backlog,
//!   contention, the run's [`Totals`](lowsense_sim::metrics::Totals) —
//!   the active-slot partition, send/listen energy, `overhead_slots` — and
//!   the wake-structure, packet-table and per-slot buffer footprints),
//!   keeps the last `capacity` of them in a bounded ring, and exports the
//!   lot as schema-versioned JSONL.
//! * [`StallDetector`] — watches the sample stream for "backlog
//!   non-decreasing while collision-or-silence slots dominate for a whole
//!   window" and renders a diagnosis. This is what turns the
//!   no-collision-detection collapse of full-sensing LOW-SENSING BACKOFF
//!   (Jiang–Zheng, arXiv:2111.06650) from a horizon-capped number into an
//!   explained event, and flags its dual — over-backoff silence — the same
//!   way.
//!
//! Every JSON record above is written through [`json::esc`] and
//! [`json::num`], the workspace's one rule for turning a string or a float
//! into JSON; `lowsense-campaign`'s artifact and progress writers use the
//! same two helpers.
//!
//! ```
//! use lowsense_obs::{FlightRecorder, Registry};
//! use lowsense_sim::prelude::*;
//! use lowsense_sim::scenario::scenarios;
//! use lowsense_sim::dist::geometric;
//!
//! #[derive(Clone)]
//! struct Aloha(f64);
//! impl Protocol for Aloha {
//!     fn intent(&mut self, rng: &mut SimRng) -> Intent {
//!         if rng.bernoulli(self.0) { Intent::Send } else { Intent::Sleep }
//!     }
//!     fn observe(&mut self, _obs: &Observation) {}
//!     fn send_probability(&self) -> f64 { self.0 }
//!     fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
//!         Some(geometric(rng, self.0))
//!     }
//! }
//! impl SparseProtocol for Aloha {
//!     fn send_on_access(&mut self, _rng: &mut SimRng) -> bool { true }
//! }
//!
//! let scenario = scenarios::batch_drain(64);
//! let mut rec = FlightRecorder::new(scenario.name(), 8, 1024);
//! let with = scenario.run_sparse_hooked(|_| Aloha(1.0 / 32.0), &mut rec);
//! let without = scenario.run_sparse(|_| Aloha(1.0 / 32.0));
//! assert_eq!(with.totals, without.totals); // observation is free
//! assert!(rec.samples().len() > 0);
//! let mut reg = Registry::new();
//! rec.publish(&mut reg);
//! assert!(reg.counter("flight.samples") > 0);
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]

mod flight;
mod registry;
mod stall;

pub use flight::{FlightRecorder, FLIGHT_SCHEMA};
pub use registry::{Registry, REGISTRY_SCHEMA};
pub use stall::{StallConfig, StallDetector, StallEvent, StallKind};

/// The workspace's one rule for writing a string or a float as JSON. Both
/// helpers are pure functions of their input, so a writer that keeps its
/// keys in a fixed order emits bytes that depend only on the values.
pub mod json {
    use std::fmt::Write as _;

    /// Escapes a string for embedding in a JSON string literal: `"` and `\`
    /// are backslash-escaped, every other control character is written as
    /// `\u00XX`, and everything else passes through.
    pub fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    /// Renders an `f64` as a JSON number in Rust's shortest round-trip form
    /// (deterministic across platforms; `3.0` prints as `3`). Non-finite
    /// values, which no accumulator should produce, become `null`.
    pub fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x}")
        } else {
            "null".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{esc, num};

    #[test]
    fn esc_handles_quotes_and_control() {
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("line\nbreak"), "line\\u000abreak");
        assert_eq!(esc("tab\there"), "tab\\u0009here");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn num_is_json_safe() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }
}
