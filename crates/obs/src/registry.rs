//! The telemetry registry: named counters and gauges.
//!
//! A publisher fills a `&mut Registry` after the run it describes has
//! ended, so nothing here sits on a hot path. `BTreeMap` storage keeps
//! every export in name order, whatever order the values were published in.

use std::collections::BTreeMap;

use crate::json::{esc, num};

/// Schema tag stamped on [`Registry::to_json`] output.
pub const REGISTRY_SCHEMA: &str = "lowsense-obs-registry/2";

/// Named counters and gauges with deterministic, name-ordered JSON export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to the counter `name` (creating it at 0).
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Current value of counter `name` (0 if never published).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Serializes the registry as one deterministic JSON object
    /// (name-ordered sections, schema-tagged).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\"schema\":\"{REGISTRY_SCHEMA}\",\"counters\":{{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\"{}\":{v}", esc(k));
        }
        let _ = write!(out, "}},\"gauges\":{{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\"{}\":{}", esc(k), num(*v));
        }
        let _ = write!(out, "}}}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_records_and_reads_back() {
        let mut r = Registry::new();
        r.add("runs", 2);
        r.add("runs", 3);
        r.set("ratio", 5.5);
        r.set("ratio", 6.5);
        assert_eq!(r.counter("runs"), 5);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("ratio"), Some(6.5));
        assert_eq!(r.gauge("absent"), None);
    }

    #[test]
    fn to_json_is_deterministic_and_name_ordered() {
        let mut a = Registry::new();
        a.add("b.second", 1);
        a.add("a.first", 1);
        a.set("g", 1.0);
        let mut b = Registry::new();
        b.set("g", 1.0);
        b.add("a.first", 1);
        b.add("b.second", 1);
        assert_eq!(a.to_json(), b.to_json(), "publish order must not show");
        assert_eq!(
            a.to_json(),
            "{\"schema\":\"lowsense-obs-registry/2\",\
             \"counters\":{\"a.first\":1,\"b.second\":1},\"gauges\":{\"g\":1}}"
        );
    }
}
