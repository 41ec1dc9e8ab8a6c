//! The telemetry registry: named counters, gauges, and histograms.
//!
//! Instrumented code publishes through the [`Telemetry`] trait and is
//! generic over the implementation. [`NoTelemetry`] (the default
//! everywhere) has empty method bodies and `enabled() == false`, a
//! constant the compiler monomorphizes into dead-branch removal — the
//! off-path performs no hashing, no map lookups, no allocation, nothing.
//! [`Registry`] is the live implementation: `BTreeMap`-backed storage so
//! every export is deterministically ordered regardless of publish order.

use std::collections::BTreeMap;

use crate::json::{esc, num};

/// Schema tag stamped on [`Registry::to_json`] output.
pub const REGISTRY_SCHEMA: &str = "lowsense-obs-registry/1";

/// A sink for named metrics.
///
/// All methods default to no-ops so instrumentation points cost nothing
/// unless a live sink is plugged in. `enabled` mirrors the
/// [`Hooks::wants_observe`](lowsense_sim::hooks::Hooks::wants_observe)
/// contract: implementations must return a constant, and instrumented
/// code may consult it once to skip the *construction* of expensive
/// metric inputs (formatting a name, computing a ratio) — never to change
/// what the instrumented algorithm itself does.
pub trait Telemetry {
    /// Whether publishes reach a live sink. Must be constant.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the counter `name` (creating it at 0).
    fn add(&mut self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the gauge `name` to `value` (last write wins).
    fn set(&mut self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Records one observation of `value` into the histogram `name`.
    fn observe(&mut self, name: &str, value: f64) {
        let _ = (name, value);
    }
}

/// The zero-cost default sink: publishes vanish at compile time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTelemetry;

impl Telemetry for NoTelemetry {}

/// A recorded histogram: moment summary plus power-of-two magnitude
/// buckets (bucket `k` counts values `v` with `2^(k-1) < |v| ≤ 2^k`,
/// bucket 0 counts `|v| ≤ 1`). Log-scale buckets fit the workspace's
/// heavy-tailed quantities (latencies, footprints, cycle counts) without
/// per-histogram configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`None` until the first).
    pub min: Option<f64>,
    /// Largest observation (`None` until the first).
    pub max: Option<f64>,
    /// Sparse magnitude buckets, keyed by bucket index.
    pub buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        let mag = v.abs();
        let bucket = if mag <= 1.0 {
            0
        } else {
            // ceil(log2(mag)), capped to keep the key space tiny.
            (mag.log2().ceil() as i64).clamp(1, 128) as u32
        };
        *self.buckets.entry(bucket).or_insert(0) += 1;
    }

    /// Mean observation (`None` until the first).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// The live sink: deterministic `BTreeMap` storage for counters, gauges,
/// and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Current value of counter `name` (0 if never published).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if any observation reached it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another registry into this one: counters add, gauges take
    /// the other side's value (it is the later writer), histograms merge
    /// moment-wise and bucket-wise. Supports fan-in from per-shard
    /// registries.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            let mine = self.histograms.entry(k.clone()).or_default();
            mine.count += h.count;
            mine.sum += h.sum;
            mine.min = match (mine.min, h.min) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            mine.max = match (mine.max, h.max) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            for (bucket, n) in &h.buckets {
                *mine.buckets.entry(*bucket).or_insert(0) += n;
            }
        }
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
        let _ = write!(out, "}},\"histograms\":{{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{comma}\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":{{",
                esc(k),
                h.count,
                num(h.sum),
                h.min.map_or("null".into(), num),
                h.max.map_or("null".into(), num),
            );
            for (j, (bucket, n)) in h.buckets.iter().enumerate() {
                let comma = if j > 0 { "," } else { "" };
                let _ = write!(out, "{comma}\"{bucket}\":{n}");
            }
            let _ = write!(out, "}}}}");
        }
        let _ = write!(out, "}}}}");
        out
    }
}

impl Telemetry for Registry {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    fn observe(&mut self, name: &str, value: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::default();
                h.record(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_telemetry_is_disabled_and_inert() {
        let mut t = NoTelemetry;
        assert!(!t.enabled());
        t.add("x", 1);
        t.set("y", 2.0);
        t.observe("z", 3.0);
    }

    #[test]
    fn registry_records_and_reads_back() {
        let mut r = Registry::new();
        r.add("runs", 2);
        r.add("runs", 3);
        r.set("ratio", 5.5);
        r.observe("lat", 3.0);
        r.observe("lat", 9.0);
        assert!(r.enabled());
        assert_eq!(r.counter("runs"), 5);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("ratio"), Some(5.5));
        let h = r.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.mean(), Some(6.0));
        assert_eq!(h.min, Some(3.0));
        assert_eq!(h.max, Some(9.0));
    }

    #[test]
    fn histogram_buckets_are_log2_magnitude() {
        let mut h = Histogram::default();
        h.record(0.5); // bucket 0
        h.record(1.0); // bucket 0
        h.record(3.0); // 2 < 3 <= 4 => bucket 2
        h.record(-5.0); // |v|=5, 4 < 5 <= 8 => bucket 3
        assert_eq!(h.buckets.get(&0), Some(&2));
        assert_eq!(h.buckets.get(&2), Some(&1));
        assert_eq!(h.buckets.get(&3), Some(&1));
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
        let json = a.to_json();
        assert!(json.starts_with("{\"schema\":\"lowsense-obs-registry/1\""));
        assert!(json.find("a.first").unwrap() < json.find("b.second").unwrap());
    }

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let mut a = Registry::new();
        a.add("n", 2);
        a.observe("h", 1.0);
        let mut b = Registry::new();
        b.add("n", 3);
        b.add("only_b", 7);
        b.observe("h", 100.0);
        b.set("g", 4.0);
        a.merge(&b);
        assert_eq!(a.counter("n"), 5);
        assert_eq!(a.counter("only_b"), 7);
        assert_eq!(a.gauge("g"), Some(4.0));
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, Some(1.0));
        assert_eq!(h.max, Some(100.0));
    }
}
