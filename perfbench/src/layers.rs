//! The traced run: per-layer metrics, validated against the untraced run.
//!
//! Each iteration runs the workload once untraced and once traced. Both must
//! reproduce the program's reference output bit for bit, and the traced
//! run's refolded units must merge to the same cells; any mismatch counts
//! the iteration's runs as failed. Time metrics are medians over the
//! iterations; counts repeat exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::leaf::{self, Shape};
use crate::stats::{busy_frac, median, tail};
use crate::trace::Trace;
use crate::workloads::{self, Output, PerPacket, Rep, UnitRecord, Workload, SHARDS};

/// One named per-layer metric with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What the traced run reports.
pub struct Traced {
    /// The per-layer metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Runs attempted, counting every run of every iteration.
    pub attempted: u64,
    /// Runs that failed a check or belonged to a mismatching iteration.
    pub failed: u64,
    /// Traced iterations made.
    pub iterations: usize,
}

/// Runs the traced benchmark of `workload` for about `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Traced {
    let reference = workloads::reference(workload, seed);
    let reference_digest = reference.digest();
    let mut attempted = runs_in(&reference);
    let mut failed = 0;

    let epoch = Instant::now();
    let untraced = workloads::setup(workload, seed, None);
    let traced = workloads::setup(workload, seed, Some(epoch));

    let matches = |out: &Output| *out == reference && out.digest() == reference_digest;
    let mut per_iteration: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let (mut walls_untraced, mut walls_traced) = (Vec::new(), Vec::new());
    let mut last_units = Vec::new();
    let start = Instant::now();
    while per_iteration.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let plain = untraced.execute(None);
        attempted += plain.runs;
        failed += plain.failed;
        if !matches(&plain.output) {
            failed += plain.runs;
        }
        walls_untraced.push(plain.wall);

        let mut trace = Trace::with_epoch(epoch);
        let root = trace.open("workload", None);
        let rep = traced.execute(Some((&mut trace, root)));
        let units = traced.record_units(&mut trace, root, &rep);
        // The units' own folds, merged as the executor merges them, must
        // give every cell; only the merge itself is timed.
        let merged = match rep.run_span {
            Some(_) => {
                let (_, cells) =
                    trace.time("campaign.merge", Some(root), || traced.remerge(&units));
                cells.is_some_and(|cells| workloads::same_cells(&cells, &rep.output))
            }
            None => true,
        };
        trace.close(root);
        attempted += rep.runs;
        failed += rep.failed;
        if !merged || !matches(&rep.output) {
            failed += rep.runs;
        }
        walls_traced.push(rep.wall);

        per_iteration.push(iteration_metrics(&trace, &rep, &units));
        last_units = units;
    }

    let mut metrics: Vec<Metric> = LAYOUT
        .iter()
        .map(|&(name, unit)| {
            let samples: Vec<f64> = per_iteration.iter().map(|m| m[name]).collect();
            (name, median(&samples), unit)
        })
        .collect();
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .expect("layout metric")
    };
    let shape = Shape {
        stations: largest_run(&last_units) as usize,
        fanout: value("engine.fanout"),
        mean_gap: value("engine.mean_wake_gap"),
    };
    let leaf = leaf::measure(shape, seed);
    // Per-packet recording costs nothing on the totals-only workloads.
    let mut per_packet = PerPacket::default();
    if workload.per_packet() {
        per_packet = workloads::per_packet_pairs(seed);
        attempted += per_packet.runs;
        failed += per_packet.failed;
    }
    let per_packet_s = per_packet.recording_s - per_packet.totals_only_s;
    let per_packet_frac = if per_packet.recording_s > 0.0 {
        per_packet_s / per_packet.recording_s
    } else {
        0.0
    };
    metrics.extend([
        ("metrics.per_packet_s", per_packet_s, "s"),
        ("metrics.per_packet_frac", per_packet_frac, "ratio"),
        ("protocol.observe_ns", leaf.observe_ns, "ns"),
        ("protocol.next_wake_ns", leaf.next_wake_ns, "ns"),
        ("wake.schedule_ns", leaf.schedule_ns, "ns"),
        ("wake.drain_ns", leaf.drain_ns, "ns"),
        ("table.compact_ns", leaf.compact_ns, "ns"),
        ("stage.permute_ns", leaf.permute_ns, "ns"),
        ("stage.gather_ns", leaf.gather_ns, "ns"),
        ("table.scatter_ns", leaf.scatter_ns, "ns"),
        (
            "trace.overhead_frac",
            median(&walls_traced) / median(&walls_untraced) - 1.0,
            "ratio",
        ),
    ]);
    Traced {
        metrics,
        attempted,
        failed,
        iterations: per_iteration.len(),
    }
}

/// Per-iteration metrics, reported as medians over iterations, in
/// reporting order.
const LAYOUT: [(&str, &str); 18] = [
    ("campaign.units", "count"),
    ("campaign.unit_s.p50", "s"),
    ("campaign.unit_s.tail", "s"),
    ("campaign.unit_s.tail_pct", "%"),
    ("campaign.pool_busy_frac", "ratio"),
    ("campaign.self_s", "s"),
    ("campaign.fold_s", "s"),
    ("campaign.artifact_s", "s"),
    ("engine.s", "s"),
    ("engine.ns_per_access", "ns"),
    ("engine.accesses", "count"),
    ("engine.event_slots", "count"),
    ("engine.gap_slots", "count"),
    ("engine.fanout", "count"),
    ("engine.successes_per_send", "ratio"),
    ("engine.mean_wake_gap", "slots"),
    ("engine.stations", "count"),
    ("engine.footprint_bytes_per_station", "B"),
];

fn iteration_metrics(
    trace: &Trace,
    rep: &Rep,
    units: &[UnitRecord],
) -> BTreeMap<&'static str, f64> {
    let engine_s = trace.total("engine.run");
    // A campaign's units are its pool jobs; the single million-station
    // run is a one-unit, one-worker pool spanning the repetition.
    let (unit_secs, busy, self_s) = match rep.run_span {
        Some(run) => {
            let unit_secs = trace.durations("campaign.unit");
            let pool_wall = trace.spans()[run].secs();
            let busy = busy_frac(&unit_secs, SHARDS, pool_wall);
            (unit_secs, busy, trace.self_secs(run))
        }
        None => {
            let unit_secs = trace.durations("engine.run");
            let busy = busy_frac(&unit_secs, 1, rep.wall);
            (unit_secs, busy, rep.wall - engine_s)
        }
    };
    let t = tail(&unit_secs);

    let sum = |f: &dyn Fn(&UnitRecord) -> u64| units.iter().map(f).sum::<u64>() as f64;
    let accesses = sum(&|u| u.totals.accesses());
    let event_slots = sum(&|u| u.counters.event_slots);
    let station_slots = sum(&|u| u.counters.station_slots(u.totals.last_slot));
    let stations = largest_run(units);
    let footprint = units
        .iter()
        .filter(|u| u.counters.stations == stations)
        .map(|u| u.counters.peak_footprint_bytes as f64 / stations as f64)
        .fold(0.0, f64::max);

    BTreeMap::from([
        ("campaign.units", unit_secs.len() as f64),
        ("campaign.unit_s.p50", median(&unit_secs)),
        ("campaign.unit_s.tail", t.value),
        ("campaign.unit_s.tail_pct", t.pct),
        ("campaign.pool_busy_frac", busy),
        ("campaign.self_s", self_s),
        (
            "campaign.fold_s",
            trace.total("campaign.fold") + trace.total("campaign.merge"),
        ),
        ("campaign.artifact_s", trace.total("campaign.artifact")),
        ("engine.s", engine_s),
        ("engine.ns_per_access", engine_s * 1e9 / accesses),
        ("engine.accesses", accesses),
        ("engine.event_slots", event_slots),
        ("engine.gap_slots", sum(&|u| u.counters.gap_slots)),
        ("engine.fanout", accesses / event_slots),
        (
            "engine.successes_per_send",
            sum(&|u| u.totals.successes) / sum(&|u| u.totals.sends),
        ),
        ("engine.mean_wake_gap", station_slots / accesses),
        ("engine.stations", stations as f64),
        ("engine.footprint_bytes_per_station", footprint),
    ])
}

/// Station count of the workload's largest run.
fn largest_run(units: &[UnitRecord]) -> u64 {
    units.iter().map(|u| u.counters.stations).max().unwrap_or(0)
}

/// Simulation runs behind an output.
pub fn runs_in(output: &Output) -> u64 {
    match output {
        Output::Campaign(r) => r.cells.iter().map(|c| c.stats.runs).sum(),
        Output::Totals(_) => 1,
    }
}
