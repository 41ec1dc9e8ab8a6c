//! A3 — Gentle vs blunt multiplicative updates.
//!
//! The paper's update factor `1 + 1/(c·ln w)` vanishes as `w` grows. The
//! obvious simplification — double/halve like classical backoff — interacts
//! badly with rare listening: each observation moves the window a constant
//! factor, so a few unlucky observations swing the send probability by
//! orders of magnitude, and the 'herd' overshoots in both directions. We
//! compare the paper's rule against constant factors under jamming. Each
//! row runs `LowSensing` under its `Rule`, so the gentle rows are the
//! shipped protocol.
//!
//! `latency_p99` is the mean over replicates of each run's own
//! 99th-percentile latency.

use lowsense::{Params, Rule, Update};
use lowsense_campaign::CampaignSpec;
use lowsense_stats::tail_summary;

use crate::common::{ablation_batches, lsb_with};
use crate::runner::Scale;
use crate::table::{Cell, Table};

/// The campaign seed A3 sweeps under.
const A3_SEED: u64 = 0xA_3;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let n: u64 = scale.pick(1 << 10, 1 << 13);
    let rules = [
        ("gentle 1+1/(c·ln w)", Update::Gentle),
        ("factor 1.5", Update::Factor(1.5)),
        ("factor 2.0", Update::Factor(2.0)),
        ("factor 4.0", Update::Factor(4.0)),
    ];
    let mut spec = CampaignSpec::new("a3_update_rule")
        .seed(A3_SEED)
        .replicates(scale.seeds() as u32)
        .scenarios(ablation_batches(n, 0.15))
        .metric("latency_p99", |r| tail_summary(&r.latencies()).2);
    for (name, update) in rules {
        let mut rule = Rule::PAPER;
        rule.update = update;
        let p = Params::default()
            .with_rule(rule)
            .expect("valid sweep point");
        spec = spec.protocol(name, move |sc, _| sc.run_sparse(lsb_with(p)));
    }
    let result = spec.run();
    let mut table = Table::new(
        "A3",
        format!("window update rule (batch N={n}): gentle vs constant factor"),
    )
    .columns([
        "rule",
        "jam",
        "throughput",
        "mean_accesses",
        "max_accesses",
        "latency_p99",
    ]);

    for ri in 0..rules.len() {
        for si in 0..2 {
            let cell = result.cell(si, ri);
            let stats = &cell.stats;
            let lat_p99 = stats.metric("latency_p99").expect("declared metric");
            table.row(vec![
                Cell::text(cell.protocol.clone()),
                Cell::text(cell.scenario.clone()),
                Cell::Float(stats.throughput.mean(), 3),
                Cell::Float(stats.accesses.mean(), 1),
                Cell::Float(stats.accesses.max(), 0),
                Cell::Float(lat_p99.mean(), 0),
            ]);
        }
    }

    table.note(
        "ablation: blunter factors spend less energy (both access columns fall as the \
         factor grows) but lose throughput and stretch the latency tail: factor 4 keeps \
         under a quarter of the gentle rule's clean throughput, and its latency p99 \
         grows most under jamming — the gentle factor is what makes each \
         observation's damage O(1/ln³w) of potential (Lemma 5.9)",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_drains() {
        let t = &run(Scale::Quick)[0];
        for row in &t.rows {
            if let Cell::Float(tp, _) = row[2] {
                assert!(tp > 0.02, "throughput collapsed: {row:?}");
            }
        }
    }
}
