//! T3 — Bounded backlog under adversarial queuing (Corollary 1.5).
//!
//! Arrivals follow the adversarial-queuing model: at most `λ·S` packets plus
//! jammed slots per window of `S` slots, placed adversarially (burstiest:
//! all at the window front), with a window-prefix jammer consuming part of
//! the budget. The paper: the backlog at any time is `O(S)` w.h.p. We sweep
//! `S` over two decades and report `max backlog / S` — reproduction holds if
//! the ratio is flat in `S` and `O(1)`.
//!
//! The `S` sweep is the scenario axis of a [`CampaignSpec`], and the
//! per-run backlog peaks fold into declared metrics whose `Welford`
//! moments carry the mean *and* the worst case the table reports.

use lowsense::{LowSensing, Params};
use lowsense_campaign::{CampaignSpec, ScenarioPoint};
use lowsense_sim::scenario::scenarios;

use crate::runner::Scale;
use crate::table::{Cell, Table};

const LAMBDA_ARRIVALS: f64 = 0.10;
const LAMBDA_JAM: f64 = 0.05;

/// The T3 sweep as a campaign: one adversarial-queuing scenario per window
/// granularity `S`, horizon `S · horizon_windows`, with the per-run peak
/// and final backlogs as declared metrics.
pub fn backlog_spec(ss: &[u64], horizon_windows: u64, replicates: u32, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new("t3_backlog")
        .seed(seed)
        .replicates(replicates);
    for &s in ss {
        spec = spec.scenario(
            ScenarioPoint::new(
                scenarios::queuing_jammed(LAMBDA_ARRIVALS, LAMBDA_JAM, s)
                    .until_slot(s * horizon_windows)
                    .totals_only()
                    .boxed(),
            )
            .knob("S", s as f64),
        );
    }
    spec.protocol("low-sensing", |sc, _| {
        sc.run_sparse(|_| LowSensing::new(Params::default()))
    })
    .metric("max_backlog", |r| r.totals.max_backlog as f64)
    .metric("final_backlog", |r| r.totals.backlog() as f64)
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let ss: Vec<u64> = (6..=scale.pick(9, 13)).map(|k| 1u64 << k).collect();
    let horizon_windows: u64 = scale.pick(100, 200);
    let result = backlog_spec(&ss, horizon_windows, scale.seeds() as u32, 30_000).run();
    let mut table = Table::new(
        "T3",
        format!(
            "backlog under adversarial queuing (λ_arr={LAMBDA_ARRIVALS}, λ_jam={LAMBDA_JAM}, front placement)"
        ),
    )
    .columns([
        "S",
        "horizon",
        "max_backlog(mean)",
        "max_backlog(worst)",
        "ratio_to_S",
        "final_backlog(mean)",
    ]);

    let mut ratios = Vec::new();
    // One cell per granularity, in scenario-axis (= `ss`) order: a single
    // protocol means the cell list and the sweep line up one-to-one.
    for (cell, &s) in result.cells.iter().zip(&ss) {
        let maxb = cell
            .stats
            .metric("max_backlog")
            .expect("declared metric")
            .summary();
        let finb = cell
            .stats
            .metric("final_backlog")
            .expect("declared metric")
            .summary();
        let ratio = maxb.max / s as f64;
        ratios.push(ratio);
        table.row(vec![
            Cell::UInt(s),
            Cell::UInt(s * horizon_windows),
            Cell::Float(maxb.mean, 1),
            Cell::Float(maxb.max, 0),
            Cell::Float(ratio, 3),
            Cell::Float(finb.mean, 1),
        ]);
    }

    let spread = ratios.iter().fold(0.0f64, |a, &b| a.max(b))
        / ratios
            .iter()
            .fold(f64::INFINITY, |a, &b| a.min(b))
            .max(1e-9);
    table.note("paper: Cor 1.5 — backlog is O(S) w.h.p. at every slot for sufficiently small λ");
    table.note(format!(
        "measured: worst-case backlog/S stays O(1) across the sweep \
         (max/min ratio of the column = {spread:.2}; flat = reproduced)"
    ));
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_ratio_is_bounded() {
        let t = &run(Scale::Quick)[0];
        for row in &t.rows {
            if let Cell::Float(ratio, _) = row[4] {
                assert!(ratio < 30.0, "backlog/S ratio {ratio} looks unbounded");
            }
        }
    }

    #[test]
    fn spec_is_shard_invariant() {
        // The ported sweep inherits the campaign determinism contract.
        let spec = backlog_spec(&[64, 128], 25, 2, 7);
        assert_eq!(spec.cell_count(), 2);
        let oracle = spec.run_serial();
        assert_eq!(spec.run_sharded(3), oracle);
        // The backlog metrics actually folded (one sample per run).
        let w = oracle.cells[0]
            .stats
            .metric("max_backlog")
            .expect("declared metric");
        assert_eq!(w.count(), 2);
        assert!(w.max() >= w.mean());
        assert!(w.max() > 0.0, "adversarial queuing never built a backlog");
    }
}
