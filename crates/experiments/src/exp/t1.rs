//! T1 — Implicit throughput over time (Theorem 1.3 / Corollary 5.21).
//!
//! The paper: at the t-th active slot, implicit throughput `(N_t+J_t)/S_t`
//! is `Ω(1)` w.h.p. — uniformly over time, for any adaptive arrival/jamming
//! pattern. Each run traces the metric at log-spaced active-slot
//! checkpoints; the per-run *floor* over that trace (plus the final
//! totals) folds into the campaign's custom metrics, and the reproduction
//! succeeds if the worst floor across every workload and seed stays
//! bounded away from 0.
//!
//! The five adversarial workloads are the scenario axis of a
//! [`CampaignSpec`], and the trace floor rides along as a declared metric.

use lowsense::{LowSensing, Params};
use lowsense_campaign::{CampaignSpec, ScenarioPoint};
use lowsense_sim::arrivals::Placement;
use lowsense_sim::jamming::WindowPrefixJam;
use lowsense_sim::metrics::RunResult;
use lowsense_sim::scenario::scenarios;

use crate::runner::Scale;
use crate::table::{Cell, Table};

const SERIES: f64 = 1.6;

/// A run's implicit-throughput floor: the minimum over its log-spaced
/// checkpoints (ignoring the tiny prefix below 8 active slots, where one
/// collision swings the ratio) and its final totals.
fn implicit_floor(r: &RunResult) -> f64 {
    let mut min = r.totals.implicit_throughput();
    for p in &r.series {
        if p.totals.active_slots >= 8 {
            min = min.min(p.totals.implicit_throughput());
        }
    }
    min
}

/// The T1 sweep as a campaign: five adversarial workloads × LSB, with the
/// per-run trace floor and final throughput as declared metrics.
///
/// Workload labels, in axis order: batch, jammed batch (ρ=0.15),
/// Bernoulli stream, adversarial queuing, adversarial queuing under a
/// window-prefix jammer.
pub fn implicit_spec(n: u64, replicates: u32, seed: u64) -> CampaignSpec {
    CampaignSpec::new("t1_implicit")
        .seed(seed)
        .replicates(replicates)
        .scenario(
            ScenarioPoint::new(scenarios::batch_drain(n).series(SERIES).boxed())
                .knob("n", n as f64),
        )
        .scenario(
            ScenarioPoint::new(scenarios::random_jam_batch(n, 0.15).series(SERIES).boxed())
                .knob("n", n as f64)
                .knob("rho", 0.15),
        )
        .scenario(
            ScenarioPoint::new(scenarios::bernoulli_stream(0.05, n).series(SERIES).boxed())
                .knob("rate", 0.05),
        )
        .scenario(
            ScenarioPoint::new(
                scenarios::adversarial_queuing_total(0.10, 256, Placement::Front, n)
                    .series(SERIES)
                    .boxed(),
            )
            .knob("lambda", 0.10),
        )
        .scenario(
            ScenarioPoint::new(
                scenarios::adversarial_queuing_total(0.08, 256, Placement::Front, n)
                    .jammer(WindowPrefixJam::new(0.05, 256))
                    .series(SERIES)
                    .boxed(),
            )
            .knob("lambda", 0.08)
            .knob("jam", 0.05),
        )
        .protocol("low-sensing", |sc, _| {
            sc.run_sparse(|_| LowSensing::new(Params::default()))
        })
        .metric("implicit_floor", implicit_floor)
        .metric("final_implicit", |r| r.totals.implicit_throughput())
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let n: u64 = scale.pick(1 << 10, 1 << 14);
    let result = implicit_spec(n, scale.seeds() as u32, 1000).run();
    let mut table = Table::new(
        "T1",
        format!("implicit throughput (N_t+J_t)/S_t floor over log-spaced checkpoints, N={n}"),
    )
    .columns(["workload", "runs", "floor.mean", "floor.min", "final.mean"]);

    let mut global_min = f64::INFINITY;
    for cell in &result.cells {
        let floor = cell
            .stats
            .metric("implicit_floor")
            .expect("declared metric")
            .summary();
        let fin = cell
            .stats
            .metric("final_implicit")
            .expect("declared metric")
            .summary();
        global_min = global_min.min(floor.min);
        table.row(vec![
            Cell::text(cell.scenario.clone()),
            Cell::UInt(cell.stats.runs),
            Cell::Float(floor.mean, 3),
            Cell::Float(floor.min, 3),
            Cell::Float(fin.mean, 3),
        ]);
    }
    table.note(
        "paper: Theorem 1.3 — implicit throughput is Ω(1) at every active slot, \
         for every adaptive arrival/jam pattern",
    );
    table.note(format!(
        "measured: worst per-run floor over all workloads/seeds (≥ 8 active slots) \
         = {global_min:.3}; reproduction holds iff this is bounded away from 0"
    ));
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_rows_and_positive_floor() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 5, "one row per workload");
        // Every floor.min cell is strictly positive.
        for row in &t.rows {
            if let Cell::Float(min, _) = row[3] {
                assert!(min > 0.0, "implicit throughput hit zero");
            }
        }
    }

    #[test]
    fn spec_is_shard_invariant() {
        // The ported sweep inherits the campaign determinism contract.
        let spec = implicit_spec(256, 2, 5);
        assert_eq!(spec.cell_count(), 5);
        let oracle = spec.run_serial();
        assert_eq!(spec.run_sharded(3), oracle);
        // The trace floor actually folded (runs × 1 sample each).
        let w = oracle.cells[0]
            .stats
            .metric("implicit_floor")
            .expect("declared metric");
        assert_eq!(w.count(), 2);
        assert!(w.min() > 0.0);
    }
}
