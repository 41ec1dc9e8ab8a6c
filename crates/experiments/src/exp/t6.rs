//! T6 — Energy on infinite streams (Theorem 5.29, adaptive case).
//!
//! For an unbounded Bernoulli stream truncated at horizon `t`, every packet
//! that existed before `t` has made `O(ln⁴(N_t + J_t))` accesses. We grow
//! the horizon geometrically and verify the per-packet access distribution
//! grows polylogarithmically in `N_t + J_t` (the paper proves the infinite
//! case exactly by this truncation argument).
//!
//! The mean and max pool every packet delivered before the horizon across
//! all replicates; p99 comes from the cell's quantile sketch.

use lowsense::theory;
use lowsense_campaign::{CampaignSpec, ScenarioPoint};
use lowsense_sim::arrivals::Bernoulli;
use lowsense_sim::jamming::RandomJam;
use lowsense_sim::scenario::Scenario;

use crate::common::lsb;
use crate::runner::Scale;
use crate::table::{Cell, Table};

/// The campaign seed T6 sweeps under.
const T6_SEED: u64 = 0x7_6;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let horizons: Vec<u64> = (12..=scale.pick(15, 18)).map(|k| 1u64 << k).collect();
    let result = CampaignSpec::new("t6_infinite_energy")
        .seed(T6_SEED)
        .replicates(scale.seeds() as u32)
        .scenarios(horizons.iter().map(|&t_end| {
            ScenarioPoint::new(
                Scenario::named("infinite-bernoulli+jam")
                    .arrivals(Bernoulli::new(0.05))
                    .jammer(RandomJam::new(0.02))
                    .until_slot(t_end)
                    .boxed(),
            )
            .knob("horizon", t_end as f64)
        }))
        .protocol("low-sensing", |sc, _| sc.run_sparse(lsb()))
        .run();
    let mut table = Table::new(
        "T6",
        "per-packet accesses before horizon t, infinite Bernoulli(0.05) stream + jam(0.02)",
    )
    .columns([
        "horizon",
        "N_t",
        "J_t",
        "mean",
        "p99",
        "max",
        "max/ln⁴(N+J)",
    ]);

    let mut xs = Vec::new();
    let mut maxes = Vec::new();
    for (cell, &t_end) in result.cells.iter().zip(&horizons) {
        let stats = &cell.stats;
        let n_t = stats.arrivals as f64 / stats.runs as f64;
        let j_t = stats.jammed_mean();
        let max = stats.accesses.max();
        let bound = theory::energy_bound_finite(n_t as u64, j_t as u64);
        xs.push(n_t + j_t);
        maxes.push(max);
        table.row(vec![
            Cell::UInt(t_end),
            Cell::Float(n_t, 0),
            Cell::Float(j_t, 0),
            Cell::Float(stats.accesses.mean(), 1),
            Cell::Float(stats.access_sketch.quantile(0.99), 0),
            Cell::Float(max, 0),
            Cell::Float(max / bound, 3),
        ]);
    }

    let (beta, _) = lowsense_stats::power_exponent(&xs, &maxes);
    table
        .note("paper: Thm 5.29 — before time t, each packet makes O(ln⁴(N_t+J_t)) accesses w.h.p.");
    table.note(format!(
        "measured: a power fit over this sweep gives max accesses ~ (N_t+J_t)^{beta:.2}; \
         the theorem bounds the max/ln⁴(N+J) column by a constant"
    ));
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_stream_energy_bounded() {
        let t = &run(Scale::Quick)[0];
        assert!(!t.rows.is_empty());
        for row in &t.rows {
            if let Cell::Float(ratio, _) = row[6] {
                assert!(ratio < 3.0, "ratio {ratio}");
            }
        }
    }
}
