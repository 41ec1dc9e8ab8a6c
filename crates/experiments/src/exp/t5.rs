//! T5 — Energy under adversarial queuing (Theorem 5.27).
//!
//! With adversarial-queuing arrivals (rate `λ`, granularity `S`) and an
//! adaptive (non-reactive) window-prefix jammer, each packet accesses the
//! channel `O(ln⁴ S)` times w.h.p. — independent of how long the stream
//! runs. We sweep `S`, run a fixed number of windows, and check that the
//! per-packet access distribution grows only polylogarithmically in `S`.
//!
//! The mean and max pool every packet delivered before the horizon across
//! all replicates; p99 comes from the cell's quantile sketch.

use lowsense::theory;
use lowsense_campaign::{CampaignSpec, ScenarioPoint};
use lowsense_sim::scenario::scenarios;

use crate::common::lsb;
use crate::runner::Scale;
use crate::table::{Cell, Table};

/// The campaign seed T5 sweeps under.
const T5_SEED: u64 = 0x7_5;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let ss: Vec<u64> = (6..=scale.pick(9, 12)).map(|k| 1u64 << k).collect();
    let windows: u64 = scale.pick(60, 150);
    let result = CampaignSpec::new("t5_queuing_energy")
        .seed(T5_SEED)
        .replicates(scale.seeds() as u32)
        .scenarios(ss.iter().map(|&s| {
            ScenarioPoint::new(
                scenarios::queuing_jammed(0.10, 0.05, s)
                    .until_slot(s * windows)
                    .boxed(),
            )
            .knob("S", s as f64)
        }))
        .protocol("low-sensing", |sc, _| sc.run_sparse(lsb()))
        .run();
    let mut table = Table::new(
        "T5",
        "per-packet accesses under adversarial queuing (λ_arr=0.10, λ_jam=0.05)",
    )
    .columns(["S", "packets", "mean", "p99", "max", "max/ln⁴(S)"]);

    let mut xs = Vec::new();
    let mut maxes = Vec::new();
    for (cell, &s) in result.cells.iter().zip(&ss) {
        let stats = &cell.stats;
        let max = stats.accesses.max();
        xs.push(s as f64);
        maxes.push(max);
        table.row(vec![
            Cell::UInt(s),
            Cell::UInt(stats.arrivals / stats.runs),
            Cell::Float(stats.accesses.mean(), 1),
            Cell::Float(stats.access_sketch.quantile(0.99), 0),
            Cell::Float(max, 0),
            Cell::Float(max / theory::polylog(s as f64, 4), 3),
        ]);
    }

    let (beta, _) = lowsense_stats::power_exponent(&xs, &maxes);
    table.note("paper: Thm 5.27 — each packet accesses the channel O(ln⁴ S) times w.h.p.");
    table.note(format!(
        "measured: a power fit over this sweep gives max accesses ~ S^{beta:.2}; the \
         theorem bounds the max/ln⁴(S) column by a constant, whatever the stream length"
    ));
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_within_polylog_envelope() {
        let t = &run(Scale::Quick)[0];
        for row in &t.rows {
            if let Cell::Float(ratio, _) = row[5] {
                assert!(ratio < 3.0, "accesses broke the ln⁴(S) envelope ({ratio})");
            }
        }
    }
}
