//! T9 — Reactive adversary versus exponential backoff (§1.3).
//!
//! The paper's motivating contrast: "for any T a reactive adversary can
//! drive [exponential backoff's] throughput down to O(1/T) by jamming a
//! single packet a mere Θ(ln T) times". Exponential backoff never recovers
//! from a jam — its window only grows — while `LOW-SENSING BACKOFF` backs
//! on after the jamming stops. We give a reactive jammer a budget of `b`
//! targeted jams against a lone packet and measure the delay (active slots
//! until success): BEB's delay doubles per jam (`2^b`), low-sensing's grows
//! only gently.

use lowsense_baselines::{ProbBeb, WindowedBeb};
use lowsense_campaign::{CampaignSpec, ScenarioPoint};
use lowsense_sim::jamming::ReactiveTargeted;
use lowsense_sim::packet::PacketId;
use lowsense_sim::scenario::scenarios;

use crate::common::lsb;
use crate::runner::Scale;
use crate::table::{Cell, Table};

/// The campaign seed T9 sweeps under.
const T9_SEED: u64 = 0x7_9;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let budgets: Vec<u64> = (1..=scale.pick(10, 16)).collect();
    let result = CampaignSpec::new("t9_reactive_beb")
        .seed(T9_SEED)
        .replicates(scale.seeds() as u32)
        .scenarios(budgets.iter().map(|&b| {
            ScenarioPoint::new(
                scenarios::batch_drain(1)
                    .jammer(ReactiveTargeted::new(PacketId(0), b))
                    .totals_only()
                    .boxed(),
            )
            .knob("budget", b as f64)
        }))
        .protocol("low-sensing", |sc, _| sc.run_sparse(lsb()))
        .protocol("beb-window", |sc, _| {
            sc.run_sparse(|rng| WindowedBeb::new(2, 40, rng))
        })
        .protocol("beb-prob", |sc, _| sc.run_sparse(|_| ProbBeb::new(0.5)))
        .run();
    let mut table = Table::new(
        "T9",
        "reactive jammer, single packet: delay until success vs jam budget b",
    )
    .columns([
        "b(jams)",
        "low-sensing",
        "beb-window",
        "beb-prob",
        "beb/2^b",
        "lsb_vs_beb",
    ]);

    let delay = |i: usize, p: usize| {
        let stats = &result.cell(i, p).stats;
        debug_assert_eq!(stats.successes, stats.arrivals, "a lone packet drains");
        stats.active_slots as f64 / stats.runs as f64
    };
    for (i, &b) in budgets.iter().enumerate() {
        let (lsb, beb, pbeb) = (delay(i, 0), delay(i, 1), delay(i, 2));
        table.row(vec![
            Cell::UInt(b),
            Cell::Float(lsb, 1),
            Cell::Float(beb, 1),
            Cell::Float(pbeb, 1),
            Cell::Float(beb / (1u64 << b.min(62)) as f64, 3),
            Cell::Float(beb / lsb.max(1.0), 1),
        ]);
    }

    table.note(
        "paper (§1.3): Θ(ln T) targeted jams force exponential backoff to Θ(T) delay \
         (throughput O(1/T)); the beb/2^b column being Θ(1) reproduces the exponent",
    );
    table.note(
        "low-sensing recovers after the budget is spent (it backs on in silence), so its \
         delay grows far slower — the lsb_vs_beb ratio explodes with b",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beb_collapses_lsb_survives() {
        let t = &run(Scale::Quick)[0];
        let get = |row: &Vec<Cell>, i: usize| match row[i] {
            Cell::Float(v, _) => v,
            _ => panic!("float expected"),
        };
        let last = t.rows.last().unwrap();
        let (lsb, beb) = (get(last, 1), get(last, 2));
        assert!(
            beb > 5.0 * lsb,
            "expected BEB collapse at high budget: lsb {lsb}, beb {beb}"
        );
    }
}
