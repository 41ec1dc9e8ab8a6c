//! X2 — Wake-up latency: time to the *first* success (extension).
//!
//! The related-work section (§2) contrasts contention resolution with the
//! *wake-up problem* — how long until any one transmission succeeds. For
//! `LOW-SENSING BACKOFF` a fresh batch starts at contention `N/w_min ≫ 1`,
//! and the herd must back off before any slot can be a singleton, so the
//! first success costs `Θ(polylog)`-ish settling time; oblivious BEB pays
//! similarly, while genie ALOHA (already at `C = 1`) succeeds in `O(1)`
//! expected slots. This quantifies the "cold start" price of not knowing N.

use lowsense_baselines::{SlottedAloha, WindowedBeb};
use lowsense_campaign::{CampaignSpec, ScenarioPoint};
use lowsense_sim::metrics::RunResult;
use lowsense_sim::scenario::scenarios;

use crate::common::{lsb, pow2_sweep};
use crate::runner::Scale;
use crate::table::{Cell, Table};

/// The campaign seed X2 sweeps under.
const X2_SEED: u64 = 0xE_2;

/// Slot of the first success (all packets injected at 0).
fn first_success(r: &RunResult) -> f64 {
    r.per_packet
        .as_ref()
        .expect("per-packet stats")
        .iter()
        .filter_map(|p| p.departed)
        .min()
        .expect("at least one success") as f64
        + 1.0
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let ns = pow2_sweep(6, scale.pick(10, 14));
    let result =
        CampaignSpec::new("x2_wakeup")
            .seed(X2_SEED)
            .replicates(scale.seeds() as u32)
            .scenarios(ns.iter().map(|&n| {
                ScenarioPoint::new(scenarios::batch_drain(n).boxed()).knob("n", n as f64)
            }))
            .protocol("low-sensing", |sc, _| sc.run_sparse(lsb()))
            .protocol("beb-window", |sc, _| {
                sc.run_sparse(|rng| WindowedBeb::new(2, 40, rng))
            })
            .protocol("aloha-genie", |sc, knobs| {
                let n = knobs["n"] as u64;
                sc.run_sparse(move |_| SlottedAloha::genie(n))
            })
            .metric("first_success", first_success)
            .run();
    let mut table = Table::new(
        "X2",
        "wake-up latency: slots until the first successful transmission (batch)",
    )
    .columns([
        "N",
        "low-sensing",
        "beb-window",
        "aloha-genie",
        "lsb/ln²(N)",
    ]);

    for (i, &n) in ns.iter().enumerate() {
        let wake = |p: usize| {
            result
                .cell(i, p)
                .stats
                .metric("first_success")
                .expect("declared metric")
                .mean()
        };
        let lsb = wake(0);
        table.row(vec![
            Cell::UInt(n),
            Cell::Float(lsb, 1),
            Cell::Float(wake(1), 1),
            Cell::Float(wake(2), 1),
            Cell::Float(lsb / (n as f64).ln().powi(2), 2),
        ]);
    }

    table.note(
        "extension: genie ALOHA wakes up in e ≈ 2.7 expected slots (it starts at C = 1); \
         the adaptive protocols must first disperse the herd from C = N/w_min — measured, \
         low-sensing's cold start tracks ≈ ln²(N) (Θ(ln N) collective backoffs delivered \
         through rare listening), far below BEB's near-linear climb",
    );
    table.note(
        "context (§2): Bender et al. [29] show O(ln ln* N) wake-up is possible with \
         synchronization messages; the ternary-feedback cold start is the price of \
         having none",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakeup_grows_slowly_for_lsb() {
        let t = &run(Scale::Quick)[0];
        let get = |row: &Vec<Cell>, i: usize| match row[i] {
            Cell::Float(v, _) => v,
            _ => panic!("float"),
        };
        let first = &t.rows[0];
        let last = t.rows.last().unwrap();
        // 16× packet growth, far less than 16× wake-up growth.
        assert!(
            get(last, 1) < 8.0 * get(first, 1),
            "wake-up scaled too fast: {} → {}",
            get(first, 1),
            get(last, 1)
        );
        // ALOHA-genie wakes up in O(1).
        assert!(get(last, 3) < 15.0, "genie wake-up {}", get(last, 3));
    }
}
