//! F5 — Batch makespan per packet (`S/N`).
//!
//! Constant throughput (Cor 1.4) is equivalent to `O(N)` makespan for a
//! batch of `N`. We report `makespan/N` across the sweep for low-sensing
//! and the baselines: flat for the constant-throughput algorithms, growing
//! (`Θ(log N)`-style) for the backoff family.

use lowsense_baselines::{CjpMwu, SlottedAloha, WindowedBeb};
use lowsense_campaign::{CampaignSpec, ScenarioPoint};
use lowsense_sim::scenario::scenarios;

use crate::common::{lsb, pow2_sweep};
use crate::runner::Scale;
use crate::table::{Cell, Table};

/// The campaign seed F5 sweeps under.
const F5_SEED: u64 = 0xF_5;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let ns = pow2_sweep(6, scale.pick(10, 14));
    let result = CampaignSpec::new("f5_makespan")
        .seed(F5_SEED)
        .replicates(scale.seeds() as u32)
        .scenarios(ns.iter().map(|&n| {
            ScenarioPoint::new(scenarios::batch_drain(n).totals_only().boxed()).knob("n", n as f64)
        }))
        .protocol("low-sensing", |sc, _| sc.run_sparse(lsb()))
        .protocol("beb-window", |sc, _| {
            sc.run_sparse(|rng| WindowedBeb::new(2, 40, rng))
        })
        .protocol("aloha-genie", |sc, knobs| {
            let n = knobs["n"] as u64;
            sc.run_sparse(move |_| SlottedAloha::genie(n))
        })
        .protocol("cjp-mwu", |sc, _| sc.run_grouped(|_| CjpMwu::default()))
        .run();
    let mut table = Table::new("F5", "batch makespan per packet (active slots / N)").columns([
        "N",
        "low-sensing",
        "beb-window",
        "aloha-genie",
        "cjp-mwu",
    ]);

    let mut lsb_col = Vec::new();
    for (i, &n) in ns.iter().enumerate() {
        let per_packet = |p: usize| {
            let stats = &result.cell(i, p).stats;
            stats.active_slots as f64 / (stats.runs * n) as f64
        };
        lsb_col.push(per_packet(0));
        table.row(vec![
            Cell::UInt(n),
            Cell::Float(per_packet(0), 2),
            Cell::Float(per_packet(1), 2),
            Cell::Float(per_packet(2), 2),
            Cell::Float(per_packet(3), 2),
        ]);
    }

    let spread = lsb_col.iter().cloned().fold(0.0f64, f64::max)
        / lsb_col.iter().cloned().fold(f64::INFINITY, f64::min);
    table.note("paper: Θ(1) throughput ⇔ makespan Θ(N) ⇔ this column is flat in N");
    table.note(format!(
        "measured: low-sensing makespan/N varies by only {spread:.2}× across the sweep; \
         beb grows with N (its O(1/ln N) throughput inverted)"
    ));
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsb_makespan_per_packet_is_flat() {
        let t = &run(Scale::Quick)[0];
        let col: Vec<f64> = t
            .rows
            .iter()
            .map(|r| match r[1] {
                Cell::Float(v, _) => v,
                _ => panic!("float"),
            })
            .collect();
        let spread = col.iter().cloned().fold(0.0f64, f64::max)
            / col.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 3.0, "makespan/N spread {spread} not flat");
    }
}
