//! F6 — The energy split: sends vs listens, and the CJP contrast.
//!
//! "Fully energy-efficient" means *both* operations are rare. We break
//! per-packet accesses into transmissions and pure listens for low-sensing
//! backoff, and put the every-slot listener (CJP MWU) next to it: its
//! accesses equal its lifetime, i.e. `Θ(N)` for a batch — the exponential
//! separation the paper's title is about.

use lowsense_baselines::CjpMwu;
use lowsense_campaign::{CampaignSpec, ScenarioPoint};
use lowsense_sim::scenario::scenarios;

use crate::common::{lsb, pow2_sweep};
use crate::runner::Scale;
use crate::table::{Cell, Table};

/// The campaign seed F6 sweeps under.
const F6_SEED: u64 = 0xF_6;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let ns = pow2_sweep(6, scale.pick(10, 14));
    let result = CampaignSpec::new("f6_energy_split")
        .seed(F6_SEED)
        .replicates(scale.seeds() as u32)
        .scenarios(ns.iter().map(|&n| {
            ScenarioPoint::new(scenarios::protocol_faceoff(n).boxed()).knob("n", n as f64)
        }))
        .protocol("low-sensing", |sc, _| sc.run_sparse(lsb()))
        .protocol("cjp-mwu", |sc, _| sc.run_grouped(|_| CjpMwu::default()))
        .run();
    let mut table = Table::new("F6", "per-packet energy split on a batch of N").columns([
        "N",
        "lsb_sends",
        "lsb_listens",
        "lsb_total",
        "cjp_total(=lifetime)",
        "cjp/lsb",
    ]);

    let mut ratio_first = 0.0;
    let mut ratio_last = 0.0;
    for (i, &n) in ns.iter().enumerate() {
        let lsb = &result.cell(i, 0).stats;
        let sends = lsb.sends as f64 / lsb.arrivals as f64;
        let listens = lsb.listens as f64 / lsb.arrivals as f64;
        let cjp = result.cell(i, 1).stats.accesses.mean();
        let total = sends + listens;
        let ratio = cjp / total.max(1e-9);
        if i == 0 {
            ratio_first = ratio;
        }
        ratio_last = ratio;
        table.row(vec![
            Cell::UInt(n),
            Cell::Float(sends, 1),
            Cell::Float(listens, 1),
            Cell::Float(total, 1),
            Cell::Float(cjp, 0),
            Cell::Float(ratio, 1),
        ]);
    }

    table.note(
        "paper: low-sensing is sending- AND listening-efficient (polylog each); \
         short-feedback-loop algorithms pay Θ(lifetime) = Θ(N) listens on a batch",
    );
    table.note(format!(
        "measured: cjp/lsb energy ratio grows {ratio_first:.0}× → {ratio_last:.0}× across \
         the sweep — the separation widens with N exactly as predicted"
    ));
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separation_widens_with_n() {
        let t = &run(Scale::Quick)[0];
        let ratio = |row: &Vec<Cell>| match row[5] {
            Cell::Float(v, _) => v,
            _ => panic!("float"),
        };
        let first = ratio(&t.rows[0]);
        let last = ratio(t.rows.last().unwrap());
        assert!(last > first, "cjp/lsb ratio should widen: {first} → {last}");
        assert!(
            last > 4.0,
            "separation should be substantial at the top end (got {last})"
        );
    }
}
