//! A4 — Coupled vs independent send/listen coins.
//!
//! A "subtle design choice" the paper highlights (proof of Thm 5.25): a
//! packet sends only when it has already decided to listen, so every listen
//! carries a `1/(c·ln³ w)` chance of being a send — long listening streaks
//! on a quiet channel force success, which is how the energy argument
//! closes. With independent coins the marginals are identical but the
//! coupling (and its accounting convenience) is gone. We measure whether
//! the behaviour differs in practice. Each row runs `LowSensing` under its
//! `Rule`, so the coupled rows are the shipped protocol.

use lowsense::{Coupling, Params, Rule};
use lowsense_campaign::CampaignSpec;

use crate::common::{ablation_batches, lsb_with};
use crate::runner::Scale;
use crate::table::{Cell, Table};

/// The campaign seed A4 sweeps under.
const A4_SEED: u64 = 0xA_4;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let n: u64 = scale.pick(1 << 10, 1 << 13);
    let couplings = [
        ("coupled (paper)", Coupling::Coupled),
        ("independent", Coupling::Independent),
    ];
    let mut spec = CampaignSpec::new("a4_coupling")
        .seed(A4_SEED)
        .replicates(scale.seeds() as u32)
        .scenarios(ablation_batches(n, 0.1));
    for (name, coupling) in couplings {
        let mut rule = Rule::PAPER;
        rule.coupling = coupling;
        let p = Params::default()
            .with_rule(rule)
            .expect("valid sweep point");
        spec = spec.protocol(name, move |sc, _| sc.run_sparse(lsb_with(p)));
    }
    let result = spec.run();
    let mut table = Table::new("A4", format!("send/listen coin coupling (batch N={n})")).columns([
        "coupling",
        "jam",
        "throughput",
        "sends_mean",
        "listens_mean",
        "max_accesses",
    ]);

    for ci in 0..couplings.len() {
        for si in 0..2 {
            let cell = result.cell(si, ci);
            let stats = &cell.stats;
            table.row(vec![
                Cell::text(cell.protocol.clone()),
                Cell::text(cell.scenario.clone()),
                Cell::Float(stats.throughput.mean(), 3),
                Cell::Float(stats.sends as f64 / stats.arrivals as f64, 2),
                Cell::Float(stats.listens as f64 / stats.arrivals as f64, 1),
                Cell::Float(stats.accesses.max(), 0),
            ]);
        }
    }

    table.note(
        "ablation: identical marginals ⇒ near-identical throughput and energy — the \
         coupling is an *analysis* device (it makes 'many listens ⇒ probably sent' \
         literal), not a performance optimization",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn couplings_behave_similarly() {
        let t = &run(Scale::Quick)[0];
        let tp = |row: &Vec<Cell>| match row[2] {
            Cell::Float(v, _) => v,
            _ => panic!("float"),
        };
        // Compare the two no-jam rows.
        let nojam: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| matches!(&r[1], Cell::Text(s) if s == "none"))
            .map(tp)
            .collect();
        assert_eq!(nojam.len(), 2);
        assert!(
            (nojam[0] - nojam[1]).abs() / nojam[0] < 0.3,
            "couplings diverge: {nojam:?}"
        );
    }
}
