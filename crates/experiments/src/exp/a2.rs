//! A2 — The listening exponent `ln^k(w)`.
//!
//! Why does the paper listen with probability `c·ln³(w)/w` rather than
//! `c/w`? The cube keeps the *conditional* send probability
//! `1/(c·ln^k w)` large enough that long listen streaks imply success
//! (energy, Thm 5.25) while making each window update worth `Θ(1/ln³ w)`
//! of `H(t)` (progress, Lemma 5.9). We sweep `k = 0..3` with the rest of
//! the algorithm fixed and measure what breaks. Each row runs `LowSensing`
//! under its `Rule`, so the `k = 3` rows are the shipped protocol at `c = 1`.

use lowsense::{Params, Rule};
use lowsense_campaign::CampaignSpec;

use crate::common::{ablation_batches, lsb_with};
use crate::runner::Scale;
use crate::table::{Cell, Table};

/// The campaign seed A2 sweeps under.
const A2_SEED: u64 = 0xA_2;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let n: u64 = scale.pick(1 << 10, 1 << 13);
    let mut spec = CampaignSpec::new("a2_listen_exponent")
        .seed(A2_SEED)
        .replicates(scale.seeds() as u32)
        .scenarios(ablation_batches(n, 0.1));
    for k in 0..=3 {
        // c = 1 keeps the coupled conditional probability ≤ 1 for every k
        // at w_min = 4 (1/(c·ln^k 4) ≤ 1 ⇔ c·ln^k(4) ≥ 1; ln 4 ≈ 1.39).
        let mut rule = Rule::PAPER;
        rule.listen_exponent = k;
        let p = Params::new(1.0, 4.0).and_then(|p| p.with_rule(rule));
        let p = p.expect("valid sweep point");
        spec = spec.protocol(format!("k={k}"), move |sc, _| sc.run_sparse(lsb_with(p)));
    }
    let result = spec.run();
    let mut table = Table::new(
        "A2",
        format!("listening exponent k in p_listen = c·ln^k(w)/w (batch N={n}, c=1)"),
    )
    .columns([
        "k",
        "jam",
        "throughput",
        "mean_accesses",
        "p99_accesses",
        "max_accesses",
    ]);

    for k in 0..=3usize {
        for si in 0..2 {
            let cell = result.cell(si, k);
            let stats = &cell.stats;
            table.row(vec![
                Cell::UInt(k as u64),
                Cell::text(cell.scenario.clone()),
                Cell::Float(stats.throughput.mean(), 3),
                Cell::Float(stats.accesses.mean(), 1),
                Cell::Float(stats.access_sketch.quantile(0.99), 0),
                Cell::Float(stats.accesses.max(), 0),
            ]);
        }
    }

    table.note(
        "ablation: smaller k listens less per slot, so every access column (mean, p99, \
         max) shrinks as k does — but the feedback loop slows and throughput shrinks \
         with it: k=0 drains the clean batch at about a third of k=3's throughput",
    );
    table.note(
        "the paper's k=3 buys throughput (and Thm 5.25's listen-streak argument) with \
         energy: the most accesses per packet of the sweep; at c=1 it also clamps the \
         listen probability near w ≈ e³, where a listener sends w.p. 1/(c·ln³w)",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_exponents_still_drain_with_constant_throughput() {
        let t = &run(Scale::Quick)[0];
        for row in &t.rows {
            if let Cell::Float(tp, _) = row[2] {
                assert!(tp > 0.05, "throughput collapsed at {row:?}");
            }
        }
    }
}
