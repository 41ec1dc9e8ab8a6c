//! A2 — The listening exponent `ln^k(w)`.
//!
//! Why does the paper listen with probability `c·ln³(w)/w` rather than
//! `c/w`? The cube keeps the *conditional* send probability
//! `1/(c·ln^k w)` large enough that long listen streaks imply success
//! (energy, Thm 5.25) while making each window update worth `Θ(1/ln³ w)`
//! of `H(t)` (progress, Lemma 5.9). We sweep `k = 0..3` with the rest of
//! the algorithm fixed and measure what breaks.

use lowsense_baselines::{LowSensingVariant, VariantConfig};
use lowsense_campaign::CampaignSpec;

use crate::common::ablation_batches;
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
    for k in 0..=3i32 {
        // c = 1 keeps the coupled conditional probability ≤ 1 for every k
        // at w_min = 4 (1/(c·ln^k 4) ≤ 1 ⇔ c·ln^k(4) ≥ 1; ln 4 ≈ 1.39).
        let cfg = VariantConfig {
            listen_exponent: k,
            ..VariantConfig::paper(1.0, 4.0)
        };
        spec = spec.protocol(format!("k={k}"), move |sc, _| {
            sc.run_sparse(|_| LowSensingVariant::new(cfg))
        });
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
        "ablation: smaller k listens less per slot — cheaper mean energy — but the \
         feedback loop gets slower and the access *tail* (p99/max) fattens: packets \
         stuck at large windows listen so rarely they take long to back on",
    );
    table.note("the paper's k=3 buys tail control (w.h.p. bounds) at modest mean cost");
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
