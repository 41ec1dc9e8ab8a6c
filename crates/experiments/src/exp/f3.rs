//! F3 — Slot-outcome probabilities versus contention (Lemmas 5.1–5.3).
//!
//! The analysis rests on three envelopes for an unjammed slot with
//! contention `C` (all windows ≥ 2):
//!
//! * `C·e^{−2C} ≤ p_succ ≤ 2C·e^{−C}`,
//! * `e^{−2C} ≤ p_empty ≤ e^{−C}`,
//! * `p_noisy ≥ 1 − 2C·e^{−C} − e^{−C}`.
//!
//! We Monte Carlo a single slot directly (an ensemble of k packets each
//! sending with probability `C/k ≤ 1/2`) and check every bound. This also
//! doubles as a validation of the Binomial sampler feeding the grouped
//! engine. No engine runs, so there is no campaign: each contention level
//! draws its samples serially from one stream seeded by [`cell_seed`].

use lowsense::theory;
use lowsense_campaign::seed::cell_seed;
use lowsense_sim::dist::Binomial;
use lowsense_sim::rng::SimRng;

use crate::runner::Scale;
use crate::table::{Cell, Table};

const PACKETS: u64 = 64;

/// The seed F3's per-level sample streams derive from.
const F3_SEED: u64 = 0xF_3;

fn sample_outcomes(c: f64, trials: u64, seed: u64) -> (f64, f64, f64) {
    let p = c / PACKETS as f64;
    let d = Binomial::new(PACKETS, p);
    let mut rng = SimRng::new(seed);
    let (mut succ, mut empty, mut noisy) = (0u64, 0u64, 0u64);
    for _ in 0..trials {
        match d.sample(&mut rng) {
            0 => empty += 1,
            1 => succ += 1,
            _ => noisy += 1,
        }
    }
    let t = trials as f64;
    (succ as f64 / t, empty as f64 / t, noisy as f64 / t)
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let trials: u64 = scale.pick(200_000, 1_000_000);
    let cs = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    let mut table = Table::new(
        "F3",
        format!("slot outcome probabilities vs contention C ({PACKETS} packets)"),
    )
    .columns([
        "C",
        "p_succ",
        "[lo,hi]",
        "p_empty",
        "[lo,hi]",
        "p_noisy",
        "≥lo",
        "in_bounds",
    ]);

    let mut all_ok = true;
    for (i, &c) in cs.iter().enumerate() {
        let (succ, empty, noisy) = sample_outcomes(c, trials, cell_seed(F3_SEED, i as u64, 0));
        let (s_lo, s_hi) = (
            theory::success_probability_lower(c),
            theory::success_probability_upper(c),
        );
        let (e_lo, e_hi) = theory::empty_probability_bounds(c);
        let n_lo = theory::noisy_probability_lower(c);
        let tol = 3.0 / (trials as f64).sqrt();
        let ok = succ >= s_lo - tol
            && succ <= s_hi + tol
            && empty >= e_lo - tol
            && empty <= e_hi + tol
            && noisy >= n_lo - tol;
        all_ok &= ok;
        table.row(vec![
            Cell::Float(c, 3),
            Cell::Float(succ, 4),
            Cell::text(format!("[{s_lo:.4},{s_hi:.4}]")),
            Cell::Float(empty, 4),
            Cell::text(format!("[{e_lo:.4},{e_hi:.4}]")),
            Cell::Float(noisy, 4),
            Cell::Float(n_lo, 4),
            Cell::text(if ok { "yes" } else { "NO" }),
        ]);
    }

    table.note("paper: Lemmas 5.1–5.3 envelopes; every measured point must sit inside them");
    table.note(format!(
        "measured: all {} contention levels in bounds: {}",
        cs.len(),
        if all_ok {
            "yes"
        } else {
            "NO — check sampler"
        }
    ));
    table.note("success probability peaks at C = Θ(1) — the 'good contention' regime the algorithm steers toward");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_points_within_lemma_bounds() {
        let t = &run(Scale::Quick)[0];
        for row in &t.rows {
            match &row[7] {
                Cell::Text(s) => assert_eq!(s, "yes", "bounds violated: {row:?}"),
                _ => panic!("expected flag"),
            }
        }
    }
}
