//! A1 — Sweeping the constant `c`.
//!
//! The paper asks for "sufficiently large `c`"; practice asks how small it
//! can be. Larger `c` means more listening (the access probability is
//! `c·ln³(w)/w`) and gentler updates (`1 + 1/(c·ln w)`): faster, tighter
//! feedback at higher energy. We sweep `c` on a fixed batch, with and
//! without jamming, and report the throughput/energy trade-off.

use lowsense::Params;
use lowsense_campaign::CampaignSpec;

use crate::common::{ablation_batches, lsb_with};
use crate::runner::Scale;
use crate::table::{Cell, Table};

/// The campaign seed A1 sweeps under.
const A1_SEED: u64 = 0xA_1;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let n: u64 = scale.pick(1 << 10, 1 << 13);
    // w_min = 4 requires c ≥ 1/ln³4 ≈ 0.375 for p_send|listen ≤ 1.
    let params: Vec<Params> = [0.4, 0.5, 0.75, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|c| Params::new(c, 4.0).expect("valid sweep point"))
        .collect();
    let mut spec = CampaignSpec::new("a1_constant_c")
        .seed(A1_SEED)
        .replicates(scale.seeds() as u32)
        .scenarios(ablation_batches(n, 0.1));
    for &p in &params {
        spec = spec.protocol(format!("c={}", p.c()), move |sc, _| {
            sc.run_sparse(lsb_with(p))
        });
    }
    let result = spec.run();
    let mut table = Table::new(
        "A1",
        format!("constant-c sweep (batch N={n}, w_min=4): throughput vs energy"),
    )
    .columns([
        "c",
        "jam",
        "throughput",
        "mean_accesses",
        "max_accesses",
        "listen_cap_ok",
    ]);

    for (pi, p) in params.iter().enumerate() {
        for si in 0..2 {
            let cell = result.cell(si, pi);
            let stats = &cell.stats;
            table.row(vec![
                Cell::Float(p.c(), 2),
                Cell::text(cell.scenario.clone()),
                Cell::Float(stats.throughput.mean(), 3),
                Cell::Float(stats.accesses.mean(), 1),
                Cell::Float(stats.accesses.max(), 0),
                Cell::text(if p.respects_listen_cap() {
                    "yes"
                } else {
                    "clamped"
                }),
            ]);
        }
    }

    table.note(
        "ablation: throughput is Θ(1) across the whole c range (the analysis only needs \
         c large enough); energy grows roughly linearly with c — the paper's choice is \
         about constants in the proof, not about performance",
    );
    table.note("c > 0.744 clamps the listen probability near w ≈ e³ (deviation from the idealized algorithm, flagged in the last column)");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_constant_energy_grows_with_c() {
        let t = &run(Scale::Quick)[0];
        let f = |row: &Vec<Cell>, i: usize| match row[i] {
            Cell::Float(v, _) => v,
            _ => panic!("float"),
        };
        // All throughputs positive and same order.
        for row in &t.rows {
            assert!(f(row, 2) > 0.05, "throughput collapsed: {row:?}");
        }
        // Energy at the largest c (no-jam rows) exceeds energy at smallest.
        let nojam: Vec<&Vec<Cell>> = t
            .rows
            .iter()
            .filter(|r| matches!(&r[1], Cell::Text(s) if s == "none"))
            .collect();
        assert!(f(nojam.last().unwrap(), 3) > f(nojam[0], 3));
    }
}
