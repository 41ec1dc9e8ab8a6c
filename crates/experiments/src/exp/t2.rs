//! T2 — Overall throughput vs batch size, against every baseline
//! (Corollary 1.4 + the §1 claim that BEB is `O(1/ln N)`).
//!
//! One row per batch size `N`; one column per protocol, giving the overall
//! throughput `N/S` (mean over seeds). The paper's story:
//!
//! * `LOW-SENSING BACKOFF` and the every-slot-listening MWU stay `Θ(1)`;
//! * both exponential-backoff variants and polynomial backoff decay with
//!   `N` (the `O(1/ln N)` ceiling of \[23\]);
//! * genie ALOHA (`p = 1/N`) starts near `1/e` per slot early on but wastes
//!   its tail, so its *overall* throughput also degrades — it is a
//!   reference, not a contender.
//!
//! The grid (batch sizes × protocols × seeds) is a
//! [`campaigns::faceoff_spec`] executed on the deterministic shard pool,
//! one cell per table entry.

use crate::campaigns;
use crate::common::pow2_sweep;
use crate::runner::Scale;
use crate::table::{Cell, Table};
use lowsense::theory;

/// The campaign seed T2 sweeps under (fixed so the table reproduces).
const T2_SEED: u64 = 0x7_2;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let ns = pow2_sweep(6, scale.pick(10, 15));
    let spec = campaigns::faceoff_spec(&ns, scale.seeds() as u32, T2_SEED);
    let result = spec.run();

    let mut table = Table::new("T2", "overall throughput N/S on batch arrivals").columns([
        "N",
        "low-sensing",
        "beb-window",
        "beb-prob",
        "poly(k=2)",
        "aloha-genie",
        "cjp-mwu",
    ]);

    let tp = |s_idx: usize, p_idx: usize| result.cell(s_idx, p_idx).stats.throughput.mean();
    for (i, &n) in ns.iter().enumerate() {
        table.row(vec![
            Cell::UInt(n),
            Cell::Float(tp(i, 0), 3),
            Cell::Float(tp(i, 1), 3),
            Cell::Float(tp(i, 2), 3),
            Cell::Float(tp(i, 3), 3),
            Cell::Float(tp(i, 4), 3),
            Cell::Float(tp(i, 5), 3),
        ]);
    }

    let first = ns[0];
    let last = *ns.last().expect("non-empty sweep");
    table.note(format!(
        "paper: Cor 1.4 — low-sensing throughput Θ(1); measured {:.3} → {:.3} across the sweep \
         (flat = reproduced)",
        tp(0, 0),
        tp(ns.len() - 1, 0)
    ));
    table.note(format!(
        "paper (§1, [23]): BEB is O(1/ln N); envelope 1/ln N = {:.3} → {:.3}; measured windowed \
         BEB {:.3} → {:.3} (decaying = reproduced)",
        theory::beb_throughput_envelope(first),
        theory::beb_throughput_envelope(last),
        tp(0, 1),
        tp(ns.len() - 1, 1)
    ));
    table.note("aloha-genie knows N (unrealizable); early success rate ≈ 1/e, overall decays from tail waste");
    table.note(format!(
        "campaign \"{}\" seed {}: {} cells × {} replicates on the deterministic shard pool",
        result.name,
        result.seed,
        result.cells.len(),
        result.replicates
    ));
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shows_the_separation() {
        let t = &run(Scale::Quick)[0];
        // LSB flat-ish, BEB decaying: compare first and last rows.
        let get = |row: &Vec<Cell>, idx: usize| match row[idx] {
            Cell::Float(v, _) => v,
            _ => panic!("expected float"),
        };
        let first = &t.rows[0];
        let last = t.rows.last().unwrap();
        let lsb_drop = get(first, 1) - get(last, 1);
        let beb_drop = get(first, 2) - get(last, 2);
        assert!(
            beb_drop > lsb_drop,
            "BEB should degrade faster: lsb {lsb_drop}, beb {beb_drop}"
        );
        assert!(get(last, 1) > 0.08, "LSB stays constant");
    }
}
