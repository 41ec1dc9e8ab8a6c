//! F2 — Potential drift over analysis intervals (Theorem 5.18).
//!
//! The engine of the whole proof: over an interval of length
//! `τ = max(w_max/ln²w_max, √N)/c_int`, the potential `Φ` drops by
//! `Ω(τ) − O(A+J)` w.h.p. We slice live runs with the paper's interval
//! schedule and report, per interval-length bucket: the mean drift per
//! slot, the fraction of intervals with negative drift, and the
//! arrival+jam credit `(A+J)/τ` that the theorem subtracts.
//!
//! A run here yields interval records, not a `RunResult`, so it cannot be
//! a campaign cell: the replicates go straight to [`shard_map`], seeded by
//! [`cell_seed`] with the jam setting as the cell index.

use lowsense::IntervalRecorder;
use lowsense_campaign::seed::cell_seed;
use lowsense_campaign::shard_map;
use lowsense_sim::scenario::scenarios;

use crate::common::lsb;
use crate::runner::Scale;
use crate::table::{Cell, Table};
use std::collections::BTreeMap;

/// The seed F2's replicate seeds derive from.
const F2_SEED: u64 = 0xF_2;

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table> {
    let n: u64 = scale.pick(1 << 9, 1 << 12);
    let mut table = Table::new(
        "F2",
        format!("per-interval potential drift (Thm 5.18 schedule), batch N={n}"),
    )
    .columns([
        "jam",
        "τ-bucket",
        "intervals",
        "drift/slot(mean)",
        "frac(ΔΦ<0)",
        "(A+J)/τ(mean)",
    ]);

    for jam in [false, true] {
        let seeds = (0..scale.seeds())
            .map(|r| cell_seed(F2_SEED, jam as u64, r))
            .collect();
        let records = shard_map(seeds, |seed| {
            let mut rec = IntervalRecorder::new(1.0);
            if jam {
                let _ = scenarios::random_jam_batch(n, 0.1)
                    .seed(seed)
                    .run_sparse_hooked(lsb(), &mut rec);
            } else {
                let _ = scenarios::batch_drain(n)
                    .seed(seed)
                    .run_sparse_hooked(lsb(), &mut rec);
            }
            rec.records().to_vec()
        });
        // Bucket by log2 of realized interval length.
        let mut buckets: BTreeMap<u32, Vec<lowsense::IntervalRecord>> = BTreeMap::new();
        for r in records.into_iter().flatten() {
            if r.len == 0 {
                continue;
            }
            let b = 63 - r.len.max(1).leading_zeros();
            buckets.entry(b).or_default().push(r);
        }
        for (b, rs) in &buckets {
            let count = rs.len() as u64;
            let drift = rs.iter().map(|r| r.drift_per_slot()).sum::<f64>() / count as f64;
            let neg = rs.iter().filter(|r| r.delta_phi() < 0.0).count() as f64 / count as f64;
            let credit = rs
                .iter()
                .map(|r| (r.arrivals + r.jams) as f64 / r.len as f64)
                .sum::<f64>()
                / count as f64;
            table.row(vec![
                Cell::text(if jam { "ρ=0.1" } else { "none" }),
                Cell::UInt(1u64 << b),
                Cell::UInt(count),
                Cell::Float(drift, 3),
                Cell::Float(neg, 3),
                Cell::Float(credit, 3),
            ]);
        }
    }

    table.note(
        "paper: Thm 5.18 — Φ drops Ω(τ) − O(A+J) per interval w.h.p. in τ: drift/slot \
         should be ≤ −Ω(1) once the jam credit is accounted, and the negative fraction \
         should approach 1 for long intervals",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_negative_on_average_without_jamming() {
        let t = &run(Scale::Quick)[0];
        // Weight drift by interval count for the no-jam rows.
        let mut weighted = 0.0;
        let mut total = 0.0;
        for row in &t.rows {
            let is_nojam = matches!(&row[0], Cell::Text(s) if s == "none");
            if !is_nojam {
                continue;
            }
            let (count, drift) = match (&row[2], &row[3]) {
                (Cell::UInt(c), Cell::Float(d, _)) => (*c as f64, *d),
                _ => panic!("unexpected cells"),
            };
            weighted += count * drift;
            total += count;
        }
        assert!(total > 0.0);
        assert!(
            weighted / total < 0.0,
            "mean drift {} should be negative",
            weighted / total
        );
    }
}
