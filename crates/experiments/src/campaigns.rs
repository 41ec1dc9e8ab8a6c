//! Canonical campaign definitions shared by experiments, the `campaign`
//! binary, the perf smoke bench, and the CI determinism canary.
//!
//! The protocol face-off is *the* showcase sweep: every contending
//! protocol over the same batch-drain scenario axis, paired seeds, one
//! mergeable statistics pass.

use lowsense::{LowSensing, Params};
use lowsense_baselines::{
    CjpConfig, CjpMwu, NoCdBackoff, PolynomialBackoff, ProbBeb, SlottedAloha, WindowedBeb,
};
use lowsense_campaign::{CampaignSpec, ScenarioPoint};
use lowsense_sim::feedback::ChannelModel;
use lowsense_sim::scenario::scenarios;

/// The face-off campaign: every baseline protocol × batch sizes `ns` ×
/// `replicates` seeded runs. Scenarios record totals only (throughput is
/// the face-off's metric), so cells stay cheap at large `n`.
///
/// Protocol labels, in axis order: `low-sensing`, `beb-window`,
/// `beb-prob`, `poly(k=2)`, `aloha-genie`, `cjp-mwu`.
pub fn faceoff_spec(ns: &[u64], replicates: u32, seed: u64) -> CampaignSpec {
    CampaignSpec::new("faceoff")
        .seed(seed)
        .replicates(replicates)
        .scenarios(ns.iter().map(|&n| {
            ScenarioPoint::new(scenarios::protocol_faceoff(n).totals_only().boxed())
                .knob("n", n as f64)
        }))
        .protocol("low-sensing", |sc, _| {
            sc.run_sparse(|_| LowSensing::new(Params::default()))
        })
        .protocol("beb-window", |sc, _| {
            sc.run_sparse(|rng| WindowedBeb::new(2, 40, rng))
        })
        .protocol("beb-prob", |sc, _| sc.run_sparse(|_| ProbBeb::new(0.5)))
        .protocol("poly(k=2)", |sc, _| {
            sc.run_sparse(|rng| PolynomialBackoff::new(2, 2, rng))
        })
        .protocol("aloha-genie", |sc, knobs| {
            // The genie knows the batch size — read it off the knob axis.
            let n = knobs["n"] as u64;
            sc.run_sparse(move |_| SlottedAloha::genie(n))
        })
        .protocol("cjp-mwu", |sc, _| {
            sc.run_grouped(|_| CjpMwu::new(CjpConfig::default()))
        })
}

/// The tiny face-off instance the CI determinism canary runs: small
/// batches, 2 replicates — a few milliseconds of work (the sweep takes
/// 2.5–3.5 ms through the `campaign` binary on a 2-vCPU box) whose
/// artifact must be byte-identical for every shard count.
pub fn faceoff_small_spec(seed: u64) -> CampaignSpec {
    faceoff_spec(&[64, 128], 2, seed)
}

/// The feedback-model grid: the protocol face-off rerun under every
/// channel model — jammed and unjammed batch drains × the sparse
/// contenders (plus the no-CD-native Jiang–Zheng baseline) × the explicit
/// model axis {`ternary`, `no-cd`, `costly(alpha=0.5)`}.
///
/// Both scenario points carry a hard `until_slot` horizon: full-sensing
/// LSB *livelocks* on the no-CD channel (collisions read as silence, so
/// it only ever gets more aggressive), and the grid's job is to measure
/// that degradation under a bounded clock, not to hang on it.
///
/// Protocol labels, in axis order: `low-sensing`, `beb-window`,
/// `beb-prob`, `poly(k=2)`, `jz-nocd`.
pub fn feedback_grid_spec(n: u64, replicates: u32, seed: u64) -> CampaignSpec {
    let horizon = n.saturating_mul(200);
    CampaignSpec::new("feedback_grid")
        .seed(seed)
        .replicates(replicates)
        .scenario(
            ScenarioPoint::new(
                scenarios::batch_drain(n)
                    .until_slot(horizon)
                    .totals_only()
                    .boxed(),
            )
            .knob("n", n as f64),
        )
        .scenario(
            ScenarioPoint::new(
                scenarios::random_jam_batch(n, 0.2)
                    .until_slot(horizon)
                    .totals_only()
                    .boxed(),
            )
            .knob("n", n as f64)
            .knob("rho", 0.2),
        )
        .models([
            ChannelModel::Ternary,
            ChannelModel::NoCollisionDetection,
            ChannelModel::CostlyCollisions { alpha: 0.5 },
        ])
        .protocol("low-sensing", |sc, _| {
            sc.run_sparse(|_| LowSensing::new(Params::default()))
        })
        .protocol("beb-window", |sc, _| {
            sc.run_sparse(|rng| WindowedBeb::new(2, 40, rng))
        })
        .protocol("beb-prob", |sc, _| sc.run_sparse(|_| ProbBeb::new(0.5)))
        .protocol("poly(k=2)", |sc, _| {
            sc.run_sparse(|rng| PolynomialBackoff::new(2, 2, rng))
        })
        .protocol("jz-nocd", |sc, _| {
            sc.run_sparse(|_| NoCdBackoff::new(4.0, 4096.0, 2.0))
        })
}

/// The canonical feedback-grid instance the CI canary pins: `n = 48`,
/// 2 replicates — 2 scenarios × 5 protocols × 3 models = 30 cells whose
/// artifact (`CAMPAIGN_feedback_grid.json`) must be byte-identical for
/// every shard count.
pub fn feedback_grid_small_spec(seed: u64) -> CampaignSpec {
    feedback_grid_spec(48, 2, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_faceoff_grid_shape() {
        let spec = faceoff_small_spec(3);
        assert_eq!(spec.cell_count(), 12, "2 scenarios × 6 protocols");
        assert_eq!(spec.unit_count(), 24);
    }

    #[test]
    fn genie_reads_the_batch_knob() {
        let r = faceoff_small_spec(5).run_sharded(2);
        // Every protocol drains the batch on every cell.
        for cell in &r.cells {
            assert_eq!(
                cell.stats.successes, cell.stats.arrivals,
                "{} / {} did not drain",
                cell.scenario, cell.protocol
            );
        }
        // LSB beats windowed BEB on overall throughput at n=128.
        let lsb = r.cell(1, 0).stats.throughput.mean();
        let beb = r.cell(1, 1).stats.throughput.mean();
        assert!(lsb > beb * 0.8, "lsb {lsb} vs beb {beb}");
    }

    #[test]
    fn feedback_grid_shape_and_axes() {
        let spec = feedback_grid_small_spec(3);
        assert_eq!(
            spec.cell_count(),
            30,
            "2 scenarios × 5 protocols × 3 models"
        );
        assert_eq!(spec.unit_count(), 60);
    }

    #[test]
    fn feedback_grid_models_change_outcomes() {
        let r = feedback_grid_small_spec(5).run_sharded(2);
        assert_eq!(r.models, vec!["ternary", "no-cd", "costly(alpha=0.5)"]);
        // Every cell stays inside its horizon and accounted.
        for cell in &r.cells {
            assert!(cell.stats.successes <= cell.stats.arrivals, "{cell:?}");
        }
        // LSB on the ternary channel drains the plain batch; on the no-CD
        // channel the same protocol walks the wrong way and times out
        // short of a full drain — the degradation the grid exists to show.
        let lsb_ternary = &r.cell_model(0, 0, 0).stats;
        let lsb_nocd = &r.cell_model(0, 0, 1).stats;
        assert_eq!(lsb_ternary.successes, lsb_ternary.arrivals);
        assert!(
            lsb_nocd.successes < lsb_nocd.arrivals,
            "no-CD should starve full-sensing LSB: {lsb_nocd:?}"
        );
        // The JZ baseline is no-CD-native: it drains the batch there.
        let jz_nocd = &r.cell_model(0, 4, 1).stats;
        assert_eq!(jz_nocd.successes, jz_nocd.arrivals, "{jz_nocd:?}");
        // Costly collisions dilate the clock on the jammed batch.
        assert!(r.cell_model(1, 0, 2).stats.overhead_slots > 0);
        // And ternary cells never pay overhead.
        assert_eq!(r.cell_model(1, 0, 0).stats.overhead_slots, 0);
    }
}
