//! Shared helpers used across experiments.
//!
//! Experiments describe workloads as [`Scenario`](lowsense_sim::scenario::Scenario)
//! values (usually starting from the canonical constructors in
//! [`lowsense_sim::scenario::scenarios`]) and sweep them as
//! [`CampaignSpec`](lowsense_campaign::CampaignSpec) grids, running
//! protocols with the factories below.

use lowsense::{LowSensing, Params};
use lowsense_campaign::ScenarioPoint;
use lowsense_sim::rng::SimRng;
use lowsense_sim::scenario::scenarios;

pub use lowsense::lsb;

/// Factory for `LOW-SENSING BACKOFF` with explicit parameters.
pub fn lsb_with(params: Params) -> impl FnMut(&mut SimRng) -> LowSensing {
    move |_| LowSensing::new(params)
}

/// The ablations' scenario axis: a clean batch of `n` and the same batch
/// under random jamming at rate `rho`, labelled by their table's jam
/// column (`none`, `ρ=<rho>`).
pub fn ablation_batches(n: u64, rho: f64) -> [ScenarioPoint; 2] {
    [
        ScenarioPoint::new(scenarios::batch_drain(n).boxed()).labeled("none"),
        ScenarioPoint::new(scenarios::random_jam_batch(n, rho).boxed()).labeled(format!("ρ={rho}")),
    ]
}

/// Geometric sweep `base^lo ..= base^hi` as `u64`s.
pub fn pow2_sweep(lo: u32, hi: u32) -> Vec<u64> {
    (lo..=hi).map(|k| 1u64 << k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape() {
        assert_eq!(pow2_sweep(3, 6), vec![8, 16, 32, 64]);
    }
}
