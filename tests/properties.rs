//! Property-based tests: engine invariants hold for randomized workloads,
//! jam rates, parameters, and seeds.

use lowsense::{LowSensing, Params};
use lowsense_sim::prelude::*;
use proptest::prelude::*;

/// Invariants every finished run must satisfy, regardless of configuration.
fn check_invariants(r: &RunResult) {
    let t = &r.totals;
    assert!(t.successes <= t.arrivals, "more successes than arrivals");
    assert_eq!(
        t.active_slots,
        t.empty_active + t.successes + t.collision_slots + t.jammed_active,
        "slot classes must partition active slots"
    );
    assert!(t.max_backlog <= t.arrivals);
    assert!(t.successes <= t.sends, "each success is a send");
    if let Some(ps) = &r.per_packet {
        let sends: u64 = ps.iter().map(|p| p.sends as u64).sum();
        let listens: u64 = ps.iter().map(|p| p.listens as u64).sum();
        assert_eq!(sends, t.sends, "per-packet sends sum to total");
        assert_eq!(listens, t.listens, "per-packet listens sum to total");
        for p in ps {
            if let Some(d) = p.departed {
                assert!(d >= p.injected, "departure before injection");
                assert!(p.sends >= 1, "delivered packets sent at least once");
            }
        }
        let delivered = ps.iter().filter(|p| p.departed.is_some()).count() as u64;
        assert_eq!(delivered, t.successes, "departures equal successes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sparse-engine invariants across random batch sizes, jam rates, seeds.
    #[test]
    fn sparse_run_invariants(
        n in 1u64..300,
        rho in 0.0f64..0.5,
        seed in 0u64..1_000_000,
    ) {
        let r = scenarios::random_jam_batch(n, rho)
            .seed(seed)
            .run_sparse(|_| LowSensing::new(Params::default()));
        prop_assert!(r.drained());
        check_invariants(&r);
    }

    /// Dense-engine invariants on smaller instances.
    #[test]
    fn dense_run_invariants(
        n in 1u64..80,
        rho in 0.0f64..0.4,
        seed in 0u64..1_000_000,
    ) {
        let r = scenarios::random_jam_batch(n, rho)
            .seed(seed)
            .run_dense(|_| LowSensing::new(Params::default()));
        prop_assert!(r.drained());
        check_invariants(&r);
    }

    /// Valid parameter space: any admissible (c, w_min) still drains.
    #[test]
    fn any_valid_params_drain(
        c in 0.4f64..3.0,
        w_min in 4.0f64..64.0,
        seed in 0u64..100_000,
    ) {
        prop_assume!(c * w_min.ln().powi(3) >= 1.0);
        let params = Params::new(c, w_min).expect("assumed valid");
        let r = scenarios::batch_drain(64)
            .seed(seed)
            .run_sparse(|_| LowSensing::new(params));
        prop_assert!(r.drained());
        check_invariants(&r);
    }

    /// Runs are pure functions of (workload, params, seed).
    #[test]
    fn determinism(seed in 0u64..1_000_000) {
        let scenario = scenarios::random_jam_batch(50, 0.2).seed(seed);
        let go = || scenario.run_sparse(|_| LowSensing::new(Params::default()));
        let (a, b) = (go(), go());
        prop_assert_eq!(a.totals, b.totals);
        prop_assert_eq!(a.per_packet, b.per_packet);
    }

    /// Stream workloads cut at a horizon never violate accounting invariants,
    /// drained or not.
    #[test]
    fn truncated_streams_keep_invariants(
        rate in 0.01f64..0.2,
        horizon in 500u64..5_000,
        seed in 0u64..100_000,
    ) {
        let r = Scenario::named("truncated-bernoulli+jam")
            .arrivals(Bernoulli::new(rate))
            .jammer(RandomJam::new(0.1))
            .until_slot(horizon)
            .seed(seed)
            .run_sparse(|_| LowSensing::new(Params::default()));
        check_invariants(&r);
        prop_assert!(r.totals.last_slot <= horizon);
    }
}
