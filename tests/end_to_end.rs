//! End-to-end: every protocol × representative workloads (all constructed
//! through the scenario layer), plus the experiment registry.

use lowsense_baselines::{CjpMwu, PolynomialBackoff, ProbBeb, SlottedAloha, WindowedBeb};
use lowsense_sim::prelude::*;

use lowsense::lsb;

#[test]
fn lsb_drains_all_workload_shapes() {
    let n = 300u64;
    let workloads: Vec<DynScenario> = vec![
        scenarios::batch_drain(n).seed(1).boxed(),
        scenarios::bernoulli_stream(0.02, n).seed(2).boxed(),
        scenarios::poisson_stream(0.05, n).seed(3).boxed(),
        scenarios::adversarial_queuing_total(0.1, 64, Placement::Random, n)
            .seed(4)
            .boxed(),
        Scenario::named("three-bursts")
            .arrivals(Trace::new(vec![(0, 100), (500, 100), (5000, 100)]))
            .seed(5)
            .boxed(),
        scenarios::saturated(50, n).seed(6).boxed(),
    ];
    for scenario in &workloads {
        let r = scenario.run_sparse(lsb());
        let name = scenario.name();
        assert!(r.drained(), "{name} did not drain");
        assert_eq!(r.totals.arrivals, n, "{name} arrival count");
        assert!(
            r.totals.throughput() > 0.05,
            "{name} throughput {}",
            r.totals.throughput()
        );
    }
}

#[test]
fn every_baseline_drains_a_batch() {
    let batch = scenarios::batch_drain(200);
    assert!(batch
        .seeded(10)
        .run_sparse(|rng| WindowedBeb::new(2, 30, rng))
        .drained());
    assert!(batch.seeded(11).run_sparse(|_| ProbBeb::new(0.5)).drained());
    assert!(batch
        .seeded(12)
        .run_sparse(|rng| PolynomialBackoff::new(2, 2, rng))
        .drained());
    assert!(batch
        .seeded(13)
        .run_sparse(|_| SlottedAloha::genie(200))
        .drained());
    assert!(batch
        .seeded(14)
        .run_grouped(|_| CjpMwu::default())
        .drained());
}

#[test]
fn lsb_beats_beb_on_large_batches() {
    let faceoff = scenarios::protocol_faceoff(4096).seed(20);
    let lsb_run = faceoff.run_sparse(lsb());
    let beb_run = faceoff.run_sparse(|rng| WindowedBeb::new(2, 30, rng));
    assert!(
        lsb_run.totals.throughput() > 2.0 * beb_run.totals.throughput(),
        "lsb {} vs beb {}",
        lsb_run.totals.throughput(),
        beb_run.totals.throughput()
    );
}

#[test]
fn registry_experiments_produce_well_formed_tables() {
    // Run two cheap experiments end-to-end through the registry.
    let registry = lowsense_experiments::registry();
    for id in ["F3", "T9"] {
        let e = registry.iter().find(|e| e.id == id).expect("registered");
        let tables = (e.run)(lowsense_experiments::Scale::Quick);
        assert!(!tables.is_empty(), "{id} produced no tables");
        for t in &tables {
            assert!(!t.columns.is_empty());
            assert!(!t.rows.is_empty());
            for row in &t.rows {
                assert_eq!(row.len(), t.columns.len());
            }
            // Render and CSV never panic and contain the id.
            assert!(t.render().contains(&t.id));
            assert!(t.to_csv().contains(','));
        }
    }
}

#[test]
fn canned_scenario_registry_smoke() {
    // Every canonical scenario drains (or stops at its horizon) with sane
    // accounting under the reference protocol.
    for scenario in scenarios::registry(64) {
        let r = scenario.seeded(30).run_sparse(lsb());
        let t = &r.totals;
        assert!(t.successes <= t.arrivals, "{}", scenario.name());
        assert!(t.sends >= t.successes, "{}", scenario.name());
        assert_eq!(
            t.active_slots,
            t.empty_active + t.successes + t.collision_slots + t.jammed_active,
            "{}: slot classes must partition active slots",
            scenario.name()
        );
    }
}

#[test]
fn latencies_and_energy_are_recorded_for_all_delivered_packets() {
    let n = 256u64;
    let r = scenarios::batch_drain(n).seed(30).run_sparse(lsb());
    assert_eq!(r.latencies().len(), n as usize);
    assert_eq!(r.access_counts().len(), n as usize);
    // Every packet sent at least once (its success).
    let ps = r.per_packet.as_ref().unwrap();
    assert!(ps.iter().all(|p| p.sends >= 1));
}
