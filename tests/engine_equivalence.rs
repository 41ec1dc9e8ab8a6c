//! Cross-engine equivalence: dense is the semantic oracle; sparse and
//! grouped must agree with it statistically (they are different exact
//! samplers of the same stochastic process).
//!
//! All workloads come from the scenario registry, so every engine faces the
//! byte-identical run description — including the jammed variants, where
//! the sparse engine's bulk gap accounting and the grouped engine's cohort
//! sampling must both reproduce the dense engine's jam statistics.

use lowsense_baselines::{CjpMwu, SlottedAloha, WindowedBeb};
use lowsense_sim::prelude::*;

use lowsense::lsb;

const SEEDS: u64 = 10;

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// Means across seeds must agree within `tol` relative error.
fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
    assert!(
        (a - b).abs() / a.abs().max(1e-9) < tol,
        "{what}: {a} vs {b}"
    );
}

#[test]
fn lsb_dense_vs_sparse_active_slots_and_energy() {
    let scenario = scenarios::batch_drain(150);
    let dense: Vec<RunResult> = (0..SEEDS)
        .map(|s| scenario.seeded(s).run_dense(lsb()))
        .collect();
    let sparse: Vec<RunResult> = (100..100 + SEEDS)
        .map(|s| scenario.seeded(s).run_sparse(lsb()))
        .collect();
    assert_close(
        mean(dense.iter().map(|r| r.totals.active_slots as f64)),
        mean(sparse.iter().map(|r| r.totals.active_slots as f64)),
        0.2,
        "active slots",
    );
    assert_close(
        mean(dense.iter().map(|r| r.totals.accesses() as f64)),
        mean(sparse.iter().map(|r| r.totals.accesses() as f64)),
        0.2,
        "total accesses",
    );
    assert_close(
        mean(dense.iter().map(|r| r.totals.empty_active as f64)),
        mean(sparse.iter().map(|r| r.totals.empty_active as f64)),
        0.25,
        "empty slots",
    );
}

#[test]
fn lsb_dense_vs_sparse_under_random_jam() {
    let scenario = scenarios::random_jam_batch(100, 0.2);
    let d =
        mean((0..SEEDS).map(|s| scenario.seeded(s).run_dense(lsb()).totals.active_slots as f64));
    let sp = mean(
        (200..200 + SEEDS).map(|s| scenario.seeded(s).run_sparse(lsb()).totals.active_slots as f64),
    );
    assert_close(d, sp, 0.25, "jammed active slots");
}

#[test]
fn lsb_dense_vs_sparse_under_bursty_jam() {
    // Deterministic periodic bursts: besides the makespan, the *jam counts*
    // must agree tightly — the sparse engine reconstructs them from range
    // arithmetic while the dense engine visits every slot.
    let scenario = scenarios::burst_jam_batch(100, 16, 4);
    let dense: Vec<RunResult> = (0..SEEDS)
        .map(|s| scenario.seeded(s).run_dense(lsb()))
        .collect();
    let sparse: Vec<RunResult> = (300..300 + SEEDS)
        .map(|s| scenario.seeded(s).run_sparse(lsb()))
        .collect();
    assert_close(
        mean(dense.iter().map(|r| r.totals.active_slots as f64)),
        mean(sparse.iter().map(|r| r.totals.active_slots as f64)),
        0.25,
        "bursty active slots",
    );
    // Jam fraction is pinned at burst/period = 1/4 by the jammer itself.
    for r in dense.iter().chain(sparse.iter()) {
        let frac = r.totals.jammed_active as f64 / r.totals.active_slots as f64;
        assert!((frac - 0.25).abs() < 0.05, "jam fraction {frac}");
    }
}

#[test]
fn beb_dense_vs_sparse() {
    let scenario = scenarios::batch_drain(100);
    let d = mean((0..SEEDS).map(|s| {
        scenario
            .seeded(s)
            .run_dense(|rng| WindowedBeb::new(2, 20, rng))
            .totals
            .active_slots as f64
    }));
    let sp = mean((300..300 + SEEDS).map(|s| {
        scenario
            .seeded(s)
            .run_sparse(|rng| WindowedBeb::new(2, 20, rng))
            .totals
            .active_slots as f64
    }));
    assert_close(d, sp, 0.25, "beb active slots");
}

#[test]
fn cjp_dense_vs_grouped() {
    let scenario = scenarios::batch_drain(120);
    let d = mean((0..SEEDS).map(|s| {
        scenario
            .seeded(s)
            .run_dense(|_| CjpMwu::default())
            .totals
            .active_slots as f64
    }));
    let g = mean((400..400 + SEEDS).map(|s| {
        scenario
            .seeded(s)
            .run_grouped(|_| CjpMwu::default())
            .totals
            .active_slots as f64
    }));
    assert_close(d, g, 0.25, "cjp active slots");
}

#[test]
fn cjp_dense_vs_grouped_under_random_jam() {
    // Grouped-vs-dense agreement must survive jamming: the cohort engine's
    // binomial sender sampling and the dense per-packet coin flips see the
    // same jam process.
    let scenario = scenarios::random_jam_batch(120, 0.2);
    let run_pair = |seed_base: u64, grouped: bool| {
        mean((seed_base..seed_base + SEEDS).map(|s| {
            let r = if grouped {
                scenario.seeded(s).run_grouped(|_| CjpMwu::default())
            } else {
                scenario.seeded(s).run_dense(|_| CjpMwu::default())
            };
            assert!(r.drained(), "seed {s} did not drain");
            r.totals.active_slots as f64
        }))
    };
    let d = run_pair(0, false);
    let g = run_pair(500, true);
    assert_close(d, g, 0.25, "cjp jammed active slots");
}

#[test]
fn cjp_dense_vs_grouped_under_bursty_jam() {
    let scenario = scenarios::burst_jam_batch(120, 16, 4);
    let stats = |grouped: bool, seed_base: u64| {
        let runs: Vec<RunResult> = (seed_base..seed_base + SEEDS)
            .map(|s| {
                if grouped {
                    scenario.seeded(s).run_grouped(|_| CjpMwu::default())
                } else {
                    scenario.seeded(s).run_dense(|_| CjpMwu::default())
                }
            })
            .collect();
        (
            mean(runs.iter().map(|r| r.totals.active_slots as f64)),
            mean(runs.iter().map(|r| r.totals.jammed_active as f64)),
        )
    };
    let (d_slots, d_jams) = stats(false, 0);
    let (g_slots, g_jams) = stats(true, 600);
    assert_close(d_slots, g_slots, 0.25, "bursty cjp active slots");
    assert_close(d_jams, g_jams, 0.25, "bursty cjp jam counts");
    // The periodic jammer pins the jam fraction at 1/4 for both engines.
    assert_close(d_jams / d_slots, 0.25, 0.2, "dense jam fraction");
    assert_close(g_jams / g_slots, 0.25, 0.2, "grouped jam fraction");
}

#[test]
fn registry_scenarios_agree_across_sparse_seeds() {
    // Smoke over the whole canned registry: the same description replays
    // identically under the same seed, and totals stay internally
    // consistent for every canonical workload.
    for scenario in scenarios::registry(48) {
        let a = scenario.seeded(9).run_sparse(lsb());
        let b = scenario.seeded(9).run_sparse(lsb());
        assert_eq!(a.totals, b.totals, "{} must replay", scenario.name());
        let t = &a.totals;
        assert_eq!(
            t.active_slots,
            t.empty_active + t.successes + t.collision_slots + t.jammed_active,
            "{}: slot classes must partition active slots",
            scenario.name()
        );
    }
}

#[test]
fn lone_aloha_packet_latency_matches_closed_form() {
    // One packet sending w.p. p per slot: E[latency] = 1/p exactly.
    let p = 0.05;
    let scenario = scenarios::batch_drain(1);
    for (engine, base) in [("dense", 0u64), ("sparse", 1000)] {
        let lat = mean((base..base + 40).map(|s| {
            let r = if engine == "dense" {
                scenario.seeded(s).run_dense(|_| SlottedAloha::new(p))
            } else {
                scenario.seeded(s).run_sparse(|_| SlottedAloha::new(p))
            };
            r.latencies()[0] as f64
        }));
        assert!(
            (lat - 1.0 / p).abs() / (1.0 / p) < 0.35,
            "{engine}: mean latency {lat} vs {}",
            1.0 / p
        );
    }
}

#[test]
fn sparse_gap_accounting_is_exact_for_deterministic_jammer() {
    // With a lone never-sending packet and a periodic jammer, the sparse
    // engine's bulk gap accounting must be slot-exact.
    #[derive(Clone)]
    struct Mute;
    impl Protocol for Mute {
        fn intent(&mut self, _rng: &mut SimRng) -> Intent {
            Intent::Sleep
        }
        fn observe(&mut self, _obs: &Observation) {}
        fn send_probability(&self) -> f64 {
            0.0
        }
        fn next_wake(&mut self, _rng: &mut SimRng) -> Option<u64> {
            None
        }
    }
    impl SparseProtocol for Mute {
        fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
            false
        }
    }
    let r = Scenario::named("mute-under-periodic-jam")
        .arrivals(Batch::new(1))
        .jammer(PeriodicBurst::new(7, 2, 3))
        .seed(1)
        .until_slot(9_999)
        .run_sparse(|_| Mute);
    assert_eq!(r.totals.active_slots, 10_000);
    // Exact count of slots with (t - 3) mod 7 < 2 in [0, 10_000).
    let expect = (0u64..10_000).filter(|t| (t + 7 - 3) % 7 < 2).count() as u64;
    assert_eq!(r.totals.jammed_active, expect);
}
