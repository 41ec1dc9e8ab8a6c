//! Energy-bound checks distilled from the T4–T9 experiments, runnable as
//! fast regression tests.

use lowsense::theory;
use lowsense_baselines::CjpMwu;
use lowsense_sim::prelude::*;

use lowsense::lsb;

#[test]
fn max_accesses_within_ln4_envelope() {
    for &(n, seed) in &[(256u64, 1u64), (1024, 2), (4096, 3)] {
        let r = scenarios::batch_drain(n).seed(seed).run_sparse(lsb());
        let max = *r.access_counts().iter().max().unwrap() as f64;
        let bound = theory::energy_bound_finite(n, 0);
        assert!(
            max < bound,
            "N={n}: max accesses {max} exceeds ln⁴ envelope {bound}"
        );
    }
}

#[test]
fn energy_growth_is_strongly_sublinear() {
    let mean_at = |n: u64, seed: u64| {
        let r = scenarios::batch_drain(n).seed(seed).run_sparse(lsb());
        let counts = r.access_counts();
        counts.iter().sum::<u64>() as f64 / counts.len() as f64
    };
    let small = mean_at(512, 1);
    let large = mean_at(8192, 2);
    // 16× more packets, energy grows ≪ 16× (measured ≈ 2.5–3×).
    assert!(
        large / small < 6.0,
        "energy grew {}× over a 16× input growth",
        large / small
    );
}

#[test]
fn sends_are_nearly_constant_listens_carry_the_polylog() {
    let r = scenarios::batch_drain(4096).seed(3).run_sparse(lsb());
    let ps = r.per_packet.as_ref().unwrap();
    let sends = ps.iter().map(|p| p.sends as f64).sum::<f64>() / ps.len() as f64;
    let listens = ps.iter().map(|p| p.listens as f64).sum::<f64>() / ps.len() as f64;
    assert!(
        sends < 10.0,
        "mean sends {sends} should be a small constant"
    );
    assert!(listens > sends, "listening dominates sending");
}

#[test]
fn cjp_pays_linear_listening_energy() {
    let energy = |n: u64| {
        let r = scenarios::batch_drain(n)
            .seed(1)
            .run_grouped(|_| CjpMwu::default());
        let counts = r.access_counts();
        counts.iter().sum::<u64>() as f64 / counts.len() as f64
    };
    let (small, large) = (energy(256), energy(4096));
    // CJP mean accesses ≈ mean lifetime ≈ Θ(N): 16× input ⇒ ≈ 8–16×.
    assert!(
        large / small > 6.0,
        "CJP energy should scale ~linearly: {small} → {large}"
    );
}

#[test]
fn reactive_jamming_leaves_population_average_unmoved() {
    let avg_with_budget = |j: u64| {
        let r = scenarios::batch_drain(1024)
            .jammer(ReactiveTargeted::new(PacketId(0), j))
            .seed(7)
            .run_sparse(lsb());
        let counts = r.access_counts();
        counts.iter().sum::<u64>() as f64 / counts.len() as f64
    };
    let clean = avg_with_budget(0);
    let jammed = avg_with_budget(128);
    assert!(
        (jammed - clean).abs() / clean < 0.25,
        "population average moved: {clean} → {jammed}"
    );
}

#[test]
fn target_accesses_grow_with_reactive_budget() {
    let target_accesses = |j: u64, seed: u64| {
        let r = scenarios::batch_drain(512)
            .jammer(ReactiveTargeted::new(PacketId(0), j))
            .seed(seed)
            .run_sparse(lsb());
        r.per_packet.as_ref().unwrap()[0].accesses() as f64
    };
    let mean = |j: u64| (0..6).map(|s| target_accesses(j, s)).sum::<f64>() / 6.0;
    let calm = mean(0);
    let sniped = mean(128);
    assert!(
        sniped > 1.5 * calm,
        "target should pay for the jams: {calm} → {sniped}"
    );
    // …but stays within the paper's (J+1)·polylog budget.
    let bound = theory::energy_bound_reactive(512, 128);
    assert!(
        sniped < bound,
        "target accesses {sniped} exceed bound {bound}"
    );
}
