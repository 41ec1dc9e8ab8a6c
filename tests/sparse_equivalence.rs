//! Bit-for-bit equivalence of the calendar-queue sparse engine against the
//! retained heap-based reference loop.
//!
//! The optimized engine (`run_sparse`) promises *identical executions*, not
//! just statistical agreement: the same RNG draw order, the same
//! floating-point accumulation order, the same hook sequence. Since PR 4
//! the shared processing order within a slot is **insertion order**: the
//! reference keys its heap `(slot, insertion_seq)` while the calendar
//! queue drains buckets in push order, two implementations of the same
//! order — which is what lets the fast engine skip per-slot sorting and
//! run its packet table through epoch compaction without these
//! comparisons noticing. The tests hold both engines to that promise
//! across the canonical scenario registry (including its jammed and
//! reactive-adversary scenarios), several protocols, metric
//! configurations, and seeds, by comparing complete [`RunResult`]s —
//! totals, per-packet statistics, and trajectory series — with exact
//! equality.
//!
//! Since the hierarchical wheel became the production wake set, the suite
//! is **three-way**: the wheel is also pinned against the retained flat
//! calendar ring (`run_sparse_flat`, the PR 2–6 production queue running
//! under the *same* generic loop body). The heap reference checks the
//! loop; the flat ring checks the queue — a structurally different
//! single-level schedule that must still drain in the identical
//! (slot, insertion-seq) order through every cascade the wheel performs.

use lowsense::{lsb, Coupling, LowSensing, Params, Rule, Update};
use lowsense_baselines::{CjpMwu, PolynomialBackoff, ProbBeb, SlottedAloha, WindowedBeb};
use lowsense_sim::prelude::*;
use proptest::prelude::*;

/// Exact comparison of every field of two [`RunResult`]s.
fn assert_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.seed, b.seed, "{what}: seed");
    assert_eq!(a.totals, b.totals, "{what}: totals");
    match (&a.per_packet, &b.per_packet) {
        (None, None) => {}
        (Some(pa), Some(pb)) => assert_eq!(pa, pb, "{what}: per-packet stats"),
        _ => panic!("{what}: per-packet presence differs"),
    }
    assert_eq!(a.series.len(), b.series.len(), "{what}: series length");
    for (i, (sa, sb)) in a.series.iter().zip(&b.series).enumerate() {
        assert_eq!(sa, sb, "{what}: series point {i}");
    }
}

/// Three-way check of one scenario: hierarchical wheel (production) vs
/// flat calendar ring (retained queue oracle) vs heap reference (loop
/// oracle), all bit-identical.
fn assert_three_way<A, J, P, F>(s: &Scenario<A, J>, factory: F, what: &str)
where
    A: ArrivalProcess + Clone,
    J: Jammer + Clone,
    P: SparseProtocol,
    F: FnMut(&mut SimRng) -> P + Clone,
{
    let wheel = s.run_sparse(factory.clone());
    let flat = s.run_sparse_flat(factory.clone());
    let heap = s.run_sparse_reference(factory);
    assert_identical(&wheel, &flat, &format!("{what}: wheel vs flat ring"));
    assert_identical(&wheel, &heap, &format!("{what}: wheel vs heap reference"));
}

/// Every registry scenario, LSB protocol, three seeds: identical results.
#[test]
fn registry_is_bit_identical_under_lsb() {
    for scenario in scenarios::registry(96) {
        for seed in [1, 7, 1234] {
            let s = scenario.seeded(seed);
            let fast = s.run_sparse(lsb());
            let reference = s.run_sparse_reference(lsb());
            assert_identical(&fast, &reference, &format!("{} (seed {seed})", s.name()));
        }
    }
}

/// The trajectory series (geometric checkpoints, including the in-gap
/// checkpoint path) must match sample-for-sample.
#[test]
fn registry_series_bit_identical() {
    for scenario in scenarios::registry(64) {
        let s = scenario.seeded(3).series(1.3);
        let fast = s.run_sparse(lsb());
        let reference = s.run_sparse_reference(lsb());
        assert_identical(&fast, &reference, s.name());
        assert!(
            !fast.series.is_empty(),
            "{}: series should have samples",
            s.name()
        );
    }
}

/// Baseline protocols exercise different scheduling shapes: deterministic
/// countdowns (BEB, polynomial), memoryless draws (ALOHA, ProbBeb), and the
/// degenerate every-slot listener (CJP).
#[test]
fn baselines_bit_identical_on_jammed_batch() {
    let s = scenarios::random_jam_batch(48, 0.15).seed(11);
    assert_identical(
        &s.run_sparse(|_| SlottedAloha::new(1.0 / 48.0)),
        &s.run_sparse_reference(|_| SlottedAloha::new(1.0 / 48.0)),
        "aloha",
    );
    assert_identical(
        &s.run_sparse(|rng| WindowedBeb::new(4, 16, rng)),
        &s.run_sparse_reference(|rng| WindowedBeb::new(4, 16, rng)),
        "windowed-beb",
    );
    assert_identical(
        &s.run_sparse(|_| ProbBeb::new(0.25)),
        &s.run_sparse_reference(|_| ProbBeb::new(0.25)),
        "prob-beb",
    );
    assert_identical(
        &s.run_sparse(|rng| PolynomialBackoff::new(4, 2, rng)),
        &s.run_sparse_reference(|rng| PolynomialBackoff::new(4, 2, rng)),
        "polynomial",
    );
    let s = s.clone().until_slot(5_000);
    assert_identical(
        &s.run_sparse(|_| CjpMwu::default()),
        &s.run_sparse_reference(|_| CjpMwu::default()),
        "cjp (every-slot listener)",
    );
}

/// Reactive jamming consults the adversary with the slot's sender set; the
/// engines must present identical sets in identical order.
#[test]
fn reactive_adversaries_bit_identical() {
    let s = scenarios::reactive_dos_batch(64, 40).seed(5);
    assert_identical(
        &s.run_sparse(lsb()),
        &s.run_sparse_reference(lsb()),
        "reactive-dos",
    );
    let s = Scenario::named("sniper")
        .arrivals(Batch::new(32))
        .jammer(WithReactive::new(
            RandomJam::new(0.1),
            ReactiveTargeted::new(PacketId(3), 8),
        ))
        .seed(9);
    assert_identical(
        &s.run_sparse(lsb()),
        &s.run_sparse_reference(lsb()),
        "sniper",
    );
}

/// Far-future wake-ups (beyond the calendar ring) migrate through the
/// overflow heap; tiny access probabilities exercise that path hard.
#[test]
fn far_horizon_wakeups_bit_identical() {
    let s = Scenario::named("long-sleepers")
        .arrivals(Trace::new(vec![(0, 8), (20_000, 8), (90_000, 8)]))
        .seed(2)
        .until_slot(400_000);
    let factory = |_: &mut SimRng| LowSensing::with_window(Params::default(), 5e7);
    // Three-way on purpose: 5e7-slot wakes land in the wheel's coarse
    // levels (and cascade down) but in the flat ring's overflow heap — the
    // two queues disagree structurally the most on exactly this workload.
    assert_three_way(&s, factory, "long-sleepers");
}

/// The full canonical registry under the three-way check: every scenario
/// (clean, jammed, bursty, reactive, streaming), two seeds, LSB.
#[test]
fn registry_three_way_bit_identical() {
    for scenario in scenarios::registry(64) {
        for seed in [2, 77] {
            let s = scenario.seeded(seed);
            let what = format!("{} (seed {seed})", s.name());
            assert_three_way(&s, lsb(), &what);
        }
    }
}

/// Adversarial scheduling under the three-way check: reactive jammers see
/// the sender sets the queues hand the loop, so any drain-order skew
/// between the three wake sets would surface here as diverging jam
/// decisions, not just shuffled floats.
#[test]
fn reactive_adversaries_three_way_bit_identical() {
    assert_three_way(
        &scenarios::reactive_dos_batch(64, 40).seed(15),
        lsb(),
        "reactive-dos",
    );
    let sniper = Scenario::named("sniper")
        .arrivals(Batch::new(32))
        .jammer(WithReactive::new(
            RandomJam::new(0.1),
            ReactiveTargeted::new(PacketId(3), 8),
        ))
        .seed(19);
    assert_three_way(&sniper, lsb(), "sniper");
}

/// All seven protocols of the equivalence suite (`LowSensing` twice, under
/// two rules) under the three-way check on a jammed batch: they differ in
/// scheduling shape (deterministic countdowns, memoryless draws,
/// every-slot listeners, multiplicative ladders), so together they exercise
/// every queue path — L0 pushes, coarse placements, cascades, and the far
/// heap.
#[test]
fn seven_protocols_three_way_bit_identical() {
    let s = scenarios::random_jam_batch(48, 0.15)
        .seed(23)
        .until_slot(5_000);
    assert_three_way(&s, lsb(), "lsb");
    assert_three_way(&s, |_: &mut SimRng| ProbBeb::new(0.25), "prob-beb");
    assert_three_way(&s, |_: &mut SimRng| SlottedAloha::new(1.0 / 48.0), "aloha");
    assert_three_way(
        &s,
        |rng: &mut SimRng| WindowedBeb::new(4, 16, rng),
        "windowed-beb",
    );
    assert_three_way(
        &s,
        |rng: &mut SimRng| PolynomialBackoff::new(4, 2, rng),
        "polynomial",
    );
    assert_three_way(
        &s,
        |_: &mut SimRng| CjpMwu::default(),
        "cjp (every-slot listener)",
    );
    let p = blunt_independent();
    assert_three_way(
        &s,
        move |_: &mut SimRng| LowSensing::new(p),
        "lowsensing (factor 2, independent)",
    );
}

/// The ablation rule farthest from the paper's: doubling/halving updates
/// and independent send/listen coins.
fn blunt_independent() -> Params {
    let mut rule = Rule::PAPER;
    rule.update = Update::Factor(2.0);
    rule.coupling = Coupling::Independent;
    Params::default().with_rule(rule).unwrap()
}

/// A slot horizon cuts a run mid-drain (this batch drains at slot 222);
/// the wheel, the flat ring and the reference must stop at the same slot
/// with the same partial accounting.
#[test]
fn slot_horizon_cutoff_bit_identical() {
    let s = scenarios::batch_drain(64).seed(4).until_slot(100);
    let cut = s.run_sparse(lsb());
    assert!(!cut.drained(), "the horizon must cut the drain");
    assert!(cut.totals.successes > 0, "the cut must fall mid-drain");
    assert_three_way(&s, lsb(), "horizon cut");
}

/// Delays whose absolute wake slot saturates past the representable
/// horizon are "never" in both engines — even with the slot clock opened
/// all the way up, neither engine may process (or park forever) a
/// saturated event.
#[test]
fn saturated_wake_slots_bit_identical() {
    #[derive(Clone)]
    struct FarFuture;
    impl Protocol for FarFuture {
        fn intent(&mut self, _rng: &mut SimRng) -> Intent {
            Intent::Sleep
        }
        fn observe(&mut self, _obs: &Observation) {}
        fn send_probability(&self) -> f64 {
            0.0
        }
        fn next_wake(&mut self, _rng: &mut SimRng) -> Option<u64> {
            Some(u64::MAX - 1) // finite, but offset() saturates to NEVER
        }
    }
    impl SparseProtocol for FarFuture {
        fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
            false
        }
    }
    let s = Scenario::named("saturated-wakes")
        .arrivals(Trace::new(vec![(0, 2), (10, 1)]))
        .seed(1)
        .until_slot(u64::MAX);
    let fast = s.run_sparse(|_| FarFuture);
    let reference = s.run_sparse_reference(|_| FarFuture);
    assert_identical(&fast, &reference, "saturated-wakes");
    assert_eq!(fast.totals.successes, 0);
    assert_eq!(fast.totals.arrivals, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One registry sweep mixing the protocol that overrides the batched
    /// wake draw (`LowSensing`, under the paper's rule and an ablation
    /// rule), one that listens through its defaulted per-lane fallback
    /// (`CjpMwu`), and the always-send baselines (`ProbBeb`, `SlottedAloha`,
    /// `WindowedBeb`, `PolynomialBackoff`), which never listen and so never
    /// reach it: whichever path a listener cohort takes, the calendar-queue
    /// engine must stay bit-identical to the heap reference.
    #[test]
    fn mixed_batch_and_scalar_protocols_bit_identical(
        scenario_idx in 0usize..64,
        protocol in 0usize..7,
        seed in 0u64..1_000_000,
    ) {
        let registry = scenarios::registry(32);
        // CJP listens every slot, so cap the horizon to keep the sweep fast;
        // the cap applies to every case for comparability.
        let s = registry[scenario_idx % registry.len()]
            .seeded(seed)
            .until_slot(10_000);
        let what = format!("{} (seed {seed}, protocol {protocol})", s.name());
        match protocol {
            // The paper's protocol (batched wake draw), then three
            // always-send baselines.
            0 => assert_identical(&s.run_sparse(lsb()), &s.run_sparse_reference(lsb()), &what),
            1 => assert_identical(
                &s.run_sparse(|_| ProbBeb::new(0.25)),
                &s.run_sparse_reference(|_| ProbBeb::new(0.25)),
                &what,
            ),
            2 => assert_identical(
                &s.run_sparse(|_| SlottedAloha::new(0.03)),
                &s.run_sparse_reference(|_| SlottedAloha::new(0.03)),
                &what,
            ),
            3 => assert_identical(
                &s.run_sparse(|rng| WindowedBeb::new(4, 16, rng)),
                &s.run_sparse_reference(|rng| WindowedBeb::new(4, 16, rng)),
                &what,
            ),
            // One more always-send baseline, CJP on the defaulted
            // next_wake4, and `LowSensing` under an ablation rule below
            // (case 6).
            4 => assert_identical(
                &s.run_sparse(|rng| PolynomialBackoff::new(4, 2, rng)),
                &s.run_sparse_reference(|rng| PolynomialBackoff::new(4, 2, rng)),
                &what,
            ),
            5 => assert_identical(
                &s.run_sparse(|_| CjpMwu::default()),
                &s.run_sparse_reference(|_| CjpMwu::default()),
                &what,
            ),
            _ => {
                let p = blunt_independent();
                assert_identical(
                    &s.run_sparse(move |_| LowSensing::new(p)),
                    &s.run_sparse_reference(move |_| LowSensing::new(p)),
                    &what,
                )
            }
        }
    }
}

/// The channel-model axis under the three-way check: the full registry,
/// run under each alternative [`ChannelModel`], must stay bit-identical
/// across the wheel, the flat ring, and the heap reference. The models
/// change what protocols hear (no-CD collapses collisions into silence)
/// and how the physical clock advances (costly collisions accumulate
/// skew), so this pins that both hooks live in the *shared* loop body and
/// core — not in any engine-specific path one queue could drift away from.
#[test]
fn model_axis_three_way_bit_identical() {
    for model in [
        ChannelModel::NoCollisionDetection,
        ChannelModel::CostlyCollisions { alpha: 0.5 },
    ] {
        for scenario in scenarios::registry(48) {
            // Horizon-capped: full-sensing LSB can escalate forever when
            // no-CD hides collisions, and equivalence only needs bounded
            // identical runs.
            let s = scenario.seeded(31).model(model).until_slot(10_000);
            let what = format!("{} under {}", s.name(), model.label());
            assert_three_way(&s, lsb(), &what);
        }
    }
}

/// Baseline protocols under the alternative models on a jammed batch:
/// sender-only protocols (BEB family) exercise `sender_feedback`, the
/// polynomial ladder exercises the scalar observation path, and the jam
/// mix keeps the no-overhead-for-jams rule of `CostlyCollisions` honest
/// across all three sparse implementations.
#[test]
fn baselines_three_way_bit_identical_under_models() {
    for model in [
        ChannelModel::NoCollisionDetection,
        ChannelModel::CostlyCollisions { alpha: 0.5 },
    ] {
        let s = scenarios::random_jam_batch(48, 0.15)
            .seed(11)
            .model(model)
            .until_slot(5_000);
        assert_three_way(
            &s,
            |rng: &mut SimRng| WindowedBeb::new(4, 16, rng),
            &format!("windowed-beb under {}", model.label()),
        );
        assert_three_way(
            &s,
            |_: &mut SimRng| ProbBeb::new(0.25),
            &format!("prob-beb under {}", model.label()),
        );
        assert_three_way(
            &s,
            |rng: &mut SimRng| PolynomialBackoff::new(4, 2, rng),
            &format!("polynomial under {}", model.label()),
        );
    }
}

/// `totals_only` runs (the benchmark configuration) are equivalent too.
#[test]
fn totals_only_bit_identical() {
    let s = scenarios::random_jam_batch(256, 0.2).totals_only().seed(8);
    assert_identical(
        &s.run_sparse(lsb()),
        &s.run_sparse_reference(lsb()),
        "totals-only",
    );
}

/// Per event slot, in slot order: how many senders `on_slot` reported,
/// how many of them lost, and how many observations the slot delivered.
#[derive(Default)]
struct CohortSizes(Vec<(u32, u32, u32)>);

impl Hooks<LowSensing> for CohortSizes {
    fn on_slot(&mut self, _t: Slot, outcome: &SlotOutcome) {
        let (senders, losers) = match *outcome {
            SlotOutcome::Success { .. } => (1, 0),
            SlotOutcome::Collision { senders } | SlotOutcome::Jammed { senders } => {
                (senders, senders)
            }
            _ => (0, 0),
        };
        self.0.push((senders, losers, 0));
    }

    fn on_observe(&mut self, _t: Slot, _id: PacketId, _b: &LowSensing, _a: &LowSensing) {
        self.0.last_mut().expect("observe follows its slot").2 += 1;
    }
}

/// The cohort sweep handles each cohort in quads plus a scalar remainder,
/// so every cohort size around the quad boundary must keep the three
/// engines bit-identical: listener cohorts of 0–9 and losing-sender
/// cohorts of 1–9 (a jammed lone sender loses too). Small LSB batches from
/// a small window, under random jamming and all three channel models,
/// with per-packet metrics and series on; a hooked wheel run over the
/// same runs checks that every size occurred, so the suite cannot
/// silently stop reaching the remainder. The 40-station batch is there
/// for the 8- and 9-sender collisions, which a dozen stations rarely
/// produce.
#[test]
fn cohorts_of_every_size_three_way_bit_identical() {
    let factory = |_: &mut SimRng| LowSensing::with_window(Params::default(), 8.0);
    let mut listener_sizes = [0u32; 10];
    let mut loser_sizes = [0u32; 10];
    for model in [
        ChannelModel::Ternary,
        ChannelModel::NoCollisionDetection,
        ChannelModel::CostlyCollisions { alpha: 0.5 },
    ] {
        for (n, seed) in [(6, 1), (14, 2), (24, 3), (40, 4)] {
            // Horizon-capped: no-CD LSB livelocks instead of draining.
            let s = scenarios::random_jam_batch(n, 0.1)
                .seeded(seed)
                .model(model)
                .series(1.3)
                .until_slot(3_000);
            let what = format!("{} under {}", s.name(), model.label());
            assert_three_way(&s, factory, &what);
            let mut sizes = CohortSizes::default();
            s.run_sparse_hooked(factory, &mut sizes);
            for (senders, losers, observes) in sizes.0 {
                if observes == 0 {
                    continue; // an arrival-only slot has no cohorts
                }
                if let Some(c) = listener_sizes.get_mut((observes - senders) as usize) {
                    *c += 1;
                }
                if let Some(c) = loser_sizes.get_mut(losers as usize) {
                    *c += 1;
                }
            }
        }
    }
    assert!(
        listener_sizes.iter().all(|&count| count > 0),
        "listener cohorts by size 0..=9: {listener_sizes:?}"
    );
    assert!(
        loser_sizes[1..].iter().all(|&count| count > 0),
        "losing-sender cohorts by size 1..=9: {:?}",
        &loser_sizes[1..]
    );
}

/// Stations in the staged scenarios: 600k 8-byte `LowSensing` states are
/// a 4.8 MB lane, ~15% past the 4 MiB staging gate.
const STAGED_STATIONS: u64 = 600_000;

/// The staged gather/scatter path against both oracles, under all three
/// feedback models. 600k stations put the state lane past the staging
/// gate, and the small starting window keeps early slots at over 200k
/// participants each — so the wheel and flat-ring engines run the staged
/// path, gathering each slot's states into a scratch in insertion order,
/// while the heap reference runs its unstaged per-element loop.
/// Bit-identity here is the staging contract made executable: staging may
/// only move memory traffic, never a draw, an observation, or an
/// accumulation. Horizon-capped: coverage needs the high-fanout prefix,
/// not a full drain.
#[test]
fn staged_high_fanout_600k_three_way_bit_identical() {
    // Every run below must clear the staging gate, or the sparse engines
    // would silently take the direct path when the state shrinks.
    let lane = STAGED_STATIONS as usize * std::mem::size_of::<LowSensing>();
    assert!(
        lane >= lowsense_sim::engine::STAGE_MIN_LANE_BYTES,
        "{STAGED_STATIONS} states are a {lane} B lane, under the staging gate"
    );
    let factory = |_: &mut SimRng| LowSensing::with_window(Params::default(), 64.0);
    // Ternary with full per-packet metrics: the strongest pin (every
    // packet's access counts and latencies must survive staging).
    let s = scenarios::high_fanout_batch(STAGED_STATIONS, 8).seeded(6);
    assert_three_way(&s, factory, "high-fanout-batch under ternary");
    // The alternative models with totals-only metrics and a shorter
    // horizon: the staged slots still dominate the run, and totals (which
    // fold every contention float in accumulation order) keep the
    // bit-identity bar while the debug-build suite stays fast.
    for model in [
        ChannelModel::NoCollisionDetection,
        ChannelModel::CostlyCollisions { alpha: 0.5 },
    ] {
        let s = scenarios::high_fanout_batch(STAGED_STATIONS, 6)
            .totals_only()
            .seeded(6)
            .model(model);
        let what = format!("{} under {}", s.name(), model.label());
        assert_three_way(&s, factory, &what);
    }
}
