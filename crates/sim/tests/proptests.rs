//! Property tests for the simulator substrate: samplers match their
//! distributions, deterministic jammers agree with their range counters,
//! arrival processes honour their contracts, the engines coincide exactly
//! on deterministic protocols, and the staged gather/scatter primitives
//! agree with per-element lane access.

use lowsense_sim::engine::table::PacketTable;
use lowsense_sim::engine::StagePlan;
use lowsense_sim::packet::PacketId;

use lowsense_sim::arrivals::{AdversarialQueuing, ArrivalProcess, Placement, Trace};
use lowsense_sim::config::SimConfig;
use lowsense_sim::dist::{geometric, Binomial};
use lowsense_sim::engine::{run_dense, run_sparse};
use lowsense_sim::feedback::{Intent, Observation};
use lowsense_sim::hooks::NoHooks;
use lowsense_sim::jamming::{Jammer, NoJam, PeriodicBurst, WindowPrefixJam};
use lowsense_sim::metrics::Totals;
use lowsense_sim::protocol::{Protocol, SparseProtocol};
use lowsense_sim::rng::SimRng;
use lowsense_sim::view::SystemView;
use proptest::prelude::*;

fn view(totals: &Totals) -> SystemView<'_> {
    SystemView {
        slot: 0,
        backlog: 1,
        contention: 0.0,
        totals,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Geometric samples have the right head probability P(X = 0) = p.
    #[test]
    fn geometric_head_probability(p in 0.05f64..0.95, seed in 0u64..10_000) {
        let mut rng = SimRng::new(seed);
        let n = 4_000;
        let zeros = (0..n).filter(|_| geometric(&mut rng, p) == 0).count();
        let rate = zeros as f64 / n as f64;
        // 5 sigma of a Bernoulli(p) sample of 4000.
        let sigma = (p * (1.0 - p) / n as f64).sqrt();
        prop_assert!((rate - p).abs() < 5.0 * sigma + 0.01, "p={p}, rate={rate}");
    }

    /// Binomial samples stay in range and match the mean within 6σ.
    #[test]
    fn binomial_range_and_mean(
        n in 1u64..50_000,
        p in 0.0001f64..0.9999,
        seed in 0u64..10_000,
    ) {
        let mut rng = SimRng::new(seed);
        let d = Binomial::new(n, p);
        let reps = 400;
        let mut sum = 0u64;
        for _ in 0..reps {
            let x = d.sample(&mut rng);
            prop_assert!(x <= n);
            sum += x;
        }
        let mean = sum as f64 / reps as f64;
        let expect = n as f64 * p;
        let sigma = (n as f64 * p * (1.0 - p) / reps as f64).sqrt();
        prop_assert!(
            (mean - expect).abs() < 6.0 * sigma + 0.05,
            "n={n} p={p}: mean {mean} vs {expect}"
        );
    }

    /// Deterministic jammers: `count_range` equals the per-slot sum on
    /// arbitrary ranges.
    #[test]
    fn periodic_burst_count_matches_enumeration(
        period in 1u64..50,
        burst in 1u64..50,
        phase in 0u64..100,
        a in 0u64..1_000,
        len in 0u64..500,
    ) {
        prop_assume!(burst <= period);
        let totals = Totals::default();
        let mut rng = SimRng::new(1);
        let mut j1 = PeriodicBurst::new(period, burst, phase);
        let mut j2 = PeriodicBurst::new(period, burst, phase);
        let b = a + len;
        let by_range = j1.count_range(a, b, &view(&totals), &mut rng);
        let by_slot = (a..b)
            .filter(|&t| j2.jams(t, &view(&totals), &mut rng))
            .count() as u64;
        prop_assert_eq!(by_range, by_slot);
    }

    /// Same for the window-prefix (adversarial-queuing) jammer, including
    /// fractional budgets.
    #[test]
    fn window_prefix_count_matches_enumeration(
        rate in 0.0f64..0.99,
        s in 1u64..64,
        a in 0u64..2_000,
        len in 0u64..700,
    ) {
        let totals = Totals::default();
        let mut rng = SimRng::new(1);
        let mut j1 = WindowPrefixJam::new(rate, s);
        let mut j2 = WindowPrefixJam::new(rate, s);
        let b = a + len;
        let by_range = j1.count_range(a, b, &view(&totals), &mut rng);
        let by_slot = (a..b)
            .filter(|&t| j2.jams(t, &view(&totals), &mut rng))
            .count() as u64;
        prop_assert_eq!(by_range, by_slot);
    }

    /// Adversarial-queuing arrivals: event slots are nondecreasing, window
    /// budgets are respected, totals are exact.
    #[test]
    fn queuing_arrivals_contract(
        rate in 0.01f64..0.9,
        s in 1u64..128,
        total in 1u64..400,
        placement in prop_oneof![
            Just(Placement::Front),
            Just(Placement::Spread),
            Just(Placement::Random)
        ],
        seed in 0u64..10_000,
    ) {
        let totals = Totals::default();
        let mut rng = SimRng::new(seed);
        let mut p = AdversarialQueuing::new(rate, s, placement).with_total(total);
        let mut cursor = 0u64;
        let mut injected = 0u64;
        let mut per_window = std::collections::HashMap::new();
        while let Some((slot, count)) = p.next_arrival(cursor, &view(&totals), &mut rng) {
            prop_assert!(slot >= cursor, "event slot moved backwards");
            prop_assert!(count >= 1);
            cursor = slot + 1;
            injected += count as u64;
            *per_window.entry(slot / s).or_insert(0u64) += count as u64;
        }
        prop_assert_eq!(injected, total);
        let cap = (rate * s as f64).ceil() as u64;
        for (&w, &c) in &per_window {
            prop_assert!(c <= cap.max(1), "window {w} got {c} > {cap}");
        }
    }

    /// Trace arrivals replay exactly.
    #[test]
    fn trace_replays_exactly(events in proptest::collection::vec((0u64..10_000, 1u32..50), 0..20)) {
        let mut sorted = events;
        sorted.sort_by_key(|e| e.0);
        sorted.dedup_by_key(|e| e.0);
        let totals = Totals::default();
        let mut rng = SimRng::new(1);
        let mut t = Trace::new(sorted.clone());
        let mut cursor = 0;
        for &(slot, count) in &sorted {
            let got = t.next_arrival(cursor, &view(&totals), &mut rng);
            prop_assert_eq!(got, Some((slot, count)));
            cursor = slot + 1;
        }
        prop_assert_eq!(t.next_arrival(cursor, &view(&totals), &mut rng), None);
    }
}

/// A deterministic protocol consuming no randomness: both engines must
/// produce *identical* executions, not merely statistically equal ones.
#[derive(Clone)]
struct Greedy;

impl Protocol for Greedy {
    fn intent(&mut self, _rng: &mut SimRng) -> Intent {
        Intent::Send
    }
    fn observe(&mut self, _obs: &Observation) {}
    fn send_probability(&self) -> f64 {
        1.0
    }
    fn next_wake(&mut self, _rng: &mut SimRng) -> Option<u64> {
        Some(0)
    }
}

impl SparseProtocol for Greedy {
    fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exact dense/sparse agreement on the deterministic protocol, for
    /// arbitrary batch traces and horizons.
    #[test]
    fn engines_coincide_exactly_on_deterministic_protocol(
        first in 1u32..5,
        gap in 1u64..100,
        second in 0u32..5,
        horizon in 1u64..300,
        seed in 0u64..1_000,
    ) {
        let mk_trace = || {
            let mut v = vec![(0u64, first)];
            if second > 0 {
                v.push((gap, second));
            }
            Trace::new(v)
        };
        let cfg = SimConfig::new(seed)
            .until_slot(horizon);
        let dense = run_dense(&cfg, mk_trace(), NoJam, |_| Greedy, &mut NoHooks);
        let sparse = run_sparse(&cfg, mk_trace(), NoJam, |_| Greedy, &mut NoHooks);
        prop_assert_eq!(dense.totals, sparse.totals);
        prop_assert_eq!(dense.per_packet, sparse.per_packet);
    }

    /// The calendar-queue sparse engine and the retained heap-based loop
    /// produce bit-identical executions for arbitrary stochastic protocols,
    /// traces, jamming rates, and horizons.
    #[test]
    fn sparse_engines_bit_identical_on_random_workloads(
        p in 0.001f64..1.0,
        first in 1u32..40,
        gap in 1u64..5_000,
        second in 0u32..40,
        rho in 0.0f64..0.6,
        horizon in 1u64..20_000,
        seed in 0u64..10_000,
    ) {
        #[derive(Clone)]
        struct Fixed(f64);
        impl Protocol for Fixed {
            fn intent(&mut self, rng: &mut SimRng) -> Intent {
                if rng.bernoulli(self.0) { Intent::Send } else { Intent::Sleep }
            }
            fn observe(&mut self, _obs: &Observation) {}
            fn send_probability(&self) -> f64 {
                self.0
            }
            fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
                Some(geometric(rng, self.0))
            }
        }
        impl SparseProtocol for Fixed {
            fn send_on_access(&mut self, rng: &mut SimRng) -> bool {
                rng.bernoulli(0.8)
            }
        }
        let mk_trace = || {
            let mut v = vec![(0u64, first)];
            if second > 0 {
                v.push((gap, second));
            }
            Trace::new(v)
        };
        let cfg = SimConfig::new(seed)
            .until_slot(horizon);
        let fast = run_sparse(
            &cfg,
            mk_trace(),
            lowsense_sim::jamming::RandomJam::new(rho),
            |_| Fixed(p),
            &mut NoHooks,
        );
        let reference = lowsense_sim::engine::run_sparse_reference(
            &cfg,
            mk_trace(),
            lowsense_sim::jamming::RandomJam::new(rho),
            |_| Fixed(p),
            &mut NoHooks,
        );
        prop_assert_eq!(fast.totals, reference.totals);
        prop_assert_eq!(fast.per_packet, reference.per_packet);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The staged gather/scatter primitives the engine ships agree exactly
    /// with per-element lane access: for an arbitrary live set (mid-slot
    /// departures included), an arbitrary participant order over an
    /// arbitrary cohort, and across a compaction boundary, `build_order` →
    /// `gather` → mutate → `scatter_from` stages participant `j` at
    /// position `j` and leaves the table bit-identical to the same
    /// mutations applied one lane at a time through `state_at_mut` on a
    /// twin table.
    #[test]
    fn gather_scatter_matches_per_element_access(
        n in 1usize..120,
        dead_picks in proptest::collection::vec(0usize..1_000_000, 0..48),
        priorities in proptest::collection::vec(0u32..1_000_000_000, 120..121),
        frac in 0.0f64..1.001,
    ) {
        let mut staged: PacketTable<u64> = PacketTable::new();
        let mut direct: PacketTable<u64> = PacketTable::new();
        for id in 0..n {
            let state = id as u64 * 1_000_003 + 7;
            staged.insert(PacketId(id as u32), state);
            direct.insert(PacketId(id as u32), state);
        }

        // Mid-slot departures: an arbitrary subset retires before the
        // staging runs, so gathered handles skip over vacant entries.
        let mut alive = vec![true; n];
        for &pick in &dead_picks {
            let id = pick % n;
            if alive[id] {
                alive[id] = false;
                staged.retire(PacketId(id as u32));
                direct.retire(PacketId(id as u32));
            }
        }
        let mut survivors: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
        // Arbitrary gather order: argsort by the fuzzed priorities. An
        // arbitrary prefix of it forms the cohort, so some live lanes
        // stay outside the round-trip and must come through untouched.
        survivors.sort_by_key(|&i| (priorities[i], i));
        let take_n = ((survivors.len() as f64) * frac).round() as usize;
        let cohort = &survivors[..take_n.min(survivors.len())];

        let ids: Vec<u32> = cohort.iter().map(|&i| i as u32).collect();
        let mut plan = StagePlan::new();
        let mut scratch: Vec<u64> = Vec::new();
        plan.build_order(&ids);
        plan.gather(&staged, &mut scratch);
        prop_assert_eq!(plan.handles().len(), cohort.len());
        for (j, &i) in cohort.iter().enumerate() {
            prop_assert_eq!(plan.handles()[j], staged.resolve(PacketId(i as u32)));
            prop_assert_eq!(scratch[j], *direct.state(PacketId(i as u32)));
        }
        // The same mutation through both routes: contiguous scratch on the
        // staged table, one lane at a time on the direct one.
        for (j, s) in scratch.iter_mut().enumerate() {
            *s = s.wrapping_mul(31).wrapping_add(j as u64);
        }
        for (j, &i) in cohort.iter().enumerate() {
            let d = direct.resolve(PacketId(i as u32));
            let p = direct.state_at_mut(d);
            *p = p.wrapping_mul(31).wrapping_add(j as u64);
        }
        staged.scatter_from(plan.handles(), &scratch);
        for &i in &survivors {
            prop_assert_eq!(
                staged.state(PacketId(i as u32)),
                direct.state(PacketId(i as u32))
            );
        }

        // Across the compaction boundary: compact only the staged table
        // (old handles die with the epoch; the reused plan re-resolves),
        // then round-trip the full survivor set once more and compare.
        staged.compact();
        let ids: Vec<u32> = survivors.iter().map(|&i| i as u32).collect();
        plan.build_order(&ids);
        plan.gather(&staged, &mut scratch);
        for (j, s) in scratch.iter_mut().enumerate() {
            *s ^= 0x9e37_79b9_7f4a_7c15 ^ j as u64;
        }
        for (j, &i) in survivors.iter().enumerate() {
            let d = direct.resolve(PacketId(i as u32));
            let p = direct.state_at_mut(d);
            *p ^= 0x9e37_79b9_7f4a_7c15 ^ j as u64;
        }
        staged.scatter_from(plan.handles(), &scratch);
        for &i in &survivors {
            prop_assert_eq!(
                staged.state(PacketId(i as u32)),
                direct.state(PacketId(i as u32))
            );
        }
    }
}
