//! Leaf-layer timings: the engine's building blocks called through their
//! public functions, with inputs sized from a workload's traced counts.
//!
//! Each timing repeats a batch of calls [`ROUNDS`] times and reports the
//! median nanoseconds per call (per event, participant or table entry).
//! Wake delays come from the protocol's own `next_wake`, drawn from a
//! `LowSensing` state stepped up its ladder until its mean access gap
//! reaches the workload's measured mean wake gap.

use std::hint::black_box;
use std::time::Instant;

use lowsense::{LowSensing, Params};
use lowsense_sim::engine::{PacketTable, StagePlan, WakeQueue};
use lowsense_sim::feedback::{Feedback, Observation};
use lowsense_sim::packet::PacketId;
use lowsense_sim::protocol::Protocol;
use lowsense_sim::rng::SimRng;

use crate::stats::median;

/// Batches per timing; the median batch is reported.
const ROUNDS: usize = 5;
/// Fewest calls in one batch, so a batch outlasts timer noise.
const MIN_CALLS: usize = 1 << 18;
/// Participants per timed group of small staged slots.
const STAGE_GROUP_PARTICIPANTS: usize = 4096;

/// Input sizes taken from a workload's traced counts.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Stations of the workload's largest run.
    pub stations: usize,
    /// Channel accesses per event slot.
    pub fanout: f64,
    /// Mean slots between a station's consecutive accesses.
    pub mean_gap: f64,
}

/// Nanoseconds per call of each leaf operation.
#[derive(Debug, Clone, Copy)]
pub struct LeafTimes {
    /// `LowSensing::observe`.
    pub observe_ns: f64,
    /// `LowSensing::next_wake`.
    pub next_wake_ns: f64,
    /// `WakeQueue::schedule`, per event.
    pub schedule_ns: f64,
    /// `WakeQueue::next_slot` + `advance_to` + `take`, per event drained.
    pub drain_ns: f64,
    /// `PacketTable::compact`, per dense entry.
    pub compact_ns: f64,
    /// `StagePlan::build_order`, per participant.
    pub permute_ns: f64,
    /// `StagePlan::gather`, per participant.
    pub gather_ns: f64,
    /// `PacketTable::scatter_from`, per participant.
    pub scatter_ns: f64,
}

/// Runs every leaf timing for `shape`.
pub fn measure(shape: Shape, seed: u64) -> LeafTimes {
    let mut rng = SimRng::new(seed ^ 0x1eaf);
    let stations = shape.stations.max(1);
    let state = state_with_gap(shape.mean_gap);
    let order = permutation(stations, &mut rng);
    let (observe_ns, next_wake_ns) = protocol_ns(state, &order, &mut rng);
    let (schedule_ns, drain_ns) = wake_ns(state, stations, &mut rng);
    let compact_ns = compact_ns(stations, &mut rng);
    let fanout = (shape.fanout.round() as usize).clamp(1, stations);
    let (permute_ns, gather_ns, scatter_ns) = stage_ns(stations, fanout, &order);
    LeafTimes {
        observe_ns,
        next_wake_ns,
        schedule_ns,
        drain_ns,
        compact_ns,
        permute_ns,
        gather_ns,
        scatter_ns,
    }
}

/// A fresh `LowSensing` state stepped up its ladder (noisy observations)
/// until its mean access gap `1 / p_listen` reaches `gap`.
fn state_with_gap(gap: f64) -> LowSensing {
    let mut s = LowSensing::new(Params::default());
    let top = s.ladder().top_level();
    while 1.0 / s.access_probability() < gap && s.level() < top {
        s.observe(&Observation::listener(0, Feedback::Noisy));
    }
    s
}

fn permutation(n: usize, rng: &mut SimRng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.range_usize(i + 1));
    }
    v
}

/// Median over [`ROUNDS`] batches of `batch()`'s `(seconds, calls)`, in ns
/// per call.
fn per_call(mut batch: impl FnMut() -> (f64, usize)) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (secs, calls) = batch();
            secs * 1e9 / calls.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// `observe` and `next_wake` over one state per station, visited in a
/// random order (the engine visits a slot's participants in insertion
/// order, which is random with respect to their place in the state lane).
fn protocol_ns(state: LowSensing, order: &[u32], rng: &mut SimRng) -> (f64, f64) {
    let mut states = vec![state; order.len()];
    let calls = MIN_CALLS.max(order.len());
    let feedback: Vec<Feedback> = (0..calls)
        .map(|_| {
            if rng.bernoulli(0.5) {
                Feedback::Noisy
            } else {
                Feedback::Empty
            }
        })
        .collect();
    let observe = per_call(|| {
        let t0 = Instant::now();
        for (i, &fb) in feedback.iter().enumerate() {
            let id = order[i % order.len()] as usize;
            states[id].observe(&Observation::listener(i as u64, fb));
        }
        black_box(&states);
        (t0.elapsed().as_secs_f64(), calls)
    });
    let next_wake = per_call(|| {
        let t0 = Instant::now();
        let mut sum = 0u64;
        for i in 0..calls {
            let id = order[i % order.len()] as usize;
            sum = sum.wrapping_add(states[id].next_wake(rng).unwrap_or(0));
        }
        black_box(sum);
        (t0.elapsed().as_secs_f64(), calls)
    });
    (observe, next_wake)
}

/// Schedules one wake per station at a delay drawn by `next_wake`, then
/// drains the queue slot by slot.
fn wake_ns(state: LowSensing, stations: usize, rng: &mut SimRng) -> (f64, f64) {
    let events = MIN_CALLS.max(stations);
    let mut s = state;
    let delays: Vec<u64> = (0..events).map(|_| s.next_wake(rng).unwrap_or(0)).collect();
    let mut schedule = Vec::with_capacity(ROUNDS);
    let mut drain = Vec::with_capacity(ROUNDS);
    let mut out = Vec::new();
    for _ in 0..ROUNDS {
        let mut q = WakeQueue::new();
        let t0 = Instant::now();
        for (i, &d) in delays.iter().enumerate() {
            q.schedule(1 + d, (i % stations) as u32);
        }
        let t1 = Instant::now();
        let mut taken = 0usize;
        while let Some(t) = q.next_slot() {
            q.advance_to(t);
            out.clear();
            q.take(t, &mut out);
            taken += out.len();
        }
        let t2 = Instant::now();
        assert_eq!(taken, events, "the wake queue lost events");
        schedule.push((t1 - t0).as_secs_f64() * 1e9 / events as f64);
        drain.push((t2 - t1).as_secs_f64() * 1e9 / events as f64);
    }
    (median(&schedule), median(&drain))
}

/// Compacts a table with a random half of its stations departed, as a
/// draining run's epochs do.
fn compact_ns(stations: usize, rng: &mut SimRng) -> f64 {
    let tables_per_batch = MIN_CALLS.div_ceil(stations);
    let departed: Vec<bool> = (0..stations).map(|_| rng.bernoulli(0.5)).collect();
    per_call(|| {
        let mut secs = 0.0;
        for _ in 0..tables_per_batch {
            let mut table = PacketTable::new();
            let state = LowSensing::new(Params::default());
            for id in 0..stations as u32 {
                table.insert(PacketId(id), state);
            }
            for (id, &gone) in departed.iter().enumerate() {
                if gone {
                    table.retire(PacketId(id as u32));
                }
            }
            let t0 = Instant::now();
            table.compact();
            secs += t0.elapsed().as_secs_f64();
            black_box(&table);
        }
        (secs, tables_per_batch * stations)
    })
}

/// The staged slot's permute, gather and scatter over slots of `fanout`
/// random distinct participants. Small slots are timed in groups (one
/// plan per slot of the group) so the timer's own cost stays negligible.
fn stage_ns(stations: usize, fanout: usize, order: &[u32]) -> (f64, f64, f64) {
    let mut table = PacketTable::new();
    let state = LowSensing::new(Params::default());
    for id in 0..stations as u32 {
        table.insert(PacketId(id), state);
    }
    let slots: Vec<&[u32]> = order.chunks(fanout).collect();
    let group = (STAGE_GROUP_PARTICIPANTS / fanout).clamp(1, slots.len());
    let mut plans: Vec<StagePlan> = (0..group).map(|_| StagePlan::new()).collect();
    let mut scratch: Vec<Vec<LowSensing>> = vec![Vec::new(); group];
    let participants = MIN_CALLS.max(stations);
    let mut permute = Vec::with_capacity(ROUNDS);
    let mut gather = Vec::with_capacity(ROUNDS);
    let mut scatter = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let (mut p, mut g, mut s) = (0.0, 0.0, 0.0);
        let mut done = 0usize;
        let mut next = slots.iter().cycle();
        while done < participants {
            let batch: Vec<&[u32]> = next.by_ref().take(group).copied().collect();
            let t0 = Instant::now();
            for (plan, slot) in plans.iter_mut().zip(&batch) {
                plan.build_order(slot);
            }
            let t1 = Instant::now();
            for (plan, out) in plans.iter_mut().zip(scratch.iter_mut()) {
                plan.gather(&table, out);
            }
            let t2 = Instant::now();
            for (plan, out) in plans.iter().zip(&scratch) {
                table.scatter_from(plan.handles(), out);
            }
            let t3 = Instant::now();
            p += (t1 - t0).as_secs_f64();
            g += (t2 - t1).as_secs_f64();
            s += (t3 - t2).as_secs_f64();
            done += batch.iter().map(|slot| slot.len()).sum::<usize>();
        }
        let per = 1e9 / done as f64;
        permute.push(p * per);
        gather.push(g * per);
        scatter.push(s * per);
    }
    (median(&permute), median(&gather), median(&scatter))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_state_reaches_the_requested_gap() {
        let s = state_with_gap(1000.0);
        assert!(1.0 / s.access_probability() >= 1000.0);
        let floor = state_with_gap(0.5);
        assert_eq!(floor.level(), LowSensing::new(Params::default()).level());
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = SimRng::new(3);
        let mut p = permutation(1000, &mut rng);
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &x)| i as u32 == x));
    }

    #[test]
    fn small_shape_measures_every_leaf() {
        let t = measure(
            Shape {
                stations: 64,
                fanout: 3.0,
                mean_gap: 20.0,
            },
            1,
        );
        for ns in [
            t.observe_ns,
            t.next_wake_ns,
            t.schedule_ns,
            t.drain_ns,
            t.compact_ns,
            t.permute_ns,
            t.gather_ns,
            t.scatter_ns,
        ] {
            assert!(ns.is_finite() && ns > 0.0, "{t:?}");
        }
    }
}
