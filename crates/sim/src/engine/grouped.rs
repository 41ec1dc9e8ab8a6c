//! The grouped engine for *symmetric* every-slot-listening protocols.
//!
//! Baselines like the Chang–Jin–Pettie multiplicative-weight algorithm
//! listen in **every** slot and apply the same feedback update to every
//! packet, so all packets injected in the same slot share identical state
//! forever (packets are exchangeable within such a cohort). This engine
//! represents each cohort as one group and samples the number of
//! simultaneous senders per group from an exact Binomial, making the
//! per-slot cost `O(groups)` instead of `O(packets)`.
//!
//! Per-packet send attribution draws uniformly random distinct members per
//! slot, which is distributionally exact by exchangeability. Listens are
//! reconstructed at departure: an every-slot-listener's channel accesses
//! equal its lifetime (a slot in which it sends counts once, as a send).

use crate::arrivals::ArrivalProcess;
use crate::config::SimConfig;
use crate::dist::Binomial;
use crate::engine::core::EngineCore;
use crate::feedback::{with_feedback_model, Feedback, FeedbackModel, SlotOutcome};
use crate::jamming::Jammer;
use crate::metrics::RunResult;
use crate::packet::PacketId;
use crate::rng::SimRng;
use crate::time::Slot;

/// A protocol whose packets listen in every slot and update on the common
/// channel feedback only, independent of their own coin flips (except for
/// departing on success).
///
/// This is what makes same-slot cohorts share state; the grouped engine
/// relies on it. Protocols implementing this trait typically also implement
/// [`Protocol`](crate::protocol::Protocol) for cross-validation against the
/// dense engine.
pub trait SymmetricProtocol: Clone {
    /// Probability that each packet of the cohort transmits this slot.
    fn send_probability(&self) -> f64;

    /// Applies the slot's ternary feedback to the cohort state.
    fn on_feedback(&mut self, fb: Feedback);
}

struct Group<P> {
    state: P,
    members: Vec<PacketId>,
    injected: Slot,
}

/// Runs a grouped simulation of a [`SymmetricProtocol`] under the channel
/// model of [`cfg.model`](SimConfig::model).
///
/// `factory` is invoked once per arrival event; every packet of the event
/// shares the returned state (symmetry requires identical initial state).
///
/// The cohort update applies the model's **listener** feedback — exact for
/// models where senders and listeners perceive the channel identically
/// (ternary, costly collisions). Under `NoCollisionDetection` the grouped
/// abstraction is lossy (a failed sender privately hears noise while its
/// cohort hears silence), so the feedback-grid campaign runs symmetric
/// baselines through the per-packet engines instead.
pub fn run_grouped<P, F, A, J>(cfg: &SimConfig, arrivals: A, jammer: J, factory: F) -> RunResult
where
    P: SymmetricProtocol,
    F: FnMut(&mut SimRng) -> P,
    A: ArrivalProcess,
    J: Jammer,
{
    with_feedback_model!(cfg.model, |model| {
        run_grouped_with(cfg, arrivals, jammer, model, factory)
    })
}

/// The grouped loop body under a statically known [`FeedbackModel`].
fn run_grouped_with<P, F, A, J, M>(
    cfg: &SimConfig,
    arrivals: A,
    jammer: J,
    model: M,
    mut factory: F,
) -> RunResult
where
    P: SymmetricProtocol,
    F: FnMut(&mut SimRng) -> P,
    A: ArrivalProcess,
    J: Jammer,
    M: FeedbackModel,
{
    let mut core = EngineCore::with_model(cfg, arrivals, jammer, model);
    let mut groups: Vec<Group<P>> = Vec::new();
    let mut senders: Vec<PacketId> = Vec::new();
    let mut t: Slot = 0;

    while t <= cfg.max_slot {
        let backlog: u64 = groups.iter().map(|g| g.members.len() as u64).sum();
        let contention: f64 = groups
            .iter()
            .map(|g| g.members.len() as f64 * g.state.send_probability())
            .sum();
        let next_arrival = core.peek_arrival(t, backlog, contention);
        if groups.is_empty() {
            match next_arrival {
                Some((ta, _)) if ta > t => {
                    t = ta;
                    continue;
                }
                Some(_) => {}
                None => break,
            }
        }

        // Inject arrival events targeting slot t (one group per event).
        while let Some((ta, count)) = core.peek_arrival(t, backlog, contention) {
            if ta != t {
                break;
            }
            core.consume_arrival();
            let state = factory(&mut core.rng);
            let members: Vec<PacketId> = (0..count).map(|_| core.note_inject(t)).collect();
            groups.push(Group {
                state,
                members,
                injected: t,
            });
        }

        // Members injected this very slot participate from slot t onward.
        let live: u64 = groups.iter().map(|g| g.members.len() as u64).sum();

        // Draw the number of senders per group; attribute to random members.
        senders.clear();
        let mut winner_group: Option<usize> = None;
        for (gi, g) in groups.iter_mut().enumerate() {
            let p = g.state.send_probability();
            let n = g.members.len() as u64;
            if n == 0 {
                continue;
            }
            let k = Binomial::new(n, p).sample(&mut core.rng) as usize;
            if k == 0 {
                continue;
            }
            // Partial Fisher–Yates: the first k members (after swaps) send.
            let len = g.members.len();
            for i in 0..k {
                let j = i + core.rng.range_usize(len - i);
                g.members.swap(i, j);
            }
            for &id in &g.members[..k] {
                senders.push(id);
                core.metrics.note_send(id);
            }
            if senders.len() == k {
                // All senders so far came from this group.
                winner_group = Some(gi);
            }
        }

        let jam = core.jam_decision(t, backlog, contention, &senders);
        let outcome = core.resolve(t, jam, &senders);

        // Bulk listen accounting: every live member listens; senders' access
        // is already counted as a send.
        core.metrics
            .note_bulk_accesses(0, live.saturating_sub(senders.len() as u64));

        if let SlotOutcome::Success { id } = outcome {
            let gi = winner_group.expect("success implies a sender group");
            let g = &mut groups[gi];
            let pos = g
                .members
                .iter()
                .position(|&m| m == id)
                .expect("winner in its group");
            g.members.swap_remove(pos);
            core.note_depart(id, t);
            // Lifetime slots minus sends = pure listens (reconstructed).
            core.metrics.reconcile_listens(id, t - g.injected + 1);
        }

        // Common feedback update for every cohort (the listener's view).
        let fb = model.listener_feedback(&outcome);
        for g in &mut groups {
            g.state.on_feedback(fb);
        }
        groups.retain(|g| !g.members.is_empty());

        let backlog_after: u64 = groups.iter().map(|g| g.members.len() as u64).sum();
        let contention_after: f64 = groups
            .iter()
            .map(|g| g.members.len() as f64 * g.state.send_probability())
            .sum();
        core.checkpoint(t, backlog_after, contention_after);
        t += 1;
    }

    // Packets still alive at stop: reconcile their listens up to last_slot.
    let last = core.metrics.totals.last_slot;
    let live: Vec<(PacketId, Slot)> = groups
        .iter()
        .flat_map(|g| g.members.iter().map(move |&id| (id, g.injected)))
        .collect();
    for (id, injected) in live {
        core.metrics
            .reconcile_listens(id, last.saturating_sub(injected) + 1);
    }

    core.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{Batch, Trace};
    use crate::jamming::{NoJam, PeriodicBurst};

    /// Fixed-probability symmetric protocol (slotted-ALOHA-like).
    #[derive(Clone)]
    struct FixedSym(f64);
    impl SymmetricProtocol for FixedSym {
        fn send_probability(&self) -> f64 {
            self.0
        }
        fn on_feedback(&mut self, _fb: Feedback) {}
    }

    /// MWU-style symmetric protocol: halve on noise, grow on silence.
    #[derive(Clone)]
    struct Mwu(f64);
    impl SymmetricProtocol for Mwu {
        fn send_probability(&self) -> f64 {
            self.0
        }
        fn on_feedback(&mut self, fb: Feedback) {
            match fb {
                Feedback::Empty => self.0 = (self.0 * 1.1).min(0.5),
                Feedback::Noisy => self.0 /= 1.1,
                Feedback::Success => {}
            }
        }
    }

    #[test]
    fn batch_drains_and_accounts() {
        let r = run_grouped(&SimConfig::new(1), Batch::new(50), NoJam, |_| {
            FixedSym(0.02)
        });
        assert_eq!(r.totals.successes, 50);
        assert!(r.drained());
        let t = &r.totals;
        assert_eq!(
            t.active_slots,
            t.empty_active + t.successes + t.collision_slots + t.jammed_active
        );
    }

    #[test]
    fn listens_equal_lifetime_minus_sends() {
        let r = run_grouped(&SimConfig::new(2), Batch::new(10), NoJam, |_| {
            FixedSym(0.05)
        });
        let ps = r.per_packet.as_ref().unwrap();
        for p in ps {
            let lifetime = p.departed.unwrap() - p.injected + 1;
            assert_eq!(p.listens as u64 + p.sends as u64, lifetime);
        }
    }

    #[test]
    fn totals_listens_match_member_slot_sum() {
        let r = run_grouped(&SimConfig::new(3), Batch::new(10), NoJam, |_| {
            FixedSym(0.05)
        });
        // Aggregate accesses == Σ per-packet accesses (all delivered).
        let per: u64 = r.access_counts().iter().sum();
        assert_eq!(per, r.totals.accesses());
    }

    #[test]
    fn mwu_adapts_and_drains() {
        let r = run_grouped(&SimConfig::new(4), Batch::new(200), NoJam, |_| Mwu(0.5));
        assert_eq!(r.totals.successes, 200);
        // MWU should do clearly better than 1 success per 50 slots.
        assert!(
            r.totals.active_slots < 200 * 50,
            "slots {}",
            r.totals.active_slots
        );
    }

    #[test]
    fn multiple_cohorts_tracked_separately() {
        let r = run_grouped(
            &SimConfig::new(5),
            Trace::new(vec![(0, 20), (10, 20)]),
            NoJam,
            |_| Mwu(0.2),
        );
        assert_eq!(r.totals.successes, 40);
        let ps = r.per_packet.as_ref().unwrap();
        assert!(ps.iter().any(|p| p.injected == 0));
        assert!(ps.iter().any(|p| p.injected == 10));
    }

    #[test]
    fn jamming_blocks_success() {
        let cfg = SimConfig::new(6).until_slot(99);
        let r = run_grouped(
            &cfg,
            Batch::new(5),
            PeriodicBurst::new(1, 1, 0), // jam every slot
            |_| FixedSym(0.2),
        );
        assert_eq!(r.totals.successes, 0);
        assert_eq!(r.totals.jammed_active, 100);
    }

    #[test]
    fn live_packets_get_listen_reconciliation_at_stop() {
        let cfg = SimConfig::new(7).until_slot(49);
        let r = run_grouped(&cfg, Batch::new(3), NoJam, |_| FixedSym(0.0));
        let ps = r.per_packet.as_ref().unwrap();
        for p in ps {
            assert_eq!(p.departed, None);
            assert_eq!(p.listens, 50); // alive for slots 0..=49
        }
    }

    #[test]
    fn deterministic() {
        let run = || run_grouped(&SimConfig::new(8), Batch::new(64), NoJam, |_| Mwu(0.3));
        assert_eq!(run().totals, run().totals);
    }
}
