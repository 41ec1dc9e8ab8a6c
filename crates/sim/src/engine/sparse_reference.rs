//! The retained heap-based sparse loop, kept as the equivalence oracle for
//! the calendar-queue engine in [`sparse`](crate::engine::sparse).
//!
//! This is a semantics-preserving port of the previous `run_sparse`
//! implementation: one binary-heap entry per scheduled access, keyed
//! `(slot, insertion_seq)` — `insertion_seq` counts scheduling calls
//! across the run — so same-slot participants pop in the order their
//! events were scheduled. That is exactly the order the calendar queue
//! hands back for free (buckets drain in push order; see
//! `crate::engine::wake`), which is what lets the optimized engine skip
//! its former per-slot id sort while this oracle stays bit-identical to
//! it. (Historical deltas, shared by both engines: delay sampling goes
//! through the `Protocol::next_wake` trait migration; a finite delay whose
//! absolute slot saturates past the representable horizon collapses to
//! "never" via `time::wake_slot`; and the processing order within a slot
//! is insertion order, where the pre-PR-4 loops used ascending id order.)
//! The optimized engine must produce
//! *bit-identical* [`RunResult`]s — same RNG draw order, same floating-point
//! accumulation order — and the `sparse_equivalence` test suite holds the
//! two to that standard across the canonical scenario registry. Keep this
//! loop dumb and obviously correct; speed belongs in `sparse.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::arrivals::ArrivalProcess;
use crate::config::SimConfig;
use crate::engine::core::EngineCore;
use crate::feedback::{with_feedback_model, FeedbackModel, Observation, SlotOutcome};
use crate::hooks::Hooks;
use crate::jamming::Jammer;
use crate::metrics::RunResult;
use crate::packet::PacketId;
use crate::protocol::SparseProtocol;
use crate::rng::SimRng;
use crate::time::{offset, wake_slot, Slot};

/// Runs the reference event-driven simulation (binary-heap wake set)
/// under the channel model of [`cfg.model`](SimConfig::model).
///
/// Semantically identical to [`run_sparse`](crate::engine::sparse::run_sparse)
/// — and verified bit-identical by the equivalence tests, under every
/// model — but pays `O(log n)` heap traffic per channel access. Use it to
/// validate engine changes, not for production sweeps.
pub fn run_sparse_reference<P, F, A, J, H>(
    cfg: &SimConfig,
    arrivals: A,
    jammer: J,
    factory: F,
    hooks: &mut H,
) -> RunResult
where
    P: SparseProtocol,
    F: FnMut(&mut SimRng) -> P,
    A: ArrivalProcess,
    J: Jammer,
    H: Hooks<P>,
{
    with_feedback_model!(cfg.model, |model| {
        run_sparse_reference_with(cfg, arrivals, jammer, model, factory, hooks)
    })
}

/// The reference loop body under a statically known [`FeedbackModel`].
fn run_sparse_reference_with<P, F, A, J, M, H>(
    cfg: &SimConfig,
    arrivals: A,
    jammer: J,
    model: M,
    mut factory: F,
    hooks: &mut H,
) -> RunResult
where
    P: SparseProtocol,
    F: FnMut(&mut SimRng) -> P,
    A: ArrivalProcess,
    J: Jammer,
    M: FeedbackModel,
    H: Hooks<P>,
{
    let mut core = EngineCore::with_model(cfg, arrivals, jammer, model);

    let mut packets: Vec<Option<P>> = Vec::new();
    // Each live packet has exactly one scheduled access event in the heap,
    // keyed `(slot, seq)`: `seq` is the event's position in the run's
    // global scheduling stream, so same-slot pops replay insertion order.
    let mut heap: BinaryHeap<Reverse<(Slot, u64, u32)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    // Pushes an access event, stamping the next insertion sequence number.
    let mut push = |heap: &mut BinaryHeap<Reverse<(Slot, u64, u32)>>, slot: Slot, id: u32| {
        heap.push(Reverse((slot, seq, id)));
        seq += 1;
    };
    let mut active_count: u64 = 0;
    let mut contention = 0.0f64;

    let mut participants: Vec<PacketId> = Vec::new();
    let mut senders: Vec<PacketId> = Vec::new();
    let mut listeners: Vec<PacketId> = Vec::new();

    // First slot not yet accounted.
    let mut now: Slot = 0;

    // Accounts a silent gap `[from, to)`, forwarding active gaps to hooks.
    fn gap<A: ArrivalProcess, J: Jammer, M: FeedbackModel, P, H: Hooks<P>>(
        core: &mut EngineCore<A, J, M>,
        hooks: &mut H,
        from: Slot,
        to: Slot,
        backlog: u64,
        contention: f64,
    ) {
        if let Some(jammed) = core.account_gap(from, to, backlog, contention) {
            hooks.on_gap(from, to, jammed);
        }
    }

    loop {
        let next_access: Option<Slot> = heap.peek().map(|Reverse((s, _, _))| *s);
        let next_arrival: Option<Slot> = core
            .peek_arrival(now, active_count, contention)
            .map(|(s, _)| s);
        let te = match (next_access, next_arrival) {
            (None, None) => {
                // Nothing will ever happen again. If packets remain (a
                // degenerate protocol that never accesses), the rest of the
                // horizon is provably silent: account it in bulk, then stop.
                if active_count > 0 {
                    let end = offset(cfg.max_slot, 1);
                    if end > now {
                        gap(&mut core, hooks, now, end, active_count, contention);
                    }
                }
                break;
            }
            (a, b) => a.unwrap_or(Slot::MAX).min(b.unwrap_or(Slot::MAX)),
        };
        if te > cfg.max_slot {
            // Account the remaining gap up to the horizon, then stop.
            let end = offset(cfg.max_slot, 1);
            if end > now {
                gap(&mut core, hooks, now, end, active_count, contention);
            }
            break;
        }

        // Account the silent gap [now, te).
        if te > now {
            gap(&mut core, hooks, now, te, active_count, contention);
            core.checkpoint(te - 1, active_count, contention);
        }

        // Inject all arrivals scheduled for slot te.
        while let Some((ta, count)) = core.peek_arrival(te, active_count, contention) {
            if ta != te {
                break;
            }
            core.consume_arrival();
            for _ in 0..count {
                let id = core.note_inject(te);
                let mut p = factory(&mut core.rng);
                contention += p.send_probability();
                hooks.on_inject(te, id, &p);
                active_count += 1;
                // Fresh packets may access from their injection slot onward.
                let delay = p.next_wake(&mut core.rng);
                debug_assert_eq!(packets.len(), id.index());
                packets.push(Some(p));
                if let Some(slot) = wake_slot(te, delay) {
                    push(&mut heap, slot, id.0);
                }
            }
        }

        // Collect every packet accessing the channel in slot te, in
        // (slot, seq) pop order — the slot's insertion order.
        participants.clear();
        while let Some(&Reverse((s, _, id))) = heap.peek() {
            if s != te {
                break;
            }
            heap.pop();
            participants.push(PacketId(id));
        }

        if participants.is_empty() {
            // Arrival-only slot: nobody accesses; resolve as empty/jammed
            // for accounting (no listener exists to observe it).
            if active_count > 0 {
                let jam = core.adaptive_jam(te, active_count, contention);
                let outcome = core.resolve(te, jam, &[]);
                hooks.on_slot(te, &outcome);
                core.checkpoint(te, active_count, contention);
            }
            now = te + 1;
            continue;
        }

        // Split participants into senders and pure listeners.
        senders.clear();
        listeners.clear();
        for &id in &participants {
            let p = packets[id.index()].as_mut().expect("participant state");
            if p.send_on_access(&mut core.rng) {
                senders.push(id);
            } else {
                listeners.push(id);
            }
        }

        let jam = core.jam_decision(te, active_count, contention, &senders);
        let outcome = core.resolve(te, jam, &senders);
        hooks.on_slot(te, &outcome);
        let fb = model.listener_feedback(&outcome);

        for &id in &listeners {
            core.metrics.note_listen(id);
            let obs = Observation::listener(te, fb);
            let p = packets[id.index()].as_mut().expect("listener state");
            let before = p.clone();
            p.observe(&obs);
            contention += p.send_probability() - before.send_probability();
            hooks.on_observe(te, id, &before, p);
            let delay = p.next_wake(&mut core.rng);
            if let Some(slot) = wake_slot(te + 1, delay) {
                push(&mut heap, slot, id.0);
            }
        }

        let winner = match outcome {
            SlotOutcome::Success { id } => Some(id),
            _ => None,
        };
        for &id in &senders {
            core.metrics.note_send(id);
            let succeeded = winner == Some(id);
            let obs =
                Observation::sender(te, model.sender_feedback(&outcome, succeeded), succeeded);
            let p = packets[id.index()].as_mut().expect("sender state");
            let before = p.clone();
            p.observe(&obs);
            contention += p.send_probability() - before.send_probability();
            hooks.on_observe(te, id, &before, p);
            if !succeeded {
                let delay = p.next_wake(&mut core.rng);
                if let Some(slot) = wake_slot(te + 1, delay) {
                    push(&mut heap, slot, id.0);
                }
            }
        }
        if let Some(id) = winner {
            let p = packets[id.index()].take().expect("winner state");
            contention -= p.send_probability();
            hooks.on_depart(te, id, &p);
            core.note_depart(id, te);
            active_count -= 1;
        }

        core.checkpoint(te, active_count, contention);
        now = te + 1;
    }

    core.finish()
}
