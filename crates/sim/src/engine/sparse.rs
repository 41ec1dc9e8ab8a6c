//! The sparse (event-driven) engine.
//!
//! Exploits the [`SparseProtocol`] contract — per-packet state is frozen
//! between channel accesses — to jump directly from access to access. Slots
//! in which no packet accesses the channel are provably silent for every
//! would-be listener, so they are accounted in bulk (`O(1)` per gap, with
//! jam counts drawn from the jammer's range sampler) instead of simulated.
//!
//! Scheduling runs on the hierarchical timing-wheel
//! [`WakeQueue`](crate::engine::wake) rather than a binary heap, so a
//! channel access costs `O(1)` amortized bookkeeping instead of `O(log n)`
//! scattered heap traffic even at million-station horizons; per-packet
//! state lives in the epoch-compacted
//! [`PacketTable`], which keeps the live
//! population dense in memory as the run drains; and every participant
//! that draws a wake goes through one **cohort sweep**. The slot's
//! listeners form one cohort and, unless the slot was a success, its
//! (losing) senders another: each hears one observation, so the sweep
//! observes four states, draws their wakes through the protocol layer's
//! batched draw ([`SparseProtocol::next_wake4`], which evaluates the
//! per-access logarithm SIMD-wide) and schedules them, quad by quad, in a
//! single pass (see `BENCH_engine.json`, which records this engine and
//! the reference on a bit-identical workload).
//!
//! The loop body is generic over the wake set (the `WakeSet` trait): the
//! production entry point [`run_sparse`] instantiates it with the wheel,
//! while [`run_sparse_flat`] runs the *same* body over the retained flat
//! calendar ring ([`FlatWakeQueue`](crate::engine::wake_flat)) — a second,
//! structurally different oracle used by the three-way equivalence tests.
//! Within a slot, the sweeps address states by per-slot *position*, with
//! two position spaces behind one generic body (`slot_passes`, over the
//! [`SlotArena`](crate::engine::stage) arena trait). The split is a
//! branch-free partition of the participants into (id, position) entries
//! for the two cohorts, which share one buffer filled from both ends, plus
//! an id-only sender list for the jam decision and the resolve. On the
//! **direct** path the split resolves each participant's id → dense index
//! **once**, and the cohort sweeps touch only the hot state lane (see
//! [`table`](crate::engine::table)), never re-reading the remap. On the
//! **staged** path — taken when the participant set is large *and* the
//! state lane has outgrown the cache ([`staging_applies`]) — the engine
//! **gathers** the participants' states, in insertion order, into a
//! contiguous scratch with two prefetched sweeps, runs the split and the
//! cohort sweeps against the scratch (participant `k` at scratch position
//! `k`), and **scatters** the mutated states back before the depart path
//! reads the table (see [`stage`](crate::engine::stage)). Either way,
//! handles never span a compaction: the engine compacts only at
//! end-of-slot, after a depart.
//!
//! The loop marks the end of each of its ten phases through
//! [`Hooks::on_phase`] (see [`Phase`]). Hook sets that leave the default
//! compile the marks away; the bench crate's profiler times them, so the
//! published phase shares describe this loop and no copy of it.
//!
//! Within one slot, packets are processed in **insertion order** — the
//! order their wake events were scheduled — which the calendar queue hands
//! back for free, with no per-slot sort. The previous heap-based loop is
//! retained as
//! [`run_sparse_reference`](crate::engine::sparse_reference::run_sparse_reference)
//! with its heap re-keyed on `(slot, insertion_seq)` so it pops the exact
//! same order, and the `sparse_equivalence` tests pin this engine to
//! **bit-identical** [`RunResult`]s against it: same RNG draw order, same
//! floating-point accumulation order, same hook sequence. Any edit here
//! must preserve that ordering exactly.
//!
//! Cost: `O(accesses + arrivals + event slots · log participants)` in
//! total. Because `LOW-SENSING BACKOFF` performs only polylog accesses per
//! packet — the very property the paper proves — million-packet Monte Carlo
//! runs are cheap. Exactness relative to the dense engine is enforced by
//! the cross-engine statistical tests.

use crate::arrivals::ArrivalProcess;
use crate::config::SimConfig;
use crate::engine::core::EngineCore;
use crate::engine::stage::{staging_applies, SlotArena, StagePlan};
use crate::engine::table::PacketTable;
use crate::engine::wake::{cap_scratch, WakeQueue, WakeSet, SCRATCH_CAP};
use crate::engine::wake_flat::FlatWakeQueue;
use crate::feedback::{with_feedback_model, FeedbackModel, Observation, SlotOutcome};
use crate::hooks::{EngineSample, Hooks, Phase};
use crate::jamming::Jammer;
use crate::metrics::{RunResult, Totals};
use crate::packet::PacketId;
use crate::protocol::{SparseProtocol, BATCH_LANES};
use crate::rng::SimRng;
use crate::time::{offset, wake_slot, Slot};

/// Runs an event-driven simulation under the channel model of
/// [`cfg.model`](SimConfig::model).
///
/// Semantically equivalent to [`run_dense`](crate::engine::dense::run_dense)
/// for protocols honouring the [`SparseProtocol`] contract, but exponentially
/// faster when packets sleep most of the time.
///
/// # Examples
///
/// ```
/// use lowsense_sim::prelude::*;
/// use lowsense_sim::dist::geometric;
///
/// #[derive(Clone)]
/// struct Fixed(f64);
/// impl Protocol for Fixed {
///     fn intent(&mut self, rng: &mut SimRng) -> Intent {
///         if rng.bernoulli(self.0) { Intent::Send } else { Intent::Sleep }
///     }
///     fn observe(&mut self, _obs: &Observation) {}
///     fn send_probability(&self) -> f64 { self.0 }
///     fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
///         Some(geometric(rng, self.0))
///     }
/// }
/// impl SparseProtocol for Fixed {
///     fn send_on_access(&mut self, _rng: &mut SimRng) -> bool { true }
/// }
///
/// let result = run_sparse(
///     &SimConfig::new(1),
///     Batch::new(4),
///     NoJam,
///     |_rng| Fixed(0.05),
///     &mut NoHooks,
/// );
/// assert_eq!(result.totals.successes, 4);
/// ```
pub fn run_sparse<P, F, A, J, H>(
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
        run_sparse_with::<_, _, _, _, _, _, WakeQueue>(cfg, arrivals, jammer, model, factory, hooks)
    })
}

/// [`run_sparse`], but scheduling on the retained flat calendar ring
/// ([`crate::engine::wake_flat::FlatWakeQueue`]) instead of
/// the hierarchical wheel.
///
/// Same generic loop body, different wake set: this is a *validation*
/// entry point, the second oracle of the three-way equivalence suite
/// (wheel vs flat ring vs heap reference, all bit-identical). Benchmarks
/// and production callers should use [`run_sparse`]; the flat ring's far
/// heap degrades on the long-gap workloads the wheel exists for.
pub fn run_sparse_flat<P, F, A, J, H>(
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
        run_sparse_with::<_, _, _, _, _, _, FlatWakeQueue>(
            cfg, arrivals, jammer, model, factory, hooks,
        )
    })
}

/// The slot's two cohort sweeps, generic over the [`SlotArena`] the
/// participant states live in: the packet table on the direct path (a
/// position is a dense-lane index), the staged scratch on the staged path
/// (a position is the participant's insertion position, which is its
/// scratch index). Both paths are this one function monomorphized, so
/// every RNG draw, observation, hook call, and contention accumulation
/// happens in the same canonical insertion order on either path —
/// bit-identity between the paths is by construction, not by keeping two
/// loop bodies in sync.
///
/// A cohort is a set of participants that hear one observation and then
/// draw a wake: the listeners always, and the senders unless the slot was
/// a success. [`resolve_slot`](crate::feedback::resolve_slot) reports
/// `Success` only for exactly one unjammed sender, so a slot's senders
/// are either `[winner]`, who observes and departs with no draw, or all
/// losers, who each hear the same `sender_feedback(outcome, false)`. Each
/// cohort runs through [`sweep_cohort`] once, listeners first, which is
/// the reference loop's order.
#[allow(clippy::too_many_arguments)]
fn slot_passes<P, A, J, M, H, Q, S>(
    arena: &mut S,
    core: &mut EngineCore<A, J, M>,
    queue: &mut Q,
    hooks: &mut H,
    te: Slot,
    outcome: &SlotOutcome,
    model: M,
    contention: &mut f64,
    split: &Split,
) where
    P: SparseProtocol,
    A: ArrivalProcess,
    J: Jammer,
    M: FeedbackModel,
    H: Hooks<P>,
    Q: WakeSet,
    S: SlotArena<P>,
{
    let obs = Observation::listener(te, model.listener_feedback(outcome));
    let listeners = split.listeners();
    sweep_cohort(arena, core, listeners, &obs, queue, hooks, contention);
    hooks.on_phase(Phase::Listeners);

    if let SlotOutcome::Success { id } = *outcome {
        debug_assert_eq!(split.sender_ids(), [id]);
        core.metrics.note_send(id);
        let obs = Observation::sender(te, model.sender_feedback(outcome, true), true);
        let winner = arena.at_mut(split.senders()[0].pos);
        observe_one(winner, &obs, te, id, hooks, contention);
    } else {
        let obs = Observation::sender(te, model.sender_feedback(outcome, false), false);
        sweep_cohort(arena, core, split.senders(), &obs, queue, hooks, contention);
    }
    hooks.on_phase(Phase::Senders);
}

/// One cohort sweep: each participant of `cohort`, in order, has its
/// access counted, observes `obs`, draws its next wake, and is scheduled,
/// four at a time.
///
/// A quad's four states are fetched once ([`SlotArena::four_at`]); the
/// sweep observes all four, draws their wakes through the protocol's
/// batched draw ([`SparseProtocol::next_wake4`], whose contract is
/// bit-identical lanes in cohort order) and pushes them to the wake set.
/// The tail (< 4 participants) goes through the scalar `next_wake` the
/// default falls back to anyway. Observations draw no randomness and touch
/// only their own state, and each draw reads only its own state, so
/// observing a quad before drawing it moves no RNG value and no f64
/// addition: the RNG stream, the hook sequence, the contention
/// accumulation order, and the `queue.schedule` call order are all exactly
/// the reference oracle's.
#[inline]
fn sweep_cohort<P, A, J, M, H, Q, S>(
    arena: &mut S,
    core: &mut EngineCore<A, J, M>,
    cohort: &[Entry],
    obs: &Observation,
    queue: &mut Q,
    hooks: &mut H,
    contention: &mut f64,
) where
    P: SparseProtocol,
    H: Hooks<P>,
    Q: WakeSet,
    S: SlotArena<P>,
{
    let te = obs.slot;
    let mut note = |id: PacketId| {
        if obs.sent {
            core.metrics.note_send(id)
        } else {
            core.metrics.note_listen(id)
        }
    };
    let mut quads = cohort.chunks_exact(BATCH_LANES);
    for quad in quads.by_ref() {
        let mut lanes = arena.four_at([quad[0].pos, quad[1].pos, quad[2].pos, quad[3].pos]);
        for (e, p) in quad.iter().zip(lanes.iter_mut()) {
            note(PacketId(e.id));
            observe_one(&mut **p, obs, te, PacketId(e.id), hooks, contention);
        }
        let delays = P::next_wake4(&mut lanes, &mut core.rng);
        for (e, &delay) in quad.iter().zip(&delays) {
            if let Some(slot) = wake_slot(te + 1, delay) {
                queue.schedule(slot, e.id);
            }
        }
    }
    for e in quads.remainder() {
        note(PacketId(e.id));
        let p = arena.at_mut(e.pos);
        observe_one(p, obs, te, PacketId(e.id), hooks, contention);
        if let Some(slot) = wake_slot(te + 1, p.next_wake(&mut core.rng)) {
            queue.schedule(slot, e.id);
        }
    }
}

/// Delivers `obs` to one participant and adds its send-probability change
/// to `contention`: the one observe step of the cohort sweeps and the
/// winner.
///
/// Hook sets that want observations get the before/after state pair.
/// Inert ones ([`Hooks::wants_observe`] `false`) skip the clone and keep
/// only the prior send probability; the contention update adds the exact
/// same f64 either way, so results stay bit-identical.
#[inline]
fn observe_one<P, H>(
    p: &mut P,
    obs: &Observation,
    te: Slot,
    id: PacketId,
    hooks: &mut H,
    contention: &mut f64,
) where
    P: SparseProtocol,
    H: Hooks<P>,
{
    if hooks.wants_observe() {
        let before = p.clone();
        p.observe(obs);
        *contention += p.send_probability() - before.send_probability();
        hooks.on_observe(te, id, &before, p);
    } else {
        let before_sp = p.send_probability();
        p.observe(obs);
        *contention += p.send_probability() - before_sp;
    }
}

/// A participant as the cohort sweeps address it: its id (for metrics,
/// hooks and the wake set) and its position in the slot's arena — a dense
/// index on the direct path, where the split pays the id → index remap
/// once, and the insertion position, which is the scratch index, on the
/// staged path.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Entry {
    id: u32,
    pos: u32,
}

/// The split's output: the listeners and the senders as [`Entry`]
/// cohorts of one buffer, both in insertion order, plus the senders' ids
/// alone for the jam decision and the resolve.
///
/// The partition is branch-free: a slot's `n` participants go into the
/// buffer's first `n` entries, each written at both the listener cursor,
/// which climbs from the front, and the sender cursor, which descends from
/// the back, and only its own side's cursor advances, so a
/// `send_on_access` coin flip costs no mispredicted branch. With `l`
/// listeners and `s` senders placed, the next participant is written at
/// `l` and at `n − 1 − s`, and `l + s < n` keeps both writes off every
/// placed entry. The listeners end up in `[0, l)` in order and the
/// senders in `[l, n)` backwards, which one in-place reversal turns round.
/// The writes need initialized entries, so the buffer's length is a
/// high-water mark (grown, never refilled, when a slot outgrows it) and
/// only the first `n` entries are live.
#[derive(Default)]
struct Split {
    sender_ids: Vec<PacketId>,
    cohorts: Vec<Entry>,
    n_listeners: usize,
}

impl Split {
    /// Partitions the slot's participants, each given as its entry and
    /// whether it sends, in insertion order.
    #[inline]
    fn partition(&mut self, participants: impl ExactSizeIterator<Item = (Entry, bool)>) {
        let n = participants.len();
        if self.cohorts.len() < n {
            self.cohorts.resize(n, Entry::default());
        }
        let cohorts = &mut self.cohorts[..n];
        let (mut l, mut back) = (0, n);
        for (e, sends) in participants {
            cohorts[l] = e;
            cohorts[back - 1] = e;
            l += !sends as usize;
            back -= sends as usize;
        }
        let senders = &mut cohorts[l..];
        senders.reverse();
        self.n_listeners = l;
        self.sender_ids.clear();
        self.sender_ids
            .extend(senders.iter().map(|e| PacketId(e.id)));
    }

    fn sender_ids(&self) -> &[PacketId] {
        &self.sender_ids
    }

    fn senders(&self) -> &[Entry] {
        &self.cohorts[self.n_listeners..][..self.sender_ids.len()]
    }

    fn listeners(&self) -> &[Entry] {
        &self.cohorts[..self.n_listeners]
    }

    fn bytes(&self) -> usize {
        bytes(&self.sender_ids) + bytes(&self.cohorts)
    }

    /// End of slot: forgets the slot's cohorts and, like every per-slot
    /// buffer, shrinks each buffer to `keep` entries once its capacity
    /// exceeds twice that ([`cap_scratch`]). The cohort buffer's
    /// high-water length is cut first, or the shrink could not go below it.
    fn cap(&mut self, keep: usize) {
        self.sender_ids.clear();
        self.n_listeners = 0;
        if self.cohorts.capacity() > 2 * keep {
            self.cohorts.truncate(keep);
        }
        cap_scratch(&mut self.cohorts, keep);
        cap_scratch(&mut self.sender_ids, keep);
    }
}

/// Allocated bytes of a buffer.
fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// The sparse loop's per-slot buffers: refilled every event slot, kept
/// from one slot to the next, and shrunk at the end of a slot relative to
/// that slot's demand ([`shrink`](Self::shrink)).
struct SlotBuffers<P> {
    split: Split,
    /// The slot's participants, in insertion order (the (slot, seq)-keyed
    /// reference heap's pop order), and on staged slots (see
    /// crate::engine::stage) their handles.
    stage: StagePlan,
    /// Staged slots only: the contiguous scratch of the participants'
    /// states.
    scratch: Vec<P>,
}

impl<P> SlotBuffers<P> {
    fn new() -> Self {
        SlotBuffers {
            split: Split::default(),
            stage: StagePlan::new(),
            scratch: Vec::new(),
        }
    }

    /// Allocated bytes across every buffer: a sample's `stage_bytes`.
    fn bytes(&self) -> usize {
        self.split.bytes() + self.stage.footprint_bytes() + bytes(&self.scratch)
    }

    /// The end-of-slot shrink: every buffer keeps up to twice
    /// `max(SCRATCH_CAP, participants)` entries, so a run of dense slots
    /// reuses its allocations while a burst followed by a quiet slot still
    /// gives its memory back.
    fn shrink(&mut self) {
        let keep = SCRATCH_CAP.max(self.stage.participants().len());
        // The scratch is dead once the scatter ran. Left full, a direct
        // slot would keep it at the last staged slot's length, below which
        // no shrink can go.
        self.scratch.clear();
        self.split.cap(keep);
        cap_scratch(&mut self.scratch, keep);
        self.stage.cap(keep);
    }
}

/// The sparse loop body, generic over the wake set. Every ordering-visible
/// statement is shared by both instantiations, so agreement between
/// [`run_sparse`] and [`run_sparse_flat`] pins exactly the queues' drain
/// orders against each other.
fn run_sparse_with<P, F, A, J, M, H, Q>(
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
    Q: WakeSet,
{
    let mut core = EngineCore::with_model(cfg, arrivals, jammer, model);

    // Epoch-compacted packet table: live states stay dense in memory as
    // the run drains, and the id → dense-index remap keeps original ids
    // valid for the queue, hooks, metrics, and traces throughout.
    let mut packets: PacketTable<P> = PacketTable::new();
    // Each live packet has exactly one scheduled access event in the queue.
    let mut queue = Q::new();
    let mut active_count: u64 = 0;
    let mut contention = 0.0f64;

    let mut bufs: SlotBuffers<P> = SlotBuffers::new();

    // First slot not yet accounted.
    let mut now: Slot = 0;

    // Out-of-band flight-recorder sampling, clocked on processed event
    // slots. `sample_period` is contractually constant, so with the
    // `NoHooks` default the whole branch is dead code after monomorphization
    // — and even when live, a sample only *reads* accounting state the
    // engine already maintains (after the slot resolved), so sampled and
    // unsampled runs stay bit-identical.
    let sample_every: Option<u64> = hooks.sample_period();
    let mut event_slots: u64 = 0;

    // Builds one snapshot from already-final accounting state.
    #[allow(clippy::too_many_arguments)]
    fn engine_sample<P, Q: WakeSet>(
        totals: &Totals,
        te: Slot,
        event_slots: u64,
        backlog: u64,
        contention: f64,
        queue: &Q,
        packets: &PacketTable<P>,
        bufs: &SlotBuffers<P>,
    ) -> EngineSample {
        EngineSample {
            slot: te,
            event_slots,
            backlog,
            contention,
            totals: *totals,
            footprint_bytes: queue.footprint_bytes() as u64,
            state_bytes: packets.lane_bytes() as u64,
            stage_bytes: bufs.bytes() as u64,
        }
    }

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
        let next_access: Option<Slot> = queue.next_slot();
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

        // Slide the calendar window up to the slot being processed.
        queue.advance_to(te);
        hooks.on_phase(Phase::Control);

        // Inject all arrivals scheduled for slot te.
        while let Some((ta, count)) = core.peek_arrival(te, active_count, contention) {
            if ta != te {
                break;
            }
            core.consume_arrival();
            // One reservation per arrival event: a large batch grows each
            // table lane once instead of doubling its way up.
            packets.reserve(count as usize);
            for _ in 0..count {
                let id = core.note_inject(te);
                let mut p = factory(&mut core.rng);
                contention += p.send_probability();
                hooks.on_inject(te, id, &p);
                active_count += 1;
                // Fresh packets may access from their injection slot onward.
                let delay = p.next_wake(&mut core.rng);
                packets.insert(id, p);
                if let Some(slot) = wake_slot(te, delay) {
                    queue.schedule(slot, id.0);
                }
            }
        }
        hooks.on_phase(Phase::Inject);

        let SlotBuffers {
            split,
            stage,
            scratch,
        } = &mut bufs;

        // Collect every packet accessing the channel in slot te, in
        // insertion order (the (slot, seq)-keyed reference heap's pop
        // order).
        stage.take(&mut queue, te);
        hooks.on_phase(Phase::Take);
        let participants = stage.participants();

        if participants.is_empty() {
            // Arrival-only slot: nobody accesses; resolve as empty/jammed
            // for accounting (no listener exists to observe it).
            if active_count > 0 {
                let jam = core.adaptive_jam(te, active_count, contention);
                let outcome = core.resolve(te, jam, &[]);
                hooks.on_slot(te, &outcome);
                core.checkpoint(te, active_count, contention);
            }
            event_slots += 1;
            if let Some(period) = sample_every {
                if event_slots.is_multiple_of(period) {
                    hooks.on_sample(&engine_sample(
                        &core.metrics.totals,
                        te,
                        event_slots,
                        active_count,
                        contention,
                        &queue,
                        &packets,
                        &bufs,
                    ));
                }
            }
            now = te + 1;
            hooks.on_phase(Phase::Resolve);
            continue;
        }

        // Split participants into senders and pure listeners. Below the
        // staging gate (the direct path) the split resolves each packet's
        // dense handle exactly once and the cohort sweeps index the hot
        // state lane through it. Past the gate — a high-fanout slot over a
        // cache-busting state lane — the slot is staged: the participants'
        // states are gathered into `scratch` in insertion order (prefetched
        // sweeps instead of a dependent miss per packet), the split and
        // both sweeps read participant k at scratch position k, and the
        // mutated states are scattered back before the depart path reads
        // the table. Either way no handle survives past this slot's
        // (potential) end-of-slot compaction.
        let staged = staging_applies(
            participants.len(),
            packets.dense_len() * std::mem::size_of::<P>(),
        );
        let rng = &mut core.rng;
        if staged {
            // The gather draws no randomness, so the RNG stream starts
            // exactly where the direct path's split would start it.
            stage.gather(&packets, scratch);
            hooks.on_phase(Phase::Gather);
            split.partition(
                stage
                    .participants()
                    .iter()
                    .zip(scratch.iter_mut())
                    .enumerate()
                    .map(|(k, (&id, p))| (Entry { id, pos: k as u32 }, p.send_on_access(rng))),
            );
        } else {
            split.partition(participants.iter().map(|&id| {
                let d = packets.resolve(PacketId(id));
                let sends = packets.state_at_mut(d).send_on_access(rng);
                (Entry { id, pos: d.0 }, sends)
            }));
        }
        hooks.on_phase(Phase::Split);

        let senders = split.sender_ids();
        let jam = core.jam_decision(te, active_count, contention, senders);
        let outcome = core.resolve(te, jam, senders);
        hooks.on_slot(te, &outcome);
        hooks.on_phase(Phase::Resolve);

        // The two cohort sweeps, against whichever arena holds this slot's
        // states (see `slot_passes`). On the staged path the mutated
        // scratch is scattered back through the plan's handles before the
        // winner's depart block below reads the table.
        if staged {
            slot_passes(
                scratch,
                &mut core,
                &mut queue,
                hooks,
                te,
                &outcome,
                model,
                &mut contention,
                split,
            );
            packets.scatter_from(stage.handles(), scratch);
            hooks.on_phase(Phase::Scatter);
        } else {
            slot_passes(
                &mut packets,
                &mut core,
                &mut queue,
                hooks,
                te,
                &outcome,
                model,
                &mut contention,
                split,
            );
        }

        let winner = match outcome {
            SlotOutcome::Success { id } => Some(id),
            _ => None,
        };
        if let Some(id) = winner {
            let p = packets.state(id);
            contention -= p.send_probability();
            hooks.on_depart(te, id, p);
            packets.retire(id);
            core.note_depart(id, te);
            active_count -= 1;
            // End of the epoch? Compacting between slots moves memory
            // only: processing order is owned by the queue and ids stay
            // valid, so results are bit-identical either way.
            packets.maybe_compact();
        }

        // A burst can balloon the per-slot buffers; give the excess back
        // once slots get smaller, so one bad slot does not pin memory for
        // the rest of the run.
        bufs.shrink();

        core.checkpoint(te, active_count, contention);
        event_slots += 1;
        if let Some(period) = sample_every {
            if event_slots.is_multiple_of(period) {
                hooks.on_sample(&engine_sample(
                    &core.metrics.totals,
                    te,
                    event_slots,
                    active_count,
                    contention,
                    &queue,
                    &packets,
                    &bufs,
                ));
            }
        }
        now = te + 1;
        hooks.on_phase(Phase::Depart);
    }

    core.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{Batch, Bernoulli, Trace};
    use crate::dist::geometric;
    use crate::feedback::Intent;
    use crate::hooks::NoHooks;
    use crate::jamming::{NoJam, PeriodicBurst, RandomJam, ReactiveAny};
    use crate::metrics::MetricsConfig;
    use crate::protocol::Protocol;

    /// Memoryless access-probability protocol; sends on every access.
    #[derive(Clone)]
    struct Fixed(f64);
    impl Protocol for Fixed {
        fn intent(&mut self, rng: &mut SimRng) -> Intent {
            if rng.bernoulli(self.0) {
                Intent::Send
            } else {
                Intent::Sleep
            }
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
        fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
            true
        }
    }

    #[test]
    fn batch_drains() {
        let r = run_sparse(
            &SimConfig::new(1),
            Batch::new(16),
            NoJam,
            |_| Fixed(0.02),
            &mut NoHooks,
        );
        assert_eq!(r.totals.successes, 16);
        assert!(r.drained());
        let t = &r.totals;
        assert_eq!(
            t.active_slots,
            t.empty_active + t.successes + t.collision_slots + t.jammed_active
        );
    }

    #[test]
    fn gap_slots_are_counted_as_active_empties() {
        // One packet with tiny access probability: almost all slots are
        // silent gaps, but they are active (the packet is in the system).
        let r = run_sparse(
            &SimConfig::new(2),
            Batch::new(1),
            NoJam,
            |_| Fixed(0.001),
            &mut NoHooks,
        );
        assert_eq!(r.totals.successes, 1);
        assert!(r.totals.active_slots > 50, "{}", r.totals.active_slots);
        assert_eq!(
            r.totals.active_slots,
            r.totals.empty_active + r.totals.successes
        );
    }

    #[test]
    fn jam_counts_in_gaps_match_rate() {
        let cfg = SimConfig::new(3).until_slot(100_000);
        let r = run_sparse(
            &cfg,
            Batch::new(1),
            RandomJam::new(0.2),
            |_| Fixed(1e-7), // essentially never accesses within the horizon
            &mut NoHooks,
        );
        let frac = r.totals.jammed_active as f64 / r.totals.active_slots as f64;
        assert!((frac - 0.2).abs() < 0.02, "jam fraction {frac}");
        assert_eq!(r.totals.successes, 0);
    }

    #[test]
    fn deterministic_jammer_exact_in_gaps() {
        let cfg = SimConfig::new(4).until_slot(999);
        let r = run_sparse(
            &cfg,
            Batch::new(1),
            PeriodicBurst::new(10, 3, 0),
            |_| Fixed(1e-9),
            &mut NoHooks,
        );
        assert_eq!(r.totals.active_slots, 1000);
        assert_eq!(r.totals.jammed_active, 300);
    }

    #[test]
    fn inactive_gaps_not_accounted() {
        let r = run_sparse(
            &SimConfig::new(5),
            Trace::new(vec![(0, 1), (5000, 1)]),
            NoJam,
            |_| Fixed(0.5),
            &mut NoHooks,
        );
        assert_eq!(r.totals.successes, 2);
        assert!(
            r.totals.active_slots < 100,
            "active slots {}",
            r.totals.active_slots
        );
    }

    #[test]
    fn reactive_any_starves_until_budget_spent() {
        let r = run_sparse(
            &SimConfig::new(6),
            Batch::new(1),
            ReactiveAny::new(10),
            |_| Fixed(0.5),
            &mut NoHooks,
        );
        // The first 10 transmissions are jammed; the 11th succeeds.
        assert_eq!(r.totals.successes, 1);
        assert_eq!(r.totals.sends, 11);
        assert_eq!(r.totals.jammed_active, 10);
    }

    #[test]
    fn bernoulli_stream_reaches_all_packets() {
        let r = run_sparse(
            &SimConfig::new(7),
            Bernoulli::new(0.01).with_total(200),
            NoJam,
            |_| Fixed(0.2),
            &mut NoHooks,
        );
        assert_eq!(r.totals.arrivals, 200);
        assert_eq!(r.totals.successes, 200);
    }

    #[test]
    fn max_slot_limit_stops_run() {
        let cfg = SimConfig::new(8).until_slot(500);
        let r = run_sparse(&cfg, Batch::new(3), NoJam, |_| Fixed(1e-9), &mut NoHooks);
        assert_eq!(r.totals.successes, 0);
        assert_eq!(r.totals.active_slots, 501); // slots 0..=500
        assert_eq!(r.totals.backlog(), 3);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            run_sparse(
                &SimConfig::new(42),
                Batch::new(64),
                RandomJam::new(0.05),
                |_| Fixed(0.03),
                &mut NoHooks,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.access_counts(), b.access_counts());
    }

    #[test]
    fn hooks_gap_coverage_is_complete() {
        // Sum of gap lengths + event slots == active slots.
        #[derive(Default)]
        struct GapSum {
            gap_slots: u64,
            event_slots: u64,
        }
        impl Hooks<Fixed> for GapSum {
            fn on_gap(&mut self, from: Slot, to: Slot, _jammed: u64) {
                self.gap_slots += to - from;
            }
            fn on_slot(&mut self, _t: Slot, _o: &SlotOutcome) {
                self.event_slots += 1;
            }
        }
        let mut hooks = GapSum::default();
        let r = run_sparse(
            &SimConfig::new(9),
            Batch::new(8),
            NoJam,
            |_| Fixed(0.01),
            &mut hooks,
        );
        assert_eq!(hooks.gap_slots + hooks.event_slots, r.totals.active_slots);
    }

    #[test]
    fn depart_ids_stay_original_across_table_compaction() {
        // 300 packets drain to zero, which walks the packet table through
        // several epoch compactions (threshold 32 dead, half-full). Hooks
        // must keep seeing injection-order ids throughout — the table's
        // dense shuffling is invisible — and each packet departs exactly
        // once.
        #[derive(Default)]
        struct Departs {
            seen: Vec<u32>,
        }
        impl Hooks<Fixed> for Departs {
            fn on_depart(&mut self, _t: Slot, id: PacketId, _state: &Fixed) {
                self.seen.push(id.0);
            }
        }
        let mut hooks = Departs::default();
        let r = run_sparse(
            &SimConfig::new(21),
            Batch::new(300),
            NoJam,
            |_| Fixed(0.02),
            &mut hooks,
        );
        assert_eq!(r.totals.successes, 300);
        hooks.seen.sort_unstable();
        assert_eq!(hooks.seen, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn observing_hooks_never_perturb_a_run() {
        /// 64 bytes, so 70k packets make a 4.5 MB lane. Sends on half its
        /// accesses and halves `p` on its own collisions, so the sender
        /// observes move the contention.
        #[derive(Clone)]
        struct Halving([f64; 8]);
        impl Protocol for Halving {
            fn intent(&mut self, rng: &mut SimRng) -> Intent {
                if !rng.bernoulli(self.0[0]) {
                    Intent::Sleep
                } else if rng.bernoulli(0.5) {
                    Intent::Send
                } else {
                    Intent::Listen
                }
            }
            fn observe(&mut self, obs: &Observation) {
                if obs.sent && !obs.succeeded {
                    self.0[0] *= 0.5;
                }
            }
            fn send_probability(&self) -> f64 {
                0.5 * self.0[0]
            }
            fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
                Some(geometric(rng, self.0[0]))
            }
        }
        impl SparseProtocol for Halving {
            fn send_on_access(&mut self, rng: &mut SimRng) -> bool {
                rng.bernoulli(0.5)
            }
        }
        /// Leaves `wants_observe` at its `true` default, so the sweeps
        /// clone a before-state for every observation.
        struct CountObserves(u64);
        impl Hooks<Halving> for CountObserves {
            fn on_observe(&mut self, _t: Slot, _id: PacketId, _b: &Halving, _a: &Halving) {
                self.0 += 1;
            }
        }
        fn run<H: Hooks<Halving>>(n: u64, horizon: Slot, hooks: &mut H) -> RunResult {
            let cfg = SimConfig::new(13)
                .until_slot(horizon)
                .metrics(MetricsConfig::default().with_series(1.05));
            let factory = |_: &mut SimRng| Halving([0.2; 8]);
            run_sparse(&cfg, Batch::new(n), RandomJam::new(0.1), factory, hooks)
        }
        assert_eq!(std::mem::size_of::<Halving>(), 64);
        // A fifth of the batch accesses in each opening slot: the small
        // batch stays on the direct path, the large one stages.
        assert!(!staging_applies(4096 / 5, 4096 * 64));
        assert!(staging_applies(70_000 / 5, 70_000 * 64));
        for (n, horizon) in [(4096, 5_000), (70_000, 64)] {
            let bare = run(n, horizon, &mut NoHooks);
            let mut count = CountObserves(0);
            let hooked = run(n, horizon, &mut count);
            assert_eq!(hooked.totals, bare.totals, "n = {n}");
            assert_eq!(hooked.access_counts(), bare.access_counts(), "n = {n}");
            assert_eq!(hooked.series, bare.series, "n = {n}");
            assert!(!bare.series.is_empty(), "n = {n}");
            let t = &bare.totals;
            assert_eq!(count.0, t.listens + t.sends, "n = {n}");
        }
    }

    #[test]
    fn sampled_state_bytes_exclude_the_protocol_lane() {
        /// `Fixed` padded to 64 bytes: were the protocol-state lane counted
        /// in `state_bytes`, every live packet would add 64 B to it.
        #[derive(Clone)]
        struct Wide([f64; 8]);
        impl Protocol for Wide {
            fn intent(&mut self, rng: &mut SimRng) -> Intent {
                Fixed(self.0[0]).intent(rng)
            }
            fn observe(&mut self, _obs: &Observation) {}
            fn send_probability(&self) -> f64 {
                self.0[0]
            }
            fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
                Fixed(self.0[0]).next_wake(rng)
            }
        }
        impl SparseProtocol for Wide {
            fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
                true
            }
        }
        #[derive(Default)]
        struct Peaks {
            state_bytes: u64,
            stage_bytes: u64,
            backlog: u64,
        }
        impl<P> Hooks<P> for Peaks {
            fn sample_period(&self) -> Option<u64> {
                Some(1)
            }
            fn on_sample(&mut self, s: &EngineSample) {
                self.state_bytes = self.state_bytes.max(s.state_bytes);
                self.stage_bytes = self.stage_bytes.max(s.stage_bytes);
                self.backlog = self.backlog.max(s.backlog);
            }
        }
        assert_eq!(std::mem::size_of::<Wide>(), 64);
        let mut peaks = Peaks::default();
        let cfg = SimConfig::new(11).until_slot(256);
        run_sparse(
            &cfg,
            Batch::new(4096),
            NoJam,
            |_| Wide([0.01; 8]),
            &mut peaks,
        );
        assert_eq!(peaks.backlog, 4096);
        let per_station = peaks.state_bytes as f64 / peaks.backlog as f64;
        assert!(per_station < 32.0, "{per_station} B/station");
        // A 256 KiB lane stays on the direct path, so stage_bytes holds the
        // per-slot lists but no stage plan or state scratch: the same run
        // with 8-byte states (same draws) samples exactly the same stage
        // bytes, which a protocol-sized scratch could not.
        let mut narrow = Peaks::default();
        run_sparse(&cfg, Batch::new(4096), NoJam, |_| Fixed(0.01), &mut narrow);
        assert!(peaks.stage_bytes > 0);
        assert_eq!(peaks.stage_bytes, narrow.stage_bytes);
    }

    #[test]
    fn staged_burst_buffers_shrink_back_on_quiet_slots() {
        /// 64 bytes: all 70k packets access in their injection slot (a
        /// staged slot over a 4.5 MB lane), then sleep ~10^5 slots
        /// between accesses, so every later event slot is nearly empty.
        #[derive(Clone)]
        struct Burst {
            woke: bool,
            p: [f64; 7],
        }
        impl Protocol for Burst {
            fn intent(&mut self, _rng: &mut SimRng) -> Intent {
                Intent::Send
            }
            fn observe(&mut self, _obs: &Observation) {}
            fn send_probability(&self) -> f64 {
                self.p[0]
            }
            fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
                if std::mem::replace(&mut self.woke, true) {
                    Some(geometric(rng, self.p[0]))
                } else {
                    Some(0)
                }
            }
        }
        impl SparseProtocol for Burst {
            fn send_on_access(&mut self, rng: &mut SimRng) -> bool {
                rng.bernoulli(0.5)
            }
        }
        struct StageBytes(Vec<u64>);
        impl Hooks<Burst> for StageBytes {
            fn wants_observe(&self) -> bool {
                false
            }
            fn sample_period(&self) -> Option<u64> {
                Some(1)
            }
            fn on_sample(&mut self, s: &EngineSample) {
                self.0.push(s.stage_bytes);
            }
        }
        const N: u64 = 70_000;
        assert_eq!(std::mem::size_of::<Burst>(), 64);
        assert!(staging_applies(N as usize, N as usize * 64));
        let mut sampled = StageBytes(Vec::new());
        let cfg = SimConfig::new(12).until_slot(2_000);
        run_sparse(
            &cfg,
            Batch::new(N),
            NoJam,
            |_| Burst {
                woke: false,
                p: [1e-5; 7],
            },
            &mut sampled,
        );
        // One entry of every per-slot buffer: the plan's participant list
        // and handles and the sender ids (4 B each), the one cohort buffer
        // (an 8-byte entry), and the 64-byte state scratch. The burst slot
        // holds at most N of each (sender ids only for its senders), and
        // what the rule lets a slot with at most SCRATCH_CAP participants
        // keep is twice SCRATCH_CAP of each.
        let per_entry = 3 * 4 + std::mem::size_of::<Entry>() + std::mem::size_of::<Burst>();
        let bound = (2 * SCRATCH_CAP * per_entry) as u64;
        let (burst, quiet) = sampled.0.split_first().expect("samples");
        assert!(*burst >= N * 64, "burst slot holds its scratch: {burst}");
        assert!(*burst <= N * per_entry as u64, "burst slot: {burst} B");
        assert!(quiet.len() > 100, "{} quiet event slots", quiet.len());
        for (k, &bytes) in quiet.iter().enumerate() {
            assert!(bytes <= bound, "quiet slot {k}: {bytes} > {bound}");
        }
    }

    #[test]
    fn split_matches_a_stable_two_list_partition() {
        let mut rng = SimRng::new(5);
        let mut slots: Vec<Vec<bool>> = vec![
            vec![],
            vec![false],
            vec![true],
            vec![true; 70],
            vec![false; 70],
            (0..70).map(|k| k % 2 == 0).collect(),
            (0..69).map(|k| k % 2 == 1).collect(),
        ];
        // Random coins at sizes that grow and shrink, so one reused split
        // sees every size after a larger slot has left its entries behind.
        for n in [70, 3, 41, 0, 64, 1, 70, 17, 2, 55, 9, 70, 33] {
            slots.push((0..n).map(|_| rng.bernoulli(0.5)).collect());
        }
        let mut split = Split::default();
        for (k, coins) in slots.iter().enumerate() {
            // Ids and positions distinct from every other slot's, so an
            // entry left over from an earlier slot cannot pass for a live
            // one.
            let entries: Vec<Entry> = (0..coins.len() as u32)
                .map(|i| Entry {
                    id: 1000 * k as u32 + i,
                    pos: 7 * i + k as u32,
                })
                .collect();
            split.partition(entries.iter().copied().zip(coins.iter().copied()));
            let (mut senders, mut listeners) = (Vec::new(), Vec::new());
            for (&e, &sends) in entries.iter().zip(coins) {
                if sends {
                    senders.push(e);
                } else {
                    listeners.push(e);
                }
            }
            let sender_ids: Vec<PacketId> = senders.iter().map(|e| PacketId(e.id)).collect();
            assert_eq!(split.listeners(), listeners, "slot {k}: {coins:?}");
            assert_eq!(split.senders(), senders, "slot {k}: {coins:?}");
            assert_eq!(split.sender_ids(), sender_ids, "slot {k}: {coins:?}");
        }
    }

    #[test]
    fn never_waking_protocol_accounts_whole_horizon() {
        /// Accesses the channel exactly never.
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
            // Deliberately relies on the default `next_wake` → None.
        }
        impl SparseProtocol for Mute {
            fn send_on_access(&mut self, _rng: &mut SimRng) -> bool {
                false
            }
        }
        let cfg = SimConfig::new(10).until_slot(999);
        let r = run_sparse(&cfg, Batch::new(2), NoJam, |_| Mute, &mut NoHooks);
        assert_eq!(r.totals.successes, 0);
        assert_eq!(r.totals.active_slots, 1000);
        assert_eq!(r.totals.empty_active, 1000);
    }
}
