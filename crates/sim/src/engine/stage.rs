//! Staging of a slot's participant states into a contiguous scratch.
//!
//! At million-station scale the sparse engine's per-slot passes are bound
//! by memory, not math: a dense slot's participants are spread over a
//! state lane far larger than any cache level, and the direct path's split
//! pass chains each state miss behind the remap-lane read that produced
//! its address (`states[index_of[id]]` cannot issue before `index_of[id]`
//! returns). Staging breaks the chain and keeps every later pass off the
//! lane:
//!
//! 1. **Take** — the wake set drains the slot's bucket straight into the
//!    [`StagePlan`]'s participant list, in insertion order, on every event
//!    slot (staged or not), so the list exists once. No sort: processing
//!    order is insertion order, and the gather needs nothing more than the
//!    list of addresses it will touch.
//! 2. **Gather** — [`StagePlan::gather`] resolves that list through the
//!    remap lane, then copies the states into a contiguous scratch,
//!    both in insertion order. Each sweep is a stream of mutually
//!    independent loads with an explicit prefetch running ahead, so misses
//!    overlap in the memory pipeline instead of serializing (see the method
//!    docs for why the sweeps are deliberately *not* fused). Afterwards
//!    `handles()[k]` and `scratch[k]` both belong to `participants()[k]`.
//! 3. **Process** — the split and the two cohort sweeps (listeners, then
//!    losing senders) run against the scratch, addressing participant `k`
//!    at scratch position `k`. Every pass therefore reads the scratch
//!    front to back, and every RNG draw, observation, hook call, and
//!    contention accumulation happens in exactly the (slot, seq) order the
//!    three-way oracle suite pins — bit-identical by construction; only
//!    the memory addresses moved.
//! 4. **Scatter** — [`PacketTable::scatter_from`] writes the mutated
//!    states back through the same handles, a second prefetched sweep,
//!    before the winner's depart path reads the table.
//!
//! Insertion order is enough for the sweeps: a software prefetch needs the
//! address a few dozen iterations ahead, not an ascending one, and the
//! handle list supplies it in any order. Nor is insertion order random
//! with respect to dense address: injections are scheduled in id order,
//! and each slot's cohort sweeps push its listeners, then its losing
//! senders, into the wheel in that slot's order, so a bucket holds a
//! concatenation of ascending-id runs. Dense order follows id order (see
//! [`PacketTable`]), so neighbours within a run share pages much as a
//! sorted list's would. Sorting by
//! address would buy the sweeps little, and every pass would then read the
//! scratch through a permutation, one cache miss per participant once the
//! cohort's scratch outgrows the private caches (~4.7 MB of 8 B states in
//! the million-station tier's largest opening slot, 592,647 participants).
//!
//! Staging is gated ([`staging_applies`]): it pays two extra copies of
//! every participant state, which is pure overhead when the state lane
//! already fits in cache or when the participant set is too small to
//! amortize the sweeps. Below the gate the engine runs the direct path —
//! the exact pre-staging machine code.

use crate::engine::table::{Dense, PacketTable};
use crate::engine::wake::{cap_scratch, WakeSet};
use crate::packet::PacketId;
use crate::time::Slot;

/// Minimum participants in a slot before staging pays: below this the
/// sweeps' setup and the two copies cost more than the misses they save.
pub const STAGE_MIN_PARTICIPANTS: usize = 64;

/// Minimum hot-state-lane size before staging pays: lanes under ~4 MiB
/// live comfortably in the last-level cache, where the direct path's
/// state touches already hit and the gather/scatter copies are pure
/// overhead.
pub const STAGE_MIN_LANE_BYTES: usize = 4 << 20;

/// Whether a slot with `participants` packets over a state lane of
/// `lane_bytes` should run the staged gather/scatter path.
///
/// The dual gate keeps small runs on the direct path (the 16384-tier
/// bench, and every scenario in the pinned feedback recordings, never
/// stages) while batch workloads over multi-MB lanes — the memory-wall
/// regime — stage every slot with at least
/// [`STAGE_MIN_PARTICIPANTS`] participants.
#[inline]
pub fn staging_applies(participants: usize, lane_bytes: usize) -> bool {
    participants >= STAGE_MIN_PARTICIPANTS && lane_bytes >= STAGE_MIN_LANE_BYTES
}

/// The slot's participant list and, on a staged slot after
/// [`gather`](Self::gather), their dense handles, both in insertion order.
///
/// One plan lives for the whole run. The engine's wake set drains each
/// event slot's bucket into it, staged or not, so the participant list is
/// stored once; [`gather`](Self::gather) resolves it in place, and
/// [`cap`](Self::cap) returns excess capacity at end-of-slot like every
/// other per-slot buffer of the engine.
#[derive(Debug, Default)]
pub struct StagePlan {
    /// The slot's participant ids, in insertion order.
    ids: Vec<u32>,
    /// Their dense handles, parallel to `ids` after a gather.
    handles: Vec<Dense>,
}

impl StagePlan {
    /// An empty plan; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads `participants`, in the order given, as the slot's participant
    /// list for the following [`gather`](Self::gather): position `k` of
    /// the staged slot is `participants[k]`. The engine fills the list
    /// from its wake set instead; this is the loader for callers that hold
    /// the ids in a slice of their own.
    pub fn build_order(&mut self, participants: &[u32]) {
        self.ids.clear();
        self.ids.extend_from_slice(participants);
    }

    /// Replaces the participant list with every event the wake set holds
    /// for slot `t`, in insertion order. Draws no randomness and touches
    /// no packet state.
    pub(crate) fn take<Q: WakeSet>(&mut self, queue: &mut Q, t: Slot) {
        self.ids.clear();
        queue.take(t, &mut self.ids);
    }

    /// The slot's participant ids, in insertion order.
    #[inline]
    pub fn participants(&self) -> &[u32] {
        &self.ids
    }

    /// The gather: resolves the participant list through the remap lane
    /// (recording the handles for [`scatter_from`]'s write-back), then
    /// copies their states into `scratch` (cleared first), both in
    /// insertion order. Afterwards `handles()[k]` and `scratch[k]` belong
    /// to `participants()[k]`.
    ///
    /// Deliberately **two** sweeps, not one fused loop: inside a fused
    /// loop every state read depends on the remap read just before it, a
    /// two-deep miss chain that halves the memory-level parallelism the
    /// out-of-order window can extract (measured ~80 cyc/access fused vs
    /// ~55 split at the million-station tier). Kept separate, each sweep
    /// is a stream of fully independent loads, and an explicit prefetch a
    /// few iterations ahead keeps more misses in flight than the reorder
    /// window alone covers.
    ///
    /// [`scatter_from`]: PacketTable::scatter_from
    pub fn gather<P: Clone>(&mut self, table: &PacketTable<P>, scratch: &mut Vec<P>) {
        // How far ahead each sweep hints. The remap lane is cache-dense
        // (4 B entries, often L2/L3-resident), so a short lead suffices;
        // the state lane misses to DRAM, so the copy sweep hints further
        // out to cover the longer latency.
        const RESOLVE_AHEAD: usize = 16;
        const COPY_AHEAD: usize = 32;

        self.handles.clear();
        self.handles.reserve(self.ids.len());
        for (i, &id) in self.ids.iter().enumerate() {
            if let Some(&ahead) = self.ids.get(i + RESOLVE_AHEAD) {
                table.prefetch_resolve(PacketId(ahead));
            }
            self.handles.push(table.resolve(PacketId(id)));
        }

        scratch.clear();
        scratch.reserve(self.handles.len());
        for (i, &d) in self.handles.iter().enumerate() {
            if let Some(&ahead) = self.handles.get(i + COPY_AHEAD) {
                table.prefetch_state(ahead);
            }
            scratch.push(table.state_at(d).clone());
        }
    }

    /// The participants' dense handles in insertion order — the
    /// gather/scatter order.
    #[inline]
    pub fn handles(&self) -> &[Dense] {
        &self.handles
    }

    /// Allocated bytes across the plan's buffers (the participant list and
    /// the handles), counted against the engine's bytes-per-station
    /// capacity budget.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.capacity() * size_of::<u32>() + self.handles.capacity() * size_of::<Dense>()
    }

    /// End of slot: forgets the slot's entries (dead once the scatter
    /// ran) and, like the engine's other per-slot buffers, shrinks each
    /// buffer to `keep` entries once its capacity exceeds twice that.
    pub fn cap(&mut self, keep: usize) {
        self.ids.clear();
        self.handles.clear();
        cap_scratch(&mut self.ids, keep);
        cap_scratch(&mut self.handles, keep);
    }
}

/// A slot's state arena: where the cohort sweeps read and write
/// participant states, addressed by per-slot position.
///
/// Two implementations make the direct and staged paths one piece of
/// code: for [`PacketTable`] a position is a dense-lane index (the direct
/// path — identical machine code to the pre-staging engine), for `Vec<P>`
/// it is the participant's insertion position, which is its scratch index
/// (the staged path). The sweeps are generic over this trait, so
/// bit-identity between the paths is by monomorphization of the same
/// statements, not by keeping two copies in sync.
pub(crate) trait SlotArena<P> {
    /// The state at per-slot position `pos`.
    fn at_mut(&mut self, pos: u32) -> &mut P;
    /// Four distinct positions' states as a batch-lane array: one quad of
    /// a cohort sweep, observed and then drawn 4-wide.
    fn four_at(&mut self, pos: [u32; 4]) -> [&mut P; 4];
}

impl<P> SlotArena<P> for PacketTable<P> {
    #[inline]
    fn at_mut(&mut self, pos: u32) -> &mut P {
        self.state_at_mut(Dense(pos))
    }
    #[inline]
    fn four_at(&mut self, pos: [u32; 4]) -> [&mut P; 4] {
        self.lanes4_at(pos.map(Dense))
    }
}

impl<P> SlotArena<P> for Vec<P> {
    #[inline]
    fn at_mut(&mut self, pos: u32) -> &mut P {
        &mut self[pos as usize]
    }
    #[inline]
    fn four_at(&mut self, pos: [u32; 4]) -> [&mut P; 4] {
        self.as_mut_slice()
            .get_disjoint_mut(pos.map(|p| p as usize))
            .expect("scratch positions are distinct")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::wake::SCRATCH_CAP;

    fn table_of(n: u32) -> PacketTable<u64> {
        let mut t = PacketTable::new();
        for id in 0..n {
            t.insert(PacketId(id), 1000 + id as u64);
        }
        t
    }

    /// Splitmix-style scramble for deterministic pseudo-random id orders.
    fn scramble(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// `0..n` in a scrambled (insertion) order.
    fn scrambled(n: u32) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..n).collect();
        ids.sort_by_key(|&id| scramble(id as u64));
        ids
    }

    /// Runs the plan over `ids` and checks the staging contract: position
    /// `k` of the handles and of the scratch belongs to `ids[k]`.
    fn assert_staged_in_insertion_order(t: &PacketTable<u64>, ids: &[u32]) {
        let mut plan = StagePlan::new();
        plan.build_order(ids);
        let mut scratch: Vec<u64> = Vec::new();
        plan.gather(t, &mut scratch);
        assert_eq!(plan.handles().len(), ids.len());
        assert_eq!(scratch.len(), ids.len());
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(plan.handles()[k], t.resolve(PacketId(id)), "k={k}");
            assert_eq!(scratch[k], 1000 + id as u64, "k={k}");
        }
    }

    #[test]
    fn plan_stages_in_insertion_order() {
        assert_staged_in_insertion_order(&table_of(1000), &scrambled(1000));
    }

    #[test]
    fn plan_handles_survivors_after_compaction() {
        let mut t = table_of(300);
        for id in (0..300).step_by(2) {
            t.retire(PacketId(id));
        }
        t.compact();
        let ids: Vec<u32> = (1..300).step_by(2).rev().collect();
        assert_staged_in_insertion_order(&t, &ids);
    }

    #[test]
    fn plan_reuse_shrinks_cleanly_between_slots() {
        // A big slot followed by a tiny one: the second build must not see
        // stale entries from the first. The demand-relative shrink keeps
        // the big slot's buffers while slots stay that big, and returns
        // the excess after a small one.
        let t = table_of(20_000);
        let big = scrambled(20_000);
        let mut plan = StagePlan::new();
        let mut scratch: Vec<u64> = Vec::new();
        plan.build_order(&big);
        plan.gather(&t, &mut scratch);
        assert_eq!(plan.handles().len(), big.len());
        let warm = plan.footprint_bytes();
        assert!(warm >= big.len() * 8, "{warm}");
        plan.cap(SCRATCH_CAP.max(big.len()));
        assert_eq!(
            plan.footprint_bytes(),
            warm,
            "a dense slot keeps its buffers"
        );

        plan.build_order(&[7, 3, 11]);
        plan.gather(&t, &mut scratch);
        let addrs: Vec<usize> = plan.handles().iter().map(|d| d.index()).collect();
        assert_eq!(addrs, vec![7, 3, 11]);
        assert_eq!(scratch, vec![1007, 1003, 1011]);

        plan.cap(SCRATCH_CAP.max(3));
        assert!(plan.footprint_bytes() <= 2 * SCRATCH_CAP * 4);
    }

    #[test]
    fn gate_requires_both_fanout_and_lane_size() {
        assert!(staging_applies(
            STAGE_MIN_PARTICIPANTS,
            STAGE_MIN_LANE_BYTES
        ));
        assert!(!staging_applies(
            STAGE_MIN_PARTICIPANTS - 1,
            STAGE_MIN_LANE_BYTES
        ));
        assert!(!staging_applies(
            STAGE_MIN_PARTICIPANTS,
            STAGE_MIN_LANE_BYTES - 1
        ));
        // With 8 B `LowSensing` states, the 16384 bench tier (a 128 KiB
        // lane), 100k stations (800 KB) and 300k stations (2.4 MB) never
        // stage.
        assert!(!staging_applies(2000, 16_384 * 8));
        assert!(!staging_applies(2000, 100_000 * 8));
        assert!(!staging_applies(2000, 300_000 * 8));
        // The 600k and 1M tiers do.
        assert!(staging_applies(2000, 600_000 * 8));
        assert!(staging_applies(2000, 1_000_000 * 8));
    }

    #[test]
    fn staged_arena_matches_table_arena() {
        // Mutations through the scratch arena at position k land, after
        // the scatter, on participant k's state in the table.
        let mut t = table_of(64);
        let ids = scrambled(64);
        let mut plan = StagePlan::new();
        plan.build_order(&ids);
        let mut scratch: Vec<u64> = Vec::new();
        plan.gather(&t, &mut scratch);

        for k in 0..64u32 {
            *SlotArena::at_mut(&mut scratch, k) += 5;
        }
        let lanes = SlotArena::four_at(&mut scratch, [0, 1, 2, 3]);
        *lanes[2] += 100;

        t.scatter_from(plan.handles(), &scratch);
        for (k, &id) in ids.iter().enumerate() {
            let bump = if k == 2 { 105 } else { 5 };
            assert_eq!(*t.state(PacketId(id)), 1000 + id as u64 + bump, "k={k}");
        }
    }
}
