//! Epoch-compacted hot-state packet table for the sparse engine.
//!
//! The sparse engine touches per-packet state on every channel access. A
//! plain `Vec<P>` indexed by [`PacketId`] is the obvious layout, but it
//! decays as the run drains: departed packets keep their dense slots, so a
//! late-run cohort of `k` live packets is scattered across a table sized
//! for *every packet ever injected*, and each access drags a mostly-dead
//! cache line through the hierarchy. At paper scale (tens of thousands of
//! packets, protocol states of 8 bytes and up) that scatter is a
//! measurable slice of the whole simulation.
//!
//! [`PacketTable`] fixes the layout with a struct-of-arrays split plus
//! **epoch compaction**. The table is three parallel lanes with distinct
//! roles — at million-station scale, which lanes a pass touches is the
//! difference between streaming one array and dragging three:
//!
//! * `states` — the **hot lane**: protocol states, dense, touched by every
//!   split and cohort sweep;
//! * `ids` — the **depart lane**: the original id of each dense entry,
//!   read only when a packet departs (hooks and metrics speak original
//!   [`PacketId`]s) and during compaction;
//! * `index_of` — the **remap lane**: id → dense index, or the `VACANT`
//!   sentinel once the packet departed (its status bit). Resolved once per
//!   packet per slot into a [`Dense`] handle (see
//!   [`PacketTable::resolve`]); the per-access passes then index the hot
//!   lane directly and never touch the remap again.
//!
//! Once enough packets have departed (an *epoch*, see
//! [`PacketTable::maybe_compact`]), the dense lanes are compacted in
//! place — live packets slide together, preserving their relative order,
//! and the dead states are dropped — so the working set tracks the live
//! population instead of the historical one.
//!
//! An invariant worth naming falls out of that design: **dense order
//! coincides with id order for live packets**. Injections append in
//! ascending id order, and compaction only ever slides survivors forward
//! without reordering them, so at every instant the `ids` lane is
//! strictly increasing. The staged gather/scatter path
//! ([`stage`](crate::engine::stage)) leans on this for locality: the wake
//! set hands a slot's participants over as runs of ascending ids, which
//! are therefore runs of ascending dense addresses, so its sweeps walk
//! mostly forward through the lane. (Nothing *breaks* if a future layout
//! change drops the invariant — staging is correct in any order — but the
//! sweeps silently lose that locality, so the `ids_lane_stays_sorted` test
//! pins it.)
//!
//! Compaction is invisible outside the table: hooks, metrics, and traces
//! keep seeing original [`PacketId`]s (the engine never exposes dense
//! indices), and compaction timing cannot affect results — it moves
//! memory, not the processing order, which is owned by the
//! [`WakeQueue`](crate::engine::wake::WakeQueue). The equivalence suite
//! runs the compacting engine against the never-compacting reference
//! oracle and demands bit-identical output.

use crate::packet::PacketId;

/// Best-effort read-prefetch hint: asks the core to start pulling the
/// cache line holding `p` toward L1. Purely a scheduling hint — no memory
/// effects, no faults — and a no-op off x86_64.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: &T) {
    prefetch_read_ptr(p as *const T as *const u8);
}

/// Raw-pointer variant of [`prefetch_read`], for hinting addresses no
/// reference may legally point at (e.g. the one-past-`len` tail of a `Vec`
/// an imminent push will write). The pointer may be dangling or
/// out-of-bounds: `prefetcht0` cannot fault and has no memory effects.
#[inline(always)]
#[allow(unsafe_code)] // the crate-wide deny's one exception: pure hints
pub(crate) fn prefetch_read_ptr(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` has no architectural effects and cannot fault,
    // whatever the address.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Write-intent twin of [`prefetch_read_ptr`]: asks for the line in
/// exclusive state, so the store that follows skips the read-for-ownership
/// round trip a plain read hint would still pay. Same safety story — a
/// hint, nothing more — and the same raw-pointer latitude.
#[inline(always)]
#[allow(unsafe_code)] // the crate-wide deny's one exception: pure hints
pub(crate) fn prefetch_write_ptr(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: write-hint prefetches have no architectural effects and
    // cannot fault, whatever the address.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_ET0 }>(p as *const i8)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// `index_of` sentinel: the packet has departed (its status bit).
const VACANT: u32 = u32::MAX;

/// Minimum number of departed-but-uncompacted packets before an epoch ends.
/// Below this, compaction would churn memory for no locality gain.
const EPOCH_MIN_DEAD: usize = 32;

/// A resolved position in the dense lanes, produced by
/// [`PacketTable::resolve`].
///
/// A `Dense` handle is the table's receipt that the id → index remap was
/// already paid: the `*_at` accessors index the hot `states` lane directly,
/// with no remap read and no liveness branch. Handles are **stable across
/// inserts** (the dense lanes are append-only between compactions) but
/// **invalidated by compaction** — the engine resolves a slot's
/// participants once, up front, and only compacts at end-of-slot after the
/// last access, so no handle ever outlives its validity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dense(pub(crate) u32);

impl Dense {
    /// The raw dense-lane index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense, epoch-compacted storage of live per-packet protocol states.
///
/// Ids are assigned densely in injection order (see [`PacketId`]) and must
/// be inserted in that order; lookups go through the id → dense-index
/// remap, so callers never observe compaction.
#[derive(Debug)]
pub struct PacketTable<P> {
    /// Protocol states, dense. Parallel to `ids`.
    states: Vec<P>,
    /// Original packet id of each dense entry. Parallel to `states`.
    ids: Vec<u32>,
    /// id → dense index, or [`VACANT`] once the packet departed.
    index_of: Vec<u32>,
    /// Departed packets still occupying dense entries (reset each epoch).
    dead: usize,
}

impl<P> Default for PacketTable<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> PacketTable<P> {
    /// An empty table.
    pub fn new() -> Self {
        PacketTable {
            states: Vec::new(),
            ids: Vec::new(),
            index_of: Vec::new(),
            dead: 0,
        }
    }

    /// Number of live packets.
    #[inline]
    pub fn live(&self) -> usize {
        self.states.len() - self.dead
    }

    /// Number of dense entries, live or dead (the current working-set
    /// size; shrinks at each compaction).
    #[inline]
    pub fn dense_len(&self) -> usize {
        self.states.len()
    }

    /// The dense index a live packet currently resolves to, or `None` if it
    /// departed. Exposed for tests and diagnostics; the engine itself never
    /// leaks dense indices.
    pub fn dense_index(&self, id: PacketId) -> Option<usize> {
        match self.index_of.get(id.index()).copied() {
            Some(i) if i != VACANT => Some(i as usize),
            _ => None,
        }
    }

    /// Reserves room for at least `n` more [`insert`](Self::insert)s in
    /// every lane. The engine calls it once per arrival event, so a large
    /// batch grows each lane once instead of doubling its way up.
    ///
    /// The reservation is rounded up to the power of two that per-insert
    /// doubling reaches, so a batch into a fresh table leaves every lane at
    /// the capacity it always had: only the intermediate reallocations go
    /// away. (An exact-size reservation shifted glibc malloc's heap layout
    /// enough to raise the peak RSS of a small two-thread campaign by
    /// ~0.4–0.8 MiB.)
    pub fn reserve(&mut self, n: usize) {
        let len = self.states.len();
        let n = (len + n).next_power_of_two() - len;
        self.states.reserve(n);
        self.ids.reserve(n);
        self.index_of.reserve(n);
    }

    /// Inserts the state of a freshly injected packet.
    ///
    /// Ids must arrive in injection order (`0, 1, 2, …`), mirroring how
    /// [`Metrics::note_inject`](crate::metrics::Metrics::note_inject)
    /// assigns them.
    #[inline]
    pub fn insert(&mut self, id: PacketId, state: P) {
        debug_assert_eq!(id.index(), self.index_of.len(), "ids in order");
        self.index_of.push(self.states.len() as u32);
        self.ids.push(id.0);
        self.states.push(state);
    }

    /// The state of live packet `id`.
    ///
    /// # Panics
    ///
    /// Panics if the packet departed (in release builds via the dense
    /// index lookup: the `VACANT` sentinel is always out of bounds); the
    /// engine only resolves ids it knows to be live.
    #[inline]
    pub fn state(&self, id: PacketId) -> &P {
        let idx = self.index_of[id.index()];
        debug_assert_ne!(idx, VACANT, "access to departed {id}");
        &self.states[idx as usize]
    }

    /// Mutable access to the state of live packet `id`.
    #[inline]
    pub fn state_mut(&mut self, id: PacketId) -> &mut P {
        let idx = self.index_of[id.index()];
        debug_assert_ne!(idx, VACANT, "access to departed {id}");
        &mut self.states[idx as usize]
    }

    /// Resolves live packet `id` to a [`Dense`] handle: the one remap-lane
    /// read the packet pays this slot. All `*_at` accesses through the
    /// handle then touch only the lanes they need.
    ///
    /// The handle is valid until the next [`compact`](Self::compact) (see
    /// [`Dense`]).
    #[inline]
    pub fn resolve(&self, id: PacketId) -> Dense {
        let idx = self.index_of[id.index()];
        debug_assert_ne!(idx, VACANT, "resolve of departed {id}");
        Dense(idx)
    }

    /// The state at a resolved handle — a hot-lane read, no remap.
    #[inline]
    pub fn state_at(&self, d: Dense) -> &P {
        &self.states[d.index()]
    }

    /// Hints the remap-lane entry for `id` toward cache, ahead of a
    /// [`resolve`](Self::resolve) a few iterations out. Out-of-range ids
    /// are ignored; off x86_64 this is a no-op.
    #[inline]
    pub fn prefetch_resolve(&self, id: PacketId) {
        if let Some(p) = self.index_of.get(id.index()) {
            prefetch_read(p);
        }
    }

    /// Hints the hot-lane state at `d` toward cache, ahead of a
    /// [`state_at`](Self::state_at) a few iterations out. Out-of-range
    /// handles are ignored; off x86_64 this is a no-op.
    #[inline]
    pub fn prefetch_state(&self, d: Dense) {
        if let Some(p) = self.states.get(d.index()) {
            prefetch_read(p);
        }
    }

    /// Mutable state at a resolved handle — a hot-lane access, no remap.
    #[inline]
    pub fn state_at_mut(&mut self, d: Dense) -> &mut P {
        &mut self.states[d.index()]
    }

    /// The original [`PacketId`] at a resolved handle: a depart-lane read,
    /// used when a packet leaves (hooks and metrics speak original ids).
    #[inline]
    pub fn id_at(&self, d: Dense) -> PacketId {
        PacketId(self.ids[d.index()])
    }

    /// Gathers four distinct resolved handles' states as a batch-lane
    /// array for the 4-wide wake draw
    /// ([`SparseProtocol::next_wake4`](crate::protocol::SparseProtocol::next_wake4)),
    /// touching only the hot lane.
    ///
    /// # Panics
    ///
    /// Panics if the handles are not distinct.
    #[inline]
    pub fn lanes4_at(&mut self, handles: [Dense; 4]) -> [&mut P; 4] {
        self.states
            .get_disjoint_mut(handles.map(Dense::index))
            .expect("lane handles are distinct")
    }

    /// Writes `scratch[j]` back to the dense entry at `handles[j]` — the
    /// write half of the staged gather/scatter pass (see
    /// [`StagePlan::gather`](crate::engine::stage::StagePlan::gather) for
    /// the read half), one prefetched sweep over the hot lane in the
    /// slot's insertion order.
    ///
    /// Handles must be distinct (each dense entry written at most once) and
    /// from the current epoch: like every handle use, a gather/scatter
    /// round trip never spans a compaction.
    ///
    /// # Panics
    ///
    /// Panics if `handles` and `scratch` have different lengths.
    pub fn scatter_from(&mut self, handles: &[Dense], scratch: &[P])
    where
        P: Clone,
    {
        // Write-side lookahead: lines usually still sit in cache from the
        // gather earlier in the slot, but the passes in between (wheel
        // pushes especially) evict some — hint them back before the store
        // stalls on them.
        const AHEAD: usize = 32;
        assert_eq!(handles.len(), scratch.len(), "scatter length mismatch");
        for (i, (&d, s)) in handles.iter().zip(scratch).enumerate() {
            if let Some(ahead) = handles.get(i + AHEAD) {
                if let Some(p) = self.states.get(ahead.index()) {
                    prefetch_write_ptr(p as *const P as *const u8);
                }
            }
            self.states[d.index()].clone_from(s);
        }
    }

    /// Allocated bytes of the bookkeeping lanes (`ids` + `index_of`) — the
    /// table's engine-overhead footprint, counted against the
    /// bytes-per-station capacity budget.
    pub fn lane_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.ids.capacity() + self.index_of.capacity()) * size_of::<u32>()
    }

    /// Marks packet `id` as departed. Its dense entry lingers (and its
    /// state is dropped) until the next compaction.
    #[inline]
    pub fn retire(&mut self, id: PacketId) {
        let idx = &mut self.index_of[id.index()];
        debug_assert_ne!(*idx, VACANT, "double depart of {id}");
        *idx = VACANT;
        self.dead += 1;
    }

    /// Ends the epoch if enough of the dense table is dead: compacts when
    /// at least `EPOCH_MIN_DEAD` (32) packets departed since the last
    /// compaction *and* they make up at least half the dense entries.
    ///
    /// The half-full trigger makes the total compaction work geometric: a
    /// drain from `n` packets costs `O(n)` moved states across all epochs
    /// combined. Returns whether a compaction ran.
    #[inline]
    pub fn maybe_compact(&mut self) -> bool {
        if self.dead >= EPOCH_MIN_DEAD && 2 * self.dead >= self.states.len() {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Compacts the dense arrays in place: live packets slide to the front
    /// (preserving their relative order), departed states are dropped, and
    /// the id remap is rebuilt. Safe to call at any point — including
    /// mid-slot between accesses — because no outstanding references exist
    /// across engine calls and ids resolve identically afterwards.
    pub fn compact(&mut self) {
        if self.dead == 0 {
            return;
        }
        let mut w = 0usize;
        for r in 0..self.states.len() {
            let id = self.ids[r] as usize;
            if self.index_of[id] != VACANT {
                self.states.swap(w, r);
                self.ids[w] = self.ids[r];
                self.index_of[id] = w as u32;
                w += 1;
            }
        }
        self.states.truncate(w);
        self.ids.truncate(w);
        self.dead = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_of(n: u32) -> PacketTable<u64> {
        let mut t = PacketTable::new();
        for id in 0..n {
            // State encodes the id so moves are detectable.
            t.insert(PacketId(id), 1000 + id as u64);
        }
        t
    }

    /// Every live id resolves to its own state.
    fn assert_consistent(t: &PacketTable<u64>, live: &[u32]) {
        assert_eq!(t.live(), live.len());
        for &id in live {
            assert_eq!(*t.state(PacketId(id)), 1000 + id as u64, "id {id}");
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = table_of(5);
        assert_eq!(t.live(), 5);
        assert_eq!(t.dense_len(), 5);
        assert_eq!(*t.state(PacketId(3)), 1003);
        *t.state_mut(PacketId(3)) += 1;
        assert_eq!(*t.state(PacketId(3)), 1004);
        assert_eq!(t.dense_index(PacketId(3)), Some(3));
    }

    #[test]
    fn retire_hides_the_packet_and_compaction_reclaims_it() {
        let mut t = table_of(4);
        t.retire(PacketId(1));
        assert_eq!(t.live(), 3);
        assert_eq!(t.dense_len(), 4, "entry lingers until compaction");
        assert_eq!(t.dense_index(PacketId(1)), None);
        t.compact();
        assert_eq!(t.dense_len(), 3);
        assert_consistent(&t, &[0, 2, 3]);
    }

    #[test]
    fn compaction_preserves_relative_order() {
        let mut t = table_of(6);
        t.retire(PacketId(0));
        t.retire(PacketId(3));
        t.compact();
        // Survivors keep their injection order in the dense array.
        assert_eq!(t.ids, vec![1, 2, 4, 5]);
        assert_consistent(&t, &[1, 2, 4, 5]);
    }

    #[test]
    fn compaction_mid_slot_keeps_remap_consistent() {
        // The engine may (in principle) compact between two accesses of the
        // same slot: interleave state touches, retires, and a compaction,
        // and every surviving id must still resolve to its own state.
        let mut t = table_of(8);
        *t.state_mut(PacketId(5)) += 10; // 1015
        t.retire(PacketId(0));
        t.retire(PacketId(2));
        t.retire(PacketId(6));
        // "Mid-slot": some accesses happened, more follow after compacting.
        t.compact();
        assert_eq!(*t.state(PacketId(5)), 1015, "pre-compaction write kept");
        *t.state_mut(PacketId(5)) -= 10;
        assert_eq!(*t.state(PacketId(1)), 1001);
        assert_eq!(*t.state(PacketId(7)), 1007);
        t.retire(PacketId(5));
        assert_consistent(&t, &[1, 3, 4, 7]);
    }

    #[test]
    fn zero_live_compaction_empties_the_table_and_accepts_new_inserts() {
        let mut t = table_of(3);
        for id in 0..3 {
            t.retire(PacketId(id));
        }
        assert_eq!(t.live(), 0);
        t.compact();
        assert_eq!(t.dense_len(), 0);
        assert_eq!(t.live(), 0);
        // Fresh injections keep working; ids continue the global sequence.
        t.insert(PacketId(3), 1003);
        assert_consistent(&t, &[3]);
        assert_eq!(t.dense_index(PacketId(3)), Some(0));
    }

    #[test]
    fn remap_stays_stable_across_two_compactions() {
        // Hooks/metrics/trace identify packets by original id; two rounds
        // of departures + compaction must not perturb what any id resolves
        // to, even as dense indices shuffle underneath.
        let mut t = table_of(10);
        for id in [0, 1, 2, 3] {
            t.retire(PacketId(id));
        }
        t.compact();
        assert_eq!(t.dense_index(PacketId(9)), Some(5));
        assert_consistent(&t, &[4, 5, 6, 7, 8, 9]);
        for id in [5, 7, 8] {
            t.retire(PacketId(id));
        }
        t.compact();
        assert_eq!(t.dense_index(PacketId(9)), Some(2), "shifted again");
        assert_consistent(&t, &[4, 6, 9]);
        // Ids retired in earlier epochs stay retired.
        for id in [0, 1, 2, 3, 5, 7, 8] {
            assert_eq!(t.dense_index(PacketId(id)), None);
        }
    }

    #[test]
    fn maybe_compact_honours_the_epoch_thresholds() {
        // Too few dead: no epoch, regardless of fraction.
        let mut t = table_of(4);
        t.retire(PacketId(0));
        t.retire(PacketId(1));
        t.retire(PacketId(2));
        assert!(!t.maybe_compact());
        assert_eq!(t.dense_len(), 4);
        // Enough dead but under half the dense entries: still no epoch.
        let mut t = table_of(3 * EPOCH_MIN_DEAD as u32);
        for id in 0..EPOCH_MIN_DEAD as u32 {
            t.retire(PacketId(id));
        }
        assert!(!t.maybe_compact());
        // One more epoch's worth pushes past half: compacts.
        for id in EPOCH_MIN_DEAD as u32..2 * EPOCH_MIN_DEAD as u32 {
            t.retire(PacketId(id));
        }
        assert!(t.maybe_compact());
        assert_eq!(t.dense_len(), EPOCH_MIN_DEAD);
        assert_eq!(t.live(), EPOCH_MIN_DEAD);
        assert!(!t.maybe_compact(), "fresh epoch starts clean");
    }

    #[test]
    fn compact_with_no_dead_is_a_noop() {
        let mut t = table_of(4);
        t.compact();
        assert_eq!(t.dense_len(), 4);
        assert_consistent(&t, &[0, 1, 2, 3]);
    }

    #[test]
    fn dense_handles_bypass_the_remap_until_compaction() {
        // A slot's split pass resolves each participant once; every later
        // access in the slot goes through the handle, hot lane only. The
        // handle must agree with the id-based accessors, survive inserts,
        // and expose the original id for the depart path.
        let mut t = table_of(6);
        let h3 = t.resolve(PacketId(3));
        let h5 = t.resolve(PacketId(5));
        assert_eq!(*t.state_at(h3), 1003);
        assert_eq!(t.id_at(h3), PacketId(3));
        *t.state_at_mut(h5) += 7;
        assert_eq!(*t.state(PacketId(5)), 1012, "id view sees the write");
        // Inserts are append-only: outstanding handles stay valid.
        t.insert(PacketId(6), 1006);
        assert_eq!(*t.state_at(h3), 1003);
        let lanes = t.lanes4_at([
            t.resolve(PacketId(0)),
            t.resolve(PacketId(6)),
            h3,
            t.resolve(PacketId(1)),
        ]);
        assert_eq!(
            [*lanes[0], *lanes[1], *lanes[2], *lanes[3]],
            [1000, 1006, 1003, 1001]
        );
    }

    #[test]
    fn handles_rebind_correctly_across_two_compactions() {
        // The SoA pin for the wheel PR: two rounds of departures +
        // compaction, and after each one (a) re-resolved handles land on
        // the packet's moved state, (b) the depart lane still yields the
        // original id, (c) stale liveness never leaks through the remap.
        let mut t = table_of(10);
        for id in [0, 1, 2, 3] {
            t.retire(PacketId(id));
        }
        t.compact();
        let h9 = t.resolve(PacketId(9));
        assert_eq!(h9.index(), 5, "first compaction slid 9 to index 5");
        assert_eq!(*t.state_at(h9), 1009);
        assert_eq!(t.id_at(h9), PacketId(9), "original id visible post-move");
        for id in [5, 7, 8] {
            t.retire(PacketId(id));
        }
        t.compact();
        let h9 = t.resolve(PacketId(9));
        assert_eq!(h9.index(), 2, "second compaction slid 9 again");
        assert_eq!(*t.state_at(h9), 1009);
        assert_eq!(t.id_at(h9), PacketId(9));
        // The whole survivor set, via handles.
        for (id, want_idx) in [(4u32, 0usize), (6, 1), (9, 2)] {
            let h = t.resolve(PacketId(id));
            assert_eq!(h.index(), want_idx);
            assert_eq!(t.id_at(h), PacketId(id));
            assert_eq!(*t.state_at(h), 1000 + id as u64);
        }
        for id in [0, 1, 2, 3, 5, 7, 8] {
            assert_eq!(t.dense_index(PacketId(id)), None, "id {id} stays dead");
        }
    }

    #[test]
    fn lane_bytes_track_bookkeeping_not_states() {
        let t = table_of(100);
        // u64 states: the hot lane is 8 bytes each, bookkeeping 8 (two
        // u32 lanes). Capacities may exceed length, never undershoot it.
        assert!(t.lane_bytes() >= 100 * 8);
        let empty: PacketTable<[u8; 64]> = PacketTable::new();
        assert_eq!(empty.lane_bytes(), 0);
    }

    #[test]
    fn ids_lane_stays_sorted() {
        // Dense order ≡ id order for live packets, through arbitrary
        // retire/compact interleavings — the invariant the staged path's
        // sweep locality leans on (see the module docs).
        let mut t = table_of(500);
        let mut x = 12345u64;
        let mut live: Vec<bool> = vec![true; 500];
        for round in 0..40 {
            for _ in 0..12 {
                // Cheap LCG pick of a live id.
                x = x.wrapping_mul(6364136223846793005).wrapping_add(round);
                let id = ((x >> 33) % 500) as u32;
                if live[id as usize] {
                    live[id as usize] = false;
                    t.retire(PacketId(id));
                }
            }
            if round % 5 == 0 {
                t.compact();
            } else {
                t.maybe_compact();
            }
            let dense: Vec<u32> = (0..500u32)
                .filter(|&id| live[id as usize])
                .map(|id| t.resolve(PacketId(id)).0)
                .collect();
            assert!(
                dense.windows(2).all(|w| w[0] < w[1]),
                "round {round}: dense order diverged from id order"
            );
        }
    }
}
