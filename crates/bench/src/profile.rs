//! Phase-by-phase cycle profile of the sparse engine's hot loop.
//!
//! The production loop marks the end of each of its ten phases
//! through [`Hooks::on_phase`]. [`Profiler`] is the hook set that turns the
//! marks into per-phase cycle totals (one TSC read per mark) and the
//! engine's periodic [`EngineSample`]s into memory peaks. It rides along
//! `Scenario::run_sparse_hooked`, so the profile describes the loop that
//! ships, and a profiled run's result is the engine's own, bit for bit
//! (pinned by the tests below).
//!
//! A mark costs ~8 cycles (`rdtsc`) and lands per slot and per pass — the
//! listener work is one whole-cohort sweep (observe, wake draw and
//! schedule per quad), so a dense slot pays one read for all its
//! listeners, not one per 4-listener quad. Treat the shares as accurate to
//! a point or two.

use lowsense::{LowSensing, Params};
use lowsense_sim::arrivals::Batch;
use lowsense_sim::hooks::{EngineSample, Hooks, Phase};
use lowsense_sim::jamming::NoJam;
use lowsense_sim::metrics::RunResult;
use lowsense_sim::protocol::SparseProtocol;
use lowsense_sim::rng::SimRng;
use lowsense_sim::scenario::{scenarios, Scenario};
use lowsense_sim::time::Slot;

/// Cycle (or nanosecond, off x86) timestamp for phase accounting.
#[inline(always)]
pub fn tsc() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rdtsc` has no preconditions; it only reads the counter.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        use std::time::Instant;
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Accumulated cycles per phase across every profiled rep.
///
/// `gather` and `scatter` cover the staged gather/scatter path and stay at
/// zero on runs below the staging gate.
#[derive(Default)]
pub struct Profile {
    /// Cycle totals, indexed by `Phase as usize`.
    pub cycles: [u64; Phase::ALL.len()],
}

impl Profile {
    /// Total cycles across all phases.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Fraction of total cycles spent in `phase`.
    pub fn share(&self, phase: Phase) -> f64 {
        self.cycles[phase as usize] as f64 / self.total().max(1) as f64
    }
}

/// A profiled run of the standard smoke workload: the per-phase cycle
/// totals plus the access count they amortize over.
pub struct SmokeProfile {
    /// Accumulated per-phase cycles over all reps.
    pub profile: Profile,
    /// Channel accesses (sends + listens) across all reps — the engines'
    /// unit of work, and the denominator of [`SmokeProfile::cyc_per_access`].
    pub accesses: u64,
    /// Number of measured reps.
    pub reps: u64,
}

impl SmokeProfile {
    /// Loop cycles per channel access, all phases summed.
    pub fn cyc_per_access(&self) -> f64 {
        self.profile.total() as f64 / self.accesses.max(1) as f64
    }
}

/// Peak memory over the engine's periodic samples (one per 1024 event
/// slots).
///
/// "Engine overhead" is the wake wheel's footprint, the packet table's
/// bookkeeping lanes (ids + remap) and the per-slot buffers — everything
/// the engine spends *per station* beyond the protocol state itself, whose
/// size is the protocol's contract (`LowSensing` alone is 8 B, pinned by
/// its unit tests).
#[derive(Default)]
pub struct CapacityProbe {
    /// Peak engine-overhead bytes.
    pub peak_engine_bytes: u64,
    /// Peak bytes in the engine's per-slot buffers alone (the stage plan's
    /// participant list and handles, the split's cohort buffer and sender
    /// ids, and the staged state scratch) — a sub-slice of
    /// [`peak_engine_bytes`](Self::peak_engine_bytes), broken out so their
    /// cost stays visible in `BENCH_engine.json`.
    pub peak_stage_bytes: u64,
    /// Largest live-station count seen at any sample point.
    pub peak_live: u64,
    /// Number of samples taken.
    pub samples: u64,
}

/// A sample's engine-overhead bytes: wheel, table bookkeeping and per-slot
/// buffers.
fn engine_bytes(s: &EngineSample) -> u64 {
    s.footprint_bytes + s.state_bytes + s.stage_bytes
}

impl CapacityProbe {
    fn note(&mut self, s: &EngineSample) {
        let engine = engine_bytes(s);
        self.peak_engine_bytes = self.peak_engine_bytes.max(engine);
        self.peak_stage_bytes = self.peak_stage_bytes.max(s.stage_bytes);
        self.peak_live = self.peak_live.max(s.backlog);
        self.samples += 1;
    }

    /// Peak engine-overhead bytes per peak live station — the figure the
    /// million-station tier's ≤ 64 B/station budget is checked against.
    pub fn bytes_per_station(&self) -> f64 {
        self.peak_engine_bytes as f64 / self.peak_live.max(1) as f64
    }

    /// Protocol-state bytes at peak fill: one `LowSensing` per live
    /// station.
    pub fn state_bytes(&self) -> u64 {
        self.peak_live * std::mem::size_of::<LowSensing>() as u64
    }
}

/// Event slots [`OpeningProbe`] samples: the injection burst and the
/// first cohorts, where a batch's per-slot buffers peak.
pub const OPENING_EVENT_SLOTS: u64 = 256;

/// Engine overhead per live station at every one of a run's first
/// [`OPENING_EVENT_SLOTS`] event slots, kept at its peak.
///
/// [`CapacityProbe`] samples every 1024th event slot, which steps over a
/// batch's opening: there the per-slot buffers hold a few hundred thousand
/// participants, and the per-station peak of the whole run sits within
/// the first few slots.
#[derive(Default)]
pub struct OpeningProbe {
    /// Peak engine-overhead bytes over the live stations of the same
    /// sample (the terms [`CapacityProbe`] sums).
    pub peak_bytes_per_station: f64,
    /// Event slot (the engine's count, from 1) of that peak.
    pub peak_event_slot: u64,
    /// Per-slot buffer bytes at that peak.
    pub peak_stage_bytes: u64,
    /// Number of samples taken.
    pub samples: u64,
}

impl<P> Hooks<P> for OpeningProbe {
    fn wants_observe(&self) -> bool {
        false
    }

    fn sample_period(&self) -> Option<u64> {
        Some(1)
    }

    fn on_sample(&mut self, s: &EngineSample) {
        if s.event_slots > OPENING_EVENT_SLOTS || s.backlog == 0 {
            return;
        }
        let per_station = engine_bytes(s) as f64 / s.backlog as f64;
        if per_station > self.peak_bytes_per_station {
            self.peak_bytes_per_station = per_station;
            self.peak_event_slot = s.event_slots;
            self.peak_stage_bytes = s.stage_bytes;
        }
        self.samples += 1;
    }
}

/// The profiling hook set: one TSC read per phase mark, capacity peaks per
/// sample.
///
/// It leaves `on_observe` alone, so the engine takes the same clone-free
/// listener path as under `NoHooks`.
#[derive(Default)]
pub struct Profiler {
    /// Accumulated cycles per phase.
    pub profile: Profile,
    /// Memory peaks from the engine's samples.
    pub capacity: CapacityProbe,
    /// Timestamp of the previous mark.
    last: u64,
}

impl<P> Hooks<P> for Profiler {
    fn wants_observe(&self) -> bool {
        false
    }

    fn sample_period(&self) -> Option<u64> {
        Some(1024)
    }

    fn on_sample(&mut self, sample: &EngineSample) {
        self.capacity.note(sample);
    }

    #[inline(always)]
    fn on_phase(&mut self, phase: Phase) {
        let now = tsc();
        self.profile.cycles[phase as usize] += now.wrapping_sub(self.last);
        self.last = now;
    }
}

impl Profiler {
    /// Runs `scenario` on the sparse engine with this profiler attached.
    /// The clock restarts here, so the first `control` phase covers only
    /// the run's own loop entry.
    fn run<P, F>(&mut self, scenario: &Scenario<Batch, NoJam>, factory: F) -> RunResult
    where
        P: SparseProtocol,
        F: FnMut(&mut SimRng) -> P,
    {
        self.last = tsc();
        scenario.run_sparse_hooked(factory, self)
    }
}

fn lsb(_: &mut SimRng) -> LowSensing {
    LowSensing::new(Params::default())
}

/// Profiles seeds `1..=reps` of `scenario` under `LowSensing`.
fn profile_reps(scenario: &Scenario<Batch, NoJam>, reps: u64) -> (SmokeProfile, CapacityProbe) {
    let mut profiler = Profiler::default();
    let mut accesses = 0u64;
    for seed in 1..=reps {
        accesses += profiler.run(&scenario.seeded(seed), lsb).totals.accesses();
    }
    let smoke = SmokeProfile {
        profile: profiler.profile,
        accesses,
        reps,
    };
    (smoke, profiler.capacity)
}

/// Profiles the standard smoke workload (`sparse_lsb_16384` shape with
/// `packets` packets): one discarded warm-up, then `reps` measured seeds.
pub fn profile_sparse_smoke(packets: u64, reps: u64) -> SmokeProfile {
    let scenario = scenarios::batch_drain(packets).totals_only();
    Profiler::default().run(&scenario.seeded(0), lsb);
    profile_reps(&scenario, reps).0
}

/// Profiles the no-CD smoke workload (`sparse_lsb_16384_nocd` shape):
/// `packets` LSB stations on the no-collision-detection channel, horizon
/// capped at `until_slot` because LSB livelocks there, one discarded
/// warm-up, then `reps` measured seeds. Its accesses are ~44% sends, so
/// it is the profile where the split and the losing-sender cohort carry
/// real weight.
pub fn profile_sparse_nocd(packets: u64, until_slot: Slot, reps: u64) -> SmokeProfile {
    let scenario = scenarios::nocd_batch(packets)
        .totals_only()
        .until_slot(until_slot);
    Profiler::default().run(&scenario.seeded(0), lsb);
    profile_reps(&scenario, reps).0
}

/// Profiles the million-station capacity workload: `stations` stations
/// batch-injected at slot 0, horizon capped at `until_slot`, `reps`
/// measured seeds (no warm-up — at this scale one rep amortizes its own
/// cache warming). Returns the phase profile plus the [`CapacityProbe`]
/// peaks sampled across all reps.
pub fn profile_sparse_capacity(
    stations: u64,
    until_slot: Slot,
    reps: u64,
) -> (SmokeProfile, CapacityProbe) {
    let scenario = scenarios::batch_drain(stations)
        .totals_only()
        .until_slot(until_slot);
    profile_reps(&scenario, reps)
}

/// Samples the opening of the capacity workload (`stations` stations
/// batch-injected at slot 0, seed `seed`) at every event slot: one run
/// capped at slot [`OPENING_EVENT_SLOTS`].
pub fn probe_opening_capacity(stations: u64, seed: u64) -> OpeningProbe {
    let scenario = scenarios::batch_drain(stations)
        .totals_only()
        .until_slot(OPENING_EVENT_SLOTS)
        .seeded(seed);
    let mut probe = OpeningProbe::default();
    scenario.run_sparse_hooked(lsb, &mut probe);
    probe
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowsense_sim::engine::STAGE_MIN_LANE_BYTES;

    type Factory = fn(&mut SimRng) -> LowSensing;

    /// Stations in the staged case: 600k 8-byte states are a 4.8 MB lane.
    const STAGED_STATIONS: u64 = 600_000;

    /// A direct-path run and a staged one, each with its protocol factory.
    fn cases() -> [(Scenario<Batch, NoJam>, Factory); 2] {
        // The staged case must clear the lane gate, or it would silently
        // run the direct path.
        let lane = STAGED_STATIONS as usize * std::mem::size_of::<LowSensing>();
        assert!(lane >= STAGE_MIN_LANE_BYTES, "{lane} B lane");
        [
            // Below the staging gate: 512 states are an 8 KiB lane.
            (scenarios::batch_drain(512).seeded(3), lsb),
            // Past it, and a 64-slot starting window puts over 200k
            // participants in each early slot.
            (
                scenarios::high_fanout_batch(STAGED_STATIONS, 4).seeded(3),
                |_| LowSensing::with_window(Params::default(), 64.0),
            ),
        ]
    }

    #[test]
    fn profiled_runs_match_run_sparse_bit_for_bit() {
        for (scenario, factory) in cases() {
            let hooked = Profiler::default().run(&scenario, factory);
            let bare = scenario.run_sparse(factory);
            // Debug prints every f64 in shortest round-trip form, so equal
            // strings mean equal bits.
            assert_eq!(
                format!("{hooked:?}"),
                format!("{bare:?}"),
                "{}",
                scenario.name()
            );
        }
    }

    #[test]
    fn staged_phases_accrue_only_on_staged_runs() {
        let [direct, staged] = cases().map(|(scenario, factory)| {
            let mut profiler = Profiler::default();
            profiler.run(&scenario, factory);
            profiler.profile.cycles
        });
        for phase in Phase::ALL {
            let i = phase as usize;
            if matches!(phase, Phase::Gather | Phase::Scatter) {
                assert_eq!(direct[i], 0, "{}", phase.slug());
                assert!(staged[i] > 0, "{}", phase.slug());
            } else {
                assert!(direct[i] > 0, "{}", phase.slug());
            }
        }
    }

    #[test]
    fn marks_arrive_in_phase_order_each_slot() {
        struct Marks(Vec<Phase>);
        impl<P> Hooks<P> for Marks {
            fn on_phase(&mut self, phase: Phase) {
                self.0.push(phase);
            }
        }
        for (scenario, factory) in cases() {
            let mut marks = Marks(Vec::new());
            scenario.run_sparse_hooked(factory, &mut marks);
            let marks = marks.0;
            assert_eq!(marks.first(), Some(&Phase::Control), "{}", scenario.name());
            for pair in marks.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                // Within a slot the phases ascend; a new slot opens with
                // `control` after a full slot's `depart` or an
                // arrival-only slot's `resolve`.
                let next_slot = b == Phase::Control && matches!(a, Phase::Depart | Phase::Resolve);
                assert!(a < b || next_slot, "{}: {a:?} then {b:?}", scenario.name());
            }
        }
    }

    #[test]
    fn opening_probe_samples_every_opening_slot() {
        // 4096 stations keep every one of the first 256 slots busy.
        let probe = probe_opening_capacity(4096, 1);
        assert_eq!(probe.samples, OPENING_EVENT_SLOTS);
        assert!((1..=OPENING_EVENT_SLOTS).contains(&probe.peak_event_slot));
        assert!(probe.peak_bytes_per_station > 0.0);
        assert!(probe.peak_stage_bytes > 0);
    }
}
