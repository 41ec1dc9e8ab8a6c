//! Perf smoke target: slots/second per engine, machine readable.
//!
//! ```text
//! cargo bench -p lowsense-bench --bench smoke
//! ```
//!
//! Runs one representative scenario per engine and writes
//! `BENCH_engine.json` (at the workspace root) with slots-per-second and
//! accesses-per-second figures, so successive PRs have a perf trajectory
//! to compare against. Schema 3 added a `campaign` section timing the tiny
//! face-off sweep (cells per second on the shard pool); schema 4 added a
//! `phases` section with the sparse loop's cycle profile (see the `phases`
//! bench — same profiler, embedded here so CI can gate on `cyc_per_access`
//! and the per-phase shares); schema 5 adds the million-station capacity
//! tier `sparse_lsb_1M` (n = 10^6 batch-injected, short horizon) and a
//! `capacity` section with its measured bytes-per-station budget — engine
//! overhead only (wake wheel + table bookkeeping lanes + per-slot buffers),
//! with protocol state reported separately; schema 6 adds the
//! channel-model smoke entry `sparse_lsb_16384_nocd` (the same
//! LSB batch on the no-collision-detection channel, horizon capped because
//! full-sensing LSB livelocks there — the entry times the model dispatch
//! path, not a drain); schema 7 adds the mid-tier `sparse_lsb_100k`
//! (engine + phases entries, tracking the scaling curve between 16384 and
//! 1M), grows the phase shares from 10 to 13 slugs (the staged
//! gather/scatter path's `permute`/`gather`/`scatter`), and breaks the
//! engine's per-slot buffers (participant lists, positions, wakes, stage
//! plan and state scratch) out as `stage_bytes` in the capacity section;
//! schema 8 moves the mid tier to `sparse_lsb_300k`, since `LowSensing`
//! shrank to 16 B and 100k states no longer clear the 4 MiB staging gate;
//! schema 9 folds the `observe`, `wake` and `sched` slugs into one
//! `listeners` slug (11 shares, not 13: the listener cohort is one sweep)
//! and adds a `phases` entry for `sparse_lsb_16384_nocd`, the profiled
//! tier where senders are a large share of the accesses; schema 10 moves
//! the mid tier to `sparse_lsb_600k`, since `LowSensing` shrank to 8 B and
//! 300k states no longer clear the staging gate, adds an untimed
//! `cyc_per_access` to every `engines` entry (TSC cycles over the same
//! window as `seconds`, so each profiled tier has an untimed figure on the
//! same scenario; the 600k and 1M profiles run seed 1 of the entries'
//! seeds 1–2), and adds the 1M tier's every-slot opening peak
//! (`opening_bytes_per_station`, at event slot `opening_peak_event_slot`,
//! with the per-slot buffers' `opening_stage_bytes` there) to `capacity`;
//! schema 11 drops the `permute` slug (10 shares: the engine's participant
//! list is the stage plan's own, so no copy sits before the gather) and
//! adds each `engines` entry's rep count and the median and median
//! absolute deviation of its per-rep untimed `cyc_per_access`, so a
//! tier's noise can be read beside its aggregate.
//!
//! The `phases` and `capacity` entries come from the profiling hook set in
//! `lowsense_bench::profile`, attached to the production sparse loop
//! through `Scenario::run_sparse_hooked`. `capacity.state_bytes` is the
//! peak live count times `size_of::<LowSensing>()`:
//!
//! ```json
//! {
//!   "schema": "lowsense-bench-engine/11",
//!   "engines": { "<name>": { "slots": N, "seconds": S, "slots_per_sec": R,
//!                            "accesses": A, "accesses_per_sec": Q,
//!                            "cyc_per_access": Y, "reps": K,
//!                            "cyc_per_access_median": M,
//!                            "cyc_per_access_mad": D } },
//!   "campaign": { "<name>": { "cells": C, "runs": U, "seconds": S,
//!                             "cells_per_sec": R } },
//!   "phases": { "<name>": { "accesses": A, "cyc_per_access": X,
//!                           "shares": { "<slug>": F, ... } } },
//!   "capacity": { "<name>": { "stations": N, "horizon": H,
//!                             "engine_bytes": B, "state_bytes": SB,
//!                             "stage_bytes": GB,
//!                             "bytes_per_station": X, "samples": K,
//!                             "opening_bytes_per_station": O,
//!                             "opening_peak_event_slot": E,
//!                             "opening_stage_bytes": OB } }
//! }
//! ```
//!
//! `slots` and `slots_per_sec` are kept for trajectory continuity with the
//! schema/1 files of earlier PRs, but **engine comparisons should use
//! `accesses_per_sec`**: the event-driven engines account silent gap slots
//! at `O(1)` per gap, so a workload that backs off further (e.g. the
//! jammed entry) inflates its slot count with nearly-free skipped slots,
//! while a channel access costs the same work in every run. Accesses are
//! the engines' real unit of work (see docs/ARCHITECTURE.md).

use std::io::Write as _;
use std::time::Instant;

use lowsense::{LowSensing, Params};
use lowsense_baselines::{CjpConfig, CjpMwu};
use lowsense_bench::profile::{
    probe_opening_capacity, profile_sparse_capacity, profile_sparse_nocd, profile_sparse_smoke,
    tsc, SmokeProfile, OPENING_EVENT_SLOTS,
};
use lowsense_experiments::campaigns;
use lowsense_sim::engine::STAGE_MIN_LANE_BYTES;
use lowsense_sim::hooks::Phase;
use lowsense_sim::metrics::RunResult;
use lowsense_sim::scenario::scenarios;
use lowsense_stats::median;

const REPS: u64 = 5;
/// The capacity tier: a million stations batch-injected, horizon capped so
/// the smoke target stays a smoke target (the wheel makes the horizon
/// cheap; station count is what this tier stresses).
const CAP_STATIONS: u64 = 1_000_000;
const CAP_HORIZON: u64 = 100_000;
/// The mid tier between the 16384 drain and the 1M capacity tier: past the
/// staged gather/scatter gate (a 4.8 MB lane of 8 B states), same horizon
/// cap as the 1M tier so cyc/access figures are comparable.
const MID_STATIONS: u64 = 600_000;
/// Fewer reps at capacity scale — one warm-up plus two measured seeds.
const CAP_REPS: u64 = 2;
const NOCD_HORIZON: u64 = 10_000;
const NOCD_REPS: u64 = 2;
// Benches run with CWD = the package dir; anchor the report at the
// workspace root so its location does not depend on how cargo was invoked.
const OUT_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");

struct Sample {
    name: &'static str,
    slots: u64,
    accesses: u64,
    seconds: f64,
    /// TSC cycles summed over the measured reps.
    cycles: u64,
    /// Each measured rep's untimed cycles per access, in seed order.
    rep_cyc_per_access: Vec<f64>,
}

impl Sample {
    fn slots_per_sec(&self) -> f64 {
        self.slots as f64 / self.seconds.max(1e-12)
    }

    fn accesses_per_sec(&self) -> f64 {
        self.accesses as f64 / self.seconds.max(1e-12)
    }

    /// Untimed cycles per access: no phase marks in the loop, unlike the
    /// `phases` profiles.
    fn cyc_per_access(&self) -> f64 {
        self.cycles as f64 / self.accesses.max(1) as f64
    }

    /// Median and median absolute deviation of the per-rep cycles per
    /// access.
    fn cyc_per_access_spread(&self) -> (f64, f64) {
        let mid = median(&self.rep_cyc_per_access);
        let dev: Vec<f64> = self
            .rep_cyc_per_access
            .iter()
            .map(|x| (x - mid).abs())
            .collect();
        (mid, median(&dev))
    }
}

/// Times `reps` runs of `run`, counting simulated (active) slots and
/// channel accesses (sends + listens, the engines' real unit of work).
fn measure_reps(name: &'static str, reps: u64, mut run: impl FnMut(u64) -> RunResult) -> Sample {
    // Warm-up run; result intentionally discarded.
    let _ = run(0);
    let start = Instant::now();
    let mut slots = 0u64;
    let mut accesses = 0u64;
    let mut cycles = 0u64;
    let mut rep_cyc_per_access = Vec::with_capacity(reps as usize);
    for seed in 1..=reps {
        let t0 = tsc();
        let totals = run(seed).totals;
        let rep_cycles = tsc().wrapping_sub(t0);
        slots += totals.active_slots;
        accesses += totals.accesses();
        cycles += rep_cycles;
        rep_cyc_per_access.push(rep_cycles as f64 / totals.accesses().max(1) as f64);
    }
    Sample {
        name,
        slots,
        accesses,
        seconds: start.elapsed().as_secs_f64(),
        cycles,
        rep_cyc_per_access,
    }
}

/// [`measure_reps`] at the standard `REPS`.
fn measure(name: &'static str, run: impl FnMut(u64) -> RunResult) -> Sample {
    measure_reps(name, REPS, run)
}

fn main() {
    // The mid tier exists to profile the staged path (CI checks that its
    // staged phases accrue): fail here, before any timing, if a smaller
    // protocol state drops its lane under the gate.
    let mid_lane = MID_STATIONS as usize * std::mem::size_of::<LowSensing>();
    assert!(
        mid_lane >= STAGE_MIN_LANE_BYTES,
        "mid tier lane {mid_lane} B is under the staging gate"
    );
    let samples = vec![
        measure("dense_lsb_512", |seed| {
            scenarios::batch_drain(512)
                .totals_only()
                .seeded(seed)
                .run_dense(|_| LowSensing::new(Params::default()))
        }),
        measure("sparse_lsb_16384", |seed| {
            scenarios::batch_drain(16_384)
                .totals_only()
                .seeded(seed)
                .run_sparse(|_| LowSensing::new(Params::default()))
        }),
        // The retained heap-based loop on the identical workload, so every
        // BENCH_engine.json records the old-vs-new sparse ratio directly
        // (the two runs are bit-identical, making slots/sec comparable).
        measure("sparse_ref_lsb_16384", |seed| {
            scenarios::batch_drain(16_384)
                .totals_only()
                .seeded(seed)
                .run_sparse_reference(|_| LowSensing::new(Params::default()))
        }),
        measure("sparse_lsb_16384_jammed", |seed| {
            scenarios::random_jam_batch(16_384, 0.2)
                .totals_only()
                .seeded(seed)
                .run_sparse(|_| LowSensing::new(Params::default()))
        }),
        // The reference loop on the jammed workload too, so the CI
        // bit-exactness canary covers a jam-feedback path (back-offs, gap
        // jam counting) and not only the clean drain.
        measure("sparse_ref_lsb_16384_jammed", |seed| {
            scenarios::random_jam_batch(16_384, 0.2)
                .totals_only()
                .seeded(seed)
                .run_sparse_reference(|_| LowSensing::new(Params::default()))
        }),
        // The no-CD channel entry: the same LSB batch with collisions
        // reported as silence. LSB never drains here (it walks the wrong
        // way and livelocks at maximum aggression), so the horizon is hard
        // capped and fewer reps suffice — the entry exists to time the
        // feedback-model dispatch in the slot loop, and to keep a perf
        // trajectory for the non-ternary resolve path.
        measure_reps("sparse_lsb_16384_nocd", NOCD_REPS, |seed| {
            scenarios::nocd_batch(16_384)
                .totals_only()
                .until_slot(NOCD_HORIZON)
                .seeded(seed)
                .run_sparse(|_| LowSensing::new(Params::default()))
        }),
        // The mid tier: 6·10^5 stations, the first smoke point whose state
        // lane overflows the cache and runs the staged gather/scatter
        // path. Tracks the scaling curve between the in-cache 16384 drain
        // and the 1M capacity tier.
        measure_reps("sparse_lsb_600k", CAP_REPS, |seed| {
            scenarios::batch_drain(MID_STATIONS)
                .totals_only()
                .until_slot(CAP_HORIZON)
                .seeded(seed)
                .run_sparse(|_| LowSensing::new(Params::default()))
        }),
        // The capacity tier: 10^6 stations on the hierarchical wheel, horizon
        // capped. Stresses station count (queue fill, table lanes, cascade
        // traffic), not horizon length.
        measure_reps("sparse_lsb_1M", CAP_REPS, |seed| {
            scenarios::batch_drain(CAP_STATIONS)
                .totals_only()
                .until_slot(CAP_HORIZON)
                .seeded(seed)
                .run_sparse(|_| LowSensing::new(Params::default()))
        }),
        measure("grouped_cjp_4096", |seed| {
            scenarios::batch_drain(4096)
                .totals_only()
                .seeded(seed)
                .run_grouped(|_| CjpMwu::new(CjpConfig::default()))
        }),
    ];

    // The campaign smoke entry: the tiny face-off sweep (the same spec the
    // CI determinism canary runs), timed end to end on the shard pool —
    // cells/sec is the sweep layer's unit of work.
    let campaign_spec = campaigns::faceoff_small_spec(42);
    let _warm = campaign_spec.run();
    let campaign_start = Instant::now();
    let campaign_reps = 3u32;
    for _ in 0..campaign_reps {
        let result = campaign_spec.run();
        assert_eq!(result.cells.len(), campaign_spec.cell_count());
    }
    let campaign_seconds = campaign_start.elapsed().as_secs_f64();
    let campaign_cells = campaign_spec.cell_count() as u64 * campaign_reps as u64;
    let campaign_runs = campaign_spec.unit_count() as u64 * campaign_reps as u64;
    let cells_per_sec = campaign_cells as f64 / campaign_seconds.max(1e-12);

    // The cycle profile of the sparse hot loop, from the same profiling
    // hook set the `phases` bench prints.
    let phase_profile = profile_sparse_smoke(16_384, 5);

    // The same hook set on the no-CD entry's run: there LSB livelocks with
    // a large share of its accesses as sends, so this is the profile that
    // shows the split and the losing-sender cohort.
    let nocd_profile = profile_sparse_nocd(16_384, NOCD_HORIZON, NOCD_REPS);

    // The mid tier's phase profile: the first point where the staged
    // gather/scatter slugs accrue cycles (one seed; the memory
    // peaks are unused here).
    let (mid_profile, _) = profile_sparse_capacity(MID_STATIONS, CAP_HORIZON, 1);

    // The capacity tier's phase profile and memory budget (one seed).
    let (cap_profile, cap_probe) = profile_sparse_capacity(CAP_STATIONS, CAP_HORIZON, 1);
    assert!(
        cap_probe.peak_live >= CAP_STATIONS / 2,
        "capacity probe sampled only {} live stations",
        cap_probe.peak_live
    );

    // The capacity tier's opening at every event slot, where its
    // per-station peak sits (the period-1024 samples above step over it).
    let opening = probe_opening_capacity(CAP_STATIONS, 1);
    assert_eq!(
        opening.samples, OPENING_EVENT_SLOTS,
        "the opening probe missed event slots"
    );

    let mut json =
        String::from("{\n  \"schema\": \"lowsense-bench-engine/11\",\n  \"engines\": {\n");
    for (i, s) in samples.iter().enumerate() {
        let sep = if i + 1 == samples.len() { "" } else { "," };
        let (mid, mad) = s.cyc_per_access_spread();
        json.push_str(&format!(
            "    \"{}\": {{ \"slots\": {}, \"seconds\": {:.6}, \"slots_per_sec\": {:.1}, \
             \"accesses\": {}, \"accesses_per_sec\": {:.1}, \"cyc_per_access\": {:.3}, \
             \"reps\": {}, \"cyc_per_access_median\": {:.3}, \"cyc_per_access_mad\": {:.3} }}{sep}\n",
            s.name,
            s.slots,
            s.seconds,
            s.slots_per_sec(),
            s.accesses,
            s.accesses_per_sec(),
            s.cyc_per_access(),
            s.rep_cyc_per_access.len(),
            mid,
            mad
        ));
    }
    json.push_str("  },\n  \"campaign\": {\n");
    json.push_str(&format!(
        "    \"campaign_faceoff_small\": {{ \"cells\": {}, \"runs\": {}, \"seconds\": {:.6}, \
         \"cells_per_sec\": {:.1} }}\n",
        campaign_cells, campaign_runs, campaign_seconds, cells_per_sec
    ));
    json.push_str("  },\n  \"phases\": {\n");
    let push_phases = |json: &mut String, name: &str, p: &SmokeProfile, sep: &str| {
        json.push_str(&format!(
            "    \"{name}\": {{ \"accesses\": {}, \"cyc_per_access\": {:.2}, \"shares\": {{ ",
            p.accesses,
            p.cyc_per_access()
        ));
        let shares: Vec<String> = Phase::ALL
            .iter()
            .map(|&phase| format!("\"{}\": {:.4}", phase.slug(), p.profile.share(phase)))
            .collect();
        json.push_str(&shares.join(", "));
        json.push_str(&format!(" }} }}{sep}\n"));
    };
    push_phases(&mut json, "sparse_lsb_16384", &phase_profile, ",");
    push_phases(&mut json, "sparse_lsb_16384_nocd", &nocd_profile, ",");
    push_phases(&mut json, "sparse_lsb_600k", &mid_profile, ",");
    push_phases(&mut json, "sparse_lsb_1M", &cap_profile, "");
    json.push_str("  },\n  \"capacity\": {\n");
    json.push_str(&format!(
        "    \"sparse_lsb_1M\": {{ \"stations\": {}, \"horizon\": {}, \"engine_bytes\": {}, \
         \"state_bytes\": {}, \"stage_bytes\": {}, \"bytes_per_station\": {:.2}, \"samples\": {}, \
         \"opening_bytes_per_station\": {:.2}, \"opening_peak_event_slot\": {}, \
         \"opening_stage_bytes\": {} }}\n",
        cap_probe.peak_live,
        CAP_HORIZON,
        cap_probe.peak_engine_bytes,
        cap_probe.state_bytes(),
        cap_probe.peak_stage_bytes,
        cap_probe.bytes_per_station(),
        cap_probe.samples,
        opening.peak_bytes_per_station,
        opening.peak_event_slot,
        opening.peak_stage_bytes
    ));
    json.push_str("  }\n}\n");

    for s in &samples {
        println!(
            "smoke: {:<28} {:>12} slots in {:>8.3}s  ({:>12.0} slots/sec, {:>12.0} accesses/sec, {:.1} cyc/access)",
            s.name,
            s.slots,
            s.seconds,
            s.slots_per_sec(),
            s.accesses_per_sec(),
            s.cyc_per_access()
        );
    }
    println!(
        "smoke: {:<28} {:>12} cells in {:>8.3}s  ({:>12.1} cells/sec, {} runs)",
        "campaign_faceoff_small", campaign_cells, campaign_seconds, cells_per_sec, campaign_runs
    );
    for (name, p) in [
        ("phases_sparse_lsb_16384", &phase_profile),
        ("phases_sparse_lsb_16384_nocd", &nocd_profile),
    ] {
        println!(
            "smoke: {:<28} {:>12} accesses  ({:.1} cyc/access; split {:.1}%, listeners {:.1}%, senders {:.1}%)",
            name,
            p.accesses,
            p.cyc_per_access(),
            100.0 * p.profile.share(Phase::Split),
            100.0 * p.profile.share(Phase::Listeners),
            100.0 * p.profile.share(Phase::Senders),
        );
    }
    println!(
        "smoke: {:<28} {:>12} accesses  ({:.1} cyc/access; gather {:.1}%, scatter {:.1}%)",
        "phases_sparse_lsb_600k",
        mid_profile.accesses,
        mid_profile.cyc_per_access(),
        100.0 * mid_profile.profile.share(Phase::Gather),
        100.0 * mid_profile.profile.share(Phase::Scatter),
    );
    println!(
        "smoke: {:<28} {:>12} accesses  ({:.1} cyc/access; {:.1} engine B/station; \
         opening peak {:.2} at event slot {})",
        "capacity_sparse_lsb_1M",
        cap_profile.accesses,
        cap_profile.cyc_per_access(),
        cap_probe.bytes_per_station(),
        opening.peak_bytes_per_station,
        opening.peak_event_slot,
    );
    let mut f = std::fs::File::create(OUT_FILE).expect("create BENCH_engine.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_engine.json");
    println!("smoke: wrote BENCH_engine.json");
}
