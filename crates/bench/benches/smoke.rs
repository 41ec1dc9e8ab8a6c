//! Perf smoke ledger: the workspace's one in-tree timing harness, machine
//! readable.
//!
//! ```text
//! cargo bench -p lowsense-bench --bench smoke
//! ```
//!
//! Runs one representative scenario per engine, the exact samplers, a
//! face-off campaign grid and every registry experiment, and writes
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
//! tier's noise can be read beside its aggregate; schema 12 makes the
//! ledger the workspace's one in-tree timing harness: it adds
//! `sparse_lsb_16384_potential` (the 16384 drain with a fresh
//! `PotentialTracker` hooked on per rep, the tracker's cost read against
//! `sparse_lsb_16384` on the same seeds), a `samplers` section (cycles per
//! draw of the exact samplers), and an `experiments` section (the
//! quick-scale wall seconds of every registry experiment); grows the
//! grouped entry to `grouped_cjp_262144`, whose reps took 2–4 ms in all at
//! 4096 stations; and replaces `campaign_faceoff_small` (3 reps in 4–7 ms
//! all told) with one face-off grid timed on 1 and 2 shards, whose serial
//! run lasts over a second. Every spread in the file is `lowsense_stats::mad`.
//!
//! The `phases` and `capacity` entries come from the profiling hook set in
//! `lowsense_bench::profile`, attached to the production sparse loop
//! through `Scenario::run_sparse_hooked`. `capacity.state_bytes` is the
//! peak live count times `size_of::<LowSensing>()`. Each spread record is
//! the rep count `K` and the median and median absolute deviation of one
//! per-rep figure (`..._median`, `..._mad`). A `campaign` entry's `cells`
//! and `runs` count one run of its grid, and its `cells_per_sec` divides
//! the cells by the median seconds:
//!
//! ```json
//! {
//!   "schema": "lowsense-bench-engine/12",
//!   "engines": { "<name>": { "slots": N, "seconds": S, "slots_per_sec": R,
//!                            "accesses": A, "accesses_per_sec": Q,
//!                            "cyc_per_access": Y, "reps": K,
//!                            "cyc_per_access_median": M,
//!                            "cyc_per_access_mad": D } },
//!   "samplers": { "<name>": { "draws": N, "reps": K,
//!                             "cyc_per_draw_median": M,
//!                             "cyc_per_draw_mad": D } },
//!   "campaign": { "<name>": { "cells": C, "runs": U, "reps": K,
//!                             "seconds_median": M, "seconds_mad": D,
//!                             "cells_per_sec": R } },
//!   "experiments": { "<id>": { "reps": K, "seconds_median": M,
//!                              "seconds_mad": D } },
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
//!
//! The grouped entry is the exception: the grouped engine samples each
//! slot's sender count and rebuilds every packet's accesses at departure
//! (`engine/grouped.rs`), so its `accesses` are reconstructed counts
//! (499,246,608,490 over 3,806,305 active slots in its five reps), and
//! its per-access figures compare with no other entry. Its trajectory is
//! `slots_per_sec`.

use std::hint::black_box;
use std::time::Instant;

use lowsense::{LowSensing, Params, PotentialTracker};
use lowsense_baselines::{CjpConfig, CjpMwu};
use lowsense_bench::profile::{
    probe_opening_capacity, profile_sparse_capacity, profile_sparse_nocd, profile_sparse_smoke,
    tsc, OPENING_EVENT_SLOTS,
};
use lowsense_experiments::{campaigns, registry, Scale};
use lowsense_sim::dist::{geometric, Binomial};
use lowsense_sim::engine::STAGE_MIN_LANE_BYTES;
use lowsense_sim::hooks::Phase;
use lowsense_sim::metrics::RunResult;
use lowsense_sim::rng::SimRng;
use lowsense_sim::scenario::scenarios;
use lowsense_stats::{mad, median};

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
/// The grouped batch: 2^18 stations, so its timed reps span well over
/// 0.1 s of work (~50 ms a rep on a 2-vCPU box).
const GROUPED_STATIONS: u64 = 1 << 18;
/// Draws per sampler rep.
const DRAWS: u64 = 1_000_000;
/// Timed reps of the wall-clock entries (the campaign grid and each
/// quick-scale experiment), after one warm-up.
const WALL_REPS: u64 = 3;
/// The campaign entries' face-off grid: batches of 2^6..2^13 stations × 8
/// replicates (48 cells, 384 runs), whose serial run takes 1.5–2.0 s on a
/// 2-vCPU box, well above timer noise.
const CAMPAIGN_MAX_LOG2: u32 = 13;
const CAMPAIGN_REPLICATES: u32 = 8;
// Benches run with CWD = the package dir; anchor the report at the
// workspace root so its location does not depend on how cargo was invoked.
const OUT_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");

/// One timed call: its wall seconds, its TSC cycles and what it returned.
struct Rep<T> {
    seconds: f64,
    cycles: u64,
    out: T,
}

/// The ledger's one timing loop: calls `run(0)` once as a warm-up, then
/// times `run(1..=reps)` one call at a time.
fn time_reps<T>(reps: u64, mut run: impl FnMut(u64) -> T) -> Vec<Rep<T>> {
    let _ = run(0);
    (1..=reps)
        .map(|seed| {
            let start = Instant::now();
            let t0 = tsc();
            let out = run(seed);
            let cycles = tsc().wrapping_sub(t0);
            let seconds = start.elapsed().as_secs_f64();
            Rep {
                seconds,
                cycles,
                out,
            }
        })
        .collect()
}

/// The ledger's one spread record: the rep count, then the median and
/// median absolute deviation of the per-rep `metric`.
fn spread(metric: &str, xs: &[f64]) -> String {
    format!(
        "\"reps\": {}, \"{metric}_median\": {:.6}, \"{metric}_mad\": {:.6}",
        xs.len(),
        median(xs),
        mad(xs)
    )
}

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
}

/// Times `reps` runs of `run`, counting simulated (active) slots and
/// channel accesses (sends + listens, the engines' real unit of work).
fn measure_reps(name: &'static str, reps: u64, mut run: impl FnMut(u64) -> RunResult) -> Sample {
    let reps = time_reps(reps, |seed| run(seed).totals);
    Sample {
        name,
        slots: reps.iter().map(|r| r.out.active_slots).sum(),
        accesses: reps.iter().map(|r| r.out.accesses()).sum(),
        seconds: reps.iter().map(|r| r.seconds).sum(),
        cycles: reps.iter().map(|r| r.cycles).sum(),
        rep_cyc_per_access: reps
            .iter()
            .map(|r| r.cycles as f64 / r.out.accesses().max(1) as f64)
            .collect(),
    }
}

/// [`measure_reps`] at the standard `REPS`.
fn measure(name: &'static str, run: impl FnMut(u64) -> RunResult) -> Sample {
    measure_reps(name, REPS, run)
}

/// Each rep's TSC cycles per draw, over `DRAWS` draws of `draw` a rep.
fn cyc_per_draw(seed: u64, mut draw: impl FnMut(&mut SimRng) -> u64) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    time_reps(REPS, |_| {
        black_box((0..DRAWS).fold(0u64, |acc, _| acc.wrapping_add(draw(&mut rng))))
    })
    .iter()
    .map(|r| r.cycles as f64 / DRAWS as f64)
    .collect()
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
        // The same drain with a fresh potential tracker hooked on: its cost
        // reads against the bare entry on the same seeds, and since an
        // observing hook set never perturbs a run, CI requires the two
        // entries' slots and accesses to match.
        measure("sparse_lsb_16384_potential", |seed| {
            scenarios::batch_drain(16_384)
                .totals_only()
                .seeded(seed)
                .run_sparse_hooked(
                    |_| LowSensing::new(Params::default()),
                    &mut PotentialTracker::default(),
                )
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
        measure("grouped_cjp_262144", |seed| {
            scenarios::batch_drain(GROUPED_STATIONS)
                .totals_only()
                .seeded(seed)
                .run_grouped(|_| CjpMwu::new(CjpConfig::default()))
        }),
    ];

    // The exact samplers (`lowsense_sim::dist`): a geometric gap at
    // p = 0.01, and the binomial in its inversion (BINV, np = 5) and
    // rejection (BTPE, np = 30,000) regimes.
    let binv = Binomial::new(100, 0.05);
    let btpe = Binomial::new(100_000, 0.3);
    let samplers = [
        ("geometric", cyc_per_draw(1, |rng| geometric(rng, 0.01))),
        ("binomial_binv", cyc_per_draw(2, |rng| binv.sample(rng))),
        ("binomial_btpe", cyc_per_draw(3, |rng| btpe.sample(rng))),
    ];

    // One face-off grid timed end to end on 1 and 2 shards: cells/sec is
    // the sweep layer's unit of work, and the pair reads the pool's
    // speed-up.
    let ns: Vec<u64> = (6..=CAMPAIGN_MAX_LOG2).map(|k| 1 << k).collect();
    let grid = campaigns::faceoff_spec(&ns, CAMPAIGN_REPLICATES, 42);
    let campaign: Vec<(usize, Vec<f64>)> = [1, 2]
        .into_iter()
        .map(|shards| {
            let reps = time_reps(WALL_REPS, |_| grid.run_sharded(shards));
            (shards, reps.iter().map(|r| r.seconds).collect())
        })
        .collect();

    // Every registry experiment at quick scale, end to end: the
    // reproduction's own wall time, T4 and A1 included.
    let experiments: Vec<(&str, Vec<f64>)> = registry()
        .iter()
        .map(|e| {
            let reps = time_reps(WALL_REPS, |_| (e.run)(Scale::Quick));
            (e.id, reps.iter().map(|r| r.seconds).collect())
        })
        .collect();

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

    let entry = |key: &str, fields: String| format!("    \"{key}\": {{ {fields} }}");
    let phases = [
        ("sparse_lsb_16384", &phase_profile),
        ("sparse_lsb_16384_nocd", &nocd_profile),
        ("sparse_lsb_600k", &mid_profile),
        ("sparse_lsb_1M", &cap_profile),
    ];
    let sections: [(&str, Vec<String>); 6] = [
        (
            "engines",
            samples
                .iter()
                .map(|s| {
                    // Six decimals: the grouped entry's reconstructed
                    // accesses put its cycles per access near 0.001.
                    let fields = format!(
                        "\"slots\": {}, \"seconds\": {:.6}, \"slots_per_sec\": {:.1}, \
                         \"accesses\": {}, \"accesses_per_sec\": {:.1}, \"cyc_per_access\": {:.6}, {}",
                        s.slots,
                        s.seconds,
                        s.slots_per_sec(),
                        s.accesses,
                        s.accesses_per_sec(),
                        s.cyc_per_access(),
                        spread("cyc_per_access", &s.rep_cyc_per_access)
                    );
                    entry(s.name, fields)
                })
                .collect(),
        ),
        (
            "samplers",
            samplers
                .iter()
                .map(|(key, xs)| {
                    let fields = format!("\"draws\": {DRAWS}, {}", spread("cyc_per_draw", xs));
                    entry(key, fields)
                })
                .collect(),
        ),
        (
            "campaign",
            campaign
                .iter()
                .map(|(shards, xs)| {
                    let fields = format!(
                        "\"cells\": {}, \"runs\": {}, {}, \"cells_per_sec\": {:.1}",
                        grid.cell_count(),
                        grid.unit_count(),
                        spread("seconds", xs),
                        grid.cell_count() as f64 / median(xs)
                    );
                    entry(&format!("faceoff_shards_{shards}"), fields)
                })
                .collect(),
        ),
        (
            "experiments",
            experiments
                .iter()
                .map(|(id, xs)| entry(id, spread("seconds", xs)))
                .collect(),
        ),
        (
            "phases",
            phases
                .iter()
                .map(|(key, p)| {
                    let shares: Vec<String> = Phase::ALL
                        .iter()
                        .map(|&phase| format!("\"{}\": {:.4}", phase.slug(), p.profile.share(phase)))
                        .collect();
                    let fields = format!(
                        "\"accesses\": {}, \"cyc_per_access\": {:.2}, \"shares\": {{ {} }}",
                        p.accesses,
                        p.cyc_per_access(),
                        shares.join(", ")
                    );
                    entry(key, fields)
                })
                .collect(),
        ),
        (
            "capacity",
            vec![entry(
                "sparse_lsb_1M",
                format!(
                    "\"stations\": {}, \"horizon\": {}, \"engine_bytes\": {}, \
                     \"state_bytes\": {}, \"stage_bytes\": {}, \"bytes_per_station\": {:.2}, \
                     \"samples\": {}, \"opening_bytes_per_station\": {:.2}, \
                     \"opening_peak_event_slot\": {}, \"opening_stage_bytes\": {}",
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
                ),
            )],
        ),
    ];
    let body: Vec<String> = sections
        .iter()
        .map(|(name, entries)| format!("  \"{name}\": {{\n{}\n  }}", entries.join(",\n")))
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"lowsense-bench-engine/12\",\n{}\n}}\n",
        body.join(",\n")
    );

    // The report is the ledger itself, one entry a line.
    for (name, entries) in &sections {
        for e in entries {
            println!("smoke: {name}: {}", e.trim_start());
        }
    }
    std::fs::write(OUT_FILE, json).expect("write BENCH_engine.json");
    println!("smoke: wrote BENCH_engine.json");
}
