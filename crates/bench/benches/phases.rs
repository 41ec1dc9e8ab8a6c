//! Phase-by-phase cycle profile of the sparse engine's hot loop.
//!
//! ```text
//! cargo bench -p lowsense-bench --bench phases
//! ```
//!
//! Runs the `sparse_lsb_16384` smoke workload through the production
//! sparse loop with the `lowsense_bench::profile` hook set attached and
//! prints the share of cycles each phase consumes (`Phase` in
//! `lowsense_sim::hooks` documents what each one covers). This is the
//! measurement tool behind the locality work on the sparse engine (see
//! ROADMAP): when a perf target is missed, the recorded breakdown comes
//! from here. The `smoke` bench embeds the same numbers in
//! `BENCH_engine.json`.

use lowsense_bench::profile::profile_sparse_smoke;
use lowsense_sim::hooks::Phase;

const PACKETS: u64 = 16_384;
const REPS: u64 = 5;

fn main() {
    let smoke = profile_sparse_smoke(PACKETS, REPS);
    println!(
        "phases: sparse_lsb_16384, {} reps, {} accesses",
        smoke.reps, smoke.accesses
    );
    println!(
        "phases: {} total cycles, {:.1} per access",
        smoke.profile.total(),
        smoke.cyc_per_access()
    );
    for phase in Phase::ALL {
        println!(
            "phases: {:>5.1}%  {:>7.1} cyc/access  {}",
            100.0 * smoke.profile.share(phase),
            smoke.profile.cycles[phase as usize] as f64 / smoke.accesses.max(1) as f64,
            phase.slug(),
        );
    }
}
