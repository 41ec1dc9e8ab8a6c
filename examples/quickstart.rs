//! Quickstart: resolve a batch of 1000 packets with `LOW-SENSING BACKOFF`.
//!
//! ```text
//! cargo run --release -p lowsense-experiments --example quickstart
//! ```

use lowsense::{theory, LowSensing, Params};
use lowsense_sim::prelude::*;
use lowsense_stats::{tail_summary, Summary};

fn main() {
    let n = 1000u64;
    println!("LOW-SENSING BACKOFF quickstart: batch of {n} packets, no jamming\n");

    // A scenario is a named, reusable run description: arrivals × jammer ×
    // horizon × metrics × seed. The protocol joins at the run call.
    let result = scenarios::batch_drain(n)
        .seed(42)
        .run_sparse(|_rng| LowSensing::new(Params::default()));

    assert!(result.drained(), "all packets must be delivered");
    let t = &result.totals;
    println!("delivered            : {} / {}", t.successes, t.arrivals);
    println!("active slots (S)     : {}", t.active_slots);
    println!(
        "throughput N/S       : {:.3}   (paper: Θ(1) — Corollary 1.4)",
        t.throughput()
    );
    println!(
        "slot mix             : {} empty, {} success, {} collision",
        t.empty_active, t.successes, t.collision_slots
    );

    let accesses = result.access_counts();
    let energy = Summary::of_counts(&accesses);
    let (p50, p90, p99, max) = tail_summary(&accesses);
    println!("\nchannel accesses per packet (sends + listens — the energy measure):");
    println!(
        "  mean {:.1}   p50 {p50}   p90 {p90}   p99 {p99}   max {max}",
        energy.mean
    );
    println!(
        "  paper bound O(ln⁴ N) = {:.0}; an every-slot listener would pay ≈ {} accesses",
        theory::energy_bound_finite(n, 0),
        t.active_slots
    );

    let latency = Summary::of_counts(&result.latencies());
    println!("\nlatency (slots from injection to success):");
    println!("  mean {:.0}   max {:.0}", latency.mean, latency.max);

    println!(
        "\nTry the full reproduction: cargo run --release -p lowsense-experiments --bin repro -- list"
    );
}
