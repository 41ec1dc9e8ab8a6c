//! Backlog monitor: an "infinite" adversarial-queuing stream in steady state.
//!
//! Corollary 1.5 in action: with arrival rate λ and granularity S, the
//! number of packets in the system stays O(S) forever — the system is
//! *stable* in the adversarial-queuing-theory sense. We run a long stream,
//! print a backlog timeline, and show the bound holding at several
//! granularities.
//!
//! ```text
//! cargo run --release -p lowsense-experiments --example backlog_monitor
//! ```

use lowsense::{LowSensing, Params};
use lowsense_sim::prelude::*;

fn main() {
    let s = 256u64;
    let horizon = 400 * s;
    println!(
        "adversarial-queuing stream: λ_arr=0.12 bursts + λ_jam=0.04, S={s}, horizon {horizon}\n"
    );

    // One scenario value describes the whole workload; it is reused (with a
    // longer horizon) for the scale-invariance check below.
    let scenario = scenarios::queuing_jammed(0.12, 0.04, s)
        .until_slot(horizon)
        .series(1.35)
        .seed(11);
    let result = scenario.run_sparse(|_rng| LowSensing::new(Params::default()));

    println!("backlog timeline (log-spaced checkpoints):");
    println!(
        "{:>10}  {:>8}  {:>10}  backlog",
        "slot", "backlog", "implicit_tp"
    );
    for p in result.series.iter().filter(|p| p.totals.active_slots >= 64) {
        let bar = "#".repeat((p.backlog as usize / 4).min(60));
        println!(
            "{:>10}  {:>8}  {:>10.3}  {bar}",
            p.slot,
            p.backlog,
            p.totals.implicit_throughput()
        );
    }

    let t = &result.totals;
    println!("\nsteady state over {} active slots:", t.active_slots);
    println!("  arrivals {}, delivered {}", t.arrivals, t.successes);
    println!(
        "  max backlog {} = {:.2}·S   (paper: O(S) w.h.p. — Corollary 1.5)",
        t.max_backlog,
        t.max_backlog as f64 / s as f64
    );
    println!(
        "  implicit throughput {:.3}   (paper: Ω(1) — Theorem 1.3)",
        t.implicit_throughput()
    );

    // The bound scales with S, not with time: double the horizon, same backlog.
    let double = scenario
        .clone()
        .until_slot(2 * horizon)
        .run_sparse(|_rng| LowSensing::new(Params::default()));
    println!(
        "  …and at 2× the horizon the max backlog is {} — bounded by S, not by time",
        double.totals.max_backlog
    );
}
