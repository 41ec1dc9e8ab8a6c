//! Shared measurement machinery for the bench targets.
//!
//! The phase profiler here is a `Hooks` implementation attached to the
//! production sparse loop, consumed by two benches: `phases` (the
//! human-readable breakdown) and `smoke` (which records `cyc_per_access`,
//! the per-phase shares and the capacity peaks into `BENCH_engine.json`
//! so CI can gate on them). Both read the same profiler, so they can never
//! disagree about what was measured.

pub mod profile;
