//! # lowsense-campaign — deterministic sharded parameter sweeps
//!
//! The paper's claims are statements about *distributions* over runs, so
//! reproducing them means sweeping grids — scenario knobs × protocols ×
//! seeds — at whatever scale the hardware allows. This crate is the
//! first-class sweep engine: a declarative [`CampaignSpec`] expands to
//! grid cells, every `(cell, replicate)` run gets a seed derived by the
//! documented SplitMix64 scheme ([`seed::cell_seed`]), cells execute on a
//! work-stealing shard pool ([`pool`]), and results fold through the
//! mergeable accumulators of `lowsense-stats` into a [`CampaignResult`]
//! whose JSON artifact is **byte-identical for any shard count**.
//!
//! ```
//! use lowsense_campaign::CampaignSpec;
//! use lowsense_sim::prelude::*;
//!
//! #[derive(Clone)]
//! struct Aloha(f64);
//! impl Protocol for Aloha {
//!     fn intent(&mut self, rng: &mut SimRng) -> Intent {
//!         if rng.bernoulli(self.0) { Intent::Send } else { Intent::Sleep }
//!     }
//!     fn observe(&mut self, _obs: &Observation) {}
//!     fn send_probability(&self) -> f64 { self.0 }
//!     fn next_wake(&mut self, rng: &mut SimRng) -> Option<u64> {
//!         Some(lowsense_sim::dist::geometric(rng, self.0))
//!     }
//! }
//! impl SparseProtocol for Aloha {
//!     fn send_on_access(&mut self, _rng: &mut SimRng) -> bool { true }
//! }
//!
//! // The three-line sweep: axes × replicates, then run.
//! let result = CampaignSpec::new("aloha-batch").seed(7).replicates(3)
//!     .scenarios((4..=6).map(|k| scenarios::batch_drain(1 << k).boxed()))
//!     .protocol("aloha", |sc, _| sc.run_sparse(|_| Aloha(0.05)))
//!     .run();
//!
//! assert_eq!(result.cells.len(), 3);
//! assert_eq!(result.cell(0, 0).stats.runs, 3);
//! // Sharding never changes the outcome — not even by a bit.
//! assert_eq!(result.to_json(), result.to_json());
//! assert_eq!(result, result.clone());
//! let serial = CampaignSpec::new("aloha-batch").seed(7).replicates(3)
//!     .scenarios((4..=6).map(|k| scenarios::batch_drain(1 << k).boxed()))
//!     .protocol("aloha", |sc, _| sc.run_sparse(|_| Aloha(0.05)))
//!     .run_serial();
//! assert_eq!(serial.to_json(), result.to_json());
//! ```
//!
//! ## Module map
//!
//! * [`spec`] — the builder: scenario axis, protocol axis, knobs, custom
//!   metrics, replicates, campaign seed.
//! * [`seed`] — the `(campaign_seed, cell_index, replicate)` → run-seed
//!   derivation and its collision argument.
//! * [`pool`] — the work-stealing shard pool (also the executor behind
//!   [`shard_map`] for jobs that are not campaign cells).
//! * [`cell`] — mergeable per-cell statistics (exact integer sums +
//!   `Welford`/sketch/histogram accumulators).
//! * [`exec`] — serial reference and sharded executors, plus the
//!   determinism argument tying them together.
//! * [`progress`] — live progress reporting (stderr line + JSONL event
//!   stream) over a bounded worker → reporter channel, guaranteed unable
//!   to perturb results.
//! * [`artifact`] — `CAMPAIGN_<name>.json` (schema `lowsense-campaign/2`)
//!   and the human table.
//! * [`table`] — the aligned text/CSV [`Table`](table::Table) that the
//!   human table and every experiment of `lowsense-experiments` render
//!   through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cell;
pub mod exec;
pub mod pool;
pub mod progress;
pub mod seed;
pub mod spec;
pub mod table;

pub use cell::CellStats;
pub use exec::{CampaignResult, CellReport};
pub use pool::{shard_map, shard_map_with};
pub use progress::{ProgressConfig, PROGRESS_SCHEMA};
pub use spec::{CampaignSpec, MetricSpec, ProtocolSpec, ScenarioPoint};
