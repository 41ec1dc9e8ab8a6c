//! Simulation engines.
//!
//! Three engines share one semantics (the model of paper §1.1) and one
//! substrate: every engine is a *stepping strategy* over the shared
//! crate-private `EngineCore` (`engine/core.rs`), which owns the RNG,
//! arrival cursor, jamming decision order, slot resolution and metrics.
//! The strategies differ only in their per-packet bookkeeping and slot
//! visit order, and every one stops when the run drains or passes the slot
//! horizon [`SimConfig::max_slot`](crate::config::SimConfig::max_slot):
//!
//! * [`dense`] — slot-by-slot reference engine, `O(packets)` per slot. The
//!   oracle the others are validated against.
//! * [`sparse`] — event-driven engine for [`SparseProtocol`] implementations:
//!   a hierarchical timing-wheel wake set ([`wake`]) makes a channel access
//!   `O(1)` amortized out to million-station horizons, per-packet state
//!   lives in an epoch-compacted dense table ([`table`]) split into
//!   per-field lanes, silent slots are skipped exactly, and high-fanout
//!   slots over cache-busting state lanes run the staged gather/scatter
//!   path ([`stage`]). Slots are processed in insertion order on either
//!   path — staging moves memory traffic into prefetched sweeps, never the
//!   processing order.
//! * [`sparse_reference`] — the retained heap-based sparse loop, keyed
//!   `(slot, insertion_seq)`; the bit-for-bit equivalence oracle for
//!   [`sparse`].
//! * [`wake_flat`] — the retained flat calendar ring (the PR 2–6 production
//!   wake set), now a second oracle: [`sparse::run_sparse_flat`] runs the
//!   *same* generic sparse loop over it, so the wheel is pinned against a
//!   structurally different queue as well as a different loop.
//! * [`grouped`] — cohort engine for [`SymmetricProtocol`] baselines that
//!   listen every slot, `O(groups)` per slot.
//!
//! Every engine loop is additionally generic over a
//! [`FeedbackModel`](crate::feedback::FeedbackModel). Each engine has one
//! public `run_*` entry point, which reads the run's
//! [`ChannelModel`](crate::feedback::ChannelModel) from
//! [`SimConfig::model`](crate::config::SimConfig::model) and dispatches
//! once per run to the monomorphized loop body, never in the slot loop.
//!
//! Most code should not call the `run_*` entry points directly but go
//! through the [scenario layer](crate::scenario), which composes arrivals,
//! jamming, the horizon, metrics, and the channel model into named, reusable
//! run descriptions.
//!
//! [`SparseProtocol`]: crate::protocol::SparseProtocol
//! [`SymmetricProtocol`]: grouped::SymmetricProtocol

pub(crate) mod core;
pub mod dense;
pub mod grouped;
pub mod sparse;
pub mod sparse_reference;
pub mod stage;
pub mod table;
pub mod wake;
pub mod wake_flat;

pub use dense::run_dense;
pub use grouped::{run_grouped, SymmetricProtocol};
pub use sparse::{run_sparse, run_sparse_flat};
pub use sparse_reference::run_sparse_reference;
pub use stage::{staging_applies, StagePlan, STAGE_MIN_LANE_BYTES, STAGE_MIN_PARTICIPANTS};
pub use table::{Dense, PacketTable};
pub use wake::WakeQueue;
pub use wake_flat::FlatWakeQueue;
