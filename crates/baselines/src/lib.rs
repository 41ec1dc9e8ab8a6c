//! # lowsense-baselines — comparison protocols
//!
//! The protocols `LOW-SENSING BACKOFF` is measured against:
//!
//! | protocol | feedback loop | role |
//! |----------|---------------|------|
//! | [`WindowedBeb`], [`ProbBeb`] | none (oblivious) | the classical baseline; `O(1/ln N)` batch throughput (§1, \[23\]) |
//! | [`PolynomialBackoff`] | none | second oblivious baseline |
//! | [`SlottedAloha`] | none (genie `p = 1/N`) | the `1/e` reference line |
//! | [`CjpMwu`] | **every slot** | short-feedback-loop MWU (\[36\]); constant throughput, `Θ(lifetime)` listens |
//! | [`NoCdBackoff`] | successes + own failures only | robust on the no-collision-detection channel (Jiang–Zheng, arXiv:2111.06650) |
//!
//! All implement the `lowsense-sim` protocol traits and run under the same
//! engines, adversaries, and metrics as the core algorithm. The ablations
//! of the algorithm itself (A2–A4) are not here: they run `lowsense`'s own
//! `LowSensing` under another `lowsense::Rule`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aloha;
pub mod beb;
pub mod cjp;
pub mod nocd;
pub mod polynomial;

pub use aloha::SlottedAloha;
pub use beb::{ProbBeb, WindowedBeb};
pub use cjp::CjpMwu;
pub use nocd::NoCdBackoff;
pub use polynomial::PolynomialBackoff;
