//! # lowsense-stats — Monte Carlo post-processing
//!
//! Dependency-free statistics used by the experiment harness: summaries,
//! quantiles, OLS regression, growth-shape fits (power / polylog exponents:
//! they measure a sweep's shape, and a claim's stated bound judges it),
//! bootstrap confidence intervals, and log-spaced histograms. The streaming
//! accumulators ([`Welford`], [`LogHistogram`], [`QuantileSketch`]) are
//! **mergeable** — each has a `merge` that combines partial aggregates —
//! which is what the campaign layer's sharded sweeps fold with.
//!
//! ```
//! use lowsense_stats::{fit, Summary};
//!
//! let xs: Vec<f64> = (6..=16).map(|k| (1u64 << k) as f64).collect();
//! let polylog_data: Vec<f64> = xs.iter().map(|x| x.ln().powi(4)).collect();
//! let (k, r2) = fit::polylog_exponent(&xs, &polylog_data);
//! assert!((k - 4.0).abs() < 1e-9 && r2 > 0.99);
//! assert_eq!(Summary::of(&[1.0, 2.0, 3.0]).n, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod fit;
pub mod histogram;
pub mod quantile;
pub mod regression;
pub mod sketch;
pub mod summary;

pub use bootstrap::{bootstrap_mean_ci, Interval};
pub use fit::{polylog_exponent, power_exponent};
pub use histogram::LogHistogram;
pub use quantile::{mad, median, quantile, quantile_sorted, tail_summary};
pub use regression::{ols, Fit};
pub use sketch::QuantileSketch;
pub use summary::{Summary, Welford};
