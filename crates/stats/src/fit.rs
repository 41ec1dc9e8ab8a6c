//! Growth-shape fitting for asymptotic claims.
//!
//! The paper's bounds are asymptotic (`polylog`, linear, `Θ(1)`); the
//! experiments validate *shapes* over geometric sweeps. Two transformed
//! regressions make shapes quantitative:
//!
//! * [`power_exponent`] — fit `y ∝ x^β` (`ln y` vs `ln x`). A polylog
//!   quantity shows `β` near 0 and shrinking as the sweep widens; a linear
//!   one shows `β ≈ 1`.
//! * [`polylog_exponent`] — fit `y ∝ (ln x)^k` (`ln y` vs `ln ln x`),
//!   estimating the polylog degree `k` directly.
//!
//! Caveat on resolution: over practically simulable ranges (say
//! `x ∈ [2⁶, 2²⁰]`) a degree-4 polylog is numerically indistinguishable
//! from `√x`: both grow by ~120× and fit either model with high `R²`. A
//! power exponent near 0.5 is therefore consistent with the polylog claim,
//! not evidence against it; read it beside the fitted polylog degree.

use crate::regression::{ols, Fit};

/// Fits `y ≈ A·x^β`; returns `(β, R²)` of the log–log regression.
///
/// # Panics
///
/// Panics unless all values are strictly positive and ≥ 2 points are given.
pub fn power_exponent(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let (lx, ly) = log_transform(xs, ys, |x| x.ln());
    let Fit { slope, r2, .. } = ols(&lx, &ly);
    (slope, r2)
}

/// Fits `y ≈ A·(ln x)^k`; returns `(k, R²)`.
///
/// # Panics
///
/// Panics unless all `x > 1` (so `ln ln x` is defined), all `y > 0`, and
/// ≥ 2 points are given.
pub fn polylog_exponent(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let (lx, ly) = log_transform(xs, ys, |x| {
        assert!(x > 1.0, "polylog fit needs x > 1, got {x}");
        x.ln().ln()
    });
    let Fit { slope, r2, .. } = ols(&lx, &ly);
    (slope, r2)
}

fn log_transform(xs: &[f64], ys: &[f64], fx: impl Fn(f64) -> f64) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(xs.len(), ys.len(), "mismatched sample lengths");
    let lx: Vec<f64> = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "positive x required, got {x}");
            fx(x)
        })
        .collect();
    let ly: Vec<f64> = ys
        .iter()
        .map(|&y| {
            assert!(y > 0.0, "positive y required, got {y}");
            y.ln()
        })
        .collect();
    (lx, ly)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Vec<f64> {
        (6..=20).map(|k| (1u64 << k) as f64).collect()
    }

    #[test]
    fn power_fit_recovers_exponent() {
        let xs = sweep();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(0.5)).collect();
        let (beta, r2) = power_exponent(&xs, &ys);
        assert!((beta - 0.5).abs() < 1e-9);
        assert!(r2 > 0.999);
    }

    #[test]
    fn polylog_fit_recovers_degree() {
        let xs = sweep();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x.ln().powi(4)).collect();
        let (k, r2) = polylog_exponent(&xs, &ys);
        assert!((k - 4.0).abs() < 1e-9, "k = {k}");
        assert!(r2 > 0.999);
    }

    #[test]
    fn polylog_data_has_small_power_exponent() {
        // ln⁴x over [2⁶, 2²⁰] masquerades as x^≈0.5: the documented
        // resolution limit.
        let xs = sweep();
        let ys: Vec<f64> = xs.iter().map(|x| x.ln().powi(4)).collect();
        let (beta, _) = power_exponent(&xs, &ys);
        assert!((0.3..0.6).contains(&beta), "ln⁴ looks like x^{beta}");
        // Lower-degree polylogs resolve much more sharply.
        let ys2: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
        let (beta2, _) = power_exponent(&xs, &ys2);
        assert!(beta2 < 0.2, "ln x looks like x^{beta2}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive() {
        power_exponent(&[1.0, 2.0], &[0.0, 1.0]);
    }
}
