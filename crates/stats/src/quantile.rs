//! Quantiles (linear interpolation, R-7 convention).

/// Returns the `q`-quantile (`0 ≤ q ≤ 1`) of `xs` using linear
/// interpolation between order statistics (the R-7 / NumPy default).
///
/// Sorts a copy; `O(n log n)`.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "q {q} out of [0,1]");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in sample"));
    quantile_sorted(&v, q)
}

/// [`quantile`] for data already sorted ascending; `O(1)`.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "q {q} out of [0,1]");
    let h = q * (xs.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        xs[lo]
    } else {
        xs[lo] + (h - lo as f64) * (xs[hi] - xs[lo])
    }
}

/// Median shorthand.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median absolute deviation: the median of `|x - median(xs)|`, unscaled.
/// One far outlier moves it by at most one order statistic, where it
/// would dominate a standard deviation.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn mad(xs: &[f64]) -> f64 {
    let mid = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - mid).abs()).collect();
    median(&dev)
}

/// Common tail summary `(p50, p90, p99, max)` of integer counts.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn tail_summary(xs: &[u64]) -> (f64, f64, f64, f64) {
    let mut v: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("counts are not NaN"));
    (
        quantile_sorted(&v, 0.5),
        quantile_sorted(&v, 0.9),
        quantile_sorted(&v, 0.99),
        *v.last().expect("non-empty"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 3.0);
        assert_eq!(median(&xs), 2.0);
    }

    #[test]
    fn interpolation() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.75) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[42.0], 0.37), 42.0);
    }

    #[test]
    fn matches_numpy_convention() {
        // numpy.quantile([1,2,3,4], 0.4) == 2.2
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.4) - 2.2).abs() < 1e-12);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        assert_eq!(mad(&[7.0, 7.0, 7.0]), 0.0);
        // Odd length: median 3, deviations {2, 1, 0, 1, 2}.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        // Even length: median 2.5, deviations {1.5, 0.5, 0.5, 1.5}.
        assert_eq!(mad(&[4.0, 1.0, 3.0, 2.0]), 1.0);
    }

    #[test]
    fn tail_summary_shape() {
        let xs: Vec<u64> = (1..=100).collect();
        let (p50, p90, p99, max) = tail_summary(&xs);
        assert!((p50 - 50.5).abs() < 1e-9);
        assert!((p90 - 90.1).abs() < 0.2);
        assert!((p99 - 99.01).abs() < 0.2);
        assert_eq!(max, 100.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn bad_q_panics() {
        quantile(&[1.0], 1.5);
    }
}
