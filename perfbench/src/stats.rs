//! Order statistics the benchmark reports: medians, the tail-percentile
//! rule, and the shard pool's busy fraction.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The `q`-quantile of `xs` (`0 ≤ q ≤ 1`), interpolating linearly between
/// the two nearest order statistics.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let s = sorted(xs);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Fewest samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail statistic: the value and the percentile it sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percent of samples at or below `value`.
    pub pct: f64,
    /// The sample value.
    pub value: f64,
}

/// The highest percentile of `xs` that still has at least [`TAIL_BEYOND`]
/// samples beyond it: the `(n - 10)`-th smallest sample, at percentile
/// `100 · (n - 10) / n`. Below 20 samples no percentile above the median
/// qualifies, so the median is reported (at percentile 50).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n < 2 * TAIL_BEYOND {
        return Tail {
            pct: 50.0,
            value: median(xs),
        };
    }
    let s = sorted(xs);
    let at = n - TAIL_BEYOND - 1;
    Tail {
        pct: 100.0 * (at + 1) as f64 / n as f64,
        value: s[at],
    }
}

/// Share of the pool's capacity spent inside units: the summed unit time
/// over `shards` workers each available for the whole `pool_wall`.
pub fn busy_frac(unit_secs: &[f64], shards: usize, pool_wall: f64) -> f64 {
    let busy: f64 = unit_secs.iter().sum();
    busy / (shards.max(1) as f64 * pool_wall)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&xs, 0.5), median(&xs));
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&[1.0, 2.0], 0.25) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=60).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 50.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!((t.pct - 100.0 * 50.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs: Vec<f64> = (0..128).map(|i| ((i * 37) % 128) as f64).collect();
        let a = tail(&xs);
        xs.reverse();
        assert_eq!(a, tail(&xs));
        assert_eq!(a.value, 117.0);
    }

    #[test]
    fn tail_at_twenty_samples_is_the_median_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 10.0);
        assert_eq!(t.pct, 50.0);
    }

    #[test]
    fn tail_below_twenty_samples_falls_back_to_the_median() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(
            t,
            Tail {
                pct: 50.0,
                value: 3.0
            }
        );
        let one = tail(&[2.5]);
        assert_eq!(one.value, 2.5);
    }

    #[test]
    fn busy_fraction_arithmetic() {
        // Two shards, 10 s pool wall, 15 s of unit time: 75% busy.
        assert!((busy_frac(&[5.0, 4.0, 6.0], 2, 10.0) - 0.75).abs() < 1e-12);
        // One shard fully busy.
        assert!((busy_frac(&[2.0, 3.0], 1, 5.0) - 1.0).abs() < 1e-12);
        // A zero shard count is treated as one worker.
        assert!((busy_frac(&[1.0], 0, 4.0) - 0.25).abs() < 1e-12);
    }
}
