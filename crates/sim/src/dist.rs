//! Exact samplers for the distributions the simulator needs.
//!
//! * [`geometric`] — delay until the first success of a Bernoulli(p) process;
//!   the workhorse of the event-driven engine (`docs/ARCHITECTURE.md`, "The
//!   event-driven sparse engine").
//! * [`Binomial`] — sender counts for grouped symmetric protocols and jam
//!   counts over skipped slot ranges. Uses the exact BINV inverse transform
//!   for `n·min(p,1-p) ≤ 30` and the BTPE rejection algorithm of
//!   Kachitvichyanukul & Schmeiser (1988) above it.
//!
//! Poisson arrival counts are drawn by `arrivals::PoissonArrivals` itself.
//!
//! # Examples
//!
//! ```
//! use lowsense_sim::rng::SimRng;
//! use lowsense_sim::dist::{geometric, Binomial};
//!
//! let mut rng = SimRng::new(1);
//! let delay = geometric(&mut rng, 0.25);
//! let senders = Binomial::new(100, 0.01).sample(&mut rng);
//! assert!(senders <= 100);
//! let _ = delay;
//! ```

use crate::rng::SimRng;

/// Fast inlineable natural logarithm for finite positive inputs.
///
/// `std`'s `f64::ln` is an out-of-line libm call; at ~6 ns per call it is
/// one of the largest single costs of an event-driven simulation step (the
/// backoff window update and every geometric delay draw take one). This
/// routine is the classic argument-reduction + `atanh` series evaluation,
/// fully inlinable and branch-light so hot loops can pipeline it.
///
/// Accuracy: a few ulp (relative error < 1e-14 over the normal range, see
/// the distribution tests) — far below Monte Carlo resolution. It is *not*
/// correctly rounded; code that needs the exact `libm` bits should call
/// `f64::ln`. Inputs must be finite and positive; the subnormal range
/// `< 2^-1022` (whose exponent field the bit-level reduction cannot
/// decode) takes a cold branch to `f64::ln`, so the contract is "finite
/// positive", not "finite positive normal". For normal inputs the branch
/// is a single well-predicted compare in front of the unchanged fast path.
#[inline]
pub fn fast_ln(x: f64) -> f64 {
    debug_assert!(
        x > 0.0 && x <= f64::MAX,
        "fast_ln input {x} out of the positive finite range"
    );
    if x < f64::MIN_POSITIVE {
        // Subnormal (or zero/negative under a violated contract): the
        // exponent bits are no longer `biased exponent + mantissa`, so the
        // reduction below would return garbage. This is far off every hot
        // path — take the exact libm call.
        return x.ln();
    }
    fast_ln_normal(x)
}

/// The normal-range core of [`fast_ln`], shared verbatim with [`fast_ln4`]
/// so the scalar and 4-wide wake draws ([`geometric_inv`] and
/// [`geometric4_inv`]) are bit-identical per lane.
#[inline(always)]
fn fast_ln_normal(x: f64) -> f64 {
    let bits = x.to_bits();
    let e_raw = ((bits >> 52) & 0x7FF) as i64 - 1023;
    // Mantissa in [1, 2).
    let m_raw = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    // Shift to m ∈ [√½, √2) so the series argument is small.
    let big = m_raw >= std::f64::consts::SQRT_2;
    let m = if big { 0.5 * m_raw } else { m_raw };
    let e = (e_raw + big as i64) as f64;
    // ln m = 2·atanh(s) with s = (m-1)/(m+1), |s| ≤ 0.1716:
    // 2s·(1 + s²/3 + s⁴/5 + … + s¹⁴/15), truncation < 1e-15 relative.
    // Estrin evaluation keeps the dependency chain short so independent
    // calls pipeline (a Horner chain here is slower than libm).
    let s = (m - 1.0) / (m + 1.0);
    let t = s * s;
    let t2 = t * t;
    let t4 = t2 * t2;
    let p01 = (1.0 / 3.0) * t + 1.0;
    let p23 = (1.0 / 7.0) * t + 1.0 / 5.0;
    let p45 = (1.0 / 11.0) * t + 1.0 / 9.0;
    let p67 = (1.0 / 15.0) * t + 1.0 / 13.0;
    let q0 = p23 * t2 + p01;
    let q1 = p67 * t2 + p45;
    let p = q1 * t4 + q0;
    2.0 * s * p + e * std::f64::consts::LN_2
}

/// Four independent [`fast_ln`] evaluations, laid out for the
/// auto-vectorizer.
///
/// Each lane computes **exactly** the operations of the scalar [`fast_ln`]
/// on its input, so `fast_ln4([a, b, c, d])` is bit-identical to
/// `[fast_ln(a), fast_ln(b), fast_ln(c), fast_ln(d)]` — the property the
/// batched wake draw relies on to keep `RunResult`s bit-equal to the
/// scalar engines. Lanes are independent straight-line
/// arithmetic on a fixed-size array (no `std::simd` needed); when every
/// lane is in the normal range the whole array goes through the SIMD-friendly
/// core, and the rare subnormal lane falls back to per-lane scalar calls
/// (which share the same core, so the result is unchanged).
#[inline]
pub fn fast_ln4(x: [f64; 4]) -> [f64; 4] {
    if x.iter().all(|&v| v >= f64::MIN_POSITIVE) {
        let mut out = [0.0; 4];
        for i in 0..4 {
            out[i] = fast_ln_normal(x[i]);
        }
        out
    } else {
        x.map(fast_ln)
    }
}

/// Samples the number of failures before the first success of independent
/// Bernoulli(`p`) trials: `P(X = k) = (1-p)^k · p`.
///
/// Returns `u64::MAX` ("never") when `p <= 0`, and `0` when `p >= 1`.
///
/// # Panics
///
/// Panics (debug builds) if `p` is NaN.
#[inline]
pub fn geometric(rng: &mut SimRng, p: f64) -> u64 {
    debug_assert!(!p.is_nan(), "geometric probability must not be NaN");
    if p >= 1.0 {
        return 0;
    }
    if p <= 0.0 {
        return u64::MAX;
    }
    geometric_with_ln_q(rng, (-p).ln_1p())
}

/// [`geometric`] with the caller supplying `ln(1-p)` (which must be
/// negative, i.e. `0 < p < 1`).
///
/// Protocols that draw many delays at the same success probability cache
/// `(-p).ln_1p()` alongside `p` and skip one transcendental per draw; the
/// division below is unchanged, so results are bit-identical to
/// [`geometric`] called with the same `p`.
#[inline]
pub fn geometric_with_ln_q(rng: &mut SimRng, ln_q: f64) -> u64 {
    debug_assert!(ln_q < 0.0, "ln(1-p) must be negative");
    // U uniform in (0, 1]; k = floor(ln U / ln(1-p)) is exactly geometric.
    let u = 1.0 - rng.f64();
    saturating_count(u.ln() / ln_q)
}

/// Converts a real-valued slot count to `u64`, saturating at `u64::MAX`
/// ("never") for NaN and for anything at or past the representable top.
///
/// The boundary deserves spelling out, because `u64::MAX as f64` does not
/// equal `u64::MAX`: `2^64 - 1` is not representable in `f64`, and the
/// conversion rounds *up* to exactly `2^64` (nearest representable,
/// ties-to-even; the candidates are `2^64 - 2048` and `2^64`, and
/// `2^64 - 1` is nearer the latter). So the comparison below saturates
/// every `k ≥ 2^64`. That leaves `[2^63, 2^64)` flowing into the `as u64`
/// cast — which is safe: every `f64` in that range is an exact integer
/// (the mantissa spacing there is ≥ 1024), the largest being
/// `2^64 - 2048`, so the cast truncates nothing and can never wrap.
/// (Rust's float→int `as` additionally saturates rather than wrapping,
/// but this function does not rely on that backstop.) The
/// `saturation_boundary` tests pin each of these cases.
#[inline]
pub fn saturating_count(k: f64) -> u64 {
    // `u64::MAX as f64` == 2^64 exactly; see above.
    if k.is_nan() || k >= u64::MAX as f64 {
        u64::MAX
    } else {
        k as u64
    }
}

/// `ln(1 - p)` for [`geometric_fast`], with full precision for tiny `p`.
///
/// For `p < 1e-8` the rounding of `1 - p` would lose the entire signal, so
/// `ln_1p` is used; above that threshold the subtraction is exact to ~1e-8
/// relative and the inlinable [`fast_ln`] applies. The threshold mirrors
/// the cached-reciprocal path in `lowsense::ladder::derive`.
#[inline]
fn ln_q_fast(p: f64) -> f64 {
    if p < 1e-8 {
        (-p).ln_1p()
    } else {
        fast_ln(1.0 - p)
    }
}

/// [`geometric`] with the transcendentals routed through [`fast_ln`] /
/// [`ln_1p`](f64::ln_1p).
///
/// Statistically indistinguishable from [`geometric`] (the log is accurate
/// to ~1e-14 relative) but *not* bit-identical to it — protocols choose one
/// family and stay with it, because switching moves every result they
/// produce.
///
/// # Panics
///
/// Panics (debug builds) if `p` is NaN.
#[inline]
pub fn geometric_fast(rng: &mut SimRng, p: f64) -> u64 {
    debug_assert!(!p.is_nan(), "geometric probability must not be NaN");
    if p >= 1.0 {
        return 0;
    }
    if p <= 0.0 {
        return u64::MAX;
    }
    let u = 1.0 - rng.f64();
    saturating_count(fast_ln(u) / ln_q_fast(p))
}

/// Geometric draw with the logarithm of `1-p` pre-inverted: the delay is
/// `⌊fast_ln(U) · inv_ln_q⌋`, one inlined transcendental and one multiply.
///
/// This is the steady-state wake draw of the cached protocols: they keep
/// `inv_ln_q = 1/ln(1-p)` alongside `p` (recomputed only when the state
/// changes — for the ladder protocols, read straight from a table row) and
/// pay neither the `ln(1-p)` nor the divide per draw. The guards mirror
/// [`geometric_fast`]'s, and the degenerate cases (`p ≤ 0`, `p ≥ 1`) never
/// read `inv_ln_q`, so callers may cache `0` there.
///
/// # Panics
///
/// Panics (debug builds) if `p` is NaN.
#[inline]
pub fn geometric_inv(rng: &mut SimRng, p: f64, inv_ln_q: f64) -> u64 {
    debug_assert!(!p.is_nan(), "geometric probability must not be NaN");
    if p >= 1.0 {
        return 0;
    }
    if p <= 0.0 {
        return u64::MAX;
    }
    let u = 1.0 - rng.f64();
    saturating_count(fast_ln(u) * inv_ln_q)
}

/// Four [`geometric_inv`] draws, 4-wide, bit-identical lane-for-lane to
/// four sequential scalar calls.
///
/// RNG values are drawn **in ascending lane order** with degenerate lanes
/// drawing nothing (the batched-wake contract); the uniforms' logarithms
/// evaluate through [`fast_ln4`], whose per-lane arithmetic is the scalar
/// [`fast_ln`]'s, so the sparse engine's 4-wide cohort draws and the
/// reference engine's scalar draws stay bit-equal.
///
/// # Panics
///
/// Panics (debug builds) if any `p` is NaN.
#[inline]
// The negated guards reproduce `geometric_inv`'s exact branch structure
// (including where a contract-violating NaN would flow), which the
// bit-identity contract of the batch pins.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn geometric4_inv(rng: &mut SimRng, p: [f64; 4], inv_ln_q: [f64; 4]) -> [u64; 4] {
    let mut u = [1.0f64; 4];
    let mut live = [false; 4];
    for i in 0..4 {
        debug_assert!(!p[i].is_nan(), "geometric probability must not be NaN");
        if !(p[i] >= 1.0) && !(p[i] <= 0.0) {
            u[i] = 1.0 - rng.f64();
            live[i] = true;
        }
    }
    let ln_u = fast_ln4(u);
    let mut out = [0u64; 4];
    for i in 0..4 {
        out[i] = if live[i] {
            saturating_count(ln_u[i] * inv_ln_q[i])
        } else if p[i] >= 1.0 {
            0
        } else {
            u64::MAX
        };
    }
    out
}

/// Binomial(`n`, `p`) sampler.
///
/// Construction validates the parameters once so repeated sampling in a hot
/// loop pays no checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates a sampler for `Binomial(n, p)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` or is NaN.
    pub fn new(n: u64, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "binomial probability {p} out of [0,1]"
        );
        Binomial { n, p }
    }

    /// Number of trials `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let (n, p) = (self.n, self.p);
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        // Work with r = min(p, 1-p) and flip at the end if needed.
        let flipped = p > 0.5;
        let r = if flipped { 1.0 - p } else { p };
        let k = if (n as f64) * r <= 30.0 {
            binv(rng, n, r)
        } else {
            btpe(rng, n, r)
        };
        if flipped {
            n - k
        } else {
            k
        }
    }
}

/// BINV: exact inverse transform via the pmf recurrence. Expected time
/// `O(1 + n·p)`; requires `n·p` modest to stay within float range.
fn binv(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    let q = 1.0 - p;
    let s = p / q;
    let a = (n as f64 + 1.0) * s;
    // q^n underflows only when n·p >> 700, far outside the BINV regime.
    let r0 = (n as f64 * q.ln()).exp();
    loop {
        let mut r = r0;
        let mut u = rng.f64();
        let mut x: u64 = 0;
        // The cutoff guards against float underflow in pathological tails;
        // restarting is statistically sound (rejection of a measure-zero-ish
        // failure event).
        let cutoff = 110.max(10 * (n as f64 * p) as u64 + 20);
        loop {
            if u < r {
                return x.min(n);
            }
            u -= r;
            x += 1;
            if x > cutoff {
                break; // restart outer loop with a fresh uniform
            }
            r *= a / (x as f64) - s;
        }
    }
}

/// BTPE rejection sampler (Kachitvichyanukul & Schmeiser 1988) for
/// `n·p > 30`, `p ≤ 0.5`. Exact.
fn btpe(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    let nf = n as f64;
    let r = p;
    let q = 1.0 - r;
    let nrq = nf * r * q;
    let fm = nf * r + r;
    let m = fm.floor();
    let p1 = (2.195 * nrq.sqrt() - 4.6 * q).floor() + 0.5;
    let xm = m + 0.5;
    let xl = xm - p1;
    let xr = xm + p1;
    let c = 0.134 + 20.5 / (15.3 + m);
    let mut a = (fm - xl) / (fm - xl * r);
    let lambda_l = a * (1.0 + 0.5 * a);
    a = (xr - fm) / (xr * q);
    let lambda_r = a * (1.0 + 0.5 * a);
    let p2 = p1 * (1.0 + 2.0 * c);
    let p3 = p2 + c / lambda_l;
    let p4 = p3 + c / lambda_r;

    loop {
        let u = rng.f64() * p4;
        let mut v = rng.f64();
        let y: f64;
        if u <= p1 {
            // Triangular central region: accept immediately.
            y = (xm - p1 * v + u).floor();
            return y as u64;
        } else if u <= p2 {
            // Parallelogram region.
            let x = xl + (u - p1) / c;
            v = v * c + 1.0 - (x - xm).abs() / p1;
            if v > 1.0 || v <= 0.0 {
                continue;
            }
            y = x.floor();
        } else if u <= p3 {
            // Left exponential tail.
            y = (xl + v.ln() / lambda_l).floor();
            if y < 0.0 {
                continue;
            }
            v *= (u - p2) * lambda_l;
        } else {
            // Right exponential tail.
            y = (xr - v.ln() / lambda_r).floor();
            if y > nf {
                continue;
            }
            v *= (u - p3) * lambda_r;
        }

        let k = (y - m).abs();
        if k <= 20.0 || k >= nrq / 2.0 - 1.0 {
            // Explicit pmf-ratio evaluation by recurrence.
            let s = r / q;
            let aa = s * (nf + 1.0);
            let mut f = 1.0;
            if m < y {
                let mut i = m + 1.0;
                while i <= y {
                    f *= aa / i - s;
                    i += 1.0;
                }
            } else if m > y {
                let mut i = y + 1.0;
                while i <= m {
                    f /= aa / i - s;
                    i += 1.0;
                }
            }
            if v <= f {
                return y as u64;
            }
            continue;
        }

        // Squeeze acceptance/rejection.
        let rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / nrq + 0.5);
        let t = -k * k / (2.0 * nrq);
        let alpha = v.ln();
        if alpha < t - rho {
            return y as u64;
        }
        if alpha > t + rho {
            continue;
        }

        // Final comparison with the exact log-pmf ratio via Stirling series.
        let x1 = y + 1.0;
        let f1 = m + 1.0;
        let z = nf + 1.0 - m;
        let w = nf - y + 1.0;
        let z2 = z * z;
        let x2 = x1 * x1;
        let f2 = f1 * f1;
        let w2 = w * w;
        let bound = xm * (f1 / x1).ln()
            + (nf - m + 0.5) * (z / w).ln()
            + (y - m) * (w * r / (x1 * q)).ln()
            + stirling_correction(f1, f2)
            + stirling_correction(z, z2)
            + stirling_correction(x1, x2)
            + stirling_correction(w, w2);
        if alpha <= bound {
            return y as u64;
        }
    }
}

/// Truncated Stirling series term used by BTPE's final comparison.
#[inline]
fn stirling_correction(x: f64, x2: f64) -> f64 {
    (13860.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn fast_ln_matches_std_ln() {
        let mut rng = SimRng::new(77);
        // Uniforms in (0,1] (the geometric sampler's input) and wide
        // log-uniform positives (window sizes).
        for _ in 0..200_000 {
            let u = 1.0 - rng.f64();
            let rel = (fast_ln(u) - u.ln()).abs() / u.ln().abs().max(1e-300);
            assert!(rel < 1e-13, "u={u}: fast {} vs std {}", fast_ln(u), u.ln());
            let x = (rng.f64() * 1380.0 - 690.0).exp2();
            let rel = (fast_ln(x) - x.ln()).abs() / x.ln().abs().max(1e-13);
            assert!(rel < 1e-13, "x={x}: fast {} vs std {}", fast_ln(x), x.ln());
        }
    }

    #[test]
    fn fast_ln_subnormal_falls_back_to_libm() {
        // Regression (release builds used to return garbage here): the
        // contract is now "finite positive", subnormals included.
        let subnormals = [
            f64::from_bits(1),            // smallest positive subnormal
            f64::from_bits(0xF_FFFF),     // mid subnormal
            f64::MIN_POSITIVE / 2.0,      // large subnormal
            f64::MIN_POSITIVE * 0.999999, // just below the normal range
        ];
        for x in subnormals {
            assert!(
                x > 0.0 && x < f64::MIN_POSITIVE,
                "test input {x} not subnormal"
            );
            assert_eq!(fast_ln(x), x.ln(), "x={x:e}");
        }
        // The boundary itself still takes the fast path.
        let x = f64::MIN_POSITIVE;
        let rel = (fast_ln(x) - x.ln()).abs() / x.ln().abs();
        assert!(rel < 1e-13, "boundary x={x:e}");
    }

    #[test]
    fn fast_ln4_matches_scalar_bitwise() {
        let mut rng = SimRng::new(99);
        for _ in 0..50_000 {
            let lanes = [
                1.0 - rng.f64(),
                (rng.f64() * 1380.0 - 690.0).exp2(),
                rng.f64() + 0.5,
                (rng.f64() * 100.0).exp(),
            ];
            assert_eq!(fast_ln4(lanes), lanes.map(fast_ln), "lanes {lanes:?}");
        }
        // A subnormal lane forces the fallback; the other lanes must be
        // unchanged relative to their scalar results.
        let mixed = [f64::from_bits(3), 0.25, 1.0, 3e200];
        assert_eq!(fast_ln4(mixed), mixed.map(fast_ln));
    }

    #[test]
    fn fast_ln_exact_points() {
        assert_eq!(fast_ln(1.0), 0.0);
        assert!((fast_ln(std::f64::consts::E) - 1.0).abs() < 1e-14);
        assert!((fast_ln(2.0) - std::f64::consts::LN_2).abs() < 1e-15);
        assert!((fast_ln(0.5) + std::f64::consts::LN_2).abs() < 1e-15);
    }

    #[test]
    fn geometric_with_ln_q_matches_geometric() {
        // Same rng state + the same precomputed ln(1-p) must reproduce
        // geometric() draws bit-for-bit.
        for p in [0.9f64, 0.5, 0.1, 1e-3, 1e-9] {
            let ln_q = (-p).ln_1p();
            let mut a = SimRng::new(5);
            let mut b = SimRng::new(5);
            for _ in 0..10_000 {
                assert_eq!(
                    geometric(&mut a, p),
                    geometric_with_ln_q(&mut b, ln_q),
                    "p={p}"
                );
            }
        }
    }

    #[test]
    fn saturation_boundary() {
        // `u64::MAX as f64` rounds up to exactly 2^64 (see saturating_count
        // docs); everything at or past it must saturate, everything below
        // must cast exactly.
        assert_eq!(u64::MAX as f64, 2f64.powi(64));
        assert_eq!(saturating_count(2f64.powi(64)), u64::MAX);
        assert_eq!(saturating_count(f64::INFINITY), u64::MAX);
        assert_eq!(saturating_count(f64::NAN), u64::MAX);
        // Largest f64 below 2^64: 2^64 - 2048, an exact integer.
        let top = f64::from_bits(2f64.powi(64).to_bits() - 1);
        assert_eq!(top, 18_446_744_073_709_549_568.0);
        assert_eq!(saturating_count(top), u64::MAX - 2047);
        // The [2^63, 2^64) band that a wrapping cast would mangle.
        assert_eq!(saturating_count(2f64.powi(63)), 1u64 << 63);
        assert_eq!(saturating_count(2f64.powi(63) * 1.5), 3u64 << 62);
        assert_eq!(saturating_count(0.0), 0);
        assert_eq!(saturating_count(1e18), 1_000_000_000_000_000_000);
    }

    #[test]
    fn geometric_tiny_p_saturation_regression() {
        // p small enough that ln U / ln(1-p) lands at or beyond 2^64: the
        // draw must saturate to "never", not wrap. With p = 1e-300,
        // ln_q ≈ -1e-300 and |ln U| ≥ ~1e-16 ⇒ k ≥ ~1e284 >> 2^64.
        let mut rng = SimRng::new(15);
        let ln_q = -1e-300;
        for _ in 0..1_000 {
            assert_eq!(geometric_with_ln_q(&mut rng, ln_q), u64::MAX);
        }
        // And a regime where draws straddle the [2^63, 2^64) band: every
        // result must be either saturated or an in-range exact cast, and
        // at least one draw must actually exercise the band.
        let mut rng = SimRng::new(16);
        let ln_q = -1.0 / 6e18; // mean ≈ 6e18 ∈ [2^62, 2^64)
        let mut in_band = 0u32;
        for _ in 0..2_000 {
            let k = geometric_with_ln_q(&mut rng, ln_q);
            if (1u64 << 63..u64::MAX).contains(&k) {
                in_band += 1;
            }
        }
        assert!(in_band > 100, "only {in_band} draws hit [2^63, 2^64)");
    }

    #[test]
    fn geometric_fast_moments_and_edges() {
        let mut rng = SimRng::new(31);
        assert_eq!(geometric_fast(&mut rng, 1.0), 0);
        assert_eq!(geometric_fast(&mut rng, 1.5), 0);
        assert_eq!(geometric_fast(&mut rng, 0.0), u64::MAX);
        assert_eq!(geometric_fast(&mut rng, -1.0), u64::MAX);
        let p = 0.2;
        let xs: Vec<f64> = (0..200_000)
            .map(|_| geometric_fast(&mut rng, p) as f64)
            .collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        assert!((var - 20.0).abs() < 1.0, "var {var}");
        // Tiny p exercises the ln_1p branch.
        let mut rng = SimRng::new(32);
        let x = geometric_fast(&mut rng, 1e-12);
        assert!(x > 1_000, "x = {x}");
    }

    #[test]
    fn geometric_inv_matches_divide_form_statistically_and_guards() {
        let mut rng = SimRng::new(40);
        // Degenerate guards never read inv_ln_q (0 is the cached dummy).
        assert_eq!(geometric_inv(&mut rng, 1.0, 0.0), 0);
        assert_eq!(geometric_inv(&mut rng, 1.5, 0.0), 0);
        assert_eq!(geometric_inv(&mut rng, 0.0, 0.0), u64::MAX);
        assert_eq!(geometric_inv(&mut rng, -1.0, 0.0), u64::MAX);
        let p = 0.2;
        let inv = 1.0 / fast_ln(1.0 - p);
        let xs: Vec<f64> = (0..200_000)
            .map(|_| geometric_inv(&mut rng, p, inv) as f64)
            .collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        assert!((var - 20.0).abs() < 1.0, "var {var}");
    }

    #[test]
    fn geometric4_inv_matches_scalar_bitwise() {
        // Same seed ⇒ geometric4_inv must reproduce four sequential
        // geometric_inv draws exactly, including degenerate lanes that
        // consume no randomness.
        let lane_sets: [[f64; 4]; 4] = [
            [0.3, 0.3, 0.3, 0.3],
            [0.9, 0.01, 1e-10, 0.5],
            [1.0, 0.2, 0.0, 0.7],  // mixed degenerate / live
            [0.0, 1.0, 2.0, -0.5], // all degenerate: no RNG consumed
        ];
        for p in lane_sets {
            let inv = p.map(|pi| {
                if pi <= 0.0 || pi >= 1.0 {
                    0.0
                } else if pi < 1e-8 {
                    1.0 / (-pi).ln_1p()
                } else {
                    1.0 / fast_ln(1.0 - pi)
                }
            });
            let mut a = SimRng::new(78);
            let mut b = SimRng::new(78);
            for _ in 0..5_000 {
                let batch = geometric4_inv(&mut a, p, inv);
                let scalar = [
                    geometric_inv(&mut b, p[0], inv[0]),
                    geometric_inv(&mut b, p[1], inv[1]),
                    geometric_inv(&mut b, p[2], inv[2]),
                    geometric_inv(&mut b, p[3], inv[3]),
                ];
                assert_eq!(batch, scalar, "p={p:?}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "p={p:?}");
        }
    }

    #[test]
    fn geometric_edge_cases() {
        let mut rng = SimRng::new(1);
        assert_eq!(geometric(&mut rng, 1.0), 0);
        assert_eq!(geometric(&mut rng, 2.0), 0);
        assert_eq!(geometric(&mut rng, 0.0), u64::MAX);
        assert_eq!(geometric(&mut rng, -1.0), u64::MAX);
    }

    #[test]
    fn geometric_moments() {
        let mut rng = SimRng::new(2);
        let p = 0.2;
        let xs: Vec<f64> = (0..200_000)
            .map(|_| geometric(&mut rng, p) as f64)
            .collect();
        let (mean, var) = moments(&xs);
        // E[X] = (1-p)/p = 4, Var = (1-p)/p^2 = 20.
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        assert!((var - 20.0).abs() < 1.0, "var {var}");
    }

    #[test]
    fn geometric_tiny_p_is_large() {
        let mut rng = SimRng::new(3);
        let x = geometric(&mut rng, 1e-12);
        assert!(x > 1_000, "x = {x}");
    }

    #[test]
    fn geometric_pmf_head() {
        // P(X = 0) = p.
        let mut rng = SimRng::new(4);
        let p = 0.37;
        let n = 200_000;
        let zeros = (0..n).filter(|_| geometric(&mut rng, p) == 0).count();
        let frac = zeros as f64 / n as f64;
        assert!((frac - p).abs() < 0.01, "P(X=0) = {frac}");
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = SimRng::new(5);
        assert_eq!(Binomial::new(0, 0.5).sample(&mut rng), 0);
        assert_eq!(Binomial::new(10, 0.0).sample(&mut rng), 0);
        assert_eq!(Binomial::new(10, 1.0).sample(&mut rng), 10);
        assert_eq!(Binomial::new(1, 1.0).sample(&mut rng), 1);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn binomial_invalid_p_panics() {
        Binomial::new(10, 1.5);
    }

    #[test]
    fn binomial_binv_moments() {
        let mut rng = SimRng::new(6);
        let d = Binomial::new(50, 0.1); // np = 5 -> BINV
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng) as f64).collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.5).abs() < 0.15, "var {var}");
    }

    #[test]
    fn binomial_btpe_moments() {
        let mut rng = SimRng::new(7);
        let d = Binomial::new(1000, 0.2); // np = 200 -> BTPE
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng) as f64).collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 200.0).abs() < 0.5, "mean {mean}");
        assert!((var - 160.0).abs() < 4.0, "var {var}");
    }

    #[test]
    fn binomial_btpe_flipped_moments() {
        let mut rng = SimRng::new(8);
        let d = Binomial::new(500, 0.9); // flips to r = 0.1, nr = 50 -> BTPE
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng) as f64).collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 450.0).abs() < 0.5, "mean {mean}");
        assert!((var - 45.0).abs() < 2.0, "var {var}");
    }

    #[test]
    fn binomial_btpe_matches_exact_pmf() {
        // Chi-square-ish agreement of BTPE samples with the exact pmf at
        // n = 400, p = 0.1 (np = 40, just above the BINV/BTPE switch).
        let (n, p) = (400u64, 0.1);
        let mut rng = SimRng::new(9);
        let d = Binomial::new(n, p);
        let trials = 300_000usize;
        let mut counts = vec![0u64; (n + 1) as usize];
        for _ in 0..trials {
            counts[d.sample(&mut rng) as usize] += 1;
        }
        // Exact pmf via recurrence.
        let q = 1.0 - p;
        let mut pmf = vec![0.0f64; (n + 1) as usize];
        pmf[0] = (n as f64 * q.ln()).exp();
        for k in 1..=n as usize {
            pmf[k] = pmf[k - 1] * ((n as usize - k + 1) as f64 / k as f64) * (p / q);
        }
        // Compare on the bulk (pmf > 1e-4); each bucket within 5 sigma.
        for k in 0..=n as usize {
            if pmf[k] > 1e-4 {
                let expect = pmf[k] * trials as f64;
                let sigma = (expect * (1.0 - pmf[k])).sqrt();
                let diff = (counts[k] as f64 - expect).abs();
                assert!(
                    diff < 5.0 * sigma + 3.0,
                    "k={k} count={} expect={expect:.1} sigma={sigma:.1}",
                    counts[k]
                );
            }
        }
    }

    #[test]
    fn binomial_never_exceeds_n() {
        let mut rng = SimRng::new(10);
        for &(n, p) in &[(10u64, 0.99), (1000, 0.5), (5, 0.01), (100_000, 0.001)] {
            let d = Binomial::new(n, p);
            for _ in 0..2_000 {
                assert!(d.sample(&mut rng) <= n);
            }
        }
    }
}
