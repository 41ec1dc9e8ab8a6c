//! Window-size update rules (paper Figure 1).
//!
//! The single state variable of `LOW-SENSING BACKOFF` is the window `w`.
//! Hearing **noise** multiplies it by `1 + 1/(c·ln w)` (back-off); hearing
//! **silence** divides by the same factor, floored at `w_min` (back-on).
//! The gentleness of the factor — vanishing as `w` grows — is what lets the
//! analysis charge each step against the `H(t)` potential term
//! (Lemma 5.9: each listen moves `1/ln w` by `Θ(1/(c·ln³ w))`).
//!
//! These free functions are the *analytic reference form* of the rules
//! (libm `ln`, plain divide). The protocol never calls them: it steps the
//! precomputed [`ladder`](crate::ladder), whose rungs are built from the
//! same update factors via the hot-path arithmetic (`fast_ln` + reciprocal
//! multiply — see `ladder::derive`). They are what the ladder is checked
//! against: `ladder_rungs_track_the_reference_rules` below compares every
//! rung step with [`back_off`], and the crate's `backoff_monotone`
//! property pins the direction and floor of both steps.

use crate::params::Params;

/// The multiplicative update factor `1 + 1/(c·ln w)`.
///
/// # Panics
///
/// Debug-asserts `w ≥ 2` (guaranteed by [`Params`] validation upstream).
#[inline]
pub fn update_factor(c: f64, w: f64) -> f64 {
    debug_assert!(w >= 2.0, "window {w} below analytic minimum 2");
    update_factor_ln(c, w.ln())
}

/// [`update_factor`] with the caller supplying `ln w`. No hot path calls
/// it: [`LowSensing`](crate::LowSensing) steps precomputed ladder rungs
/// (built by `ladder::derive` from its own `fast_ln`), never a per-packet
/// `ln w`.
#[inline]
pub fn update_factor_ln(c: f64, ln_w: f64) -> f64 {
    1.0 + 1.0 / (c * ln_w)
}

/// One back-off step: `w ← w · (1 + 1/(c·ln w))`.
#[inline]
pub fn back_off(params: &Params, w: f64) -> f64 {
    w * update_factor(params.c(), w)
}

/// One back-on step: `w ← max(w / (1 + 1/(c·ln w)), w_min)`.
#[inline]
pub fn back_on(params: &Params, w: f64) -> f64 {
    (w / update_factor(params.c(), w)).max(params.w_min())
}

/// Number of back-off steps needed to grow `from` to at least `to`
/// (useful for sanity checks against the `Θ(c·ln w)` doubling count used in
/// the paper's energy argument, Theorem 5.25).
pub fn steps_to_grow(params: &Params, from: f64, to: f64) -> u64 {
    let mut w = from;
    let mut steps = 0;
    while w < to {
        w = back_off(params, w);
        steps += 1;
        assert!(steps < 1_000_000_000, "unreachable growth target");
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Params {
        Params::default()
    }

    #[test]
    fn back_off_grows_strictly() {
        let params = p();
        let mut w = params.w_min();
        for _ in 0..100 {
            let next = back_off(&params, w);
            assert!(next > w);
            w = next;
        }
    }

    #[test]
    fn back_on_shrinks_but_clamps() {
        let params = p();
        let w = back_on(&params, 100.0);
        assert!(w < 100.0);
        // At the floor, back-on stays put.
        assert_eq!(back_on(&params, params.w_min()), params.w_min());
    }

    #[test]
    fn back_on_inverts_back_off_approximately() {
        let params = p();
        // back_on(back_off(w)) ≈ w: the two factors differ only because the
        // window moved, an O(1/(c·ln w)) relative effect that shrinks as w
        // grows. This inexactness is exactly what the quantized ladder
        // (crate::ladder) snaps away — there, the round trip is an identity
        // by construction.
        for (w, tol) in [(100.0, 0.05), (1e4, 0.01), (1e8, 0.001)] {
            let round = back_on(&params, back_off(&params, w));
            assert!((round - w).abs() / w < tol, "w={w} round-trips to {round}");
        }
    }

    #[test]
    fn ladder_rungs_track_the_reference_rules() {
        // The ladder is built with the hot-path arithmetic (`fast_ln`,
        // reciprocal multiplies); these free functions are the analytic
        // reference (libm `ln`, divides). Consecutive rungs must agree with
        // a reference back_off step to ~1 ulp of the factor — the two
        // formulations describe the same update rule.
        let params = p();
        let ladder = crate::ladder::shared(params, params.w_min());
        for pair in ladder.rows().windows(2) {
            let reference = back_off(&params, pair[0].w);
            let rel = ((pair[1].w - reference) / reference).abs();
            assert!(rel < 1e-12, "rung {} vs reference {reference}", pair[1].w);
        }
    }

    #[test]
    fn factor_decreases_with_window() {
        let params = p();
        let f1 = update_factor(params.c(), 10.0);
        let f2 = update_factor(params.c(), 1e6);
        assert!(f1 > f2);
        assert!(f2 > 1.0);
    }

    #[test]
    fn doubling_takes_theta_c_ln_w_steps() {
        // Paper (proof of Thm 5.25): Θ(ln w) back-offs double the window.
        let params = Params::new(1.0, 4.0).unwrap();
        for w in [16.0, 256.0, 65536.0] {
            let steps = steps_to_grow(&params, w, 2.0 * w) as f64;
            let predicted = params.c() * w.ln() / std::f64::consts::LN_2;
            let ratio = steps / predicted;
            // Within a factor ~2 of c·ln(w)/ln 2 (the factor shrinks as the
            // window grows across the doubling).
            assert!(
                (0.5..=2.5).contains(&ratio),
                "w={w}: steps {steps}, predicted {predicted}"
            );
        }
    }

    #[test]
    fn updates_preserve_floor_invariant() {
        let params = p();
        let mut w = params.w_min();
        // Mixed random-ish walk never violates w ≥ w_min.
        for i in 0..10_000 {
            w = if i % 3 == 0 {
                back_off(&params, w)
            } else {
                back_on(&params, w)
            };
            assert!(w >= params.w_min());
            assert!(w.is_finite());
        }
    }
}
