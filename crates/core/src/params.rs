//! Algorithm parameters for `LOW-SENSING BACKOFF` (paper Figure 1).
//!
//! Two constants fully determine the algorithm: the multiplier `c` and the
//! minimum window `w_min`. The paper asks for "sufficiently large" values;
//! the constraints that actually bind an implementation are
//!
//! * `p_send|listen = 1/(c·ln³ w) ≤ 1` for all reachable `w ≥ w_min`, i.e.
//!   `c·ln³(w_min) ≥ 1` — this keeps the *unconditional* send probability
//!   exactly `1/w`, the identity the whole analysis leans on;
//! * `p_listen = c·ln³(w)/w ≤ 1`, i.e. `c ≤ min_{w ≥ w_min} w/ln³ w`
//!   (that minimum is `e³/27 ≈ 0.744`, attained at `w = e³ ≈ 20.1`).
//!
//! The first is enforced at construction; the second is advisory (the
//! implementation clamps the listen probability at 1 and
//! [`Params::respects_listen_cap`] reports whether clamping can occur).
//! Defaults `c = 0.5`, `w_min = 4` satisfy both with margin.
//!
//! # The rule
//!
//! `Params` also carries the three Figure-1 choices the ablations (A2–A4)
//! vary, as a [`Rule`]: the listen exponent `k`, the update factor and the
//! send/listen coupling. [`Params::for_rule`] validates all three values
//! together, [`Params::new`] is it at [`Rule::PAPER`], and
//! [`Params::with_rule`] revalidates existing parameters under another
//! rule. Every rule runs as the same
//! [`LowSensing`](crate::LowSensing), on a ladder of its own rungs.

use std::fmt;

/// The three Figure-1 choices the ablations vary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Exponent `k` in the listen probability `c·ln^k(w)/w` (A2).
    pub listen_exponent: u32,
    /// How the window moves on noise and on silence (A3).
    pub update: Update,
    /// Whether the send coin is nested inside the listen coin (A4).
    pub coupling: Coupling,
}

impl Rule {
    /// The paper's rule: `k = 3`, gentle updates, coupled coins.
    pub const PAPER: Rule = Rule {
        listen_exponent: 3,
        update: Update::Gentle,
        coupling: Coupling::Coupled,
    };

    /// `k` as `powi` takes it (saturated at `i32::MAX`).
    #[inline]
    pub(crate) fn exponent(&self) -> i32 {
        i32::try_from(self.listen_exponent).unwrap_or(i32::MAX)
    }
}

/// How the window reacts to feedback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    /// The paper's factor `1 + 1/(c·ln w)`: noise multiplies the window by
    /// it, silence divides by it (floored at `w_min`).
    Gentle,
    /// A constant factor above 1 (`Factor(2.0)` doubles and halves).
    Factor(f64),
}

/// Whether the send coin is nested inside the listen coin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coupling {
    /// The paper: listen with probability `p_l = min(1, c·ln^k(w)/w)`; a
    /// listener sends with probability `min(1, 1/(c·ln^k w))`.
    Coupled,
    /// Separate coins for listening (`p_l`) and sending (`p_s = 1/w`),
    /// drawn as one access coin `p_a = p_l + p_s − p_l·p_s` and a send coin
    /// `p_s/p_a` on access: the same marginals as two independent coins.
    /// A send without a listen still observes the slot.
    Independent,
}

/// Parameters of `LOW-SENSING BACKOFF`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    c: f64,
    w_min: f64,
    rule: Rule,
}

/// Validation failure constructing [`Params`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamError {
    /// `c` was non-positive or not finite.
    BadC,
    /// `w_min` was below 2 or not finite (the analysis needs `w ≥ 2`).
    BadWMin,
    /// `c · ln^k(w_min) < 1` under a coupled rule (`k = 3` for the paper),
    /// which would force the conditional send probability above 1 and
    /// break the `p_send = 1/w` identity.
    SendProbabilityOverflow,
    /// An [`Update::Factor`] that is not finite or not above 1.
    BadFactor,
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::BadC => write!(f, "c must be positive and finite"),
            ParamError::BadWMin => write!(f, "w_min must be finite and at least 2"),
            ParamError::SendProbabilityOverflow => write!(
                f,
                "c·ln³(w_min) (c·ln^k(w_min) under a coupled rule) must be at least 1 \
                 so that p_send|listen ≤ 1"
            ),
            ParamError::BadFactor => write!(f, "an update factor must be finite and above 1"),
        }
    }
}

impl std::error::Error for ParamError {}

impl Params {
    /// Creates validated parameters running the paper's rule,
    /// [`Rule::PAPER`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] when `c ≤ 0`, `w_min < 2`, or
    /// `c·ln³(w_min) < 1` (see module docs).
    ///
    /// # Examples
    ///
    /// ```
    /// use lowsense::Params;
    ///
    /// let p = Params::new(0.5, 4.0)?;
    /// assert!(p.respects_listen_cap());
    /// # Ok::<(), lowsense::ParamError>(())
    /// ```
    pub fn new(c: f64, w_min: f64) -> Result<Self, ParamError> {
        Params::for_rule(c, w_min, Rule::PAPER)
    }

    /// Creates validated parameters running `rule`: the one validation
    /// every constructor goes through.
    ///
    /// # Errors
    ///
    /// [`ParamError::BadC`] when `c ≤ 0` or is not finite,
    /// [`ParamError::BadWMin`] when `w_min < 2` or is not finite,
    /// [`ParamError::BadFactor`] for an [`Update::Factor`] that is not
    /// finite or not above 1, and [`ParamError::SendProbabilityOverflow`]
    /// for a coupled rule with `c·ln^k(w_min) < 1`. An independent rule
    /// skips the last check: its send coin is `1/w` whatever `c` and `k`
    /// are, so it builds below the paper's floor on `c`.
    ///
    /// ```
    /// use lowsense::{Coupling, ParamError, Params, Rule};
    ///
    /// let independent = Rule { coupling: Coupling::Independent, ..Rule::PAPER };
    /// assert!(Params::for_rule(0.3, 4.0, independent).is_ok());
    /// assert_eq!(
    ///     Params::for_rule(0.3, 4.0, Rule::PAPER),
    ///     Err(ParamError::SendProbabilityOverflow)
    /// );
    /// ```
    pub fn for_rule(c: f64, w_min: f64, rule: Rule) -> Result<Self, ParamError> {
        if c <= 0.0 || !c.is_finite() {
            return Err(ParamError::BadC);
        }
        if w_min < 2.0 || !w_min.is_finite() {
            return Err(ParamError::BadWMin);
        }
        if let Update::Factor(f) = rule.update {
            if !(f > 1.0 && f.is_finite()) {
                return Err(ParamError::BadFactor);
            }
        }
        if rule.coupling == Coupling::Coupled && c * w_min.ln().powi(rule.exponent()) < 1.0 {
            return Err(ParamError::SendProbabilityOverflow);
        }
        Ok(Params { c, w_min, rule })
    }

    /// These parameters running `rule` instead, validated as
    /// [`for_rule`](Self::for_rule) validates.
    ///
    /// # Errors
    ///
    /// As [`for_rule`](Self::for_rule); `c` and `w_min` are already valid,
    /// so only the rule's checks can fail.
    ///
    /// ```
    /// use lowsense::{Params, Rule, Update};
    ///
    /// let doubling = Rule { update: Update::Factor(2.0), ..Rule::PAPER };
    /// assert_eq!(Params::default().with_rule(doubling).unwrap().rule(), doubling);
    /// ```
    pub fn with_rule(self, rule: Rule) -> Result<Self, ParamError> {
        Params::for_rule(self.c, self.w_min, rule)
    }

    /// The multiplier `c`.
    #[inline]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The minimum window `w_min`.
    #[inline]
    pub fn w_min(&self) -> f64 {
        self.w_min
    }

    /// The Figure-1 rule these parameters run.
    #[inline]
    pub fn rule(&self) -> Rule {
        self.rule
    }

    /// Whether `c·ln^k(w)/w ≤ 1` for every reachable window, so the listen
    /// probability is never clamped and the implementation matches the
    /// paper's idealized algorithm exactly.
    pub fn respects_listen_cap(&self) -> bool {
        // w/ln^k w is U-shaped with minimum at w = e^k (increasing for
        // k = 0); check the minimum of the reachable region [w_min, ∞).
        let k = self.rule.exponent();
        let ek = std::f64::consts::E.powi(k);
        let at = |w: f64| w / w.ln().powi(k);
        let min = if self.w_min <= ek {
            at(ek)
        } else {
            at(self.w_min)
        };
        self.c <= min
    }
}

impl Default for Params {
    /// Practical defaults `c = 0.5`, `w_min = 4` (see module docs).
    fn default() -> Self {
        Params::new(0.5, 4.0).expect("default parameters are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::derive;
    use crate::variant::ablation_samples;

    #[test]
    fn defaults_are_valid_and_unclamped() {
        let p = Params::default();
        assert_eq!(p.c(), 0.5);
        assert_eq!(p.w_min(), 4.0);
        assert!(p.respects_listen_cap());
    }

    #[test]
    fn rejects_bad_c() {
        assert_eq!(Params::new(0.0, 4.0), Err(ParamError::BadC));
        assert_eq!(Params::new(-1.0, 4.0), Err(ParamError::BadC));
        assert_eq!(Params::new(f64::NAN, 4.0), Err(ParamError::BadC));
        assert_eq!(Params::new(f64::INFINITY, 4.0), Err(ParamError::BadC));
    }

    #[test]
    fn rejects_bad_w_min() {
        assert_eq!(Params::new(0.5, 1.9), Err(ParamError::BadWMin));
        assert_eq!(Params::new(0.5, f64::NAN), Err(ParamError::BadWMin));
    }

    #[test]
    fn rejects_send_probability_overflow() {
        // c·ln³(2) = 0.5·0.333 < 1.
        assert_eq!(
            Params::new(0.5, 2.0),
            Err(ParamError::SendProbabilityOverflow)
        );
        // A coupled k = 0 rule sends w.p. 1/c given a listen: c = 0.5
        // overflows (c = 1 does not, see `ablation_samples`). An independent
        // rule sends at 1/w whatever k is, so it skips the check.
        let mut k0 = ablation_samples()[0].rule();
        assert_eq!(
            Params::default().with_rule(k0),
            Err(ParamError::SendProbabilityOverflow)
        );
        k0.coupling = Coupling::Independent;
        assert_eq!(Params::default().with_rule(k0).unwrap().rule(), k0);
    }

    #[test]
    fn independent_rule_builds_below_the_paper_floor_on_c() {
        // c·ln³(4) ≈ 0.80 < 1: the paper rule's send coin would overflow,
        // an independent rule's (1/w) cannot.
        let independent = Rule {
            coupling: Coupling::Independent,
            ..Rule::PAPER
        };
        let p = Params::for_rule(0.3, 4.0, independent).unwrap();
        assert_eq!((p.c(), p.w_min(), p.rule()), (0.3, 4.0, independent));
        let ladder = crate::Ladder::build(p, p.w_min());
        for (level, row) in ladder.rows().iter().enumerate() {
            let (pa, ps) = (row.p_listen, row.p_send_given_listen);
            assert!((0.0..=1.0).contains(&pa), "access {pa} at rung {level}");
            assert!((0.0..=1.0).contains(&ps), "send {ps} at rung {level}");
        }
        for err in [
            Params::for_rule(0.3, 4.0, Rule::PAPER),
            Params::new(0.3, 4.0),
        ] {
            assert_eq!(err, Err(ParamError::SendProbabilityOverflow));
        }
    }

    #[test]
    fn rejects_bad_factor() {
        let mut rule = Rule::PAPER;
        for f in [1.0, 0.5, f64::NAN, f64::INFINITY] {
            rule.update = Update::Factor(f);
            let err = Params::default().with_rule(rule);
            assert_eq!(err, Err(ParamError::BadFactor), "factor {f}");
        }
    }

    #[test]
    fn unconditional_send_probability_is_one_over_w() {
        let p = Params::default();
        for w in [4.0, 7.3, 20.0, 1e3, 1e6] {
            let row = derive(&p, w).row;
            let prod = row.p_listen * row.p_send_given_listen;
            assert!(
                (prod - 1.0 / w).abs() < 1e-12,
                "w={w}: p_send = {prod}, expect {}",
                1.0 / w
            );
        }
    }

    #[test]
    fn listen_cap_detection() {
        // c = 2 exceeds min w/ln³w ≈ 0.744 ⇒ clamping occurs around w ≈ e³.
        let p = Params::new(2.0, 4.0).unwrap();
        assert!(!p.respects_listen_cap());
        assert_eq!(derive(&p, 20.0).row.p_listen, 1.0);
        // Large w_min moves the reachable region past the dip.
        let q = Params::new(2.0, 2000.0).unwrap();
        assert!(q.respects_listen_cap());
    }

    #[test]
    fn probabilities_are_probabilities() {
        for p in std::iter::once(Params::new(1.0, 3.0).unwrap()).chain(ablation_samples()) {
            for w in [3.0, 5.0, 20.0, 100.0, 1e9] {
                let row = derive(&p, w).row;
                let (pl, ps) = (row.p_listen, row.p_send_given_listen);
                assert!((0.0..=1.0).contains(&pl), "listen {pl} at w={w}");
                assert!((0.0..=1.0).contains(&ps), "send {ps} at w={w}");
            }
        }
    }

    #[test]
    fn error_display() {
        assert!(ParamError::BadC.to_string().contains('c'));
        assert!(ParamError::SendProbabilityOverflow
            .to_string()
            .contains("ln³"));
        assert!(ParamError::BadFactor.to_string().contains("factor"));
    }
}
