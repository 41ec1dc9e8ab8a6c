//! The quantized window ladder: `LOW-SENSING BACKOFF`'s reachable windows
//! as a precomputed table.
//!
//! The protocol's single state variable only ever moves by multiplicative
//! steps: noise multiplies the window by `1 + 1/(c·ln w)`, silence divides
//! by it (floored at `w_min`). Starting from any anchor window the states a
//! packet can reach therefore form a discrete **ladder**: rung `k+1` is one
//! back-off step above rung `k`, and a back-on step from rung `k+1` returns
//! to rung `k`. Quantizing to the ladder is the one place this differs from
//! the continuous update: the continuous back-on divides by the factor of
//! the *current* window rather than the factor that grew it, so an up-down
//! round trip lands `O(1/(c·ln² w))` relative away from where it started
//! (see `window::tests::back_on_inverts_back_off_approximately`). The
//! ladder snaps that round trip to exact — same `1/w` send-probability
//! identity per rung, same `Θ(1/(c·ln w))`-relative step sizes the
//! analysis charges against the potential, but a finite state space.
//! Every [`Rule`](crate::Rule) the parameters carry builds its ladder the
//! same way; a constant-factor rule (`Update::Factor(f)`) steps by `f` at
//! every rung, so its ladder above the anchor is exactly `w·f^j`.
//!
//! What that buys the hot path: every rung carries the full set of derived
//! quantities the reciprocal-form window recompute used to produce on the
//! fly (`p_listen`, `p_send|listen`, `1/ln(1-p_listen)`), computed by the
//! **same arithmetic** ([`derive()`], pinned bit-identical by
//! `tests/ladder.rs`). A window update becomes a step to the neighbouring
//! rung, whose 32-byte row holds every value the next draws read — **zero**
//! `ln` calls and **zero** divides. The only transcendental left in the
//! steady state is the irreducible `ln U` of the next-wake draw.
//!
//! Ladders are interned per `(c, w_min, rule, anchor)` in a process-wide
//! cache ([`shared`]) and handed out as `&'static` references, so every
//! packet with the same parameters shares one table (typically a few
//! hundred rungs ≈ tens of KiB). Beside each interned ladder sits one
//! **rung record** per rung: the rung's row, its level, the clamped levels
//! one step down and one step up, and a reference back to the interned
//! ladder. The per-packet
//! state is one pointer to the current record (records never move: they are
//! a boxed slice that lives for the process), and a window update re-points
//! it through the record's own wiring. Interned ladders are deliberately
//! leaked; the cache is bounded by the number of distinct parameter sets a
//! process touches.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use lowsense_sim::dist::fast_ln;

use crate::params::{Coupling, Params, Update};

/// Ascent stops once the listen probability drops below this. At
/// `p_listen = 1e-21` the expected gap between channel accesses is `1e21`
/// slots — beyond any simulable horizon (`u64::MAX ≈ 1.8e19`) — so a packet
/// parked on the saturation rung is indistinguishable from one whose window
/// kept growing.
const P_LISTEN_STOP: f64 = 1e-21;

/// Hard cap on rung count, guarding construction against pathological
/// parameters (huge `c` makes the factor minuscule). Reaching it leaves the
/// top rung observable in principle; `Ladder::saturated` reports whether
/// the ladder instead ended at the [`P_LISTEN_STOP`] floor (every parameter
/// set in the test registry does).
const MAX_LEVELS: usize = 16_384;

/// One rung of the ladder: a reachable window and every derived quantity
/// the hot path reads (32 bytes — half a cache line per rung).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderRow {
    /// The window value `w` of this rung.
    pub w: f64,
    /// Listen probability `min(1, c·ln^k(w)/w)`; under
    /// [`Coupling::Independent`], the access probability `p_a`.
    pub p_listen: f64,
    /// Conditional send probability `min(1, 1/(c·ln^k w))`; under
    /// [`Coupling::Independent`], the send-given-access `p_s/p_a`.
    pub p_send_given_listen: f64,
    /// Cached `1/ln(1 - p_listen)` for the geometric wake draw; `0` in the
    /// degenerate cases the draw guards handle (`p_listen` outside
    /// `(0, 1)`).
    pub inv_ln_q_listen: f64,
}

/// Everything derivable from one window value: the [`LadderRow`] plus the
/// update-factor pair used to construct neighbouring rungs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Derived {
    /// The precomputed per-rung quantities.
    pub row: LadderRow,
    /// Back-off factor `1 + 1/(c·ln w)` (one rung up is `w · back_off`).
    pub back_off_factor: f64,
    /// Its reciprocal (the continuous back-on multiplies by this).
    pub back_on_factor: f64,
}

/// The window recompute, in one place.
///
/// This is the reciprocal-form arithmetic `LowSensing` once evaluated on
/// the fly after every window change; ladder construction reuses it, so
/// every rung is bit-identical to what that recompute produced for the
/// same window (pinned by the `tests/ladder.rs` proptest, which writes the
/// recompute out inline). One `fast_ln` of the
/// window, one reciprocal `x = 1/(c·ln w)` (the back-off factor `1 + x` is
/// bit-equal to `window::update_factor_ln(c, ln w)`), and the send
/// probability as pure multiplies: `1/(c·ln^k w) = x^k·c^(k−1)` exactly in
/// real arithmetic. The rule in `params` picks `k`, the update factor
/// (`1 + x` or a constant) and the coupling ([`LadderRow`] says what an
/// independent rule's row holds).
#[inline]
pub fn derive(params: &Params, w: f64) -> Derived {
    let rule = params.rule();
    let ln_w = fast_ln(w);
    let c = params.c();
    let x = 1.0 / (c * ln_w);
    let back_off_factor = match rule.update {
        Update::Gentle => 1.0 + x,
        Update::Factor(f) => f,
    };
    let back_on_factor = 1.0 / back_off_factor;
    let (ln_k, x_k_c) = match rule.exponent() {
        // The paper's k = 3 as multiplies: bit-equal to `powi(3)`, without
        // the runtime call on every paper ladder's build.
        3 => (ln_w * ln_w * ln_w, x * x * x * (c * c)),
        k => powers(ln_w, x, c, k),
    };
    let p_listen = (c * ln_k / w).min(1.0);
    let (p_access, p_send_given_access) = match rule.coupling {
        Coupling::Coupled => (p_listen, x_k_c.min(1.0)),
        Coupling::Independent => {
            let p_send = 1.0 / w;
            let p_access = p_listen + p_send - p_listen * p_send;
            (p_access, (p_send / p_access).min(1.0))
        }
    };
    let inv_ln_q_listen = if p_access <= 0.0 || p_access >= 1.0 {
        // Degenerate: the wake draws short-circuit before using this.
        0.0
    } else if p_access < 1e-8 {
        // `1 - p` rounds to 1 here; `ln_1p` keeps full precision.
        1.0 / (-p_access).ln_1p()
    } else {
        1.0 / fast_ln(1.0 - p_access)
    };
    Derived {
        row: LadderRow {
            w,
            p_listen: p_access,
            p_send_given_listen: p_send_given_access,
            inv_ln_q_listen,
        },
        back_off_factor,
        back_on_factor,
    }
}

/// `(ln_w^k, x^k·c^(k−1))` for an ablation's `k`, out of line so that the
/// paper's path through [`derive()`] keeps its values in registers.
#[cold]
#[inline(never)]
fn powers(ln_w: f64, x: f64, c: f64, k: i32) -> (f64, f64) {
    (ln_w.powi(k), x.powi(k) * c.powi(k - 1))
}

/// The precomputed reachable-window table for one `(params, anchor)` pair.
///
/// Rung 0 is `w_min` (the back-on floor); the anchor — the window the
/// ladder was grown from, `w_min` itself for freshly injected packets — sits
/// at [`Ladder::anchor_level`], with the continuous back-on orbit below it
/// and the back-off orbit above it, up to the saturation rung.
#[derive(Clone, PartialEq)]
pub struct Ladder {
    params: Params,
    anchor: u32,
    rows: Box<[LadderRow]>,
}

impl Ladder {
    /// Builds the ladder for `params`, anchored at `anchor_w` (clamped to
    /// `≥ w_min`).
    ///
    /// Descending rungs are the continuous back-on orbit of the anchor
    /// (each divides by the *current* rung's factor, exactly as the
    /// continuous update would, until the floor clamp yields `w_min`);
    /// ascending rungs are the back-off orbit. Both use [`derive()`]'s
    /// arithmetic, so a pure back-off (or pure back-on) trajectory of the
    /// ladder protocol is bit-identical to the continuous code's.
    pub fn build(params: Params, anchor_w: f64) -> Self {
        let w_min = params.w_min();
        let anchor_w = anchor_w.max(w_min);
        // Back-on orbit below the anchor, collected top-down. The loop
        // terminates: each step shrinks multiplicatively by at least the
        // anchor's factor until the clamp produces exactly `w_min`.
        let mut below: Vec<f64> = Vec::new();
        let mut v = anchor_w;
        while v > w_min && below.len() < MAX_LEVELS {
            let d = derive(&params, v);
            let next = (v * d.back_on_factor).max(w_min);
            if next >= v {
                break; // fp safety net: no downward progress
            }
            below.push(next);
            v = next;
        }
        let mut rows: Vec<LadderRow> = below
            .iter()
            .rev()
            .map(|&w| derive(&params, w).row)
            .collect();
        let anchor = rows.len() as u32;
        // The anchor itself, then the back-off orbit above it.
        let mut d = derive(&params, anchor_w);
        rows.push(d.row);
        while rows.len() < MAX_LEVELS && d.row.p_listen > P_LISTEN_STOP {
            let next = d.row.w * d.back_off_factor;
            if !next.is_finite() || next <= d.row.w {
                break;
            }
            d = derive(&params, next);
            rows.push(d.row);
        }
        Ladder {
            params,
            anchor,
            rows: rows.into_boxed_slice(),
        }
    }

    /// The parameters this ladder was built for.
    #[inline]
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The rung at `level`.
    #[inline]
    pub fn row(&self, level: u32) -> &LadderRow {
        &self.rows[level as usize]
    }

    /// All rungs, bottom (`w_min`) to top (saturation).
    #[inline]
    pub fn rows(&self) -> &[LadderRow] {
        &self.rows
    }

    /// Index of the anchor rung (the window the ladder was grown from).
    #[inline]
    pub fn anchor_level(&self) -> u32 {
        self.anchor
    }

    /// Index of the top (saturation) rung; back-off from here is a no-op.
    #[inline]
    pub fn top_level(&self) -> u32 {
        (self.rows.len() - 1) as u32
    }

    /// Whether ascent ended because the listen probability fell through the
    /// stop floor (the intended saturation), as opposed to the rung-count
    /// safety cap binding first.
    pub fn saturated(&self) -> bool {
        self.rows[self.rows.len() - 1].p_listen <= P_LISTEN_STOP
    }
}

impl std::fmt::Debug for Ladder {
    // A ladder holds hundreds of rungs; summarize instead of dumping them
    // into assertion messages.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ladder")
            .field("params", &self.params)
            .field("levels", &self.rows.len())
            .field("anchor", &self.anchor)
            .field("w_bottom", &self.rows[0].w)
            .field("w_top", &self.rows[self.rows.len() - 1].w)
            .finish()
    }
}

/// One rung of an interned ladder, wired to its neighbours: the record a
/// `LowSensing` state points at.
///
/// Every hot read goes through `row`; `observe` re-points to
/// `home.rung(down)` or `home.rung(up)`, levels clamped at build time to
/// the floor and the saturation rung. 56 bytes, within one cache line.
pub(crate) struct Rung {
    /// The rung's precomputed quantities, a copy of `home.ladder.row(level)`.
    pub(crate) row: LadderRow,
    /// The interned ladder this rung belongs to.
    pub(crate) home: &'static Interned,
    /// Index of this rung on its ladder.
    pub(crate) level: u32,
    /// `level - 1`, floored at rung 0: where silence steps.
    pub(crate) down: u32,
    /// `level + 1`, capped at the top rung: where noise steps.
    pub(crate) up: u32,
}

/// An interned ladder and its rung records.
///
/// Each record refers back to the `&'static Interned` that owns it, so the
/// two are built in two phases: the ladder is leaked with the records
/// unset, and the records, which need that `'static` address, are filled
/// in once.
pub(crate) struct Interned {
    /// The ladder [`shared`] hands out.
    pub(crate) ladder: Ladder,
    rungs: OnceLock<Box<[Rung]>>,
}

impl Interned {
    /// Leaks a new ladder for `(params, anchor_w)` and wires its records.
    fn leak(params: Params, anchor_w: f64) -> &'static Interned {
        let home: &'static Interned = Box::leak(Box::new(Interned {
            ladder: Ladder::build(params, anchor_w),
            rungs: OnceLock::new(),
        }));
        home.rungs.get_or_init(|| {
            let top = home.ladder.top_level();
            (0..=top)
                .map(|level| Rung {
                    row: *home.ladder.row(level),
                    home,
                    level,
                    down: level.saturating_sub(1),
                    up: (level + 1).min(top),
                })
                .collect()
        });
        home
    }

    /// Every rung record, bottom to top (one per [`Ladder::rows`] entry).
    #[inline]
    pub(crate) fn rungs(&self) -> &[Rung] {
        self.rungs
            .get()
            .expect("rung records are set when interning")
    }

    /// The record of rung `level`.
    #[inline]
    pub(crate) fn rung(&self, level: u32) -> &Rung {
        &self.rungs()[level as usize]
    }
}

/// The process-wide interned ladder and rung records for `(params,
/// anchor_w)`, built on first use; see [`shared`].
pub(crate) fn interned(params: Params, anchor_w: f64) -> &'static Interned {
    // (c, w_min, anchor, k, constant factor (`None`: gentle), independent).
    type Key = (u64, u64, u64, u32, Option<u64>, bool);
    static CACHE: OnceLock<Mutex<HashMap<Key, &'static Interned>>> = OnceLock::new();
    thread_local! {
        static LAST: Cell<Option<(Key, &'static Interned)>> = const { Cell::new(None) };
    }
    let anchor_w = anchor_w.max(params.w_min());
    let rule = params.rule();
    let key = (
        params.c().to_bits(),
        params.w_min().to_bits(),
        anchor_w.to_bits(),
        rule.listen_exponent,
        match rule.update {
            Update::Gentle => None,
            Update::Factor(f) => Some(f.to_bits()),
        },
        rule.coupling == Coupling::Independent,
    );
    if let Some((last, home)) = LAST.get() {
        if last == key {
            return home;
        }
    }
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("ladder cache poisoned");
    let home = *cache
        .entry(key)
        .or_insert_with(|| Interned::leak(params, anchor_w));
    LAST.set(Some((key, home)));
    home
}

/// Returns the process-wide interned ladder for `(params, anchor_w)`,
/// building it on first use.
///
/// Every packet constructed with the same parameters and starting window
/// shares one `&'static` table, and its rung records — the "cache sharing
/// across same-params packets" that keeps per-packet state `Copy` and one
/// pointer wide. Entries are leaked intentionally; the cache is bounded by
/// the distinct parameter sets a process touches (a sweep of 100 parameter
/// points costs a few MiB once, not per packet).
///
/// A batch constructs every packet with the same key, so a one-entry
/// per-thread cache answers repeat calls without the process-wide lock or
/// hash. It is filled only from the process-wide map, so every thread
/// still gets the one interned pointer per key.
pub fn shared(params: Params, anchor_w: f64) -> &'static Ladder {
    &interned(params, anchor_w).ladder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::ablation_samples;

    #[test]
    fn bottom_rung_is_exactly_w_min() {
        for anchor in [4.0, 5.5, 64.0, 1e6] {
            let l = Ladder::build(Params::default(), anchor);
            assert_eq!(l.row(0).w, 4.0, "anchor {anchor}");
        }
    }

    #[test]
    fn anchor_rung_carries_the_exact_anchor_window() {
        let l = Ladder::build(Params::default(), 64.0);
        assert_eq!(l.row(l.anchor_level()).w, 64.0);
        let fresh = Ladder::build(Params::default(), 4.0);
        assert_eq!(fresh.anchor_level(), 0);
    }

    #[test]
    fn rungs_strictly_increase() {
        let l = Ladder::build(Params::default(), 1e5);
        for pair in l.rows().windows(2) {
            assert!(pair[0].w < pair[1].w);
        }
    }

    #[test]
    fn ascent_saturates_below_the_listen_floor() {
        let l = Ladder::build(Params::default(), 4.0);
        assert!(l.saturated(), "{l:?}");
        assert!(l.row(l.top_level()).p_listen <= P_LISTEN_STOP);
        // One rung below the top is still above the floor (minimal ladder).
        assert!(l.row(l.top_level() - 1).p_listen > P_LISTEN_STOP);
        // The default-params ladder is small: hundreds of rungs, tens of KiB.
        assert!(l.rows().len() < 2_000, "{} rungs", l.rows().len());
    }

    #[test]
    fn rows_match_derive_by_bits() {
        for params in std::iter::once(Params::new(1.0, 8.0).unwrap()).chain(ablation_samples()) {
            let l = Ladder::build(params, 300.0);
            assert!(l.saturated(), "{l:?}");
            for row in l.rows() {
                let d = derive(l.params(), row.w);
                assert_eq!(row.p_listen.to_bits(), d.row.p_listen.to_bits());
                assert_eq!(
                    row.p_send_given_listen.to_bits(),
                    d.row.p_send_given_listen.to_bits()
                );
                assert_eq!(
                    row.inv_ln_q_listen.to_bits(),
                    d.row.inv_ln_q_listen.to_bits()
                );
            }
        }
    }

    #[test]
    fn factor_rule_rungs_are_exact_powers() {
        // Doubling from w_min = 4: noise doubles and silence halves exactly.
        let l = Ladder::build(ablation_samples()[1], 4.0);
        assert!(l.saturated(), "{l:?}");
        for (j, row) in l.rows().iter().enumerate() {
            assert_eq!(row.w, 4.0 * 2f64.powi(j as i32), "rung {j}");
        }
    }

    #[test]
    fn independent_rungs_keep_a_positive_access_probability() {
        // On every rung, the saturation rung too, p_s ≤ p_a ≤ p_l + p_s: so
        // 0 < p_a and p_s/p_a ≤ 1. (1 − (1−p_l)(1−p_s) breaks both near the
        // top: it is quantized to multiples of 1.1e-16, then rounds to 0.)
        let params = ablation_samples()[2];
        for anchor in [4.0, 1e6] {
            let l = Ladder::build(params, anchor);
            assert!(l.saturated(), "{l:?}");
            for row in l.rows() {
                let (p_send, p_a) = (1.0 / row.w, row.p_listen);
                let p_listen = (params.c() * row.w.ln().powi(3) / row.w).min(1.0);
                assert!(p_send <= p_a, "w = {}", row.w);
                assert!(p_a <= (p_listen + p_send) * (1.0 + 1e-9), "w = {}", row.w);
                let send = p_a * row.p_send_given_listen;
                assert!((send - p_send).abs() <= 1e-12 * p_send, "w = {}", row.w);
            }
        }
    }

    #[test]
    fn descent_is_the_continuous_back_on_orbit() {
        // Each rung below the anchor must be exactly one continuous back-on
        // step (reciprocal multiply + floor clamp) from the rung above it.
        let params = Params::default();
        let l = Ladder::build(params, 1e4);
        for lvl in (1..=l.anchor_level()).rev() {
            let upper = l.row(lvl).w;
            let d = derive(&params, upper);
            let expect = (upper * d.back_on_factor).max(params.w_min());
            assert_eq!(l.row(lvl - 1).w.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn ascent_is_the_continuous_back_off_orbit() {
        let params = Params::default();
        let l = Ladder::build(params, 4.0);
        for lvl in 0..l.top_level() {
            let w = l.row(lvl).w;
            let d = derive(&params, w);
            assert_eq!(
                l.row(lvl + 1).w.to_bits(),
                (w * d.back_off_factor).to_bits()
            );
        }
    }

    #[test]
    fn shared_interns_per_params_and_anchor() {
        let a = shared(Params::default(), 4.0);
        let b = shared(Params::default(), 4.0);
        assert!(std::ptr::eq(a, b));
        // Sub-floor anchors clamp to w_min and share the fresh ladder.
        let c = shared(Params::default(), 1.0);
        assert!(std::ptr::eq(a, c));
        let d = shared(Params::default(), 64.0);
        assert!(!std::ptr::eq(a, d));
        let e = shared(Params::new(1.0, 4.0).unwrap(), 4.0);
        assert!(!std::ptr::eq(a, e));
        // Every ablation rule is a key of its own.
        for other in ablation_samples() {
            assert!(!std::ptr::eq(shared(other, 4.0), a), "{other:?}");
        }
        // A/B/A: switching keys on one thread neither mixes ladders up nor
        // re-interns the first one.
        assert!(std::ptr::eq(shared(Params::default(), 64.0), d));
        assert!(std::ptr::eq(shared(Params::default(), 4.0), a));
        assert!(std::ptr::eq(shared(Params::default(), 64.0), d));
        // Another thread, with its own per-thread cache, gets the same
        // interned pointers, to the ladders and to their rung records.
        let addrs = |home: &'static Interned| {
            let ladder = &home.ladder as *const Ladder as usize;
            let rungs: Vec<usize> = home
                .rungs()
                .iter()
                .map(|r| r as *const Rung as usize)
                .collect();
            (ladder, rungs)
        };
        let (a2, d2) = std::thread::spawn(move || {
            (
                addrs(interned(Params::default(), 4.0)),
                addrs(interned(Params::default(), 64.0)),
            )
        })
        .join()
        .unwrap();
        assert_eq!(a2, addrs(interned(Params::default(), 4.0)));
        assert_eq!(d2, addrs(interned(Params::default(), 64.0)));
        assert_eq!(a2.0, a as *const Ladder as usize);
        assert_eq!(d2.0, d as *const Ladder as usize);
    }

    fn bits(row: &LadderRow) -> [u64; 4] {
        [
            row.w.to_bits(),
            row.p_listen.to_bits(),
            row.p_send_given_listen.to_bits(),
            row.inv_ln_q_listen.to_bits(),
        ]
    }

    /// Three paper-rule parameter sets (the third clamps `p_listen` to 1
    /// near `w = e³`) and the ablation samples, each anchored low to high.
    fn wiring_params() -> impl Iterator<Item = (Params, f64)> {
        [
            Params::default(),
            Params::new(1.0, 8.0).unwrap(),
            Params::new(2.0, 4.0).unwrap(),
        ]
        .into_iter()
        .chain(ablation_samples())
        .flat_map(|params| [4.0, 64.0, 1e6].map(|anchor| (params, anchor)))
    }

    #[test]
    fn rung_records_carry_their_rows_and_clamped_neighbours() {
        for (params, anchor) in wiring_params() {
            let home = interned(params, anchor);
            let ladder = &home.ladder;
            let top = ladder.top_level();
            assert!(std::mem::size_of::<Rung>() <= 64, "a record spans lines");
            assert_eq!(home.rungs().len(), ladder.rows().len());
            for (i, rung) in home.rungs().iter().enumerate() {
                let level = rung.level;
                assert_eq!(level as usize, i);
                assert!(std::ptr::eq(rung.home, home));
                assert_eq!(bits(&rung.row), bits(ladder.row(level)));
                assert_eq!(rung.down, level.saturating_sub(1));
                assert_eq!(rung.up, (level + 1).min(top));
                assert_eq!(
                    bits(&home.rung(rung.down).row),
                    bits(ladder.row(level.saturating_sub(1)))
                );
                assert_eq!(
                    bits(&home.rung(rung.up).row),
                    bits(ladder.row((level + 1).min(top)))
                );
            }
        }
    }

    #[test]
    fn rung_walk_matches_a_level_index_walk() {
        use lowsense_sim::feedback::{Feedback, Observation};
        use lowsense_sim::protocol::Protocol;
        use lowsense_sim::rng::SimRng;

        for (params, anchor) in wiring_params() {
            let mut state = crate::LowSensing::with_window(params, anchor);
            // The reference: a plain level stepped through `Ladder::row`.
            let ladder = shared(params, anchor);
            let mut level = ladder.anchor_level();
            let mut seq = SimRng::new(17);
            for step in 0..10_000 {
                let feedback = match seq.range_u64(3) {
                    0 => Feedback::Empty,
                    1 => Feedback::Noisy,
                    _ => Feedback::Success,
                };
                state.observe(&Observation::listener(step, feedback));
                level = match feedback {
                    Feedback::Empty => level.saturating_sub(1),
                    Feedback::Noisy => (level + 1).min(ladder.top_level()),
                    Feedback::Success => level,
                };
                assert_eq!(state.level(), level, "step {step}");
                assert_eq!(
                    state.window().to_bits(),
                    ladder.row(level).w.to_bits(),
                    "step {step}"
                );
                assert_eq!(
                    state.access_probability().to_bits(),
                    ladder.row(level).p_listen.to_bits(),
                    "step {step}"
                );
            }
        }
    }

    #[test]
    fn clamped_listen_probability_rows_are_degenerate_guarded() {
        // c = 2 clamps p_listen to 1 around w = e³; those rungs must carry
        // inv_ln_q = 0 (the draw guards short-circuit on p_listen >= 1).
        let l = Ladder::build(Params::new(2.0, 4.0).unwrap(), 4.0);
        let mut saw_clamped = false;
        for row in l.rows() {
            if row.p_listen >= 1.0 {
                saw_clamped = true;
                assert_eq!(row.inv_ln_q_listen, 0.0, "w = {}", row.w);
            }
        }
        assert!(saw_clamped, "expected clamped rungs near w = e³");
    }
}
