//! Concentration bounds on expected coverage (Appendix A and the binomial
//! tail).
//!
//! Both families turn an observed coverage count `c = Λ_R(v)` into
//! high-probability bounds on the *expected* count `E[Λ_R(v)]`. For a given
//! `a`, each bound fails with probability at most `e^{−a}`.
//!
//! # Lemma A.2: the count alone
//!
//! ```text
//! lower:  E[Λ] ≥ (√(Λ + 2a/9) − √(a/2))² − a/18
//! upper:  E[Λ] ≤ (√(Λ + a/2) + √(a/2))²
//! ```
//!
//! These charge the count a variance equal to its mean, so they need
//! neither the number of sets nor equal per-set probabilities: they hold
//! for any sum of `[0, 1]` terms whose conditional means add up to the
//! expectation (Appendix A's martingale). TRIM-B (Algorithm 3), AdaptIM
//! and ATEUC use them.
//!
//! # The binomial tail: the count and the number of sets
//!
//! When the pool holds a number `r` of sets fixed before sampling, and
//! each set covers a fixed node independently with the same probability
//! `μ`, that node's count is exactly `Binomial(r, μ)`. Write `q = c/r` and
//! `KL(q ‖ μ) = q ln(q/μ) + (1 − q) ln((1 − q)/(1 − μ))`. Hoeffding's
//! Chernoff bound in KL form (Hoeffding, *Probability inequalities for sums
//! of bounded random variables*, JASA 1963, Theorem 1) gives
//! `P(X ≥ rq) ≤ e^{−r·KL(q ‖ μ)}` for `q ≥ μ`, and the mirror for `q ≤ μ`.
//! So with `μ_L ≤ q ≤ μ_U` the two roots of `r·KL(q ‖ μ) = a`,
//! [`binomial_lower_bound`] returns `r·μ_L` and [`binomial_upper_bound`]
//! returns `r·μ_U`, each failing with probability at most `e^{−a}`. The
//! lower bound never falls as `c` grows, so it exceeds `rμ` exactly when
//! `X` reaches some count `k`; its value at `k` is at most `r·μ_L(k)`, so
//! `μ < μ_L(k)`, `r·KL(k/r ‖ μ) > a` and `P(X ≥ k) < e^{−a}`. The upper
//! bound mirrors this. TRIM's certificate (Algorithm 2, Lines 9–10) uses
//! them; its checks happen at sizes fixed by its schedule, and each set
//! draws from its own RNG stream.
//!
//! The gap to Lemma A.2 grows with the coverage fraction `q`: Lemma A.2
//! charges variance `rμ` where the binomial has `rμ(1 − μ)`. At `q ≈ 0.18`
//! the sample that certifies a ratio is about 20% smaller, and at
//! `q = 0.5` it is halved.
//!
//! # The solver
//!
//! `g(μ) = r·KL(q ‖ μ) − a` is convex in `μ`, negative at `q` and positive
//! at each root's outer side. Newton's method starts from Lemma A.2's
//! value divided by `r`, which lies on or outside the interval (Lemma A.2's
//! exponent is a relaxation of the KL exponent). When that start is 0 or
//! at least 1, or `g` is negative there after rounding, it starts from a
//! closed form outside the interval: `q·e^{−1−a/c}` below `μ_L`, because
//! `(1 − q) ln((1 − q)/(1 − μ)) ≥ μ − q ≥ −q`; and by the symmetry
//! `KL(q ‖ μ) = KL(1 − q ‖ 1 − μ)`, `1 − (1 − q)·e^{−1−a/(r−c)}` above `μ_U`.
//!
//! From a start where `g ≥ 0`, each Newton iterate lands where the tangent
//! crosses zero, and convexity keeps `g` non-negative there: the iterates
//! stay outside the interval and move monotonically towards its end. So
//! every iterate is a valid bound, and the result can only tighten on
//! Lemma A.2's. The loop stops once `g ≤ 10⁻¹²·max(a, 1)`, or when a step
//! would cross into the interval through rounding, and returns the last
//! iterate with `g ≥ 0`. On TRIM's inputs (`r` from 143 to 10⁵, `a` from
//! 15 to 30) it makes 2–7 steps, 4 most often. The lower bound is then
//! clamped to `[Lemma A.2's, c]` and the upper to `[c, min(Lemma A.2's, r)]`,
//! so rounding in `r·μ` cannot undo the dominance.

/// Lower bound `Λ^l` of Lemma A.2 / Algorithm 2 Line 9 (clamped at 0).
pub fn coverage_lower_bound(observed: f64, a: f64) -> f64 {
    assert!(observed >= 0.0 && a >= 0.0, "inputs must be non-negative");
    let root = (observed + 2.0 * a / 9.0).sqrt() - (a / 2.0).sqrt();
    // While `root ≤ 0` the count bounds nothing: `root² − a/18` is negative
    // there, and exactly 0 at `observed = 0` (`(√(2/9) − √(1/2))² = 1/18`),
    // where rounding would leave a tiny positive value. Past it the bound
    // grows with the count.
    if root <= 0.0 {
        return 0.0;
    }
    (root * root - a / 18.0).max(0.0)
}

/// Upper bound `Λ^u` of Lemma A.2 / Algorithm 2 Line 10.
pub fn coverage_upper_bound(observed: f64, a: f64) -> f64 {
    assert!(observed >= 0.0 && a >= 0.0, "inputs must be non-negative");
    let root = (observed + a / 2.0).sqrt() + (a / 2.0).sqrt();
    root * root
}

/// Lower bound `r·μ_L` on the mean of a `Binomial(r, μ)` count observed at
/// `c` (module docs); fails with probability at most `e^{−a}`. It is at
/// least [`coverage_lower_bound`]`(c, a)` and at most `c`; `c = 0` gives 0,
/// as Lemma A.2's value does, and `a = 0` gives `c`.
pub fn binomial_lower_bound(c: f64, r: f64, a: f64) -> f64 {
    check_binomial(c, r, a);
    if c == 0.0 || a == 0.0 {
        return c;
    }
    let lemma = coverage_lower_bound(c, a);
    let q = c / r;
    let outside = q * (-1.0 - a / c).exp();
    let mu = kl_root(q, r, a, [lemma / r, outside], 0.0);
    (r * mu).max(lemma).min(c)
}

/// Upper bound `r·μ_U` on the mean of a `Binomial(r, μ)` count observed at
/// `c` (module docs); fails with probability at most `e^{−a}`. It is at
/// least `c` and at most [`coverage_upper_bound`]`(c, a)` and `r`; `c = r`
/// gives `r` and `a = 0` gives `c`.
pub fn binomial_upper_bound(c: f64, r: f64, a: f64) -> f64 {
    check_binomial(c, r, a);
    if c == r || a == 0.0 {
        return c;
    }
    let lemma = coverage_upper_bound(c, a);
    let q = c / r;
    let outside = 1.0 - (1.0 - q) * (-1.0 - a / (r - c)).exp();
    let mu = kl_root(q, r, a, [lemma / r, outside], 1.0);
    (r * mu).min(lemma).min(r).max(c)
}

fn check_binomial(c: f64, r: f64, a: f64) {
    assert!(
        r > 0.0 && (0.0..=r).contains(&c) && a >= 0.0,
        "need 0 ≤ c ≤ r, r > 0 and a ≥ 0 (c = {c}, r = {r}, a = {a})"
    );
}

/// Newton steps the solver may take; on TRIM's inputs it makes 2–7.
const MAX_NEWTON_STEPS: usize = 64;

/// The root of `r·KL(q ‖ μ) = a` on `edge`'s side of `q` (`edge` is 0 or
/// 1), solved by Newton from the first of `starts` that lies in `(0, 1)` on
/// or outside the root; `edge` itself when neither does.
fn kl_root(q: f64, r: f64, a: f64, starts: [f64; 2], edge: f64) -> f64 {
    let excess = |mu: f64| r * kl_bernoulli(q, mu) - a;
    let Some((mut mu, mut g)) = starts
        .into_iter()
        .filter(|&mu| mu > 0.0 && mu < 1.0)
        .map(|mu| (mu, excess(mu)))
        .find(|&(_, g)| g >= 0.0)
    else {
        return edge;
    };
    let tolerance = 1e-12 * a.max(1.0);
    for _ in 0..MAX_NEWTON_STEPS {
        if g <= tolerance {
            break;
        }
        let slope = r * (mu - q) / (mu * (1.0 - mu));
        let next = mu - g / slope;
        if next == mu || !(next > 0.0 && next < 1.0) {
            break;
        }
        let next_g = excess(next);
        if next_g < 0.0 {
            // Rounding carried the step into the interval.
            break;
        }
        (mu, g) = (next, next_g);
    }
    mu
}

/// Bernoulli KL divergence `KL(q ‖ μ)` for `q ∈ [0, 1]`, `μ ∈ (0, 1)`.
/// Both logarithms go through `ln_1p` of the relative gap, so the terms
/// stay accurate when `μ` is close to `q`.
fn kl_bernoulli(q: f64, mu: f64) -> f64 {
    let head = if q > 0.0 {
        q * ((q - mu) / mu).ln_1p()
    } else {
        0.0
    };
    let tail = if q < 1.0 {
        (1.0 - q) * ((mu - q) / (1.0 - mu)).ln_1p()
    } else {
        0.0
    };
    head + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lower_below_observation_upper_above() {
        for &obs in &[0.0, 1.0, 10.0, 1000.0, 1e7] {
            for &a in &[0.1, 1.0, 5.0, 20.0] {
                let lo = coverage_lower_bound(obs, a);
                let hi = coverage_upper_bound(obs, a);
                assert!(lo <= obs + 1e-9, "lower({obs}, {a}) = {lo} > obs");
                assert!(hi >= obs - 1e-9, "upper({obs}, {a}) = {hi} < obs");
                assert!(lo <= hi);
            }
        }
    }

    #[test]
    fn bounds_tighten_as_a_shrinks() {
        let obs = 500.0;
        let (lo1, hi1) = (
            coverage_lower_bound(obs, 10.0),
            coverage_upper_bound(obs, 10.0),
        );
        let (lo2, hi2) = (
            coverage_lower_bound(obs, 1.0),
            coverage_upper_bound(obs, 1.0),
        );
        assert!(lo2 > lo1);
        assert!(hi2 < hi1);
    }

    #[test]
    fn zero_a_is_exact() {
        assert_eq!(coverage_lower_bound(42.0, 0.0), 42.0);
        assert_eq!(coverage_upper_bound(42.0, 0.0), 42.0);
    }

    #[test]
    fn ratio_converges_with_scale() {
        // With fixed a, lower/upper ratio -> 1 as the observation grows: the
        // stopping rule of TRIM will eventually fire.
        let a = 12.0;
        let small = coverage_lower_bound(50.0, a) / coverage_upper_bound(50.0, a);
        let big = coverage_lower_bound(50_000.0, a) / coverage_upper_bound(50_000.0, a);
        assert!(big > small);
        assert!(big > 0.95, "ratio at 50k = {big}");
    }

    #[test]
    fn lower_bound_clamped_at_zero() {
        assert!(coverage_lower_bound(0.0, 100.0) < 1e-9);
    }

    /// Exactly 0 at a zero count for every `a` (the formula's rounding
    /// used to leave ~1e-18), and non-decreasing in the count, through the
    /// point where it leaves 0.
    #[test]
    fn lower_bound_is_exactly_zero_at_zero_and_grows_with_the_count() {
        let mut a = 1e-9;
        while a < 1e4 {
            assert_eq!(coverage_lower_bound(0.0, a), 0.0, "a {a}");
            let mut prev = 0.0;
            for i in 0..=4_000 {
                let c = a * i as f64 / 400.0;
                let lower = coverage_lower_bound(c, a);
                assert!(lower >= prev, "a {a} c {c}: {lower} < {prev}");
                prev = lower;
            }
            assert!(prev > 0.0, "a {a}: a count of 10a bounds something");
            a *= 1.7;
        }
    }

    #[test]
    fn empirical_coverage_lower_bound_holds() {
        // Monte-Carlo sanity check: Bernoulli(p), the lower bound on T·p̂
        // should rarely exceed T·p.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(77);
        let p = 0.1;
        let t = 2_000usize;
        let a = 6.0; // failure probability e^-6 ≈ 0.0025
        let mut violations = 0usize;
        let runs = 400;
        for _ in 0..runs {
            let hits = (0..t).filter(|_| rng.random::<f64>() < p).count() as f64;
            if coverage_lower_bound(hits, a) > p * t as f64 {
                violations += 1;
            }
        }
        assert!(
            violations <= 5,
            "lower bound violated {violations}/{runs} times (expected ≤ ~1)"
        );
    }

    #[test]
    fn empirical_coverage_upper_bound_holds() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(78);
        let p = 0.1;
        let t = 2_000usize;
        let a = 6.0;
        let mut violations = 0usize;
        let runs = 400;
        for _ in 0..runs {
            let hits = (0..t).filter(|_| rng.random::<f64>() < p).count() as f64;
            if coverage_upper_bound(hits, a) < p * t as f64 {
                violations += 1;
            }
        }
        assert!(
            violations <= 5,
            "upper bound violated {violations}/{runs} times"
        );
    }

    #[test]
    fn binomial_bounds_at_the_edges() {
        for r in [1.0, 5.0, 143.0, 1e8] {
            for a in [0.5, 6.0, 26.0] {
                assert_eq!(binomial_lower_bound(0.0, r, a), 0.0);
                assert_eq!(binomial_upper_bound(r, r, a), r);
                // The roots in closed form: KL(0 ‖ μ) = −ln(1 − μ) and
                // KL(1 ‖ μ) = −ln μ.
                let upper = -r * (-a / r).exp_m1();
                let lower = r * (-a / r).exp();
                let got = (
                    binomial_upper_bound(0.0, r, a),
                    binomial_lower_bound(r, r, a),
                );
                assert!(
                    (got.0 - upper).abs() <= 1e-7 * upper,
                    "r {r} a {a}: {got:?}"
                );
                assert!(
                    (got.1 - lower).abs() <= 1e-7 * lower,
                    "r {r} a {a}: {got:?}"
                );
                assert!(got.0 >= upper * (1.0 - 1e-12) && got.1 <= lower * (1.0 + 1e-12));
            }
            for c in [0.0, 1.0, r / 2.0, r] {
                assert_eq!(binomial_lower_bound(c, r, 0.0), c);
                assert_eq!(binomial_upper_bound(c, r, 0.0), c);
            }
        }
    }

    /// Newton lands on the roots of `r·KL(q ‖ μ) = a`: against a 200-step
    /// bisection of a plainly written KL, to 1e-7 relative, and always on
    /// the outer side.
    #[test]
    fn binomial_bounds_match_bisection() {
        let term = |x: f64, y: f64| if x > 0.0 { x * (x / y).ln() } else { 0.0 };
        let kl = |q: f64, mu: f64| term(q, mu) + term(1.0 - q, 1.0 - mu);
        for r in [1.0f64, 7.0, 143.0, 1_000.0, 40_000.0] {
            for frac in [0.0, 0.01, 0.18, 0.5, 0.9, 1.0] {
                let c = (frac * r).round();
                let q = c / r;
                for a in [0.5, 6.0, 26.0] {
                    // g(μ) = r·KL(q ‖ μ) − a falls on (0, q] and rises on [q, 1).
                    let g = |mu: f64| r * kl(q, mu) - a;
                    let (mut lo, mut hi) = (0.0, q);
                    let (mut up_lo, mut up_hi) = (q, 1.0);
                    for _ in 0..200 {
                        let mid = 0.5 * (lo + hi);
                        if g(mid) > 0.0 {
                            lo = mid
                        } else {
                            hi = mid
                        }
                        let mid = 0.5 * (up_lo + up_hi);
                        if g(mid) > 0.0 {
                            up_hi = mid
                        } else {
                            up_lo = mid
                        }
                    }
                    let (want_lo, want_hi) = (r * lo, r * up_hi);
                    let (got_lo, got_hi) =
                        (binomial_lower_bound(c, r, a), binomial_upper_bound(c, r, a));
                    let case = format!("c {c} r {r} a {a}");
                    assert!(
                        (got_lo - want_lo).abs() <= 1e-7 * want_lo.max(1e-3),
                        "{case}: lower {got_lo} vs {want_lo}"
                    );
                    assert!(
                        (got_hi - want_hi).abs() <= 1e-7 * want_hi,
                        "{case}: upper {got_hi} vs {want_hi}"
                    );
                    // The plain KL is good to ~1e-11 relative at r = 40 000.
                    let inside =
                        got_lo > r * hi * (1.0 + 1e-9) || got_hi < r * up_lo * (1.0 - 1e-9);
                    assert!(!inside, "{case}: inside the interval");
                }
            }
        }
    }

    /// The exact failure probabilities of the binomial bounds. For every
    /// pool size `r` in 1..=60 and `r` ∈ {100, 200}, `a` ∈ {0.5, 1, 3, 6}
    /// and `μ` on a 400-point grid, `P_μ(lower(X) > rμ)` and
    /// `P_μ(upper(X) < rμ)` with `X ~ Binomial(r, μ)`, summed from the pmf
    /// in log space, are at most `e^{−a}`.
    #[test]
    fn binomial_bounds_fail_with_probability_at_most_e_to_the_minus_a() {
        let mut worst = 0.0f64;
        for r in (1..=60usize).chain([100, 200]) {
            let mut ln_choose = vec![0.0f64; r + 1];
            for k in 1..=r {
                ln_choose[k] = ln_choose[k - 1] + ((r - k + 1) as f64 / k as f64).ln();
            }
            let rf = r as f64;
            for a in [0.5, 1.0, 3.0, 6.0] {
                let bound = |f: fn(f64, f64, f64) -> f64| -> Vec<f64> {
                    (0..=r).map(|k| f(k as f64, rf, a)).collect()
                };
                let (lower, upper) = (bound(binomial_lower_bound), bound(binomial_upper_bound));
                let allowed = (-a).exp();
                for i in 1..=400 {
                    let mu = i as f64 / 401.0;
                    let (ln_mu, ln_rest) = (mu.ln(), (-mu).ln_1p());
                    let (mut over, mut under) = (0.0, 0.0);
                    for k in 0..=r {
                        let p = (ln_choose[k] + k as f64 * ln_mu + (r - k) as f64 * ln_rest).exp();
                        if lower[k] > rf * mu {
                            over += p;
                        }
                        if upper[k] < rf * mu {
                            under += p;
                        }
                    }
                    let case = format!("r {r} a {a} μ {mu}");
                    assert!(
                        over <= allowed * (1.0 + 1e-9),
                        "{case}: lower fails w.p. {over}"
                    );
                    assert!(
                        under <= allowed * (1.0 + 1e-9),
                        "{case}: upper fails w.p. {under}"
                    );
                    worst = worst.max(over.max(under) / allowed);
                }
            }
        }
        // The bounds are valid, not slack: somewhere on the grid a bound
        // fails almost as often as it may.
        assert!(worst > 0.9, "worst failure ratio {worst}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// Over `r` up to 10⁸, `c ≤ r` and `a ∈ (0, 100]`: the binomial
        /// bounds lie between Lemma A.2's and `c` (and within `[0, r]`),
        /// never fall as `c` grows, and lie on or outside the KL interval.
        #[test]
        fn binomial_bounds_dominate_lemma_a2(
            (log_r, frac, pick) in (0.0f64..8.0001, 0.0f64..1.0, 0u8..8),
            (a_pick, step) in (0.0f64..1.0, 0.0f64..1.0),
        ) {
            let r = 10f64.powf(log_r).round().clamp(1.0, 1e8);
            let c = match pick {
                0 => 0.0,
                1 => r,
                _ => (frac * r).floor(),
            };
            let a = 100.0 * (1.0 - a_pick).powi(3);
            let (lo, hi) = (binomial_lower_bound(c, r, a), binomial_upper_bound(c, r, a));
            let case = format!("c {c} r {r} a {a}: lower {lo} upper {hi}");
            prop_assert!(coverage_lower_bound(c, a) <= lo && lo <= c, "{}", case);
            prop_assert!(c <= hi && hi <= coverage_upper_bound(c, a).min(r), "{}", case);
            // On or outside the KL interval, up to the f64 spacing of the
            // returned count (a count close to r cannot hold its gap to r
            // exactly). Past r/2 the check goes through the symmetry
            // KL(q ‖ μ) = KL(1 − q ‖ 1 − μ), where r − x is exact.
            let r_kl = |x: f64| {
                if x <= r / 2.0 {
                    r * kl_bernoulli(c / r, x / r)
                } else {
                    r * kl_bernoulli((r - c) / r, (r - x) / r)
                }
            };
            let spacing = 4.0 * f64::EPSILON;
            if c > 0.0 {
                prop_assert!(r_kl(lo * (1.0 - spacing)) >= a * (1.0 - 1e-9), "{}", case);
            }
            let hi_out = hi * (1.0 + spacing);
            if c < r && hi_out < r {
                prop_assert!(r_kl(hi_out) >= a * (1.0 - 1e-9), "{}", case);
            }
            for bigger in [c + 1.0, c + (step * (r - c)).ceil()] {
                if bigger <= r {
                    prop_assert!(binomial_lower_bound(bigger, r, a) >= lo, "{} at c {}", case, bigger);
                    prop_assert!(binomial_upper_bound(bigger, r, a) >= hi, "{} at c {}", case, bigger);
                }
            }
        }
    }
}
