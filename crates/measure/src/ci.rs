//! Confidence intervals on per-link estimates — the error-bounded
//! measurement layer.
//!
//! Every decision the workspace makes downstream of measurement
//! (candidate pruning, change detection, redeployment economics) used to
//! consume *point* estimates: a link probed twice weighed exactly as much
//! as a link probed two hundred times, and a link never probed at all
//! priced as free. This module puts a classical t-interval on every
//! per-link mean so those decisions can demand *proof*:
//!
//! * [`LinkCi`] is built straight from the Welford `count/mean/M2`
//!   columns of [`crate::PairwiseStats`] — no extra per-link state;
//! * fewer than two samples yield an **unbounded** interval (upper bound
//!   `+∞`): `Welford::variance()` reports 0 below two observations, and a
//!   zero-width interval would make a single-sample link look infinitely
//!   certain — the exact overconfidence this layer exists to remove;
//! * censored data widens the interval: a link losing probes reports a
//!   mean conditioned on the probes that *survived*, so the half-width is
//!   inflated by `1 / (1 − loss_rate)` (loss capped at
//!   [`MAX_CENSOR_LOSS`]) from the `attempts/timeouts` columns;
//! * [`t_critical`] inverts the Student-t CDF without tables or
//!   dependencies (Acklam's inverse-normal rational approximation
//!   composed with Hill's AS 396 expansion), accurate to ~1e-3 relative
//!   even at one degree of freedom — precisely where a starved link
//!   lives.
//!
//! Two intervals **separate** when they do not overlap; only separated
//! intervals justify irreversible acts (condemning a pair mid-sweep,
//! alarming a detector, paying a migration).

/// Loss-rate ceiling for censored-data widening. Beyond 75% loss the
/// `1 / (1 − loss)` inflation is capped at 4×: a darker link than that is
/// the dark-link *triage* path's problem (strikes and evacuation), not a
/// widening problem — an unbounded multiplier would drown the interval
/// arithmetic in infinities that the `count == 0` rule already expresses.
pub const MAX_CENSOR_LOSS: f64 = 0.75;

/// A two-sided confidence interval on one directed link's mean RTT.
///
/// Built by [`crate::PairwiseStats::ci`] (or directly via
/// [`LinkCi::from_parts`]) at a caller-chosen confidence level. The
/// interval is clamped to non-negative latencies on the low side and is
/// unbounded (`upper == +∞`) whenever fewer than two samples exist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCi {
    mean: f64,
    lower: f64,
    upper: f64,
    count: u64,
    confidence: f64,
}

impl LinkCi {
    /// Builds the interval from raw Welford parts plus the probe ledger.
    ///
    /// `count/mean/m2` are the per-link Welford columns; `attempts` and
    /// `timeouts` fold probe loss into the width (censored-data
    /// widening). `confidence` must lie strictly in `(0, 1)`.
    pub fn from_parts(
        count: u64,
        mean: f64,
        m2: f64,
        attempts: u64,
        timeouts: u64,
        confidence: f64,
    ) -> Self {
        Self::with_critical(count, mean, m2, attempts, timeouts, confidence, |df| {
            t_critical(confidence, df)
        })
    }

    /// [`LinkCi::from_parts`] with the Student-t critical value supplied:
    /// `critical(df)` must be [`t_critical`]`(confidence, df)`, and is
    /// asked only when the interval is bounded. A caller pricing many
    /// links at one level looks the value up instead of re-deriving it
    /// per link; the interval has the same bits.
    pub fn with_critical(
        count: u64,
        mean: f64,
        m2: f64,
        attempts: u64,
        timeouts: u64,
        confidence: f64,
        critical: impl FnOnce(u64) -> f64,
    ) -> Self {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1), got {confidence}"
        );
        if count < 2 {
            // Zero or one sample: no spread estimate exists, so no
            // finite upper bound is defensible.
            let mean = if count == 0 { 0.0 } else { mean };
            return Self { mean, lower: 0.0, upper: f64::INFINITY, count, confidence };
        }
        let variance = m2 / (count - 1) as f64;
        let se = (variance / count as f64).sqrt();
        let mut half = critical(count - 1) * se;
        if attempts > 0 && timeouts > 0 {
            let loss = (timeouts as f64 / attempts as f64).min(MAX_CENSOR_LOSS);
            half /= 1.0 - loss;
        }
        Self { mean, lower: (mean - half).max(0.0), upper: mean + half, count, confidence }
    }

    /// Point estimate of the mean RTT.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Lower bound (never below 0).
    pub fn lower(&self) -> f64 {
        self.lower
    }

    /// Upper bound; `+∞` while fewer than two samples exist.
    pub fn upper(&self) -> f64 {
        self.upper
    }

    /// Samples behind the estimate.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Confidence level the interval was built at.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// True once the interval has a finite upper bound (≥ 2 samples).
    pub fn bounded(&self) -> bool {
        self.upper.is_finite()
    }

    /// Interval half-width (`+∞` while unbounded).
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }

    /// True if `x` lies inside the interval.
    pub fn covers(&self, x: f64) -> bool {
        x >= self.lower && x <= self.upper
    }
}

/// Two-sided Student-t critical value: the `t` with
/// `P(|T_df| ≤ t) = confidence`.
///
/// Hill's AS 396 expansion over Acklam's inverse-normal approximation —
/// no tables, no special-function dependency. Exact closed forms are
/// used at 1 and 2 degrees of freedom (Cauchy and `sqrt(2/(P(2−P)) − 2)`)
/// where series expansions are at their worst; relative error elsewhere
/// is below 1e-3, far inside the noise of the estimates the intervals
/// wrap.
pub fn t_critical(confidence: f64, df: u64) -> f64 {
    assert!(confidence > 0.0 && confidence < 1.0, "confidence must be in (0,1), got {confidence}");
    assert!(df >= 1, "t distribution needs at least 1 degree of freedom");
    let p = 1.0 - confidence; // two-tail probability
    let n = df as f64;
    if df == 1 {
        // Cauchy: quantile in closed form.
        return 1.0 / (std::f64::consts::PI * p / 2.0).tan();
    }
    if df == 2 {
        return (2.0 / (p * (2.0 - p)) - 2.0).sqrt();
    }
    // Hill, G. W. (1970), Algorithm 396: Student's t-quantile. CACM 13.
    let half_pi = std::f64::consts::FRAC_PI_2;
    let a = 1.0 / (n - 0.5);
    let b = 48.0 / (a * a);
    let mut c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36;
    let d = ((94.5 / (b + c) - 3.0) / b + 1.0) * (a * half_pi).sqrt() * n;
    let mut x = d * p;
    let mut y = x.powf(2.0 / n);
    if y > 0.05 + a {
        // Asymptotic inverse expansion about the normal quantile.
        x = -inverse_normal_cdf(p * 0.5);
        y = x * x;
        if n < 5.0 {
            c += 0.3 * (n - 4.5) * (x + 0.6);
        }
        c += (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b;
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x;
        y = a * y * y;
        y = if y > 0.002 { y.exp_m1() } else { 0.5 * y * y + y };
    } else {
        y = ((1.0 / (((n + 6.0) / (n * y) - 0.089 * d - 0.822) * (n + 2.0) * 3.0)
            + 0.5 / (n + 4.0))
            * y
            - 1.0)
            * (n + 1.0)
            / (n + 2.0)
            + 1.0 / y;
    }
    (n * y).sqrt()
}

/// Acklam's rational approximation to the standard normal quantile
/// (lower-tail probability `p` in `(0, 1)`; absolute error below
/// 1.15e-9 over the whole range).
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_critical_matches_tables() {
        // Two-sided 95% critical values from standard t tables.
        let table = [
            (1, 12.706),
            (2, 4.303),
            (3, 3.182),
            (5, 2.571),
            (10, 2.228),
            (30, 2.042),
            (100, 1.984),
            (1000, 1.962),
        ];
        for (df, expect) in table {
            let got = t_critical(0.95, df);
            assert!(
                (got - expect).abs() / expect < 2e-3,
                "t(0.95, df={df}) = {got}, expected {expect}"
            );
        }
        // 99% spot checks.
        assert!((t_critical(0.99, 5) - 4.032).abs() < 0.02);
        assert!((t_critical(0.99, 30) - 2.750).abs() < 0.01);
        // Large df converges on the normal quantile.
        assert!((t_critical(0.95, 1_000_000) - 1.959964).abs() < 1e-3);
    }

    #[test]
    fn t_critical_is_monotone_in_confidence_and_df() {
        assert!(t_critical(0.99, 10) > t_critical(0.95, 10));
        assert!(t_critical(0.95, 3) > t_critical(0.95, 10));
        assert!(t_critical(0.95, 10) > t_critical(0.95, 100));
    }

    #[test]
    fn fewer_than_two_samples_is_unbounded() {
        let none = LinkCi::from_parts(0, 0.0, 0.0, 0, 0, 0.95);
        assert!(!none.bounded());
        assert_eq!(none.upper(), f64::INFINITY);
        let one = LinkCi::from_parts(1, 42.0, 0.0, 1, 0, 0.95);
        assert!(!one.bounded());
        assert_eq!(one.mean(), 42.0);
        assert_eq!(one.lower(), 0.0);
    }

    #[test]
    fn interval_tightens_with_samples_and_covers_mean() {
        let loose = LinkCi::from_parts(4, 10.0, 12.0, 4, 0, 0.95);
        let tight = LinkCi::from_parts(400, 10.0, 1200.0, 400, 0, 0.95);
        assert!(loose.bounded() && tight.bounded());
        // Same sample variance (4.0), 100× the samples: ~10× narrower
        // before the t-factor, strictly narrower after it.
        assert!(tight.half_width() < loose.half_width());
        assert!(loose.covers(10.0) && tight.covers(10.0));
        assert!(loose.lower() >= 0.0);
    }

    #[test]
    fn censored_links_widen() {
        let clean = LinkCi::from_parts(10, 5.0, 9.0, 10, 0, 0.95);
        let lossy = LinkCi::from_parts(10, 5.0, 9.0, 20, 10, 0.95);
        assert!(lossy.half_width() > clean.half_width());
        assert!((lossy.half_width() - clean.half_width() * 2.0).abs() < 1e-9, "50% loss → 2×");
        // The widening factor caps at 1 / (1 − MAX_CENSOR_LOSS).
        let dark = LinkCi::from_parts(10, 5.0, 9.0, 1000, 999, 0.95);
        assert!((dark.half_width() - clean.half_width() * 4.0).abs() < 1e-9);
    }
}
