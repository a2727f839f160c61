//! Deterministic sampling from the distributions the latency model needs.
//!
//! The offline dependency set does not include `rand_distr`, so the small
//! set of distributions we require — normal, lognormal, and exponential —
//! is implemented here. Normal variates use the Box–Muller transform (the
//! polar/Marsaglia variant, which avoids trigonometric functions and the
//! `u = 0` edge case), except the drift's counter-keyed draws
//! (`keyed_normal`), which take one inverse-CDF evaluation each.

use rand::Rng;

/// A normal (Gaussian) distribution `N(mean, sd²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean of the distribution.
    pub mean: f64,
    /// Standard deviation; must be non-negative.
    pub sd: f64,
}

impl Normal {
    /// Creates a normal distribution. Panics if `sd` is negative or not finite.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd.is_finite() && sd >= 0.0, "sd must be finite and >= 0, got {sd}");
        assert!(mean.is_finite(), "mean must be finite, got {mean}");
        Self { mean, sd }
    }

    /// Draws one sample using the Marsaglia polar method.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sd * standard_normal(rng)
    }
}

/// A lognormal distribution: `exp(N(mu, sigma²))`.
///
/// `mu` and `sigma` are the parameters of the underlying normal, i.e. the
/// distribution of the logarithm — not the mean/sd of the lognormal itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Location parameter (mean of the log).
    pub mu: f64,
    /// Scale parameter (sd of the log); must be non-negative.
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal distribution. Panics on invalid parameters.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be finite and >= 0, got {sigma}");
        assert!(mu.is_finite(), "mu must be finite, got {mu}");
        Self { mu, sigma }
    }

    /// A lognormal whose *mean* is exactly 1, for multiplicative jitter:
    /// `exp(N(-sigma²/2, sigma²))` has expectation 1.
    pub fn unit_mean(sigma: f64) -> Self {
        Self::new(-0.5 * sigma * sigma, sigma)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// The analytic mean `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
}

/// An exponential distribution with the given rate `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate parameter; must be positive.
    pub lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution. Panics if `lambda <= 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0, "lambda must be finite and > 0, got {lambda}");
        Self { lambda }
    }

    /// Draws one sample by inversion.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - u is in (0, 1]; ln of it is finite.
        let u: f64 = rng.random();
        -(1.0 - u).ln() / self.lambda
    }
}

/// Draws a standard normal variate via the Marsaglia polar method.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// The SplitMix64 finalizer: a bijective 64-bit mix — the one copy behind
/// the keyed draws here and the measurement plane's per-pair substream
/// seeds.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The standard normal keyed by a stream `key` and a counter `step`:
/// the SplitMix64 output at position `step` of the stream seeded `key`,
/// taken to a uniform in (0, 1) and through [`inverse_normal_cdf`].
///
/// A counter-based draw (Salmon et al., "Parallel Random Numbers: As
/// Easy as 1, 2, 3", SC'11) is a pure function of its key and counter,
/// so a draw never depends on which other draws were taken before it,
/// and there is no rejection loop.
#[inline]
pub(crate) fn keyed_normal(key: u64, step: u64) -> f64 {
    let bits = mix64(key.wrapping_add(step.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    // The top 53 bits, centred in their cell: strictly inside (0, 1).
    let u = ((bits >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
    inverse_normal_cdf(u)
}

/// Acklam's rational approximation of the standard normal quantile
/// function (relative error below 1.15e-9 over (0, 1)): one rational
/// polynomial in the central region `[0.02425, 0.97575]`, one in
/// `sqrt(−2 ln p)` in each tail. The measurement plane's Student-t
/// critical values are built on this same function.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < P_LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - P_LOW {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn inverse_normal_cdf_hits_known_quantiles() {
        for (p, z) in [
            (0.5, 0.0),
            (0.975, 1.959_963_984_540_054),
            (0.025, -1.959_963_984_540_054),
            (0.841_344_746_068_542_9, 1.0),
            (1e-10, -6.361_340_902_404_056),
        ] {
            let x = inverse_normal_cdf(p);
            assert!((x - z).abs() <= 1.2e-9 * z.abs().max(1.0), "p {p}: {x} vs {z}");
        }
    }

    #[test]
    fn keyed_normals_have_standard_moments_and_depend_on_both_coordinates() {
        let xs: Vec<f64> = (0..100_000u64).map(|i| keyed_normal(mix64(i % 100), i / 100)).collect();
        let (mean, sd) = moments(&xs);
        assert!(mean.abs() < 0.015, "mean {mean}");
        assert!((sd - 1.0).abs() < 0.015, "sd {sd}");
        assert_eq!(keyed_normal(7, 3).to_bits(), keyed_normal(7, 3).to_bits());
        assert_ne!(keyed_normal(7, 3), keyed_normal(7, 4));
        assert_ne!(keyed_normal(7, 3), keyed_normal(8, 3));
    }

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..200_000).map(|_| standard_normal(&mut rng)).collect();
        let (mean, sd) = moments(&xs);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((sd - 1.0).abs() < 0.01, "sd {sd}");
    }

    #[test]
    fn normal_respects_parameters() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = Normal::new(5.0, 2.0);
        let xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, sd) = moments(&xs);
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((sd - 2.0).abs() < 0.05, "sd {sd}");
    }

    #[test]
    fn lognormal_unit_mean_is_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = LogNormal::unit_mean(0.4);
        assert!((d.mean() - 1.0).abs() < 1e-12);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, _) = moments(&xs);
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn lognormal_samples_are_positive() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = LogNormal::new(-1.0, 1.5);
        assert!((0..10_000).all(|_| d.sample(&mut rng) > 0.0));
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = Exponential::new(4.0);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, _) = moments(&xs);
        assert!((mean - 0.25).abs() < 0.005, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "sd must be finite")]
    fn normal_rejects_negative_sd() {
        Normal::new(0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "lambda must be finite")]
    fn exponential_rejects_zero_rate() {
        Exponential::new(0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5).map(|_| standard_normal(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }
}
