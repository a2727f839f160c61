//! Change-point detection on per-link latency streams.
//!
//! The online advisor must distinguish the paper's benign hour-scale OU
//! wiggle (Figs. 2/19/21 — links keep their relative order, no action
//! needed) from genuine regime changes (a re-routed path, a noisy
//! neighbour moving in) that warrant a re-solve. The detector consumes
//! **standardized residuals** `z = (x − μ̂)/σ̂` of the per-epoch link means
//! against the link's EWMA baseline, so its thresholds are scale-free
//! and one configuration serves every link.
//!
//! It is a two-sided **CUSUM**: it accumulates `z − k` excursions in each
//! direction and fires when a sum exceeds `h` (`k` ≈ half the post-change
//! mean shift in σ units, fixed at 0.5).
//!
//! Under stationary drift, standardized residuals are ≈ N(0, 1), so the
//! false-positive rate is controlled by `threshold` alone; the property
//! tests pin it empirically.

/// Slack per observation in σ units (CUSUM's `k`): drifts smaller than
/// ~2·`SLACK` are absorbed.
const SLACK: f64 = 0.5;

/// Detector configuration, shared by every link.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Alarm threshold in σ units (CUSUM's `h`).
    /// Larger = fewer false positives, slower detection.
    pub threshold: f64,
    /// Observations a link must accumulate before the detector arms —
    /// until the EWMA baseline has settled, residuals are meaningless.
    pub warmup: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self { threshold: 9.0, warmup: 8 }
    }
}

/// Direction of a detected change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drift {
    /// No change detected at this observation.
    None,
    /// Mean shifted up (degradation for a latency stream).
    Up,
    /// Mean shifted down (improvement opportunity).
    Down,
}

/// One link's change-point detector state.
#[derive(Debug, Clone)]
pub struct ChangeDetector {
    pub(crate) config: DetectorConfig,
    pub(crate) seen: u64,
    // CUSUM sums.
    pub(crate) pos: f64,
    pub(crate) neg: f64,
}

impl ChangeDetector {
    /// Fresh detector with the given configuration.
    pub fn new(config: DetectorConfig) -> Self {
        Self { config, seen: 0, pos: 0.0, neg: 0.0 }
    }

    /// Feeds one standardized residual; returns the detection verdict.
    /// On an alarm the internal state resets, so a persistent shift fires
    /// once and then re-arms against the (re-baselined) stream.
    ///
    /// Non-finite residuals (a degenerate baseline dividing by zero
    /// upstream) are dropped without touching any state: folding a NaN
    /// into a CUSUM sum would silently wedge the detector forever, which
    /// is strictly worse than missing one observation.
    pub fn observe(&mut self, z: f64) -> Drift {
        if !z.is_finite() {
            return Drift::None;
        }
        self.seen += 1;
        if self.seen <= self.config.warmup {
            return Drift::None;
        }
        self.pos = (self.pos + z - SLACK).max(0.0);
        self.neg = (self.neg - z - SLACK).max(0.0);
        let drift = if self.pos > self.config.threshold {
            Drift::Up
        } else if self.neg > self.config.threshold {
            Drift::Down
        } else {
            Drift::None
        };
        if drift != Drift::None {
            self.reset();
        }
        drift
    }

    fn reset(&mut self) {
        self.pos = 0.0;
        self.neg = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(detector: &mut ChangeDetector, zs: impl IntoIterator<Item = f64>) -> Vec<Drift> {
        zs.into_iter().map(|z| detector.observe(z)).collect()
    }

    #[test]
    fn quiet_stream_never_fires() {
        let mut d = ChangeDetector::new(DetectorConfig::default());
        // Alternating small residuals, well under the slack.
        let verdicts = feed(&mut d, (0..500).map(|i| if i % 2 == 0 { 0.3 } else { -0.3 }));
        assert!(verdicts.iter().all(|&v| v == Drift::None));
    }

    #[test]
    fn sustained_shift_fires_up_then_rearms() {
        let mut d = ChangeDetector::new(DetectorConfig::default());
        // Warmup of zeros, then a +2σ sustained shift.
        let verdicts = feed(&mut d, (0..8).map(|_| 0.0).chain((0..20).map(|_| 2.0)));
        let fires = verdicts.iter().filter(|&&v| v == Drift::Up).count();
        assert!(fires >= 1, "never fired");
        assert!(verdicts.iter().all(|&v| v != Drift::Down));
        // Reset re-arms: feeding the shift again fires again.
        let again = feed(&mut d, (0..20).map(|_| 2.0));
        assert!(again.contains(&Drift::Up), "did not re-arm");
    }

    #[test]
    fn downward_shift_fires_down() {
        let mut d = ChangeDetector::new(DetectorConfig::default());
        let verdicts = feed(&mut d, (0..8).map(|_| 0.0).chain((0..20).map(|_| -2.0)));
        assert!(verdicts.contains(&Drift::Down));
        assert!(verdicts.iter().all(|&v| v != Drift::Up));
    }

    #[test]
    fn non_finite_residuals_never_wedge_the_detector() {
        let mut d = ChangeDetector::new(DetectorConfig::default());
        // A burst of degenerate residuals mid-stream (the z = x/0
        // shape a zero-variance baseline used to produce) must not
        // poison the sums: the genuine shift afterwards still fires.
        let verdicts = feed(
            &mut d,
            (0..8)
                .map(|_| 0.0)
                .chain([f64::NAN, f64::INFINITY, f64::NEG_INFINITY])
                .chain((0..20).map(|_| 2.0)),
        );
        assert!(verdicts.contains(&Drift::Up), "wedged by non-finite residuals");
    }

    #[test]
    fn warmup_suppresses_early_alarms() {
        let mut d = ChangeDetector::new(DetectorConfig { warmup: 10, ..Default::default() });
        let verdicts = feed(&mut d, (0..10).map(|_| 100.0));
        assert!(verdicts.iter().all(|&v| v == Drift::None));
        assert_eq!(d.seen, 10);
    }
}
