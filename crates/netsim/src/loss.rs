//! Per-link packet loss and failure injection.
//!
//! The paper's measurement tool assumes every probe comes back; real
//! provider networks drop packets and occasionally host instances that
//! stop responding entirely. This module models that failure surface as
//! a [`LossPlane`]: one drop probability per directed link, consulted by
//! the discrete-event [`crate::Engine`] on every send. A dropped message
//! never reaches its destination; the sender discovers the loss only
//! after a timeout, which is how the measurement schemes pay for
//! retransmits in elapsed round-trip time. [`loss_priced_mean`] is the
//! one pricing rule for what that costs a reliable exchange.
//!
//! Fault *evolution* (loss drifting over hours, scripted dark-instance
//! windows opening and closing) lives on [`crate::DriftingNetwork`],
//! drawn on its own key so a fault schedule never perturbs the latency
//! trajectory two arms of an experiment are compared on.

use crate::ids::InstanceId;

/// Drop probability written into a [`LossPlane`] for a dark instance's
/// links: nothing gets through.
pub const DARK_DROP: f64 = 1.0;

/// Expected completion time (ms) of one reliable request/reply exchange
/// over a link with mean RTT `mean` and per-direction drop probabilities
/// `p_fwd` and `p_rev`, when every failed attempt costs a `timeout_ms`
/// wait before the retransmit: `mean + (1/success − 1)·timeout_ms`, with
/// the per-attempt success probability `(1 − p_fwd)(1 − p_rev)` floored
/// at 1% so a fully dark link prices as ~99 timeouts rather than
/// infinity. A link with no positive drop probability in either
/// direction (a NaN included) costs exactly `mean`.
///
/// Ground truth ([`crate::Network::effective_mean`]) and the online
/// advisor's loss-priced search costs both price through this function.
#[inline]
pub fn loss_priced_mean(mean: f64, p_fwd: f64, p_rev: f64, timeout_ms: f64) -> f64 {
    if p_fwd > 0.0 || p_rev > 0.0 {
        let success = ((1.0 - p_fwd) * (1.0 - p_rev)).max(0.01);
        mean + (1.0 / success - 1.0) * timeout_ms
    } else {
        mean
    }
}

/// One drop probability per directed link (row-major, diagonal unused).
///
/// A plane where every entry is zero is "clear": the engine draws
/// nothing from its fault RNG and behaves bit-identically to a network
/// with no plane installed at all.
#[derive(Debug, Clone, PartialEq)]
pub struct LossPlane {
    n: usize,
    drop: Vec<f64>,
}

impl LossPlane {
    /// A clear plane (every link lossless) over `n` instances.
    pub fn clear(n: usize) -> Self {
        Self { n, drop: vec![0.0; n * n] }
    }

    /// A plane with the same drop probability on every directed link.
    pub fn uniform(n: usize, p: f64) -> Self {
        let mut plane = Self::clear(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    plane.set_drop_prob(InstanceId::from_index(i), InstanceId::from_index(j), p);
                }
            }
        }
        plane
    }

    /// Number of instances covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the plane covers no instances.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Drop probability of one directed link.
    pub fn drop_prob(&self, src: InstanceId, dst: InstanceId) -> f64 {
        self.drop[src.index() * self.n + dst.index()]
    }

    /// Sets the drop probability of one directed link.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]` or `src == dst`.
    pub fn set_drop_prob(&mut self, src: InstanceId, dst: InstanceId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "drop probability {p} outside [0, 1]");
        assert_ne!(src, dst, "diagonal entries are unused");
        self.drop[src.index() * self.n + dst.index()] = p;
    }

    /// The plane restricted to the first `n` instances.
    pub fn prefix(&self, n: usize) -> LossPlane {
        assert!(n <= self.n);
        let mut out = LossPlane::clear(n);
        for i in 0..n {
            for j in 0..n {
                out.drop[i * n + j] = self.drop[i * self.n + j];
            }
        }
        out
    }
}

/// Parameters of the evolving fault process a
/// [`crate::DriftingNetwork`] can carry: per-link loss drifting around
/// `base_loss` as `base_loss · exp(X_t)`, with `X_t` the latency drift's
/// OU process at [`crate::DriftParams::default`] (the same hour
/// timescale). Dark instances are scripted
/// ([`crate::DriftingNetwork::force_instance_dark`]), never drawn, so
/// triage assertions stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultParams {
    /// Long-run per-link drop probability the loss OU process reverts
    /// towards.
    pub base_loss: f64,
}

impl FaultParams {
    /// Loss drifting around `base_loss` per link (the loss benches run
    /// at ~5%).
    pub fn drifting_loss(base_loss: f64) -> Self {
        Self { base_loss }
    }
}

impl Default for FaultParams {
    fn default() -> Self {
        Self::drifting_loss(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_plane_is_clear() {
        let plane = LossPlane::clear(4);
        for (i, j) in (0..4u32).flat_map(|i| (0..4u32).map(move |j| (i, j))) {
            assert_eq!(plane.drop_prob(InstanceId(i), InstanceId(j)), 0.0);
        }
    }

    #[test]
    fn uniform_plane_sets_off_diagonal() {
        let plane = LossPlane::uniform(3, 0.05);
        for i in 0..3u32 {
            for j in 0..3u32 {
                if i != j {
                    assert_eq!(plane.drop_prob(InstanceId(i), InstanceId(j)), 0.05);
                }
            }
        }
    }

    #[test]
    fn prefix_restricts_entries() {
        let mut plane = LossPlane::clear(4);
        plane.set_drop_prob(InstanceId(0), InstanceId(1), 0.2);
        plane.set_drop_prob(InstanceId(0), InstanceId(3), 0.9);
        let sub = plane.prefix(2);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.drop_prob(InstanceId(0), InstanceId(1)), 0.2);
    }

    #[test]
    fn loss_priced_mean_charges_expected_timeouts() {
        // No loss in either direction: the mean itself, whatever the
        // timeout.
        assert_eq!(loss_priced_mean(0.7, 0.0, 0.0, f64::INFINITY), 0.7);
        // p_fwd = 0.5 -> success 0.5 -> one expected timeout.
        assert_eq!(loss_priced_mean(0.7, 0.5, 0.0, 50.0), 0.7 + 50.0);
        // A dark link prices finitely: success floored at 1%.
        assert!((loss_priced_mean(0.7, 0.0, 1.0, 50.0) - (0.7 + 99.0 * 50.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_probability_panics() {
        LossPlane::clear(2).set_drop_prob(InstanceId(0), InstanceId(1), 1.5);
    }
}
