//! Slow drift of per-link mean latency over hours.
//!
//! Paper Fig. 2 (and Figs. 19/21 for GCE and Rackspace) shows that pairwise
//! *mean* latencies in public clouds are stable over many days: the lines
//! wiggle a little but links keep their relative order. We model each
//! link's mean as `mean · exp(X_t)` where `X_t` is a mean-reverting
//! Ornstein–Uhlenbeck process with small stationary variance. The OU
//! reversion keeps excursions bounded (stability) while still producing the
//! visible hour-scale wiggle.

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::dist::standard_normal;
use crate::latency::LinkProfile;
use crate::loss::{FaultParams, LossPlane, DARK_DROP};
use crate::network::Network;

/// Parameters of the mean-drift process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftParams {
    /// Mean-reversion rate `theta` (1/hour). Larger = faster return to the
    /// long-run mean.
    pub reversion_per_hour: f64,
    /// Instantaneous volatility `sigma` (per √hour) of the log-multiplier.
    pub sigma_per_sqrt_hour: f64,
}

impl DriftParams {
    /// Stationary standard deviation of the log-multiplier,
    /// `sigma / sqrt(2·theta)`.
    pub fn stationary_sd(&self) -> f64 {
        self.sigma_per_sqrt_hour / (2.0 * self.reversion_per_hour).sqrt()
    }

    /// The exact OU transition over `dt_hours` as `(decay, sd)`: the
    /// conditional distribution of `X_{t+dt}` given `X_t` is normal with
    /// mean `X_t·decay`, `decay = e^{−θ·dt}`, and standard deviation
    /// `sd = sqrt(σ²(1−decay²)/(2θ))`. Every link of one process family
    /// shares it, so a network step computes it once.
    ///
    /// # Panics
    /// Panics if `dt_hours` is negative.
    pub fn transition(&self, dt_hours: f64) -> (f64, f64) {
        assert!(dt_hours >= 0.0, "dt must be >= 0, got {dt_hours}");
        let theta = self.reversion_per_hour;
        let decay = (-theta * dt_hours).exp();
        let var = self.sigma_per_sqrt_hour.powi(2) * (1.0 - decay * decay) / (2.0 * theta);
        (decay, var.sqrt())
    }
}

/// One OU transition of a log-multiplier under [`DriftParams::transition`]'s
/// `(decay, sd)`.
fn ou_step<R: Rng + ?Sized>(log_mult: f64, decay: f64, sd: f64, rng: &mut R) -> f64 {
    log_mult * decay + sd * standard_normal(rng)
}

impl Default for DriftParams {
    fn default() -> Self {
        // ~5% stationary wiggle reverting on a ~10h timescale.
        Self { reversion_per_hour: 0.1, sigma_per_sqrt_hour: 0.022 }
    }
}

/// One link's OU drift state.
#[derive(Debug, Clone)]
pub struct DriftProcess {
    params: DriftParams,
    log_mult: f64,
}

impl DriftProcess {
    /// Starts a drift process at its stationary distribution.
    pub fn new<R: Rng + ?Sized>(params: DriftParams, rng: &mut R) -> Self {
        let log_mult = params.stationary_sd() * standard_normal(rng);
        Self { params, log_mult }
    }

    /// Starts a drift process exactly at the long-run mean (multiplier 1).
    pub fn at_equilibrium(params: DriftParams) -> Self {
        Self { params, log_mult: 0.0 }
    }

    /// Advances the process by `dt_hours` and returns the new multiplier.
    ///
    /// Uses the exact OU transition ([`DriftParams::transition`]).
    pub fn step<R: Rng + ?Sized>(&mut self, dt_hours: f64, rng: &mut R) -> f64 {
        let (decay, sd) = self.params.transition(dt_hours);
        self.log_mult = ou_step(self.log_mult, decay, sd, rng);
        self.multiplier()
    }

    /// The current mean-latency multiplier `exp(X_t)`.
    pub fn multiplier(&self) -> f64 {
        self.log_mult.exp()
    }
}

/// A network whose per-link mean latencies evolve **continuously** under
/// the OU drift process — the time-stepped counterpart of
/// [`Network::drifted`].
///
/// `Network::drifted(hours, ..)` draws each call from a *fresh* equilibrium
/// process, so consecutive calls are independent snapshots; an online
/// control loop instead needs the network at hour `t + dt` to be correlated
/// with the network at hour `t`. `DriftingNetwork` keeps one persistent
/// OU state per directed link (a [`DriftProcess`]'s log-multiplier, in a
/// flat column beside the one shared parameter set) and advances all of
/// them on every [`DriftingNetwork::step`], so a sequence of steps walks
/// one continuous sample path of the drift process.
#[derive(Debug, Clone)]
pub struct DriftingNetwork {
    net: Network,
    /// Immutable base profiles (the long-run means the OU processes revert
    /// towards), row-major over ordered pairs.
    base: Vec<LinkProfile>,
    /// The latency drift every link follows.
    params: DriftParams,
    /// One OU log-multiplier per directed link, row-major (diagonal
    /// entries unused).
    log_mult: Vec<f64>,
    hours: f64,
    rng: StdRng,
    /// Optional evolving fault process (per-link loss drift, blackouts,
    /// dark instances). Drawn from its own RNG so a fault schedule never
    /// perturbs the latency trajectory.
    faults: Option<FaultState>,
}

/// Evolving fault state of a [`DriftingNetwork`].
#[derive(Debug, Clone)]
struct FaultState {
    params: FaultParams,
    /// One loss OU log-multiplier per directed link (loss = base ·
    /// exp(X_t)), under `params.loss_drift`.
    log_mult: Vec<f64>,
    /// Simulated hour each link's blackout ends (row-major; 0 = none).
    link_blackout_until: Vec<f64>,
    /// Simulated hour each instance's unresponsive window ends.
    instance_dark_until: Vec<f64>,
    /// Dedicated fault RNG: the latency drift RNG stream is identical
    /// with faults on or off.
    rng: StdRng,
}

impl DriftingNetwork {
    /// Wraps a network; all link processes start at equilibrium (the
    /// wrapped network's current means are the hour-0 truth).
    pub fn new(net: Network, seed: u64) -> Self {
        let n = net.len();
        let params = net.drift_params();
        let mut base = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                base.push(if i == j {
                    LinkProfile {
                        base_mean: 0.0,
                        jitter_sigma: 0.0,
                        spike_prob: 0.0,
                        spike_scale: 0.0,
                    }
                } else {
                    *net.profile(crate::InstanceId::from_index(i), crate::InstanceId::from_index(j))
                });
            }
        }
        // Every process starts at equilibrium: log-multiplier 0.
        Self {
            net,
            base,
            params,
            log_mult: vec![0.0; n * n],
            hours: 0.0,
            rng: StdRng::seed_from_u64(seed),
            faults: None,
        }
    }

    /// Attaches an evolving fault process (builder style). The fault
    /// schedule draws exclusively from `fault_seed`'s RNG, so two arms
    /// sharing the drift seed walk the identical latency trajectory
    /// whether or not either carries faults.
    pub fn with_faults(mut self, params: FaultParams, fault_seed: u64) -> Self {
        let n = self.net.len();
        self.faults = Some(FaultState {
            params,
            log_mult: vec![0.0; n * n],
            link_blackout_until: vec![0.0; n * n],
            instance_dark_until: vec![0.0; n],
            rng: StdRng::seed_from_u64(fault_seed ^ 0xfa_17_fa_17_fa_17_fa_17),
        });
        self.refresh_loss_plane();
        self
    }

    /// Scripted fault injection: makes one instance unresponsive for
    /// `hours` of simulated time starting now (all its links dark in
    /// both directions). Used by scenarios that need a reproducible
    /// blackout at a known epoch rather than a Poisson draw.
    ///
    /// # Panics
    /// Panics if no fault process is attached.
    pub fn force_instance_dark(&mut self, instance: crate::InstanceId, hours: f64) {
        let now = self.hours;
        let faults = self.faults.as_mut().expect("no fault process attached");
        faults.instance_dark_until[instance.index()] = now + hours;
        self.refresh_loss_plane();
    }

    /// True if the instance is currently inside an unresponsive window.
    pub fn instance_dark(&self, instance: crate::InstanceId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.instance_dark_until[instance.index()] > self.hours)
    }

    /// The current drop probability of one directed link (0 without
    /// faults).
    pub fn link_loss(&self, src: crate::InstanceId, dst: crate::InstanceId) -> f64 {
        self.net.drop_prob(src, dst)
    }

    /// Advances every link's drift process by `dt_hours` and returns the
    /// updated network view. With faults attached, the per-link loss OU
    /// processes advance too, blackout/dark windows open by Poisson draw
    /// and expire, and the network's loss plane is rewritten.
    pub fn step(&mut self, dt_hours: f64) -> &Network {
        let n = self.net.len();
        let (decay, sd) = self.params.transition(dt_hours);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let idx = i * n + j;
                self.log_mult[idx] = ou_step(self.log_mult[idx], decay, sd, &mut self.rng);
                let mult = self.log_mult[idx].exp();
                let p = self.base[idx];
                self.net.model_mut().set_profile(
                    i,
                    j,
                    LinkProfile { base_mean: p.base_mean * mult, ..p },
                );
            }
        }
        self.hours += dt_hours;
        self.step_faults(dt_hours);
        &self.net
    }

    /// Advances the fault process by `dt_hours` (already reflected in
    /// `self.hours`) and rewrites the network's loss plane.
    fn step_faults(&mut self, dt_hours: f64) {
        let n = self.net.len();
        let Some(faults) = self.faults.as_mut() else {
            return;
        };
        let params = faults.params;
        let p_blackout = 1.0 - (-params.blackout_per_link_hour * dt_hours).exp();
        let p_dark = 1.0 - (-params.dark_instance_per_hour * dt_hours).exp();
        // The new multipliers are read (one `exp` each) by
        // `refresh_loss_plane`, so the step only moves the log states.
        let (decay, sd) = params.loss_drift.transition(dt_hours);
        for idx in 0..n * n {
            if idx / n == idx % n {
                continue;
            }
            faults.log_mult[idx] = ou_step(faults.log_mult[idx], decay, sd, &mut faults.rng);
            if p_blackout > 0.0 && faults.rng.random::<f64>() < p_blackout {
                faults.link_blackout_until[idx] = self.hours + params.blackout_hours;
            }
        }
        for i in 0..n {
            if p_dark > 0.0 && faults.rng.random::<f64>() < p_dark {
                faults.instance_dark_until[i] = self.hours + params.dark_instance_hours;
            }
        }
        self.refresh_loss_plane();
    }

    /// Rewrites the network's loss plane from the current fault state, in
    /// place once installed.
    fn refresh_loss_plane(&mut self) {
        let n = self.net.len();
        let Some(faults) = self.faults.as_ref() else {
            return;
        };
        if self.net.loss().is_none() {
            self.net.set_loss(LossPlane::clear(n));
        }
        let plane = self.net.loss_mut().expect("the loss plane was installed above");
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let idx = i * n + j;
                let dark = faults.instance_dark_until[i] > self.hours
                    || faults.instance_dark_until[j] > self.hours
                    || faults.link_blackout_until[idx] > self.hours;
                let p = if dark {
                    DARK_DROP
                } else {
                    (faults.params.base_loss * faults.log_mult[idx].exp()).clamp(0.0, 1.0)
                };
                // Anything but a positive probability (a NaN from a
                // degenerate multiplier included) leaves the link clear.
                plane.set_drop_prob(
                    crate::InstanceId::from_index(i),
                    crate::InstanceId::from_index(j),
                    if p > 0.0 { p } else { 0.0 },
                );
            }
        }
    }

    /// The current (drifted) network view.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Simulated hours elapsed since construction.
    pub fn hours(&self) -> f64 {
        self.hours
    }

    /// The current drifted mean RTT (ms) of one directed link — the
    /// ground truth a focused probe of that link estimates.
    pub fn link_mean(&self, src: crate::InstanceId, dst: crate::InstanceId) -> f64 {
        self.net.mean_rtt(src, dst)
    }

    /// Draws one probe RTT sample (1 KB) of `src → dst` from the current
    /// drifted truth, using the drifting network's own RNG stream — the
    /// per-link spot-check API for callers that want to verify a single
    /// suspicious link without scheduling a measurement round.
    pub fn probe_rtt(&mut self, src: crate::InstanceId, dst: crate::InstanceId) -> f64 {
        self.net.sample_rtt(src, dst, &mut self.rng)
    }

    /// Like [`DriftingNetwork::probe_rtt`] for a `size_kb`-KB message.
    pub fn probe_rtt_sized(
        &mut self,
        src: crate::InstanceId,
        dst: crate::InstanceId,
        size_kb: f64,
    ) -> f64 {
        self.net.sample_rtt_sized(src, dst, size_kb, &mut self.rng)
    }
}

/// A bucket-averaged time series of one link's observed mean latency, the
/// raw material for the paper's stability plots (Figs. 2, 19, 21).
#[derive(Debug, Clone)]
pub struct LinkTrace {
    /// Time of each bucket's end, in hours from the start.
    pub hours: Vec<f64>,
    /// Observed mean RTT (ms) in each bucket.
    pub mean_rtt: Vec<f64>,
}

impl LinkTrace {
    /// Simulates `buckets` consecutive buckets of `bucket_hours` each. The
    /// observed bucket mean is the drifted true mean plus the sampling error
    /// of averaging `probes_per_bucket` jittered probes.
    pub fn simulate<R: Rng + ?Sized>(
        profile: &LinkProfile,
        drift: DriftParams,
        bucket_hours: f64,
        buckets: usize,
        probes_per_bucket: usize,
        rng: &mut R,
    ) -> Self {
        assert!(probes_per_bucket > 0, "need at least one probe per bucket");
        let mut process = DriftProcess::new(drift, rng);
        let mut hours = Vec::with_capacity(buckets);
        let mut mean_rtt = Vec::with_capacity(buckets);
        let sample_sd = profile.sd_rtt() / (probes_per_bucket as f64).sqrt();
        for b in 0..buckets {
            let mult = process.step(bucket_hours, rng);
            let observed = profile.mean_rtt() * mult + sample_sd * standard_normal(rng);
            hours.push((b + 1) as f64 * bucket_hours);
            mean_rtt.push(observed.max(0.0));
        }
        Self { hours, mean_rtt }
    }

    /// Coefficient of variation of the trace — the paper's stability claim
    /// is that this stays small (a few percent) over days.
    pub fn coefficient_of_variation(&self) -> f64 {
        let n = self.mean_rtt.len() as f64;
        let mean = self.mean_rtt.iter().sum::<f64>() / n;
        let var = self.mean_rtt.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn profile() -> LinkProfile {
        LinkProfile { base_mean: 0.6, jitter_sigma: 0.2, spike_prob: 0.01, spike_scale: 2.0 }
    }

    #[test]
    fn stationary_sd_formula() {
        let p = DriftParams { reversion_per_hour: 0.5, sigma_per_sqrt_hour: 0.1 };
        assert!((p.stationary_sd() - 0.1 / 1.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn equilibrium_start_is_unit_multiplier() {
        let p = DriftProcess::at_equilibrium(DriftParams::default());
        assert_eq!(p.multiplier(), 1.0);
    }

    #[test]
    fn ou_reverts_to_mean() {
        let params = DriftParams { reversion_per_hour: 2.0, sigma_per_sqrt_hour: 0.0 };
        let mut p = DriftProcess { params, log_mult: 1.0 };
        let mut rng = StdRng::seed_from_u64(0);
        p.step(10.0, &mut rng);
        assert!((p.multiplier() - 1.0).abs() < 0.01, "multiplier {}", p.multiplier());
    }

    #[test]
    fn stationary_spread_matches_theory() {
        let params = DriftParams::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = DriftProcess::new(params, &mut rng);
        let xs: Vec<f64> = (0..30_000).map(|_| p.step(5.0, &mut rng).ln()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let sd = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt();
        assert!((sd - params.stationary_sd()).abs() / params.stationary_sd() < 0.1, "sd {sd}");
    }

    #[test]
    fn trace_is_stable() {
        let mut rng = StdRng::seed_from_u64(2);
        let trace =
            LinkTrace::simulate(&profile(), DriftParams::default(), 2.0, 100, 2000, &mut rng);
        assert_eq!(trace.hours.len(), 100);
        assert!(trace.coefficient_of_variation() < 0.12, "cv {}", trace.coefficient_of_variation());
        // Mean of the trace stays near the true link mean.
        let avg = trace.mean_rtt.iter().sum::<f64>() / 100.0;
        assert!((avg - profile().mean_rtt()).abs() / profile().mean_rtt() < 0.1, "avg {avg}");
    }

    #[test]
    fn traces_preserve_link_order() {
        // Two links with different means keep their order through drift —
        // the property that makes deployment tuning worthwhile at all.
        let slow = LinkProfile { base_mean: 1.0, ..profile() };
        let fast = LinkProfile { base_mean: 0.3, ..profile() };
        let mut rng = StdRng::seed_from_u64(3);
        let t_slow = LinkTrace::simulate(&slow, DriftParams::default(), 2.0, 100, 2000, &mut rng);
        let t_fast = LinkTrace::simulate(&fast, DriftParams::default(), 2.0, 100, 2000, &mut rng);
        let crossings = t_slow.mean_rtt.iter().zip(&t_fast.mean_rtt).filter(|(s, f)| s < f).count();
        assert_eq!(crossings, 0);
    }

    fn drifting_setup() -> DriftingNetwork {
        let mut cloud = crate::Cloud::boot(crate::Provider::ec2_like(), 11);
        let alloc = cloud.allocate(6);
        DriftingNetwork::new(cloud.network(&alloc), 3)
    }

    #[test]
    fn drifting_network_accumulates_state_across_steps() {
        let mut d = drifting_setup();
        let a = crate::InstanceId(0);
        let b = crate::InstanceId(1);
        let m0 = d.network().mean_rtt(a, b);
        d.step(2.0);
        let m1 = d.network().mean_rtt(a, b);
        d.step(2.0);
        let m2 = d.network().mean_rtt(a, b);
        assert_ne!(m0, m1);
        assert_ne!(m1, m2);
        assert!((d.hours() - 4.0).abs() < 1e-12);
        // Consecutive small steps stay correlated: the hop from m1 to m2 is
        // bounded by the OU transition, not a fresh equilibrium draw.
        assert!((m2 / m1 - 1.0).abs() < 0.5, "step too violent: {m1} -> {m2}");
    }

    #[test]
    fn drifting_network_reverts_to_base_mean() {
        // Averaged over a long horizon the multiplier is ~1, so the mean of
        // observed means tracks the base mean.
        let mut d = drifting_setup();
        let a = crate::InstanceId(2);
        let b = crate::InstanceId(4);
        let base = d.network().mean_rtt(a, b);
        let mut acc = 0.0;
        let steps = 2000;
        for _ in 0..steps {
            d.step(1.0);
            acc += d.network().mean_rtt(a, b);
        }
        let avg = acc / steps as f64;
        assert!((avg / base - 1.0).abs() < 0.05, "avg {avg} vs base {base}");
    }

    #[test]
    fn drifting_network_is_deterministic_per_seed() {
        let mut cloud = crate::Cloud::boot(crate::Provider::ec2_like(), 5);
        let alloc = cloud.allocate(4);
        let net = cloud.network(&alloc);
        let run = |seed| {
            let mut d = DriftingNetwork::new(net.clone(), seed);
            d.step(3.0);
            d.network().mean_rtt(crate::InstanceId(0), crate::InstanceId(3))
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn per_link_probes_track_the_drifted_truth() {
        let mut d = drifting_setup();
        d.step(5.0);
        let (a, b) = (crate::InstanceId(0), crate::InstanceId(2));
        let truth = d.link_mean(a, b);
        assert_eq!(truth, d.network().mean_rtt(a, b));
        // Probe samples average to the current drifted mean.
        let samples = 4000;
        let avg: f64 = (0..samples).map(|_| d.probe_rtt(a, b)).sum::<f64>() / samples as f64;
        assert!((avg / truth - 1.0).abs() < 0.1, "probe avg {avg} vs truth {truth}");
        // Sized probes cost more than 1 KB probes on average.
        let big: f64 = (0..500).map(|_| d.probe_rtt_sized(a, b, 64.0)).sum::<f64>() / 500.0;
        assert!(big > avg, "64 KB probe {big} not above 1 KB probe {avg}");
    }

    #[test]
    fn probes_advance_the_drift_rng_deterministically() {
        let mut cloud = crate::Cloud::boot(crate::Provider::ec2_like(), 7);
        let alloc = cloud.allocate(4);
        let net = cloud.network(&alloc);
        let run = || {
            let mut d = DriftingNetwork::new(net.clone(), 1);
            let p = d.probe_rtt(crate::InstanceId(0), crate::InstanceId(1));
            d.step(1.0);
            (p, d.network().mean_rtt(crate::InstanceId(0), crate::InstanceId(1)))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_schedule_never_perturbs_the_latency_trajectory() {
        let mut cloud = crate::Cloud::boot(crate::Provider::ec2_like(), 8);
        let alloc = cloud.allocate(5);
        let net = cloud.network(&alloc);
        let run = |faults: bool| {
            let mut d = DriftingNetwork::new(net.clone(), 21);
            if faults {
                d = d.with_faults(FaultParams::default(), 99);
            }
            let mut means = Vec::new();
            for _ in 0..6 {
                d.step(2.0);
                for i in 0..5u32 {
                    for j in 0..5u32 {
                        if i != j {
                            means.push(
                                d.network().mean_rtt(crate::InstanceId(i), crate::InstanceId(j)),
                            );
                        }
                    }
                }
            }
            means
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn flat_drift_columns_step_like_one_process_per_link() {
        // The oracle: one `DriftProcess` per directed link, stepped in
        // row-major order on RNGs seeded as the network seeds its own.
        let faults = FaultParams::drifting_loss(0.05);
        let mut d = drifting_setup().with_faults(faults, 7);
        let n = 6;
        let base = d.clone();
        let mut latency = vec![DriftProcess::at_equilibrium(base.params); n * n];
        let mut loss = vec![DriftProcess::at_equilibrium(faults.loss_drift); n * n];
        let mut rng = StdRng::seed_from_u64(3);
        let mut fault_rng = StdRng::seed_from_u64(7 ^ 0xfa_17_fa_17_fa_17_fa_17);
        for dt in [2.0, 0.5, 6.0, 0.0, 1.0] {
            d.step(dt);
            let off_diagonal = (0..n * n).filter(|idx| idx / n != idx % n);
            for idx in off_diagonal.clone() {
                latency[idx].step(dt, &mut rng);
            }
            for idx in off_diagonal {
                loss[idx].step(dt, &mut fault_rng);
                let (a, b) = (
                    crate::InstanceId::from_index(idx / n),
                    crate::InstanceId::from_index(idx % n),
                );
                let p = base.base[idx];
                let mean = LinkProfile { base_mean: p.base_mean * latency[idx].multiplier(), ..p };
                assert_eq!(d.network().mean_rtt(a, b).to_bits(), mean.mean_rtt().to_bits());
                let drop = (0.05 * loss[idx].multiplier()).clamp(0.0, 1.0);
                assert_eq!(d.link_loss(a, b).to_bits(), drop.to_bits());
            }
        }
    }

    #[test]
    fn drifting_loss_wiggles_around_its_base() {
        let mut d = drifting_setup().with_faults(FaultParams::drifting_loss(0.05), 7);
        let (a, b) = (crate::InstanceId(0), crate::InstanceId(1));
        let mut acc = 0.0;
        let steps = 500;
        for _ in 0..steps {
            d.step(1.0);
            let p = d.link_loss(a, b);
            assert!(p > 0.0 && p < 0.5, "loss {p} out of band");
            acc += p;
        }
        let avg = acc / steps as f64;
        assert!((avg / 0.05 - 1.0).abs() < 0.2, "avg loss {avg} far from base");
    }

    #[test]
    fn forced_dark_instance_blacks_out_its_links_then_recovers() {
        let mut d = drifting_setup().with_faults(FaultParams::drifting_loss(0.01), 5);
        d.step(1.0);
        let victim = crate::InstanceId(2);
        d.force_instance_dark(victim, 3.0);
        assert!(d.instance_dark(victim));
        for j in 0..6u32 {
            if j != 2 {
                assert_eq!(d.link_loss(victim, crate::InstanceId(j)), DARK_DROP);
                assert_eq!(d.link_loss(crate::InstanceId(j), victim), DARK_DROP);
            }
        }
        // Other links keep their drifting loss.
        assert!(d.link_loss(crate::InstanceId(0), crate::InstanceId(1)) < 0.5);
        // The window expires with time.
        d.step(4.0);
        assert!(!d.instance_dark(victim));
        assert!(d.link_loss(victim, crate::InstanceId(0)) < 0.5);
    }

    #[test]
    fn trace_hours_are_bucket_ends() {
        let mut rng = StdRng::seed_from_u64(4);
        let trace = LinkTrace::simulate(&profile(), DriftParams::default(), 1.5, 4, 100, &mut rng);
        assert_eq!(trace.hours, vec![1.5, 3.0, 4.5, 6.0]);
    }
}
