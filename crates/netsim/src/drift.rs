//! Slow drift of per-link mean latency over hours.
//!
//! Paper Fig. 2 (and Figs. 19/21 for GCE and Rackspace) shows that pairwise
//! *mean* latencies in public clouds are stable over many days: the lines
//! wiggle a little but links keep their relative order. We model each
//! link's mean as `mean · exp(X_t)` where `X_t` is a mean-reverting
//! Ornstein–Uhlenbeck process with small stationary variance. The OU
//! reversion keeps excursions bounded (stability) while still producing the
//! visible hour-scale wiggle.

use rand::Rng;

use crate::dist::{keyed_normal, mix64, standard_normal};
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

impl Default for DriftParams {
    fn default() -> Self {
        // ~5% stationary wiggle reverting on a ~10h timescale.
        Self { reversion_per_hour: 0.1, sigma_per_sqrt_hour: 0.022 }
    }
}

/// A network whose per-link mean latencies evolve **continuously** under
/// the OU drift process — the one drift source of every simulated
/// stream, experiment and figure.
///
/// An online control loop needs the network at hour `t + dt` to be
/// correlated with the network at hour `t`, and its mean-reversion to
/// hold however many steps it takes: `DriftingNetwork` keeps one
/// persistent OU log-multiplier per directed link (in a flat column
/// beside the one shared parameter set, over each link's fixed base
/// mean), so a sequence of steps walks one continuous sample path of the
/// drift process, whose spread stays at its stationary level.
///
/// **Lazy drift.** The innovation a link draws at step `s` is a
/// counter-keyed standard normal of `(seed, link, s)`, not the next draw
/// of a shared sequential stream. So a link's path is a function of
/// those three alone, and a link can be brought up to date when it is
/// read: [`DriftingNetwork::step`] only logs the step's transition, and
/// [`DriftingNetwork::advance`], [`DriftingNetwork::advance_instances`]
/// and [`DriftingNetwork::advance_all`] replay a lagging link's missed
/// steps in one loop, then write its profile and drop probability once.
/// Whatever is advanced when, every link reads bit-identically to
/// advancing every link on every step.
#[derive(Debug, Clone)]
pub struct DriftingNetwork {
    net: Network,
    /// Each directed link's long-run base mean, the value its OU
    /// multiplier scales (row-major; diagonal 0). The profile's other
    /// fields never drift and stay in the model.
    base_mean: Vec<f64>,
    /// The latency drift every link follows.
    params: DriftParams,
    /// Key of the latency draws (the construction seed).
    key: u64,
    /// One OU log-multiplier per directed link, row-major (diagonal
    /// entries unused), as of the link's `at_step`.
    log_mult: Vec<f64>,
    /// The step each link's processes (latency and, with faults, loss)
    /// were last advanced to; 0 is construction.
    at_step: Vec<u32>,
    /// The steps taken since the last [`DriftingNetwork::advance_all`]
    /// (which every link has replayed, so it drops them): step `s`
    /// (counted from 1) is `steps[s − 1 − logged_from]`. Without an
    /// `advance_all` the log grows by one entry per step.
    steps: Vec<Step>,
    /// How many steps precede `steps[0]`.
    logged_from: u32,
    hours: f64,
    /// Optional evolving fault process (per-link loss drift, scripted
    /// dark instances). Keyed by its own seed, so a fault schedule never
    /// perturbs the latency trajectory.
    faults: Option<FaultState>,
}

/// One logged [`DriftingNetwork::step`]: the OU transition `(decay, sd)`
/// of the latency process and of the loss process over its `dt`.
#[derive(Debug, Clone, Copy)]
struct Step {
    latency: (f64, f64),
    loss: (f64, f64),
}

/// Evolving fault state of a [`DriftingNetwork`].
#[derive(Debug, Clone)]
struct FaultState {
    params: FaultParams,
    /// One loss OU log-multiplier per directed link (loss = base ·
    /// exp(X_t)), under [`DriftParams::default`], as of the link's
    /// `at_step`.
    log_mult: Vec<f64>,
    /// Simulated hour each instance's scripted unresponsive window ends.
    instance_dark_until: Vec<f64>,
    /// Key of the loss draws: the latency draws are identical with faults
    /// on or off.
    key: u64,
}

/// The draw stream of one directed link (row-major index `link`) under
/// the process key `key`.
fn link_key(key: u64, link: usize) -> u64 {
    mix64(key ^ mix64(link as u64))
}

/// Replays one OU log-multiplier `x` over `missed` transitions, numbered
/// from step `first`, on the link's draw stream `key`.
#[inline]
fn replay(mut x: f64, key: u64, first: u64, missed: impl Iterator<Item = (f64, f64)>) -> f64 {
    for (s, (decay, sd)) in (first..).zip(missed) {
        x = x * decay + sd * keyed_normal(key, s);
    }
    x
}

impl DriftingNetwork {
    /// Wraps a network; all link processes start at equilibrium (the
    /// wrapped network's current means are the hour-0 truth).
    pub fn new(net: Network, seed: u64) -> Self {
        let n = net.len();
        let params = net.drift_params();
        let base_mean = (0..n * n)
            .map(|idx| {
                let (i, j) = (idx / n, idx % n);
                if i == j {
                    0.0
                } else {
                    net.profile(crate::InstanceId::from_index(i), crate::InstanceId::from_index(j))
                        .base_mean
                }
            })
            .collect();
        // Every process starts at equilibrium: log-multiplier 0.
        Self {
            net,
            base_mean,
            params,
            key: seed,
            log_mult: vec![0.0; n * n],
            at_step: vec![0; n * n],
            steps: Vec::new(),
            logged_from: 0,
            hours: 0.0,
            faults: None,
        }
    }

    /// Attaches an evolving fault process (builder style). The fault
    /// schedule draws exclusively from `fault_seed`'s keyed stream, so two
    /// arms sharing the drift seed walk the identical latency trajectory
    /// whether or not either carries faults. Every link's loss process
    /// starts now, at equilibrium.
    pub fn with_faults(mut self, params: FaultParams, fault_seed: u64) -> Self {
        let n = self.net.len();
        self.advance_all();
        self.faults = Some(FaultState {
            params,
            log_mult: vec![0.0; n * n],
            instance_dark_until: vec![0.0; n],
            key: fault_seed ^ 0xfa_17_fa_17_fa_17_fa_17,
        });
        self.net.set_loss(LossPlane::clear(n));
        for (i, j) in Self::links(n) {
            self.write_loss(i, j);
        }
        self
    }

    /// Scripted fault injection: makes one instance unresponsive for
    /// `hours` of simulated time starting now (all its links dark in
    /// both directions) — the one way an instance goes dark, so a
    /// blackout lands at a known, reproducible epoch. Rewrites only the
    /// instance's row and column of the loss plane.
    ///
    /// # Panics
    /// Panics if no fault process is attached.
    pub fn force_instance_dark(&mut self, instance: crate::InstanceId, hours: f64) {
        let now = self.hours;
        let faults = self.faults.as_mut().expect("no fault process attached");
        let i = instance.index();
        faults.instance_dark_until[i] = now + hours;
        for j in (0..self.net.len()).filter(|&j| j != i) {
            self.write_loss(i, j);
            self.write_loss(j, i);
        }
    }

    /// Scripted regime change: brings every link up to date, then restarts
    /// the drift on the current means under `params` and the key `seed` —
    /// exactly [`DriftingNetwork::new`] on the advanced network re-wrapped
    /// with `params`, with the simulated hours carried over.
    ///
    /// # Panics
    /// Panics if a fault process is attached: its loss paths would restart
    /// on draws they already took.
    pub fn rebase(&mut self, params: DriftParams, seed: u64) {
        assert!(self.faults.is_none(), "cannot re-base a network with a fault process");
        self.advance_all();
        let net = self.net.clone().with_drift_params(params);
        *self = Self { hours: self.hours, ..Self::new(net, seed) };
    }

    /// True if the instance is currently inside an unresponsive window.
    pub fn instance_dark(&self, instance: crate::InstanceId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.instance_dark_until[instance.index()] > self.hours)
    }

    /// Advances simulated time by `dt_hours`: every link's drift process
    /// (and, with faults attached, its loss process) takes one step, and
    /// scripted dark windows that end by then expire. O(1): the step's
    /// transitions are logged, and a link replays them when it is next
    /// advanced ([`DriftingNetwork::advance`] and its siblings), so until
    /// then the network view still shows it as of its last advance.
    ///
    /// # Panics
    /// Panics if `dt_hours` is negative.
    pub fn step(&mut self, dt_hours: f64) {
        assert!(self.now() < u32::MAX as usize, "step counter exhausted");
        self.steps.push(Step {
            latency: self.params.transition(dt_hours),
            loss: DriftParams::default().transition(dt_hours),
        });
        self.hours += dt_hours;
    }

    /// Brings the directed links `pairs` up to date: each replays the
    /// steps it missed and has its profile and drop probability written.
    /// Self pairs are skipped.
    pub fn advance(&mut self, pairs: impl IntoIterator<Item = (u32, u32)>) {
        let links = pairs.into_iter().filter(|(i, j)| i != j);
        self.advance_links(links.map(|(i, j)| (i as usize, j as usize)));
    }

    /// Brings every directed link among `instances` up to date — what
    /// pricing a deployment on them reads.
    pub fn advance_instances(&mut self, instances: &[u32]) {
        self.advance(instances.iter().flat_map(|&i| instances.iter().map(move |&j| (i, j))));
    }

    /// Brings every link up to date, in one row-major pass, and drops
    /// the logged steps, which no link needs any more.
    pub fn advance_all(&mut self) {
        self.advance_links(Self::links(self.net.len()));
        self.logged_from = self.now() as u32;
        self.steps.clear();
    }

    /// How many steps were taken since construction.
    fn now(&self) -> usize {
        self.logged_from as usize + self.steps.len()
    }

    /// Every directed link of an `n`-instance network, row-major.
    fn links(n: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..n).flat_map(move |i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
    }

    /// [`DriftingNetwork::advance`] over row/column indices, under a
    /// `netsim.advance` span that counts the link-steps it replayed.
    fn advance_links(&mut self, links: impl Iterator<Item = (usize, usize)>) {
        let mut span = cloudia_obs::span!("netsim.advance");
        let replayed: u64 = links.map(|(i, j)| self.catch_up(i, j)).sum();
        span.attr("link_steps", replayed);
        cloudia_obs::counter("netsim.drift_link_steps", replayed);
    }

    /// Replays the steps link `i → j` missed and writes it into the
    /// network view; returns how many it replayed.
    fn catch_up(&mut self, i: usize, j: usize) -> u64 {
        let n = self.net.len();
        let idx = i * n + j;
        let (from, now) = (self.at_step[idx] as usize, self.now());
        if from == now {
            return 0;
        }
        let missed = &self.steps[from - self.logged_from as usize..];
        let first = from as u64 + 1;
        let x = replay(
            self.log_mult[idx],
            link_key(self.key, idx),
            first,
            missed.iter().map(|s| s.latency),
        );
        self.log_mult[idx] = x;
        self.net.model_mut().set_base_mean(i, j, self.base_mean[idx] * x.exp());
        if let Some(faults) = self.faults.as_mut() {
            faults.log_mult[idx] = replay(
                faults.log_mult[idx],
                link_key(faults.key, idx),
                first,
                missed.iter().map(|s| s.loss),
            );
        }
        self.at_step[idx] = now as u32;
        self.write_loss(i, j);
        (now - from) as u64
    }

    /// Writes link `i → j`'s drop probability from its fault state (a
    /// no-op without a fault process).
    fn write_loss(&mut self, i: usize, j: usize) {
        let Some(faults) = self.faults.as_ref() else {
            return;
        };
        let idx = i * self.net.len() + j;
        let dark = faults.instance_dark_until[i] > self.hours
            || faults.instance_dark_until[j] > self.hours;
        let p = if dark {
            DARK_DROP
        } else {
            (faults.params.base_loss * faults.log_mult[idx].exp()).clamp(0.0, 1.0)
        };
        // Anything but a positive probability (a NaN from a degenerate
        // multiplier included) leaves the link clear.
        let plane = self.net.loss_mut().expect("a fault process installs a loss plane");
        plane.set_drop_prob(
            crate::InstanceId::from_index(i),
            crate::InstanceId::from_index(j),
            if p > 0.0 { p } else { 0.0 },
        );
    }

    /// The network view. Only *current* links — those advanced since the
    /// last [`DriftingNetwork::step`] by [`DriftingNetwork::advance`],
    /// [`DriftingNetwork::advance_instances`] or, for every link,
    /// [`DriftingNetwork::advance_all`] — show the drifted truth; any
    /// other link shows its profile and drop probability as of its last
    /// advance.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Simulated hours elapsed since construction.
    pub fn hours(&self) -> f64 {
        self.hours
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
    /// of averaging `probes_per_bucket` jittered probes. The drift is the
    /// keyed OU path a [`DriftingNetwork`] link replays, keyed by a draw
    /// from `rng` and started at a stationary draw; `rng` also draws the
    /// sampling error.
    pub fn simulate<R: Rng + ?Sized>(
        profile: &LinkProfile,
        drift: DriftParams,
        bucket_hours: f64,
        buckets: usize,
        probes_per_bucket: usize,
        rng: &mut R,
    ) -> Self {
        assert!(probes_per_bucket > 0, "need at least one probe per bucket");
        let key: u64 = rng.random();
        let mut log_mult = drift.stationary_sd() * standard_normal(rng);
        let step = drift.transition(bucket_hours);
        let mut hours = Vec::with_capacity(buckets);
        let mut mean_rtt = Vec::with_capacity(buckets);
        let sample_sd = profile.sd_rtt() / (probes_per_bucket as f64).sqrt();
        for b in 0..buckets {
            log_mult = replay(log_mult, key, b as u64 + 1, std::iter::once(step));
            let observed = profile.mean_rtt() * log_mult.exp() + sample_sd * standard_normal(rng);
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
    fn ou_reverts_to_mean() {
        let params = DriftParams { reversion_per_hour: 2.0, sigma_per_sqrt_hour: 0.0 };
        let x = replay(1.0, 0, 1, std::iter::once(params.transition(10.0)));
        assert!(x.abs() < 0.01, "log-multiplier {x}");
    }

    #[test]
    fn one_keyed_path_is_stationary_at_the_theoretical_spread() {
        // One link's replayed path over 30 000 steps of 5 h: its spread
        // over time is the stationary sd, however long it runs.
        let params = DriftParams::default();
        let step = params.transition(5.0);
        let mut x = 0.0;
        let xs: Vec<f64> = (1..=30_000u64)
            .map(|s| {
                x = replay(x, link_key(1, 7), s, std::iter::once(step));
                x
            })
            .collect();
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
        d.advance([(0, 1)]);
        let m1 = d.network().mean_rtt(a, b);
        d.step(2.0);
        d.advance([(0, 1)]);
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
            d.advance([(2, 4)]);
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
            d.advance_all();
            d.network().mean_rtt(crate::InstanceId(0), crate::InstanceId(3))
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn probes_of_the_drifted_view_track_the_drifted_truth() {
        let mut d = drifting_setup();
        d.step(5.0);
        d.advance_all();
        let (a, b) = (crate::InstanceId(0), crate::InstanceId(2));
        let truth = d.network().mean_rtt(a, b);
        // Probe samples average to the current drifted mean.
        let mut rng = StdRng::seed_from_u64(5);
        let samples = 4000;
        let avg: f64 = (0..samples).map(|_| d.network().sample_rtt(a, b, &mut rng)).sum::<f64>()
            / samples as f64;
        assert!((avg / truth - 1.0).abs() < 0.1, "probe avg {avg} vs truth {truth}");
        // Sized probes cost more than 1 KB probes on average.
        let big: f64 =
            (0..500).map(|_| d.network().sample_rtt_sized(a, b, 64.0, &mut rng)).sum::<f64>()
                / 500.0;
        assert!(big > avg, "64 KB probe {big} not above 1 KB probe {avg}");
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
                d.advance_all();
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

    /// The eager oracle: every link's processes take every step, on the
    /// keyed draws the lazy network replays.
    struct Eager {
        n: usize,
        base: Vec<LinkProfile>,
        params: DriftParams,
        key: u64,
        latency: Vec<f64>,
        /// `(base_loss, key)` of the fault process, if one is attached.
        faults: Option<(f64, u64)>,
        loss: Vec<f64>,
        dark_until: Vec<f64>,
        hours: f64,
        step: u64,
    }

    impl Eager {
        /// The oracle of `DriftingNetwork::new(net, seed)`, with
        /// `with_faults(FaultParams::drifting_loss(base_loss), fault_seed)`
        /// when `faults` is `Some((base_loss, fault_seed))`.
        fn new(net: &Network, seed: u64, faults: Option<(f64, u64)>) -> Self {
            let n = net.len();
            let unused = LinkProfile {
                base_mean: 0.0,
                jitter_sigma: 0.0,
                spike_prob: 0.0,
                spike_scale: 0.0,
            };
            let base = (0..n * n)
                .map(|idx| match (idx / n, idx % n) {
                    (i, j) if i == j => unused,
                    (i, j) => *net.profile(
                        crate::InstanceId::from_index(i),
                        crate::InstanceId::from_index(j),
                    ),
                })
                .collect();
            Self {
                n,
                base,
                params: net.drift_params(),
                key: seed,
                latency: vec![0.0; n * n],
                faults: faults.map(|(p, s)| (p, s ^ 0xfa_17_fa_17_fa_17_fa_17)),
                loss: vec![0.0; n * n],
                dark_until: vec![0.0; n],
                hours: 0.0,
                step: 0,
            }
        }

        fn step(&mut self, dt: f64) {
            self.step += 1;
            self.hours += dt;
            let (decay, sd) = self.params.transition(dt);
            let (loss_decay, loss_sd) = DriftParams::default().transition(dt);
            for idx in (0..self.n * self.n).filter(|idx| idx / self.n != idx % self.n) {
                let z = keyed_normal(link_key(self.key, idx), self.step);
                self.latency[idx] = self.latency[idx] * decay + sd * z;
                if let Some((_, key)) = self.faults {
                    let z = keyed_normal(link_key(key, idx), self.step);
                    self.loss[idx] = self.loss[idx] * loss_decay + loss_sd * z;
                }
            }
        }

        fn mean_rtt(&self, i: usize, j: usize) -> f64 {
            let p = self.base[i * self.n + j];
            LinkProfile { base_mean: p.base_mean * self.latency[i * self.n + j].exp(), ..p }
                .mean_rtt()
        }

        fn drop_prob(&self, i: usize, j: usize) -> f64 {
            let Some((base_loss, _)) = self.faults else {
                return 0.0;
            };
            if self.dark_until[i] > self.hours || self.dark_until[j] > self.hours {
                return DARK_DROP;
            }
            let p = (base_loss * self.loss[i * self.n + j].exp()).clamp(0.0, 1.0);
            if p > 0.0 {
                p
            } else {
                0.0
            }
        }

        /// Asserts the lazy network reads link `i → j` bit-identically.
        fn check(&self, d: &DriftingNetwork, i: usize, j: usize) {
            let (a, b) = (crate::InstanceId::from_index(i), crate::InstanceId::from_index(j));
            let (mean, drop) = (d.network().mean_rtt(a, b), d.network().drop_prob(a, b));
            assert_eq!(mean.to_bits(), self.mean_rtt(i, j).to_bits(), "mean of {i} -> {j}");
            assert_eq!(drop.to_bits(), self.drop_prob(i, j).to_bits(), "drop of {i} -> {j}");
        }

        fn check_all(&self, d: &DriftingNetwork) {
            for (i, j) in DriftingNetwork::links(self.n) {
                self.check(d, i, j);
            }
        }
    }

    #[test]
    fn flat_drift_columns_step_like_one_process_per_link() {
        // The keyed oracle advances every link on every step; the lazy
        // network, advanced in full after each step, must read the same.
        let faults = FaultParams::drifting_loss(0.05);
        let mut d = drifting_setup().with_faults(faults, 7);
        let mut eager = Eager::new(d.network(), 3, Some((0.05, 7)));
        for dt in [2.0, 0.5, 6.0, 0.0, 1.0] {
            d.step(dt);
            eager.step(dt);
            d.advance_all();
            eager.check_all(&d);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn lazy_reads_are_bit_identical_to_eager_stepping(
            faulty in 0u8..2,
            ops in proptest::collection::vec((0u8..7, 0usize..6, 0usize..6, 0usize..4), 1..48),
        ) {
            // Random interleavings of steps (dt 0 included), single-link and
            // instance-set advances, full advances and forced blackouts:
            // every link the lazy network has brought up to date reads
            // exactly as under eager stepping.
            let dts = [0.0, 0.5, 2.0, 7.5];
            let mut d = drifting_setup();
            let mut eager = Eager::new(d.network(), 3, (faulty == 1).then_some((0.05, 7)));
            if faulty == 1 {
                d = d.with_faults(FaultParams::drifting_loss(0.05), 7);
            }
            for (kind, a, b, c) in ops {
                match kind {
                    0..=2 => {
                        d.step(dts[c]);
                        eager.step(dts[c]);
                    }
                    3 => {
                        d.advance([(a as u32, b as u32)]);
                        if a != b {
                            eager.check(&d, a, b);
                        }
                    }
                    4 => {
                        let instances = [a as u32, b as u32, ((a + c) % 6) as u32];
                        d.advance_instances(&instances);
                        for (&i, &j) in instances.iter().flat_map(|i| instances.iter().map(move |j| (i, j))) {
                            if i != j {
                                eager.check(&d, i as usize, j as usize);
                            }
                        }
                    }
                    5 if faulty == 1 => {
                        d.force_instance_dark(crate::InstanceId::from_index(a), dts[c]);
                        eager.dark_until[a] = eager.hours + dts[c];
                    }
                    _ => {
                        d.advance_all();
                        eager.check_all(&d);
                        // Every link has replayed the log: it is dropped.
                        proptest::prop_assert!(d.steps.is_empty());
                    }
                }
            }
            d.advance_all();
            eager.check_all(&d);
        }
    }

    #[test]
    fn keyed_drift_is_stationary_and_its_innovations_uncorrelated() {
        let mut cloud = crate::Cloud::boot(crate::Provider::ec2_like(), 12);
        let alloc = cloud.allocate(101);
        let mut d = DriftingNetwork::new(cloud.network(&alloc), 5);
        let n = d.net.len();
        let links: Vec<usize> = DriftingNetwork::links(n).map(|(i, j)| i * n + j).collect();
        let count = links.len() as f64;
        assert!(count >= 1e4);
        let snapshot = |d: &mut DriftingNetwork, dt: f64| {
            d.step(dt);
            d.advance_all();
            links.iter().map(|&idx| d.log_mult[idx]).collect::<Vec<f64>>()
        };
        let mean_sd = |xs: &[f64]| {
            let mean = xs.iter().sum::<f64>() / count;
            (mean, (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count).sqrt())
        };
        // 200 hours at θ = 0.1 forget the equilibrium start (decay e^{-20}):
        // one draw from the stationary law per link.
        let x0 = snapshot(&mut d, 200.0);
        let (mean, sd) = mean_sd(&x0);
        let stationary = d.params.stationary_sd();
        assert!(mean.abs() < 4.0 * stationary / count.sqrt(), "mean {mean}");
        assert!((sd / stationary - 1.0).abs() < 4.0 / (2.0 * count).sqrt(), "sd {sd}");
        // Two more steps' standardized innovations.
        let dt = 3.0;
        let (decay, step_sd) = d.params.transition(dt);
        let x1 = snapshot(&mut d, dt);
        let x2 = snapshot(&mut d, dt);
        let innovations = |before: &[f64], after: &[f64]| -> Vec<f64> {
            before.iter().zip(after).map(|(x, y)| (y - decay * x) / step_sd).collect()
        };
        let (z1, z2) = (innovations(&x0, &x1), innovations(&x1, &x2));
        let (m1, s1) = mean_sd(&z1);
        assert!(m1.abs() < 4.0 / count.sqrt() && (s1 - 1.0).abs() < 0.05, "z ~ ({m1}, {s1})");
        let corr = |a: &[f64], b: &[f64]| {
            let ((ma, sa), (mb, sb)) = (mean_sd(a), mean_sd(b));
            let cov = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum::<f64>();
            cov / a.len() as f64 / (sa * sb)
        };
        let bound = 4.0 / count.sqrt();
        let across_steps = corr(&z1, &z2);
        assert!(across_steps.abs() < bound, "lag-1 correlation across steps {across_steps}");
        let across_links = corr(&z1[..z1.len() - 1], &z1[1..]);
        assert!(across_links.abs() < bound, "lag-1 correlation across links {across_links}");
    }

    #[test]
    fn drifting_loss_wiggles_around_its_base() {
        let mut d = drifting_setup().with_faults(FaultParams::drifting_loss(0.05), 7);
        let (a, b) = (crate::InstanceId(0), crate::InstanceId(1));
        let mut acc = 0.0;
        let steps = 500;
        for _ in 0..steps {
            d.step(1.0);
            d.advance([(0, 1)]);
            let p = d.network().drop_prob(a, b);
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
        d.advance_all();
        let victim = crate::InstanceId(2);
        d.force_instance_dark(victim, 3.0);
        assert!(d.instance_dark(victim));
        for j in 0..6u32 {
            if j != 2 {
                assert_eq!(d.network().drop_prob(victim, crate::InstanceId(j)), DARK_DROP);
                assert_eq!(d.network().drop_prob(crate::InstanceId(j), victim), DARK_DROP);
            }
        }
        // Other links keep their drifting loss.
        assert!(d.network().drop_prob(crate::InstanceId(0), crate::InstanceId(1)) < 0.5);
        // The window expires with time.
        d.step(4.0);
        assert!(!d.instance_dark(victim));
        d.advance_instances(&[0, 2]);
        assert!(d.network().drop_prob(victim, crate::InstanceId(0)) < 0.5);
    }

    #[test]
    fn trace_hours_are_bucket_ends() {
        let mut rng = StdRng::seed_from_u64(4);
        let trace = LinkTrace::simulate(&profile(), DriftParams::default(), 1.5, 4, 100, &mut rng);
        assert_eq!(trace.hours, vec![1.5, 3.0, 4.5, 6.0]);
    }
}
