//! Per-link latency model: stable heterogeneous means plus jitter.
//!
//! The phenomenon ClouDiA exploits (paper Figs. 1–2) is that pairwise mean
//! latencies between a tenant's instances are *heterogeneous* — some pairs
//! are consistently 3× worse than others — yet *stable over time*. This
//! module generates exactly that: each ordered instance pair gets a
//! [`LinkProfile`] whose mean round-trip time is derived from the hosts'
//! topological locality, a per-link lognormal heterogeneity multiplier, an
//! optional "bad link" penalty (congested oversubscribed uplinks), and a
//! small directional asymmetry. Individual probe samples then scatter
//! around the mean with lognormal jitter and rare exponential spikes, which
//! is what the paper's measurement schemes (§5) must average away.

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::dist::{Exponential, LogNormal};
use crate::ids::InstanceId;
use crate::tenancy::Allocation;
use crate::topology::{Locality, Topology};

/// Tunable parameters of the latency model; bundled per provider preset.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyParams {
    /// Base round-trip time (ms, 1 KB messages) by locality:
    /// `[same_host, same_rack, same_pod, cross_pod]`.
    pub base_rtt: [f64; 4],
    /// Sigma of the per-link lognormal heterogeneity multiplier.
    pub hetero_sigma: f64,
    /// Fraction of links that traverse a congested path and get an extra
    /// multiplicative penalty.
    pub bad_link_frac: f64,
    /// Uniform range of the bad-link penalty multiplier.
    pub bad_link_penalty: (f64, f64),
    /// Fraction of *instances* that are badly connected overall (VM on a
    /// congested host or oversubscribed uplink): every link touching such
    /// an instance is penalized. This is what makes over-allocation pay
    /// off — ClouDiA can terminate these instances (paper Fig. 13).
    pub bad_instance_frac: f64,
    /// Uniform range of the bad-instance penalty multiplier.
    pub bad_instance_penalty: (f64, f64),
    /// Sigma of the (lognormal) directional asymmetry multiplier.
    pub asym_sigma: f64,
    /// Per-link jitter sigma is drawn uniformly from this range...
    pub jitter_sigma_range: (f64, f64),
    /// ...but blended with the link's normalized mean by this weight, so
    /// jitter is only *partially* correlated with mean latency (paper
    /// Fig. 10 shows mean+SD and p99 are not perfectly correlated with mean).
    pub jitter_mean_corr: f64,
    /// Probability that a single probe experiences a latency spike.
    pub spike_prob: f64,
    /// Mean magnitude (ms) of a spike (exponentially distributed).
    pub spike_scale_ms: f64,
    /// Extra round-trip milliseconds per additional KB of message payload.
    pub per_kb_ms: f64,
}

impl LatencyParams {
    /// Validates parameter ranges, returning a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.base_rtt.iter().any(|&b| b <= 0.0 || !b.is_finite()) {
            return Err("base_rtt entries must be positive and finite".into());
        }
        if !self.base_rtt.windows(2).all(|w| w[0] <= w[1]) {
            return Err("base_rtt must be non-decreasing in locality distance".into());
        }
        if !(0.0..=1.0).contains(&self.bad_link_frac) {
            return Err("bad_link_frac must be in [0, 1]".into());
        }
        if self.bad_link_penalty.0 < 1.0 || self.bad_link_penalty.1 < self.bad_link_penalty.0 {
            return Err("bad_link_penalty must satisfy 1 <= lo <= hi".into());
        }
        if !(0.0..=1.0).contains(&self.bad_instance_frac) {
            return Err("bad_instance_frac must be in [0, 1]".into());
        }
        if self.bad_instance_penalty.0 < 1.0
            || self.bad_instance_penalty.1 < self.bad_instance_penalty.0
        {
            return Err("bad_instance_penalty must satisfy 1 <= lo <= hi".into());
        }
        if self.jitter_sigma_range.0 < 0.0 || self.jitter_sigma_range.1 < self.jitter_sigma_range.0
        {
            return Err("jitter_sigma_range must satisfy 0 <= lo <= hi".into());
        }
        if !(0.0..=1.0).contains(&self.jitter_mean_corr) {
            return Err("jitter_mean_corr must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.spike_prob) {
            return Err("spike_prob must be in [0, 1]".into());
        }
        if self.spike_scale_ms < 0.0 || self.per_kb_ms < 0.0 {
            return Err("spike_scale_ms and per_kb_ms must be >= 0".into());
        }
        Ok(())
    }
}

/// The stochastic profile of one directed communication link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Mean of the jitter-free component of the RTT (ms, 1 KB messages).
    pub base_mean: f64,
    /// Sigma of the multiplicative lognormal jitter.
    pub jitter_sigma: f64,
    /// Per-probe spike probability.
    pub spike_prob: f64,
    /// Mean spike magnitude (ms).
    pub spike_scale: f64,
}

impl LinkProfile {
    /// True expected RTT including the spike contribution.
    pub fn mean_rtt(&self) -> f64 {
        self.base_mean + self.spike_prob * self.spike_scale
    }

    /// Standard deviation of the RTT distribution (analytic).
    ///
    /// The RTT is `base_mean * J + S` with `J` unit-mean lognormal and `S`
    /// an independent spike term (`Exp(1/scale)` with prob `p`, else 0), so
    /// the variances add.
    pub fn sd_rtt(&self) -> f64 {
        let s2 = self.jitter_sigma * self.jitter_sigma;
        let jitter_var = self.base_mean * self.base_mean * (s2.exp() - 1.0);
        // Var(S) = p·2λ⁻² − (p·λ⁻¹)² with λ⁻¹ = spike_scale.
        let spike_var = self.spike_prob * 2.0 * self.spike_scale * self.spike_scale
            - (self.spike_prob * self.spike_scale).powi(2);
        (jitter_var + spike_var).sqrt()
    }

    /// Draws one RTT sample for a message of `size_kb` kilobytes.
    pub fn sample<R: Rng + ?Sized>(&self, size_kb: f64, per_kb_ms: f64, rng: &mut R) -> f64 {
        let jitter = LogNormal::unit_mean(self.jitter_sigma).sample(rng);
        let mut rtt = self.base_mean * jitter + per_kb_ms * (size_kb - 1.0).max(0.0);
        if self.spike_prob > 0.0 && rng.random::<f64>() < self.spike_prob {
            rtt += Exponential::new(1.0 / self.spike_scale).sample(rng);
        }
        rtt
    }
}

/// Pairwise latency profiles for one tenant allocation.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    n: usize,
    profiles: Vec<LinkProfile>,
    per_kb_ms: f64,
}

impl LatencyModel {
    /// Builds link profiles for every ordered instance pair of `allocation`.
    ///
    /// Construction is deterministic in `seed`; the same allocation and seed
    /// always produce the same network.
    pub fn build(
        topology: &Topology,
        allocation: &Allocation,
        params: &LatencyParams,
        seed: u64,
    ) -> Self {
        params.validate().expect("invalid latency params");
        let n = allocation.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let hetero = LogNormal::unit_mean(params.hetero_sigma);
        let asym = LogNormal::unit_mean(params.asym_sigma);

        // Reference scale for normalizing a link mean into [0, 1] when
        // correlating jitter with mean: the worst plausible ordinary mean.
        let norm_hi = params.base_rtt[3] * 2.0;

        // Per-instance connection quality: a few VMs sit behind congested
        // uplinks and drag down every link they touch.
        let inst_factor: Vec<f64> = (0..n)
            .map(|_| {
                if rng.random::<f64>() < params.bad_instance_frac {
                    let (lo, hi) = params.bad_instance_penalty;
                    lo + (hi - lo) * rng.random::<f64>()
                } else {
                    1.0
                }
            })
            .collect();

        let zero =
            LinkProfile { base_mean: 0.0, jitter_sigma: 0.0, spike_prob: 0.0, spike_scale: 0.0 };
        let mut profiles = vec![zero; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let loc = topology.locality(
                    allocation.host_of(InstanceId::from_index(i)),
                    allocation.host_of(InstanceId::from_index(j)),
                );
                let base = params.base_rtt[locality_index(loc)];
                let mut mean = base * hetero.sample(&mut rng) * inst_factor[i].max(inst_factor[j]);
                if rng.random::<f64>() < params.bad_link_frac {
                    let (lo, hi) = params.bad_link_penalty;
                    mean *= lo + (hi - lo) * rng.random::<f64>();
                }
                // Jitter sigma: blend an independent uniform draw with the
                // link's normalized mean.
                let (jlo, jhi) = params.jitter_sigma_range;
                let independent: f64 = rng.random();
                let mean_component = (mean / norm_hi).clamp(0.0, 1.0);
                let blend = params.jitter_mean_corr * mean_component
                    + (1.0 - params.jitter_mean_corr) * independent;
                let jitter_sigma = jlo + (jhi - jlo) * blend;

                // Congested paths both have higher means and spike more —
                // the per-link spike rate/magnitude scale with the same
                // blend as jitter, so tail latency is (imperfectly)
                // correlated with mean latency, as observed in EC2.
                let spike_prob = params.spike_prob * (0.15 + 1.7 * blend);
                let spike_scale = params.spike_scale_ms * (0.5 + 1.0 * blend);

                let forward_asym = asym.sample(&mut rng);
                let make =
                    |m: f64| LinkProfile { base_mean: m, jitter_sigma, spike_prob, spike_scale };
                profiles[i * n + j] = make(mean * forward_asym);
                profiles[j * n + i] = make(mean / forward_asym);
            }
        }
        Self { n, profiles, per_kb_ms: params.per_kb_ms }
    }

    /// Number of instances covered by the model.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the model covers no instances.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The profile of the directed link `src → dst`.
    ///
    /// # Panics
    /// Panics if `src == dst` (instances do not message themselves).
    pub fn profile(&self, src: InstanceId, dst: InstanceId) -> &LinkProfile {
        assert_ne!(src, dst, "no self-link profile for {src}");
        &self.profiles[src.index() * self.n + dst.index()]
    }

    /// True expected RTT of `src → dst` (ms, 1 KB messages).
    pub fn mean_rtt(&self, src: InstanceId, dst: InstanceId) -> f64 {
        self.profile(src, dst).mean_rtt()
    }

    /// Draws one RTT sample for a 1 KB probe on `src → dst`.
    pub fn sample_rtt<R: Rng + ?Sized>(
        &self,
        src: InstanceId,
        dst: InstanceId,
        rng: &mut R,
    ) -> f64 {
        self.profile(src, dst).sample(1.0, self.per_kb_ms, rng)
    }

    /// Draws one RTT sample for a probe of `size_kb` KB.
    pub fn sample_rtt_sized<R: Rng + ?Sized>(
        &self,
        src: InstanceId,
        dst: InstanceId,
        size_kb: f64,
        rng: &mut R,
    ) -> f64 {
        self.profile(src, dst).sample(size_kb, self.per_kb_ms, rng)
    }

    /// Draws one one-way latency sample (half the RTT sample).
    pub fn sample_one_way<R: Rng + ?Sized>(
        &self,
        src: InstanceId,
        dst: InstanceId,
        size_kb: f64,
        rng: &mut R,
    ) -> f64 {
        0.5 * self.sample_rtt_sized(src, dst, size_kb, rng)
    }

    /// The extra RTT milliseconds per KB of payload beyond the first.
    pub fn per_kb_ms(&self) -> f64 {
        self.per_kb_ms
    }

    /// Creates a model with all-zero profiles, to be filled via
    /// [`LatencyModel::set_profile`]. Used when deriving sub-networks.
    pub fn build_empty(n: usize, per_kb_ms: f64) -> Self {
        let zero =
            LinkProfile { base_mean: 0.0, jitter_sigma: 0.0, spike_prob: 0.0, spike_scale: 0.0 };
        Self { n, profiles: vec![zero; n * n], per_kb_ms }
    }

    /// Overwrites the profile of one directed link (by raw indices).
    pub fn set_profile(&mut self, src: usize, dst: usize, profile: LinkProfile) {
        assert_ne!(src, dst, "no self-link profile");
        self.profiles[src * self.n + dst] = profile;
    }

    /// Overwrites only the drifting field of one directed link's profile,
    /// its jitter-free mean (by raw indices).
    pub(crate) fn set_base_mean(&mut self, src: usize, dst: usize, base_mean: f64) {
        self.profiles[src * self.n + dst].base_mean = base_mean;
    }

    /// Clones the model restricted to its first `n` instances.
    pub fn clone_prefix(&self, n: usize) -> LatencyModel {
        assert!(n <= self.n, "prefix {n} larger than model {}", self.n);
        let mut sub = LatencyModel::build_empty(n, self.per_kb_ms);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    sub.profiles[i * n + j] = self.profiles[i * self.n + j];
                }
            }
        }
        sub
    }

    /// Full matrix of true mean RTTs; diagonal entries are 0. Built once
    /// into a shared flat arena — downstream consumers clone it for free.
    pub fn mean_matrix(&self) -> crate::cost::CostMatrix {
        crate::cost::CostMatrix::from_fn(self.n, |i, j| self.profiles[i * self.n + j].mean_rtt())
    }
}

fn locality_index(loc: Locality) -> usize {
    match loc {
        Locality::SameHost => 0,
        Locality::SameRack => 1,
        Locality::SamePod => 2,
        Locality::CrossPod => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::HostId;
    use crate::topology::TopologyConfig;

    fn params() -> LatencyParams {
        LatencyParams {
            base_rtt: [0.1, 0.3, 0.45, 0.55],
            hetero_sigma: 0.25,
            bad_link_frac: 0.1,
            bad_link_penalty: (1.3, 2.5),
            bad_instance_frac: 0.1,
            bad_instance_penalty: (1.3, 1.8),
            asym_sigma: 0.03,
            jitter_sigma_range: (0.05, 0.4),
            jitter_mean_corr: 0.5,
            spike_prob: 0.01,
            spike_scale_ms: 2.0,
            per_kb_ms: 0.01,
        }
    }

    fn topo() -> Topology {
        Topology::new(TopologyConfig {
            pods: 2,
            racks_per_pod: 2,
            hosts_per_rack: 4,
            slots_per_host: 2,
        })
    }

    fn alloc() -> Allocation {
        // 0,1 same rack; 2 same pod; 3 cross pod.
        Allocation::from_hosts(vec![HostId(0), HostId(1), HostId(4), HostId(8)])
    }

    #[test]
    fn means_scale_with_locality() {
        let model = LatencyModel::build(&topo(), &alloc(), &params(), 1);
        // Average over many seeds so heterogeneity noise averages out.
        let avg = |a: usize, b: usize| {
            (0..200)
                .map(|s| {
                    LatencyModel::build(&topo(), &alloc(), &params(), s)
                        .mean_rtt(InstanceId::from_index(a), InstanceId::from_index(b))
                })
                .sum::<f64>()
                / 200.0
        };
        let same_rack = avg(0, 1);
        let same_pod = avg(0, 2);
        let cross_pod = avg(0, 3);
        assert!(same_rack < same_pod, "{same_rack} !< {same_pod}");
        assert!(same_pod < cross_pod, "{same_pod} !< {cross_pod}");
        drop(model);
    }

    #[test]
    fn sample_mean_converges_to_profile_mean() {
        let model = LatencyModel::build(&topo(), &alloc(), &params(), 7);
        let (a, b) = (InstanceId(0), InstanceId(3));
        let truth = model.mean_rtt(a, b);
        let mut rng = StdRng::seed_from_u64(99);
        let n = 60_000;
        let est: f64 = (0..n).map(|_| model.sample_rtt(a, b, &mut rng)).sum::<f64>() / n as f64;
        assert!((est - truth).abs() / truth < 0.05, "est {est} vs truth {truth}");
    }

    #[test]
    fn analytic_sd_close_to_empirical() {
        let model = LatencyModel::build(&topo(), &alloc(), &params(), 7);
        let (a, b) = (InstanceId(0), InstanceId(3));
        let p = *model.profile(a, b);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 120_000;
        let xs: Vec<f64> = (0..n).map(|_| model.sample_rtt(a, b, &mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let sd = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((sd - p.sd_rtt()).abs() / p.sd_rtt() < 0.1, "sd {sd} vs analytic {}", p.sd_rtt());
    }

    #[test]
    fn asymmetry_is_mild() {
        let model = LatencyModel::build(&topo(), &alloc(), &params(), 3);
        let f = model.mean_rtt(InstanceId(0), InstanceId(3));
        let b = model.mean_rtt(InstanceId(3), InstanceId(0));
        assert_ne!(f, b);
        assert!((f / b - 1.0).abs() < 0.3, "asymmetry too strong: {f} vs {b}");
    }

    #[test]
    fn larger_messages_cost_more() {
        let model = LatencyModel::build(&topo(), &alloc(), &params(), 3);
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(1);
        let small = model.sample_rtt_sized(InstanceId(0), InstanceId(1), 1.0, &mut rng1);
        let big = model.sample_rtt_sized(InstanceId(0), InstanceId(1), 64.0, &mut rng2);
        assert!(big > small);
        assert!((big - small - 63.0 * 0.01).abs() < 1e-9);
    }

    #[test]
    fn deterministic_in_seed() {
        let m1 = LatencyModel::build(&topo(), &alloc(), &params(), 11);
        let m2 = LatencyModel::build(&topo(), &alloc(), &params(), 11);
        let m3 = LatencyModel::build(&topo(), &alloc(), &params(), 12);
        assert_eq!(
            m1.mean_rtt(InstanceId(0), InstanceId(2)),
            m2.mean_rtt(InstanceId(0), InstanceId(2))
        );
        assert_ne!(
            m1.mean_rtt(InstanceId(0), InstanceId(2)),
            m3.mean_rtt(InstanceId(0), InstanceId(2))
        );
    }

    #[test]
    #[should_panic(expected = "no self-link")]
    fn self_link_panics() {
        let model = LatencyModel::build(&topo(), &alloc(), &params(), 1);
        model.profile(InstanceId(1), InstanceId(1));
    }

    #[test]
    fn mean_matrix_diagonal_zero_and_consistent() {
        let model = LatencyModel::build(&topo(), &alloc(), &params(), 1);
        let m = model.mean_matrix();
        for i in 0..4 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..4 {
                if i != j {
                    assert_eq!(
                        m.get(i, j),
                        model.mean_rtt(InstanceId::from_index(i), InstanceId::from_index(j))
                    );
                }
            }
        }
    }

    #[test]
    fn validate_rejects_bad_params() {
        let mut p = params();
        p.base_rtt = [0.5, 0.3, 0.45, 0.55]; // not monotone
        assert!(p.validate().is_err());
        let mut p2 = params();
        p2.bad_link_penalty = (0.5, 2.0);
        assert!(p2.validate().is_err());
        let mut p3 = params();
        p3.spike_prob = 1.5;
        assert!(p3.validate().is_err());
    }
}
