//! The tenant-facing façade: boot a cloud, allocate instances, get a network.
//!
//! [`Cloud`] owns the datacenter state (topology + occupancy) and hands out
//! [`Allocation`]s, mimicking `ec2-run-instances`. [`Network`] is the view
//! over one allocation: pairwise latency profiles, probe sampling, the
//! discrete-event [`Engine`], stability traces, and the IP/hop-count
//! metadata used by the Appendix-2 approximations.

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::drift::{DriftParams, LinkTrace};
use crate::engine::{Engine, NicParams};
use crate::ids::InstanceId;
use crate::latency::{LatencyModel, LinkProfile};
use crate::loss::{loss_priced_mean, LossPlane};
use crate::provider::Provider;
use crate::tenancy::{Allocation, Occupancy};
use crate::topology::Topology;

/// A booted cloud region a tenant can allocate instances from.
#[derive(Debug)]
pub struct Cloud {
    provider: Provider,
    topology: Topology,
    occupancy: Occupancy,
    rng: StdRng,
}

impl Cloud {
    /// Boots a region with the given provider preset. All subsequent
    /// behaviour is deterministic in `seed`.
    pub fn boot(provider: Provider, seed: u64) -> Self {
        let topology = Topology::new(provider.topology);
        let mut rng = StdRng::seed_from_u64(seed);
        let occupancy = Occupancy::sample(&topology, provider.occupancy_rate, &mut rng);
        Self { provider, topology, occupancy, rng }
    }

    /// Allocates `n` instances (the `ec2-run-instance` call).
    ///
    /// # Panics
    /// Panics if the region lacks capacity — presets are sized so this
    /// cannot happen at paper scale.
    pub fn allocate(&mut self, n: usize) -> Allocation {
        Allocation::scatter(
            &self.topology,
            &mut self.occupancy,
            n,
            self.provider.burst_continue,
            &mut self.rng,
        )
        .expect("cloud out of capacity")
    }

    /// Terminates the given instances of an allocation, returning the
    /// surviving allocation (ClouDiA pipeline step 4).
    pub fn terminate(&mut self, allocation: &Allocation, victims: &[InstanceId]) -> Allocation {
        allocation.terminate(victims, &mut self.occupancy)
    }

    /// Allocates `n` instances in a cluster placement group (contiguous,
    /// single pod). Returns `None` when no pod can hold the group — the
    /// size limitation the paper's footnote 1 describes. The price premium
    /// is the caller's concern; see the `placement_groups` bench.
    pub fn allocate_placement_group(&mut self, n: usize) -> Option<Allocation> {
        Allocation::placement_group(&self.topology, &mut self.occupancy, n)
    }

    /// Builds the network view for an allocation. Each call derives a fresh
    /// deterministic seed from the cloud's RNG, so distinct allocations see
    /// distinct (but reproducible) link draws.
    pub fn network(&mut self, allocation: &Allocation) -> Network {
        let seed = self.rng.random::<u64>();
        Network::build(&self.topology, allocation, &self.provider, seed)
    }

    /// The region's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The provider preset this cloud was booted with.
    pub fn provider(&self) -> &Provider {
        &self.provider
    }

    /// Remaining free VM slots.
    pub fn free_slots(&self) -> usize {
        self.occupancy.total_free()
    }
}

/// A tenant's view of the network between its allocated instances.
#[derive(Debug, Clone)]
pub struct Network {
    topology: Topology,
    allocation: Allocation,
    model: LatencyModel,
    drift: DriftParams,
    /// Per-link drop probabilities; `None` means a lossless network.
    /// Rides along every clone/snapshot, so replayed trajectories carry
    /// their loss state for free.
    loss: Option<LossPlane>,
}

impl Network {
    /// Builds a network view directly (most callers use [`Cloud::network`]).
    pub fn build(
        topology: &Topology,
        allocation: &Allocation,
        provider: &Provider,
        seed: u64,
    ) -> Self {
        let model = LatencyModel::build(topology, allocation, &provider.latency, seed);
        Self {
            topology: topology.clone(),
            allocation: allocation.clone(),
            model,
            drift: provider.drift,
            loss: None,
        }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.model.len()
    }

    /// True if the network covers no instances.
    pub fn is_empty(&self) -> bool {
        self.model.is_empty()
    }

    /// The allocation this network describes.
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The underlying latency model.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// Mutable access to the latency model (drift iteration support).
    pub(crate) fn model_mut(&mut self) -> &mut LatencyModel {
        &mut self.model
    }

    /// The mean-drift parameters this network's provider was built with.
    pub fn drift_params(&self) -> DriftParams {
        self.drift
    }

    /// The same network under different drift parameters — scenario
    /// construction for drift studies (e.g. an active head followed by a
    /// quiet tail: [`crate::DriftingNetwork::rebase`] re-wraps the drifted
    /// network with near-zero volatility).
    pub fn with_drift_params(mut self, drift: DriftParams) -> Network {
        self.drift = drift;
        self
    }

    /// True expected RTT (ms) of `src → dst` — ground truth the measurement
    /// schemes try to estimate.
    pub fn mean_rtt(&self, src: InstanceId, dst: InstanceId) -> f64 {
        self.model.mean_rtt(src, dst)
    }

    /// Link profile of `src → dst`.
    pub fn profile(&self, src: InstanceId, dst: InstanceId) -> &LinkProfile {
        self.model.profile(src, dst)
    }

    /// Draws one probe RTT sample (1 KB message).
    pub fn sample_rtt<R: Rng + ?Sized>(
        &self,
        src: InstanceId,
        dst: InstanceId,
        rng: &mut R,
    ) -> f64 {
        self.model.sample_rtt(src, dst, rng)
    }

    /// Draws one RTT sample for a `size_kb`-KB message.
    pub fn sample_rtt_sized<R: Rng + ?Sized>(
        &self,
        src: InstanceId,
        dst: InstanceId,
        size_kb: f64,
        rng: &mut R,
    ) -> f64 {
        self.model.sample_rtt_sized(src, dst, size_kb, rng)
    }

    /// Ground-truth mean RTT matrix (diagonal 0), as the shared flat
    /// [`crate::cost::CostMatrix`].
    pub fn mean_matrix(&self) -> crate::cost::CostMatrix {
        self.model.mean_matrix()
    }

    /// The installed loss plane, if any.
    pub fn loss(&self) -> Option<&LossPlane> {
        self.loss.as_ref()
    }

    /// Installs (or replaces) the per-link loss plane.
    ///
    /// # Panics
    /// Panics if the plane's size disagrees with the network's.
    pub fn set_loss(&mut self, plane: LossPlane) {
        assert_eq!(plane.len(), self.len(), "loss plane size mismatch");
        self.loss = Some(plane);
    }

    /// The installed loss plane, writable in place.
    pub(crate) fn loss_mut(&mut self) -> Option<&mut LossPlane> {
        self.loss.as_mut()
    }

    /// Per-directed-link drop probability (0 without a loss plane).
    pub fn drop_prob(&self, src: InstanceId, dst: InstanceId) -> f64 {
        self.loss.as_ref().map_or(0.0, |plane| plane.drop_prob(src, dst))
    }

    /// Ground-truth *effective* mean RTT of the directed link `src → dst`
    /// under loss: the expected completion time of one reliable
    /// request/reply exchange when every failed attempt (probe or reply
    /// dropped) costs a `timeout_ms` wait before the retransmit
    /// ([`crate::loss::loss_priced_mean`] over the link's two drop
    /// probabilities). On a lossless link, and without a loss plane, this
    /// is exactly [`Network::mean_rtt`].
    pub fn effective_mean(&self, src: InstanceId, dst: InstanceId, timeout_ms: f64) -> f64 {
        let mean = self.mean_rtt(src, dst);
        let Some(plane) = self.loss.as_ref() else {
            return mean;
        };
        loss_priced_mean(mean, plane.drop_prob(src, dst), plane.drop_prob(dst, src), timeout_ms)
    }

    /// [`Network::effective_mean`] of every link, as a cost matrix
    /// (diagonal 0). With no loss plane (or a clear one) this is exactly
    /// [`Network::mean_matrix`].
    pub fn effective_mean_matrix(&self, timeout_ms: f64) -> crate::cost::CostMatrix {
        if self.loss.is_none() {
            return self.model.mean_matrix();
        }
        crate::cost::CostMatrix::from_fn(self.len(), |i, j| {
            self.effective_mean(InstanceId::from_index(i), InstanceId::from_index(j), timeout_ms)
        })
    }

    /// A discrete-event engine over this network, with the network's
    /// loss plane (if any) installed.
    pub fn engine(&self, nic: NicParams, seed: u64) -> Engine<'_> {
        Engine::new(&self.model, nic, seed).with_loss(self.loss.as_ref())
    }

    /// Switch-hop count between two instances (Appendix 2's hop-count
    /// approximation observes this via TTL).
    pub fn hop_count(&self, a: InstanceId, b: InstanceId) -> u32 {
        self.topology.switch_hops(self.allocation.host_of(a), self.allocation.host_of(b))
    }

    /// Internal IPv4 address of an instance's host (Appendix 2's IP-distance
    /// approximation).
    pub fn internal_ip(&self, i: InstanceId) -> [u8; 4] {
        self.topology.internal_ip(self.allocation.host_of(i))
    }

    /// Simulates a mean-latency stability trace for one directed link
    /// (paper Figs. 2, 19, 21).
    pub fn link_trace<R: Rng + ?Sized>(
        &self,
        src: InstanceId,
        dst: InstanceId,
        bucket_hours: f64,
        buckets: usize,
        probes_per_bucket: usize,
        rng: &mut R,
    ) -> LinkTrace {
        LinkTrace::simulate(
            self.model.profile(src, dst),
            self.drift,
            bucket_hours,
            buckets,
            probes_per_bucket,
            rng,
        )
    }

    /// Restricts the network view to the first `n` instances of the
    /// allocation (used by the over-allocation experiment, Fig. 13).
    pub fn prefix(&self, n: usize) -> Network {
        assert!(n <= self.len());
        // Rebuild a model over the sub-allocation by copying profiles.
        let sub_alloc = self.allocation.prefix(n);
        let mut sub = self.clone();
        sub.allocation = sub_alloc;
        sub.model = self.model.clone_prefix(n);
        sub.loss = self.loss.as_ref().map(|plane| plane.prefix(n));
        sub
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::Provider;

    #[test]
    fn boot_allocate_network_roundtrip() {
        let mut cloud = Cloud::boot(Provider::test_quiet(), 1);
        let free_before = cloud.free_slots();
        let alloc = cloud.allocate(10);
        assert_eq!(alloc.len(), 10);
        assert_eq!(cloud.free_slots(), free_before - 10);
        let net = cloud.network(&alloc);
        assert_eq!(net.len(), 10);
        let (a, b) = (InstanceId(0), InstanceId(1));
        assert!(net.mean_rtt(a, b) > 0.0);
    }

    #[test]
    fn terminate_frees_capacity() {
        let mut cloud = Cloud::boot(Provider::test_quiet(), 2);
        let alloc = cloud.allocate(10);
        let free_mid = cloud.free_slots();
        let survivors = cloud.terminate(&alloc, &[InstanceId(0), InstanceId(9)]);
        assert_eq!(survivors.len(), 8);
        assert_eq!(cloud.free_slots(), free_mid + 2);
    }

    #[test]
    fn networks_are_deterministic_per_cloud_seed() {
        let run = |seed| {
            let mut cloud = Cloud::boot(Provider::test_quiet(), seed);
            let alloc = cloud.allocate(8);
            let net = cloud.network(&alloc);
            net.mean_rtt(InstanceId(0), InstanceId(5))
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn prefix_preserves_profiles() {
        let mut cloud = Cloud::boot(Provider::test_quiet(), 4);
        let alloc = cloud.allocate(12);
        let net = cloud.network(&alloc);
        let sub = net.prefix(5);
        assert_eq!(sub.len(), 5);
        for i in 0..5u32 {
            for j in 0..5u32 {
                if i != j {
                    assert_eq!(
                        sub.mean_rtt(InstanceId(i), InstanceId(j)),
                        net.mean_rtt(InstanceId(i), InstanceId(j))
                    );
                }
            }
        }
    }

    #[test]
    fn hop_count_and_ip_agree_with_topology() {
        let mut cloud = Cloud::boot(Provider::test_quiet(), 5);
        let alloc = cloud.allocate(6);
        let net = cloud.network(&alloc);
        for &i in &alloc.instances() {
            for &j in &alloc.instances() {
                let hops = net.hop_count(i, j);
                assert!(hops == 0 || hops == 1 || hops == 3 || hops == 5);
                if i == j {
                    assert_eq!(hops, 0);
                }
            }
            assert_eq!(net.internal_ip(i)[0], 10);
        }
    }

    #[test]
    fn with_drift_params_swaps_only_the_drift() {
        let mut cloud = Cloud::boot(Provider::ec2_like(), 7);
        let alloc = cloud.allocate(5);
        let net = cloud.network(&alloc);
        let quiet = DriftParams { reversion_per_hour: 1.0, sigma_per_sqrt_hour: 1e-6 };
        let requieted = net.clone().with_drift_params(quiet);
        assert_eq!(requieted.drift_params(), quiet);
        assert_ne!(net.drift_params(), quiet);
        // Latency profiles are untouched.
        for i in 0..5u32 {
            for j in 0..5u32 {
                if i != j {
                    assert_eq!(
                        requieted.mean_rtt(InstanceId(i), InstanceId(j)),
                        net.mean_rtt(InstanceId(i), InstanceId(j))
                    );
                }
            }
        }
    }

    #[test]
    fn effective_matrix_prices_loss_as_timeouts() {
        let mut cloud = Cloud::boot(Provider::test_quiet(), 9);
        let alloc = cloud.allocate(4);
        let mut net = cloud.network(&alloc);
        // Without a plane: identical to the mean matrix.
        assert_eq!(net.effective_mean_matrix(50.0).values(), net.mean_matrix().values());
        let mut plane = crate::loss::LossPlane::clear(4);
        plane.set_drop_prob(InstanceId(0), InstanceId(1), 0.5);
        net.set_loss(plane);
        let eff = net.effective_mean_matrix(50.0);
        let means = net.mean_matrix();
        // p_fwd = 0.5, p_rev = 0 -> success 0.5 -> one expected timeout.
        assert!((eff.get(0, 1) - (means.get(0, 1) + 50.0)).abs() < 1e-9);
        assert!((eff.get(1, 0) - (means.get(1, 0) + 50.0)).abs() < 1e-9);
        assert_eq!(eff.get(2, 3), means.get(2, 3));
        // A fully dark link prices finitely (success floored at 1%).
        let mut dark = crate::loss::LossPlane::clear(4);
        dark.set_drop_prob(InstanceId(2), InstanceId(3), 1.0);
        net.set_loss(dark);
        let eff = net.effective_mean_matrix(50.0);
        assert!((eff.get(2, 3) - (means.get(2, 3) + 99.0 * 50.0)).abs() < 1e-6);
        // The matrix is the per-link helper, bit for bit.
        for (i, j) in (0..4u32).flat_map(|i| (0..4u32).map(move |j| (i, j))).filter(|(i, j)| i != j)
        {
            let link = net.effective_mean(InstanceId(i), InstanceId(j), 50.0);
            assert_eq!(eff.get(i as usize, j as usize).to_bits(), link.to_bits());
        }
    }

    #[test]
    fn loss_plane_rides_prefix_and_clone() {
        let mut cloud = Cloud::boot(Provider::test_quiet(), 10);
        let alloc = cloud.allocate(6);
        let mut net = cloud.network(&alloc);
        let mut plane = crate::loss::LossPlane::clear(6);
        plane.set_drop_prob(InstanceId(1), InstanceId(2), 0.3);
        net.set_loss(plane);
        assert_eq!(net.clone().drop_prob(InstanceId(1), InstanceId(2)), 0.3);
        let sub = net.prefix(4);
        assert_eq!(sub.drop_prob(InstanceId(1), InstanceId(2)), 0.3);
    }

    #[test]
    fn link_trace_runs() {
        let mut cloud = Cloud::boot(Provider::ec2_like(), 6);
        let alloc = cloud.allocate(4);
        let net = cloud.network(&alloc);
        let mut rng = StdRng::seed_from_u64(0);
        let trace = net.link_trace(InstanceId(0), InstanceId(1), 2.0, 10, 500, &mut rng);
        assert_eq!(trace.mean_rtt.len(), 10);
        assert!(trace.mean_rtt.iter().all(|&x| x > 0.0));
    }
}
