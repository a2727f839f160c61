//! Uncoordinated measurement (paper §5, approach 2).
//!
//! Every instance independently picks a random destination, probes it,
//! waits for the reply, and repeats. Up to `n` probes are in flight at
//! once, so the scheme is fast — but nothing prevents an instance from
//! having to serve a reply while sending its own probe, or several probes
//! from converging on one destination. Those collisions queue at the
//! endpoints (see [`cloudia_netsim::Engine`]) and inflate the observed
//! round-trip times of whichever links happened to collide, producing the
//! long error tail the paper shows in Fig. 4.

use rand::{rngs::StdRng, Rng, SeedableRng};

use cloudia_netsim::{InstanceId, MessageSpec, Network};

use crate::driver::SweepDriver;
use crate::scheme::{MeasureConfig, MeasurementReport, Scheme, KIND_PROBE, KIND_REPLY};
use crate::stats::PairwiseStats;

/// The uncoordinated scheme.
#[derive(Debug, Clone)]
pub struct Uncoordinated {
    /// Number of probes each instance issues.
    pub probes_per_instance: usize,
}

impl Uncoordinated {
    /// Creates an uncoordinated scheme issuing `probes_per_instance` probes
    /// from every instance.
    pub fn new(probes_per_instance: usize) -> Self {
        assert!(probes_per_instance > 0, "need at least one probe per instance");
        Self { probes_per_instance }
    }
}

impl Scheme for Uncoordinated {
    fn name(&self) -> &'static str {
        "uncoordinated"
    }

    fn driver<'n>(
        &self,
        net: &'n Network,
        cfg: &MeasureConfig,
        stats: PairwiseStats,
    ) -> Box<dyn SweepDriver + 'n> {
        Box::new(UncoordinatedDriver::new(net, cfg, stats, self.probes_per_instance))
    }
}

/// Streaming driver of the uncoordinated scheme. The scheme has no
/// stages of its own — every instance independently keeps one probe in
/// flight — so one [`SweepDriver::step`] drains the delivery queue until
/// `n` further round trips have completed (or nothing is left in
/// flight), giving callers a natural between-batches point to inspect
/// partial statistics. Destinations are drawn at random, so there is no
/// schedule to prune: the driver keeps the [`SweepDriver`] schedule
/// defaults.
struct UncoordinatedDriver<'n> {
    engine: cloudia_netsim::Engine<'n>,
    cfg: MeasureConfig,
    stats: PairwiseStats,
    rng: StdRng,
    n: usize,
    probes_per_instance: usize,
    /// Per-instance probe state: outstanding probe send time and count
    /// of probes issued. Each instance has at most one outstanding probe.
    probe_sent_at: Vec<f64>,
    probe_dst: Vec<usize>,
    issued: Vec<usize>,
    /// Retransmit budget of the current launch: refilled from
    /// `cfg.retries_per_pair` on every fresh destination draw, burned
    /// by timeouts. When it runs out the launch is simply consumed.
    retry_left: Vec<u32>,
    round_trips: u64,
}

impl<'n> UncoordinatedDriver<'n> {
    fn new(
        net: &'n Network,
        cfg: &MeasureConfig,
        stats: PairwiseStats,
        probes_per_instance: usize,
    ) -> Self {
        let n = net.len();
        assert!(n >= 2, "need at least two instances to measure");
        assert_eq!(stats.len(), n, "stats sized for {} instances, network has {n}", stats.len());
        let mut engine = net.engine(cfg.nic, cfg.seed);
        engine.set_timeout_ms(cfg.timeout_ms);
        let mut driver = Self {
            engine,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15),
            cfg: cfg.clone(),
            stats,
            n,
            probes_per_instance,
            probe_sent_at: vec![0.0f64; n],
            probe_dst: vec![0usize; n],
            issued: vec![0usize; n],
            retry_left: vec![0u32; n],
            round_trips: 0,
        };
        // Everyone starts probing at t = 0 — the defining property of the
        // scheme (and the source of its interference).
        for src in 0..n {
            driver.launch(src);
        }
        driver
    }

    fn launch(&mut self, src: usize) {
        let dst = loop {
            let d = self.rng.random_range(0..self.n);
            if d != src {
                break d;
            }
        };
        self.probe_dst[src] = dst;
        self.issued[src] += 1;
        self.retry_left[src] = self.cfg.retries_per_pair;
        self.send_probe(src);
    }

    /// Issues (or re-issues) the probe of `src`'s current launch to the
    /// already-drawn destination, counting the attempt.
    fn send_probe(&mut self, src: usize) {
        self.stats.record_attempt(src, self.probe_dst[src]);
        let sent = self.engine.send(MessageSpec {
            src: InstanceId::from_index(src),
            dst: InstanceId::from_index(self.probe_dst[src]),
            size_kb: self.cfg.probe_size_kb,
            kind: KIND_PROBE,
            token: src as u64,
        });
        self.probe_sent_at[src] = sent;
    }
}

impl SweepDriver for UncoordinatedDriver<'_> {
    fn step(&mut self) -> bool {
        let mut recorded = 0usize;
        let mut any = false;
        while recorded < self.n {
            let Some(msg) = self.engine.next_delivery() else {
                return any;
            };
            any = true;
            match msg.spec.kind {
                KIND_PROBE if !msg.lost => {
                    // Reply immediately (queues behind whatever the
                    // destination endpoint is doing).
                    self.engine.send(MessageSpec {
                        src: msg.spec.dst,
                        dst: msg.spec.src,
                        size_kb: self.cfg.probe_size_kb,
                        kind: KIND_REPLY,
                        token: msg.spec.token,
                    });
                }
                KIND_PROBE | KIND_REPLY => {
                    let src = msg.spec.token as usize;
                    let under_limit =
                        self.cfg.max_duration_ms.is_none_or(|limit| self.engine.now() < limit);
                    if msg.lost {
                        // The prober's timeout (lost probe or lost
                        // reply): retransmit to the same destination
                        // while the launch's budget lasts, else the
                        // launch is consumed and the next one starts.
                        self.stats.record_timeout(src, self.probe_dst[src]);
                        if self.retry_left[src] > 0 && under_limit {
                            self.retry_left[src] -= 1;
                            self.send_probe(src);
                        } else if self.issued[src] < self.probes_per_instance && under_limit {
                            self.launch(src);
                        }
                        continue;
                    }
                    self.stats.record(
                        src,
                        self.probe_dst[src],
                        msg.delivered_at - self.probe_sent_at[src],
                    );
                    self.round_trips += 1;
                    recorded += 1;
                    if self.issued[src] < self.probes_per_instance && under_limit {
                        self.launch(src);
                    }
                }
                other => unreachable!("unexpected message kind {other}"),
            }
        }
        true
    }

    fn stats(&self) -> &PairwiseStats {
        &self.stats
    }

    fn round_trips(&self) -> u64 {
        self.round_trips
    }

    fn elapsed_ms(&self) -> f64 {
        self.engine.now()
    }

    fn finish(self: Box<Self>) -> MeasurementReport {
        MeasurementReport {
            elapsed_ms: self.engine.now(),
            round_trips: self.round_trips,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudia_netsim::{Cloud, Provider};

    fn network(n: usize, seed: u64) -> Network {
        let mut cloud = Cloud::boot(Provider::test_quiet(), seed);
        let alloc = cloud.allocate(n);
        cloud.network(&alloc)
    }

    #[test]
    fn issues_requested_probe_count() {
        let net = network(6, 1);
        let report = Uncoordinated::new(50).run(&net, &MeasureConfig::default());
        assert_eq!(report.round_trips, 6 * 50);
    }

    #[test]
    fn is_much_faster_than_token_for_same_sample_count() {
        let net = network(10, 2);
        let samples = 20;
        let unc = Uncoordinated::new(samples * 9).run(&net, &MeasureConfig::default());
        let tok = crate::token::TokenPassing::new(samples).run(&net, &MeasureConfig::default());
        // Same total round trips, but uncoordinated runs ~n probes in
        // parallel.
        assert_eq!(unc.round_trips, tok.round_trips);
        assert!(
            unc.elapsed_ms < tok.elapsed_ms / 3.0,
            "uncoordinated {} vs token {}",
            unc.elapsed_ms,
            tok.elapsed_ms
        );
    }

    #[test]
    fn interference_inflates_estimates() {
        // With zero jitter, any deviation of an estimate above
        // truth + constant overhead is queueing delay. Uncoordinated must
        // show some; token never does.
        let net = network(12, 3);
        let cfg = MeasureConfig::default();
        let overhead = 4.0 * (cfg.nic.handle_ms + cfg.nic.serialize_ms_per_kb);
        let report = Uncoordinated::new(200).run(&net, &cfg);
        let mut inflated = 0usize;
        let mut measured = 0usize;
        for i in 0..12u32 {
            for j in 0..12u32 {
                if i == j {
                    continue;
                }
                let link = report.stats.link(i as usize, j as usize);
                if link.count() == 0 {
                    continue;
                }
                measured += 1;
                let truth = net.mean_rtt(InstanceId(i), InstanceId(j)) + overhead;
                if link.mean() > truth + 1e-9 {
                    inflated += 1;
                }
            }
        }
        assert!(measured > 100);
        assert!(inflated > measured / 10, "only {inflated}/{measured} links inflated");
    }

    #[test]
    fn duration_limit_respected() {
        let net = network(8, 4);
        let cfg = MeasureConfig { max_duration_ms: Some(3.0), ..Default::default() };
        let report = Uncoordinated::new(10_000).run(&net, &cfg);
        assert!(report.round_trips < 8 * 10_000);
        // In-flight probes at the cutoff still complete, so allow slack.
        assert!(report.elapsed_ms < 6.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let net = network(5, 5);
        let cfg = MeasureConfig { seed: 77, ..Default::default() };
        let a = Uncoordinated::new(30).run(&net, &cfg);
        let b = Uncoordinated::new(30).run(&net, &cfg);
        assert_eq!(a.mean_vector(), b.mean_vector());
    }
}
