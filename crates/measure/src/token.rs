//! Token-passing measurement (paper §5, approach 1).
//!
//! A unique token circulates among instances. The holder probes one
//! destination, waits for the reply, records the round-trip time, and
//! passes the token on. At most one message is ever in flight, so no
//! measurement interferes with any other — this is the *accuracy baseline*
//! the other schemes are compared against (Fig. 4) — but the total wall
//! time is proportional to the number of samples collected, which does not
//! scale.

use cloudia_netsim::{InstanceId, MessageSpec, Network};

use crate::driver::SweepDriver;
use crate::scheme::{MeasureConfig, MeasurementReport, Scheme, KIND_PROBE, KIND_REPLY, KIND_TOKEN};
use crate::stats::PairwiseStats;

/// The token-passing scheme.
#[derive(Debug, Clone)]
pub struct TokenPassing {
    /// Round-trip observations to collect per ordered pair.
    pub samples_per_pair: usize,
}

impl TokenPassing {
    /// Creates a token-passing scheme collecting `samples_per_pair`
    /// observations per ordered pair.
    pub fn new(samples_per_pair: usize) -> Self {
        assert!(samples_per_pair > 0, "need at least one sample per pair");
        Self { samples_per_pair }
    }
}

impl Scheme for TokenPassing {
    fn name(&self) -> &'static str {
        "token"
    }

    fn driver<'n>(
        &self,
        net: &'n Network,
        cfg: &MeasureConfig,
        stats: PairwiseStats,
    ) -> Box<dyn SweepDriver + 'n> {
        Box::new(TokenDriver::new(net, cfg, stats, self.samples_per_pair))
    }
}

/// Streaming driver of the token-passing scheme: one
/// [`SweepDriver::step`] circulates the token once around the ring
/// (`n` visits), so a caller can inspect the partial statistics between
/// circulations. The schedule cannot be pruned: the driver keeps the
/// [`SweepDriver`] schedule defaults.
struct TokenDriver<'n> {
    engine: cloudia_netsim::Engine<'n>,
    cfg: MeasureConfig,
    stats: PairwiseStats,
    n: usize,
    /// Destination rotation per holder: the c-th visit of holder i
    /// probes the c-th other instance (cyclically).
    cursor: Vec<usize>,
    visit: usize,
    total_visits: usize,
    round_trips: u64,
    done: bool,
}

impl<'n> TokenDriver<'n> {
    fn new(
        net: &'n Network,
        cfg: &MeasureConfig,
        stats: PairwiseStats,
        samples_per_pair: usize,
    ) -> Self {
        let n = net.len();
        assert!(n >= 2, "need at least two instances to measure");
        assert_eq!(stats.len(), n, "stats sized for {} instances, network has {n}", stats.len());
        let mut engine = net.engine(cfg.nic, cfg.seed);
        engine.set_timeout_ms(cfg.timeout_ms);
        Self {
            engine,
            cfg: cfg.clone(),
            stats,
            n,
            cursor: vec![0usize; n],
            visit: 0,
            total_visits: n * (n - 1) * samples_per_pair,
            round_trips: 0,
            done: false,
        }
    }
}

impl SweepDriver for TokenDriver<'_> {
    fn step(&mut self) -> bool {
        if self.done || self.visit >= self.total_visits {
            self.done = true;
            return false;
        }
        // One full token circulation per step.
        for _ in 0..self.n {
            if self.visit >= self.total_visits {
                break;
            }
            let visit = self.visit;
            let holder = visit % self.n;
            let c = self.cursor[holder];
            self.cursor[holder] += 1;
            // Skip self by offsetting the cycle.
            let dst = (holder + 1 + (c % (self.n - 1))) % self.n;

            if let Some(limit) = self.cfg.max_duration_ms {
                if self.engine.now() >= limit {
                    self.done = true;
                    return true;
                }
            }
            self.visit += 1;

            // Probe and wait for the reply — strictly serial, so the
            // next delivery is always ours, lost or not. A timeout
            // (lost probe or lost reply) burns one retry; when the
            // visit's budget is gone the holder moves on with the
            // round trip unrecorded.
            let limit = self.cfg.max_duration_ms.unwrap_or(f64::INFINITY);
            let mut budget = self.cfg.retries_per_pair;
            loop {
                self.stats.record_attempt(holder, dst);
                let sent = self.engine.send(MessageSpec {
                    src: InstanceId::from_index(holder),
                    dst: InstanceId::from_index(dst),
                    size_kb: self.cfg.probe_size_kb,
                    kind: KIND_PROBE,
                    token: visit as u64,
                });
                let probe = self.engine.next_delivery().expect("probe in flight");
                debug_assert_eq!(probe.spec.kind, KIND_PROBE);
                if probe.lost {
                    self.stats.record_timeout(holder, dst);
                    if budget > 0 && self.engine.now() < limit {
                        budget -= 1;
                        continue;
                    }
                    break;
                }
                self.engine.send(MessageSpec {
                    src: probe.spec.dst,
                    dst: probe.spec.src,
                    size_kb: self.cfg.probe_size_kb,
                    kind: KIND_REPLY,
                    token: probe.spec.token,
                });
                let reply = self.engine.next_delivery().expect("reply in flight");
                debug_assert_eq!(reply.spec.kind, KIND_REPLY);
                if reply.lost {
                    self.stats.record_timeout(holder, dst);
                    if budget > 0 && self.engine.now() < limit {
                        budget -= 1;
                        continue;
                    }
                    break;
                }
                self.stats.record(holder, dst, reply.delivered_at - sent);
                self.round_trips += 1;
                break;
            }

            // Pass the token to the next holder (a real small message).
            // A lost handoff is retransmitted a bounded number of times;
            // past that the ring's timeout-based token regeneration is
            // assumed to restore circulation (the lost events already
            // charged the waits), so the schedule position is preserved.
            let next = (holder + 1) % self.n;
            let mut token_budget = self.cfg.retries_per_pair;
            loop {
                self.engine.send(MessageSpec {
                    src: InstanceId::from_index(holder),
                    dst: InstanceId::from_index(next),
                    size_kb: 0.1,
                    kind: KIND_TOKEN,
                    token: visit as u64,
                });
                let handoff = self.engine.next_delivery().expect("token in flight");
                if handoff.lost && token_budget > 0 {
                    token_budget -= 1;
                    continue;
                }
                break;
            }
        }
        if self.visit >= self.total_visits {
            self.done = true;
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
    fn covers_every_ordered_pair() {
        let net = network(5, 1);
        let report = TokenPassing::new(3).run(&net, &MeasureConfig::default());
        assert_eq!(report.stats.covered_links(), 5 * 4);
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    assert_eq!(report.stats.link(i, j).count(), 3, "pair ({i},{j})");
                }
            }
        }
        assert_eq!(report.round_trips, 5 * 4 * 3);
    }

    #[test]
    fn estimates_match_truth_without_jitter() {
        // test_quiet has zero jitter, so every sample is the true mean plus
        // the constant handling overhead.
        let net = network(4, 2);
        let cfg = MeasureConfig::default();
        let report = TokenPassing::new(2).run(&net, &cfg);
        let overhead = 4.0 * (cfg.nic.handle_ms + cfg.nic.serialize_ms_per_kb * cfg.probe_size_kb);
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    let est = report.stats.link(i as usize, j as usize).mean();
                    let truth = net.mean_rtt(InstanceId(i), InstanceId(j)) + overhead;
                    assert!((est - truth).abs() < 1e-9, "({i},{j}): est {est}, truth {truth}");
                }
            }
        }
    }

    #[test]
    fn elapsed_grows_with_samples() {
        let net = network(4, 3);
        let r1 = TokenPassing::new(1).run(&net, &MeasureConfig::default());
        let r2 = TokenPassing::new(4).run(&net, &MeasureConfig::default());
        assert!(r2.elapsed_ms > r1.elapsed_ms * 3.0);
    }

    #[test]
    fn duration_limit_stops_early() {
        let net = network(6, 4);
        let cfg = MeasureConfig { max_duration_ms: Some(5.0), ..Default::default() };
        let report = TokenPassing::new(100).run(&net, &cfg);
        assert!(report.round_trips < 6 * 5 * 100);
        assert!(report.elapsed_ms < 10.0);
    }
}
