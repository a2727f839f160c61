//! The baselines the product is compared against: the two measurement
//! baselines of paper §5 that the staged scheme is compared against
//! (Fig. 4) — token passing and uncoordinated probing — and the O(k·N²)
//! Ckmeans DP that cost clustering replaced ([`ckmeans_quadratic`]).
//!
//! Neither measurement baseline is a [`cloudia_measure::Scheme`]: the
//! advisor only ever measures with the stage schedules, so these are
//! plain batch loops over the network's discrete-event engine, whose
//! endpoint queues are what make the uncoordinated scheme's interference
//! visible.

use cloudia_measure::{MeasureConfig, MeasurementReport, PairwiseStats, PROBE_SIZE_KB};
use cloudia_netsim::{Engine, InstanceId, MessageSpec, Network, NicParams};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Wire kind of a probe.
const KIND_PROBE: u32 = 0;
/// Wire kind of a reply; completes one round-trip observation.
const KIND_REPLY: u32 = 1;
/// Wire kind of a token handoff.
const KIND_TOKEN: u32 = 2;

/// An engine over `net` set up from `cfg`, after checking that `stats`
/// fits the network.
fn engine<'n>(net: &'n Network, cfg: &MeasureConfig, stats: &PairwiseStats) -> Engine<'n> {
    let n = net.len();
    assert!(n >= 2, "need at least two instances to measure");
    assert_eq!(stats.len(), n, "stats sized for {} instances, network has {n}", stats.len());
    let mut engine = net.engine(NicParams::default(), cfg.seed);
    engine.set_timeout_ms(cfg.timeout_ms);
    engine
}

/// Sends a probe from `src` to `dst`, counting the attempt; returns its
/// send time.
fn send_probe(
    engine: &mut Engine<'_>,
    stats: &mut PairwiseStats,
    (src, dst): (usize, usize),
    token: u64,
) -> f64 {
    stats.record_attempt(src, dst);
    engine.send(MessageSpec {
        src: InstanceId::from_index(src),
        dst: InstanceId::from_index(dst),
        size_kb: PROBE_SIZE_KB,
        kind: KIND_PROBE,
        token,
    })
}

/// Sends the reply to a delivered probe, from its destination back to
/// its source.
fn send_reply(engine: &mut Engine<'_>, probe: &MessageSpec) {
    engine.send(MessageSpec {
        src: probe.dst,
        dst: probe.src,
        size_kb: PROBE_SIZE_KB,
        kind: KIND_REPLY,
        token: probe.token,
    });
}

/// Token passing (paper §5, approach 1): a unique token circulates among
/// the instances; the holder probes one destination, waits for the reply
/// and passes the token on, until every ordered pair holds
/// `samples_per_pair` observations. At most one message is ever in
/// flight, so no measurement interferes with another: this is Fig. 4's
/// accuracy baseline, and its wall time grows with every sample.
///
/// Records into `stats` (possibly pre-accumulated). A lost probe or reply
/// burns one of the visit's `cfg.retries_per_pair` retransmits; past them
/// the holder moves on with the round trip unrecorded. No visit starts at
/// or after `cfg.max_duration_ms`.
///
/// # Panics
/// Panics if `samples_per_pair` is 0, the network has fewer than two
/// instances, or `stats` was sized for a different instance count.
pub fn token_passing(
    net: &Network,
    cfg: &MeasureConfig,
    mut stats: PairwiseStats,
    samples_per_pair: usize,
) -> MeasurementReport {
    assert!(samples_per_pair > 0, "need at least one sample per pair");
    let mut engine = engine(net, cfg, &stats);
    let n = net.len();
    let limit = cfg.max_duration_ms.unwrap_or(f64::INFINITY);
    let mut round_trips = 0u64;
    for visit in 0..n * (n - 1) * samples_per_pair {
        if engine.now() >= limit {
            break;
        }
        // The c-th visit of a holder probes the c-th other instance
        // (cyclically, skipping itself).
        let (holder, c) = (visit % n, visit / n);
        let dst = (holder + 1 + c % (n - 1)) % n;
        let mut budget = cfg.retries_per_pair;
        loop {
            // Strictly serial, so the next delivery is always ours, lost
            // or not.
            let sent = send_probe(&mut engine, &mut stats, (holder, dst), visit as u64);
            let probe = engine.next_delivery().expect("probe in flight");
            let reply = (!probe.lost).then(|| {
                send_reply(&mut engine, &probe.spec);
                engine.next_delivery().expect("reply in flight")
            });
            if let Some(reply) = reply.filter(|reply| !reply.lost) {
                stats.record(holder, dst, reply.delivered_at - sent);
                round_trips += 1;
                break;
            }
            stats.record_timeout(holder, dst);
            if budget == 0 || engine.now() >= limit {
                break;
            }
            budget -= 1;
        }
        // Pass the token on (a real small message). A lost handoff is
        // retransmitted a bounded number of times; past that the ring's
        // timeout-based token regeneration is assumed to restore
        // circulation (the lost events already charged the waits).
        for _ in 0..=cfg.retries_per_pair {
            engine.send(MessageSpec {
                src: InstanceId::from_index(holder),
                dst: InstanceId::from_index((holder + 1) % n),
                size_kb: 0.1,
                kind: KIND_TOKEN,
                token: visit as u64,
            });
            if !engine.next_delivery().expect("token in flight").lost {
                break;
            }
        }
    }
    MeasurementReport { elapsed_ms: engine.now(), round_trips, stats }
}

/// One instance's current launch in [`uncoordinated`].
struct Launch {
    dst: usize,
    /// Send time of the outstanding (re)transmission.
    sent_at: f64,
    /// Retransmits left to this launch.
    retries_left: u32,
    /// Launches this instance has issued, this one included.
    issued: usize,
}

/// Uncoordinated probing (paper §5, approach 2): from t = 0 every
/// instance independently probes a random destination, waits for the
/// reply and repeats, `probes_per_instance` times. Up to `n` probes are
/// in flight at once, so the scheme is fast, but replies and probes that
/// converge on one endpoint queue there and inflate the round trips of
/// whichever links collided: the long error tail of Fig. 4.
///
/// Records into `stats` (possibly pre-accumulated). A lost probe or reply
/// is retransmitted to the same destination while the launch's
/// `cfg.retries_per_pair` budget lasts; after that the launch is consumed.
/// No launch or retransmit is issued at or after `cfg.max_duration_ms`.
///
/// # Panics
/// Panics if `probes_per_instance` is 0, the network has fewer than two
/// instances, or `stats` was sized for a different instance count.
pub fn uncoordinated(
    net: &Network,
    cfg: &MeasureConfig,
    mut stats: PairwiseStats,
    probes_per_instance: usize,
) -> MeasurementReport {
    assert!(probes_per_instance > 0, "need at least one probe per instance");
    let mut engine = engine(net, cfg, &stats);
    let n = net.len();
    let limit = cfg.max_duration_ms.unwrap_or(f64::INFINITY);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
    let draw = |rng: &mut StdRng, src: usize| loop {
        let dst = rng.random_range(0..n);
        if dst != src {
            break dst;
        }
    };
    let mut launches: Vec<Launch> = (0..n)
        .map(|src| {
            let dst = draw(&mut rng, src);
            let sent_at = send_probe(&mut engine, &mut stats, (src, dst), src as u64);
            Launch { dst, sent_at, retries_left: cfg.retries_per_pair, issued: 1 }
        })
        .collect();
    let mut round_trips = 0u64;
    while let Some(msg) = engine.next_delivery() {
        match msg.spec.kind {
            // Reply at once (queued behind whatever the destination is
            // doing).
            KIND_PROBE if !msg.lost => send_reply(&mut engine, &msg.spec),
            KIND_PROBE | KIND_REPLY => {
                let src = msg.spec.token as usize;
                let under_limit = engine.now() < limit;
                let launch = &mut launches[src];
                if msg.lost {
                    // The prober's timeout (lost probe or lost reply).
                    stats.record_timeout(src, launch.dst);
                    if launch.retries_left > 0 && under_limit {
                        launch.retries_left -= 1;
                        launch.sent_at =
                            send_probe(&mut engine, &mut stats, (src, launch.dst), src as u64);
                        continue;
                    }
                } else {
                    stats.record(src, launch.dst, msg.delivered_at - launch.sent_at);
                    round_trips += 1;
                }
                if launch.issued < probes_per_instance && under_limit {
                    let dst = draw(&mut rng, src);
                    let sent_at = send_probe(&mut engine, &mut stats, (src, dst), src as u64);
                    *launch = Launch {
                        dst,
                        sent_at,
                        retries_left: cfg.retries_per_pair,
                        issued: launch.issued + 1,
                    };
                }
            }
            other => unreachable!("unexpected message kind {other}"),
        }
    }
    MeasurementReport { elapsed_ms: engine.now(), round_trips, stats }
}

/// Clusters `costs` as [`cloudia_solver::CostClusters::compute`] does —
/// same rounding to `quantum`, same +∞ handling, same tie rule — but
/// fills the DP with the O(k·N²) scan over every cut of every prefix
/// that the product's divide-and-conquer fill replaced. The prefix sums,
/// the SSE expression, the cut walk-back and the rounding are
/// transcribed unchanged, so every mean and every assignment must match
/// the product's bit for bit. This is the one copy of the quadratic
/// fill, kept as the differential oracle and the `kmeans` race baseline.
///
/// # Panics
/// Panics if `k == 0` or `costs` is empty.
pub fn ckmeans_quadratic(costs: &[f64], k: usize, quantum: f64) -> QuadraticClusters {
    assert!(k > 0, "k must be positive");
    assert!(!costs.is_empty(), "cannot cluster zero costs");

    let mut rounded: Vec<f64> = costs
        .iter()
        .filter(|c| c.is_finite())
        .map(|&c| if quantum > 0.0 { (c / quantum).round() * quantum } else { c })
        .collect();
    rounded.sort_by(f64::total_cmp);
    let mut values: Vec<f64> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    for &v in &rounded {
        if values.last().is_some_and(|&last| (last - v) == 0.0) {
            *weights.last_mut().unwrap() += 1.0;
        } else {
            values.push(v);
            weights.push(1.0);
        }
    }
    let n = values.len();
    if n == 0 {
        return QuadraticClusters { values, assignment: Vec::new(), means: Vec::new() };
    }
    let k = k.min(n);

    let mut pw = vec![0.0; n + 1];
    let mut ps = vec![0.0; n + 1];
    let mut pq = vec![0.0; n + 1];
    for i in 0..n {
        pw[i + 1] = pw[i] + weights[i];
        ps[i + 1] = ps[i] + weights[i] * values[i];
        pq[i + 1] = pq[i] + weights[i] * values[i] * values[i];
    }
    let sse = |a: usize, b: usize| -> f64 {
        let w = pw[b + 1] - pw[a];
        let s = ps[b + 1] - ps[a];
        let q = pq[b + 1] - pq[a];
        (q - s * s / w).max(0.0)
    };

    // dp[c * n + i] = min SSE of values[0..=i] in c+1 clusters, found by
    // trying every first index j of the last cluster.
    let mut dp = vec![f64::INFINITY; k * n];
    let mut cut = vec![0usize; k * n];
    for i in 0..n {
        dp[i] = sse(0, i);
    }
    for c in 1..k {
        for i in c..n {
            for j in c..=i {
                let cand = dp[(c - 1) * n + j - 1] + sse(j, i);
                if cand < dp[c * n + i] {
                    dp[c * n + i] = cand;
                    cut[c * n + i] = j;
                }
            }
        }
    }

    let mut assignment = vec![0usize; n];
    let mut c = k - 1;
    let mut hi = n - 1;
    let mut bounds = Vec::new();
    loop {
        let lo = if c == 0 { 0 } else { cut[c * n + hi] };
        bounds.push((lo, hi));
        if c == 0 {
            break;
        }
        hi = lo - 1;
        c -= 1;
    }
    bounds.reverse();
    let mut means = Vec::with_capacity(bounds.len());
    for (ci, &(lo, hi)) in bounds.iter().enumerate() {
        let w = pw[hi + 1] - pw[lo];
        let s = ps[hi + 1] - ps[lo];
        means.push(s / w);
        for a in assignment.iter_mut().take(hi + 1).skip(lo) {
            *a = ci;
        }
    }
    QuadraticClusters { values, assignment, means }
}

/// The clustering [`ckmeans_quadratic`] found, read back through the same
/// accessors as [`cloudia_solver::CostClusters`].
#[derive(Debug, Clone)]
pub struct QuadraticClusters {
    values: Vec<f64>,
    assignment: Vec<usize>,
    means: Vec<f64>,
}

impl QuadraticClusters {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.means.len()
    }

    /// True if there are no clusters (every input cost was +∞).
    pub fn is_empty(&self) -> bool {
        self.means.is_empty()
    }

    /// The cluster means, ascending.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// `cost` rounded to its cluster's mean, by the product's rule: the
    /// nearest distinct value's cluster, the lower one on a tie, and a
    /// non-finite cost unchanged.
    pub fn round(&self, cost: f64) -> f64 {
        if !cost.is_finite() || self.values.is_empty() {
            return cost;
        }
        let idx = match self.values.binary_search_by(|v| v.total_cmp(&cost)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) if i >= self.values.len() => self.values.len() - 1,
            Err(i) => {
                if (cost - self.values[i - 1]).abs() <= (self.values[i] - cost).abs() {
                    i - 1
                } else {
                    i
                }
            }
        };
        self.means[self.assignment[idx]]
    }

    /// Total within-cluster sum of squared errors over the distinct values.
    pub fn within_sse(&self) -> f64 {
        self.values.iter().zip(&self.assignment).map(|(&v, &a)| (v - self.means[a]).powi(2)).sum()
    }
}
