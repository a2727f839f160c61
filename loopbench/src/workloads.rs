//! The workloads: names, reasons, and sizes. Plain data — the product types
//! built from these live in `layers.rs`.

/// `--seconds` value the full sizes below were chosen for, and the
/// `run_seconds` of `BENCHMARK.json`. A *pass* — set-up, then every operation
/// of the workload in order — is a fixed, seed-determined amount of work that
/// takes 2–5 s on the builder's machine (2 shared cores). `--seconds` sets
/// only how often a run replays it, so every count and digest repeats
/// exactly at every run length.
pub const NOMINAL_SECONDS: f64 = 34.0;

/// An untraced run replays its pass at least this often, then for as long as
/// one more replay fits into `--seconds`, and times each operation and the
/// set-up at the fastest of their replays. The host's noise is contention for
/// the memory system: over ten minutes a cache-resident floating-point loop
/// held its median within 2 % while an 8 MB random walk moved by 25 %, in
/// bursts of well under a second and in swells of tens of seconds. A minimum
/// over replays sheds the bursts if the operations are short and the replays
/// many, so the passes are sized for ten or more replays per run; with three
/// or four replays of a 4 s operation the same seed still moved by 17 %
/// between back-to-back runs. The replays must agree on every digest.
pub const MIN_REPLAYS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizes {
    Full,
    /// `--smoke`: every workload at m = 60, 6 epochs, 50 k CP nodes.
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probing {
    /// Full staged sweep every epoch.
    Uniform,
    /// `ProbePolicy::Focused` + `prune_during_sweep`.
    Focused,
    /// Uniform + `prune_during_sweep` + `confidence` + `anytime`.
    Anytime,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSpec {
    pub mesh: (usize, usize),
    pub instances: usize,
    /// Advises per run, each on its own cloud seed.
    pub advises: usize,
    pub ks: usize,
    pub sweeps: usize,
    pub cp_clusters: usize,
    pub cp_nodes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineSpec {
    pub mesh: (usize, usize),
    pub instances: usize,
    pub epochs: u64,
    pub probing: Probing,
    /// `MeasureConfig::stage_workers` (0 = the shipped auto-sizing default).
    pub stage_workers: usize,
    /// Drifting 5 % loss, retransmits, spot checks.
    pub lossy: bool,
    /// Epoch at which a deployed instance is forced dark (lossy only).
    pub blackout_epoch: Option<u64>,
    /// Node budget of the deterministic portfolio solve for the initial plan.
    pub initial_nodes: u64,
    /// The public sweep/step split reproduces `step_stream` exactly
    /// (no prune rule, no focused scheme, no spot checks).
    pub splittable: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Batch(BatchSpec),
    Online(OnlineSpec),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Listed in `BENCHMARK.json`, so the driver runs it and holds later
    /// changes to its bounds. An ungated workload still runs in the
    /// every-workload mode and under `--workload`.
    pub gated: bool,
}

/// Staleness horizon of the focused policy: epoch `REFRESH_EVERY + 1` is the
/// first full refresh sweep after the bootstrap.
pub const REFRESH_EVERY: u64 = 10;

/// The workloads `BENCHMARK.json` lists, at the driver's sizes.
pub fn gated_workloads() -> Vec<Workload> {
    workloads(Sizes::Full).into_iter().filter(|w| w.gated).collect()
}

pub fn workloads(sizes: Sizes) -> Vec<Workload> {
    let smoke = sizes == Sizes::Smoke;
    let online = |instances: usize, epochs: u64| OnlineSpec {
        mesh: (3, 4),
        instances: if smoke { 60 } else { instances },
        epochs: if smoke { 6 } else { epochs },
        probing: Probing::Uniform,
        stage_workers: 1,
        lossy: false,
        blackout_epoch: None,
        initial_nodes: if smoke { 50_000 } else { 200_000 },
        splittable: true,
    };
    let lossy = online(300, 10);
    vec![
        Workload {
            name: "batch_paper",
            why: "paper-scale advise: CP search does >85% of the work, measure/online almost \
                  none; bypass for measurement-plane changes, exercise for CP changes",
            kind: Kind::Batch(if smoke {
                BatchSpec {
                    mesh: (6, 9),
                    instances: 60,
                    advises: 2,
                    ks: 10,
                    sweeps: 2,
                    cp_clusters: 20,
                    cp_nodes: 50_000,
                }
            } else {
                BatchSpec {
                    mesh: (10, 10),
                    instances: 110,
                    advises: 32,
                    ks: 10,
                    sweeps: 2,
                    cp_clusters: 20,
                    // A tenth of the 2 M nodes a one-off advise would get: a
                    // cloud's cost per node differs by 1.5x from the next
                    // cloud's, and only many clouds per pass average that out.
                    cp_nodes: 200_000,
                }
            }),
            gated: true,
        },
        Workload {
            name: "online_uniform",
            why: "m=500 uniform sweeps, stage_workers=1: stage simulation, merge and the dense \
                  stream hand-off dominate; largest resident set; serial baseline of the auto arm",
            kind: Kind::Online(online(500, 9)),
            // Each epoch streams through most of its 165 MB, so its speed is
            // the neighbours' use of the memory system: one binary spread by
            // 14 %, 15 % and 22 % over three sets of seeds, where the bound
            // may be at most 25 % (README). `online_lossy` gates the same
            // layers at m = 300, three quarters compute-bound.
            gated: false,
        },
        Workload {
            name: "online_uniform_auto",
            why: "same inputs with the shipped stage_workers=0 default (SweepPool fan-out): shows \
                  a pool or auto-sizing change the serial arm cannot; costs must match it bit for bit",
            kind: Kind::Online(OnlineSpec { stage_workers: 0, ..online(500, 8) }),
            // A fan-out over both of 2 shared vCPUs is at the neighbours'
            // mercy: identical binaries ran epochs of 584–1177 ms within one
            // set of ten runs, which no bound <= 25 % survives (README).
            gated: false,
        },
        Workload {
            name: "online_focused",
            why: "m=200 focused probing + mid-sweep pruning: probes fall ~100x, so the O(m^2) \
                  per-epoch work (hand-off walk, search_costs, truth matrix, build_partial) dominates",
            kind: Kind::Online(OnlineSpec {
                probing: Probing::Focused,
                splittable: false,
                // One full refresh sweep must land inside the pass (epoch 11):
                // bootstrap, 10 focused epochs, the refresh, 1 focused epoch.
                // m = 200, not 300: the refresh epoch grows with m^3.3 (1.0 s
                // against 3.8 s), and an operation that long gets too few
                // replays for its minimum to hold still.
                ..online(200, REFRESH_EVERY + 3)
            }),
            gated: true,
        },
        Workload {
            name: "online_anytime",
            why: "m=200 uniform + CI pruning + anytime stop: CiPruneRule/CiStopRule evaluation \
                  between stages dominates; the workload for rule-merging and CI-by-default work",
            kind: Kind::Online(OnlineSpec {
                probing: Probing::Anytime,
                splittable: false,
                // m = 200 for the same reason: 0.33 s epochs against 1.1 s.
                ..online(200, 5)
            }),
            gated: true,
        },
        Workload {
            name: "online_lossy",
            why: "m=300 with 5% drifting loss, retransmits, spot checks and a forced-dark deployed \
                  instance: the measure/online layers on their timeout, triage and evacuation path",
            kind: Kind::Online(OnlineSpec {
                lossy: true,
                // Off-centre, so the median epoch sits inside the post-blackout
                // regime instead of in the gap between the two.
                blackout_epoch: Some(if smoke { 2 } else { lossy.epochs * 10 / 24 }),
                splittable: false,
                ..lossy
            }),
            gated: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sizes_hold_what_the_checks_and_metrics_need() {
        for w in workloads(Sizes::Full) {
            let Kind::Online(spec) = w.kind else { continue };
            assert!(spec.epochs >= 3, "{}: steady epochs to time", w.name);
            if spec.probing == Probing::Focused {
                assert!(
                    spec.epochs > REFRESH_EVERY + 1,
                    "a refresh sweep must land inside the pass"
                );
            }
            if let Some(blackout) = spec.blackout_epoch {
                assert!(blackout + 2 < spec.epochs, "the dark checks must get to run");
            }
        }
    }

    #[test]
    fn smoke_sizes_are_the_documented_ones() {
        for w in workloads(Sizes::Smoke) {
            match w.kind {
                Kind::Online(s) => assert_eq!((s.instances, s.epochs), (60, 6)),
                Kind::Batch(s) => assert_eq!((s.instances, s.cp_nodes), (60, 50_000)),
            }
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }
}
