//! Extension: stage-streaming sweeps with mid-sweep tournament pruning.
//!
//! The online-advisor arms ride the **identical** drift trajectory and
//! probe randomness (each arm's `SimStream` drifts the hour-0 network
//! from the scenario's seeds):
//!
//! * **uniform** — full staged tournament sweeps every epoch, run as an
//!   opaque batch (the pre-streaming behaviour);
//! * **pruned** — the same uniform sweeps, but executed stage by stage on
//!   the streaming driver with the candidate prune rule evaluated
//!   between stages: pairs whose measured quantiles already prove both
//!   endpoints outside every node's candidate pool are dropped while the
//!   sweep is still in flight (deployed/flagged/stale pairs never are);
//! * **anytime** — the pruned sweeps with the error-bounded layer on: a
//!   CI-backed prune rule (condemnation requires interval separation,
//!   not point-estimate separation) plus the anytime early stop that
//!   ends a stage once every remaining prune/pool decision is CI-stable
//!   at 95% confidence;
//! * **focused+pruned** — trigger-driven focused rounds with pruning on
//!   top, the saved round trips re-invested into deeper sampling of
//!   flagged links (`probe_ks` escalation).
//!
//! The scenario — an active drift head followed by a quiet tail, all
//! arms under the same adaptive candidate pool — is the shared
//! [`cloudia_online::scenario::FocusScenario`], the same one `ext_focus`
//! and the differential tests assert, so the contract cannot fork.
//!
//! In `--smoke` mode the bin **asserts** the PR's acceptance criteria.
//! The pruning contract is judged on every seed of
//! [`cloudia_online::CONTRACT_SEEDS`], since one seed decides nothing
//! about a 2 % cost contract: the pruned arm saves ≥ 30 % of uniform's
//! probe round trips on every seed, and the median of its time-averaged
//! ground-truth cost gap to uniform stays within
//! [`cloudia_online::MEDIAN_COST_GAP_BOUND`]. On the same seeds the
//! anytime arm's realized ground-truth cost stays within the stated error
//! bound (`1 + (1 − confidence)` of uniform's) on every seed, and the
//! median of its *additional* saving over the pruned arm is ≥ 20 %. And
//! the telemetry
//! plane's overhead on the measurement hot path stays within 3 % of the
//! `--no-metrics` baseline. Exits non-zero otherwise.
//!
//! `--trace PATH` streams the focused+pruned arm's full event history —
//! plus the final metrics snapshot and span log — into a
//! schema-versioned JSONL trace; the machine-readable arm comparison
//! always lands in `BENCH_ext_sweep.json`.

use cloudia_bench::{header, row, write_bench_json, ExtArgs};
use cloudia_measure::{MeasureConfig, Scheme, Staged};
use cloudia_obs::Json;
use cloudia_online::scenario::median;
use cloudia_online::{
    ArmOptions, FocusScenario, ProbePolicy, CONTRACT_SEEDS, MEDIAN_COST_GAP_BOUND,
};

/// Minimum wall time of one arm's timed block in the telemetry race (s).
const BLOCK_S: f64 = 0.02;
/// Block pairs the telemetry race times (odd, so the median is one
/// pair's ratio).
const REPS: usize = 101;

/// Telemetry-on vs telemetry-off wall-time ratio of identical staged
/// sweeps over a scratch network, as the median over [`REPS`] reps of
/// the ratio of two back-to-back timed blocks, one per arm. A block
/// repeats the sweep for at least [`BLOCK_S`] of wall time (a run count
/// calibrated once, up front), and reps alternate which arm runs first.
/// A pair shares its host conditions, so a slow drift of the machine's
/// speed cancels within each ratio and the alternation cancels what the
/// first block leaves the second; a burst of host noise spoils only the
/// few pairs it lands on, and the median discards them.
fn telemetry_overhead_ratio() -> f64 {
    let net = cloudia_bench::standard_network(cloudia_netsim::Provider::test_quiet(), 24, 7);
    let cfg = MeasureConfig { seed: 7, ..MeasureConfig::default() };
    let scheme = Staged::new(3, 2);
    let time_runs = |enabled: bool, runs: usize| {
        cloudia_obs::set_enabled(enabled);
        let t0 = std::time::Instant::now();
        for _ in 0..runs {
            std::hint::black_box(scheme.run(std::hint::black_box(&net), &cfg));
        }
        t0.elapsed().as_secs_f64()
    };
    // Warm both arms (allocator, caches, branch predictors), then size a
    // block from the slower of two short calibration runs.
    time_runs(true, 3);
    time_runs(false, 3);
    let probe = 16;
    let per_run = time_runs(true, probe).max(time_runs(false, probe)) / probe as f64;
    let runs = ((BLOCK_S / per_run.max(1e-9)).ceil() as usize).max(probe);
    let mut ratios: Vec<f64> = (0..REPS)
        .map(|rep| {
            let (on, off) = if rep % 2 == 0 {
                let on = time_runs(true, runs);
                (on, time_runs(false, runs))
            } else {
                let off = time_runs(false, runs);
                (time_runs(true, runs), off)
            };
            on / off.max(f64::MIN_POSITIVE)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[REPS / 2]
}

fn main() {
    let args = ExtArgs::parse();
    let (smoke, scale) = (args.smoke, args.scale);
    header("ext-sweep", "mid-sweep tournament pruning vs full batch sweeps", scale);

    let mut scenario = FocusScenario::default();
    if !smoke {
        scenario.mesh = scale.pick((3, 4), (5, 6));
        scenario.instances = scale.pick(56, 120);
        scenario.head_epochs = scale.pick(16, 32);
        scenario.tail_epochs = scale.pick(16, 32);
        scenario.solve_seconds = scale.pick(0.5, 2.0);
    }
    println!(
        "# instance: {}x{} mesh on {} instances, {} active + {} quiet epochs x {} h, repair \
         budget {}s",
        scenario.mesh.0,
        scenario.mesh.1,
        scenario.instances,
        scenario.head_epochs,
        scenario.tail_epochs,
        scenario.epoch_hours,
        scenario.solve_seconds,
    );

    let built = scenario.build();
    let uniform = built.run_arm(ProbePolicy::Uniform);
    let pruned_opts =
        ArmOptions { prune_during_sweep: true, ..ArmOptions::plain(ProbePolicy::Uniform) };
    let pruned = built.run_arm_with(pruned_opts);
    // The error-bounded arm: CI-backed pruning plus the anytime early
    // stop, at this confidence level. Its realized cost bound is
    // asserted against `1 + (1 - confidence)` under --smoke.
    let confidence = 0.95;
    let anytime_opts = ArmOptions { confidence: Some(confidence), anytime: true, ..pruned_opts };
    let anytime = built.run_arm_with(anytime_opts);
    let focused_opts = ArmOptions { probe_policy: scenario.focused_policy(), ..pruned_opts };
    // With `--trace` the focused+pruned arm streams its full event
    // history into the JSONL trace as it runs.
    let (focused_pruned, recorder) = match args.recorder("ext_sweep") {
        Some(rec) => {
            let (arm, rec) = built.run_arm_traced(focused_opts, rec);
            (arm, Some(rec))
        }
        None => (built.run_arm_with(focused_opts), None),
    };

    println!("policy\tavg_cost_ms\tprobe_round_trips\tsaved\tdeep\tresolves\tmigrations");
    for (name, arm) in [
        ("uniform", &uniform),
        ("pruned", &pruned),
        ("anytime", &anytime),
        ("focused+pruned", &focused_pruned),
    ] {
        row(&[
            name.to_string(),
            format!("{:.4}", arm.avg_cost),
            format!("{}", arm.probes),
            format!("{}", arm.saved_round_trips),
            format!("{}", arm.deep_probe_round_trips),
            format!("{}", arm.resolves),
            format!("{}", arm.migrations),
        ]);
    }
    let savings = 1.0 - pruned.probes as f64 / uniform.probes as f64;
    let cost_ratio = pruned.avg_cost / uniform.avg_cost.max(f64::MIN_POSITIVE);
    println!(
        "# pruned sweeps save {:.1}% of uniform's round trips at {:+.2}% cost",
        savings * 100.0,
        (cost_ratio - 1.0) * 100.0
    );
    let anytime_extra = 1.0 - anytime.probes as f64 / pruned.probes.max(1) as f64;
    let anytime_cost_ratio = anytime.avg_cost / uniform.avg_cost.max(f64::MIN_POSITIVE);
    let error_bound = 1.0 + (1.0 - confidence);
    println!(
        "# anytime sweeps save a further {:.1}% of pruned's round trips at {:+.2}% cost \
         (bound {:+.2}%)",
        anytime_extra * 100.0,
        (anytime_cost_ratio - 1.0) * 100.0,
        (error_bound - 1.0) * 100.0
    );
    println!(
        "# focused+pruned spends {:.1}% of uniform's budget, {} round trips re-invested deep",
        100.0 * focused_pruned.probes as f64 / uniform.probes as f64,
        focused_pruned.deep_probe_round_trips,
    );

    // Telemetry overhead on the measurement hot path: identical staged
    // sweeps with the plane on vs off (`--no-metrics` equivalent).
    // Asserted only under --smoke; reported always.
    let overhead_ratio = telemetry_overhead_ratio();
    cloudia_obs::set_enabled(args.metrics_enabled);
    println!(
        "# telemetry overhead on staged sweeps: {:+.2}% vs --no-metrics",
        (overhead_ratio - 1.0) * 100.0
    );

    let arm_json = |arm: &cloudia_online::FocusArm| {
        Json::obj()
            .field("avg_cost_ms", arm.avg_cost)
            .field("probe_round_trips", arm.probes)
            .field("saved_round_trips", arm.saved_round_trips)
            .field("deep_probe_round_trips", arm.deep_probe_round_trips)
            .field("resolves", arm.resolves)
            .field("migrations", arm.migrations)
    };
    let payload = Json::obj()
        .field("instances", scenario.instances)
        .field("epochs", scenario.epochs())
        .field("uniform", arm_json(&uniform))
        .field("pruned", arm_json(&pruned))
        .field("anytime", arm_json(&anytime))
        .field("focused_pruned", arm_json(&focused_pruned))
        .field("savings", savings)
        .field("cost_ratio", cost_ratio)
        .field("confidence", confidence)
        .field("anytime_savings_vs_pruned", anytime_extra)
        .field("anytime_cost_ratio", anytime_cost_ratio)
        .field("telemetry_overhead_ratio", overhead_ratio);
    match write_bench_json("ext_sweep", payload.clone()) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("FAIL: cannot write BENCH_ext_sweep.json: {e}");
            std::process::exit(1);
        }
    }
    if let Some(mut rec) = recorder {
        rec.record("bench", payload);
        rec.record_metrics_snapshot(cloudia_obs::metrics());
        rec.flush_global_spans();
        if let Err(e) = rec.finish() {
            eprintln!("FAIL: trace write failed: {e}");
            std::process::exit(1);
        }
    }

    if smoke {
        let cmp = scenario.against_uniform(CONTRACT_SEEDS, pruned_opts);
        let gap = cmp.median_cost_gap();
        println!(
            "# over {} seeds: pruned median cost gap {:+.2}%, least saving {:.1}%",
            cmp.runs.len(),
            gap * 100.0,
            cmp.probe_ratios().map(|(_, r)| (1.0 - r) * 100.0).fold(f64::INFINITY, f64::min)
        );
        let mut failures = Vec::new();
        for (seed, ratio) in cmp.probe_ratios() {
            if ratio > 0.70 {
                failures.push(format!(
                    "seed {seed}: pruning saved only {:.1}% of uniform's round trips (< 30%)",
                    (1.0 - ratio) * 100.0
                ));
            }
        }
        if gap > MEDIAN_COST_GAP_BOUND {
            failures.push(format!(
                "pruned median cost gap {:+.2}% over {} seeds exceeds the {:.0}% bound",
                gap * 100.0,
                cmp.runs.len(),
                MEDIAN_COST_GAP_BOUND * 100.0
            ));
        }
        if let Some((seed, ..)) = cmp.runs.iter().find(|(_, _, arm)| arm.saved_round_trips == 0) {
            failures.push(format!("seed {seed}: the pruned arm never reported mid-sweep savings"));
        }
        let anytime_cmp = scenario.against_uniform(CONTRACT_SEEDS, anytime_opts);
        for (seed, uniform, anytime) in &anytime_cmp.runs {
            let ratio = anytime.avg_cost / uniform.avg_cost.max(f64::MIN_POSITIVE);
            if ratio > error_bound {
                failures.push(format!(
                    "seed {seed}: anytime time-averaged cost is {:+.2}% of uniform's, outside \
                     the {:.0}% error bound",
                    (ratio - 1.0) * 100.0,
                    (error_bound - 1.0) * 100.0
                ));
            }
        }
        // One seed's extra saving over pruned spreads with a standard
        // deviation of 18 % over scenario seeds 1–200 (median 36 %; 38 of
        // the 200 fall below 20 %), so one seed decides nothing. The
        // median of 64 seeds has a standard error of about
        // 1.25 · 18 % / √64 ≈ 2.8 %, and the gate holds that median to the
        // 20 % contract itself: the measured 36.6 % clears it by more
        // than five standard errors.
        let extra = median(
            cmp.runs
                .iter()
                .zip(&anytime_cmp.runs)
                .map(|((_, _, pruned), (_, _, anytime))| {
                    1.0 - anytime.probes as f64 / pruned.probes.max(1) as f64
                })
                .collect(),
        );
        println!(
            "# over {} seeds: anytime saves a median {:.1}% more than pruned",
            cmp.runs.len(),
            extra * 100.0
        );
        if extra < 0.20 {
            failures.push(format!(
                "anytime sweeps saved a median {:.1}% additional round trips over pruned (< 20%)",
                extra * 100.0
            ));
        }
        if overhead_ratio > 1.03 {
            failures.push(format!(
                "telemetry overhead {:.2}% on staged sweeps exceeds 3%",
                (overhead_ratio - 1.0) * 100.0
            ));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!(
            "# smoke OK: >= 30% round trips saved, median cost gap within {:.0}% of full sweeps, \
             anytime within its error bound on every seed and a median >= 20% cheaper than \
             pruned, telemetry overhead within 3%",
            MEDIAN_COST_GAP_BOUND * 100.0
        );
    }
}
