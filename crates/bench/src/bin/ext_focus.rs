//! Extension: trigger-driven focused measurement vs uniform sweeps.
//!
//! Two online-advisor arms ride the **identical** drift trajectory and
//! probe randomness (each arm's `SimStream` drifts the hour-0 network
//! from the scenario's seeds), differing only in probe policy:
//!
//! * **uniform** — the stream's full staged tournament sweep every epoch
//!   (O(m²) probe pairs, the PR 2 behaviour);
//! * **focused** — `ProbePolicy::Focused`: probe the candidate-pool
//!   clique, the detector-flagged links, and whatever went stale, falling
//!   back to a full sweep on escalation or staleness (O(K² + flagged)).
//!
//! The scenario — an active drift head followed by a quiet tail, both
//! arms under the same adaptive candidate pool — is
//! [`cloudia_online::scenario::FocusScenario`], shared verbatim with the
//! differential tests in `crates/online/tests/focused.rs` and
//! `tests/focused.rs` so the asserted contract cannot fork.
//!
//! The table comes from one scenario seed, which decides nothing about a
//! 2 % cost contract. So in `--smoke` mode the bin also runs both arms on
//! every seed of [`cloudia_online::CONTRACT_SEEDS`] and **asserts** the
//! contract there: on every seed focused probing spends ≤ 25 % of
//! uniform's probe round trips and the focused arm's adaptive `k` ends the
//! quiet tail below its peak, and the median time-averaged ground-truth
//! cost gap stays within [`cloudia_online::MEDIAN_COST_GAP_BOUND`]. Exits
//! non-zero otherwise.
//!
//! `--trace PATH` streams the focused arm's full event history into a
//! schema-versioned JSONL trace; the machine-readable arm comparison
//! always lands in `BENCH_ext_focus.json`.

use cloudia_bench::{header, row, write_bench_json, ExtArgs};
use cloudia_obs::Json;
use cloudia_online::{
    ArmOptions, FocusScenario, ProbePolicy, CONTRACT_SEEDS, MEDIAN_COST_GAP_BOUND,
};

fn main() {
    let args = ExtArgs::parse();
    let (smoke, scale) = (args.smoke, args.scale);
    header("ext-focus", "focused (trigger-driven) vs uniform probing", scale);

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
    // With `--trace` the focused arm streams its event history into the
    // JSONL trace as it runs.
    let focused_opts = ArmOptions::plain(scenario.focused_policy());
    let (focused, recorder) = match args.recorder("ext_focus") {
        Some(rec) => {
            let (arm, rec) = built.run_arm_traced(focused_opts, rec);
            (arm, Some(rec))
        }
        None => (built.run_arm_with(focused_opts), None),
    };

    println!("policy\tavg_cost_ms\tprobe_round_trips\tresolves\tmigrations");
    for (name, arm) in [("uniform", &uniform), ("focused", &focused)] {
        row(&[
            name.to_string(),
            format!("{:.4}", arm.avg_cost),
            format!("{}", arm.probes),
            format!("{}", arm.resolves),
            format!("{}", arm.migrations),
        ]);
    }
    let probe_ratio = focused.probes as f64 / uniform.probes as f64;
    let cost_ratio = focused.avg_cost / uniform.avg_cost.max(f64::MIN_POSITIVE);
    println!(
        "# focused spends {:.1}% of uniform's probes at {:+.2}% cost",
        probe_ratio * 100.0,
        (cost_ratio - 1.0) * 100.0
    );

    // The focused arm's adaptive pool over time: held up by the active
    // head's escalations, shrinking on the quiet tail.
    println!("epoch\tphase\tfocused_k");
    for &(e, k) in &focused.k_trace {
        row(&[
            format!("{e}"),
            if e < scenario.head_epochs { "active" } else { "quiet" }.to_string(),
            format!("{k}"),
        ]);
    }
    let peak_k = focused.k_trace.iter().map(|&(_, k)| k).max().unwrap_or(0);
    let final_k = focused.k_trace.last().map(|&(_, k)| k).unwrap_or(0);
    println!("# adaptive k: peak {peak_k} -> final {final_k} after the quiet tail");

    let arm_json = |arm: &cloudia_online::FocusArm| {
        Json::obj()
            .field("avg_cost_ms", arm.avg_cost)
            .field("probe_round_trips", arm.probes)
            .field("resolves", arm.resolves)
            .field("migrations", arm.migrations)
    };
    let payload = Json::obj()
        .field("instances", scenario.instances)
        .field("epochs", scenario.epochs())
        .field("uniform", arm_json(&uniform))
        .field("focused", arm_json(&focused))
        .field("probe_ratio", probe_ratio)
        .field("cost_ratio", cost_ratio)
        .field("adaptive_k_peak", peak_k)
        .field("adaptive_k_final", final_k);
    match write_bench_json("ext_focus", payload.clone()) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("FAIL: cannot write BENCH_ext_focus.json: {e}");
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
        let cmp = scenario.against_uniform(CONTRACT_SEEDS, focused_opts);
        let gap = cmp.median_cost_gap();
        let max_ratio = cmp.probe_ratios().map(|(_, r)| r).fold(0.0, f64::max);
        let seeds = cmp.runs.len();
        println!(
            "# over {seeds} seeds: focused spends at most {:.1}% of uniform's probes, median cost \
             gap {:+.2}%",
            max_ratio * 100.0,
            gap * 100.0
        );
        let mut failures = Vec::new();
        for (seed, ratio) in cmp.probe_ratios() {
            if ratio > 0.25 {
                failures.push(format!(
                    "seed {seed}: focused probing used {:.1}% of uniform's round trips (> 25%)",
                    ratio * 100.0
                ));
            }
        }
        if gap > MEDIAN_COST_GAP_BOUND {
            failures.push(format!(
                "focused median cost gap {:+.2}% over {seeds} seeds exceeds the {:.0}% bound",
                gap * 100.0,
                MEDIAN_COST_GAP_BOUND * 100.0
            ));
        }
        let held = cmp.seeds_where_k_held();
        if !held.is_empty() {
            failures.push(format!("adaptive k never shrank on the quiet tail on seeds {held:?}"));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!(
            "# smoke OK: <= 25% probe budget, median cost gap within {:.0}%, adaptive k shrank on \
             the quiet tail",
            MEDIAN_COST_GAP_BOUND * 100.0
        );
    }
}
