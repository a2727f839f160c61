//! Extension: loss-aware vs loss-blind advisement on a lossy network.
//!
//! Two online-advisor arms ride the **identical** lossy trajectory (each
//! arm's `SimStream` drifts the hour-0 network's latencies and per-link
//! drop probabilities from the scenario's seeds, plus one forced instance
//! blackout mid-run), differing only in whether they believe in packet
//! loss:
//!
//! * **aware** — retransmit-budgeted sweeps, per-link loss-rate EWMAs,
//!   `LinkDark` triage with spot-check confirmation, instance
//!   evacuation, and loss-priced search costs;
//! * **blind** — zero retries, no dark triage, no loss pricing: the
//!   pre-loss-plane behaviour, judged on the same lossy ground truth.
//!
//! The scenario is [`cloudia_online::scenario::LossScenario`], shared
//! verbatim with the differential test in
//! `crates/online/src/scenario.rs` so the asserted contract cannot fork.
//!
//! In `--smoke` mode the bin **asserts** the PR's acceptance criteria:
//! the blackout raises `LinkDark` (not a latency migration) within two
//! epochs of onset, the aware arm evacuates the dark instance while the
//! blind arm never does, and the aware arm's time-averaged effective
//! cost beats the blind arm's. Exits non-zero otherwise.
//!
//! The machine-readable arm comparison always lands in
//! `BENCH_ext_loss.json`.

use cloudia_bench::{header, row, write_bench_json, ExtArgs};
use cloudia_obs::Json;
use cloudia_online::LossScenario;

fn main() {
    let args = ExtArgs::parse();
    let (smoke, scale) = (args.smoke, args.scale);
    header("ext-loss", "loss-aware vs loss-blind advisement", scale);

    let mut scenario = LossScenario::default();
    if !smoke {
        scenario.mesh = scale.pick((3, 4), (5, 6));
        scenario.instances = scale.pick(24, 48);
        scenario.epochs = scale.pick(24, 40);
        scenario.blackout_epoch = scenario.epochs / 2;
        scenario.solve_seconds = scale.pick(0.5, 2.0);
    }
    println!(
        "# instance: {}x{} mesh on {} instances, {} epochs x {} h, {:.0}% drifting loss, \
         blackout at epoch {}, {} retries/pair",
        scenario.mesh.0,
        scenario.mesh.1,
        scenario.instances,
        scenario.epochs,
        scenario.epoch_hours,
        scenario.base_loss * 100.0,
        scenario.blackout_epoch,
        scenario.retries_per_pair,
    );

    let built = scenario.build();
    let aware = built.run_arm(true);
    let blind = built.run_arm(false);

    println!(
        "arm\tavg_cost_ms\tprobe_round_trips\tmigrations\tlink_dark\tevacuations\tends_on_dark"
    );
    for (name, arm) in [("aware", &aware), ("blind", &blind)] {
        row(&[
            name.to_string(),
            format!("{:.4}", arm.avg_cost),
            format!("{}", arm.probes),
            format!("{}", arm.migrations),
            format!("{}", arm.link_dark_events),
            format!("{}", arm.evacuations),
            format!("{}", arm.final_plan_on_dark),
        ]);
    }
    let cost_ratio = aware.avg_cost / blind.avg_cost.max(f64::MIN_POSITIVE);
    println!(
        "# aware runs at {:.1}% of blind's effective cost; dark detected at epoch {:?} \
         (blackout at {})",
        cost_ratio * 100.0,
        aware.first_dark_epoch,
        scenario.blackout_epoch,
    );

    let arm_json = |arm: &cloudia_online::LossArm| {
        Json::obj()
            .field("avg_cost_ms", arm.avg_cost)
            .field("probe_round_trips", arm.probes)
            .field("migrations", arm.migrations)
            .field("link_dark_events", arm.link_dark_events)
            .field("evacuations", arm.evacuations)
            .field("final_plan_on_dark", arm.final_plan_on_dark)
            .field("first_dark_epoch", arm.first_dark_epoch.map_or(Json::Null, Json::from))
    };
    let payload = Json::obj()
        .field("instances", scenario.instances)
        .field("epochs", scenario.epochs)
        .field("blackout_epoch", scenario.blackout_epoch)
        .field("aware", arm_json(&aware))
        .field("blind", arm_json(&blind))
        .field("cost_ratio", cost_ratio);
    match write_bench_json("ext_loss", payload) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("FAIL: cannot write BENCH_ext_loss.json: {e}");
            std::process::exit(1);
        }
    }

    if smoke {
        let mut failures = Vec::new();
        match aware.first_dark_epoch {
            None => failures.push("the blackout never raised a LinkDark event".to_string()),
            Some(e) if e > scenario.blackout_epoch + 2 => failures.push(format!(
                "LinkDark raised at epoch {e}, more than 2 epochs after the blackout at {}",
                scenario.blackout_epoch
            )),
            Some(_) => {}
        }
        if aware.evacuations == 0 {
            failures.push("the aware arm never evacuated the dark instance".to_string());
        }
        if aware.final_plan_on_dark {
            failures
                .push("the aware arm's final plan still occupies the dark instance".to_string());
        }
        if blind.link_dark_events != 0 || blind.evacuations != 0 {
            failures.push(format!(
                "the blind arm triaged darkness it should not see ({} LinkDark, {} evacuations)",
                blind.link_dark_events, blind.evacuations
            ));
        }
        if aware.avg_cost >= blind.avg_cost {
            failures.push(format!(
                "loss awareness did not pay: aware {:.4} >= blind {:.4}",
                aware.avg_cost, blind.avg_cost
            ));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!(
            "# smoke OK: blackout triaged as LinkDark within 2 epochs, dark instance evacuated, \
             aware cost beats blind"
        );
    }
}
