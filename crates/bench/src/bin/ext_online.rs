//! Extension: online advisor vs batch re-deploy vs never-migrate.
//!
//! Three policies ride the **identical** drift trajectory and measurement
//! randomness (each arm drifts the hour-0 network from the same seeds),
//! at equal per-epoch measurement budget:
//!
//! * **never** — deploy once, never move (the paper's §2.2.1 baseline);
//! * **batch** — the paper's re-deployment iteration: every epoch,
//!   re-estimate from that epoch's fresh samples alone and run a **cold
//!   full** solve, migrating under the shared policy economics;
//! * **online** — the `cloudia-online` control loop: EWMA link history,
//!   CUSUM drift triggers, and budgeted incremental re-solves (≤ k nodes
//!   move per round).
//!
//! Reported: time-averaged ground-truth deployment cost (including
//! amortized migration cost), migration counts, and — on the online arm's
//! recorded trigger instances — wall-clock time of the incremental
//! re-solve vs a cold full solve of the same instance.
//!
//! `--smoke` shrinks everything for CI; `CLOUDIA_SCALE=paper` grows it.
//! `--trace PATH` streams the online arm's event history into a JSONL
//! trace; the arm comparison always lands in `BENCH_ext_online.json`.

use std::time::Instant;

use cloudia_bench::{header, row, write_bench_json, ExtArgs};
use cloudia_core::{CommGraph, CostMatrix, Objective, RedeployPolicy, SearchStrategy};
use cloudia_measure::{MeasureConfig, Scheme, Staged};
use cloudia_netsim::{Cloud, DriftParams, DriftingNetwork, Network, Provider};
use cloudia_obs::Json;
use cloudia_online::{
    incremental_resolve, DetectorConfig, EpochMeasurement, MeasurementStream, OnlineAdvisor,
    OnlineAdvisorConfig, OnlineEvent, RepairConfig, SimStream,
};
use cloudia_solver::{Budget, PortfolioConfig};

struct ArmReport {
    name: &'static str,
    avg_cost: f64,
    migrations: usize,
    nodes_moved: u64,
    migration_paid: f64,
}

fn fresh_costs(m: &EpochMeasurement, n: usize) -> CostMatrix {
    let mut b = CostMatrix::builder(n);
    for d in &m.deltas {
        b.set(d.src as usize, d.dst as usize, d.mean);
    }
    b.freeze().expect("epoch deltas are valid latencies")
}

#[allow(clippy::too_many_arguments)]
fn report(
    name: &'static str,
    total_true: f64,
    epochs: u64,
    migrations: usize,
    nodes_moved: u64,
    paid: f64,
) -> ArmReport {
    ArmReport {
        name,
        avg_cost: (total_true + paid) / epochs as f64,
        migrations,
        nodes_moved,
        migration_paid: paid,
    }
}

fn main() {
    let args = ExtArgs::parse();
    let (smoke, scale) = (args.smoke, args.scale);
    header("ext-online", "online advisor vs batch re-deploy vs never-migrate", scale);

    let (rows, cols) = if smoke { (4, 4) } else { scale.pick((4, 4), (7, 7)) };
    let epochs: u64 = if smoke { 30 } else { scale.pick(30, 60) };
    let epoch_hours = 6.0;
    let solve_s: f64 = if smoke { 0.2 } else { scale.pick(1.0, 5.0) };
    let k = 3usize;
    let seed = 42u64;
    let policy = RedeployPolicy { min_gain: 0.02, migration_cost_per_node: 0.05 };

    let graph = CommGraph::mesh_2d(rows, cols);
    let n_nodes = graph.num_nodes();
    let m_instances = n_nodes + n_nodes / 4;

    // Slower-but-larger drift than the stability-figure default: links
    // wander far enough that the hour-0 plan goes stale, but excursions
    // persist for tens of hours, so reacting to them pays off.
    let mut provider = Provider::ec2_like();
    provider.drift = DriftParams { reversion_per_hour: 0.02, sigma_per_sqrt_hour: 0.07 };
    let mut cloud = Cloud::boot(provider, seed);
    let alloc = cloud.allocate(m_instances);
    let net = cloud.network(&alloc);

    println!(
        "# instance: {rows}x{cols} mesh on {m_instances} instances, {epochs} epochs x \
         {epoch_hours} h, k = {k}, repair budget {solve_s}s"
    );

    // Initial plan: one batch pipeline run on the hour-0 network.
    let scheme = || Staged::new(3, 2);
    let measure_cfg = MeasureConfig { seed, ..MeasureConfig::default() };
    let initial_report = scheme().run(&net, &measure_cfg);
    let initial_costs = cloudia_core::LatencyMetric::Mean.cost_matrix(&initial_report.stats);
    let initial_problem = graph.problem(initial_costs);
    let initial = SearchStrategy::Portfolio(PortfolioConfig {
        budget: Budget::seconds(solve_s.max(1.0)),
        threads: 1,
        seed,
        ..PortfolioConfig::default()
    })
    .run(&initial_problem, Objective::LongestLink)
    .deployment;

    // The shared trajectory: every arm drifts the hour-0 network under
    // this key, and prices its plan on the links it brought up to date.
    let drift_seed = seed ^ 0xd21f7;
    let new_stream =
        || SimStream::new(net.clone(), scheme(), measure_cfg.clone(), epoch_hours, drift_seed);
    let truth_of = |truth: &Network, plan: &[u32]| {
        graph.problem(truth.mean_matrix()).cost(Objective::LongestLink, plan)
    };

    // Arm 1: never migrate.
    let mut drifting = DriftingNetwork::new(net.clone(), drift_seed);
    let never_total: f64 = (0..epochs)
        .map(|_| {
            drifting.step(epoch_hours);
            drifting.advance_instances(&initial);
            truth_of(drifting.network(), &initial)
        })
        .sum();
    let never = report("never", never_total, epochs, 0, 0, 0.0);

    // Arm 2: batch re-deploy — fresh estimates + cold full solve, every
    // epoch, same measurement and same solve budget as the online arm.
    let mut stream = new_stream();
    let mut plan = initial.clone();
    let mut batch_total = 0.0;
    let mut batch_migrations = 0usize;
    let mut batch_moved = 0u64;
    let mut batch_paid = 0.0;
    for e in 0..epochs as usize {
        let m = stream.next_epoch();
        let problem = graph.problem(fresh_costs(&m, m_instances));
        let out = SearchStrategy::Portfolio(PortfolioConfig {
            budget: Budget::seconds(solve_s),
            threads: 1,
            seed: seed ^ e as u64,
            ..PortfolioConfig::default()
        })
        .run(&problem, Objective::LongestLink);
        let keep = problem.cost(Objective::LongestLink, &plan);
        let moved = plan.iter().zip(&out.deployment).filter(|(a, b)| a != b).count();
        if policy.accepts(keep, keep - out.cost, moved, 0.0) {
            plan = out.deployment;
            batch_migrations += 1;
            batch_moved += moved as u64;
            batch_paid += policy.migration_cost(moved);
        }
        batch_total += truth_of(stream.truth(&plan), &plan);
    }
    let batch = report("batch", batch_total, epochs, batch_migrations, batch_moved, batch_paid);

    // Arm 3: the online advisor.
    let mut stream = new_stream();
    let config = OnlineAdvisorConfig {
        objective: Objective::LongestLink,
        policy,
        migration_budget: k,
        solve_seconds: solve_s,
        threads: 1,
        seed,
        record_triggers: true,
        // A faster EWMA than the default: the experiment's drift is
        // stronger than the paper's stability figures, so the baseline
        // must track it or repair decisions go stale.
        ewma_alpha: 0.5,
        detector: DetectorConfig { warmup: 3, threshold: 6.0 },
        ..Default::default()
    };
    let mut advisor = OnlineAdvisor::new(graph.clone(), m_instances, initial.clone(), config);
    // With `--trace` the online arm streams its event history into the
    // JSONL trace as it runs.
    if let Some(rec) = args.recorder("ext_online") {
        advisor.attach_recorder(rec);
    }
    advisor.run(&mut stream, epochs);
    let recorder = advisor.take_recorder();
    let online_migrations =
        advisor.events().iter().filter(|e| matches!(e, OnlineEvent::Migrate { .. })).count();
    let online = ArmReport {
        name: "online",
        avg_cost: advisor.time_averaged_cost(),
        migrations: online_migrations,
        nodes_moved: advisor.moved_total(),
        migration_paid: advisor.migration_cost_paid(),
    };

    println!("policy\tavg_cost_ms\tmigrations\tnodes_moved\tmigration_paid");
    for arm in [&never, &batch, &online] {
        row(&[
            arm.name.to_string(),
            format!("{:.4}", arm.avg_cost),
            format!("{}", arm.migrations),
            format!("{}", arm.nodes_moved),
            format!("{:.3}", arm.migration_paid),
        ]);
    }
    println!(
        "# online vs never: {:+.1}% | online vs batch: {:+.1}%",
        (online.avg_cost / never.avg_cost - 1.0) * 100.0,
        (online.avg_cost / batch.avg_cost - 1.0) * 100.0,
    );
    if batch.migrations == 0 {
        println!(
            "# note: batch's cold full re-solves move too many nodes to ever clear the \
             migration economics — at this migration price the paper's batch loop degenerates \
             to never-migrate, while k-budgeted repairs still act profitably"
        );
    }

    let arm_json = |arm: &ArmReport| {
        Json::obj()
            .field("avg_cost_ms", arm.avg_cost)
            .field("migrations", arm.migrations)
            .field("nodes_moved", arm.nodes_moved)
            .field("migration_paid", arm.migration_paid)
    };
    let payload = Json::obj()
        .field("instances", m_instances)
        .field("epochs", epochs)
        .field("never", arm_json(&never))
        .field("batch", arm_json(&batch))
        .field("online", arm_json(&online))
        .field("online_vs_never", online.avg_cost / never.avg_cost)
        .field("online_vs_batch", online.avg_cost / batch.avg_cost);
    match write_bench_json("ext_online", payload.clone()) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("FAIL: cannot write BENCH_ext_online.json: {e}");
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

    // Timing: incremental vs cold on the online arm's trigger instances.
    let triggers = advisor.trigger_instances();
    if triggers.is_empty() {
        println!("# no triggers fired on this trajectory (stable enough network)");
        return;
    }
    let mut inc_total = 0.0;
    let mut cold_total = 0.0;
    println!("trigger_epoch\tincremental_s\tcold_s\tspeedup");
    for t in triggers {
        let repair_config = RepairConfig {
            migration_budget: k,
            solve_seconds: solve_s,
            threads: 1,
            seed: seed ^ t.epoch,
        };
        let t0 = Instant::now();
        let _ = incremental_resolve(&t.pool, Objective::LongestLink, &t.incumbent, &repair_config);
        let inc_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = SearchStrategy::Portfolio(PortfolioConfig {
            budget: Budget::seconds(solve_s),
            threads: 1,
            seed: seed ^ t.epoch,
            ..PortfolioConfig::default()
        })
        .run(&t.pool.sub, Objective::LongestLink);
        let cold_s = t0.elapsed().as_secs_f64();
        inc_total += inc_s;
        cold_total += cold_s;
        row(&[
            format!("{}", t.epoch),
            format!("{inc_s:.3}"),
            format!("{cold_s:.3}"),
            format!("{:.2}x", cold_s / inc_s.max(1e-9)),
        ]);
    }
    println!(
        "# mean incremental {:.3}s vs cold {:.3}s: {:.2}x faster",
        inc_total / triggers.len() as f64,
        cold_total / triggers.len() as f64,
        cold_total / inc_total.max(1e-9),
    );
}
