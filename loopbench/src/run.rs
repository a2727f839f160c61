//! One workload, one process: set-up, the timed pass, the output checks, and
//! — with `--trace 1` — the traced pass with its shadows.
//!
//! An operation is one advise (batch) or one epoch (online). The closed loop
//! has one client: the next operation starts when the previous one returns.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::layers::{self, AdviseOut, EpochOut, ShadowOut};
use crate::report::{RunResult, END_TO_END, PER_LAYER};
use crate::stats::{agreeing_prefix, digest_step, median, tail, DIGEST_SEED};
use crate::trace::Tracer;
use crate::workloads::{BatchSpec, Kind, OnlineSpec, Probing, Workload, MIN_REPLAYS};

/// Builds the inputs once and times it. Every replay sets up afresh, so a
/// run has as many set-up times as replays.
fn timed_setup<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let built = build();
    (built, t0.elapsed().as_secs_f64())
}

type Metrics = BTreeMap<&'static str, f64>;

/// What one pass over a workload observed.
#[derive(Default)]
struct Pass {
    /// Wall time of each set-up (s), of every replay after `merge_replays`.
    setup_s: Vec<f64>,
    boot_alloc_ms: f64,
    /// Wall time of each operation, in order; after `merge_replays`, the
    /// fastest of its replays.
    op_ms: Vec<f64>,
    /// Process CPU seconds over the timed section.
    cpu_s: f64,
    peak_rss_mb: f64,
    round_trips: u64,
    plan_cost_ms: f64,
    /// Digest chain: entry `i` covers operations `0..=i`.
    digests: Vec<u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Per-layer metrics (traced pass only).
    layer: Metrics,
}

impl Pass {
    fn fail(&mut self, op: u64, why: impl std::fmt::Display) {
        self.failures.push(format!("op {op}: {why}"));
    }

    /// A failure of the run as a whole (an invariant across operations).
    fn fail_run(&mut self, why: impl std::fmt::Display) {
        self.failures.push(format!("run: {why}"));
        self.failed += 1;
    }

    /// Marks the operation failed if any check objected to it.
    fn close_op(&mut self, failures_before: usize) {
        self.attempted += 1;
        if self.failures.len() > failures_before {
            self.failed += 1;
        }
    }

    /// Operations the steady-state statistics run over: every advise, or
    /// every epoch after the bootstrap.
    fn steady(&self, online: bool) -> &[f64] {
        if online && self.op_ms.len() > 1 {
            &self.op_ms[1..]
        } else {
            &self.op_ms
        }
    }

    fn end_to_end(&self, online: bool) -> Metrics {
        let steady = self.steady(online);
        let ops = self.op_ms.len().max(1) as f64;
        let steady_s: f64 = steady.iter().sum::<f64>() / 1e3;
        Metrics::from([
            ("setup_s", self.setup_s.iter().copied().fold(f64::INFINITY, f64::min)),
            ("ops_per_s", ratio(steady.len() as f64, steady_s)),
            ("peak_rss_mb", self.peak_rss_mb),
            ("round_trips_per_op", self.round_trips as f64 / ops),
        ])
    }

    /// The per-operation view of the same pass — median and tail over
    /// `samples_ms`, the steady operations of every replay as timed; CPU —
    /// and the quality of its decisions.
    fn per_operation(&self, samples_ms: &[f64]) -> Metrics {
        let t = tail(samples_ms);
        Metrics::from([
            ("loop.plan_cost_ms", self.plan_cost_ms),
            ("loop.op_p50_ms", median(samples_ms)),
            ("loop.op_hi_ms", t.value),
            ("loop.op_hi_percentile", t.percentile),
            ("loop.cpu_ms_per_op", self.cpu_s * 1e3 / self.op_ms.len().max(1) as f64),
        ])
    }
}

/// Folds the replays of one seeded pass into one: every operation at the
/// fastest of its replays, every set-up time, the operations attempted and
/// failed in all of them, and the peak memory of the first (the high-water
/// mark only creeps up from there, by what the allocator leaves fragmented,
/// and how far depends on how many replays fit). Replays that disagree on a
/// digest fail the run.
fn merge_replays(replays: Vec<Pass>) -> Pass {
    let mut replays = replays.into_iter();
    let mut merged = replays.next().expect("at least one pass");
    for (k, replay) in replays.enumerate() {
        let agree = agreeing_prefix(&merged.digests, &replay.digests);
        if agree != merged.digests.len() || replay.op_ms.len() != merged.op_ms.len() {
            merged.fail_run(format!("replay {} diverged from the first pass at op {agree}", k + 1));
        } else {
            for (best, ms) in merged.op_ms.iter_mut().zip(&replay.op_ms) {
                *best = best.min(*ms);
            }
        }
        merged.setup_s.extend(replay.setup_s);
        merged.cpu_s = merged.cpu_s.min(replay.cpu_s);
        merged.attempted += replay.attempted;
        merged.failed += replay.failed;
        merged.failures.extend(replay.failures);
    }
    merged
}

/// Runs `workload` and returns the result the contract line carries, plus a
/// human-readable note line for the parent (`# …`).
pub fn run(workload: &Workload, seed: u64, seconds: f64, traced: bool) -> (RunResult, Vec<String>) {
    let online = matches!(workload.kind, Kind::Online(_));
    let pass = |tracer: &mut Tracer| match &workload.kind {
        Kind::Batch(spec) => batch_pass(spec, seed, tracer),
        Kind::Online(spec) => online_pass(spec, seed, tracer),
    };
    // The traced run spends its time on the shadowed pass instead.
    let seconds = if traced { 0.0 } else { seconds };
    let t0 = Instant::now();
    let mut replays = Vec::new();
    // One more replay while a replay of mean length still ends inside `seconds`.
    while replays.len() < MIN_REPLAYS
        || t0.elapsed().as_secs_f64() * (1.0 + 1.0 / replays.len() as f64) <= seconds
    {
        replays.push(pass(&mut Tracer::new(false)));
    }
    let mut notes = vec![format!(
        "# {}: {} replays in {:.1} s",
        workload.name,
        replays.len(),
        t0.elapsed().as_secs_f64()
    )];
    let samples_ms: Vec<f64> = replays.iter().flat_map(|p| p.steady(online).to_vec()).collect();
    let plain = merge_replays(replays);
    let t = tail(&samples_ms);
    notes.push(format!(
        "# {}: op_p50_ms {:.3}, op_hi_ms {:.3} (p{:.1} of {} steady operations), plan_cost_ms {:.4}",
        workload.name,
        median(&samples_ms),
        t.value,
        t.percentile,
        t.samples,
        plain.plan_cost_ms
    ));
    let series: Vec<String> = plain.op_ms.iter().map(|ms| format!("{ms:.1}")).collect();
    notes.push(format!("# op_ms {}", series.join(",")));
    let chain: Vec<String> = plain.digests.iter().map(|d| format!("{d:016x}")).collect();
    notes.push(format!("# digests {}", chain.join(",")));
    let (mut result, values, defs) = if traced {
        let mut tracer = Tracer::new(true);
        let mut shadowed = pass(&mut tracer);
        // Tracing and shadowing must leave the loop's trajectory untouched.
        let agree = agreeing_prefix(&plain.digests, &shadowed.digests);
        if agree != plain.digests.len() || agree != shadowed.digests.len() {
            shadowed.fail_run(format!("traced pass diverged from the untraced pass at op {agree}"));
        }
        let (p50_plain, p50_traced) = (median(&samples_ms), median(shadowed.steady(online)));
        shadowed.layer.insert(
            "obs.trace_overhead_ratio",
            if p50_plain > 0.0 { p50_traced / p50_plain - 1.0 } else { 0.0 },
        );
        shadowed.layer.insert("obs.spans", tracer.spans().len() as f64);
        // Reported from the untraced pass: tracing must not colour them.
        shadowed.layer.extend(plain.per_operation(&samples_ms));
        for (name, (count, self_ms)) in tracer.self_times() {
            notes.push(format!("# span {name}: {count} x, self {self_ms:.1} ms"));
        }
        match tracer.write_jsonl(std::path::Path::new("loopbench_trace.jsonl")) {
            Ok(()) => notes
                .push(format!("# wrote {} spans to loopbench_trace.jsonl", tracer.spans().len())),
            Err(e) => shadowed.fail_run(format!("cannot write loopbench_trace.jsonl: {e}")),
        }
        for failure in shadowed.failures.iter().take(20) {
            notes.push(format!("# FAIL traced pass, {failure}"));
        }
        let values = std::mem::take(&mut shadowed.layer);
        (summarize(&shadowed), values, PER_LAYER)
    } else {
        (summarize(&plain), plain.end_to_end(online), END_TO_END)
    };
    for (name, value) in &values {
        if !value.is_finite() {
            notes.push(format!("# FAIL {name} is not finite"));
            result.correct = false;
        }
    }
    let values =
        values.into_iter().map(|(k, v)| (k, if v.is_finite() { v } else { 0.0 })).collect();
    for failure in plain.failures.iter().take(20) {
        notes.push(format!("# FAIL {failure}"));
    }
    if !plain.failures.is_empty() {
        result.correct = false;
    }
    (result.with_metrics(defs, &values), notes)
}

fn summarize(pass: &Pass) -> RunResult {
    RunResult {
        correct: pass.failures.is_empty(),
        attempted: pass.attempted.max(1),
        failed: pass.failed,
        metrics: Vec::new(),
    }
}

// ------------------------------------------------------------------ checks --

/// A plan places every node on its own, existing instance.
fn check_deployment(deployment: &[u32], instances: usize) -> Result<(), String> {
    let mut used = vec![false; instances];
    for (node, &instance) in deployment.iter().enumerate() {
        match used.get_mut(instance as usize) {
            None => {
                return Err(format!("node {node} placed on instance {instance} of {instances}"))
            }
            Some(slot) if *slot => return Err(format!("instance {instance} hosts two nodes")),
            Some(slot) => *slot = true,
        }
    }
    Ok(())
}

fn check_advise(out: &AdviseOut) -> Vec<String> {
    let mut bad = Vec::new();
    if let Err(e) = check_deployment(&out.deployment, out.instances) {
        bad.push(e);
    }
    if !(out.optimized_cost.is_finite() && out.default_cost.is_finite()) {
        bad.push(format!("non-finite cost {} / {}", out.optimized_cost, out.default_cost));
    } else if out.optimized_cost > out.default_cost {
        bad.push(format!("optimized {} above default {}", out.optimized_cost, out.default_cost));
    }
    bad
}

fn check_epoch(
    out: &EpochOut,
    spec: &OnlineSpec,
    victim: Option<u32>,
    saw_dark: bool,
) -> Vec<String> {
    let mut bad = Vec::new();
    if let Err(e) = check_deployment(&out.deployment, spec.instances) {
        bad.push(e);
    }
    if out.moved > layers::MIGRATION_BUDGET && !out.evacuated {
        bad.push(format!("moved {} nodes on a budget of {}", out.moved, layers::MIGRATION_BUDGET));
    }
    if !(out.true_cost.is_finite() && out.est_cost.is_finite()) {
        bad.push(format!("non-finite cost {} / {}", out.true_cost, out.est_cost));
    }
    if let Some(slow) = out.resolve_seconds.iter().find(|&&s| s >= 0.9 * layers::SOLVE_SECONDS) {
        bad.push(format!("a repair ran {slow:.3} s of its {} s cap", layers::SOLVE_SECONDS));
    }
    // From two epochs after the blackout on, the dark instance hosts nothing
    // and the triage has raised a LinkDark on it.
    if let (Some(victim), Some(blackout)) = (victim, spec.blackout_epoch) {
        if out.epoch >= blackout + 2 {
            if out.deployment.contains(&victim) {
                bad.push(format!("a node still sits on dark instance {victim}"));
            }
            if !saw_dark {
                bad.push(format!("no LinkDark on instance {victim} since the blackout"));
            }
        }
    }
    bad
}

// -------------------------------------------------------------------- batch --

fn batch_pass(spec: &BatchSpec, seed: u64, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let (inputs, setup_s) = timed_setup(|| layers::batch_setup(spec, seed));
    pass.setup_s = vec![setup_s];
    pass.boot_alloc_ms = median(&inputs.boot_alloc_ms);

    let mut outs = Vec::new();
    let mut digest = DIGEST_SEED;
    let cpu0 = cpu_seconds();
    for i in 0..inputs.advises() {
        tracer.set_op(i as u64);
        let before = pass.failures.len();
        let (result, ms) =
            tracer.time("advise", |t| catch_unwind(AssertUnwindSafe(|| inputs.advise(i, t))));
        pass.op_ms.push(ms);
        match result {
            Ok(Ok(out)) => {
                for why in check_advise(&out) {
                    pass.fail(i as u64, why);
                }
                digest =
                    digest_step(digest, i as u64, out.round_trips, out.optimized_cost.to_bits());
                pass.round_trips += out.round_trips;
                outs.push(out);
            }
            Ok(Err(why)) => pass.fail(i as u64, why),
            Err(_) => pass.fail(i as u64, "advise panicked"),
        }
        pass.digests.push(digest);
        pass.close_op(before);
    }
    pass.cpu_s = cpu_seconds() - cpu0;
    pass.peak_rss_mb = peak_rss_mb();
    let costs: Vec<f64> = outs.iter().map(|o| o.optimized_cost).collect();
    pass.plan_cost_ms = costs.iter().sum::<f64>() / costs.len().max(1) as f64;

    if tracer.enabled() {
        let col = |f: fn(&AdviseOut) -> f64| median(&outs.iter().map(f).collect::<Vec<_>>());
        let parts: f64 = outs.iter().map(|o| o.measure_ms + o.extract_ms + o.search_ms).sum();
        let mut cp_ms = Vec::new();
        let mut cp_nodes = 0u64;
        let mut truth_ms = Vec::new();
        for (i, out) in outs.iter().enumerate() {
            tracer.set_op(i as u64);
            let (ms, nodes) = inputs.solver_cp_search(i, out, tracer);
            cp_ms.push(ms);
            cp_nodes += nodes;
            truth_ms.push(inputs.netsim_truth_matrix(i, tracer));
        }
        let measure_s: f64 = outs.iter().map(|o| o.measure_ms).sum::<f64>() / 1e3;
        let (pool_tasks, pool_parks) = layers::measure_pool_counters();
        pass.layer = Metrics::from([
            ("netsim.boot_alloc_ms", pass.boot_alloc_ms),
            ("netsim.truth_matrix_ms", median(&truth_ms)),
            ("measure.sweep_ms", col(|o| o.measure_ms)),
            ("measure.full_sweep_ms", col(|o| o.measure_ms)),
            ("measure.round_trips_per_s", ratio(pass.round_trips as f64, measure_s)),
            ("measure.pool_tasks", pool_tasks as f64),
            ("measure.pool_parks", pool_parks as f64),
            ("measure.pool_park_ratio", ratio(pool_parks as f64, pool_tasks as f64)),
            ("solver.cp_search_ms", median(&cp_ms)),
            ("solver.cp_nodes_per_s", ratio(cp_nodes as f64, cp_ms.iter().sum::<f64>() / 1e3)),
            ("core.measure_ms", col(|o| o.measure_ms)),
            ("core.extract_ms", col(|o| o.extract_ms)),
            ("core.search_ms", col(|o| o.search_ms)),
            ("core.parts_vs_advise_ratio", ratio(parts, pass.op_ms.iter().sum())),
        ]);
        // The three public steps are the whole advise.
        let covered = pass.layer["core.parts_vs_advise_ratio"];
        if !outs.is_empty() && (covered - 1.0).abs() > 0.02 {
            pass.fail_run(format!("measure+extract+search cover {covered:.3} of the advise spans"));
        }
    }
    pass
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ------------------------------------------------------------------- online --

fn online_pass(spec: &OnlineSpec, seed: u64, tracer: &mut Tracer) -> Pass {
    let traced = tracer.enabled();
    let mut pass = Pass::default();
    let ((inputs, mut lp), setup_s) = timed_setup(|| {
        let inputs = layers::online_setup(spec, seed);
        let lp = inputs.start();
        (inputs, lp)
    });
    pass.setup_s = vec![setup_s];
    pass.boot_alloc_ms = inputs.boot_alloc_ms;
    let mut shadow = traced.then(|| inputs.shadow());
    drop(inputs);

    let counters =
        ["online.detector_fires", "online.resolves", "online.migrations", "online.evacuations"];
    let counters0 = counters.map(layers::obs_counter);
    let (pool_tasks0, pool_parks0) = layers::measure_pool_counters();

    let mut epochs: Vec<EpochOut> = Vec::new();
    let mut shadows: Vec<ShadowOut> = Vec::new();
    // The product's own `online.step` span, one per traced epoch.
    let mut step_core_ms: Vec<f64> = Vec::new();
    let mut saw_dark = false;
    let mut first_dark = None;
    let mut digest = DIGEST_SEED;
    let cpu0 = cpu_seconds();
    for epoch in 0..spec.epochs {
        tracer.set_op(epoch);
        let before = pass.failures.len();
        if let Some(victim) = lp.inject_faults(epoch) {
            if let Some(shadow) = &mut shadow {
                shadow.force_dark(victim);
            }
        }
        if let Some(shadow) = &mut shadow {
            let (out, _) = tracer.time("shadow", |t| shadow.epoch(&lp, t));
            shadows.push(out);
        }
        let (result, ms) = tracer.time("epoch", |t| {
            catch_unwind(AssertUnwindSafe(|| {
                if traced && spec.splittable {
                    lp.step_split(t)
                } else {
                    lp.step_stream(t)
                }
            }))
        });
        pass.op_ms.push(ms);
        let Ok(out) = result else {
            // The loop's state is gone with the panic: stop here.
            pass.fail(epoch, "epoch panicked");
            pass.close_op(before);
            break;
        };
        if traced {
            step_core_ms.extend(layers::obs_take_span_ms("online.step"));
        }
        saw_dark |= out.victim_link_dark;
        if out.victim_link_dark && first_dark.is_none() {
            first_dark = Some(epoch);
        }
        for why in check_epoch(&out, spec, lp.victim(), saw_dark) {
            pass.fail(epoch, why);
        }
        digest = digest_step(digest, epoch, out.round_trips, out.true_cost.to_bits());
        pass.digests.push(digest);
        pass.close_op(before);
        epochs.push(out);
    }
    pass.cpu_s = cpu_seconds() - cpu0;
    pass.peak_rss_mb = peak_rss_mb();
    let finals = lp.finals();
    pass.round_trips = finals.probe_round_trips;
    pass.plan_cost_ms = finals.time_averaged_cost;

    if traced {
        let steady_ms = pass.steady(true).to_vec();
        let steady = |f: &dyn Fn(&ShadowOut) -> f64| -> f64 {
            median(&shadows.iter().skip(1).map(f).collect::<Vec<_>>())
        };
        let m2 = (spec.instances * spec.instances) as f64;
        // A refresh plan lists its stale pairs one by one and is never
        // `is_full()`; an epoch that touches most links is a full sweep.
        let full = |s: &ShadowOut| s.full_sweep || s.deltas as f64 > 0.5 * m2;
        let full_sweep_ms: Vec<f64> =
            shadows.iter().filter(|s| full(s)).map(|s| s.sweep_ms).collect();
        let sweep_s: f64 = shadows.iter().map(|s| s.sweep_ms).sum::<f64>() / 1e3;
        let sweep_round_trips: u64 = shadows.iter().map(|s| s.sweep_round_trips).sum();
        let serial: Vec<f64> = shadows.iter().filter_map(|s| s.serial_sweep_ms).collect();
        let auto: Vec<f64> =
            shadows.iter().filter(|s| s.serial_sweep_ms.is_some()).map(|s| s.sweep_ms).collect();
        let pruned: Vec<&ShadowOut> = shadows.iter().filter(|s| s.prune_evals > 0).collect();
        let stopped: Vec<&ShadowOut> = shadows.iter().filter(|s| s.stop_evals > 0).collect();
        let med = |xs: &[&ShadowOut], f: &dyn Fn(&ShadowOut) -> f64| -> f64 {
            median(&xs.iter().map(|s| f(s)).collect::<Vec<_>>())
        };
        // `online.sweep_ms` is the public `next_epoch*` call: the loop's own on
        // the workloads where the split is exact, the shadow stream's
        // elsewhere. There the split must also cover the epoch.
        let (sweep_ms, coverage) = if spec.splittable {
            let sweep: Vec<f64> = epochs.iter().skip(1).map(|e| e.sweep_ms).collect();
            let covered: f64 = epochs.iter().skip(1).map(|e| e.sweep_ms + e.step_ms).sum();
            (median(&sweep), ratio(covered, steady_ms.iter().sum()))
        } else {
            (steady(&|s| s.stream_ms + s.prune_eval_ms + s.stop_eval_ms), 0.0)
        };
        let refresh: Vec<f64> = pass
            .op_ms
            .iter()
            .zip(&shadows)
            .skip(1)
            .filter(|(_, s)| full(s) && spec.probing == Probing::Focused)
            .map(|(&ms, _)| ms)
            .collect();
        let in_loop_repairs: Vec<f64> =
            epochs.iter().flat_map(|e| e.resolve_seconds.iter().map(|s| s * 1e3)).collect();
        let (pool_tasks, pool_parks) = layers::measure_pool_counters();
        let (pool_tasks, pool_parks) = (pool_tasks - pool_tasks0, pool_parks - pool_parks0);
        let counted: Vec<f64> = counters
            .iter()
            .zip(counters0)
            .map(|(name, before)| (layers::obs_counter(name) - before) as f64)
            .collect();
        pass.layer = Metrics::from([
            ("netsim.boot_alloc_ms", pass.boot_alloc_ms),
            ("netsim.drift_step_ms", steady(&|s| s.drift_step_ms)),
            ("netsim.truth_matrix_ms", steady(&|s| s.truth_matrix_ms)),
            ("measure.sweep_ms", steady(&|s| s.sweep_ms)),
            ("measure.full_sweep_ms", median(&full_sweep_ms)),
            ("measure.round_trips_per_s", ratio(sweep_round_trips as f64, sweep_s)),
            ("measure.auto_vs_serial_ratio", ratio(median(&auto), median(&serial))),
            ("measure.pool_tasks", pool_tasks as f64),
            ("measure.pool_parks", pool_parks as f64),
            ("measure.pool_park_ratio", ratio(pool_parks as f64, pool_tasks as f64)),
            ("measure.stats_resident_mb", finals.stats_resident_mb),
            ("measure.timeout_ratio", finals.timeout_ratio),
            (
                "measure.saved_round_trips_ratio",
                ratio(
                    finals.saved_round_trips as f64,
                    (finals.saved_round_trips + finals.probe_round_trips) as f64,
                ),
            ),
            ("solver.build_partial_ms", steady(&|s| s.build_partial_ms)),
            ("solver.prune_eval_ms", med(&pruned, &|s| s.prune_eval_ms)),
            ("solver.prune_evals_per_sweep", med(&pruned, &|s| s.prune_evals as f64)),
            ("solver.stop_eval_ms", med(&stopped, &|s| s.stop_eval_ms)),
            ("solver.stop_evals_per_sweep", med(&stopped, &|s| s.stop_evals as f64)),
            ("solver.repair_solve_ms", median(&in_loop_repairs)),
            ("online.sweep_ms", sweep_ms),
            ("online.step_ms", median(step_core_ms.get(1..).unwrap_or(&[]))),
            ("online.split_coverage_ratio", coverage),
            ("online.stream_handoff_ms", steady(&ShadowOut::handoff_ms)),
            ("online.observe_epoch_ms", steady(&|s| s.observe_epoch_ms)),
            ("online.deltas_per_epoch", steady(&|s| s.deltas as f64)),
            ("online.touched_ratio", steady(&|s| s.deltas as f64) / m2),
            ("online.plan_build_ms", steady(&|s| s.plan_build_ms)),
            ("online.partial_stats_ms", steady(&|s| s.partial_stats_ms)),
            ("online.store_mb", finals.store_mb),
            ("online.bootstrap_ms", pass.op_ms.first().copied().unwrap_or(0.0)),
            ("online.refresh_epoch_ms", median(&refresh)),
            ("online.detector_fires", counted[0]),
            ("online.resolves", counted[1]),
            ("online.migrations", counted[2]),
            ("online.evacuations", counted[3]),
            (
                "online.dark_detect_lag_epochs",
                match (first_dark, spec.blackout_epoch) {
                    (Some(seen), Some(blackout)) => (seen - blackout) as f64,
                    _ => 0.0,
                },
            ),
        ]);
        // On the uniform workloads the split is the epoch.
        if spec.splittable && coverage < 0.95 {
            pass.fail_run(format!("sweep + step cover only {coverage:.3} of the epoch spans"));
        }
        // The registry and the event log count the same loop.
        let logged: u64 = epochs.iter().map(|e| e.fires).sum();
        if logged as f64 != counted[0] {
            pass.fail_run(format!(
                "registry counted {} detector fires, the event log {logged}",
                counted[0]
            ));
        }
    }
    pass
}

// ------------------------------------------------------------------ process --

/// User + system CPU seconds of this process so far (`/proc/self/stat`,
/// USER_HZ = 100).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after the last ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// Peak resident set of this process (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_check_catches_collisions_and_range() {
        assert!(check_deployment(&[0, 2, 1], 3).is_ok());
        assert!(check_deployment(&[0, 2, 2], 3).is_err());
        assert!(check_deployment(&[0, 3], 3).is_err());
    }

    #[test]
    fn epoch_checks_flag_budget_cap_and_dark_violations() {
        let spec = match crate::workloads::workloads(crate::workloads::Sizes::Smoke)
            .into_iter()
            .find(|w| w.name == "online_lossy")
            .unwrap()
            .kind
        {
            Kind::Online(spec) => spec,
            Kind::Batch(_) => unreachable!(),
        };
        let blackout = spec.blackout_epoch.unwrap();
        let good = EpochOut {
            epoch: blackout + 2,
            deployment: vec![1, 2, 3],
            true_cost: 1.0,
            est_cost: 1.0,
            ..EpochOut::default()
        };
        assert!(check_epoch(&good, &spec, Some(9), true).is_empty());
        // Still on the dark instance, and no LinkDark seen.
        let stuck = EpochOut { deployment: vec![9, 2, 3], ..good.clone() };
        assert_eq!(check_epoch(&stuck, &spec, Some(9), false).len(), 2);
        // One epoch after the blackout both are still allowed.
        let early = EpochOut { epoch: blackout + 1, ..stuck };
        assert!(check_epoch(&early, &spec, Some(9), false).is_empty());
        // Over budget is fine only when evacuating.
        let moved = EpochOut { moved: layers::MIGRATION_BUDGET + 1, ..good.clone() };
        assert_eq!(check_epoch(&moved, &spec, None, false).len(), 1);
        assert!(check_epoch(&EpochOut { evacuated: true, ..moved }, &spec, None, false).is_empty());
        let capped =
            EpochOut { resolve_seconds: vec![0.95 * layers::SOLVE_SECONDS], ..good.clone() };
        assert_eq!(check_epoch(&capped, &spec, None, false).len(), 1);
        let nan = EpochOut { true_cost: f64::NAN, ..good };
        assert_eq!(check_epoch(&nan, &spec, None, false).len(), 1);
    }

    #[test]
    fn replays_merge_to_per_operation_minima_and_must_agree() {
        let pass = |op_ms: &[f64], digests: &[u64]| Pass {
            setup_s: vec![0.5],
            peak_rss_mb: op_ms[0],
            op_ms: op_ms.to_vec(),
            digests: digests.to_vec(),
            attempted: op_ms.len() as u64,
            ..Pass::default()
        };
        let merged = merge_replays(vec![
            pass(&[9.0, 2.0, 3.0], &[1, 2, 3]),
            pass(&[8.0, 4.0, 1.0], &[1, 2, 3]),
            pass(&[8.5, 3.0, 5.0], &[1, 2, 3]),
        ]);
        assert_eq!(merged.op_ms, [8.0, 2.0, 1.0]);
        assert_eq!((merged.setup_s.len(), merged.attempted, merged.failed), (3, 9, 0));
        assert_eq!(merged.peak_rss_mb, 9.0, "the first replay's high-water mark");
        assert!((merged.end_to_end(true)["ops_per_s"] - 2.0 / 0.003).abs() < 1e-6);
        // A replay that walks another trajectory fails the run and lends no time.
        let split = merge_replays(vec![pass(&[9.0, 2.0], &[1, 2]), pass(&[1.0, 1.0], &[1, 7])]);
        assert_eq!((split.op_ms.as_slice(), split.failed), ([9.0, 2.0].as_slice(), 1));
        assert!(split.failures[0].contains("diverged from the first pass at op 1"));
    }

    #[test]
    fn process_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
