//! The metric catalogue, the result-line and report formats, `BENCHMARK.json`
//! validation, and `--compare`.

use std::collections::BTreeMap;

use crate::layers::Json;
use crate::stats::{median, spread};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the system sees, from every workload. An operation is one
/// advise (`batch_paper`) or one epoch (online workloads).
///
/// The driver accepts a benchmark only if every end-to-end metric's spread
/// over ten seeds stays inside its bound, and bounds are capped at 25 %. On
/// the builder's 2 shared cores that rules out gating the per-operation
/// median (its spread passed 25 % in 3 of 15 samples) and the plan cost
/// (a pure function of the seed, but drift luck moves it by up to 26 % across
/// ten seeds on `online_focused`); both are reported as `loop.*` below.
/// `ops_per_s` sums every steady operation at the fastest of its replays;
/// README.md has the spreads observed.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("round_trips_per_op", "count", Lower, 0.1),
];

/// Single layers, from the traced pass. A metric that does not apply to a
/// workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("loop.op_p50_ms", "ms", Lower),
    layer("loop.op_hi_ms", "ms", Lower),
    layer("loop.op_hi_percentile", "%", Higher),
    layer("loop.cpu_ms_per_op", "ms", Lower),
    layer("loop.plan_cost_ms", "ms", Lower),
    layer("netsim.boot_alloc_ms", "ms", Lower),
    layer("netsim.drift_step_ms", "ms", Lower),
    layer("netsim.truth_matrix_ms", "ms", Lower),
    layer("measure.sweep_ms", "ms", Lower),
    layer("measure.full_sweep_ms", "ms", Lower),
    layer("measure.round_trips_per_s", "1/s", Higher),
    layer("measure.auto_vs_serial_ratio", "ratio", Lower),
    layer("measure.pool_tasks", "count", Lower),
    layer("measure.pool_parks", "count", Lower),
    layer("measure.pool_park_ratio", "ratio", Lower),
    layer("measure.stats_resident_mb", "MB", Lower),
    layer("measure.timeout_ratio", "ratio", Lower),
    layer("measure.saved_round_trips_ratio", "ratio", Higher),
    layer("solver.cp_search_ms", "ms", Lower),
    layer("solver.cp_nodes_per_s", "1/s", Higher),
    layer("solver.build_partial_ms", "ms", Lower),
    layer("solver.prune_eval_ms", "ms", Lower),
    layer("solver.prune_evals_per_sweep", "count", Lower),
    layer("solver.stop_eval_ms", "ms", Lower),
    layer("solver.stop_evals_per_sweep", "count", Lower),
    layer("solver.repair_solve_ms", "ms", Lower),
    layer("core.measure_ms", "ms", Lower),
    layer("core.extract_ms", "ms", Lower),
    layer("core.search_ms", "ms", Lower),
    layer("core.parts_vs_advise_ratio", "ratio", Higher),
    layer("online.sweep_ms", "ms", Lower),
    layer("online.step_ms", "ms", Lower),
    layer("online.split_coverage_ratio", "ratio", Higher),
    layer("online.stream_handoff_ms", "ms", Lower),
    layer("online.observe_epoch_ms", "ms", Lower),
    layer("online.deltas_per_epoch", "count", Lower),
    layer("online.touched_ratio", "ratio", Lower),
    layer("online.plan_build_ms", "ms", Lower),
    layer("online.partial_stats_ms", "ms", Lower),
    layer("online.store_mb", "MB", Lower),
    layer("online.bootstrap_ms", "ms", Lower),
    layer("online.refresh_epoch_ms", "ms", Lower),
    layer("online.detector_fires", "count", Lower),
    layer("online.resolves", "count", Lower),
    layer("online.migrations", "count", Lower),
    layer("online.evacuations", "count", Lower),
    layer("online.dark_detect_lag_epochs", "count", Lower),
    layer("obs.trace_overhead_ratio", "ratio", Lower),
    layer("obs.spans", "count", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One run's outcome — what the contract's last stdout line carries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Fills `metrics` with every metric of `defs`, reading absent ones as 0.
    pub fn with_metrics(
        mut self,
        defs: &[MetricDef],
        values: &BTreeMap<&'static str, f64>,
    ) -> Self {
        self.metrics =
            defs.iter().map(|d| (d.name, values.get(d.name).copied().unwrap_or(0.0))).collect();
        self
    }

    /// The contract line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for &(name, value) in &self.metrics {
            let unit = find(name).map_or("", |d| d.unit);
            metrics = metrics.field(name, Json::obj().field("value", value).field("unit", unit));
        }
        Json::obj()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
    }
}

/// Parses a result line back (the parent side of the parent/child
/// protocol, and `--compare`'s report reader). Unknown metric names are
/// rejected: the catalogue is the contract.
pub fn parse_result(json: &Json) -> Result<RunResult, String> {
    let Json::Obj(pairs) = json else {
        return Err("result is not an object".into());
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let field = |k: &str| json.get(k).ok_or_else(|| format!("missing {k}"));
    let Json::Obj(metric_pairs) = field("metrics")? else {
        return Err("metrics is not an object".into());
    };
    let mut metrics = Vec::new();
    for (name, entry) in metric_pairs {
        let def = find(name).ok_or_else(|| format!("unknown metric {name}"))?;
        let value = entry
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        if entry.get("unit").and_then(Json::as_str) != Some(def.unit) {
            return Err(format!("metric {name} has the wrong unit"));
        }
        metrics.push((def.name, value));
    }
    Ok(RunResult {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?.as_u64().ok_or("attempted is not a count")?,
        failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
        metrics,
    })
}

/// The result is the last non-empty line of a child's standard output.
pub fn parse_child_stdout(stdout: &str) -> Result<RunResult, String> {
    let line =
        stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("child printed nothing")?;
    parse_result(&Json::parse(line).map_err(|e| format!("bad result line: {e:?}"))?)
}

/// `BENCHMARK.json` as this catalogue defines it.
pub fn benchmark_json(
    command: &[&str],
    paths: &[&str],
    run_seconds: u64,
    all: &[Workload],
) -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::Str((*s).to_string())).collect());
    let metric = |d: &MetricDef| {
        let base = Json::obj()
            .field("name", d.name)
            .field("unit", d.unit)
            .field("better", d.better.as_str());
        match d.bound {
            Some(bound) => base.field("bound", bound),
            None => base,
        }
    };
    Json::obj()
        .field("command", strs(command))
        .field("paths", strs(paths))
        .field("run_seconds", run_seconds)
        .field(
            "workloads",
            Json::Arr(
                all.iter().map(|w| Json::obj().field("name", w.name).field("why", w.why)).collect(),
            ),
        )
        .field("end_to_end", Json::Arr(END_TO_END.iter().map(metric).collect()))
        .field("per_layer", Json::Arr(PER_LAYER.iter().map(metric).collect()))
}

/// Checks that a `BENCHMARK.json` names exactly the workloads and metrics
/// this binary emits, with the same units, directions and bounds.
pub fn validate_benchmark_json(file: &Json, all: &[Workload]) -> Result<(), String> {
    let names = |key: &str| -> Result<Vec<String>, String> {
        file.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a {key} entry has no name"))
            })
            .collect()
    };
    let ours: Vec<String> = all.iter().map(|w| w.name.to_string()).collect();
    if names("workloads")? != ours {
        return Err(format!("workloads differ: file {:?}, binary {ours:?}", names("workloads")?));
    }
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let ours: Vec<String> = defs.iter().map(|d| d.name.to_string()).collect();
        if names(key)? != ours {
            return Err(format!("{key} metrics differ: file {:?}, binary {ours:?}", names(key)?));
        }
        for (entry, def) in file.get(key).and_then(Json::as_arr).unwrap_or(&[]).iter().zip(defs) {
            let same = entry.get("unit").and_then(Json::as_str) == Some(def.unit)
                && entry.get("better").and_then(Json::as_str) == Some(def.better.as_str())
                && entry.get("bound").and_then(Json::as_f64) == def.bound;
            if !same {
                return Err(format!(
                    "{key} metric {} differs in unit, direction or bound",
                    def.name
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- reports --

/// One child run inside a report file.
#[derive(Debug, Clone)]
pub struct ReportRun {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub result: RunResult,
}

pub fn report_json(seconds: f64, runs: &[ReportRun]) -> Json {
    Json::obj().field("schema", "loopbench.report.v1").field("seconds", seconds).field(
        "runs",
        Json::Arr(
            runs.iter()
                .map(|r| {
                    Json::obj()
                        .field("workload", r.workload.as_str())
                        .field("seed", r.seed)
                        .field("traced", r.traced)
                        .field("result", r.result.to_json())
                })
                .collect(),
        ),
    )
}

pub fn parse_report(text: &str) -> Result<Vec<ReportRun>, String> {
    let json = Json::parse(text).map_err(|e| format!("bad report: {e:?}"))?;
    if json.get("schema").and_then(Json::as_str) != Some("loopbench.report.v1") {
        return Err("not a loopbench.report.v1 file".into());
    }
    json.get("runs")
        .and_then(Json::as_arr)
        .ok_or("report has no runs")?
        .iter()
        .map(|r| {
            Ok(ReportRun {
                workload: r
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("run without workload")?
                    .to_string(),
                seed: r.get("seed").and_then(Json::as_u64).ok_or("run without seed")?,
                traced: r.get("traced").and_then(Json::as_bool).ok_or("run without traced")?,
                result: parse_result(r.get("result").ok_or("run without result")?)?,
            })
        })
        .collect()
}

/// `(workload, metric) → values`, one per run.
pub fn samples<'a>(
    runs: impl IntoIterator<Item = &'a ReportRun>,
) -> BTreeMap<(String, &'static str), Vec<f64>> {
    let mut out: BTreeMap<(String, &'static str), Vec<f64>> = BTreeMap::new();
    for run in runs {
        for &(name, value) in &run.result.metrics {
            out.entry((run.workload.clone(), name)).or_default().push(value);
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    /// The run-to-run spread is wider than the bound and the two sides
    /// overlap: neither "unchanged" nor "worse" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Comparison {
    pub workload: String,
    pub metric: &'static MetricDef,
    pub median_a: f64,
    pub median_b: f64,
    /// `b` against `a`, positive = worse, as a share of `a`'s median.
    pub worse_by: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub verdict: Verdict,
}

/// The verdict for one end-to-end (metric, workload) pair.
pub fn compare_one(def: &'static MetricDef, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let sign = if def.better == Lower { 1.0 } else { -1.0 };
    let worse_by = if ma == 0.0 { 0.0 } else { sign * (mb - ma) / ma.abs() };
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let spread_wide = spread(a).max(spread(b)) > bound;
    let every_b_vs_every_a = |b_wins: bool| {
        a.iter().all(|&x| {
            b.iter().all(|&y| if b_wins { sign * (y - x) <= 0.0 } else { sign * (y - x) > 0.0 })
        })
    };
    let verdict = if !spread_wide {
        if worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Within
        }
    } else if every_b_vs_every_a(true) {
        Verdict::Within
    } else if worse_by > bound && every_b_vs_every_a(false) {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    };
    (worse_by, verdict)
}

/// Every end-to-end (metric, workload) pair present in both reports.
pub fn compare(a: &[ReportRun], b: &[ReportRun]) -> Vec<Comparison> {
    let untraced = |runs: &'_ [ReportRun]| samples(runs.iter().filter(|r| !r.traced));
    let (sa, sb) = (untraced(a), untraced(b));
    let mut out = Vec::new();
    for ((workload, name), va) in &sa {
        let (Some(vb), Some(def)) = (sb.get(&(workload.clone(), *name)), find(name)) else {
            continue;
        };
        if def.bound.is_none() {
            continue;
        }
        let (worse_by, verdict) = compare_one(def, va, vb);
        out.push(Comparison {
            workload: workload.clone(),
            metric: def,
            median_a: median(va),
            median_b: median(vb),
            worse_by,
            spread_a: spread(va),
            spread_b: spread(vb),
            verdict,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{workloads, Sizes};

    fn def(name: &str) -> &'static MetricDef {
        find(name).unwrap()
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = def("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
    }

    #[test]
    fn result_line_round_trips_through_the_parent_parser() {
        let values: BTreeMap<&'static str, f64> =
            [("setup_s", 0.8127), ("ops_per_s", 1.2034)].into_iter().collect();
        let result = RunResult { correct: true, attempted: 1000, failed: 0, metrics: vec![] }
            .with_metrics(END_TO_END, &values);
        assert_eq!(result.metrics.len(), END_TO_END.len());
        let line = result.to_json().encode();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{"));
        let stdout = format!("# progress noise\n{line}\n\n");
        assert_eq!(parse_child_stdout(&stdout).unwrap(), result);
    }

    #[test]
    fn parent_rejects_malformed_child_output() {
        assert!(parse_child_stdout("").is_err());
        assert!(parse_child_stdout("not json").is_err());
        let extra = r#"{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}"#;
        assert!(parse_child_stdout(extra).is_err());
        let unknown = r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"nope":{"value":1,"unit":"s"}}}"#;
        assert!(parse_child_stdout(unknown).is_err());
        let unit = r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":1,"unit":"ms"}}}"#;
        assert!(parse_child_stdout(unit).is_err());
    }

    #[test]
    fn generated_benchmark_json_validates_and_drift_is_caught() {
        let all = workloads(Sizes::Full);
        let file = benchmark_json(&["cargo"], &["loopbench"], 10, &all);
        let reparsed = Json::parse(&file.encode()).unwrap();
        validate_benchmark_json(&reparsed, &all).unwrap();
        let renamed = Json::parse(&file.encode().replace("ops_per_s", "ops_per_m")).unwrap();
        assert!(validate_benchmark_json(&renamed, &all).is_err());
        let fewer = &all[..all.len() - 1];
        assert!(validate_benchmark_json(&reparsed, fewer).is_err());
    }

    #[test]
    fn compare_separates_within_worse_and_unresolved() {
        let lower = def("setup_s");
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        // +10 % on a 25 % bound.
        let a_bit: Vec<f64> = tight.iter().map(|x| x * 1.1).collect();
        assert_eq!(compare_one(lower, &tight, &a_bit).1, Verdict::Within);
        // +40 %.
        let much: Vec<f64> = tight.iter().map(|x| x * 1.4).collect();
        let (worse_by, verdict) = compare_one(lower, &tight, &much);
        assert!((worse_by - 0.4).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Worse);
        // Spread wider than the bound with overlap: unresolved either way.
        let noisy_a = [60.0, 80.0, 100.0, 120.0, 140.0];
        let noisy_b = [70.0, 95.0, 120.0, 150.0, 190.0];
        assert_eq!(compare_one(lower, &noisy_a, &noisy_b).1, Verdict::Unresolved);
        // ... unless every run of b beats every run of a.
        let clear_b = [20.0, 30.0, 40.0, 50.0, 59.0];
        assert_eq!(compare_one(lower, &noisy_a, &clear_b).1, Verdict::Within);
        // Higher-is-better flips the sign.
        let higher = def("ops_per_s");
        assert_eq!(compare_one(higher, &tight, &much).1, Verdict::Within);
        let less: Vec<f64> = tight.iter().map(|x| x * 0.6).collect();
        assert_eq!(compare_one(higher, &tight, &less).1, Verdict::Worse);
    }

    #[test]
    fn reports_round_trip_and_compare_skips_traced_and_unbounded() {
        let values: BTreeMap<&'static str, f64> = [("ops_per_s", 10.0)].into_iter().collect();
        let run = |seed: u64, traced: bool| ReportRun {
            workload: "w".into(),
            seed,
            traced,
            result: RunResult { correct: true, attempted: 5, failed: 0, metrics: vec![] }
                .with_metrics(if traced { PER_LAYER } else { END_TO_END }, &values),
        };
        let runs = vec![run(1, false), run(2, false), run(1, true)];
        let parsed = parse_report(&report_json(10.0, &runs).encode()).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[2].result.metrics.len(), PER_LAYER.len());
        let rows = compare(&parsed, &parsed);
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Within && r.worse_by == 0.0));
    }
}
