//! # cloudia-bench — figure-regeneration harness
//!
//! Every figure of the paper's evaluation, plus four extension and
//! ablation studies, is an entry of one table ([`figures::FIGURES`]),
//! run by id through one binary:
//!
//! ```sh
//! cargo run --release -p cloudia-bench --bin fig -- fig12 [fig04 …]
//! ```
//!
//! Each prints the series the paper plots as tab-separated columns and
//! writes them to `BENCH_<id>.json`. The gated `ext_*` binaries (CI
//! smokes with asserted acceptance criteria) and the Criterion
//! micro-benchmarks (`benches/`) stand apart. This library holds the
//! shared plumbing: standard experiment setups, the [`Fig`] reporter,
//! the scale switch, the two §5 measurement baselines the staged
//! scheme is compared against ([`baselines`]), and the Appendix-2
//! IP-distance and hop-count proxies behind Figs. 16–17 ([`approx`]).
//!
//! ## Scale
//!
//! Default scales are chosen so the full harness finishes in minutes on a
//! laptop; set `CLOUDIA_SCALE=paper` to run at the paper's sizes (100–150
//! instances, multi-minute solver budgets).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod approx;
pub mod baselines;
pub mod figures;

use cloudia_core::{CostMatrix, LatencyMetric};
use cloudia_measure::{MeasureConfig, Scheme, Staged};
use cloudia_netsim::{Cloud, Network, Provider};
use cloudia_obs::{Json, RunRecorder};

/// The command-line surface shared by every `ext_*` harness binary,
/// parsed once instead of copy-pasted per bin:
///
/// * `--smoke` — CI mode: quick scale, acceptance criteria asserted;
/// * `--trace PATH` — write a schema-versioned JSONL run trace
///   ([`ExtArgs::recorder`]);
/// * `--no-metrics` — disable telemetry collection at runtime (the
///   overhead baseline arm).
///
/// Unknown flags are left alone — bins with extra switches keep reading
/// `std::env::args()` themselves.
#[derive(Debug, Clone)]
pub struct ExtArgs {
    /// CI smoke mode (`--smoke`): quick scale plus asserted criteria.
    pub smoke: bool,
    /// Experiment scale: [`Scale::Quick`] under `--smoke`, else from
    /// `CLOUDIA_SCALE`.
    pub scale: Scale,
    /// Trace file path (`--trace PATH`).
    pub trace: Option<String>,
    /// False when `--no-metrics` disabled telemetry for this run.
    pub metrics_enabled: bool,
}

impl ExtArgs {
    /// Parses the shared flags from `std::env::args()`. `--no-metrics`
    /// takes effect immediately ([`cloudia_obs::set_enabled`]).
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let smoke = args.iter().any(|a| a == "--smoke");
        let no_metrics = args.iter().any(|a| a == "--no-metrics");
        if no_metrics {
            cloudia_obs::set_enabled(false);
        }
        let trace = args.iter().position(|a| a == "--trace").and_then(|i| args.get(i + 1)).cloned();
        Self {
            smoke,
            scale: if smoke { Scale::Quick } else { Scale::from_env() },
            trace,
            metrics_enabled: !no_metrics,
        }
    }

    /// Opens the JSONL trace recorder when `--trace` was given; the meta
    /// line carries the bin name and the smoke/scale switches. Exits
    /// non-zero if the file cannot be created.
    pub fn recorder(&self, bin: &str) -> Option<RunRecorder> {
        self.trace.as_ref().map(|path| {
            let meta = Json::obj()
                .field("bin", bin)
                .field("smoke", self.smoke)
                .field("scale", format!("{:?}", self.scale));
            RunRecorder::to_file(std::path::Path::new(path), meta).unwrap_or_else(|e| {
                eprintln!("cannot open trace file `{path}`: {e}");
                std::process::exit(1);
            })
        })
    }
}

/// The `BENCH_<name>.json` document shape: schema tag and bench name
/// first, then the payload's own fields merged in (a non-object payload
/// lands under a `payload` key).
pub fn bench_json(name: &str, payload: Json) -> Json {
    let mut out = Json::obj().field("schema", "cloudia.bench.v1").field("name", name);
    if let Json::Obj(fields) = payload {
        for (k, v) in fields {
            out = out.field(&k, v);
        }
    } else {
        out = out.field("payload", payload);
    }
    out
}

/// Writes a machine-readable bench result as `BENCH_<name>.json` in the
/// current directory (shape per [`bench_json`]). Returns the path
/// written.
pub fn write_bench_json(name: &str, payload: Json) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::PathBuf::from(format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{}\n", bench_json(name, payload).encode()))?;
    Ok(path)
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes for quick runs (default).
    Quick,
    /// The paper's sizes (`CLOUDIA_SCALE=paper`).
    Paper,
}

impl Scale {
    /// Reads the scale from the `CLOUDIA_SCALE` environment variable.
    pub fn from_env() -> Self {
        match std::env::var("CLOUDIA_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Quick,
        }
    }

    /// Picks a value by scale.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

/// Prints a figure header.
pub fn header(fig: &str, caption: &str, scale: Scale) {
    println!("# {fig} — {caption}");
    println!("# scale: {scale:?} (set CLOUDIA_SCALE=paper for paper sizes)");
}

/// Buffering figure reporter: prints the header, tables and CDFs while
/// accumulating them, then writes them as `BENCH_<name>.json` on
/// [`Fig::finish`] — so every figure leaves a machine-readable artifact
/// next to its stdout table (the telemetry plane's sink for cross-run
/// comparisons).
pub struct Fig {
    name: String,
    caption: String,
    scale: Scale,
    columns: Vec<String>,
    rows: Vec<Json>,
    cdfs: Vec<Json>,
    notes: Vec<(String, Json)>,
}

impl Fig {
    /// Prints the figure header (with the human-facing `title`, e.g.
    /// "Figure 4") and opens the recorder; `name` is the artifact slug
    /// (`BENCH_<name>.json`).
    pub fn new(name: &str, title: &str, caption: &str, scale: Scale) -> Self {
        header(title, caption, scale);
        Self {
            name: name.to_string(),
            caption: caption.to_string(),
            scale,
            columns: Vec::new(),
            rows: Vec::new(),
            cdfs: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Prints (and records) the table's column names.
    pub fn columns(&mut self, cols: &[&str]) {
        println!("{}", cols.join("\t"));
        self.columns = cols.iter().map(|c| c.to_string()).collect();
    }

    /// Prints (and records) one tab-separated table row.
    pub fn row(&mut self, cells: &[String]) {
        row(cells);
        self.rows.push(Json::Arr(cells.iter().map(|c| Json::from(c.as_str())).collect()));
    }

    /// Prints (and records) an empirical CDF, downsampled to at most
    /// `points` rows — the recorded points are exactly the printed ones.
    pub fn cdf(&mut self, label: &str, values: &[f64], points: usize) {
        let cdf = cloudia_measure::error::empirical_cdf(values);
        let step = (cdf.len() / points.max(1)).max(1);
        println!("{label}\tvalue\tcdf");
        let mut sampled = Vec::new();
        for (i, &(v, p)) in cdf.iter().enumerate() {
            if i % step == 0 || i == cdf.len() - 1 {
                row(&[label.to_string(), format!("{v:.4}"), format!("{p:.4}")]);
                sampled.push(Json::Arr(vec![Json::from(v), Json::from(p)]));
            }
        }
        self.cdfs.push(Json::obj().field("label", label).field("points", Json::Arr(sampled)));
    }

    /// Attaches an arbitrary extra field to the JSON artifact (headline
    /// numbers, assertions, fitted slopes — whatever the figure's
    /// punchline is).
    pub fn note(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        self.notes.push((key.to_string(), value.into()));
        self
    }

    /// Writes `BENCH_<name>.json` and reports the path; exits non-zero
    /// if the artifact cannot be written (CI treats a missing artifact
    /// as a failed run, same as the ext bins).
    pub fn finish(self) {
        let mut payload = Json::obj()
            .field("caption", self.caption.as_str())
            .field("scale", format!("{:?}", self.scale).as_str())
            .field(
                "columns",
                Json::Arr(self.columns.iter().map(|c| Json::from(c.as_str())).collect()),
            )
            .field("rows", Json::Arr(self.rows))
            .field("cdfs", Json::Arr(self.cdfs));
        for (key, value) in self.notes {
            payload = payload.field(&key, value);
        }
        match write_bench_json(&self.name, payload) {
            Ok(path) => println!("# wrote {}", path.display()),
            Err(e) => {
                eprintln!("FAIL: cannot write BENCH_{}.json: {e}", self.name);
                std::process::exit(1);
            }
        }
    }
}

/// Prints a tab-separated row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// Boots a provider, allocates `n` instances, returns the network.
pub fn standard_network(provider: Provider, n: usize, seed: u64) -> Network {
    let mut cloud = Cloud::boot(provider, seed);
    let alloc = cloud.allocate(n);
    cloud.network(&alloc)
}

/// All ordered-pair ground-truth mean RTTs of a network.
pub fn true_mean_vector(net: &Network) -> Vec<f64> {
    let n = net.len();
    let mut out = Vec::with_capacity(n * (n - 1));
    for i in 0..n {
        for j in 0..n {
            if i != j {
                out.push(net.mean_rtt(
                    cloudia_netsim::InstanceId::from_index(i),
                    cloudia_netsim::InstanceId::from_index(j),
                ));
            }
        }
    }
    out
}

/// Runs the staged measurement the advisor would run and returns the cost
/// matrix under a metric.
pub fn measured_costs(
    net: &Network,
    metric: LatencyMetric,
    ks: usize,
    sweeps: usize,
    seed: u64,
) -> CostMatrix {
    let report =
        Staged::new(ks, sweeps).run(net, &MeasureConfig { seed, ..MeasureConfig::default() });
    match metric.try_cost_matrix(&report.stats) {
        Ok(costs) => costs,
        Err(e) => {
            eprintln!("measurement produced unusable cost data: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Paper.pick(1, 2), 2);
    }

    #[test]
    fn bench_json_merges_payload_fields_under_the_schema_tag() {
        let doc = bench_json("ext_demo", Json::obj().field("savings", 0.4).field("ok", true));
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("cloudia.bench.v1"));
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("ext_demo"));
        assert_eq!(doc.get("savings").and_then(Json::as_f64), Some(0.4));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        // Non-object payloads nest under "payload" instead of merging.
        let doc = bench_json("ext_demo", Json::from(7u64));
        assert_eq!(doc.get("payload").and_then(Json::as_u64), Some(7));
        // The document round-trips through the parser.
        assert!(Json::parse(&doc.encode()).is_ok());
    }

    #[test]
    fn standard_network_sizes() {
        let net = standard_network(Provider::test_quiet(), 8, 1);
        assert_eq!(net.len(), 8);
        assert_eq!(true_mean_vector(&net).len(), 8 * 7);
    }

    #[test]
    fn measured_costs_square() {
        let net = standard_network(Provider::test_quiet(), 5, 2);
        let c = measured_costs(&net, LatencyMetric::Mean, 2, 2, 0);
        assert_eq!(c.len(), 5);
    }
}
