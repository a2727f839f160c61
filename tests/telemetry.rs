//! Integration: the telemetry plane end to end through the `cloudia`
//! facade — trace validity against schema v1, byte-level determinism of
//! identical seeded runs, and the CLI's `--trace`/`--json` surface.

use cloudia::measure::{MeasureConfig, Staged};
use cloudia::netsim::{Cloud, Provider};
use cloudia::obs::{parse_trace, Json, RunRecorder, TRACE_KINDS, TRACE_SCHEMA};
use cloudia::online::{DetectorConfig, OnlineAdvisor, OnlineAdvisorConfig, SimStream};

fn network(n: usize, seed: u64) -> cloudia::netsim::Network {
    let mut cloud = Cloud::boot(Provider::test_quiet(), seed);
    let alloc = cloud.allocate(n);
    cloud.network(&alloc)
}

/// One small advisor run streamed into an in-memory recorder; returns
/// the raw JSONL bytes as text.
fn traced_run(seed: u64, detector: DetectorConfig) -> String {
    let graph = cloudia::core::CommGraph::mesh_2d(2, 2);
    let net = network(6, seed);
    let config = OnlineAdvisorConfig { solve_seconds: 0.05, seed, detector, ..Default::default() };
    let mut advisor = OnlineAdvisor::new(graph, 6, (0..4).collect(), config);
    let (recorder, buf) = RunRecorder::to_vec(Json::obj().field("bin", "telemetry-test"));
    advisor.attach_recorder(recorder);
    let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 2.0, seed);
    advisor.run(&mut stream, 6);
    advisor.take_recorder().expect("recorder attached").finish().unwrap();
    let bytes = buf.lock().unwrap().clone();
    String::from_utf8(bytes).unwrap()
}

/// A detector that can never fire: no re-solves, so no wall-clock
/// fields (`solve_seconds`) ever enter the trace.
fn quiet_detector() -> DetectorConfig {
    DetectorConfig { threshold: 1e18, ..Default::default() }
}

#[test]
fn run_trace_validates_against_schema_v1() {
    let text = traced_run(11, DetectorConfig::default());
    let records = parse_trace(&text).expect("trace must parse");
    assert!(!records.is_empty());
    // Line 0 is the meta record carrying the schema tag.
    assert_eq!(records[0].kind, "meta");
    assert_eq!(
        records[0].payload.get("schema").and_then(Json::as_str),
        Some(TRACE_SCHEMA),
        "trace must announce schema v1"
    );
    assert_eq!(records[0].payload.get("bin").and_then(Json::as_str), Some("telemetry-test"));
    // Sequence numbers are dense from 0, kinds all from the taxonomy.
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "seq must be dense");
        assert!(TRACE_KINDS.contains(&r.kind.as_str()), "unknown record kind {:?}", r.kind);
        // Every payload survives an encode → parse round trip.
        let back = Json::parse(&r.payload.encode()).expect("payload re-parses");
        assert_eq!(back.encode(), r.payload.encode());
    }
    // The advisor streamed one epoch summary per epoch.
    assert_eq!(records.iter().filter(|r| r.kind == "epoch").count(), 6);
    assert!(records.iter().any(|r| r.kind == "event"));
}

#[test]
fn corrupt_trace_lines_are_rejected() {
    let text = traced_run(12, quiet_detector());
    // Truncating a line mid-record must fail, not silently parse.
    let cut = &text[..text.len() - 10];
    assert!(parse_trace(cut).is_err(), "truncated trace must be rejected");
    let mangled = text.replacen("\"t\":\"epoch\"", "\"x\":\"epoch\"", 1);
    assert!(parse_trace(&mangled).is_err(), "a record without a kind tag must be rejected");
}

#[test]
fn identical_seeded_runs_stream_identical_traces() {
    // With the detector silenced there are no re-solves, hence no
    // wall-clock fields in any record: two runs over the same seeds
    // must serialize byte for byte identically.
    let a = traced_run(7, quiet_detector());
    let b = traced_run(7, quiet_detector());
    assert_eq!(a, b, "identical seeded runs must produce identical traces");
    let records = parse_trace(&a).unwrap();
    assert_eq!(records.iter().filter(|r| r.kind == "epoch").count(), 6, "run must be non-trivial");
    // A different seed must actually change the stream (the equality
    // above is not vacuous).
    let c = traced_run(8, quiet_detector());
    assert_ne!(a, c, "different seeds must produce different traces");
}

/// End-to-end through the installed binary: `--json --trace` emits a
/// machine-readable summary on stdout and a valid schema-v1 trace.
/// Release-gated: the full pipeline is slow under the debug profile.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn cli_json_and_trace_round_trip() {
    let dir = std::env::temp_dir().join(format!("cloudia-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("run_trace.jsonl");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cloudia"))
        .args([
            "--graph",
            "mesh:3x3",
            "--provider",
            "ec2",
            "--search-seconds",
            "0.2",
            "--seed",
            "5",
            "--online",
            "--epochs",
            "4",
            "--json",
            "--metrics",
            "--trace",
        ])
        .arg(&trace_path)
        .output()
        .expect("cloudia binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Stdout is exactly one JSON summary line.
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "--json must print exactly one line, got: {stdout}");
    let summary = Json::parse(lines[0]).expect("summary parses");
    assert_eq!(summary.get("schema").and_then(Json::as_str), Some("cloudia.summary.v1"));
    assert!(summary.get("optimized_cost").and_then(Json::as_f64).is_some());
    assert!(summary.get("online").is_some(), "--online must attach the online section");
    assert!(summary.get("metrics").is_some(), "--metrics must attach the snapshot");

    // The trace file is valid schema v1 and carries the run.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let records = parse_trace(&text).expect("trace parses");
    assert_eq!(records[0].kind, "meta");
    assert_eq!(records[0].payload.get("schema").and_then(Json::as_str), Some(TRACE_SCHEMA));
    assert!(records.iter().filter(|r| r.kind == "epoch").count() >= 4);
    assert!(records.iter().any(|r| r.kind == "metrics"));
    assert!(records.iter().any(|r| r.kind == "bench"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Out-of-range flag values are the user's mistake, not a bug: each must
/// exit 2 with a one-line message and the usage text, never a panic. All
/// of these are rejected before any measurement starts.
#[test]
fn cli_rejects_out_of_range_input_without_panicking() {
    let cases: [&[&str]; 17] = [
        &["--graph", "mesh:1x1"],
        &["--graph", "mesh3d:1x1x1"],
        &["--graph", "ring:2"],
        &["--graph", "star:1"],
        &["--graph", "mesh:0x3"],
        &["--graph", "tree:0x3"],
        &["--graph", "bipartite:0x0"],
        &["--over-allocation", "-0.5"],
        &["--over-allocation", "1e9"],
        &["--online", "--epoch-hours", "0"],
        &["--online", "--epoch-hours", "-3"],
        // A NaN deadline would switch off every solver clock check.
        &["--search-seconds", "nan"],
        &["--search-seconds", "-1"],
        // Removed flag: stages are simulated serially, so it is unknown.
        &["--stage-workers", "2"],
        // An anytime sweep needs CI pruning to ever stop early.
        &["--online", "--anytime", "--confidence", "0.9"],
        &["--online", "--anytime", "--prune-during-sweep"],
        // R2 would start one OS thread per worker: rejected while parsing.
        &["--search", "random-r2", "--threads", "1000000"],
    ];
    for args in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cloudia"))
            .args(args)
            .output()
            .expect("cloudia binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        let mut lines = stderr.lines();
        assert!(lines.next().is_some_and(|msg| !msg.starts_with("usage:")), "{args:?}: {stderr}");
        assert!(lines.next().is_some_and(|l| l.starts_with("usage:")), "{args:?}: {stderr}");
    }
}
