//! loopbench — the end-to-end and per-layer benchmark for batch advise and
//! the online epoch loop. See README.md in this directory.
//!
//! ```text
//! loopbench --workload NAME --seed N --seconds S --trace 0|1   one workload, one result line
//! loopbench [--seed N] [--seconds S] [--trace 0|1] [--repeat K] [--out FILE]
//!                                                              every workload, one child each
//! loopbench --smoke                                            every workload and mode, tiny sizes
//! loopbench --compare A.json B.json                            verdict per (metric, workload)
//! loopbench --print-benchmark-json                             BENCHMARK.json from the catalogue
//! ```

mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use layers::Json;
use report::{ReportRun, Verdict, END_TO_END, PER_LAYER};
use stats::{agreeing_prefix, median};
use workloads::{gated_workloads, workloads, Sizes, Workload, NOMINAL_SECONDS};

/// The driver's command and the directory the benchmark lives in, as
/// `BENCHMARK.json` states them.
const COMMAND: &[&str] =
    &["cargo", "run", "--release", "--quiet", "--manifest-path", "loopbench/Cargo.toml", "--"];
const PATHS: &[&str] = &["loopbench"];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: u64,
    out: Option<String>,
    compare: Option<(String, String)>,
    print_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: NOMINAL_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
        compare: None,
        print_benchmark_json: false,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = value(&mut it, flag)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds =
                    value(&mut it, flag)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--repeat" => {
                args.repeat =
                    value(&mut it, flag)?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&args.repeat) {
                    return Err("--repeat must be in 1..=100".into());
                }
            }
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--smoke" => args.smoke = true,
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?));
            }
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.smoke { Sizes::Smoke } else { Sizes::Full };
    let all = workloads(sizes);
    let ok = if let Some((a, b)) = &args.compare {
        compare_files(a, b)
    } else if args.print_benchmark_json {
        println!(
            "{}",
            report::benchmark_json(COMMAND, PATHS, NOMINAL_SECONDS as u64, &gated_workloads())
                .encode()
        );
        Ok(())
    } else if let Some(name) = &args.workload {
        match all.iter().find(|w| w.name == name) {
            Some(workload) => {
                // The tiny passes of --smoke would replay hundreds of times.
                let seconds = if args.smoke { 0.0 } else { args.seconds };
                let (result, notes) = run::run(workload, args.seed, seconds, args.trace);
                for note in notes {
                    println!("{note}");
                }
                println!("{}", result.to_json().encode());
                Ok(())
            }
            None => Err(format!("unknown workload {name}")),
        }
    } else {
        run_all(&args, &all)
    };
    match ok {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loopbench: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

// ------------------------------------------------------- parent of children --

/// What the parent keeps of one child: its result, its digest chain, and
/// the `#` note lines it printed.
struct Child {
    run: ReportRun,
    digests: Vec<u64>,
    notes: Vec<String>,
}

/// Runs one workload in a fresh process, so that `peak_rss_mb` is that
/// workload's alone, and reads its result off the last stdout line.
fn spawn_child(workload: &str, seed: u64, args: &Args, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "child for {workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let result = report::parse_child_stdout(&stdout)?;
    let notes: Vec<String> =
        stdout.lines().filter(|l| l.starts_with('#')).map(str::to_string).collect();
    let digests =
        notes.iter().find_map(|l| l.strip_prefix("# digests ")).map_or(Vec::new(), |hex| {
            hex.split(',').filter_map(|h| u64::from_str_radix(h.trim(), 16).ok()).collect()
        });
    Ok(Child {
        run: ReportRun { workload: workload.to_string(), seed, traced, result },
        digests,
        notes,
    })
}

fn run_all(args: &Args, all: &[Workload]) -> Result<(), String> {
    let mut problems: Vec<String> = Vec::new();
    if args.smoke {
        let file = std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
            format!("--smoke validates BENCHMARK.json in the working directory: {e}")
        })?;
        let file = Json::parse(&file).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        report::validate_benchmark_json(&file, &gated_workloads())?;
        println!("# BENCHMARK.json names exactly the workloads and metrics this binary emits");
    }
    // --smoke exercises the traced mode too.
    let passes: &[bool] = if args.trace || args.smoke { &[false, true] } else { &[false] };
    let mut children = Vec::new();
    for workload in all {
        for &traced in passes {
            let repeats = if traced { 1 } else { args.repeat };
            for i in 0..repeats {
                let seed = args.seed.wrapping_add(i);
                let t0 = std::time::Instant::now();
                let child = spawn_child(workload.name, seed, args, traced)?;
                eprintln!(
                    "# {} seed {seed} trace {}: {:.1} s",
                    workload.name,
                    u8::from(traced),
                    t0.elapsed().as_secs_f64()
                );
                let expected = if traced { PER_LAYER } else { END_TO_END };
                let names: Vec<&str> = child.run.result.metrics.iter().map(|m| m.0).collect();
                if names != expected.iter().map(|d| d.name).collect::<Vec<_>>() {
                    problems
                        .push(format!("{}: metric names differ from the catalogue", workload.name));
                }
                if !child.run.result.correct || child.run.result.failed > 0 {
                    problems.push(format!(
                        "{} seed {seed}: {} of {} operations failed",
                        workload.name, child.run.result.failed, child.run.result.attempted
                    ));
                    problems.extend(child.notes.iter().filter(|n| n.contains("FAIL")).cloned());
                }
                children.push(child);
            }
        }
    }
    problems.extend(check_uniform_arms(&children));

    print_table(all, &children);
    for child in &children {
        for note in
            child.notes.iter().filter(|n| !n.starts_with("# span") && !n.starts_with("# digests"))
        {
            println!("{note}");
        }
    }
    if let Some(path) = &args.out {
        let runs: Vec<ReportRun> = children.iter().map(|c| c.run.clone()).collect();
        std::fs::write(path, report::report_json(args.seconds, &runs).encode() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("# wrote {path}");
    }
    if problems.is_empty() {
        println!("# all workloads correct, failed_ops_ratio = 0");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// `online_uniform_auto` runs the first epochs of `online_uniform` under
/// another `stage_workers` setting: on the same seed its digest chain must
/// be a prefix of the serial arm's.
fn check_uniform_arms(children: &[Child]) -> Vec<String> {
    let chain = |name: &str, seed: u64| {
        children
            .iter()
            .find(|c| c.run.workload == name && c.run.seed == seed && !c.run.traced)
            .map(|c| c.digests.as_slice())
    };
    let mut problems = Vec::new();
    for auto in children.iter().filter(|c| c.run.workload == "online_uniform_auto" && !c.run.traced)
    {
        let Some(serial) = chain("online_uniform", auto.run.seed) else {
            continue;
        };
        let agree = agreeing_prefix(&auto.digests, serial);
        if auto.digests.is_empty() || agree != auto.digests.len().min(serial.len()) {
            problems.push(format!(
                "seed {}: online_uniform_auto diverges from online_uniform at epoch {agree}",
                auto.run.seed
            ));
        } else {
            println!(
                "# seed {}: online_uniform_auto reproduces online_uniform's first {agree} epochs bit for bit",
                auto.run.seed
            );
        }
    }
    problems
}

fn print_table(all: &[Workload], children: &[Child]) {
    let samples = report::samples(children.iter().map(|c| &c.run));
    println!("# one column per workload: median over n runs (n in brackets)");
    print!("{:<34}{:<7}{:<8}{:<7}", "metric", "unit", "better", "bound");
    for w in all {
        print!("{:>22}", w.name);
    }
    println!();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        if !samples.keys().any(|(_, name)| *name == def.name) {
            continue;
        }
        let bound = def.bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
        print!("{:<34}{:<7}{:<8}{:<7}", def.name, def.unit, def.better.as_str(), bound);
        for w in all {
            match samples.get(&(w.name.to_string(), def.name)) {
                Some(values) => print!("{:>18.4} [{}]", median(values), values.len()),
                None => print!("{:>22}", "-"),
            }
        }
        println!();
    }
    print!("{:<56}", "failed_ops_ratio");
    for w in all {
        let (failed, attempted) = children
            .iter()
            .filter(|c| c.run.workload == w.name)
            .fold((0, 0), |acc, c| (acc.0 + c.run.result.failed, acc.1 + c.run.result.attempted));
        print!("{:>22}", format!("{failed}/{attempted}"));
    }
    println!();
}

// ------------------------------------------------------------------ compare --

fn compare_files(a: &str, b: &str) -> Result<(), String> {
    let read = |path: &str| -> Result<Vec<ReportRun>, String> {
        report::parse_report(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let rows = report::compare(&read(a)?, &read(b)?);
    if rows.is_empty() {
        return Err("the two reports share no end-to-end (metric, workload) pair".into());
    }
    println!(
        "{:<22}{:<20}{:>14}{:>14}{:>10}{:>8}{:>10}{:>10}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound", "spread A", "spread B"
    );
    for r in &rows {
        println!(
            "{:<22}{:<20}{:>14.4}{:>14.4}{:>9.1}%{:>7.0}%{:>9.1}%{:>9.1}%  {}",
            r.workload,
            r.metric.name,
            r.median_a,
            r.median_b,
            r.worse_by * 100.0,
            r.metric.bound.unwrap_or(0.0) * 100.0,
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "# {} within, {} unresolved (spread wider than bound), {} worse; widest spread {:.1}%",
        count(Verdict::Within),
        count(Verdict::Unresolved),
        count(Verdict::Worse),
        rows.iter().map(|r| r.spread_a.max(r.spread_b)).fold(0.0, f64::max) * 100.0
    );
    if count(Verdict::Worse) > 0 {
        Err(format!(
            "{} (metric, workload) pairs got worse by more than their bound",
            count(Verdict::Worse)
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let args =
            parse_args(&argv("--workload online_uniform --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(args.workload.as_deref(), Some("online_uniform"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(!args.smoke);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--compare only-one")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn driver_command_names_only_the_benchmark_directory() {
        assert!(COMMAND.iter().all(|part| !part.starts_with('/') && !part.contains("..")));
        assert!(COMMAND.contains(&"loopbench/Cargo.toml"));
        assert_eq!(PATHS, ["loopbench"]);
    }
}
