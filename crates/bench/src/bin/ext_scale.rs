//! Extension: dense vs candidate-pruned time-to-quality at 10× paper scale.
//!
//! The paper's CP search tops out near a few hundred instances because
//! every solver pass walks the full dense m² cost plane and full `0..m`
//! domains per node. The candidate-pruning layer
//! (`cloudia_solver::candidates` + `SearchStrategy::run_pruned`) cuts the
//! pool to the per-node candidate lists first. This bin races the two
//! paths on clustered instances at m ∈ {200, 500, 2000} (`--smoke`:
//! {200, 2000}) and reports, per size and per strategy (CP and the
//! single-prover portfolio):
//!
//! * wall-clock seconds of each path (same budget, same seed);
//! * final deployment cost of each path;
//! * the pruned pool size.
//!
//! The pruned arm ranks the pool `run_pruned` ranks and solves it through
//! `SearchStrategy::run_on_pool`, skipping `run_pruned`'s dense
//! escalation so the timing isolates the pruned search itself (an
//! escalated run is "pruned + dense" by definition); the escalation
//! contract has its own coverage in the `cloudia-core` proptests.
//!
//! In `--smoke` mode the bin **asserts** the PR's acceptance criterion at
//! m = 2000: the pruned solve completes ≥ 5× faster than the dense one
//! while landing within 1 % of its deployment cost, and exits non-zero
//! otherwise.
//!
//! A second section exercises the **columnar stats plane** at
//! m ∈ {5000, 10000, 20000} (`--smoke`: {5000, 10000}): synthetic
//! partial coverage is streamed into a [`PairwiseStats`] and the
//! mid-sweep pool builder (`CandidateSet::build_partial`) runs over the
//! flat columns. Smoke asserts two more acceptance gates:
//!
//! * at m = 10000 the stats plane's logical footprint
//!   ([`PairwiseStats::memory_bytes`]) stays ≤ 6 GB;
//! * at m = 5000 the columnar `build_partial` beats the retained
//!   array-of-structs walk (`build_partial_reference`) by ≥ 5× while
//!   producing the identical candidate pool.
//!
//! A third section fills the default (sketchless) stats plane at
//! m = 20000 with 2048 neighbours per instance and asserts its
//! materialised footprint ([`PairwiseStats::resident_bytes`]) stays
//! ≤ 5 GB. It also reports what the same sweep would hold with the p99
//! sketches ([`PairwiseStats::with_p99`]): the sketched and sketchless
//! footprints of the sweep's first 64 source rows are measured, and
//! their difference is scaled per covered link to the full sweep.
//!
//! The machine-readable race results always land in
//! `BENCH_ext_scale.json`.

use std::time::Instant;

use cloudia_bench::{header, row, write_bench_json, ExtArgs};
use cloudia_core::{CommGraph, CostMatrix, PrunedSolve, SearchStrategy, SolveHint};
use cloudia_measure::stats::aos;
use cloudia_measure::PairwiseStats;
use cloudia_obs::Json;
use cloudia_solver::{Budget, CandidateConfig, CandidateSet, CpConfig, Objective, PortfolioConfig};

struct Arm {
    name: &'static str,
    dense_s: f64,
    dense_cost: f64,
    pruned_s: f64,
    pruned: PrunedSolve,
}

fn race(
    strategy: &SearchStrategy,
    name: &'static str,
    problem: &cloudia_core::NodeDeployment,
) -> Arm {
    // The pool `run_pruned` ranks, solved without its dense escalation
    // (see module docs). Pruned first: if it were run second, a warm file
    // cache/allocator would flatter it.
    let t0 = Instant::now();
    let pool = CandidateSet::build(problem, &CandidateConfig::default(), None, None);
    let pruned =
        strategy.run_on_pool(&pool.restrict(problem), Objective::LongestLink, &SolveHint::Cold);
    let pruned_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let dense = strategy.run(problem, Objective::LongestLink);
    let dense_s = t0.elapsed().as_secs_f64();
    Arm { name, dense_s, dense_cost: dense.cost, pruned_s, pruned }
}

fn main() {
    let args = ExtArgs::parse();
    let (smoke, scale) = (args.smoke, args.scale);
    header("ext-scale", "dense vs candidate-pruned solves at 10x paper scale", scale);

    let sizes: &[usize] = if smoke { &[200, 2000] } else { &[200, 500, 2000] };
    let graph = CommGraph::mesh_2d(5, 6);
    let budget_for = |m: usize| if m >= 2000 { 4.0 } else { 2.0 };

    println!("m\tstrategy\tdense_s\tdense_cost\tpruned_s\tpruned_cost\tpool\tspeedup\tcost_ratio");
    let mut failures = Vec::new();
    let mut races = Vec::new();
    for &m in sizes {
        // Clustered costs — the EC2 shape pruning exploits: ~25 % of the
        // pool is congested and never competitive.
        let costs = CostMatrix::random_clustered(m, 0.25, 42 + m as u64);
        let problem = graph.problem(costs);
        let budget = budget_for(m);

        let cp = SearchStrategy::Cp(CpConfig {
            budget: Budget::seconds(budget),
            clusters: Some(20),
            seed: 7,
            ..CpConfig::default()
        });
        let portfolio = SearchStrategy::Portfolio(PortfolioConfig {
            budget: Budget::seconds(budget),
            threads: 2,
            seed: 7,
            ..PortfolioConfig::default()
        });

        for arm in [race(&cp, "cp", &problem), race(&portfolio, "portfolio", &problem)] {
            let speedup = arm.dense_s / arm.pruned_s.max(1e-9);
            let cost_ratio = arm.pruned.outcome.cost / arm.dense_cost.max(f64::MIN_POSITIVE);
            row(&[
                format!("{m}"),
                arm.name.to_string(),
                format!("{:.3}", arm.dense_s),
                format!("{:.4}", arm.dense_cost),
                format!("{:.3}", arm.pruned_s),
                format!("{:.4}", arm.pruned.outcome.cost),
                format!("{}", arm.pruned.pool.len()),
                format!("{speedup:.1}x"),
                format!("{cost_ratio:.4}"),
            ]);
            if smoke && m >= 2000 {
                if speedup < 5.0 {
                    failures.push(format!(
                        "{}@m={m}: pruned speedup {speedup:.1}x < 5x (dense {:.3}s, pruned {:.3}s)",
                        arm.name, arm.dense_s, arm.pruned_s
                    ));
                }
                if cost_ratio > 1.01 {
                    failures.push(format!(
                        "{}@m={m}: pruned cost {:.4} more than 1% above dense {:.4}",
                        arm.name, arm.pruned.outcome.cost, arm.dense_cost
                    ));
                }
            }
            races.push(
                Json::obj()
                    .field("m", m)
                    .field("strategy", arm.name)
                    .field("dense_s", arm.dense_s)
                    .field("dense_cost", arm.dense_cost)
                    .field("pruned_s", arm.pruned_s)
                    .field("pruned_cost", arm.pruned.outcome.cost)
                    .field("pool", arm.pruned.pool.len())
                    .field("speedup", speedup)
                    .field("cost_ratio", cost_ratio),
            );
        }
    }
    // --- Columnar stats plane at m >= 5k -------------------------------
    //
    // A full netsim `Network` is O(m²) latency profiles and infeasible at
    // this scale, so the arms synthesize partial coverage directly: every
    // instance measures a ring of 8 neighbours (plus a sprinkling of
    // dark, attempted-but-answerless directions), the realistic shape of
    // an early mid-sweep pool build.
    let stat_sizes: &[usize] = if smoke { &[5_000, 10_000] } else { &[5_000, 10_000, 20_000] };
    let nodes = 30; // matches the 5x6 mesh above
    let pool_cfg = CandidateConfig::fixed(64);
    println!();
    println!("m\tpopulate_s\tmem_gb\tB_per_link\tbuild_partial_s\taos_s\tspeedup\tpool");
    let mut stat_arms = Vec::new();
    for &m in stat_sizes {
        let t0 = Instant::now();
        let mut stats = PairwiseStats::new(m);
        for j in 0..m {
            for d in 1..=8usize {
                let dst = (j + d) % m;
                stats.record_attempt(j, dst);
                if (j + d) % 23 == 0 {
                    stats.record_timeout(j, dst);
                }
                stats.record(j, dst, 0.3 + ((j + d) % 17) as f64 * 0.05);
            }
            if j % 97 == 0 {
                // Dark direction: attempted, never answered.
                stats.record_attempt(j, (j + 11) % m);
            }
        }
        let populate_s = t0.elapsed().as_secs_f64();
        let mem = stats.memory_bytes();
        let bytes_per_link = mem as f64 / (m * m) as f64;

        let t0 = Instant::now();
        let pruned = CandidateSet::build_partial(nodes, &stats, &pool_cfg, None, None, 0.0);
        let columnar_s = t0.elapsed().as_secs_f64();

        // The AoS race only runs at m = 5000: the retained estimator is
        // ~4.5 GB there, which is the point of the refactor.
        let (mut aos_s, mut speedup) = (f64::NAN, f64::NAN);
        if m == 5_000 {
            let mut mirror = aos::PairwiseStats::new(m);
            for j in 0..m {
                for d in 1..=8usize {
                    let dst = (j + d) % m;
                    mirror.record_attempt(j, dst);
                    if (j + d) % 23 == 0 {
                        mirror.record_timeout(j, dst);
                    }
                    mirror.record(j, dst, 0.3 + ((j + d) % 17) as f64 * 0.05);
                }
                if j % 97 == 0 {
                    mirror.record_attempt(j, (j + 11) % m);
                }
            }
            let t0 = Instant::now();
            let reference =
                CandidateSet::build_partial_reference(nodes, &mirror, &pool_cfg, None, None, 0.0);
            aos_s = t0.elapsed().as_secs_f64();
            speedup = aos_s / columnar_s.max(1e-9);
            if pruned.union() != reference.union() {
                failures.push(format!(
                    "stats@m={m}: columnar pool ({} ids) != aos reference pool ({} ids)",
                    pruned.union().len(),
                    reference.union().len()
                ));
            }
            if smoke && speedup < 5.0 {
                failures.push(format!(
                    "stats@m={m}: columnar build_partial speedup {speedup:.1}x < 5x \
                     (aos {aos_s:.3}s, columnar {columnar_s:.3}s)"
                ));
            }
        }
        if m == 10_000 && smoke && mem > 6_000_000_000 {
            failures.push(format!(
                "stats@m={m}: PairwiseStats footprint {:.2} GB exceeds the 6 GB gate",
                mem as f64 / 1e9
            ));
        }
        row(&[
            format!("{m}"),
            format!("{populate_s:.3}"),
            format!("{:.2}", mem as f64 / 1e9),
            format!("{bytes_per_link:.1}"),
            format!("{columnar_s:.3}"),
            format!("{aos_s:.3}"),
            format!("{speedup:.1}x"),
            format!("{}", pruned.union().len()),
        ]);
        stat_arms.push(
            Json::obj()
                .field("m", m)
                .field("populate_s", populate_s)
                .field("memory_bytes", mem)
                .field("bytes_per_link", bytes_per_link)
                .field("build_partial_s", columnar_s)
                .field("aos_build_partial_s", aos_s)
                .field("speedup", speedup)
                .field("pool", pruned.union().len()),
        );
    }

    // --- A sparse sweep at m = 20000 -----------------------------------
    //
    // 2048 neighbours per instance is ~41 M covered links. The default
    // statistics keep no P² sketches, so only the touched column pages
    // materialise. The gate checks that footprint (`resident_bytes`);
    // the capacity-based 6 GB gate above is unchanged.
    let sparse_m = 20_000usize;
    let fan = 2_048usize;
    let sweep = |mut stats: PairwiseStats, rows: usize| {
        for j in 0..rows {
            for d in 1..=fan {
                let dst = (j + d) % sparse_m;
                stats.record_attempt(j, dst);
                stats.record(j, dst, 0.3 + ((j + d) % 17) as f64 * 0.05);
            }
        }
        stats
    };
    let t0 = Instant::now();
    let sparse = sweep(PairwiseStats::new(sparse_m), sparse_m);
    let sparse_populate_s = t0.elapsed().as_secs_f64();
    let resident = sparse.resident_bytes();
    let covered = sparse.covered_links();
    drop(sparse);
    // What `PairwiseStats::with_p99` would hold: the sketch group's cost
    // per covered link, measured on the sweep's first rows.
    let slice_rows = 64;
    let sketched = sweep(PairwiseStats::with_p99(sparse_m), slice_rows);
    let plain = sweep(PairwiseStats::new(sparse_m), slice_rows);
    let p99_bytes_per_link = (sketched.resident_bytes() - plain.resident_bytes()) as f64
        / sketched.covered_links() as f64;
    drop((sketched, plain));
    let with_p99_gb = (resident as f64 + p99_bytes_per_link * covered as f64) / 1e9;
    println!();
    println!("sparse_m\tfan\tpopulate_s\tresident_gb\twith_p99_gb");
    row(&[
        format!("{sparse_m}"),
        format!("{fan}"),
        format!("{sparse_populate_s:.3}"),
        format!("{:.2}", resident as f64 / 1e9),
        format!("{with_p99_gb:.2}"),
    ]);
    if resident > 5_000_000_000 {
        failures.push(format!(
            "sparse@m={sparse_m}: resident footprint {:.2} GB exceeds the 5 GB gate",
            resident as f64 / 1e9
        ));
    }
    let sparse_json = Json::obj()
        .field("m", sparse_m)
        .field("fan", fan)
        .field("populate_s", sparse_populate_s)
        .field("resident_bytes", resident)
        .field("p99_bytes_per_link", p99_bytes_per_link)
        .field("with_p99_gb", with_p99_gb);

    match write_bench_json(
        "ext_scale",
        Json::obj()
            .field("races", races)
            .field("stats_plane", stat_arms)
            .field("sparse", sparse_json),
    ) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("FAIL: cannot write BENCH_ext_scale.json: {e}");
            std::process::exit(1);
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    if smoke {
        println!("# smoke OK: pruned path >= 5x faster within 1% of dense cost at m = 2000");
        println!(
            "# smoke OK: stats plane <= 6 GB at m = 10000, columnar build_partial >= 5x at m = 5000"
        );
        println!("# smoke OK: resident footprint <= 5 GB at m = 20000");
    }
}
