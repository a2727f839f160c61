//! Regenerates figures by id, in the order given:
//!
//! ```sh
//! cargo run --release -p cloudia-bench --bin fig -- fig12 [fig04 …]
//! ```
//!
//! Each id is a figure's artifact slug (`fig01`…`fig21`, or an
//! extension's name — see [`cloudia_bench::figures::FIGURES`]); the
//! figure prints its series and writes `BENCH_<id>.json`. Quick scale by
//! default, `CLOUDIA_SCALE=paper` for the paper's sizes. No id, or an
//! unknown one, prints the id table and exits 2.

use cloudia_bench::figures::FIGURES;
use cloudia_bench::Scale;

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    // Resolve every id before running any, so a typo in the last one
    // does not surface after minutes of solver budgets.
    let figures: Result<Vec<_>, &str> =
        ids.iter().map(|id| FIGURES.iter().find(|f| f.id == id).ok_or(id.as_str())).collect();
    match figures {
        Ok(figures) if !figures.is_empty() => {
            let scale = Scale::from_env();
            for figure in figures {
                figure.run(scale);
            }
        }
        result => {
            if let Err(id) = result {
                eprintln!("unknown figure `{id}`");
            }
            eprintln!("usage: fig ID [ID …]   (CLOUDIA_SCALE=paper for paper sizes)");
            for f in FIGURES {
                eprintln!("  {:<22}{} — {}", f.id, f.title(), f.caption);
            }
            std::process::exit(2);
        }
    }
}
