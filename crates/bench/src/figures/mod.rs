//! The figure table: every figure of the paper's evaluation, plus the
//! four extension/ablation studies, as one entry `id → run` that the
//! `fig` binary looks up by id.
//!
//! Figures that differ only in their inputs share one function — the
//! heterogeneity CDFs (1, 18, 20), the link-stability series (2, 19, 21),
//! the lightweight-vs-prover comparisons (14, 15) and the proxy
//! groupings (16, 17) — and their table entries carry those inputs.

mod advisor;
mod network;
mod solver;

use crate::approx::{links_by_hop_count, links_by_ip_distance};
use crate::{Fig, Scale};
use cloudia_netsim::Provider;

/// One regenerable figure.
pub struct Figure {
    /// The id the `fig` binary takes, which is also the artifact slug:
    /// the figure writes `BENCH_<id>.json`.
    pub id: &'static str,
    /// One-line caption, printed in the header and recorded in the
    /// artifact.
    pub caption: &'static str,
    run: fn(&mut Fig, Scale),
}

impl Figure {
    /// Header title: "Figure N" for `figNN`; the extension studies keep
    /// the titles their headers have always printed.
    pub fn title(&self) -> String {
        match (self.id, self.id.strip_prefix("fig")) {
            (_, Some(k)) => format!("Figure {}", k.trim_start_matches('0')),
            ("ablation_cp", _) => "Ablation".into(),
            ("ext_portfolio", _) => "ext-portfolio".into(),
            _ => "Extension".into(),
        }
    }

    /// Prints the figure at `scale` and writes its `BENCH_<id>.json`.
    pub fn run(&self, scale: Scale) {
        let mut fig = Fig::new(self.id, &self.title(), self.caption, scale);
        (self.run)(&mut fig, scale);
        fig.finish();
    }
}

/// Every figure, in paper order, then the extensions.
pub static FIGURES: &[Figure] = &[
    Figure {
        id: "fig01",
        caption: "latency heterogeneity in EC2-like region",
        run: |fig, _| {
            network::heterogeneity(
                fig,
                Provider::ec2_like(),
                100,
                "ec2",
                &[0.05, 0.10, 0.50, 0.90, 0.95, 1.0],
                "# summary (paper: p10 < 0.4 ms, p90 > 0.7 ms, max ~1.4 ms)",
                Some((0.4, 0.7)),
            )
        },
    },
    Figure {
        id: "fig02",
        caption: "mean latency stability over 200 h (2 h buckets), EC2-like",
        run: |fig, _| network::stability(fig, Provider::ec2_like(), 100, 2.0, 100, true),
    },
    Figure {
        id: "fig04",
        caption: "normalized relative error vs token passing, 50 instances",
        run: network::fig04,
    },
    Figure {
        id: "fig05",
        caption: "staged measurement convergence (RMSE vs final estimate)",
        run: network::fig05,
    },
    Figure {
        id: "fig06",
        caption: "CP convergence on LLNDP by cost clusters (2D mesh)",
        run: solver::fig06,
    },
    Figure { id: "fig07", caption: "CP vs MIP convergence on LLNDP (k = 20)", run: solver::fig07 },
    Figure {
        id: "fig08",
        caption: "CP convergence time vs number of instances",
        run: solver::fig08,
    },
    Figure {
        id: "fig09",
        caption: "MIP convergence on LPNDP by cost clusters (aggregation tree)",
        run: solver::fig09,
    },
    Figure {
        id: "fig10",
        caption: "correlation between latency metrics, 110 instances",
        run: network::fig10,
    },
    Figure {
        id: "fig11",
        caption: "relative improvement of Mean+SD and p99 vs Mean",
        run: advisor::fig11,
    },
    Figure {
        id: "fig12",
        caption: "time reduction over 5 allocations, 3 workloads",
        run: advisor::fig12,
    },
    Figure {
        id: "fig13",
        caption: "over-allocation sweep, behavioral simulation",
        run: advisor::fig13,
    },
    Figure { id: "fig14", caption: "lightweight approaches vs CP on LLNDP", run: solver::fig14 },
    Figure { id: "fig15", caption: "lightweight approaches vs MIP on LPNDP", run: solver::fig15 },
    Figure {
        id: "fig16",
        caption: "latency ordered by IP distance (g = 8)",
        run: |fig, _| {
            network::proxy_grouping(
                fig,
                |net| links_by_ip_distance(net, 8),
                "ip-distance",
                "monotonicity does not hold -> IP distance is a poor proxy",
            )
        },
    },
    Figure {
        id: "fig17",
        caption: "latency ordered by hop count",
        run: |fig, _| {
            network::proxy_grouping(
                fig,
                links_by_hop_count,
                "hops",
                "hop count, though easy to obtain, does not predict latency",
            )
        },
    },
    Figure {
        id: "fig18",
        caption: "latency heterogeneity in GCE-like region",
        run: |fig, _| {
            network::heterogeneity(
                fig,
                Provider::gce_like(),
                50,
                "gce",
                &[0.05, 0.50, 0.95],
                "# summary (paper: p5 < 0.32 ms, p95 > 0.5 ms)",
                None,
            )
        },
    },
    Figure {
        id: "fig19",
        caption: "mean latency stability over 60 h, GCE-like",
        run: |fig, _| network::stability(fig, Provider::gce_like(), 50, 1.0, 60, false),
    },
    Figure {
        id: "fig20",
        caption: "latency heterogeneity in Rackspace-like region",
        run: |fig, _| {
            network::heterogeneity(
                fig,
                Provider::rackspace_like(),
                50,
                "rackspace",
                &[0.05, 0.50, 0.95],
                "# summary (paper: p5 < 0.24 ms, p95 > 0.38 ms)",
                None,
            )
        },
    },
    Figure {
        id: "fig21",
        caption: "mean latency stability over 60 h, Rackspace-like",
        run: |fig, _| network::stability(fig, Provider::rackspace_like(), 50, 1.0, 60, false),
    },
    Figure {
        id: "ablation_cp",
        caption: "CP design choices: degree filter x clustering",
        run: solver::ablation_cp,
    },
    Figure {
        id: "ext_placement_groups",
        caption: "cluster placement group vs ClouDiA (behavioral sim)",
        run: advisor::ext_placement_groups,
    },
    Figure {
        id: "ext_portfolio",
        caption: "portfolio scalability + trail-based CP speedup",
        run: solver::ext_portfolio,
    },
    Figure {
        id: "ext_redeployment",
        caption: "iterative re-deployment under mean-latency drift",
        run: advisor::ext_redeployment,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_is_a_unique_artifact_slug() {
        let mut seen = std::collections::HashSet::new();
        for f in FIGURES {
            assert!(seen.insert(f.id), "duplicate figure id {}", f.id);
            assert!(
                f.id.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "{} is not a file-name slug",
                f.id
            );
        }
        // Figures 1–21 of the paper, less Figure 3, which plots no
        // measured series.
        let paper: Vec<&str> =
            FIGURES.iter().map(|f| f.id).filter(|id| id.starts_with("fig")).collect();
        let expected: Vec<String> =
            (1..=21).filter(|&k| k != 3).map(|k| format!("fig{k:02}")).collect();
        assert_eq!(paper, expected);
    }
}
