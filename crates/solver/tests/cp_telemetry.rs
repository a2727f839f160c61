//! The CP driver reports how its threshold iterations ended, and each
//! solve as one `solver.cp` span. One test, in a process of its own: the
//! counters live in the global registry and the spans in a global ring,
//! where a concurrently running solve would move them.

use cloudia_obs::AttrValue;
use cloudia_solver::cp::{solve_llndp_cp, CpConfig};
use cloudia_solver::problem::{Costs, NodeDeployment};
use cloudia_solver::Budget;

#[test]
fn outcome_counters_split_every_explored_node() {
    cloudia_obs::set_enabled(true);
    let counter = |name: &str| cloudia_obs::metrics().counter_value(name);
    let mut edges: Vec<(u32, u32)> = (0..8).map(|v| (v, v + 1)).collect();
    edges.extend([(0, 4), (4, 8), (2, 6)]);
    let p = NodeDeployment::new(9, edges, Costs::random_uniform(12, 5));
    // Unlimited, the exact solve ends in an UNSAT proof; a tight node
    // budget cuts it off in mid-iteration.
    let exact = |budget| CpConfig { clusters: None, quantum: 0.0, budget, ..CpConfig::default() };
    cloudia_obs::take_spans();
    let proven = solve_llndp_cp(&p, &exact(Budget::nodes(u64::MAX)));
    let cut = solve_llndp_cp(&p, &exact(Budget::nodes(40)));
    assert!(proven.proven_optimal && !cut.proven_optimal);

    let iterations = |outcome| counter(&format!("solver.cp.{outcome}_iterations"));
    let nodes = |outcome| counter(&format!("solver.cp.{outcome}_nodes"));
    assert!(iterations("sat") >= 1, "no threshold was met");
    assert_eq!(iterations("unsat"), 1, "only the proven solve ends in a proof");
    assert_eq!(iterations("timeout"), 1, "only the cut solve runs out of nodes");
    assert_eq!(nodes("sat") + nodes("unsat") + nodes("timeout"), proven.explored + cut.explored);

    let spans: Vec<_> =
        cloudia_obs::take_spans().into_iter().filter(|s| s.name == "solver.cp").collect();
    assert_eq!(spans.len(), 2, "one span per solve");
    let attr = |s: usize, key| match spans[s].attrs.iter().find(|(k, _)| *k == key) {
        Some((_, AttrValue::Num(x))) => *x,
        other => panic!("span {s} has no numeric {key}: {other:?}"),
    };
    for (s, out) in [(0, &proven), (1, &cut)] {
        assert_eq!(attr(s, "explored"), out.explored as f64, "span {s}");
        assert_eq!(attr(s, "proven"), f64::from(u8::from(out.proven_optimal)), "span {s}");
    }
    let sip_calls = iterations("sat") + iterations("unsat") + iterations("timeout");
    assert_eq!(attr(0, "sip_calls") + attr(1, "sip_calls"), sip_calls as f64);
}
