//! A clustered CP solve reports its cost clustering as one `solver.cluster`
//! span, so a trace splits a prover's setup from its search. One test, in
//! a process of its own: spans land in a global ring, where a concurrently
//! running solve would add its own.

use cloudia_obs::AttrValue;
use cloudia_solver::cp::{solve_llndp_cp, CpConfig};
use cloudia_solver::problem::{Costs, NodeDeployment};
use cloudia_solver::Budget;

#[test]
fn a_clustered_solve_emits_one_cluster_span_with_its_distinct_value_count() {
    cloudia_obs::set_enabled(true);
    let costs = Costs::random_uniform(16, 9);
    let quantum = 0.01;
    let mut distinct: Vec<f64> =
        costs.off_diagonal().iter().map(|&c| (c / quantum).round() * quantum).collect();
    distinct.sort_by(f64::total_cmp);
    distinct.dedup();
    let p = NodeDeployment::new(6, (0..5).map(|v| (v, v + 1)).collect(), costs);
    let config =
        CpConfig { clusters: Some(20), quantum, budget: Budget::nodes(500), ..CpConfig::default() };
    cloudia_obs::take_spans();
    solve_llndp_cp(&p, &config);
    let spans: Vec<_> =
        cloudia_obs::take_spans().into_iter().filter(|s| s.name == "solver.cluster").collect();
    assert_eq!(spans.len(), 1, "one clustering per solve");
    let attr = |key| spans[0].attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    assert!(distinct.len() > 20, "the instance must have more values than clusters");
    assert_eq!(attr("values"), Some(AttrValue::Num(distinct.len() as f64)));
    assert_eq!(attr("clusters"), Some(AttrValue::Num(20.0)));
}
