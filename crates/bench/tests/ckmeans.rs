//! The product's divide-and-conquer k-means fill against the O(k·N²)
//! Ckmeans DP it replaced, bit for bit: the same clusters, the same means,
//! the same rounding of every input and the same SSE — not merely an
//! equally good clustering.
//!
//! Bit-for-bit holds wherever the DP's arithmetic resolves the values.
//! Within-cluster SSE is `q − s²/w` over prefix sums; when values agree
//! to ~1e-5 of their magnitude and no quantum separates them, that
//! difference cancels every significant digit. The quadratic DP's own
//! optimal cuts then stop being monotone — its answer is rounding noise —
//! and no fill that skips cuts can reproduce it. The second property pins
//! what both fills still agree on there.

use cloudia_bench::baselines::ckmeans_quadratic;
use cloudia_solver::CostClusters;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Up to `len` costs drawn in one of five shapes: log-uniform magnitudes
/// over 1e-3…1e4, a few values repeated many times, small integers and
/// dyadic steps (whose splits tie exactly), near-duplicates spread over
/// 1e-4…1e-1 of their magnitude, and the two-scale mix of a loss-priced repair (RTTs plus a
/// far-off loss penalty). About one input in five carries +∞ entries.
fn costs(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let log_uniform = |rng: &mut StdRng| 10f64.powf(rng.random_range(-3.0..4.0));
    let mut costs: Vec<f64> = match rng.random_range(0..5u32) {
        0 => (0..len).map(|_| log_uniform(&mut rng)).collect(),
        1 => {
            let pool: Vec<f64> =
                (0..rng.random_range(1..12usize)).map(|_| log_uniform(&mut rng)).collect();
            (0..len).map(|_| pool[rng.random_range(0..pool.len())]).collect()
        }
        2 => {
            let step = [1.0, 0.5, 0.25, 0.125][rng.random_range(0..4usize)];
            let top = rng.random_range(1..200u32);
            (0..len).map(|_| f64::from(rng.random_range(0..top)) * step).collect()
        }
        3 => {
            let base = log_uniform(&mut rng);
            let spread = 10f64.powf(rng.random_range(-4.0..-1.0));
            (0..len).map(|_| base * (1.0 + rng.random_range(0.0..spread))).collect()
        }
        _ => (0..len)
            .map(|_| {
                let rtt = rng.random_range(0.2..3.0);
                if rng.random::<f64>() < 0.3 {
                    rtt + 1e3 * rng.random_range(0.0..1.0)
                } else {
                    rtt
                }
            })
            .collect(),
    };
    if rng.random::<f64>() < 0.2 {
        for _ in 0..rng.random_range(1..=len) {
            let at = rng.random_range(0..len);
            costs[at] = f64::INFINITY;
        }
    }
    costs
}

proptest! {
    // The quadratic reference dominates: ~15 ms a case unoptimised.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 400 } else { 2000 }))]

    #[test]
    fn divide_and_conquer_fill_matches_the_quadratic_dp_bit_for_bit(
        seed in 0u64..u64::MAX,
        len in 1usize..=400,
        k in 1usize..=30,
        quantized in 0u32..2,
    ) {
        let costs = costs(seed, len);
        let quantum = if quantized == 1 { 0.01 } else { 0.0 };
        let fast = CostClusters::compute(&costs, k, quantum);
        let slow = ckmeans_quadratic(&costs, k, quantum);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(fast.len(), slow.len());
        prop_assert_eq!(bits(fast.means()), bits(slow.means()), "means diverged, k = {}", k);
        for &x in &costs {
            prop_assert_eq!(fast.round(x).to_bits(), slow.round(x).to_bits(), "round({})", x);
        }
        prop_assert_eq!(fast.within_sse().to_bits(), slow.within_sse().to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 60 } else { 300 }))]

    #[test]
    fn below_resolution_the_fills_agree_up_to_the_rounding_floor(
        seed in 0u64..u64::MAX,
        len in 50usize..=400,
        k in 2usize..=30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = 10f64.powf(rng.random_range(2.0..4.0));
        let spread = 10f64.powf(rng.random_range(-9.0..-6.0));
        let costs: Vec<f64> =
            (0..len).map(|_| base * (1.0 + rng.random_range(0.0..spread))).collect();
        let fast = CostClusters::compute(&costs, k, 0.0);
        let slow = ckmeans_quadratic(&costs, k, 0.0);
        prop_assert_eq!(fast.len(), slow.len());
        prop_assert!(fast.means().windows(2).all(|w| w[0] <= w[1]));
        for &x in &costs {
            prop_assert!(fast.means().contains(&fast.round(x)));
        }
        // The prefix sums' rounding error: the SSE both DPs compare is
        // only this exact (observed gaps stay under 9 of these units).
        let floor = f64::EPSILON * costs.iter().map(|x| x * x).sum::<f64>();
        prop_assert!(
            (fast.within_sse() - slow.within_sse()).abs() <= 32.0 * floor,
            "SSE {} vs {} beyond the rounding floor {floor:e}",
            fast.within_sse(),
            slow.within_sse()
        );
    }
}
