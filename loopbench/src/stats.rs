//! Order statistics, the tail-percentile rule, and the run digest.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The tail of a timing sample: the highest percentile that still has at
/// least ten samples beyond it. Below 21 samples no percentile above the
/// median qualifies, so the median itself is reported (percentile 50).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n < 21 {
        return Tail { value: median(xs), percentile: 50.0, samples: n };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Ten samples sit strictly above index n - 11.
    let idx = n - 11;
    Tail { value: v[idx], percentile: 100.0 * idx as f64 / (n - 1) as f64, samples: n }
}

/// First and third quartile by the exclusive method — the numbers Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the driver
/// computes spreads from.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        let pos = q as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let med = median(xs);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / med.abs()
}

/// FNV-1a over one operation's observable outputs, chained from the digest
/// of the operations before it. Two passes over the same inputs must agree
/// on every prefix.
pub fn digest_step(prev: u64, op: u64, round_trips: u64, cost_bits: u64) -> u64 {
    let mut h = prev;
    for word in [op, round_trips, cost_bits] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Length of the common prefix on which two digest chains agree.
pub fn agreeing_prefix(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..32).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 21.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.samples, 32);
        assert!((t.percentile - 100.0 * 21.0 / 31.0).abs() < 1e-9);
        // 1000 samples resolve p98.9.
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 989.0);
    }

    #[test]
    fn tail_falls_back_to_the_median_on_small_samples() {
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 9.5);
        // 21 is the first size with a qualifying percentile at the median.
        let xs: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!((tail(&xs).value, tail(&xs).percentile), (10.0, 50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
    }

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let a = digest_step(DIGEST_SEED, 0, 10, 1.5f64.to_bits());
        let b = digest_step(DIGEST_SEED, 0, 10, 1.5000001f64.to_bits());
        let c = digest_step(DIGEST_SEED, 1, 10, 1.5f64.to_bits());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, digest_step(DIGEST_SEED, 0, 10, 1.5f64.to_bits()));
        assert_eq!(agreeing_prefix(&[a, b, c], &[a, b, 7]), 2);
        assert_eq!(agreeing_prefix(&[a], &[a, b]), 1);
    }
}
