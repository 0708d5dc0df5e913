//! Order statistics for repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), so the spreads this benchmark
//! prints agree with the ones computed from its JSON output.

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile, by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` (which extrapolates for fewer
/// than three samples). A single value is its own quartiles; `None`
/// when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => return None,
        1 => return Some((s[0], s[0])),
        _ => {}
    }
    let m = (n + 1) as i64;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The nearest-rank `pct`-th percentile of `values` (rank
/// `ceil(pct/100 * n)`, as the serve layer's latency histogram uses).
/// `None` when empty.
pub fn nearest_rank(values: &[f64], pct: f64) -> Option<f64> {
    let s = sorted(values);
    let rank = nearest_rank_index(s.len(), pct)?;
    Some(s[rank - 1])
}

/// [`nearest_rank`], reported only when at least ten samples lie
/// strictly beyond its rank: a tail percentile drawn from fewer
/// samples is not a tail. `None` otherwise.
pub fn tail_percentile(values: &[f64], pct: f64) -> Option<f64> {
    let rank = nearest_rank_index(values.len(), pct)?;
    if values.len() - rank < 10 {
        return None;
    }
    nearest_rank(values, pct)
}

fn nearest_rank_index(n: usize, pct: f64) -> Option<usize> {
    if n == 0 || !(0.0..=100.0).contains(&pct) {
        return None;
    }
    Some((((pct * n as f64) / 100.0).ceil() as usize).clamp(1, n))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((1.5, 4.5)));
        // statistics.quantiles([5, 1, 9, 3, 7, 2], n=4) == [1.75, 4.0, 7.5]
        assert_eq!(
            quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0]),
            Some((1.75, 7.5))
        );
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly 10 beyond the p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99.0), Some(990.0));
        // 999 samples: rank 990 leaves 9 beyond — no p99.
        assert_eq!(tail_percentile(&v[..999], 99.0), None);
        // The median of a small sample is fine as long as 10 lie beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 50.0), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 50.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_matches_the_serve_histogram_rule() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }
}
