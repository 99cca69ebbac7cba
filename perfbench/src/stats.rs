//! Order statistics the benchmark reports: medians, quartiles, the tail
//! percentile rule, and the growing-backlog test for the serving loop.

/// Sorted copy of `xs` (total order; NaN sorts last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `xs` (mean of the middle pair for even counts); `None` when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `None` when `xs` is empty.
pub fn percentile(xs: &[f64], p: u32) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = (p as usize * v.len()).div_ceil(100).max(1);
    Some(v[rank - 1])
}

/// Number of samples strictly beyond the nearest-rank `p`th percentile's
/// position (the samples ranked after it).
pub fn beyond(n: usize, p: u32) -> usize {
    n - (p as usize * n).div_ceil(100).max(1).min(n)
}

/// The highest whole percentile that still has at least `min_beyond`
/// samples ranked after it, with its value: the tail a run of `xs.len()`
/// samples can support. `None` when the run is too short for any.
pub fn tail_percentile(xs: &[f64], min_beyond: usize) -> Option<(u32, f64)> {
    let p = (0..=100u32)
        .rev()
        .find(|&p| p >= 1 && beyond(xs.len(), p) >= min_beyond)?;
    Some((p, percentile(xs, p)?))
}

/// The backlog test of the serving workload: the median queue wait of the
/// last third of arrivals exceeds that of the first third by more than
/// `slack` (a steady queue's waits fluctuate by about one service time; a
/// growing one diverges). `waits` are in arrival order. Fewer than three
/// arrivals never count as growing.
pub fn backlog_grows(waits: &[f64], slack: f64) -> bool {
    let third = waits.len() / 3;
    if third == 0 {
        return false;
    }
    let (first, last) = (
        median(&waits[..third]),
        median(&waits[waits.len() - third..]),
    );
    last.zip(first).is_some_and(|(l, f)| l > f + slack)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_of_a_hundred_leaves_exactly_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), Some(90.0));
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 100 samples support p90 and nothing higher.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), Some((90, 90.0)));
        // 120 samples: p91 leaves 120 - ceil(109.2) = 10 beyond; p92 only 9.
        let xs: Vec<f64> = (1..=120).map(f64::from).collect();
        let (p, v) = tail_percentile(&xs, 10).unwrap();
        assert_eq!(p, 91);
        assert_eq!(beyond(120, p), 10);
        assert_eq!(beyond(120, p + 1), 9);
        assert_eq!(v, 110.0);
        // Eleven samples support up to p9, which is still the minimum;
        // ten samples support no percentile at all.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), Some((9, 1.0)));
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), None);
    }

    #[test]
    fn backlog_compares_first_and_last_thirds() {
        let rising = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(backlog_grows(&rising, 0.0));
        // Thirds' medians are 0.5 and 4.5: growth of 4 is within a slack of 4.
        assert!(backlog_grows(&rising, 3.9));
        assert!(!backlog_grows(&rising, 4.0));
        // A lone late wait in a light queue is not a growing backlog.
        assert!(!backlog_grows(
            &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0],
            0.0
        ));
        // Equal waits are a steady queue, not a growing one.
        assert!(!backlog_grows(&[2.0; 9], 0.0));
        assert!(!backlog_grows(&[5.0, 9.0], 0.0));
    }
}
