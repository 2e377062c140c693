//! Order statistics over step-wall samples.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` (0–100): the smallest sample with at least
/// `p`% of the samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank_of(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank_of(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentiles the tail is chosen from, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile for it to count as resolved.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The step-wall tail: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond its nearest rank.
    pub beyond: usize,
    /// Whether `beyond >= TAIL_MIN_BEYOND`.  A run too short to resolve
    /// any ladder percentile reports the median with `resolved = false`.
    pub resolved: bool,
}

/// Pick the tail of `xs` by the ladder rule.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let pick = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(rank_of(n.max(1), p)) >= TAIL_MIN_BEYOND);
    let p = pick.unwrap_or(50.0);
    Tail {
        percentile: p,
        value: if pick.is_some() {
            percentile(xs, p)
        } else {
            median(xs)
        },
        beyond: n.saturating_sub(rank_of(n.max(1), p)),
        resolved: pick.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.resolved),
            (90.0, 90.0, 10, true)
        );
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.beyond, t.resolved), (75.0, 24, true));
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.resolved), (50.0, 6.5, false));
    }
}
