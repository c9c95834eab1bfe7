//! Order statistics and the percentile-reporting rule. Every figure is a
//! whole-run figure.

/// Percentiles the tail rule considers, highest first.
const TAIL_CANDIDATES: [f64; 4] = [0.999, 0.99, 0.95, 0.9];
/// Samples a reported percentile needs strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of sorted samples (`q` in `(0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest tail percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even p90 is unsupported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Sorted copy of the samples.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A latency distribution summary, in the samples' unit.
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest percentile the sample supports, and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        let n = sorted.len();
        if n == 0 {
            return Summary {
                n,
                p50: f64::NAN,
                p99: f64::NAN,
                tail: None,
            };
        }
        Summary {
            n,
            p50: percentile(&sorted, 0.5),
            p99: percentile(&sorted, 0.99),
            tail: tail_percentile(n).map(|q| (q, percentile(&sorted, q))),
        }
    }

    /// Describes the sample for the report: count, and the highest
    /// supported percentile.
    pub fn note(&self) -> String {
        match self.tail {
            Some((q, v)) => format!(
                "n={}, highest supported p{} = {v:.1} ({} beyond)",
                self.n,
                q * 100.0,
                beyond(self.n, q)
            ),
            None => format!("n={}, too few samples for a tail percentile", self.n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_reports_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(199), Some(0.9));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(9999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 500.0);
        assert_eq!(percentile(&samples, 0.99), 990.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let summary = Summary::of(&samples);
        assert_eq!(summary.tail, Some((0.99, 990.0)));
    }
}
