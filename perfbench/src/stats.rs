//! Summary statistics shared by every workload: medians, the tail-percentile
//! rule, and the bandwidth and ratio arithmetic.

/// Percentiles tried for a tail, highest first, in per-mille so that the
/// rank arithmetic stays exact.
const TAIL_CANDIDATES: [usize; 7] = [999, 990, 980, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(n: usize, per_mille: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
fn percentile_sorted(sorted: &[f64], per_mille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// A timing summary: median, tail and the sample count behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The highest percentile with at least [`MIN_BEYOND`] samples beyond
    /// it (the median when there are too few samples for any other).
    pub tail_pct: f64,
    pub tail: f64,
}

/// Summarize samples in any order.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&pm| n.saturating_sub(rank(n, pm)) >= MIN_BEYOND)
        .unwrap_or(500);
    Summary {
        n,
        p50: percentile_sorted(&sorted, 500),
        tail_pct: tail as f64 / 10.0,
        tail: percentile_sorted(&sorted, tail),
    }
}

/// Windows a run's samples are cut into for [`windowed`].
pub const WINDOWS: usize = 5;

/// [`summarize`] with a steadier tail: the samples, in the order they were
/// taken, are cut into `windows` consecutive windows, and the tail is the
/// median of the windows' tails. One host stall inflates the tail of the
/// window it hits, not the run's. `tail_pct` is the lowest percentile any
/// window used; the median stays the median of all samples.
pub fn windowed(in_order: &[f64], windows: usize) -> Summary {
    let all = summarize(in_order);
    let size = in_order.len() / windows.max(1);
    if size == 0 {
        return all;
    }
    let tails: Vec<Summary> = in_order
        .chunks_exact(size)
        .take(windows)
        .map(summarize)
        .collect();
    let tail_values: Vec<f64> = tails.iter().map(|t| t.tail).collect();
    Summary {
        tail: median(&tail_values),
        tail_pct: tails
            .iter()
            .map(|t| t.tail_pct)
            .fold(f64::INFINITY, f64::min),
        ..all
    }
}

/// Median of samples in any order (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

/// Bandwidth in MiB/s; 0 when no time was spent.
pub fn mib_per_s(bytes: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        bytes as f64 / (1024.0 * 1024.0) / seconds
    } else {
        0.0
    }
}

/// `num / den`, or 0 when the base is 0 (so every reported value is a
/// finite number).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den != 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Last-quarter median over first-quarter median of samples in the order
/// they were taken: above 1 means the run slowed down as it went. Returns
/// the ratio and the number of samples in each quarter (its base).
pub fn drift_ratio(in_order: &[f64]) -> (f64, usize) {
    let q = in_order.len() / 4;
    if q == 0 {
        return (1.0, 0);
    }
    let first = median(&in_order[..q]);
    let last = median(&in_order[in_order.len() - q..]);
    (ratio(last, first), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        let s = summarize(&ramp(1000));
        assert_eq!((s.tail_pct, s.tail), (99.0, 990.0));
        // 999 samples leave 9 beyond p99: fall back to p98.
        let s = summarize(&ramp(999));
        assert_eq!(s.tail_pct, 98.0);
        let s = summarize(&ramp(10_000));
        assert_eq!((s.tail_pct, s.tail), (99.9, 9990.0));
    }

    #[test]
    fn few_samples_fall_back_to_the_median() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (3, 2.0, 50.0, 2.0));
        let s = summarize(&ramp(40));
        assert_eq!((s.tail_pct, s.tail), (75.0, 30.0));
        assert_eq!(summarize(&[]).p50, 0.0);
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // Five windows of 1000; one has a stall that lifts its whole tail.
        let mut v = Vec::new();
        for w in 0..5 {
            let bump = if w == 2 { 100.0 } else { 0.0 };
            v.extend(
                ramp(1000)
                    .into_iter()
                    .map(|x| if x > 980.0 { x + bump } else { x }),
            );
        }
        let s = windowed(&v, 5);
        assert_eq!((s.n, s.tail_pct, s.tail), (5000, 99.0, 990.0));
        assert!(summarize(&v).tail > s.tail);
        // Too few samples to cut: the plain summary.
        assert_eq!(windowed(&[1.0, 2.0, 3.0], 5), summarize(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
    }

    #[test]
    fn bandwidth_and_ratio_arithmetic() {
        assert_eq!(mib_per_s(3 * 1024 * 1024, 1.5), 2.0);
        assert_eq!(mib_per_s(1, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn drift_compares_last_quarter_to_first() {
        let mut v = vec![2.0; 8];
        v[6] = 4.0;
        v[7] = 4.0;
        assert_eq!(drift_ratio(&v), (2.0, 2));
        assert_eq!(drift_ratio(&[1.0, 2.0]), (1.0, 0));
    }
}
