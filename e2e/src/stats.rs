//! The statistics every reported number goes through.
//!
//! A timed phase is a sequence of rounds of identical work; the per-round
//! statistic (requests ÷ wall, or the round's median latency) is reduced to
//! a median over rounds with its quartiles and sample count. Quartiles use
//! the same rule as Python's `statistics.quantiles(values, n=4)` so the
//! spreads printed here are the spreads the driver computes.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: a phase that produced no sample is a bug in
/// the benchmark, not a measurement.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method (Python's default):
/// the i-th cut point of m samples sits at position i·(m+1)/4, linearly
/// interpolated, clamped to the sample range. One sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        n: values.len(),
        median: median(values),
        q1,
        q3,
    }
}

/// The `q`-quantile of `values`, with `q` lowered until at least ten
/// samples lie beyond it (the choosing-metrics rule: a percentile with
/// fewer than ten samples above it is one outlier, not a tail). Returns the
/// value and the quantile actually used; with fewer than twenty samples the
/// quantile degrades to the median.
pub fn tail_percentile(values: &[f64], q: f64) -> (f64, f64) {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let n = v.len();
    let supported = (1.0 - 10.0 / n as f64).max(0.5);
    let q = q.min(supported);
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    (v[idx], q)
}

/// One timed round: its wall-clock time and the latency of every operation
/// in it, in seconds.
pub struct Round {
    pub wall_s: f64,
    pub latencies_s: Vec<f64>,
}

/// Each round's operations per second, for the report.
pub fn rates(rounds: &[Round]) -> String {
    let per_round: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.1}", r.latencies_s.len() as f64 / r.wall_s))
        .collect();
    per_round.join(" ")
}

/// Operations per second: median over rounds of `operations ÷ wall`.
pub fn rate_over_rounds(rounds: &[Round]) -> Summary {
    let per_round: Vec<f64> = rounds
        .iter()
        .map(|r| r.latencies_s.len() as f64 / r.wall_s)
        .collect();
    summarize(&per_round)
}

/// Latency in milliseconds: median over rounds of the round's median.
pub fn p50_ms_over_rounds(rounds: &[Round]) -> Summary {
    let per_round: Vec<f64> = rounds
        .iter()
        .map(|r| median(&r.latencies_s) * 1e3)
        .collect();
    summarize(&per_round)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the cut
        // points extrapolate past the two samples.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_rounds_ignores_one_slow_round() {
        let round = |wall_s: f64, lat: f64| Round {
            wall_s,
            latencies_s: vec![lat; 100],
        };
        let mut rounds: Vec<Round> = (0..9).map(|_| round(0.5, 0.005)).collect();
        rounds.push(round(5.0, 0.050)); // a stalled round
        assert_eq!(rate_over_rounds(&rounds).median, 200.0);
        assert_eq!(p50_ms_over_rounds(&rounds).median, 5.0);
        assert_eq!(rate_over_rounds(&rounds).n, 10);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples support p99 exactly (ten beyond).
        assert_eq!(tail_percentile(&v, 0.99), (990.0, 0.99));
        // ...but not p99.9: it is lowered to p99.
        assert_eq!(tail_percentile(&v, 0.999), (990.0, 0.99));
        // 100 samples support p90 at most.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, q) = tail_percentile(&v, 0.99);
        assert_eq!(value, 90.0);
        assert!((q - 0.90).abs() < 1e-12);
        // Fewer than twenty samples: the median is all there is.
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), (5.0, 0.5));
    }
}
