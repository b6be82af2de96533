//! Order statistics for the report: median, quartiles, and the one place
//! the "highest percentile with at least ten samples beyond it" rule lives.

/// Percentiles a tail metric may be reported at, lowest first. The ladder
/// stops at 95: that is the percentile the paper reports (§4.1), and going
/// higher on the join workloads (millions of matches) would only track the
/// histogram's bucket edges.
const TAIL_LADDER: [u64; 4] = [50, 75, 90, 95];

/// Samples that must lie beyond a percentile before it may be reported.
const MIN_BEYOND: u64 = 10;

/// Nearest-rank quantile of an ascending slice, `q` in `[0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p / 100.0)
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles and sample count that go with a reported median.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        n: v.len(),
    }
}

/// The highest ladder percentile with at least ten of `n` samples beyond
/// it; the median when even p75 is not supported.
pub fn tail_percentile(n: u64) -> f64 {
    // In integers: a hundred samples leave exactly ten beyond p90, which
    // `100.0 * (1.0 - 0.9)` does not.
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n.saturating_mul(100 - p) >= MIN_BEYOND * 100)
        .unwrap_or(TAIL_LADDER[0]) as f64
}

/// `(after − before) / before`, signed so that positive is *worse* for the
/// metric's direction.
pub fn worsening(before: f64, after: f64, higher_is_better: bool) -> f64 {
    let rel = (after - before) / before;
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 8.0, 7.0]);
        assert_eq!((s.q1, s.q3, s.n), (2.0, 6.0, 8));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 99 windows leave 9.9 beyond p90: not enough.
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        // Millions of matches still stop at the ladder's top.
        assert_eq!(tail_percentile(16_000_000), 95.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
    }
}
