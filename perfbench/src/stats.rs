//! Order statistics over measured samples, and the reporting rule for
//! timings: a median plus the highest percentile that still has at least
//! ten samples beyond it.

/// Sorted copy of `samples` (NaN-free by construction: every sample is a
/// measured duration or ratio).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an already sorted
/// slice; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The percentiles the tail rule may report, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile (from 99.9 down to 50) with at least ten
/// samples strictly above its rank, and its value; `None` when fewer than
/// eleven samples exist.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_CANDIDATES.iter().find_map(|&pct| {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        let beyond = n.saturating_sub(rank.max(1));
        (beyond >= 10).then(|| (pct, quantile(sorted, pct / 100.0)))
    })
}

/// A one-line human summary of a timing: median, tail and sample count.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let s = sorted(samples);
    let p50 = quantile(&s, 0.5);
    match tail(&s) {
        Some((pct, value)) => format!(
            "{name}: p50 {p50:.3} {unit}, p{pct} {value:.3} {unit} (n={})",
            s.len()
        ),
        None => format!(
            "{name}: p50 {p50:.3} {unit}, max {:.3} {unit} (n={}, too few for a tail)",
            s.last().copied().unwrap_or(0.0),
            s.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&few).is_none());
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&many).map(|(p, _)| p), Some(99.0));
        let some: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&some).map(|(p, _)| p), Some(90.0));
    }
}
