//! Order statistics over latency samples.
//!
//! A percentile is reported only where the sample supports it: the
//! choosing-metrics rule is "the highest percentile that has at least
//! ten samples beyond it", so a p95 needs 200 samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 100]`.
/// Returns `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 50.0)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] of them beyond
/// the nearest-rank percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n >= rank + MIN_BEYOND
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_existing_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 95.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 199 samples: rank 190, only 9 beyond.
        assert!(!supports(199, 95.0));
        // 200 samples: rank 190, exactly 10 beyond.
        assert!(supports(200, 95.0));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        // A median needs 20 samples under the same rule.
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
    }
}
