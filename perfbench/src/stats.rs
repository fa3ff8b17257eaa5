//! Percentiles under the ten-beyond rule, and medians.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub(crate) const MIN_BEYOND: usize = 10;

/// A reported percentile with the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Percentile {
    pub(crate) value: f64,
    pub(crate) samples: usize,
    pub(crate) beyond: usize,
}

/// The nearest-rank percentile `per_mille / 1000` of `samples`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub(crate) fn percentile(samples: &[f64], per_mille: usize) -> Option<Percentile> {
    let n = samples.len();
    let rank = (n * per_mille).div_ceil(1000).max(1);
    let beyond = n.checked_sub(rank)?;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// The median of a non-empty `values` (the mean of the middle two for
/// an even count).
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n, n-1, …, 1`: unsorted on purpose.
    fn countdown(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let p99 = percentile(&countdown(1000), 990).expect("ten samples beyond");
        assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
        assert_eq!(percentile(&countdown(999), 990), None);

        let p50 = percentile(&countdown(20), 500).expect("ten samples beyond");
        assert_eq!((p50.value, p50.beyond), (10.0, 10));
        assert_eq!(percentile(&countdown(19), 500), None);
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
