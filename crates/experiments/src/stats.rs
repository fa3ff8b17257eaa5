//! Statistics for the simulated studies: descriptives, two-sample tests,
//! agreement, and effect sizes.
//!
//! P-values use the standard normal approximation (adequate for the
//! sample sizes the harness generates, n ≥ 20 per arm); this is stated
//! rather than hidden because the experiments report the statistic itself
//! alongside the p-value.
//!
//! Every public function returns `Result`: malformed samples (empty,
//! too small, NaN-bearing, ragged) are [`StatsError`] values, never
//! panics, so the experiment pipeline can surface them to its caller.

use std::fmt;

/// Why a statistic could not be computed from the given sample(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// A sample was empty where at least one observation is required.
    EmptySample,
    /// A sample had fewer observations than the statistic needs.
    TooFewObservations {
        /// Minimum observations required per sample.
        needed: usize,
        /// Observations actually supplied.
        got: usize,
    },
    /// A sample contained NaN, which has no mean.
    NanInput,
    /// Fewer raters than the agreement measure needs.
    TooFewRaters {
        /// Raters supplied.
        got: usize,
    },
    /// A rating matrix had rows of unequal length.
    RaggedRatings,
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptySample => write!(f, "cannot describe an empty sample"),
            StatsError::TooFewObservations { needed, got } => {
                write!(f, "need n \u{2265} {needed} per sample, got {got}")
            }
            StatsError::NanInput => write!(f, "samples must not contain NaN"),
            StatsError::TooFewRaters { got } => {
                write!(f, "need at least two raters, got {got}")
            }
            StatsError::RaggedRatings => write!(f, "ragged rating matrix"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Descriptive statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Descriptives {
    /// Sample size.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub sd: f64,
    /// Standard error of the mean.
    pub se: f64,
    /// 95% confidence half-width (normal approximation).
    pub ci95: f64,
}

/// Computes descriptives.
///
/// # Errors
///
/// [`StatsError::EmptySample`] on an empty sample and
/// [`StatsError::NanInput`] when the sample contains NaN.
pub fn describe(sample: &[f64]) -> Result<Descriptives, StatsError> {
    if sample.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if sample.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NanInput);
    }
    let n = sample.len();
    let mean = sample.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        sample.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    let sd = var.sqrt();
    let se = sd / (n as f64).sqrt();
    Ok(Descriptives {
        n,
        mean,
        sd,
        se,
        ci95: 1.96 * se,
    })
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(z: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26 via erf.
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Result of a two-sample test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic (t or z, per the test).
    pub statistic: f64,
    /// Two-sided p-value (normal approximation).
    pub p_value: f64,
}

/// Welch's unequal-variance t-test (two-sided, normal-approximated p).
///
/// # Errors
///
/// [`StatsError::TooFewObservations`] if either sample has fewer than two
/// observations; [`StatsError::NanInput`] on NaN.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Result<TestResult, StatsError> {
    let got = a.len().min(b.len());
    if got < 2 {
        return Err(StatsError::TooFewObservations { needed: 2, got });
    }
    let da = describe(a)?;
    let db = describe(b)?;
    let se2 = da.sd.powi(2) / da.n as f64 + db.sd.powi(2) / db.n as f64;
    let t = if se2 == 0.0 {
        if da.mean == db.mean {
            0.0
        } else if da.mean > db.mean {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        (da.mean - db.mean) / se2.sqrt()
    };
    let p = if t.is_infinite() {
        0.0
    } else {
        2.0 * (1.0 - normal_cdf(t.abs()))
    };
    Ok(TestResult {
        statistic: t,
        p_value: p.clamp(0.0, 1.0),
    })
}

/// Cohen's d (pooled-SD standardised mean difference).
///
/// # Errors
///
/// [`StatsError::TooFewObservations`] if either sample has fewer than two
/// observations; [`StatsError::NanInput`] on NaN.
pub fn cohens_d(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    let got = a.len().min(b.len());
    if got < 2 {
        return Err(StatsError::TooFewObservations { needed: 2, got });
    }
    let da = describe(a)?;
    let db = describe(b)?;
    let pooled = (((da.n - 1) as f64 * da.sd.powi(2) + (db.n - 1) as f64 * db.sd.powi(2))
        / ((da.n + db.n - 2) as f64))
        .sqrt();
    Ok(if pooled == 0.0 {
        0.0
    } else {
        (da.mean - db.mean) / pooled
    })
}

/// Mean pairwise agreement among k raters over binary judgments: the
/// fraction of rater pairs agreeing, averaged over items. 1.0 = everyone
/// always agrees.
///
/// # Errors
///
/// [`StatsError::TooFewRaters`] with fewer than two raters;
/// [`StatsError::EmptySample`] with zero items;
/// [`StatsError::RaggedRatings`] when rows differ in length.
pub fn pairwise_agreement(ratings: &[Vec<bool>]) -> Result<f64, StatsError> {
    if ratings.len() < 2 {
        return Err(StatsError::TooFewRaters { got: ratings.len() });
    }
    let items = ratings[0].len();
    if items == 0 {
        return Err(StatsError::EmptySample);
    }
    if ratings.iter().any(|r| r.len() != items) {
        return Err(StatsError::RaggedRatings);
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..ratings.len() {
        for j in i + 1..ratings.len() {
            pairs += 1;
            let agree = ratings[i]
                .iter()
                .zip(&ratings[j])
                .filter(|(x, y)| x == y)
                .count();
            total += agree as f64 / items as f64;
        }
    }
    Ok(total / pairs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_basics() {
        let d = describe(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((d.mean - 5.0).abs() < 1e-12);
        assert!((d.sd - 2.138089935299395).abs() < 1e-9);
        assert_eq!(d.n, 8);
        assert!(d.ci95 > 0.0);
    }

    #[test]
    fn describe_single_point() {
        let d = describe(&[3.0]).unwrap();
        assert_eq!(d.mean, 3.0);
        assert_eq!(d.sd, 0.0);
    }

    #[test]
    fn describe_empty_is_an_error() {
        assert_eq!(describe(&[]), Err(StatsError::EmptySample));
    }

    #[test]
    fn describe_nan_is_an_error() {
        assert_eq!(describe(&[1.0, f64::NAN]), Err(StatsError::NanInput));
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(5.0) > 0.999);
    }

    #[test]
    fn welch_distinguishes_separated_samples() {
        let a: Vec<f64> = (0..30).map(|i| 10.0 + (i % 5) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..30).map(|i| 12.0 + (i % 5) as f64 * 0.1).collect();
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.statistic < -10.0);
        assert!(r.p_value < 0.001);
    }

    #[test]
    fn welch_accepts_identical_samples() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let r = welch_t_test(&a, &a).unwrap();
        assert_eq!(r.statistic, 0.0);
        assert!(r.p_value > 0.99);
    }

    #[test]
    fn welch_zero_variance_distinct_means() {
        let r = welch_t_test(&[1.0, 1.0], &[2.0, 2.0]).unwrap();
        assert!(r.statistic.is_infinite());
        assert_eq!(r.p_value, 0.0);
    }

    #[test]
    fn welch_undersized_sample_is_an_error() {
        assert_eq!(
            welch_t_test(&[1.0], &[2.0, 3.0]),
            Err(StatsError::TooFewObservations { needed: 2, got: 1 })
        );
    }

    #[test]
    fn cohens_d_magnitude() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let b = vec![3.0, 4.0, 5.0, 6.0, 7.0];
        let d = cohens_d(&a, &b).unwrap();
        assert!((d + 1.2649110640673518).abs() < 1e-9);
        assert_eq!(cohens_d(&a, &a), Ok(0.0));
    }

    #[test]
    fn cohens_d_undersized_sample_is_an_error() {
        assert_eq!(
            cohens_d(&[], &[1.0, 2.0]),
            Err(StatsError::TooFewObservations { needed: 2, got: 0 })
        );
    }

    #[test]
    fn pairwise_agreement_bounds() {
        let all_agree = vec![vec![true, false], vec![true, false], vec![true, false]];
        assert!((pairwise_agreement(&all_agree).unwrap() - 1.0).abs() < 1e-12);
        let half = vec![vec![true, true], vec![true, false]];
        assert!((pairwise_agreement(&half).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pairwise_agreement_shape_errors() {
        assert_eq!(
            pairwise_agreement(&[vec![true]]),
            Err(StatsError::TooFewRaters { got: 1 })
        );
        assert_eq!(
            pairwise_agreement(&[vec![], vec![]]),
            Err(StatsError::EmptySample)
        );
        assert_eq!(
            pairwise_agreement(&[vec![true], vec![true, false]]),
            Err(StatsError::RaggedRatings)
        );
    }

    #[test]
    fn errors_render_for_humans() {
        assert!(StatsError::EmptySample.to_string().contains("empty"));
        assert!(StatsError::NanInput.to_string().contains("NaN"));
        assert!(StatsError::TooFewObservations { needed: 2, got: 1 }
            .to_string()
            .contains('2'));
        assert!(StatsError::RaggedRatings.to_string().contains("ragged"));
    }
}
