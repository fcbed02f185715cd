//! Box-plot statistics matching the paper's figure convention:
//! "each plot is centered on the median values, with the box covering
//! the 25th and 75th percentile … whiskers extended 1.5× the
//! interquartile range … outliers are marked by dots" (§V-B) — plus the
//! shared accuracy-normalization helper every trial path reports
//! through, and the best-of-N timer the micro-benchmark binaries share.

use crate::nets::PreparedNet;
use milr_nn::Sequential;
use std::time::Instant;

/// Best-of-`trials` wall time of `f`, in nanoseconds. The minimum is
/// the run least disturbed by the scheduler, caches and frequency
/// changes, so it is the steadiest estimate of the code's own cost.
pub fn best_ns(trials: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..trials {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

/// Measures `model` on the prepared network's held-out test set and
/// returns `(accuracy, normalized)` where `normalized` is relative to
/// the error-free network — the y-axis of every figure.
pub fn normalized_accuracy(prep: &PreparedNet, model: &Sequential) -> (f64, f64) {
    let accuracy = model
        .accuracy(&prep.test.images, &prep.test.labels)
        .unwrap_or(0.0);
    let normalized = if prep.clean_accuracy > 0.0 {
        accuracy / prep.clean_accuracy
    } else {
        0.0
    };
    (accuracy, normalized)
}

/// Five-number summary plus outliers over a set of trial outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxStats {
    /// Median.
    pub median: f64,
    /// 25th percentile.
    pub q1: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Lower whisker (smallest value ≥ q1 − 1.5·IQR).
    pub lo: f64,
    /// Upper whisker (largest value ≤ q3 + 1.5·IQR).
    pub hi: f64,
    /// Values outside the whiskers.
    pub outliers: Vec<f64>,
    /// Arithmetic mean (not plotted by the paper, useful in text).
    pub mean: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

impl BoxStats {
    /// Computes the summary. NaN inputs are dropped.
    ///
    /// # Panics
    ///
    /// Panics when every sample is NaN or the input is empty.
    pub fn compute(samples: &[f64]) -> Self {
        let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        assert!(!v.is_empty(), "no finite samples");
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let q1 = percentile(&v, 0.25);
        let median = percentile(&v, 0.5);
        let q3 = percentile(&v, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let lo = v.iter().copied().find(|&x| x >= lo_fence).unwrap_or(v[0]);
        let hi = v
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= hi_fence)
            .unwrap_or(v[v.len() - 1]);
        let outliers: Vec<f64> = v
            .iter()
            .copied()
            .filter(|&x| x < lo_fence || x > hi_fence)
            .collect();
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        BoxStats {
            median,
            q1,
            q3,
            lo,
            hi,
            outliers,
            mean,
        }
    }

    /// One-line rendering used by the figure binaries.
    pub fn row(&self) -> String {
        format!(
            "median {:6.3}  q1 {:6.3}  q3 {:6.3}  whiskers [{:6.3}, {:6.3}]  outliers {}",
            self.median,
            self.q1,
            self.q3,
            self.lo,
            self.hi,
            self.outliers.len()
        )
    }

    /// The summary as a flat JSON object — the figure binaries' `--json`
    /// artifacts carry full box-plot statistics per point.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"median\":{:.6},\"q1\":{:.6},\"q3\":{:.6},",
                "\"lo\":{:.6},\"hi\":{:.6},\"mean\":{:.6},\"outliers\":{}}}"
            ),
            self.median,
            self.q1,
            self.q3,
            self.lo,
            self.hi,
            self.mean,
            self.outliers.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_number_summary() {
        let s = BoxStats::compute(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.lo, 1.0);
        assert_eq!(s.hi, 5.0);
        assert!(s.outliers.is_empty());
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn outliers_detected() {
        let s = BoxStats::compute(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -10.0]);
        assert_eq!(s.outliers, vec![-10.0]);
        assert_eq!(s.lo, 1.0);
    }

    #[test]
    fn single_sample() {
        let s = BoxStats::compute(&[0.5]);
        assert_eq!(s.median, 0.5);
        assert_eq!(s.lo, 0.5);
        assert_eq!(s.hi, 0.5);
    }

    #[test]
    fn nan_dropped() {
        let s = BoxStats::compute(&[f64::NAN, 2.0, 4.0]);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    #[should_panic(expected = "no finite samples")]
    fn all_nan_panics() {
        BoxStats::compute(&[f64::NAN]);
    }

    #[test]
    fn row_renders() {
        let s = BoxStats::compute(&[1.0, 2.0]);
        assert!(s.row().contains("median"));
    }
}
