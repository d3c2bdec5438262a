//! Scalar summary statistics.

use std::fmt;

/// Mean / standard deviation / min / max / count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean (0.0 for an empty sample).
    pub mean: f64,
    /// Population standard deviation (0.0 for fewer than two samples).
    pub stddev: f64,
    /// Minimum (0.0 for an empty sample).
    pub min: f64,
    /// Maximum (0.0 for an empty sample).
    pub max: f64,
}

impl Summary {
    /// Computes a summary over an iterator of samples.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let mut count = 0usize;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in values {
            count += 1;
            sum += v;
            sum_sq += v * v;
            min = min.min(v);
            max = max.max(v);
        }
        if count == 0 {
            return Self {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = count as f64;
        let mean = sum / n;
        let variance = (sum_sq / n - mean * mean).max(0.0);
        Self {
            count,
            mean,
            stddev: variance.sqrt(),
            min,
            max,
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:.1} ± {:.1} (min {:.1}, max {:.1}, n={})",
            self.mean, self.stddev, self.min, self.max, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample() {
        let s = Summary::of([]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn known_values() {
        let s = Summary::of([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stddev, 2.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn single_value_has_zero_stddev() {
        let s = Summary::of([3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
    }

    #[test]
    fn display_format() {
        let s = Summary::of([1.0, 3.0]);
        assert_eq!(s.to_string(), "mean 2.0 ± 1.0 (min 1.0, max 3.0, n=2)");
    }
}
