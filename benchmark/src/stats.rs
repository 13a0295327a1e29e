//! Percentiles and the median-of-segments rule.
//!
//! Every timed number is computed per segment (a slice of a phase, a
//! batch of a probe) and reported as the median of the segments, with
//! the smallest and largest segment beside it and the number of raw
//! samples behind them.

/// Segments a layer probe is cut into.
pub const SEGMENTS: usize = 5;

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of floats (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A metric as reported: the median of its segment values, their
/// range, and the number of raw samples behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub samples: u64,
}

impl Summary {
    pub fn median_of(values: &[f64], samples: u64) -> Summary {
        Summary {
            value: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples,
        }
    }

    /// A metric with a single observation (no segments).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            min: value,
            max: value,
            samples: 1,
        }
    }
}

/// `p`-th percentile of unsorted samples, as a float.
pub fn percentile_of(samples: &mut [u64], p: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, p) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 99.0), 10);
        assert_eq!(percentile(&v, 10.0), 1);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 100.0), 10);
        assert_eq!(percentile(&[7], 50.0), 7);
        let odd = [1, 2, 3, 4, 100];
        assert_eq!(percentile(&odd, 50.0), 3);
        assert_eq!(percentile(&odd, 80.0), 4);
        assert_eq!(percentile(&odd, 81.0), 100);
    }

    #[test]
    fn median_of_segments() {
        let s = Summary::median_of(&[13.0, 10.0, 28.0, 10.4, 3.1], 2_100);
        assert_eq!((s.value, s.min, s.max, s.samples), (10.4, 3.1, 28.0, 2_100));
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(Summary::single(7.0).value, 7.0);
        assert_eq!(percentile_of(&mut [9, 1, 5], 50.0), 5.0);
    }
}
