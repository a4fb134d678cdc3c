//! Order statistics of a handful of samples. Never a best-of: a result
//! carries its median, both quartiles, the extremes and the sample count.

/// The five-number summary of one metric's samples, with their count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize `samples`, or `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (&min, &max) = (s.first()?, s.last()?);
        let [q1, median, q3] = quartiles(&s);
        Some(Summary {
            n: s.len(),
            min,
            q1,
            median,
            q3,
            max,
        })
    }

    /// Distance between the quartiles as a share of the median: the
    /// run-to-run spread the comparator sets against a bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three quartile cut points of sorted `s`, by the exclusive method
/// that Python's `statistics.quantiles(s, n=4)` uses by default: cut `k`
/// sits at rank `k(n+1)/4`, interpolated linearly and clamped to the data.
/// A single sample is its own quartiles.
fn quartiles(s: &[f64]) -> [f64; 3] {
    let n = s.len();
    if n == 1 {
        return [s[0]; 3];
    }
    [1usize, 2, 3].map(|k| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5], clamped by
        // Python too only at the ends of the rank range, not of the values.
        let s = Summary::of(&[1.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0, 9.0, 5.0]).unwrap().median, 3.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 2.0, 3.0]).unwrap().median, 2.5);
    }

    #[test]
    fn one_sample_and_none() {
        let s = Summary::of(&[7.5]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.5, 7.5, 7.5, 0.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
