//! Order statistics over rep times.
//!
//! The headline estimator is the *minimum*: host noise on a shared box
//! is one-sided (a noisy neighbour only ever slows a rep down), so the
//! floor of many interleaved reps repeats within a few percent where
//! the median does not (see README, "Estimator evidence"). Median and
//! quartiles are kept as diagnostics.

/// Five-number summary of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Smallest value, or NaN for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Quartile cut points by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here
/// and by an outside checker agree. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Middle value (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Min, quartiles and max of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(values);
    Summary {
        n: values.len(),
        min: min(values),
        q1,
        median,
        q3,
        max: values.iter().copied().fold(f64::NAN, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_median_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(min(&[4.0, 1.5, 3.0]), 1.5);
        assert!(min(&[]).is_nan());
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);

        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (3, 1.0, 3.0, 5.0));
    }
}
