//! Percentiles, slice medians and quartile spreads.
//!
//! Every end-to-end metric is computed once per slice; the reported
//! value is the median slice and the inter-quartile range over slices
//! is kept beside it, so a reader can tell a shift from noise.

/// The `q`-quantile (0.0 ..= 1.0) of an ascending slice by nearest rank.
/// Empty input yields 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Sorts in place and returns the `q`-quantile.
pub fn percentile_of(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, q)
}

/// Median with the mean of the two middle values for even counts.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spread printed here is the spread the acceptance check computes.
/// Fewer than two values have no spread: both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        let delta = delta.clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// A per-slice metric reduced to what is reported: the median slice and
/// the distance between the quartiles of the slices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median over slices.
    pub median: f64,
    /// Third minus first quartile over slices.
    pub iqr: f64,
    /// How many slices went in.
    pub slices: usize,
}

/// Reduces per-slice values to a [`Summary`].
pub fn summarize(per_slice: &[f64]) -> Summary {
    let (q1, q3) = quartiles(per_slice);
    Summary {
        median: median(per_slice),
        iqr: q3 - q1,
        slices: per_slice.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        let mut unsorted = [3.0, 1.0, 2.0];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 2.0);
        // p99 of 1..=1000 is the 990th value by nearest rank.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), 990.0);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6], n=4) == [1.75, 3.5, 5.25]
        let (q1, q3) = quartiles(&[6.0, 1.0, 5.0, 2.0, 4.0, 3.0]);
        assert!((q1 - 1.75).abs() < 1e-12, "{q1}");
        assert!((q3 - 5.25).abs() < 1e-12, "{q3}");
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: python
        // extrapolates; this clamps to the data instead.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((1.0..=2.0).contains(&q1) && (1.0..=2.0).contains(&q3));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summary_is_median_slice_with_iqr() {
        let s = summarize(&[100.0, 104.0, 96.0, 98.0, 102.0, 300.0]);
        assert_eq!(s.median, 101.0, "one wild slice does not move the median");
        assert_eq!(s.slices, 6);
        assert!(s.iqr > 0.0);
        let flat = summarize(&[5.0; 6]);
        assert_eq!((flat.median, flat.iqr), (5.0, 0.0));
    }
}
