//! Order statistics for the ledger: the median, the tail-percentile
//! rule, and the quartile spread the run-to-run criterion uses.

/// Sorts `xs` ascending (timings are never NaN).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of an ascending slice (mean of the two middle values when the
/// length is even); 0 for an empty slice.
pub fn median_sorted(xs: &[f64]) -> f64 {
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    median_sorted(&sorted(xs.to_vec()))
}

/// Zero-based rank of the reported tail sample among `n` ascending
/// samples: the nearest-rank 90th percentile, lowered until at least
/// ten samples lie beyond it.  With fewer than eleven samples no rank
/// qualifies and the maximum is reported.
pub fn tail_rank(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let p90 = (n * 9).div_ceil(10).max(1) - 1;
    if n >= 11 {
        p90.min(n - 11)
    } else {
        n - 1
    }
}

/// The tail sample chosen by [`tail_rank`] and the percentile it is.
pub fn tail_sorted(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let r = tail_rank(xs.len());
    (xs[r], 100.0 * (r + 1) as f64 / xs.len() as f64)
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the exclusive method), so spreads printed here are the spreads the
/// acceptance rule measures.  Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let xs = sorted(xs.to_vec());
    let m = xs.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        // At 100 samples and above the rule is the plain p90.
        assert_eq!(tail_rank(100), 89);
        assert_eq!(tail_rank(1000), 899);
        for n in 11..400 {
            let r = tail_rank(n);
            assert!(n - 1 - r >= 10, "n={n}: only {} beyond", n - 1 - r);
            assert!(r < (n * 9).div_ceil(10), "n={n}: above p90");
        }
        // Below 100 the percentile drops so that ten stay beyond.
        assert_eq!(tail_rank(60), 49);
        assert_eq!(tail_rank(11), 0);
        // Too few samples for the rule: the maximum.
        assert_eq!(tail_rank(10), 9);
        assert_eq!(tail_rank(1), 0);
    }

    #[test]
    fn tail_reports_its_percentile() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_sorted(&xs), (180.0, 90.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }
}
