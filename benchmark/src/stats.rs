//! Exact order statistics over client-side samples.
//!
//! Nothing here buckets: every percentile is a rank in a sorted vector,
//! unlike the server's own `STATS` histogram (powers of two, up to 2x
//! error), which the benchmark only ever reports as a per-layer figure.

/// Sorts samples ascending. Timings are never NaN, so the total order
/// is safe.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Nearest-rank percentile of sorted samples: the smallest sample with
/// at least `q` (0..=1) of the distribution at or below it. Zero for an
/// empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // Counts stay far below 2^52 and the product is non-negative.
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation
    )]
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    sort(values);
    quantile_sorted(values, q)
}

/// The median (nearest rank).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The *quiet* value of repeated timings of the same work: the second
/// decile boundary from the fast side, which is the fastest repetition
/// when there are fewer than ten.
///
/// The benchmark box is a shared two-core VM: the median of a pure CPU
/// loop over ten-second windows moves by a fifth between windows, its
/// fastest tenth by a fortieth (README, "Why quiet deciles"). Slow
/// repetitions measure the neighbours, not the program, so every
/// repeated timing is summarised from the quiet side.
pub fn quiet(values: &mut [f64]) -> f64 {
    sort(values);
    if values.is_empty() {
        return 0.0;
    }
    values[values.len() / 10]
}

/// The mirror image of [`quiet`] for rates (higher is better): the
/// ninth decile boundary, the best sample under ten.
pub fn quiet_rate(values: &mut [f64]) -> f64 {
    sort(values);
    if values.is_empty() {
        return 0.0;
    }
    values[values.len() - 1 - values.len() / 10]
}

/// Quartiles by the method Python's `statistics.quantiles(v, n=4)` uses
/// (exclusive, linear interpolation), which is what the acceptance
/// procedure computes spreads with. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |i: usize| {
        // j = i * (n + 1) / 4, split into whole and fractional parts,
        // clamped the way CPython clamps it.
        let num = i * (n + 1);
        let j = (num / 4).clamp(1, n - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = num as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_data() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        // Five samples: p50 is the third, p99 the fifth.
        let mut w = vec![50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(median(&mut w), 30.0);
        assert_eq!(quantile_sorted(&w, 0.99), 50.0);
    }

    #[test]
    fn quiet_is_the_fast_decile_and_the_minimum_under_ten() {
        let mut few = vec![5.0, 3.0, 9.0];
        assert_eq!(quiet(&mut few), 3.0);
        assert_eq!(quiet_rate(&mut few), 9.0);
        let mut many: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(quiet(&mut many), 4.0);
        assert_eq!(quiet_rate(&mut many), 35.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (a, b, c) = quartiles(&v).unwrap();
        assert!((a - 2.75).abs() < 1e-12 && (b - 5.5).abs() < 1e-12 && (c - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (a, b, c) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((a, b, c), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (a, b, c) = quartiles(&[1.0, 2.0]).unwrap();
        assert_eq!((a, b, c), (0.75, 1.5, 2.25));
        assert!(quartiles(&[1.0]).is_none());
    }
}
