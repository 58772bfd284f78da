//! Order statistics the benchmark reports: exact, no interpolation surprises.

/// Median of `v` (mean of the two middle values for even lengths); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `q` of the sample at or below it (the same rule as
/// `bench::loadgen`). 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The value a `share` of the way in from the *better* end of `v` (nearest
/// rank): the `share` quantile when lower is better, the `1 - share` one when
/// higher is. Interference on a shared host is one-sided — a neighbour, a
/// stolen vCPU or a stalled generator only ever makes a step or a window
/// slower — and it comes and goes in stretches longer than a window, so a
/// figure from near the better end repeats where the median follows whatever
/// share of the run happened to be disturbed (measured: `cluster_mix`
/// capacity 15.1–17.1 k by median, 16.6–17.4 k by upper quartile, over the
/// same five runs). Not the extreme itself: one lucky window must not speak
/// for the run. A real regression moves every quantile, this one included.
pub fn better_quantile(v: &[f64], share: f64, lower_is_better: bool) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if !lower_is_better {
        s.reverse();
    }
    let rank = ((share * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn better_quantile_leans_toward_the_undisturbed_side() {
        let v = [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(better_quantile(&v, 0.25, true), 2.0, "2nd smallest of 8");
        assert_eq!(better_quantile(&v, 0.25, false), 7.0, "2nd largest of 8");
        assert_eq!(better_quantile(&v, 0.10, true), 1.0, "the best of 8");
        assert_eq!(better_quantile(&[5.0, 1.0, 9.0], 0.25, true), 1.0);
        assert_eq!(better_quantile(&[5.0], 0.10, false), 5.0);
        assert_eq!(better_quantile(&[], 0.10, true), 0.0);
        // Thirty calm windows: the tenth-share figure is the 3rd best, and
        // disturbing two thirds of the windows does not move it.
        let calm: Vec<f64> = (0..30).map(|i| 10.0 + 0.01 * i as f64).collect();
        let mut hit = calm.clone();
        for x in hit.iter_mut().skip(10) {
            *x *= 1.6;
        }
        assert_eq!(better_quantile(&calm, 0.10, true), 10.02);
        assert_eq!(better_quantile(&hit, 0.10, true), 10.02);
    }

    #[test]
    fn percentiles_are_nearest_rank_order_statistics() {
        let v = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.90), 90);
        assert_eq!(percentile_sorted(&v, 0.91), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 10);
        assert_eq!(percentile_sorted(&v[..1], 0.99), 10);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }
}
