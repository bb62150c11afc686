//! Order statistics for timing samples.
//!
//! A stage timing is reported at a low percentile of its samples, with the
//! median printed beside it ([`low_percentile`] says why). A latency is
//! reported at the highest percentile that still has [`MIN_BEYOND`] samples
//! beyond it.

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a latency may be reported at, lowest first.
const LADDER: [u32; 4] = [50, 75, 90, 95];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The percentile a timing is reported at.
pub const LOW_PERCENTILE: u32 = 3;

/// What a timing is reported at: the [`LOW_PERCENTILE`]th percentile of its
/// samples by nearest rank — the fastest of up to 33 samples, the second
/// fastest of up to 66, the fifth of 150. On a shared host interference
/// comes in spells and only ever slows a sample, so the low end of a run's
/// samples repeats from run to run many times better than their median or
/// even their first decile; with a few hundred samples the very fastest
/// does not, because a core that happens to clock higher for a moment
/// produces a few samples ~10 % below the rest in some runs and none in
/// others (README, "Why a low percentile").
pub fn low_percentile(values: &[f64]) -> f64 {
    percentile(values, LOW_PERCENTILE)
}

/// The fastest (smallest) value; 0 when empty, like [`median`].
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

/// Median (mean of the two middle samples for an even count); 0 when
/// empty, so an untraced metric reads as "no samples".
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `q` in `(0, 100]`; 0 when empty. The 50th is
/// [`median`], so a latency whose highest qualifying percentile is the
/// median reads the same under both names.
pub fn percentile(values: &[f64], q: u32) -> f64 {
    let v = sorted(values);
    match (v.is_empty(), q) {
        (true, _) => 0.0,
        (_, 50) => median(&v),
        _ => v[rank(v.len(), q) - 1],
    }
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: u32) -> usize {
    (n * q as usize).div_ceil(100).clamp(1, n)
}

/// The highest percentile `≤ wanted` on the ladder with at least
/// [`MIN_BEYOND`] of `n` samples strictly beyond its rank; the median when
/// none qualifies (the median is always reported).
pub fn qualifying_percentile(n: usize, wanted: u32) -> u32 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| q <= wanted && n >= 1 && n - rank(n, q) >= MIN_BEYOND)
        .unwrap_or(50)
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, so spreads
/// computed here match the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, interpolated between the
        // neighbouring samples (extrapolated at the ends, as Python does).
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// bound is compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(fastest(&[]), 0.0);
        let v: Vec<f64> = (1..=52).map(f64::from).collect();
        assert_eq!(low_percentile(&v), 2.0);
        assert_eq!(low_percentile(&v[..33]), 1.0);
        let many: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(low_percentile(&many), 5.0);
        assert_eq!(low_percentile(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.5);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 95), 95.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 95), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 20 prove samples: ten lie beyond the median, nothing beyond p75.
        assert_eq!(qualifying_percentile(20, 95), 50);
        assert_eq!(qualifying_percentile(15, 95), 50);
        // p95 of n samples leaves n − ⌈0.95n⌉ beyond: ten from n = 200.
        assert_eq!(qualifying_percentile(199, 95), 90);
        assert_eq!(qualifying_percentile(200, 95), 95);
        assert_eq!(qualifying_percentile(600, 95), 95);
        // Never above what was asked for.
        assert_eq!(qualifying_percentile(10_000, 90), 90);
        // p75 needs 40, p90 needs 100.
        assert_eq!(qualifying_percentile(40, 95), 75);
        assert_eq!(qualifying_percentile(100, 95), 90);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
