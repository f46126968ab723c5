//! Order statistics with the benchmark's percentile rule.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; otherwise the next lower rung of [`LADDER`] is used, and
//! the percentile actually reported travels with the value.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentile rungs, highest first.
pub const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A percentile as reported: which percentile, its value, and the number
/// of samples it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.0).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: u64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// Nearest-rank index of percentile `pct` in `n` sorted samples. The
/// small slack keeps binary rounding (99.9 % of 1000 = 999.0000000000001)
/// from moving the rank up by one.
fn rank(n: usize, pct: f64) -> usize {
    let r = (pct / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The nearest-rank percentile `pct` of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct)]
}

/// Samples strictly beyond the nearest-rank percentile `pct` of `n`.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pct) - 1
}

/// The highest rung of [`LADDER`] not above `max_pct` that has at least
/// [`MIN_BEYOND`] samples beyond it. `None` when even the median lacks
/// them (fewer than 20 samples).
pub fn tail(sorted: &[u64], max_pct: f64) -> Option<Tail> {
    let n = sorted.len();
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= max_pct)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .map(|pct| Tail {
            pct,
            value: percentile(sorted, pct),
            n,
        })
}

/// Median of `values` (mean of the middle pair for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
