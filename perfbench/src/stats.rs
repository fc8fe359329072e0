//! Small summary statistics over timing samples.

/// Bytes as MiB.
#[must_use]
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / f64::from(1u32 << 20)
}

/// Nanoseconds as seconds.
#[must_use]
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Arithmetic mean; 0 for no samples.
#[must_use]
pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64
    }
}

/// The `p` quantile (0 ≤ p ≤ 1), interpolating linearly between the two
/// nearest ranks; 0 for no samples.
#[must_use]
pub fn percentile(xs: &[u64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
    quantile(&mut sorted, p)
}

/// Median; 0 for no samples.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(&mut xs.to_vec(), 0.5)
}

fn quantile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7], 0.9), 7.0);
        assert_eq!(percentile(&[4, 1, 3, 2], 0.5), 2.5);
        assert_eq!(
            percentile(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110], 0.9),
            100.0
        );
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1, 2, 3, 6]), 3.0);
    }
}
