//! Order statistics for the reported metrics.

/// Median of `xs` (sorts in place; 0 for an empty slice).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (sorts in place; 0 for an empty slice).
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of an integer-valued histogram (`hist[v]` = how
/// often `v` occurred), read as grouped data: each value `v` is spread
/// evenly over `[v, v + 1)`. Unlike the plain order statistic, this moves
/// smoothly when the distribution shifts within a value.
pub fn grouped_quantile(hist: &[u64], q: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut below = 0.0;
    for (v, &count) in hist.iter().enumerate() {
        let c = count as f64;
        if count > 0 && below + c >= target {
            return v as f64 + (target - below) / c;
        }
        below += c;
    }
    hist.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(grouped_quantile(&[0, 2, 2], 0.5), 2.0);
        assert_eq!(grouped_quantile(&[0, 4], 0.25), 1.25);
    }
}
