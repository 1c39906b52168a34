//! Sample statistics with the benchmark's tail rule: a percentile is only
//! reported when at least [`MIN_TAIL`] samples lie beyond it, so a p90 needs
//! 100 samples and a p95 needs 200.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of `samples` (`q` in `(0, 1)`): the smallest
/// sample with at least a `q` share of the samples at or below it. Fails
/// when fewer than [`MIN_TAIL`] samples lie beyond the chosen rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile q must lie in (0, 1)");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // The epsilon keeps `0.9 * 100 = 90.00000000000001` at rank 90.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    let beyond = n - rank.min(n);
    if beyond < MIN_TAIL {
        return Err(format!(
            "p{} of {n} samples leaves {beyond} beyond it; at least {MIN_TAIL} are required",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample (the lower middle for an even count), for
/// small repeated measurements such as set-up repetitions.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n, descending so the helper has to sort.
        (0..n).map(|i| (n - i) as f64).collect()
    }

    #[test]
    fn nearest_rank_values() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5).unwrap(), 50.0);
        assert_eq!(percentile(&s, 0.9).unwrap(), 90.0);
        let s = ramp(1000);
        assert_eq!(percentile(&s, 0.99).unwrap(), 990.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p90 of 100 samples leaves exactly 10 beyond: allowed.
        let v = percentile(&ramp(100), 0.9).unwrap();
        assert_eq!(ramp(100).iter().filter(|&&x| x > v).count(), 10);
        // 99 samples leave 9 beyond: refused.
        assert!(percentile(&ramp(99), 0.9).is_err());
        // p99 needs 1000, p95 needs 200.
        assert!(percentile(&ramp(999), 0.99).is_err());
        assert!(percentile(&ramp(1000), 0.99).is_ok());
        assert!(percentile(&ramp(199), 0.95).is_err());
        assert!(percentile(&ramp(200), 0.95).is_ok());
        // Even the median needs a tail.
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert!(percentile(&ramp(20), 0.5).is_ok());
    }

    #[test]
    fn every_accepted_percentile_has_its_tail() {
        for n in 1..400 {
            for q in [0.5, 0.9, 0.95] {
                let s = ramp(n);
                if let Ok(v) = percentile(&s, q) {
                    assert!(s.iter().filter(|&&x| x > v).count() >= MIN_TAIL);
                    assert!(s.iter().filter(|&&x| x <= v).count() as f64 >= q * n as f64);
                }
            }
        }
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
