//! Summary statistics the benchmark reports.

use std::collections::BTreeSet;

use agentgrid_acl::ontology::Alert;

/// Nearest-rank percentile: the smallest sample with at least `q` % of
/// the samples at or below it, so `100 - q` % of them lie strictly
/// beyond it. `q` is in `(0, 100]`.
///
/// # Panics
///
/// Panics on an empty sample set or a `q` outside `(0, 100]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 100.0, "percentile rank {q} out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// The median; the mean of the two middle samples when their number is
/// even.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Alerts raised per distinct finding, a finding being one
/// `(rule, device, timestamp_ms)`: 1.0 when every finding is reported
/// exactly once. `None` when there are no alerts.
pub fn alerts_per_finding(alerts: &[Alert]) -> Option<f64> {
    let findings: BTreeSet<(&str, &str, u64)> = alerts
        .iter()
        .map(|a| (a.rule.as_str(), a.device.as_str(), a.timestamp_ms))
        .collect();
    (!findings.is_empty()).then(|| alerts.len() as f64 / findings.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_acl::ontology::Severity;

    #[test]
    fn p90_of_100_samples_leaves_ten_beyond_it() {
        // Shuffled 1..=100.
        let samples: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let p90 = percentile(&samples, 90.0);
        assert_eq!(p90, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > p90).count(), 10);
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[7.5], 90.0), 7.5);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn alerts_per_finding_counts_duplicate_reports() {
        let alert =
            |rule: &str, device: &str, ts| Alert::new(rule, device, Severity::Critical, "msg", ts);
        let alerts = vec![
            // One finding reported three times (three analysis tasks
            // covered the same series).
            alert("high-cpu", "r1", 60_000),
            alert("high-cpu", "r1", 60_000),
            alert("high-cpu", "r1", 60_000),
            // Same rule and device at a later round: a second finding.
            alert("high-cpu", "r1", 120_000),
            // Another device, reported twice.
            alert("link-down", "s2", 60_000),
            alert("link-down", "s2", 60_000),
        ];
        assert_eq!(alerts_per_finding(&alerts), Some(2.0));
        assert_eq!(alerts_per_finding(&alerts[3..4]), Some(1.0));
        assert_eq!(alerts_per_finding(&[]), None);
    }
}
