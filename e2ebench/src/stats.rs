//! Small statistics and verdict helpers shared by the runner and the
//! report: medians, quartiles, tail percentiles, the failed-operation
//! share, the adaptation-log digest, and the pass / unresolved rule.

/// Median of `xs` (mean of the two middle values for even counts).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile with the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// Quartile distance as a share of the median: the spread measure the
/// benchmark's bounds are compared against.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The highest whole percentile that still has at least ten samples
/// strictly beyond it, with its nearest-rank value: `(p, value)`.
/// `None` when the sample is too small for any percentile above the
/// median to qualify (fewer than 20 samples).
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 20 {
        return None;
    }
    // p qualifies when the samples above rank ceil(p·n/100) number ≥ 10.
    (50..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

/// Share of failed or mismatching operations among those attempted.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

/// FNV-1a 64-bit digest of a text (the adaptation log), as hex.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Verdict of one gated metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within its bound, and the bound is wider than the noise floor.
    Pass,
    /// Worse than the bound allows.
    Fail,
    /// The bound sits inside the measured run-to-run spread, so a
    /// within-bound result says nothing: never reported as a pass.
    Unresolved,
}

impl Verdict {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares `current` against `baseline` for a metric whose worsening
/// may not exceed `bound` (a share of the baseline), given the metric's
/// measured A/A `noise_floor` (also a share). A regression beyond the
/// bound fails; otherwise the result passes only if the bound is wider
/// than the noise floor.
pub fn verdict(
    baseline: f64,
    current: f64,
    lower_is_better: bool,
    bound: f64,
    noise_floor: f64,
) -> Verdict {
    let worse = if lower_is_better {
        (current - baseline) / baseline.abs()
    } else {
        (baseline - current) / baseline.abs()
    };
    if worse > bound {
        Verdict::Fail
    } else if bound <= noise_floor {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), None);
        // 20 samples: p50 (rank 10) leaves exactly 10 above.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((50, 10.0)));
        // 100 samples: p90 (rank 90) leaves 10 above, p91 only 9.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90, 90.0)));
        // 1000 samples: p99 (rank 990) leaves 10 above.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99, 990.0)));
    }

    #[test]
    fn failed_share_handles_zero_attempts() {
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(failed_share(0, 12), 0.0);
        assert_eq!(failed_share(3, 12), 0.25);
    }

    #[test]
    fn digest_is_fnv1a_and_sensitive() {
        // FNV-1a 64 of the empty string is the offset basis.
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
        assert_ne!(digest("epoch 0 drop f"), digest("epoch 0 drop g"));
        assert_eq!(digest("same log"), digest("same log"));
    }

    #[test]
    fn bound_inside_noise_is_unresolved_never_pass() {
        // 2% worse, bound 10%, noise 3%: resolved pass.
        assert_eq!(verdict(100.0, 102.0, true, 0.10, 0.03), Verdict::Pass);
        // Same result, but the noise floor is wider than the bound.
        assert_eq!(verdict(100.0, 102.0, true, 0.10, 0.12), Verdict::Unresolved);
        // Equal bound and noise floor cannot resolve either.
        assert_eq!(verdict(100.0, 100.0, true, 0.10, 0.10), Verdict::Unresolved);
        // Beyond the bound fails whatever the noise.
        assert_eq!(verdict(100.0, 115.0, true, 0.10, 0.12), Verdict::Fail);
        // Higher-is-better metrics worsen downwards.
        assert_eq!(verdict(100.0, 85.0, false, 0.10, 0.03), Verdict::Fail);
        assert_eq!(verdict(100.0, 130.0, false, 0.10, 0.03), Verdict::Pass);
    }
}
