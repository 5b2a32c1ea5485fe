//! The benchmark's statistics, in one place: median, quartiles, the
//! highest percentile that still has ten samples beyond it, and the
//! `VmHWM` reader behind `peak_rss_mb`.

/// Median of `values` (mean of the two middle samples for even counts).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile by the exclusive method — the numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the driver computes its spreads from. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        // Position q·(n+1)/4 in 1-based ranks; the rank is clamped into
        // the data and the remainder taken after clamping, so tiny
        // samples extrapolate exactly as Python does.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the spread the
/// driver holds against each metric's bound. 0 for fewer than two samples.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

/// Simulated years per wall-clock day: `steps` steps of `dt_s` simulated
/// seconds each, taken in `wall_s` seconds of wall clock.
pub fn sypd(steps: f64, dt_s: f64, wall_s: f64) -> f64 {
    (steps * dt_s / 86_400.0 / 365.0) / (wall_s / 86_400.0)
}

/// What a run reports from its episodes' fastest steps (or any per-episode
/// figure where lower is better). Interference from the host's other
/// tenants only ever slows a step, and it comes in stretches of seconds to
/// minutes. A workload that keeps every core busy (`saturated`) rarely
/// sees an undisturbed episode, so the run's fastest one is the estimate
/// that repeats. A workload that leaves a core free now and then catches
/// an unusually fast step (its thread alone on a physical core), so the
/// minimum jumps between runs and the lower quartile over the episodes
/// repeats better; it still ignores the disturbed three quarters.
pub fn quiet(values: &[f64], saturated: bool) -> f64 {
    assert!(!values.is_empty(), "quiet estimate of no samples");
    if saturated || values.len() < 2 {
        values.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        quartiles(values).0
    }
}

/// Nearest-rank percentile of `values`, `permille` in 0..=1000 (900 is
/// p90). Integer ranks: `0.9 * 100` is not 90 in floating point.
pub fn percentile(values: &[f64], permille: usize) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * permille).div_ceil(1000);
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that still has at least
/// ten samples beyond it, as `(permille, value)`; `None` below 40
/// samples, where not even p75 qualifies.
pub fn tail(values: &[f64]) -> Option<(usize, f64)> {
    let n = values.len();
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|pm| n - (n * pm).div_ceil(1000) >= 10)
        .map(|pm| (pm, percentile(values, pm)))
}

/// A `kB` field (`"VmHWM:"`, `"VmRSS:"`) in MiB out of the text of
/// `/proc/<pid>/status`.
pub fn parse_status_mb(status: &str, field: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_status_mb(&status, field).ok_or_else(|| format!("no {field} line in /proc/self/status"))
}

/// Peak resident set of this process in MiB (Linux only; the benchmark
/// refuses to report a made-up number elsewhere).
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

/// Resident set of this process right now, in MiB.
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: tiny
        // samples extrapolate.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[1.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..39).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        let v100: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 leaves exactly ten beyond it, p95 only five.
        assert_eq!(tail(&v100), Some((900, 90.0)));
        let v1000: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v1000), Some((990, 990.0)));
        let v10k: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v10k), Some((999, 9990.0)));
    }

    #[test]
    fn sypd_is_simulated_years_per_wall_day() {
        // One simulated day per wall second is 86400/365 years per day.
        assert!((sypd(480.0, 180.0, 1.0) - 86_400.0 / 365.0).abs() < 1e-9);
    }

    #[test]
    fn quiet_is_the_minimum_when_saturated_and_the_lower_quartile_otherwise() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quiet(&v, true), 1.0);
        assert_eq!(quiet(&v, false), 2.75);
        assert_eq!(quiet(&[7.0], false), 7.0);
    }

    #[test]
    fn vm_hwm_parses_kb_to_mib() {
        let status = "Name:\tlicom_bench\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM:"), Some(200.0));
        assert_eq!(parse_status_mb(status, "VmRSS:"), Some(1.0 / 1024.0));
        assert_eq!(parse_status_mb("Name:\tx\n", "VmHWM:"), None);
        assert_eq!(parse_status_mb("VmHWM:\tlots kB\n", "VmHWM:"), None);
    }
}
