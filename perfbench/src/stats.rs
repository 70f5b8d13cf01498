//! Summary statistics and process measurements.

use std::time::Duration;

/// Nearest-rank percentile of `values` (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest whole percentile that leaves at least ten samples above
/// it, with its value. With fewer than twenty samples no percentile from
/// the median up qualifies, and the maximum (p100) is reported.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let n = values.len();
    let p = if n >= 20 {
        (100 * (n - 10) / n) as u32
    } else {
        100
    };
    (p, percentile(values, p as f64))
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Reset the process's resident-set high-water mark to its current
/// resident set (Linux `clear_refs` code 5), so that `peak_rss_mb` covers
/// only what runs after this call.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_above() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99, 990.0));
        let v: Vec<f64> = (1..=14).map(f64::from).collect();
        assert_eq!(tail(&v), (100, 14.0));
    }
}
