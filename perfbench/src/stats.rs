//! Percentiles, medians and process memory.

/// Nearest-rank percentile (`p` in 0..=100) of `v`, sorting it in
/// place; 0 for an empty slice.
pub fn percentile_u64(v: &mut [u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[rank(v.len(), p)]
}

/// Nearest-rank percentile of `v` (sorted in place); 0.0 when empty.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    v[rank(v.len(), p)]
}

fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Median of `v` (sorted in place); 0.0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0.0
/// where `/proc` does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 5.0);
        assert_eq!(percentile(&mut v, 90.0), 9.0);
        assert_eq!(percentile(&mut v, 100.0), 10.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        let mut u = vec![30, 10, 20];
        assert_eq!(percentile_u64(&mut u, 50.0), 20);
    }
}
