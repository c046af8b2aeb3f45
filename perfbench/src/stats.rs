//! Order statistics and process measurements shared by the benchmark.

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail sample: the largest value that still has at least `beyond`
/// samples above it, with the percentile it sits at. With fewer than
/// `beyond + 1` samples the maximum is returned (percentile 100).
pub fn tail(xs: &[f64], beyond: usize) -> (f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= beyond {
        return (s[n - 1], 100.0);
    }
    let k = n - 1 - beyond;
    (s[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// CPU time the hypervisor has stolen from this machine so far, summed
/// over its CPUs, in seconds: the `steal` column of `/proc/stat`, counted
/// in ticks of 1/100 s (`USER_HZ` on Linux). 0 when unreadable.
pub fn stolen_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    let ticks = cpu.split_whitespace().nth(8).and_then(|t| t.parse::<u64>().ok());
    ticks.unwrap_or(0) as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) of process `pid` in bytes, read from
/// `/proc`; `None` when the process or the field is gone.
pub fn peak_rss_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Resets the peak resident set size (`VmHWM`) of process `pid` to its
/// current resident size (Linux `clear_refs`, value 5).
pub fn reset_peak_rss(pid: u32) {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // 40 samples: the 30th value has exactly 10 above it.
        assert_eq!(tail(&xs, 10), (30.0, 75.0));
        assert_eq!(tail(&xs[..5], 10), (5.0, 100.0));
    }
}
