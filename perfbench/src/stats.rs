//! Order statistics and process measurements shared by every workload.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; otherwise the tail is too thin to be more than its maximum.
pub const TAIL_MARGIN: usize = 10;

/// Median of `samples` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank index (0-based) of percentile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    (((q / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Whether percentile `q` of `n` samples has at least [`TAIL_MARGIN`]
/// samples strictly beyond its rank: p90 needs 100 samples, p99 needs 1000.
pub fn tail_reportable(n: usize, q: f64) -> bool {
    n > 0 && n - 1 - rank(n, q) >= TAIL_MARGIN
}

/// Nearest-rank percentile `q` (in `(0, 100)`) when [`tail_reportable`].
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    tail_reportable(samples.len(), q).then(|| sorted(samples)[rank(samples.len(), q)])
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Parses the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// document, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        // p90 of 100 samples sits at rank 90 with exactly 10 beyond it.
        assert_eq!(tail_percentile(&ramp(100), 90.0), Some(90.0));
        // One sample fewer leaves only 9 beyond the p90 rank.
        assert_eq!(tail_percentile(&ramp(99), 90.0), None);
        // p99 needs 1000 samples.
        assert_eq!(tail_percentile(&ramp(999), 99.0), None);
        assert_eq!(tail_percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(tail_percentile(&[], 90.0), None);
        // Tiny samples never report a tail, however extreme.
        assert_eq!(tail_percentile(&ramp(5), 50.0), None);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t  12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t  lots kB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        let mib = peak_rss_mib().expect("/proc/self/status readable on Linux");
        assert!(mib > 0.0);
    }
}
