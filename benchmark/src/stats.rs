//! Order statistics and `/proc` readers.

use crate::seam::Histogram;

/// The `p`-th percentile (0–100) of `values` by the nearest-rank rule;
/// 0.0 for an empty sample. Sorts in place.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil().max(1.0) as usize;
    values[rank.min(values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// The mean of the middle 80% of `values`: what one call costs, with the
/// calls a preemption or a cache miss stretched — and the luckiest ones —
/// left out. Unlike a median of whole nanoseconds it keeps its digits.
/// Sorts in place.
pub fn trimmed_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 10;
    mean(&values[cut..values.len() - cut])
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `p`-th percentile of a log-bucketed [`Histogram`], interpolated
/// linearly inside the bucket the rank falls in.
///
/// `Histogram::percentile` answers with a bucket midpoint — 16 µs steps
/// around 1 ms — so two runs a few µs apart would read exactly alike or a
/// whole step apart. The CDF has the counts on both edges of that bucket;
/// spreading its samples evenly across its width gives a continuous
/// estimate that is never off by more than the bucket width.
pub fn histogram_percentile(h: &Histogram, p: f64) -> f64 {
    let target = p / 100.0;
    let mut below = 0.0;
    for (value, cumulative) in h.cdf() {
        if cumulative >= target {
            // Buckets are 1 wide below 64 and 1/32 of their octave above;
            // `value` lies inside its bucket, so masking finds the floor.
            let width = if value < 64 {
                1
            } else {
                1u64 << (63 - value.leading_zeros() - 5)
            };
            let floor = value & !(width - 1);
            let share = (target - below) / (cumulative - below);
            return floor as f64 + share * width as f64;
        }
        below = cumulative;
    }
    h.max() as f64
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times: `USER_HZ`,
/// which Linux fixes at 100 on every architecture it reports through.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed so far by `pids` (all threads of
/// each), from `/proc/<pid>/stat`; a process that is gone counts as zero.
pub fn cpu_seconds(pids: &[u32]) -> (f64, f64) {
    let mut user = 0.0;
    let mut sys = 0.0;
    for pid in pids {
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // Fields after the parenthesised command name, which may itself
        // contain spaces: utime and stime are the 12th and 13th of those.
        let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
            continue;
        };
        let mut fields = rest.split_whitespace().skip(11);
        let mut tick = || {
            fields
                .next()
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        user += tick() / CLK_TCK;
        sys += tick() / CLK_TCK;
    }
    (user, sys)
}

/// CPU seconds the hypervisor has taken from this (virtual) machine since
/// boot: the `steal` column of `/proc/stat`, all cores; 0 where there is
/// none to report.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / CLK_TCK)
}

/// Sum of the peak resident set sizes (`VmHWM`) of `pids`, in MiB.
pub fn rss_peak_mb(pids: &[u32]) -> f64 {
    let mut kib = 0.0;
    for pid in pids {
        let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
            continue;
        };
        kib += status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0);
    }
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 95.0), 95.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut v = vec![1_000_000.0, 5.0, 6.0, 7.0, 5.0, 6.0, 7.0, 5.0, 6.0, 0.0];
        assert!((trimmed_mean(&mut v) - 5.875).abs() < 1e-9);
        assert_eq!(trimmed_mean(&mut []), 0.0);
    }

    #[test]
    fn histogram_percentile_interpolates_inside_the_bucket() {
        let mut h = Histogram::new();
        // 1024..1056 is one bucket (width 32): fill it evenly.
        for v in 1024..1056 {
            h.record(v);
        }
        let p25 = histogram_percentile(&h, 25.0);
        let p75 = histogram_percentile(&h, 75.0);
        assert!((p25 - 1032.0).abs() < 1.0, "{p25}");
        assert!((p75 - 1048.0).abs() < 1.0, "{p75}");
        // The bucketed answer cannot tell the two apart.
        assert_eq!(h.percentile(25.0), h.percentile(75.0));
    }

    #[test]
    fn own_process_has_cpu_time_and_memory() {
        let me = [std::process::id()];
        let (user, sys) = cpu_seconds(&me);
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(rss_peak_mb(&me) > 0.0);
    }
}
