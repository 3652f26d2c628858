//! Measurement statistics: log-bucketed histograms, percentiles, CDFs and
//! throughput accounting for the benchmark harness.

/// A log-bucketed latency histogram (HDR-style).
///
/// Values are bucketed with ~1.6% relative precision: 64 linear buckets
/// below 64, then 32 sub-buckets per power of two. Recording is O(1) and
/// allocation-free after construction; merging histograms is element-wise.
///
/// # Example
///
/// ```
/// use paris_workload::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [100, 200, 300, 400, 1_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(50.0) >= 290 && h.percentile(50.0) <= 310);
/// assert!(h.max() >= 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
    min: u64,
}

const SUB_BITS: u32 = 5; // 32 sub-buckets per octave
const LINEAR_MAX: u64 = 64;

impl Histogram {
    /// Creates an empty histogram covering `0..=u64::MAX`.
    pub fn new() -> Self {
        // 64 linear + (64 - 6) octaves × 32 sub-buckets is plenty.
        Histogram {
            buckets: vec![0; 64 + (64 - 6) as usize * (1 << SUB_BITS)],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < LINEAR_MAX {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros(); // ≥ 6
        let sub = ((value >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
        64 + ((exp - 6) as usize) * (1 << SUB_BITS) + sub
    }

    fn bucket_value(index: usize) -> u64 {
        if index < LINEAR_MAX as usize {
            return index as u64;
        }
        let rest = index - 64;
        let exp = (rest / (1 << SUB_BITS)) as u32 + 6;
        let sub = (rest % (1 << SUB_BITS)) as u64;
        // Midpoint of the bucket.
        (1u64 << exp) + (sub << (exp - SUB_BITS)) + (1u64 << (exp - SUB_BITS)) / 2
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded value (exact).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The value at percentile `p` (0–100), within bucket precision.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// The CDF as `(value, cumulative fraction)` points, one per non-empty
    /// bucket — what Fig. 4 plots.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.count == 0 {
            return out;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            out.push((
                Self::bucket_value(i).min(self.max).max(self.min),
                seen as f64 / self.count as f64,
            ));
        }
        out
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Aggregate outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Committed transactions inside the measurement window.
    pub committed: u64,
    /// Transactions aborted (no reachable replica for a target partition;
    /// zero in fault-free runs).
    pub aborted: u64,
    /// Window length in microseconds.
    pub window_micros: u64,
    /// Transaction latency histogram (microseconds).
    pub latency: Histogram,
}

impl RunStats {
    /// Creates empty stats for a window.
    pub fn new(window_micros: u64) -> Self {
        RunStats {
            committed: 0,
            aborted: 0,
            window_micros,
            latency: Histogram::new(),
        }
    }

    /// Throughput in transactions per second.
    pub fn throughput_tps(&self) -> f64 {
        if self.window_micros == 0 {
            return 0.0;
        }
        self.committed as f64 * 1_000_000.0 / self.window_micros as f64
    }

    /// Mean latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency.mean() / 1_000.0
    }

    /// A latency percentile in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.latency.percentile(p) as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        // ceil(0.5 · 64) = 32nd smallest value = 31.
        assert_eq!(h.percentile(50.0), 31);
    }

    #[test]
    fn large_values_within_bucket_precision() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        let p = h.percentile(100.0);
        let rel = (p as f64 - 1_000_000.0).abs() / 1_000_000.0;
        assert!(rel < 0.04, "relative error {rel}");
    }

    #[test]
    fn percentiles_are_monotonic() {
        let mut h = Histogram::new();
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x % 1_000_000);
        }
        let mut prev = 0;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!(v >= prev, "p{p} regressed");
            prev = v;
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::new();
        for v in [5u64, 5, 50, 500, 5_000, 50_000] {
            h.record(v);
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let mut prev_v = 0;
        let mut prev_f = 0.0;
        for &(v, f) in &cdf {
            assert!(v >= prev_v);
            assert!(f >= prev_f);
            prev_v = v;
            prev_f = f;
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn run_stats_throughput_and_latency() {
        let mut s = RunStats::new(2_000_000); // 2 s window
        s.committed = 1_000;
        for _ in 0..100 {
            s.latency.record(5_000); // 5 ms
        }
        assert!((s.throughput_tps() - 500.0).abs() < 1e-9);
        assert!((s.mean_latency_ms() - 5.0).abs() < 1e-9);
        assert!(s.percentile_ms(50.0) > 4.5 && s.percentile_ms(50.0) < 5.5);
    }

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        for v in [100u64, 1_000, 10_000, 123_456, 9_999_999] {
            let b = Histogram::bucket_of(v);
            let mid = Histogram::bucket_value(b);
            let rel = (mid as f64 - v as f64).abs() / v as f64;
            assert!(rel < 0.05, "value {v}: bucket mid {mid}, err {rel}");
        }
    }
}
