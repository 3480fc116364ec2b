//! Fixed-bucket histograms: the Fig. 7 text plots and the report's
//! log-bucketed latency distributions.
//!
//! (Moved here from `keq-bench` so the bench targets and the run report
//! share one histogram type; `keq-bench` re-exports it.)

/// A fixed-bucket histogram rendered as rows of `#` bars.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Counts per bucket (one more than `bounds` for the overflow bucket).
    pub counts: Vec<usize>,
    label: String,
}

impl Histogram {
    /// Creates a histogram with the given bucket upper bounds.
    pub fn new(label: impl Into<String>, bounds: Vec<f64>) -> Self {
        let counts = vec![0; bounds.len() + 1];
        Histogram { bounds, counts, label: label.into() }
    }

    /// A log-bucketed latency histogram over microseconds: powers of four
    /// from 1 µs to ~17 s (`4^0 .. 4^12`), the report's span-time shape.
    pub fn log_us(label: impl Into<String>) -> Self {
        let bounds = (0..=12).map(|i| 4f64.powi(i)).collect();
        Histogram::new(label, bounds)
    }

    /// The label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Adds one sample.
    pub fn add(&mut self, value: f64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
    }

    /// Total samples.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Adds every bucket of `other` into `self` (per-connection tallies →
    /// one distribution).
    ///
    /// # Panics
    ///
    /// Panics when the bucket bounds differ — merging histograms of
    /// different shapes has no meaningful result.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "merging histograms of different shapes");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) estimated from the buckets:
    /// rank-based, linearly interpolated within the bucket that holds the
    /// rank. Samples in the overflow bucket clamp to the last bound (the
    /// histogram cannot see past it). `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 || self.bounds.is_empty() {
            return None;
        }
        // 1-based rank of the sample that answers the quantile.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as usize).clamp(1, total);
        let mut seen = 0usize;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let Some(&hi) = self.bounds.get(i) else {
                    // Overflow bucket: unbounded above, clamp to the edge.
                    return self.bounds.last().copied();
                };
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let within = (rank - seen) as f64 / c as f64;
                return Some(lo + (hi - lo) * within);
            }
            seen += c;
        }
        self.bounds.last().copied()
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Renders the histogram.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let max = self.counts.iter().copied().max().unwrap_or(1).max(1);
        let _ = writeln!(s, "{}:", self.label);
        let mut lo = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let label = if i < self.bounds.len() {
                format!("{:>9.2}..{:<9.2}", lo, self.bounds[i])
            } else {
                format!("{:>9.2}..{:<9}", lo, "inf")
            };
            let bar = "#".repeat(c * 50 / max);
            let _ = writeln!(s, "  {label} | {bar} {c}");
            if i < self.bounds.len() {
                lo = self.bounds[i];
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_fill_correctly() {
        let mut h = Histogram::new("t", vec![1.0, 10.0]);
        h.add(0.5);
        h.add(5.0);
        h.add(50.0);
        h.add(0.9);
        assert_eq!(h.counts, vec![2, 1, 1]);
        let r = h.render();
        assert!(r.contains("t:"));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new("q", vec![10.0, 20.0, 40.0]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for _ in 0..8 {
            h.add(5.0); // bucket 0..10
        }
        h.add(15.0); // bucket 10..20
        h.add(30.0); // bucket 20..40
                     // Rank 5 of 10 lands mid-bucket-0: 0 + 10 * (5/8).
        assert_eq!(h.p50(), Some(6.25));
        // Rank 9 is the single sample of bucket 1: 10 + 10 * (1/1).
        assert_eq!(h.p90(), Some(20.0));
        // Rank 10 is the single sample of bucket 2.
        assert_eq!(h.p99(), Some(40.0));
        assert_eq!(h.quantile(0.0), Some(1.25), "rank clamps to the first sample");
        assert_eq!(h.quantile(1.0), Some(40.0));
    }

    #[test]
    fn overflow_samples_clamp_to_the_last_bound() {
        let mut h = Histogram::new("o", vec![1.0, 2.0]);
        h.add(0.5);
        h.add(1e9);
        h.add(2e9);
        assert_eq!(h.p99(), Some(2.0), "overflow clamps to the histogram's edge");
        // All-overflow histograms still answer with the edge.
        let mut all_over = Histogram::new("o2", vec![1.0]);
        all_over.add(7.0);
        assert_eq!(all_over.p50(), Some(1.0));
    }

    #[test]
    fn log_bucket_quantiles_are_monotone() {
        let mut h = Histogram::log_us("lat");
        for i in 0..1000 {
            h.add(f64::from(i));
        }
        let (p50, p90, p99) = (h.p50().unwrap(), h.p90().unwrap(), h.p99().unwrap());
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p50 > 256.0 && p99 <= 1024.0, "{p50} {p99}");
    }

    #[test]
    fn merge_adds_per_bucket() {
        let mut a = Histogram::new("a", vec![1.0, 10.0]);
        let mut b = Histogram::new("b", vec![1.0, 10.0]);
        a.add(0.5);
        b.add(5.0);
        b.add(50.0);
        a.merge(&b);
        assert_eq!(a.counts, vec![1, 1, 1]);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn log_buckets_cover_micro_to_seconds() {
        let mut h = Histogram::log_us("lat");
        h.add(0.5); // sub-µs
        h.add(100.0); // 100 µs
        h.add(5_000_000.0); // 5 s
        h.add(1e12); // overflow
        assert_eq!(h.total(), 4);
        assert_eq!(*h.counts.last().expect("overflow bucket"), 1);
    }
}
