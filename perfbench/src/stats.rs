//! Order statistics: medians, the tail percentile a sample supports, and
//! windowed percentiles that one stall cannot move.

/// Percentiles the tail rule may choose from, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0];

/// Nearest-rank percentile `p` (0..=100) of an ascending-sorted sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p)]
}

/// 0-based index of the nearest-rank `p`th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p`th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least 10 samples
/// beyond it, or `None` when even the lowest rung has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| beyond(n, p) >= 10)
}

/// Whether percentile `p` of `n` samples has at least 10 samples beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// A sorted sample with its count.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` into a sample.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile, `NaN` for an empty sample.
    pub fn pct(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            f64::NAN
        } else {
            percentile(&self.sorted, p)
        }
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    /// The highest percentile this sample supports, with its value.
    pub fn tail_note(&self) -> String {
        match tail_percentile(self.len()) {
            Some(p) => format!(
                "highest supported p{p}={:.3} ({} beyond)",
                self.pct(p),
                beyond(self.len(), p)
            ),
            None => "too few samples for any tail percentile".to_string(),
        }
    }
}

/// The median of `values`, `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).median()
}

/// The median, over consecutive windows of `window` values in arrival
/// order, of each window's `p`th percentile, with the number of windows.
/// A trailing partial window is dropped, so one stall moves one window's
/// percentile and not the result.
pub fn windowed_percentile(values: &[f64], window: usize, p: f64) -> (f64, usize) {
    let per_window: Vec<f64> = values
        .chunks_exact(window.max(1))
        .map(|w| Sample::new(w.to_vec()).pct(p))
        .collect();
    let n = per_window.len();
    (Sample::new(per_window).median(), n)
}

/// Events per full bucket of `bucket_ns`, over events at `times_ns`
/// (sorted, from the phase start); the trailing partial bucket is dropped.
pub fn bucket_counts(times_ns: &[u64], bucket_ns: u64) -> Vec<f64> {
    let buckets = times_ns
        .last()
        .map_or(0, |&last| (last / bucket_ns) as usize);
    let mut counts = vec![0.0; buckets];
    for &t in times_ns {
        if let Some(c) = counts.get_mut((t / bucket_ns) as usize) {
            *c += 1.0;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn tail_rule_needs_ten_beyond() {
        // 1000 samples: p99 is the 990th value, 10 lie beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: only 9 beyond p99, so p97.5 is the highest.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), Some(97.5));
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        // 20 000 samples support p99.9 (20 beyond).
        assert_eq!(tail_percentile(20_000), Some(99.9));
        // Too few for the lowest rung.
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        // Four clean windows of 100 and one with a stall.
        let mut values: Vec<f64> = (0..500).map(|i| f64::from(i % 100)).collect();
        for v in &mut values[200..210] {
            *v = 1e6;
        }
        let (p99, windows) = windowed_percentile(&values, 100, 99.0);
        assert_eq!(windows, 5);
        assert_eq!(p99, 98.0);
        // The partial trailing window is dropped.
        assert_eq!(windowed_percentile(&values[..450], 100, 50.0).1, 4);
    }

    #[test]
    fn bucket_counts_drop_the_partial_bucket() {
        // 10 events per 100 ms for 1 s, then one in a partial bucket.
        let mut times: Vec<u64> = (0..100).map(|i| i * 10_000_000).collect();
        times.push(1_050_000_000);
        assert_eq!(bucket_counts(&times, 100_000_000), vec![10.0; 10]);
        assert!(bucket_counts(&[], 1).is_empty());
    }
}
