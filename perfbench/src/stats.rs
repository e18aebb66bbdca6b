//! Medians and percentiles, and the rule that picks which tail
//! percentile a sample count can support.

/// Candidate percentiles, in hundredths of a percent, highest first.
const PERCENTILES_BP: [u64; 5] = [9999, 9990, 9900, 9000, 5000];

/// Samples a tail percentile needs strictly beyond it.
pub const MIN_BEYOND: u64 = 10;

/// Median of the values (mean of the two middle ones for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One-based nearest rank of percentile `bp` (hundredths of a percent)
/// among `n` samples: the smallest rank with at least `bp`/100 % of the
/// samples at or below it. Integer arithmetic, so `p99` of 1,000 samples
/// is rank 990 exactly.
fn nearest_rank(n: u64, bp: u64) -> u64 {
    (n * bp).div_ceil(10_000).max(1)
}

/// Samples strictly beyond percentile `bp` of `n` samples.
pub fn beyond(n: u64, bp: u64) -> u64 {
    n - nearest_rank(n, bp).min(n)
}

/// The highest candidate percentile (in hundredths of a percent) with at
/// least [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer.
pub fn tail_percentile(n: u64) -> Option<u64> {
    PERCENTILES_BP
        .into_iter()
        .find(|&bp| beyond(n, bp) >= MIN_BEYOND)
}

/// `p99`, `p99.9`, ... for a percentile in hundredths of a percent.
pub fn percentile_name(bp: u64) -> String {
    let whole = bp / 100;
    match bp % 100 {
        0 => format!("p{whole}"),
        frac if frac % 10 == 0 => format!("p{whole}.{}", frac / 10),
        frac => format!("p{whole}.{frac:02}"),
    }
}

/// Each item's fastest time over the passes folded so far. The minima
/// are kept in place, so memory does not grow with the number of passes
/// and the benchmark's bookkeeping does not inflate the peak memory it
/// reports.
#[derive(Debug, Default)]
pub struct ItemMinima {
    minima: Vec<u64>,
    mismatched: bool,
}

impl ItemMinima {
    /// Folds in one pass: its items' times in input order, then `rest`,
    /// the pass time no item covers.
    pub fn fold(&mut self, items: &[u64], rest: u64) {
        let times = items.iter().copied().chain([rest]);
        if self.minima.is_empty() {
            self.minima.extend(times);
        } else if self.minima.len() != items.len() + 1 {
            self.mismatched = true;
        } else {
            for (m, t) in self.minima.iter_mut().zip(times) {
                *m = (*m).min(t);
            }
        }
    }

    /// The sum of the minima, or `None` when nothing was folded or the
    /// passes disagreed on their item count.
    pub fn sum(&self) -> Option<u64> {
        (!self.mismatched && !self.minima.is_empty()).then(|| self.minima.iter().sum())
    }
}

/// Relative width of a [`Histogram`] bucket.
const BUCKET_GROWTH: f64 = 1.01;
/// Buckets up to about 20 s.
const BUCKETS: usize = 2400;

/// A latency histogram with buckets 1% wide: constant memory however
/// many samples a run takes.
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Histogram {
    /// Counts one sample, in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        let bucket = ((ns.max(1) as f64).ln() / BUCKET_GROWTH.ln()) as usize;
        self.counts[bucket.min(BUCKETS - 1)] += 1;
        self.n += 1;
    }

    /// Samples counted.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile `bp` (hundredths of a percent), as the
    /// lower edge of its bucket: at most 1% below the sample itself.
    ///
    /// # Panics
    /// Panics when no sample was counted.
    pub fn percentile(&self, bp: u64) -> f64 {
        assert!(self.n > 0, "percentile of nothing");
        let rank = nearest_rank(self.n, bp);
        let mut seen = 0;
        let bucket = self
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .expect("rank within the counted samples");
        BUCKET_GROWTH.powi(bucket as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_rule_needs_ten_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(5000));
        assert_eq!(tail_percentile(99), Some(5000));
        assert_eq!(tail_percentile(100), Some(9000));
        assert_eq!(tail_percentile(999), Some(9000));
        assert_eq!(tail_percentile(1_000), Some(9900));
        assert_eq!(tail_percentile(9_999), Some(9900));
        assert_eq!(tail_percentile(10_000), Some(9990));
        assert_eq!(tail_percentile(100_000), Some(9999));
        // 162 latency samples support p90 (16 beyond), not p99 (1 beyond).
        assert_eq!(tail_percentile(162), Some(9000));
        assert_eq!(beyond(162, 9900), 1);
    }

    #[test]
    fn histogram_percentiles_within_one_percent() {
        let mut h = Histogram::default();
        for ns in 1..=1000 {
            h.record(ns);
        }
        assert_eq!(h.len(), 1000);
        let near = |got: f64, want: f64| got <= want && got >= want / BUCKET_GROWTH;
        assert!(near(h.percentile(5000), 500.0), "{}", h.percentile(5000));
        assert!(near(h.percentile(9900), 990.0), "{}", h.percentile(9900));
        assert_eq!(beyond(1000, 9900), 10);
        let mut one = Histogram::default();
        one.record(7_000_000);
        assert!(near(one.percentile(9999), 7e6));
    }

    #[test]
    fn item_minima() {
        let mut m = ItemMinima::default();
        assert_eq!(m.sum(), None);
        m.fold(&[5, 1], 9);
        assert_eq!(m.sum(), Some(15));
        m.fold(&[3, 4], 9);
        assert_eq!(m.sum(), Some(3 + 1 + 9));
        m.fold(&[3], 1);
        assert_eq!(m.sum(), None, "a pass with another item count");
    }

    #[test]
    fn names() {
        assert_eq!(percentile_name(5000), "p50");
        assert_eq!(percentile_name(9990), "p99.9");
        assert_eq!(percentile_name(9999), "p99.99");
    }
}
