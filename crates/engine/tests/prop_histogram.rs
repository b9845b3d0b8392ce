//! Property tests of the sparse [`Histogram`] against a dense reference:
//! a `Vec<u64>` with one slot per bucket from 0 up to the largest
//! sample's bucket, the layout the histogram used to have. Every read the
//! scrape and the figures use must agree exactly on both models.

use diablo_engine::metrics::HistogramSummary;
use diablo_engine::stats::Histogram;
use proptest::prelude::*;

/// The dense log-linear histogram, kept as the reference model. Two lines
/// differ from the old code: running sums saturate, and the top bucket's
/// bound is computed without overflow, so saturated and `u64::MAX` inputs
/// compare instead of panicking in a debug build.
#[derive(Debug, Clone)]
struct Dense {
    precision_bits: u32,
    buckets: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
}

impl Dense {
    fn new() -> Self {
        Dense { precision_bits: 7, buckets: Vec::new(), count: 0, min: u64::MAX, max: 0 }
    }

    fn index_of(&self, value: u64) -> usize {
        let p = self.precision_bits;
        let sub = 1u64 << p;
        if value < sub {
            value as usize
        } else {
            let e = 63 - value.leading_zeros();
            let shift = e - p;
            let sub_idx = (value >> shift) - sub;
            (((e - p + 1) as u64 * sub) + sub_idx) as usize
        }
    }

    fn bucket_upper(&self, idx: usize) -> u64 {
        let p = self.precision_bits;
        let sub = 1u64 << p;
        let idx = idx as u64;
        if idx < sub {
            idx
        } else {
            let octave = idx / sub - 1;
            let sub_idx = idx % sub;
            let base = (sub + sub_idx) << octave;
            let width = 1u64 << octave;
            base + (width - 1)
        }
    }

    fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] = self.buckets[idx].saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return self.bucket_upper(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    fn merge(&mut self, other: &Dense) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, &src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst = dst.saturating_add(src);
        }
        self.count = self.count.saturating_add(other.count);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.count == 0 {
            return out;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen = seen.saturating_add(c);
            out.push((self.bucket_upper(idx), seen as f64 / self.count as f64));
        }
        out
    }

    fn log_pmf(&self, lo: u64, hi: u64, bins_per_decade: usize) -> Vec<(u64, f64)> {
        // The bin edges come from the histogram under test (an empty one
        // at the same bounds); only the bucket walk is re-done densely.
        let mut out = Histogram::new().log_pmf(lo, hi, bins_per_decade);
        if self.count == 0 {
            return out;
        }
        let edges: Vec<u64> = out.iter().map(|&(e, _)| e).collect();
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let v = self.bucket_upper(idx);
            let bin = match edges.binary_search(&v) {
                Ok(i) => i,
                Err(i) => i.min(out.len() - 1),
            };
            out[bin].1 += c as f64 / self.count as f64;
        }
        out
    }

    fn summary_quantiles(&self) -> [u64; 4] {
        [self.quantile(0.5), self.quantile(0.9), self.quantile(0.99), self.quantile(0.999)]
    }
}

/// Maps a raw `(kind, value, n)` draw to a sample: the edge values 0, 1
/// and `u64::MAX`, a saturating `record_n`, latency-scale values, or any
/// `u64`.
fn sample((kind, value, n): (u8, u64, u64)) -> (u64, u64) {
    match kind {
        0 => (0, n),
        1 => (1, n),
        2 => (u64::MAX, n),
        3 => (value % 1_000, u64::MAX - n), // saturates bucket and count
        4..=6 => (10_000 + value % 300_000_000, n), // 10 µs .. 300 ms in ns
        _ => (value, n),
    }
}

fn build(draws: &[(u8, u64, u64)]) -> (Histogram, Dense) {
    let mut h = Histogram::new();
    let mut d = Dense::new();
    for &draw in draws {
        let (v, n) = sample(draw);
        h.record_n(v, n);
        d.record_n(v, n);
    }
    (h, d)
}

fn summary_quantiles(h: &Histogram) -> [u64; 4] {
    let s = HistogramSummary::of(h);
    [s.p50, s.p90, s.p99, s.p999]
}

fn check_equal(h: &Histogram, d: &Dense, qs: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(h.count(), d.count);
    prop_assert_eq!(h.max(), d.max);
    for &q in qs {
        prop_assert_eq!(h.quantile(q), d.quantile(q), "quantile {}", q);
    }
    prop_assert_eq!(h.cdf(), d.cdf());
    prop_assert_eq!(h.log_pmf(1_000, 1_000_000_000, 10), d.log_pmf(1_000, 1_000_000_000, 10));
    prop_assert_eq!(h.log_pmf(1, 10, 10), d.log_pmf(1, 10, 10));
    prop_assert_eq!(summary_quantiles(h), d.summary_quantiles());
    Ok(())
}

fn draws() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((0u8..10, any::<u64>(), 1u64..4), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Quantiles at random `q`, the CDF, the log PMF and the scrape
    /// summary agree with the dense model for every sample set.
    #[test]
    fn sparse_histogram_matches_dense_reference(
        d in draws(),
        qs in proptest::collection::vec(0.0f64..1.0, 1..8)
    ) {
        let (h, dense) = build(&d);
        let mut qs = qs;
        qs.extend([0.0, 0.5, 0.999, 1.0]);
        check_equal(&h, &dense, &qs)?;
    }

    /// Merging in either order matches the dense merge, and equals
    /// recording both sample sets into one histogram.
    #[test]
    fn sparse_merge_matches_dense_merge_in_both_orders(
        a in draws(),
        b in draws(),
        qs in proptest::collection::vec(0.0f64..1.0, 1..8)
    ) {
        let (ha, da) = build(&a);
        let (hb, db) = build(&b);
        let (combined, _) = build(&[a.clone(), b.clone()].concat());
        for (mut h, other, mut dense, dense_other) in
            [(ha.clone(), &hb, da.clone(), &db), (hb.clone(), &ha, db.clone(), &da)]
        {
            h.merge(other);
            dense.merge(dense_other);
            check_equal(&h, &dense, &qs)?;
            prop_assert_eq!(&h, &combined);
        }
    }
}
