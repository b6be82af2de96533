//! Log-bucketed latency histogram (HDR-style).
//!
//! Values are bucketed by floating the top [`SUB_BITS`] mantissa bits below
//! the leading one: values under 256 get exact unit buckets, larger values
//! share a bucket with at most `1/128` relative width, so any quantile read
//! from a bucket midpoint carries at most ~0.4% relative error. Buckets are
//! plain counts, which makes the histogram mergeable across workers by
//! addition — the representation the runner uses to aggregate per-worker
//! sinks into one exact run-level latency distribution.

/// Sub-bucket precision: buckets per octave. 7 bits = 128 sub-buckets,
/// bounding relative bucket width at `1/128` (~0.8%).
pub const SUB_BITS: u32 = 7;

const SUB: u64 = 1 << SUB_BITS; // 128
/// Largest shift a `u64` value can need: leading bit 63, minus SUB_BITS.
const MAX_SHIFT: u64 = 63 - SUB_BITS as u64; // 56
/// One more than the largest reachable index (`MAX_SHIFT*128 + 255`).
const BUCKETS: usize = ((MAX_SHIFT << SUB_BITS) + 2 * SUB) as usize; // 7424

/// Bucket index of a value. Exact for `v < 256`; logarithmic above.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as u64; // position of leading one, >= 8
    let shift = e - SUB_BITS as u64; // >= 1
    ((shift << SUB_BITS) + (v >> shift)) as usize
}

/// Half-open value range `[lo, hi)` covered by bucket `i`.
#[inline]
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < (2 * SUB) as usize {
        return (i as u64, i as u64 + 1);
    }
    let shift = (i as u64 >> SUB_BITS) - 1;
    let m = (i as u64 & (SUB - 1)) + SUB; // mantissa in [128, 256)
                                          // The very top bucket's upper bound would be 2^64; saturate (that
                                          // bucket then also covers u64::MAX itself).
    let hi = (((m as u128) + 1) << shift).min(u64::MAX as u128) as u64;
    (m << shift, hi)
}

/// Midpoint representative of bucket `i` (exact for unit buckets).
#[inline]
fn bucket_mid(i: usize) -> u64 {
    let (lo, hi) = bucket_bounds(i);
    lo + (hi - lo) / 2
}

/// A mergeable log-bucketed histogram over `u64` values.
///
/// The latency pipeline stores *stream nanoseconds* (`latency_ms * 1e6`),
/// but the histogram itself is unit-agnostic. The bucket array (58 KiB) is
/// allocated lazily on the first record, so an empty histogram is free.
#[derive(Clone, Debug, Default)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram. Does not allocate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observations recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Has anything been recorded?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded value.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all recorded values (sum is saturating).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical observations.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
            self.min = v;
            self.max = v;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a latency expressed in (stream) milliseconds, stored with
    /// nanosecond resolution. Negative values clamp to zero.
    #[inline]
    pub fn record_ms(&mut self, ms: f64) {
        self.record((ms.max(0.0) * 1e6).round() as u64);
    }

    /// Fold another histogram into this one. Addition of bucket counts, so
    /// merging is associative and commutative.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q` in `[0, 1]`: the midpoint of the bucket
    /// holding the `ceil(q·count)`-th smallest observation, clamped into
    /// the exact `[min, max]` range (so `q = 0` and `q = 1` are exact).
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_mid(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// [`Self::value_at_quantile`] for the ms-in, ns-stored latency domain.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.value_at_quantile(q).map(|ns| ns as f64 / 1e6)
    }

    /// Exact maximum in the latency domain.
    pub fn max_ms(&self) -> Option<f64> {
        self.max().map(|ns| ns as f64 / 1e6)
    }

    /// Non-empty buckets as `(lo, hi, count)` value ranges, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
    }
}

impl PartialEq for LogHistogram {
    /// Distribution equality: same totals and the same non-empty buckets
    /// (an untouched histogram equals a touched-then-merged empty one).
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min() == other.min()
            && self.max() == other.max()
            && self.buckets().eq(other.buckets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_encode_decode_roundtrip() {
        for v in (0..4096u64).chain([
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ]) {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(
                lo <= v && (v < hi || v == u64::MAX),
                "v={v} i={i} lo={lo} hi={hi}"
            );
            assert!(i < BUCKETS, "v={v} i={i}");
        }
    }

    #[test]
    fn bucket_relative_width_bounded() {
        for v in [300u64, 1000, 123_456, 1 << 30, 1 << 50] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!((hi - lo) as f64 / lo as f64 <= 1.0 / 128.0 + 1e-12, "v={v}");
        }
    }

    #[test]
    fn empty_histogram_is_free_and_none() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.counts.capacity(), 0, "no allocation before first record");
        assert_eq!(h.value_at_quantile(0.5), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in [5u64, 1, 9, 200, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(200));
        assert_eq!(h.value_at_quantile(0.0), Some(1));
        assert_eq!(h.value_at_quantile(0.5), Some(7));
        assert_eq!(h.value_at_quantile(1.0), Some(200));
    }

    #[test]
    fn quantile_error_within_bucket_width() {
        let mut h = LogHistogram::new();
        let mut all: Vec<u64> = Vec::new();
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..50_000 {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 10_000_000;
            h.record(v);
            all.push(v);
        }
        all.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let exact = all[(((q * all.len() as f64).ceil() as usize).max(1)) - 1] as f64;
            let got = h.value_at_quantile(q).unwrap() as f64;
            assert!(
                (got - exact).abs() <= exact / 128.0 + 1.0,
                "q={q} got={got} exact={exact}"
            );
        }
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for v in 0..1000u64 {
            let target = if v % 2 == 0 { &mut a } else { &mut b };
            target.record(v * 37);
            whole.record(v * 37);
        }
        let mut merged = LogHistogram::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, whole);
        assert_eq!(merged.count(), 1000);
    }

    #[test]
    fn ms_domain_roundtrip() {
        let mut h = LogHistogram::new();
        h.record_ms(1.5);
        h.record_ms(-3.0); // clamps to 0
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_ms(), Some(1.5));
        assert_eq!(h.quantile_ms(0.0), Some(0.0));
    }

    #[test]
    fn buckets_iterate_nonzero_ascending() {
        let mut h = LogHistogram::new();
        h.record_n(3, 2);
        h.record(100_000);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (3, 4, 2));
        assert!(buckets[1].0 <= 100_000 && 100_000 < buckets[1].1);
        assert_eq!(buckets[1].2, 1);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn rejects_out_of_range_quantile() {
        let _ = LogHistogram::new().value_at_quantile(1.5);
    }
}
