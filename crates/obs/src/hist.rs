//! A zero-dependency log-linear latency histogram (HDR-style).
//!
//! Medians answer "what is typical"; serving a fleet needs "how bad is
//! the tail" — p95/p99 per unit, mergeable across threads, shards, and
//! runs. [`Histogram`] buckets `u64` values on a log-linear grid: exact
//! below [`LINEAR_MAX`], then every power of two split into
//! [`SUBBUCKETS`] linear sub-buckets, bounding the relative quantile
//! error at `1/SUBBUCKETS` (≈3%) while keeping the whole value range in
//! at most ~1900 buckets. Buckets are stored sparsely, so an idle
//! histogram costs nothing and a busy one costs its distinct magnitudes.
//!
//! Merging two histograms sums bucket counts — an exact, associative,
//! commutative fold (proptested in `tests/histogram.rs`), which is what
//! lets per-thread, per-unit, and per-run histograms collapse into one
//! fleet view without re-recording a single sample. The true `min`,
//! `max`, `count`, and `sum` are tracked exactly alongside the buckets;
//! quantile answers are clamped into `[min, max]`.
//!
//! The struct is always compiled (the serve daemon's live windows and
//! the `pst obs` fleet merge use it directly); only the
//! [`histogram!`](crate::histogram) *recording* macro is gated on the
//! `enabled` feature.

use crate::json::Json;

/// Number of linear sub-buckets per power of two; also the bound below
/// which values are bucketed exactly.
pub const SUBBUCKETS: u64 = 32;

/// Values strictly below this are recorded exactly (bucket = value).
pub const LINEAR_MAX: u64 = SUBBUCKETS;

const SUB_BITS: u32 = SUBBUCKETS.trailing_zeros();

/// A mergeable log-linear histogram over `u64` values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Sparse `(bucket index, count)` pairs, sorted by index.
    buckets: Vec<(u32, u64)>,
    /// Number of recorded values.
    count: u64,
    /// Exact sum of recorded values (saturating).
    sum: u64,
    /// Exact smallest recorded value (`u64::MAX` when empty).
    min: u64,
    /// Exact largest recorded value (0 when empty).
    max: u64,
}

/// Maps a value to its bucket index. Exact below [`LINEAR_MAX`];
/// log-linear above, with `SUBBUCKETS` sub-buckets per octave.
fn bucket_index(v: u64) -> u32 {
    if v < LINEAR_MAX {
        return v as u32;
    }
    let e = 63 - v.leading_zeros(); // floor(log2 v), >= SUB_BITS
    let shift = e - SUB_BITS;
    let offset = (v >> shift) as u32 - SUBBUCKETS as u32;
    (e - SUB_BITS + 1) * SUBBUCKETS as u32 + offset
}

/// The inclusive lower bound of a bucket.
fn bucket_low(index: u32) -> u64 {
    let sub = SUBBUCKETS as u32;
    if index < sub {
        return index as u64;
    }
    let block = index / sub; // >= 1
    let offset = (index % sub) as u64;
    let shift = block - 1;
    (SUBBUCKETS + offset) << shift
}

/// A representative value for the bucket: its midpoint, so the error of
/// a quantile answer is at most half a bucket width (≤ `value /
/// SUBBUCKETS`).
fn bucket_mid(index: u32) -> u64 {
    let sub = SUBBUCKETS as u32;
    if index < sub {
        return index as u64;
    }
    let width = 1u64 << ((index / sub) - 1);
    bucket_low(index) + width / 2
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact saturating sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let index = bucket_index(value);
        match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += n,
            Err(pos) => self.buckets.insert(pos, (index, n)),
        }
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one. Bucket counts add
    /// exactly, so merging is associative and commutative and the
    /// per-thread / per-unit / per-run fold order never matters.
    ///
    /// An empty histogram is the merge identity on **both** sides:
    /// merging an empty operand changes nothing (its `min` sentinel is
    /// `u64::MAX` and its `max` is 0, so the extreme folds are no-ops),
    /// and merging into an empty receiver yields an exact copy. The
    /// windowed ring in [`crate::window`] leans on this when idle ticks
    /// contribute empty buckets.
    pub fn merge_from(&mut self, other: &Histogram) {
        for &(index, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (index, n)),
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` (clamped into `[0, 1]`): the smallest
    /// bucket whose cumulative count reaches `ceil(q·count)`, answered
    /// as the bucket midpoint clamped into the exact `[min, max]`.
    /// Relative error is bounded by `1/SUBBUCKETS`. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_mid(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Serializes the histogram. Schema:
    ///
    /// ```json
    /// {"count": 12, "sum": 3400, "min": 3, "max": 900,
    ///  "buckets": [[3, 5], [160, 7]]}
    /// ```
    ///
    /// Bucket indices are the internal log-linear grid (stable across
    /// builds: exact below 32, then 32 sub-buckets per power of two),
    /// which is what makes serialized histograms mergeable.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("min", Json::UInt(self.min())),
            ("max", Json::UInt(self.max)),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(i, n)| Json::Arr(vec![Json::UInt(i as u64), Json::UInt(n)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads a histogram back from [`Histogram::to_json`] output.
    /// Returns `None` on any schema mismatch.
    pub fn from_json(j: &Json) -> Option<Histogram> {
        let count = j.get("count")?.as_u64()?;
        let sum = j.get("sum")?.as_u64()?;
        let min = j.get("min")?.as_u64()?;
        let max = j.get("max")?.as_u64()?;
        let Json::Arr(items) = j.get("buckets")? else {
            return None;
        };
        let mut buckets = Vec::with_capacity(items.len());
        let mut total = 0u64;
        for item in items {
            let Json::Arr(pair) = item else { return None };
            if pair.len() != 2 {
                return None;
            }
            let index = pair[0].as_u64()?;
            let n = pair[1].as_u64()?;
            if index > u32::MAX as u64 || n == 0 {
                return None;
            }
            if let Some(&(last, _)) = buckets.last() {
                if last >= index as u32 {
                    return None; // indices must be strictly increasing
                }
            }
            buckets.push((index as u32, n));
            total += n;
        }
        if total != count {
            return None;
        }
        Some(Histogram {
            buckets,
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max,
        })
    }

    /// One-line human rendering: `count`, `mean`, and the p50/p90/p99
    /// tail.
    pub fn render_line(&self) -> String {
        format!(
            "n={} mean={:.0} p50={} p90={} p99={} max={}",
            self.count,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.max(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..LINEAR_MAX {
            h.record(v);
        }
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_mid(bucket_index(v)), v);
        }
        assert_eq!(h.count(), LINEAR_MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), LINEAR_MAX - 1);
    }

    #[test]
    fn bucket_grid_is_monotone_and_tight() {
        let mut last = None;
        for e in 0..64u32 {
            for &v in &[1u64 << e, (1u64 << e) + 1, (1u64 << e).wrapping_sub(1)] {
                if v == 0 {
                    continue;
                }
                let i = bucket_index(v);
                assert!(bucket_low(i) <= v, "low({i}) <= {v}");
                // The representative is within 1/SUBBUCKETS of the value.
                let mid = bucket_mid(i);
                let err = mid.abs_diff(v);
                assert!(
                    err <= v / (SUBBUCKETS / 2) + 1,
                    "bucket {i} rep {mid} too far from {v}"
                );
                if let Some((pv, pi)) = last {
                    if v > pv {
                        assert!(i >= pi, "index must be monotone: {pv}->{pi}, {v}->{i}");
                    }
                }
                last = Some((v, i));
            }
        }
    }

    #[test]
    fn quantiles_bracket_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((470_000..=530_000).contains(&p50), "p50 = {p50}");
        assert!((955_000..=1_000_000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 77, 1_000_000, 12, 77, 40] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 99_999, 77] {
            b.record(v);
            all.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn json_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 31, 32, 33, 1_000, u64::MAX / 2] {
            h.record(v);
        }
        let j = h.to_json();
        let text = j.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(Histogram::from_json(&parsed), Some(h));
        assert_eq!(Histogram::from_json(&Json::Null), None);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "empty quantile({q}) is the documented 0");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        let j = h.to_json();
        assert_eq!(Histogram::from_json(&j), Some(h));
    }

    #[test]
    fn merge_with_an_empty_operand_is_the_identity_both_ways() {
        let mut populated = Histogram::new();
        for v in [1u64, 31, 32, 4_096, 123_456_789] {
            populated.record(v);
        }

        // Empty on the right: nothing changes, including the exact
        // extremes (the empty min sentinel must not leak through).
        let mut merged = populated.clone();
        merged.merge_from(&Histogram::new());
        assert_eq!(merged, populated);
        assert_eq!((merged.min(), merged.max()), (1, 123_456_789));

        // Empty on the left: the receiver becomes an exact copy.
        let mut receiver = Histogram::new();
        receiver.merge_from(&populated);
        assert_eq!(receiver, populated);
        assert_eq!(receiver.quantile(0.5), populated.quantile(0.5));

        // Empty with empty stays empty (and stays the JSON identity).
        let mut both = Histogram::new();
        both.merge_from(&Histogram::new());
        assert!(both.is_empty());
        assert_eq!(Histogram::from_json(&both.to_json()), Some(both));
    }
}
