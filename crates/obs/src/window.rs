//! Windowed telemetry primitives: quantiles and rates *right now*, not
//! since process start.
//!
//! The lifetime [`Histogram`] answers "what was p99 over the whole
//! run"; a long-lived daemon needs "what is p99 over the last few
//! seconds". [`WindowedHistogram`] provides that as a bounded ring of
//! per-tick [`Histogram`] buckets, and [`RollingCounter`] is the same
//! shape for monotone counts (request/error/hit rates).
//!
//! Both are driven by an **injectable tick clock**: every mutation takes
//! an explicit `tick` (the caller derives it however it likes — the
//! serve daemon uses `elapsed_ms / window_ms`), and expiry is pure
//! arithmetic on tick numbers. There is no [`std::time::Instant`]
//! anywhere in the rotate or merge path, so tests can prove bucket
//! expiry exactly, tick by tick.
//!
//! Ticks are expected to be monotone. A stale tick below the retention
//! horizon (older than `windows - 1` ticks before the newest seen) is
//! clamped *to* the horizon rather than dropped: late recordings are
//! slightly mis-binned, never lost. Recording never moves time backwards.
//!
//! Both types serialize through the crate's JSON layer with the usual
//! `to_json` → `from_json` identity round trip.

use crate::hist::Histogram;
use crate::json::Json;

/// A ring of per-tick [`Histogram`] buckets with windowed quantile
/// queries. At most `windows` consecutive ticks are retained; recording
/// at a newer tick expires everything older than the retention horizon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowedHistogram {
    /// Retained `(tick, bucket)` pairs, sorted by tick ascending. Never
    /// longer than `windows`.
    slots: Vec<(u64, Histogram)>,
    /// Ring capacity in ticks.
    windows: usize,
    /// Newest tick ever seen (0 before any recording).
    tick: u64,
}

impl WindowedHistogram {
    /// An empty ring retaining `windows` ticks (clamped to at least 1).
    pub fn new(windows: usize) -> WindowedHistogram {
        WindowedHistogram {
            slots: Vec::new(),
            windows: windows.max(1),
            tick: 0,
        }
    }

    /// The ring capacity in ticks.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// The newest tick seen so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The oldest tick still retained at the current tick.
    fn horizon(&self) -> u64 {
        self.tick.saturating_sub(self.windows as u64 - 1)
    }

    /// Advances the clock to `tick` (if newer) and drops every bucket
    /// older than the retention horizon. Idle daemons call this before
    /// reading so windows with no traffic expire like any other.
    pub fn advance(&mut self, tick: u64) {
        if tick > self.tick {
            self.tick = tick;
        }
        let horizon = self.horizon();
        self.slots.retain(|(t, _)| *t >= horizon);
    }

    /// Records `value` at `tick` (see [`WindowedHistogram::record_n_at`]).
    pub fn record_at(&mut self, tick: u64, value: u64) {
        self.record_n_at(tick, value, 1);
    }

    /// Records `n` occurrences of `value` into the bucket for `tick`,
    /// first advancing the clock. Stale ticks below the retention
    /// horizon land in the horizon bucket instead of being dropped.
    pub fn record_n_at(&mut self, tick: u64, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.advance(tick);
        let t = tick.max(self.horizon());
        match self.slots.binary_search_by_key(&t, |(slot, _)| *slot) {
            Ok(i) => self.slots[i].1.record_n(value, n),
            Err(i) => {
                let mut h = Histogram::new();
                h.record_n(value, n);
                self.slots.insert(i, (t, h));
            }
        }
    }

    /// Merges the buckets of the last `last_n` ticks (ending at the
    /// current tick, inclusive) into one [`Histogram`]. `last_n` is
    /// clamped to `1..=windows`. Buckets outside the span contribute
    /// nothing; an idle span yields an empty histogram (whose quantiles
    /// are the documented benign 0).
    pub fn merged(&self, last_n: usize) -> Histogram {
        let last_n = last_n.clamp(1, self.windows) as u64;
        let lo = self.tick.saturating_sub(last_n - 1);
        let mut out = Histogram::new();
        for (t, h) in &self.slots {
            if *t >= lo {
                out.merge_from(h);
            }
        }
        out
    }

    /// Serializes the ring. Schema:
    ///
    /// ```json
    /// {"windows": 8, "tick": 42,
    ///  "slots": [[41, {"count": 3, ...}], [42, {"count": 1, ...}]]}
    /// ```
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("windows", Json::UInt(self.windows as u64)),
            ("tick", Json::UInt(self.tick)),
            (
                "slots",
                Json::Arr(
                    self.slots
                        .iter()
                        .map(|(t, h)| Json::Arr(vec![Json::UInt(*t), h.to_json()]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads a ring back from [`WindowedHistogram::to_json`] output.
    /// Returns `None` on any schema defect (unsorted or duplicate
    /// ticks, slots beyond the retention horizon, malformed buckets).
    pub fn from_json(j: &Json) -> Option<WindowedHistogram> {
        let windows = j.get("windows")?.as_u64()? as usize;
        if windows == 0 {
            return None;
        }
        let tick = j.get("tick")?.as_u64()?;
        let Json::Arr(items) = j.get("slots")? else {
            return None;
        };
        let mut out = WindowedHistogram {
            slots: Vec::with_capacity(items.len()),
            windows,
            tick,
        };
        for item in items {
            let Json::Arr(pair) = item else { return None };
            let [t, h] = pair.as_slice() else { return None };
            let t = t.as_u64()?;
            if t > tick || t < out.horizon() {
                return None;
            }
            if let Some((last, _)) = out.slots.last() {
                if *last >= t {
                    return None;
                }
            }
            out.slots.push((t, Histogram::from_json(h)?));
        }
        Some(out)
    }
}

/// A windowed monotone counter: per-tick increments in a bounded ring
/// plus a lifetime total that never expires. `sum(last_n)` answers
/// "how many in the last N ticks" (a rate, once divided by the window
/// span); `total()` stays monotone for exposition formats that require
/// counters to never decrease.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RollingCounter {
    /// Retained `(tick, count)` pairs, sorted by tick ascending.
    slots: Vec<(u64, u64)>,
    /// Ring capacity in ticks.
    windows: usize,
    /// Newest tick ever seen.
    tick: u64,
    /// Lifetime sum of every `add_at`, expired or not.
    total: u64,
}

impl RollingCounter {
    /// An empty counter retaining `windows` ticks (clamped to at least 1).
    pub fn new(windows: usize) -> RollingCounter {
        RollingCounter {
            slots: Vec::new(),
            windows: windows.max(1),
            tick: 0,
            total: 0,
        }
    }

    /// The ring capacity in ticks.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// The newest tick seen so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    fn horizon(&self) -> u64 {
        self.tick.saturating_sub(self.windows as u64 - 1)
    }

    /// Advances the clock to `tick` (if newer), expiring old slots.
    pub fn advance(&mut self, tick: u64) {
        if tick > self.tick {
            self.tick = tick;
        }
        let horizon = self.horizon();
        self.slots.retain(|(t, _)| *t >= horizon);
    }

    /// Adds `n` at `tick`, advancing the clock first. Stale ticks below
    /// the retention horizon are clamped to the horizon; the lifetime
    /// total grows either way.
    pub fn add_at(&mut self, tick: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.advance(tick);
        self.total += n;
        let t = tick.max(self.horizon());
        match self.slots.binary_search_by_key(&t, |(slot, _)| *slot) {
            Ok(i) => self.slots[i].1 += n,
            Err(i) => self.slots.insert(i, (t, n)),
        }
    }

    /// The sum over the last `last_n` ticks ending at the current tick,
    /// inclusive (`last_n` clamped to `1..=windows`).
    pub fn sum(&self, last_n: usize) -> u64 {
        let last_n = last_n.clamp(1, self.windows) as u64;
        let lo = self.tick.saturating_sub(last_n - 1);
        self.slots
            .iter()
            .filter(|(t, _)| *t >= lo)
            .map(|(_, n)| n)
            .sum()
    }

    /// The monotone lifetime total (includes expired ticks).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Serializes the counter. Schema:
    ///
    /// ```json
    /// {"windows": 8, "tick": 42, "total": 129,
    ///  "slots": [[41, 3], [42, 1]]}
    /// ```
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("windows", Json::UInt(self.windows as u64)),
            ("tick", Json::UInt(self.tick)),
            ("total", Json::UInt(self.total)),
            (
                "slots",
                Json::Arr(
                    self.slots
                        .iter()
                        .map(|(t, n)| Json::Arr(vec![Json::UInt(*t), Json::UInt(*n)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads a counter back from [`RollingCounter::to_json`] output.
    /// Returns `None` on schema defects (zero window, unsorted slots,
    /// retained sum exceeding the lifetime total).
    pub fn from_json(j: &Json) -> Option<RollingCounter> {
        let windows = j.get("windows")?.as_u64()? as usize;
        if windows == 0 {
            return None;
        }
        let tick = j.get("tick")?.as_u64()?;
        let total = j.get("total")?.as_u64()?;
        let Json::Arr(items) = j.get("slots")? else {
            return None;
        };
        let mut out = RollingCounter {
            slots: Vec::with_capacity(items.len()),
            windows,
            tick,
            total,
        };
        for item in items {
            let Json::Arr(pair) = item else { return None };
            let [t, n] = pair.as_slice() else { return None };
            let t = t.as_u64()?;
            if t > tick || t < out.horizon() {
                return None;
            }
            if let Some((last, _)) = out.slots.last() {
                if *last >= t {
                    return None;
                }
            }
            out.slots.push((t, n.as_u64()?));
        }
        if out.slots.iter().map(|(_, n)| n).sum::<u64>() > total {
            return None;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_covers_exactly_the_requested_span() {
        let mut w = WindowedHistogram::new(4);
        for tick in 1..=6u64 {
            w.record_at(tick, tick * 100);
        }
        // Ticks 1 and 2 expired when tick 6 arrived (horizon = 3).
        assert_eq!(w.tick(), 6);
        assert_eq!(w.merged(w.windows()).count(), 4);
        assert_eq!(w.merged(1).count(), 1); // tick 6 only
        assert_eq!(w.merged(2).count(), 2); // ticks 5..=6
        assert_eq!(w.merged(4).count(), 4); // ticks 3..=6
                                            // last_n beyond capacity clamps to the ring.
        assert_eq!(w.merged(100).count(), 4);
        // The merged histogram's extremes come from the span only.
        assert_eq!(w.merged(4).min(), 300);
        assert_eq!(w.merged(4).max(), 600);
    }

    #[test]
    fn expiry_is_exact_at_the_horizon_tick_by_tick() {
        let mut w = WindowedHistogram::new(3);
        w.record_at(10, 1);
        w.record_at(11, 2);
        w.record_at(12, 3);
        assert_eq!(w.merged(3).count(), 3);
        // Tick 13: horizon moves to 11, the tick-10 bucket drops exactly.
        w.advance(13);
        assert_eq!(w.merged(3).count(), 2);
        assert_eq!(w.merged(3).min(), 2);
        // Two idle ticks later only tick-12 data could remain — and the
        // span ends at tick 15, so even that is outside merged(3).
        w.advance(15);
        assert_eq!(w.merged(w.windows()).count(), 0);
        assert_eq!(w.merged(3).count(), 0);
        assert_eq!(w.merged(3).quantile(0.99), 0);
    }

    #[test]
    fn stale_ticks_clamp_to_the_horizon_and_time_never_rewinds() {
        let mut w = WindowedHistogram::new(2);
        w.record_at(9, 50);
        // Tick 3 is ancient; it lands in the horizon bucket (tick 8).
        w.record_at(3, 70);
        assert_eq!(w.tick(), 9);
        assert_eq!(w.merged(2).count(), 2);
        assert_eq!(w.merged(1).count(), 1);
    }

    #[test]
    fn windowed_histogram_json_round_trips() {
        let mut w = WindowedHistogram::new(4);
        for tick in 5..=7u64 {
            w.record_at(tick, tick * tick);
        }
        let text = w.to_json().to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(WindowedHistogram::from_json(&parsed), Some(w));
        // Schema defects are rejected, not misread.
        assert_eq!(
            WindowedHistogram::from_json(
                &Json::parse("{\"windows\":0,\"tick\":1,\"slots\":[]}").unwrap()
            ),
            None
        );
        assert_eq!(
            WindowedHistogram::from_json(
                &Json::parse("{\"windows\":2,\"tick\":1,\"slots\":[[5,{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]}]]}").unwrap()
            ),
            None,
            "slots beyond the current tick are rejected"
        );
    }

    #[test]
    fn rolling_counter_sums_windows_and_keeps_lifetime_total() {
        let mut c = RollingCounter::new(3);
        c.add_at(1, 5);
        c.add_at(2, 7);
        c.add_at(3, 1);
        assert_eq!(c.sum(1), 1);
        assert_eq!(c.sum(3), 13);
        assert_eq!(c.total(), 13);
        // Advancing expires the windowed view but never the total.
        c.advance(10);
        assert_eq!(c.sum(3), 0);
        assert_eq!(c.total(), 13);
        c.add_at(10, 2);
        assert_eq!(c.sum(1), 2);
        assert_eq!(c.total(), 15);
    }

    #[test]
    fn rolling_counter_json_round_trips_and_rejects_defects() {
        let mut c = RollingCounter::new(5);
        c.add_at(3, 4);
        c.add_at(4, 9);
        let text = c.to_json().to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(RollingCounter::from_json(&parsed), Some(c));
        // Retained slots must not exceed the monotone total.
        let bad = "{\"windows\":2,\"tick\":4,\"total\":1,\"slots\":[[4,9]]}";
        assert_eq!(RollingCounter::from_json(&Json::parse(bad).unwrap()), None);
    }

    #[test]
    fn zero_increments_are_noops() {
        let mut w = WindowedHistogram::new(2);
        w.record_n_at(5, 123, 0);
        assert_eq!(w.merged(w.windows()).count(), 0);
        assert_eq!(w.tick(), 0, "a zero record does not advance the clock");
        let mut c = RollingCounter::new(2);
        c.add_at(5, 0);
        assert_eq!((c.total(), c.tick()), (0, 0));
    }
}
