//! Zero-dependency observability for the PST pipeline.
//!
//! The paper's headline claim is *linear time*; this crate exists so the
//! reproduction can observe whether a run actually behaves linearly
//! instead of guessing. It provides three things:
//!
//! 1. **Phase spans** — [`Span::enter("cycle_equiv")`](Span::enter)
//!    returns an RAII guard; nested guards build a per-phase tree of
//!    wall-times measured with [`std::time::Instant`] (monotonic).
//! 2. **Hot-path counters, gauges, and histograms** — [`counter!`] /
//!    [`gauge!`] / [`histogram!`] record into thread-local registries
//!    that are folded into a global aggregate when threads exit and
//!    snapshotted by [`report`]. Histograms are log-linear
//!    ([`hist::Histogram`]) with mergeable buckets and quantile queries;
//!    [`window`] adds their live counterparts ([`WindowedHistogram`],
//!    [`RollingCounter`]) rotated on an injectable tick clock.
//! 3. **Unit-scoped trace contexts** — [`UnitScope::enter`]`("main#f")`
//!    attributes everything recorded while the guard lives to that unit
//!    (a function, fuzz case, serve request, shard item) *as well as*
//!    the global aggregate, producing per-unit sub-reports in
//!    [`Report::units`].
//! 4. **A structured event journal** — [`journal`] appends typed JSONL
//!    events (run start/end, unit summaries, lint findings, fuzz
//!    crashes, slow serve requests) carrying a deterministic-when-seeded
//!    trace id and a monotonic sequence offset.
//! 5. **A hand-rolled JSON emitter** — [`json::Json`] serializes span
//!    trees, counters, and `PstStats` without serde (the build
//!    environment is offline).
//!
//! # Feature gating
//!
//! Everything compiles to inert no-ops unless the `enabled` feature is
//! on: `Span::enter` returns a zero-sized guard, `counter!` expands to a
//!  call into an empty `#[inline(always)]` function, and [`report`]
//! returns an empty report. Library crates expose this as their own
//! `obs` feature (default **off**); the CLI and the `experiments` binary
//! turn it on by default. See `docs/OBSERVABILITY.md` for naming
//! conventions and the report schema.
//!
//! # Examples
//!
//! ```
//! {
//!     let _pipeline = pst_obs::Span::enter("pipeline");
//!     let _parse = pst_obs::Span::enter("parse");
//!     pst_obs::counter!("tokens", 42);
//! }
//! let report = pst_obs::report();
//! if pst_obs::enabled() {
//!     assert_eq!(report.counter("tokens"), 42);
//!     println!("{}", report.to_json());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod journal;
pub mod json;
pub mod window;

use std::collections::BTreeMap;

pub use hist::Histogram;
use json::Json;
pub use window::{RollingCounter, WindowedHistogram};

/// Whether observability was compiled in (`enabled` feature).
#[inline(always)]
pub fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Adds `delta` to the named counter. Prefer the [`counter!`] macro.
#[inline(always)]
pub fn counter_add(name: &'static str, delta: u64) {
    #[cfg(feature = "enabled")]
    imp::counter_add(name, delta);
    #[cfg(not(feature = "enabled"))]
    let _ = (name, delta);
}

/// Sets the named gauge to `value` (last write wins per thread; the
/// report keeps the maximum across threads). Prefer [`gauge!`].
#[inline(always)]
pub fn gauge_set(name: &'static str, value: u64) {
    #[cfg(feature = "enabled")]
    imp::gauge_set(name, value);
    #[cfg(not(feature = "enabled"))]
    let _ = (name, value);
}

/// Records `value` into the named log-linear histogram (per unit when a
/// [`UnitScope`] is open, and always globally). Prefer [`histogram!`].
#[inline(always)]
pub fn histogram_record(name: &'static str, value: u64) {
    #[cfg(feature = "enabled")]
    imp::histogram_record(name, value);
    #[cfg(not(feature = "enabled"))]
    let _ = (name, value);
}

/// Increments a named counter: `counter!("brackets_pushed")` or
/// `counter!("brackets_pushed", n)`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter_add($name, 1)
    };
    ($name:expr, $delta:expr) => {
        $crate::counter_add($name, $delta as u64)
    };
}

/// Sets a named gauge: `gauge!("cfg_nodes", n)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        $crate::gauge_set($name, $value as u64)
    };
}

/// Records a value into a named histogram:
/// `histogram!("phase_nanos_parse", nanos)`. Compiles to a no-op
/// without the `enabled` feature.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        $crate::histogram_record($name, $value as u64)
    };
}

/// A named phase. [`Span::enter`] starts timing; dropping the returned
/// guard stops it and records the elapsed wall-time under the innermost
/// open span of the same thread, building a tree.
pub struct Span;

impl Span {
    /// Opens the named span. Re-entering the same name under the same
    /// parent merges into one node (accumulating time and a hit count),
    /// so loops don't blow up the tree.
    #[inline(always)]
    pub fn enter(name: &'static str) -> SpanGuard {
        #[cfg(feature = "enabled")]
        {
            SpanGuard(Some(imp::enter(name)))
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = name;
            SpanGuard(())
        }
    }
}

/// RAII guard for an open [`Span`]; records on drop.
#[must_use = "a span guard records its phase when dropped"]
pub struct SpanGuard(
    #[cfg(feature = "enabled")] Option<imp::OpenSpan>,
    #[cfg(not(feature = "enabled"))] (),
);

impl Drop for SpanGuard {
    #[inline(always)]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some(open) = self.0.take() {
            imp::exit(open);
        }
    }
}

/// A unit-scoped trace context. [`UnitScope::enter`] pushes the unit id
/// onto a thread-local stack; while the returned guard lives, every
/// [`counter!`], [`gauge!`], and [`histogram!`] write lands in the
/// *innermost* open unit's sub-report in addition to the global
/// aggregate. Dropping the guard records the unit's wall-time and entry
/// count and folds its tallies into [`Report::units`].
///
/// Units are dynamic ids — a function (`file#fn`), a fuzz seed
/// (`seed:42`), a serve request, a batch shard item — so names are
/// owned `String`s, unlike the `&'static str` metric names. Nested
/// scopes attribute to the innermost unit only. Like spans, unit state
/// is thread-local and lock-free; it folds into the global aggregate
/// when the thread exits (or on [`flush_thread`]).
pub struct UnitScope;

impl UnitScope {
    /// Opens a unit context named `unit`. Re-entering the same name
    /// later merges into one [`UnitReport`] (summing counts and times).
    #[inline(always)]
    pub fn enter(unit: impl Into<String>) -> UnitGuard {
        #[cfg(feature = "enabled")]
        {
            UnitGuard(Some(imp::unit_enter(unit.into())))
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = unit;
            UnitGuard(())
        }
    }
}

/// RAII guard for an open [`UnitScope`]; folds the unit's tallies into
/// the thread's sub-report table on drop. `!Send` when observability is
/// compiled in: the guard must drop on the thread whose unit stack it
/// owns.
#[must_use = "a unit guard records its unit when dropped"]
pub struct UnitGuard(
    #[cfg(feature = "enabled")] Option<imp::OpenUnit>,
    #[cfg(not(feature = "enabled"))] (),
);

impl Drop for UnitGuard {
    #[inline(always)]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some(open) = self.0.take() {
            imp::unit_exit(open);
        }
    }
}

/// One node of the recorded span tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name as passed to [`Span::enter`].
    pub name: String,
    /// How many times this span was entered.
    pub count: u64,
    /// Total wall-time spent inside, in nanoseconds.
    pub nanos: u64,
    /// Nested spans, in first-entry order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    fn merge_from(&mut self, other: &SpanNode) {
        self.count += other.count;
        self.nanos += other.nanos;
        for child in &other.children {
            match self.children.iter_mut().find(|c| c.name == child.name) {
                Some(mine) => mine.merge_from(child),
                None => self.children.push(child.clone()),
            }
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("count", Json::UInt(self.count)),
            ("nanos", Json::UInt(self.nanos)),
            (
                "children",
                Json::Arr(self.children.iter().map(SpanNode::to_json).collect()),
            ),
        ])
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        let ms = self.nanos as f64 / 1e6;
        let _ = writeln!(
            out,
            "{:indent$}{:<28} {:>6}x {:>10.3} ms",
            "",
            self.name,
            self.count,
            ms,
            indent = depth * 2
        );
        // Children are stored in first-entry order but *rendered* by
        // name so the text trace is byte-stable across runs and thread
        // interleavings.
        let mut children: Vec<&SpanNode> = self.children.iter().collect();
        children.sort_by(|a, b| a.name.cmp(&b.name));
        for c in children {
            c.render_into(out, depth + 1);
        }
    }
}

/// Per-unit sub-report: what a [`UnitScope`] attributed to one unit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnitReport {
    /// How many times a scope with this unit id was entered.
    pub count: u64,
    /// Total wall-time spent inside this unit's scopes, in nanoseconds.
    pub nanos: u64,
    /// Counter totals attributed to this unit.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values attributed to this unit (maximum across entries).
    pub gauges: BTreeMap<String, u64>,
    /// Histograms attributed to this unit.
    pub histograms: BTreeMap<String, Histogram>,
}

impl UnitReport {
    /// Folds another sub-report for the same unit into this one.
    pub fn merge_from(&mut self, other: &UnitReport) {
        self.count += other.count;
        self.nanos += other.nanos;
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            *slot = (*slot).max(v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge_from(h);
        }
    }

    /// Serializes the sub-report (see [`Report::to_json`] for the
    /// enclosing schema).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("nanos", Json::UInt(self.nanos)),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::UInt(v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::UInt(v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads a sub-report back from [`UnitReport::to_json`] output.
    pub fn from_json(j: &Json) -> Option<UnitReport> {
        let count = j.get("count")?.as_u64()?;
        let nanos = j.get("nanos")?.as_u64()?;
        let mut report = UnitReport {
            count,
            nanos,
            ..UnitReport::default()
        };
        let Json::Obj(counters) = j.get("counters")? else {
            return None;
        };
        for (k, v) in counters {
            report.counters.insert(k.clone(), v.as_u64()?);
        }
        let Json::Obj(gauges) = j.get("gauges")? else {
            return None;
        };
        for (k, v) in gauges {
            report.gauges.insert(k.clone(), v.as_u64()?);
        }
        let Json::Obj(hists) = j.get("histograms")? else {
            return None;
        };
        for (k, v) in hists {
            report
                .histograms
                .insert(k.clone(), Histogram::from_json(v)?);
        }
        Some(report)
    }
}

/// A point-in-time snapshot of everything recorded so far.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Top-level spans (phases with no enclosing span).
    pub spans: Vec<SpanNode>,
    /// Counter totals across all threads.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values (maximum across threads).
    pub gauges: BTreeMap<String, u64>,
    /// Global histograms (all units plus unscoped recordings).
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-unit sub-reports, keyed by unit id (see [`UnitScope`]).
    pub units: BTreeMap<String, UnitReport>,
}

impl Report {
    /// The total of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of a gauge (0 if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The histogram recorded under `name` (empty if never touched).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Serializes the report. Schema:
    ///
    /// ```json
    /// {"spans": [{"name": "...", "count": 1, "nanos": 123,
    ///             "children": [...]}, ...],
    ///  "counters": {"brackets_pushed": 42, ...},
    ///  "gauges": {"cfg_nodes": 7, ...},
    ///  "histograms": {"phase_nanos_parse": {"count": 3, ...}, ...},
    ///  "units": {"main#f": {"count": 1, "nanos": 123, ...}, ...}}
    /// ```
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "spans",
                Json::Arr(self.spans.iter().map(SpanNode::to_json).collect()),
            ),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::UInt(v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::UInt(v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
            (
                "units",
                Json::Obj(
                    self.units
                        .iter()
                        .map(|(k, u)| (k.clone(), u.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable phase tree plus counters, gauges, histograms, and
    /// unit sub-reports (what `pst --trace` prints to stderr). The
    /// output is fully deterministic for a given report: sibling spans
    /// and every listing are sorted by name, so traces are byte-stable
    /// and diffable in CI.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("phase                            hits        wall\n");
        let mut roots: Vec<&SpanNode> = self.spans.iter().collect();
        roots.sort_by(|a, b| a.name.cmp(&b.name));
        for s in roots {
            s.render_into(&mut out, 0);
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<30} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<30} {v:>12}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &self.histograms {
                let _ = writeln!(out, "  {k:<30} {}", h.render_line());
            }
        }
        if !self.units.is_empty() {
            out.push_str("units:\n");
            for (k, u) in &self.units {
                let ms = u.nanos as f64 / 1e6;
                let _ = writeln!(out, "  {:<30} {:>6}x {:>10.3} ms", k, u.count, ms);
            }
        }
        out
    }
}

/// Formats a nanosecond duration with an adaptive unit (`ns`, `µs`,
/// `ms`, `s`) and two decimals, for human-readable tables.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Snapshots all spans, counters, and gauges recorded so far: the
/// global aggregate (threads that exited) folded with the calling
/// thread's live state. Empty when the `enabled` feature is off.
pub fn report() -> Report {
    #[cfg(feature = "enabled")]
    {
        imp::report()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Report::default()
    }
}

/// Clears all recorded data (global aggregate and the calling thread's
/// registries). Tests use this to isolate measurements.
pub fn reset() {
    #[cfg(feature = "enabled")]
    imp::reset();
}

/// Drains the calling thread's counter, gauge, histogram, and completed
/// unit-sub-report registries into the global aggregate immediately.
///
/// Normally a thread's registries fold into the aggregate only when the
/// thread exits, so counters recorded by a live worker are invisible to
/// [`report`] on other threads, and a unit of work whose panic is
/// contained by `catch_unwind` can lose its tally if the thread never
/// exits cleanly. Flushing *moves* the totals (it never double-counts):
/// after the call the thread's local registries are empty and the
/// global aggregate holds the sums. Span trees are not flushed — the
/// thread may still hold open [`SpanGuard`]s pointing into its tree —
/// and neither are still-open unit frames, whose tallies fold when
/// their [`UnitGuard`] drops.
pub fn flush_thread() {
    #[cfg(feature = "enabled")]
    imp::flush_thread_metrics();
}

/// RAII version of [`flush_thread`]: folds the calling thread's
/// counters and gauges into the global aggregate on drop — **including
/// drops that happen while a panic unwinds**. `pst fuzz` creates one of
/// these inside every `catch_unwind`-contained unit so the counters a
/// panicking input recorded before its crash still reach the report.
#[must_use = "the guard folds counters when dropped; binding it to `_` drops it immediately"]
pub struct ScopedFold {
    // `!Send`: the guard must drop on the thread whose registries it folds.
    _thread_bound: std::marker::PhantomData<*const ()>,
}

/// Creates a [`ScopedFold`] guard for the current thread.
pub fn fold_on_drop() -> ScopedFold {
    ScopedFold {
        _thread_bound: std::marker::PhantomData,
    }
}

impl Drop for ScopedFold {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        imp::flush_thread_metrics();
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{Histogram, Report, SpanNode, UnitReport};
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::{Mutex, MutexGuard};
    use std::time::Instant;

    /// Locks the global aggregate, recovering from poisoning: a panic
    /// on some other thread must never silently discard every later
    /// thread's fold (the registry holds plain counters whose invariants
    /// cannot be torn by an unwind).
    fn lock_global() -> MutexGuard<'static, Report> {
        GLOBAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Tree arena: node 0 is the synthetic root.
    #[derive(Default)]
    struct Tree {
        names: Vec<&'static str>,
        counts: Vec<u64>,
        nanos: Vec<u64>,
        children: Vec<Vec<usize>>,
    }

    impl Tree {
        fn new() -> Self {
            let mut t = Tree::default();
            t.push_node("");
            t
        }

        fn push_node(&mut self, name: &'static str) -> usize {
            self.names.push(name);
            self.counts.push(0);
            self.nanos.push(0);
            self.children.push(Vec::new());
            self.names.len() - 1
        }

        fn child_named(&mut self, parent: usize, name: &'static str) -> usize {
            if let Some(&c) = self.children[parent]
                .iter()
                .find(|&&c| self.names[c] == name)
            {
                return c;
            }
            let c = self.push_node(name);
            self.children[parent].push(c);
            c
        }

        fn snapshot(&self, node: usize) -> SpanNode {
            SpanNode {
                name: self.names[node].to_string(),
                count: self.counts[node],
                nanos: self.nanos[node],
                children: self.children[node]
                    .iter()
                    .map(|&c| self.snapshot(c))
                    .collect(),
            }
        }
    }

    /// One open [`super::UnitScope`]: tallies recorded while this unit
    /// is innermost, folded into the thread's `units` table on exit.
    struct UnitFrame {
        name: String,
        start: Instant,
        counters: Vec<(&'static str, u64)>,
        gauges: Vec<(&'static str, u64)>,
        hists: Vec<(&'static str, Histogram)>,
    }

    /// Adds `delta` to the named slot in a small linear-scan registry.
    /// Few distinct names: a scan over a small vec is cheaper and more
    /// predictable than hashing on this path (`ptr::eq` catches the
    /// common same-literal case without comparing bytes).
    fn slot_add(slots: &mut Vec<(&'static str, u64)>, name: &'static str, delta: u64) {
        for slot in slots.iter_mut() {
            if std::ptr::eq(slot.0, name) || slot.0 == name {
                slot.1 += delta;
                return;
            }
        }
        slots.push((name, delta));
    }

    /// Last-write-wins variant of [`slot_add`] (gauges).
    fn slot_set(slots: &mut Vec<(&'static str, u64)>, name: &'static str, value: u64) {
        for slot in slots.iter_mut() {
            if std::ptr::eq(slot.0, name) || slot.0 == name {
                slot.1 = value;
                return;
            }
        }
        slots.push((name, value));
    }

    /// Records into the named histogram slot.
    fn slot_record(slots: &mut Vec<(&'static str, Histogram)>, name: &'static str, value: u64) {
        for slot in slots.iter_mut() {
            if std::ptr::eq(slot.0, name) || slot.0 == name {
                slot.1.record(value);
                return;
            }
        }
        let mut h = Histogram::new();
        h.record(value);
        slots.push((name, h));
    }

    struct ThreadState {
        tree: Tree,
        stack: Vec<usize>,
        counters: Vec<(&'static str, u64)>,
        gauges: Vec<(&'static str, u64)>,
        hists: Vec<(&'static str, Histogram)>,
        unit_stack: Vec<UnitFrame>,
        /// Completed units on this thread (open frames are still on
        /// `unit_stack` and fold only when their guard drops).
        units: BTreeMap<String, UnitReport>,
    }

    impl ThreadState {
        fn new() -> Self {
            ThreadState {
                tree: Tree::new(),
                stack: vec![0],
                counters: Vec::new(),
                gauges: Vec::new(),
                hists: Vec::new(),
                unit_stack: Vec::new(),
                units: BTreeMap::new(),
            }
        }

        fn fold_into(&self, agg: &mut Report) {
            for root in self.tree.children[0].iter().map(|&c| self.tree.snapshot(c)) {
                match agg.spans.iter_mut().find(|s| s.name == root.name) {
                    Some(mine) => mine.merge_from(&root),
                    None => agg.spans.push(root),
                }
            }
            for &(name, v) in &self.counters {
                *agg.counters.entry(name.to_string()).or_insert(0) += v;
            }
            for &(name, v) in &self.gauges {
                let slot = agg.gauges.entry(name.to_string()).or_insert(0);
                *slot = (*slot).max(v);
            }
            for (name, h) in &self.hists {
                agg.histograms
                    .entry(name.to_string())
                    .or_default()
                    .merge_from(h);
            }
            for (name, u) in &self.units {
                agg.units.entry(name.clone()).or_default().merge_from(u);
            }
        }
    }

    impl Drop for ThreadState {
        fn drop(&mut self) {
            self.fold_into(&mut lock_global());
        }
    }

    /// Aggregate of every thread that has already exited.
    static GLOBAL: Mutex<Report> = Mutex::new(Report {
        spans: Vec::new(),
        counters: std::collections::BTreeMap::new(),
        gauges: std::collections::BTreeMap::new(),
        histograms: std::collections::BTreeMap::new(),
        units: std::collections::BTreeMap::new(),
    });

    thread_local! {
        static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::new());
    }

    pub(super) struct OpenSpan {
        node: usize,
        start: Instant,
    }

    pub(super) fn enter(name: &'static str) -> OpenSpan {
        let node = STATE.with(|s| {
            let mut s = s.borrow_mut();
            let parent = *s.stack.last().expect("span stack has a root");
            let node = s.tree.child_named(parent, name);
            s.stack.push(node);
            node
        });
        OpenSpan {
            node,
            start: Instant::now(),
        }
    }

    pub(super) fn exit(open: OpenSpan) {
        let elapsed = open.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            // Pop back to this span's parent. Guards are dropped in
            // LIFO order, so the top of the stack is `open.node` unless
            // a guard was leaked; truncating keeps the tree sane then.
            while s.stack.len() > 1 {
                let top = s.stack.pop().expect("stack non-empty");
                if top == open.node {
                    break;
                }
            }
            s.tree.counts[open.node] += 1;
            s.tree.nanos[open.node] += elapsed;
        });
    }

    #[inline]
    pub(super) fn counter_add(name: &'static str, delta: u64) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            slot_add(&mut s.counters, name, delta);
            if let Some(frame) = s.unit_stack.last_mut() {
                slot_add(&mut frame.counters, name, delta);
            }
        });
    }

    #[inline]
    pub(super) fn gauge_set(name: &'static str, value: u64) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            slot_set(&mut s.gauges, name, value);
            if let Some(frame) = s.unit_stack.last_mut() {
                slot_set(&mut frame.gauges, name, value);
            }
        });
    }

    #[inline]
    pub(super) fn histogram_record(name: &'static str, value: u64) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            slot_record(&mut s.hists, name, value);
            if let Some(frame) = s.unit_stack.last_mut() {
                slot_record(&mut frame.hists, name, value);
            }
        });
    }

    /// An open unit scope: the index its frame occupies on the thread's
    /// unit stack. `!Send` (raw-pointer phantom) because the guard must
    /// drop on the thread owning that stack.
    pub(super) struct OpenUnit {
        base: usize,
        _thread_bound: std::marker::PhantomData<*const ()>,
    }

    pub(super) fn unit_enter(name: String) -> OpenUnit {
        let base = STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.unit_stack.push(UnitFrame {
                name,
                start: Instant::now(),
                counters: Vec::new(),
                gauges: Vec::new(),
                hists: Vec::new(),
            });
            s.unit_stack.len() - 1
        });
        OpenUnit {
            base,
            _thread_bound: std::marker::PhantomData,
        }
    }

    pub(super) fn unit_exit(open: OpenUnit) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            // Guards drop in LIFO order, so `open.base` is normally the
            // top of the stack; if an inner guard was leaked, fold every
            // frame above it too so no tallies are lost.
            while s.unit_stack.len() > open.base {
                let frame = s.unit_stack.pop().expect("unit stack non-empty");
                let elapsed = frame.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                let entry = s.units.entry(frame.name).or_default();
                entry.count += 1;
                entry.nanos += elapsed;
                for (name, v) in frame.counters {
                    *entry.counters.entry(name.to_string()).or_insert(0) += v;
                }
                for (name, v) in frame.gauges {
                    let slot = entry.gauges.entry(name.to_string()).or_insert(0);
                    *slot = (*slot).max(v);
                }
                for (name, h) in frame.hists {
                    entry
                        .histograms
                        .entry(name.to_string())
                        .or_default()
                        .merge_from(&h);
                }
            }
        });
    }

    pub(super) fn report() -> Report {
        let mut agg = lock_global().clone();
        STATE.with(|s| s.borrow().fold_into(&mut agg));
        agg
    }

    pub(super) fn reset() {
        // Replacing the thread's state drops the old one, and its
        // destructor folds it into the global aggregate: clear the
        // aggregate only after that.
        STATE.with(|s| *s.borrow_mut() = ThreadState::new());
        *lock_global() = Report::default();
    }

    /// Moves the calling thread's counters, gauges, histograms, and
    /// completed unit sub-reports into the global aggregate (see
    /// [`super::flush_thread`]). Open unit frames stay on the thread —
    /// their tallies fold when their guard drops. Uses `try_with` so a
    /// flush racing thread-local destruction is a no-op, not a panic —
    /// the `ThreadState` destructor folds everything anyway.
    pub(super) fn flush_thread_metrics() {
        let _ = STATE.try_with(|s| {
            let mut s = s.borrow_mut();
            let counters = std::mem::take(&mut s.counters);
            let gauges = std::mem::take(&mut s.gauges);
            let hists = std::mem::take(&mut s.hists);
            let units = std::mem::take(&mut s.units);
            if counters.is_empty() && gauges.is_empty() && hists.is_empty() && units.is_empty() {
                return;
            }
            let mut agg = lock_global();
            for (name, v) in counters {
                *agg.counters.entry(name.to_string()).or_insert(0) += v;
            }
            for (name, v) in gauges {
                let slot = agg.gauges.entry(name.to_string()).or_insert(0);
                *slot = (*slot).max(v);
            }
            for (name, h) in hists {
                agg.histograms
                    .entry(name.to_string())
                    .or_default()
                    .merge_from(&h);
            }
            for (name, u) in units {
                agg.units.entry(name).or_default().merge_from(&u);
            }
        });
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    // The registry is process-global; serialize tests that reset it.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        // Same poison-recovery idiom as every lock in this workspace
        // (see docs/SERVING.md § locking): a panicked holder must not
        // wedge later acquisitions.
        TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn spans_nest_and_counters_sum() {
        let _l = locked();
        reset();
        {
            let _outer = Span::enter("outer");
            for _ in 0..3 {
                let _inner = Span::enter("inner");
                counter!("ticks");
            }
            counter!("ticks", 7);
        }
        let r = report();
        assert_eq!(r.counter("ticks"), 10);
        let outer = &r.spans[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.count, 1);
        let inner = &outer.children[0];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.count, 3);
        assert!(outer.nanos >= inner.nanos);
        reset();
    }

    #[test]
    fn worker_thread_state_folds_into_report() {
        let _l = locked();
        reset();
        std::thread::spawn(|| {
            let _s = Span::enter("worker_phase");
            counter!("worker_ticks", 5);
        })
        .join()
        .unwrap();
        let r = report();
        assert_eq!(r.counter("worker_ticks"), 5);
        assert!(r.spans.iter().any(|s| s.name == "worker_phase"));
        reset();
    }

    #[test]
    fn reset_discards_the_calling_threads_registries() {
        let _l = locked();
        reset();
        {
            let _s = Span::enter("discarded");
            counter!("discarded_ticks", 5);
        }
        reset();
        let r = report();
        assert_eq!(r.counter("discarded_ticks"), 0);
        assert!(r.spans.is_empty(), "{:?}", r.spans);
    }

    #[test]
    fn gauges_keep_thread_maximum() {
        let _l = locked();
        reset();
        gauge!("size", 3);
        gauge!("size", 9);
        std::thread::spawn(|| gauge!("size", 6)).join().unwrap();
        assert_eq!(report().gauge("size"), 9);
        reset();
    }

    #[test]
    fn scoped_fold_survives_contained_panic() {
        let _l = locked();
        reset();
        let result = std::panic::catch_unwind(|| {
            let _fold = fold_on_drop();
            counter!("doomed_unit_ticks", 3);
            panic!("unit dies after recording");
        });
        assert!(result.is_err());
        // The guard drained the tally into the global aggregate during
        // the unwind; the report sees it exactly once.
        assert_eq!(report().counter("doomed_unit_ticks"), 3);
        reset();
    }

    #[test]
    fn unit_scopes_attribute_to_innermost_and_global() {
        let _l = locked();
        reset();
        {
            let _outer = UnitScope::enter("outer_unit");
            counter!("work", 2);
            histogram!("latency", 100);
            {
                let _inner = UnitScope::enter("inner_unit");
                counter!("work", 5);
                gauge!("size", 9);
                histogram!("latency", 300);
            }
            counter!("work", 1);
        }
        let r = report();
        // Global aggregate sees everything.
        assert_eq!(r.counter("work"), 8);
        assert_eq!(r.gauge("size"), 9);
        assert_eq!(r.histogram("latency").count(), 2);
        // Innermost attribution: inner unit got the 5, outer the 2+1.
        let outer = &r.units["outer_unit"];
        let inner = &r.units["inner_unit"];
        assert_eq!(outer.counters["work"], 3);
        assert_eq!(inner.counters["work"], 5);
        assert_eq!(inner.gauges["size"], 9);
        assert!(!outer.gauges.contains_key("size"));
        assert_eq!(outer.histograms["latency"].count(), 1);
        assert_eq!(inner.histograms["latency"].count(), 1);
        assert_eq!(outer.count, 1);
        assert!(outer.nanos >= inner.nanos);
        reset();
    }

    #[test]
    fn reentering_a_unit_merges_and_survives_threads_and_flush() {
        let _l = locked();
        reset();
        {
            let _u = UnitScope::enter("shared");
            counter!("ticks", 1);
        }
        flush_thread();
        std::thread::spawn(|| {
            let _u = UnitScope::enter("shared");
            counter!("ticks", 4);
        })
        .join()
        .unwrap();
        let r = report();
        let shared = &r.units["shared"];
        assert_eq!(shared.count, 2);
        assert_eq!(shared.counters["ticks"], 5);
        assert_eq!(r.counter("ticks"), 5);
        reset();
    }

    #[test]
    fn unit_scope_survives_contained_panic_via_scoped_fold() {
        let _l = locked();
        reset();
        let result = std::panic::catch_unwind(|| {
            let _fold = fold_on_drop();
            let _u = UnitScope::enter("doomed");
            counter!("doomed_work", 2);
            panic!("unit dies");
        });
        assert!(result.is_err());
        // The UnitGuard dropped (folding the frame into the thread's
        // table) before ScopedFold drained the table into the global.
        assert_eq!(report().units["doomed"].counters["doomed_work"], 2);
        reset();
    }

    #[test]
    fn report_json_round_trips_units_and_histograms() {
        let _l = locked();
        reset();
        {
            let _u = UnitScope::enter("u1");
            histogram!("h", 42);
            counter!("c", 3);
        }
        let r = report();
        let j = r.to_json().to_string();
        let parsed = Json::parse(&j).unwrap();
        let u1 = UnitReport::from_json(parsed.get("units").unwrap().get("u1").unwrap()).unwrap();
        assert_eq!(&u1, &r.units["u1"]);
        let h = Histogram::from_json(parsed.get("histograms").unwrap().get("h").unwrap()).unwrap();
        assert_eq!(h, r.histograms["h"]);
        reset();
    }

    #[test]
    fn render_text_sorts_siblings_and_sections_by_name() {
        let _l = locked();
        reset();
        {
            let _outer = Span::enter("zeta");
            {
                let _b = Span::enter("bravo");
            }
            let _a = Span::enter("alpha");
        }
        {
            let _first = Span::enter("apex");
        }
        histogram!("hist_b", 2);
        histogram!("hist_a", 1);
        let text = report().render_text();
        let apex = text.find("apex").unwrap();
        let zeta = text.find("zeta").unwrap();
        let alpha = text.find("alpha").unwrap();
        let bravo = text.find("bravo").unwrap();
        assert!(apex < zeta, "top-level spans sorted by name:\n{text}");
        assert!(alpha < bravo, "sibling children sorted by name:\n{text}");
        assert!(text.find("hist_a").unwrap() < text.find("hist_b").unwrap());
        reset();
    }

    #[test]
    fn flush_makes_live_worker_counters_visible_without_double_count() {
        let _l = locked();
        reset();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            counter!("worker_units", 2);
            gauge!("worker_peak", 7);
            flush_thread();
            ready_tx.send(()).unwrap();
            // Stay alive: without the flush the main thread could not
            // see this thread's counters yet.
            release_rx.recv().unwrap();
            counter!("worker_units", 1);
        });
        ready_rx.recv().unwrap();
        assert_eq!(report().counter("worker_units"), 2);
        assert_eq!(report().gauge("worker_peak"), 7);
        release_tx.send(()).unwrap();
        worker.join().unwrap();
        // Thread exit folds the post-flush remainder; no double count.
        assert_eq!(report().counter("worker_units"), 3);
        reset();
    }
}
