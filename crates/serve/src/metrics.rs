//! Live daemon telemetry: per-method and per-shard windowed series, the
//! slow-request ring, and Prometheus-style text exposition.
//!
//! [`LiveMetrics`] sits behind one mutex in the shared front-end and is
//! fed one [`RequestOutcome`] per analysis request. Time is quantized
//! into ticks of `--metrics-window-ms` each (the injectable tick clock
//! of [`pst_obs::WindowedHistogram`]): quantiles and rates answer "over
//! the last few windows", while the lifetime histograms and the
//! monotone [`pst_obs::RollingCounter`] totals feed the exposition
//! format, whose counters must never decrease.
//!
//! The slowlog is a bounded ring of the top-K slowest requests seen so
//! far, each carrying its per-phase breakdown (`parse`, then the
//! session's `register` / `inject` / `compute`), so a chaos-injected
//! stall is attributable to its phase rather than a mystery total.
//!
//! The text exposition is deliberately minimal Prometheus 0.0.4: one
//! `# TYPE` comment per family, `name{label="value"} n` samples, no
//! dependencies. `docs/OBSERVABILITY.md` § Exposition documents the
//! grammar subset and every exported family.

use std::time::Instant;

use pst_obs::json::Json;
use pst_obs::{Histogram, RollingCounter, WindowedHistogram};

/// What one finished analysis request looked like, as recorded by the
/// session and attached to its [`crate::session::Reply`]. This is the
/// only thing the live-metrics layer ever sees — it never re-parses
/// response JSON.
#[derive(Clone, Debug)]
pub struct RequestOutcome {
    /// Wire name of the method (`"pst"`, `"lint"`, ...).
    pub method: &'static str,
    /// The touched unit's hex id, when the request got that far.
    pub unit: Option<String>,
    /// True when the reply was an `ok` envelope.
    pub ok: bool,
    /// True when the result came out of the per-method memo.
    pub cached: bool,
    /// End-to-end latency as the reply was built.
    pub total_nanos: u64,
    /// Time parsing the request line, before dispatch. Set by the entry
    /// point that parsed it (`handle_line`); 0 for a request that came
    /// in already parsed (`handle_request`).
    pub parse_nanos: u64,
    /// Time resolving/registering the unit (parse + canonicalize on a
    /// cache miss, a lookup on a hit).
    pub register_nanos: u64,
    /// Time inside fault injection (absorbs an injected `slow` stall,
    /// so chaos latency is attributed to this phase, not `compute`).
    pub inject_nanos: u64,
    /// Time computing the method result (0 on a memo hit).
    pub compute_nanos: u64,
}

/// One retained slowlog entry: an outcome plus its admission sequence
/// number (so equal-latency entries keep a stable order).
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// Monotone per-daemon sequence number of the recorded request.
    pub seq: u64,
    /// The recorded outcome.
    pub outcome: RequestOutcome,
}

/// The windowed series of one method.
struct MethodSeries {
    latency: WindowedHistogram,
    /// Lifetime latency (never expires): feeds the exposition summary's
    /// monotone `_sum` / `_count`.
    lifetime: Histogram,
    requests: RollingCounter,
    errors: RollingCounter,
    cache_hits: RollingCounter,
}

impl MethodSeries {
    fn new(windows: usize) -> MethodSeries {
        MethodSeries {
            latency: WindowedHistogram::new(windows),
            lifetime: Histogram::new(),
            requests: RollingCounter::new(windows),
            errors: RollingCounter::new(windows),
            cache_hits: RollingCounter::new(windows),
        }
    }
}

/// The windowed series of one session shard.
struct ShardSeries {
    requests: RollingCounter,
    errors: RollingCounter,
}

/// All live telemetry of one daemon. Constructed only when
/// `--metrics-window-ms` is non-zero; at 0 the daemon keeps none of it
/// and records nothing per request.
pub struct LiveMetrics {
    window_ms: u64,
    windows: usize,
    started: Instant,
    /// `(wire name, series)`, insertion-ordered by first sighting.
    methods: Vec<(&'static str, MethodSeries)>,
    shards: Vec<ShardSeries>,
    /// Sorted by `total_nanos` descending; never longer than
    /// `slowlog_capacity`.
    slowlog: Vec<SlowEntry>,
    slowlog_capacity: usize,
    seq: u64,
}

impl LiveMetrics {
    /// Fresh telemetry for a daemon with `shards` session shards.
    /// `window_ms` must be non-zero (the caller gates the disabled
    /// configuration); `windows` and `slowlog_capacity` are clamped to
    /// at least 1.
    pub fn new(
        window_ms: u64,
        windows: usize,
        slowlog_capacity: usize,
        shards: usize,
    ) -> LiveMetrics {
        let windows = windows.max(1);
        LiveMetrics {
            window_ms: window_ms.max(1),
            windows,
            started: Instant::now(),
            methods: Vec::new(),
            shards: (0..shards.max(1))
                .map(|_| ShardSeries {
                    requests: RollingCounter::new(windows),
                    errors: RollingCounter::new(windows),
                })
                .collect(),
            slowlog: Vec::new(),
            slowlog_capacity: slowlog_capacity.max(1),
            seq: 0,
        }
    }

    /// The current tick of the injectable clock: wall-time quantized by
    /// the window width. This is the only place the live layer reads
    /// `Instant`; everything below it is pure tick arithmetic.
    fn tick(&self) -> u64 {
        (self.started.elapsed().as_millis() as u64) / self.window_ms
    }

    fn series_mut(&mut self, method: &'static str) -> &mut MethodSeries {
        if let Some(i) = self.methods.iter().position(|(m, _)| *m == method) {
            return &mut self.methods[i].1;
        }
        self.methods.push((method, MethodSeries::new(self.windows)));
        let last = self.methods.len() - 1;
        &mut self.methods[last].1
    }

    /// Folds one finished request into every series and, when it ranks,
    /// into the slowlog ring.
    pub fn record(&mut self, outcome: &RequestOutcome, shard: usize) {
        let tick = self.tick();
        self.seq += 1;
        let seq = self.seq;
        let series = self.series_mut(outcome.method);
        series.latency.record_at(tick, outcome.total_nanos);
        series.lifetime.record(outcome.total_nanos);
        series.requests.add_at(tick, 1);
        if !outcome.ok {
            series.errors.add_at(tick, 1);
        }
        if outcome.cached {
            series.cache_hits.add_at(tick, 1);
        }
        if let Some(s) = self.shards.get_mut(shard) {
            s.requests.add_at(tick, 1);
            if !outcome.ok {
                s.errors.add_at(tick, 1);
            }
        }
        // Slowlog admission: rank by total latency, keep top-K. The ring
        // captures regardless of --slowlog-ms; the threshold only gates
        // journal events (decided by the caller).
        let ranks = self.slowlog.len() < self.slowlog_capacity
            || self
                .slowlog
                .last()
                .is_some_and(|worst| outcome.total_nanos > worst.outcome.total_nanos);
        if ranks {
            let entry = SlowEntry {
                seq,
                outcome: outcome.clone(),
            };
            let at = self
                .slowlog
                .partition_point(|e| e.outcome.total_nanos >= entry.outcome.total_nanos);
            self.slowlog.insert(at, entry);
            self.slowlog.truncate(self.slowlog_capacity);
        }
    }

    /// The `metrics` RPC result (JSON form). Advances every series to
    /// the current tick first, so idle windows expire before they are
    /// read.
    pub fn to_json(&mut self) -> Json {
        let tick = self.tick();
        let windows = self.windows;
        let mut methods = Vec::with_capacity(self.methods.len());
        for (name, series) in &mut self.methods {
            series.latency.advance(tick);
            series.requests.advance(tick);
            series.errors.advance(tick);
            series.cache_hits.advance(tick);
            let merged = series.latency.merged(windows);
            methods.push((
                name.to_string(),
                Json::obj([
                    ("requests_total", Json::UInt(series.requests.total())),
                    ("errors_total", Json::UInt(series.errors.total())),
                    ("cache_hits_total", Json::UInt(series.cache_hits.total())),
                    (
                        "window",
                        Json::obj([
                            ("requests", Json::UInt(series.requests.sum(windows))),
                            ("errors", Json::UInt(series.errors.sum(windows))),
                            ("cache_hits", Json::UInt(series.cache_hits.sum(windows))),
                            ("count", Json::UInt(merged.count())),
                            ("p50_nanos", Json::UInt(merged.quantile(0.5))),
                            ("p99_nanos", Json::UInt(merged.quantile(0.99))),
                            ("max_nanos", Json::UInt(merged.max())),
                        ]),
                    ),
                ]),
            ));
        }
        let mut shards = Vec::with_capacity(self.shards.len());
        for s in &mut self.shards {
            s.requests.advance(tick);
            s.errors.advance(tick);
            shards.push(Json::obj([
                ("requests_total", Json::UInt(s.requests.total())),
                ("errors_total", Json::UInt(s.errors.total())),
                ("window_requests", Json::UInt(s.requests.sum(windows))),
            ]));
        }
        Json::obj([
            ("window_ms", Json::UInt(self.window_ms)),
            ("windows", Json::UInt(self.windows as u64)),
            ("tick", Json::UInt(tick)),
            ("methods", Json::Obj(methods)),
            ("shards", Json::Arr(shards)),
            ("slowlog_entries", Json::UInt(self.slowlog.len() as u64)),
        ])
    }

    /// The `slowlog` RPC result: slowest-first entries with their phase
    /// breakdowns.
    pub fn slowlog_json(&self) -> Json {
        Json::obj([
            ("capacity", Json::UInt(self.slowlog_capacity as u64)),
            (
                "entries",
                Json::Arr(
                    self.slowlog
                        .iter()
                        .map(|e| {
                            let o = &e.outcome;
                            Json::obj([
                                ("seq", Json::UInt(e.seq)),
                                ("method", Json::Str(o.method.to_string())),
                                (
                                    "unit",
                                    o.unit.as_ref().map_or(Json::Null, |u| Json::Str(u.clone())),
                                ),
                                ("ok", Json::Bool(o.ok)),
                                ("cached", Json::Bool(o.cached)),
                                ("total_nanos", Json::UInt(o.total_nanos)),
                                (
                                    "phases",
                                    Json::obj([
                                        ("parse_nanos", Json::UInt(o.parse_nanos)),
                                        ("register_nanos", Json::UInt(o.register_nanos)),
                                        ("inject_nanos", Json::UInt(o.inject_nanos)),
                                        ("compute_nanos", Json::UInt(o.compute_nanos)),
                                    ]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Prometheus-style text exposition of every live family plus the
    /// caller's daemon-wide counters and gauges.
    pub fn render_text(
        &mut self,
        extra_counters: &[(&str, u64)],
        extra_gauges: &[(&str, u64)],
    ) -> String {
        let tick = self.tick();
        let windows = self.windows;
        let mut out = String::new();
        family(&mut out, "pst_serve_requests_total", "counter");
        for (name, series) in &mut self.methods {
            series.requests.advance(tick);
            sample(
                &mut out,
                "pst_serve_requests_total",
                name,
                None,
                series.requests.total(),
            );
        }
        family(&mut out, "pst_serve_errors_total", "counter");
        for (name, series) in &mut self.methods {
            series.errors.advance(tick);
            sample(
                &mut out,
                "pst_serve_errors_total",
                name,
                None,
                series.errors.total(),
            );
        }
        family(&mut out, "pst_serve_cache_hits_total", "counter");
        for (name, series) in &mut self.methods {
            series.cache_hits.advance(tick);
            sample(
                &mut out,
                "pst_serve_cache_hits_total",
                name,
                None,
                series.cache_hits.total(),
            );
        }
        // Summary family: live quantiles from the windowed ring, monotone
        // _sum/_count from the lifetime histogram.
        family(&mut out, "pst_serve_latency_nanos", "summary");
        for (name, series) in &mut self.methods {
            series.latency.advance(tick);
            let merged = series.latency.merged(windows);
            sample(
                &mut out,
                "pst_serve_latency_nanos",
                name,
                Some("0.5"),
                merged.quantile(0.5),
            );
            sample(
                &mut out,
                "pst_serve_latency_nanos",
                name,
                Some("0.99"),
                merged.quantile(0.99),
            );
            sample(
                &mut out,
                "pst_serve_latency_nanos_sum",
                name,
                None,
                series.lifetime.sum(),
            );
            sample(
                &mut out,
                "pst_serve_latency_nanos_count",
                name,
                None,
                series.lifetime.count(),
            );
        }
        family(&mut out, "pst_serve_shard_requests_total", "counter");
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "pst_serve_shard_requests_total{{shard=\"{i}\"}} {}\n",
                s.requests.total()
            ));
        }
        render_extra(&mut out, extra_counters, extra_gauges);
        out
    }
}

/// Exposition for a daemon whose live telemetry is disabled
/// (`--metrics-window-ms 0`): only the daemon-wide families.
pub fn render_extra_only(extra_counters: &[(&str, u64)], extra_gauges: &[(&str, u64)]) -> String {
    let mut out = String::new();
    render_extra(&mut out, extra_counters, extra_gauges);
    out
}

fn render_extra(out: &mut String, extra_counters: &[(&str, u64)], extra_gauges: &[(&str, u64)]) {
    for (name, value) in extra_counters {
        family(out, name, "counter");
        out.push_str(&format!("{name} {value}\n"));
    }
    for (name, value) in extra_gauges {
        family(out, name, "gauge");
        out.push_str(&format!("{name} {value}\n"));
    }
}

fn family(out: &mut String, name: &str, kind: &str) {
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

fn sample(out: &mut String, name: &str, method: &str, quantile: Option<&str>, value: u64) {
    match quantile {
        Some(q) => out.push_str(&format!(
            "{name}{{method=\"{method}\",quantile=\"{q}\"}} {value}\n"
        )),
        None => out.push_str(&format!("{name}{{method=\"{method}\"}} {value}\n")),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn outcome(method: &'static str, nanos: u64, ok: bool, cached: bool) -> RequestOutcome {
        RequestOutcome {
            method,
            unit: Some("00000000000000aa".to_string()),
            ok,
            cached,
            total_nanos: nanos,
            parse_nanos: nanos / 8,
            register_nanos: nanos / 4,
            inject_nanos: 0,
            compute_nanos: nanos / 2,
        }
    }

    #[test]
    fn records_fold_into_method_and_shard_series() {
        let mut live = LiveMetrics::new(1000, 4, 8, 2);
        live.record(&outcome("pst", 1_000, true, false), 0);
        live.record(&outcome("pst", 3_000, true, true), 0);
        live.record(&outcome("lint", 9_000, false, false), 1);
        let j = live.to_json();
        let pst = j.get("methods").and_then(|m| m.get("pst")).unwrap();
        assert_eq!(pst.get("requests_total"), Some(&Json::UInt(2)));
        assert_eq!(pst.get("cache_hits_total"), Some(&Json::UInt(1)));
        assert_eq!(pst.get("errors_total"), Some(&Json::UInt(0)));
        let lint = j.get("methods").and_then(|m| m.get("lint")).unwrap();
        assert_eq!(lint.get("errors_total"), Some(&Json::UInt(1)));
        let window = pst.get("window").unwrap();
        assert_eq!(window.get("count"), Some(&Json::UInt(2)));
        assert_eq!(window.get("max_nanos"), Some(&Json::UInt(3_000)));
        let Json::Arr(shards) = j.get("shards").unwrap() else {
            panic!("shards must be an array")
        };
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].get("requests_total"), Some(&Json::UInt(2)));
        assert_eq!(shards[1].get("errors_total"), Some(&Json::UInt(1)));
    }

    #[test]
    fn slowlog_keeps_the_top_k_slowest_in_order() {
        let mut live = LiveMetrics::new(1000, 4, 3, 1);
        for nanos in [5_000u64, 1_000, 9_000, 3_000, 7_000] {
            live.record(&outcome("pst", nanos, true, false), 0);
        }
        let j = live.slowlog_json();
        let Json::Arr(entries) = j.get("entries").unwrap() else {
            panic!("entries must be an array")
        };
        let totals: Vec<u64> = entries
            .iter()
            .map(|e| e.get("total_nanos").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(totals, vec![9_000, 7_000, 5_000]);
        // Phase breakdowns ride along.
        let phases = entries[0].get("phases").unwrap();
        assert_eq!(phases.get("compute_nanos"), Some(&Json::UInt(4_500)));
        assert_eq!(phases.get("parse_nanos"), Some(&Json::UInt(1_125)));
    }

    #[test]
    fn text_exposition_is_parseable_and_counters_are_monotone() {
        let mut live = LiveMetrics::new(1000, 4, 8, 1);
        live.record(&outcome("pst", 2_000, true, false), 0);
        let first = live.render_text(
            &[("pst_serve_shed_total", 0)],
            &[("pst_serve_in_flight", 0)],
        );
        live.record(&outcome("pst", 4_000, true, true), 0);
        let second = live.render_text(
            &[("pst_serve_shed_total", 1)],
            &[("pst_serve_in_flight", 2)],
        );
        for text in [&first, &second] {
            for line in text.lines() {
                assert!(
                    line.starts_with("# TYPE ") || line.contains(' '),
                    "unparseable line: {line}"
                );
            }
        }
        let total = |text: &str, prefix: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap()
        };
        let p = "pst_serve_requests_total{method=\"pst\"}";
        assert_eq!(total(&first, p), 1);
        assert_eq!(total(&second, p), 2);
        assert!(first.contains("# TYPE pst_serve_latency_nanos summary"));
        assert!(first.contains("quantile=\"0.99\""));
        assert!(second.contains("pst_serve_in_flight 2"));
    }

    #[test]
    fn disabled_daemons_still_expose_the_daemon_wide_families() {
        let text = render_extra_only(&[("pst_serve_shed_total", 3)], &[("pst_serve_workers", 4)]);
        assert!(text.contains("# TYPE pst_serve_shed_total counter"));
        assert!(text.contains("pst_serve_shed_total 3"));
        assert!(text.contains("pst_serve_workers 4"));
    }
}
