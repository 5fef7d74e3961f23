//! The concurrent daemon front-end: shards, admission, drain, snapshots.
//!
//! [`SharedSession`] wraps N [`Session`] shards (N = `--workers`), each
//! behind its own poison-recovering `Mutex`. Requests route to a shard
//! by content-hash key, so concurrent requests for *different* units
//! proceed in parallel while requests for the *same* unit serialize on
//! its shard — which is exactly the ordering the per-unit memo wants.
//! This is the daemon's one front end: the control methods (`stats`,
//! `metrics`, `slowlog`, `drain`, `shutdown`), error replies for lines
//! that never parse, and the admission gate live here, above the shards.
//! Each analysis request's content key is computed once, here, and
//! passed to its shard.
//!
//! Lifecycle flags are monotone (`draining`, `stopping` only ever go
//! false→true), so workers can read them lock-free at loop boundaries:
//!
//! * **admitting** — the normal state; analysis requests pass the
//!   in-flight gate or are shed with an `overloaded` envelope.
//! * **draining** — after `drain` or `shutdown`: no new work admitted,
//!   in-flight requests finish and their replies are written, then the
//!   process flushes (snapshot, journal, metrics) and exits.
//!
//! Shard budgets: the configured cache budgets are *totals*; each shard
//! gets an even share so `--cache-entries 256 --workers 4` still caps
//! the daemon at ~256 resident units.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use pst_obs::json::Json;

use crate::hash::content_hash;
use crate::metrics::LiveMetrics;
use crate::proto::{ok_response, overloaded_response, ErrorCode, Method, Request};
use crate::session::{content_key, MethodError, Reply, ServeConfig, ServeFault, Session};
use crate::snapshot::{self, SnapshotError};

/// Decrements the in-flight gauge however the request ends (including
/// by panic containment inside the shard).
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Shared daemon state: session shards plus the cross-cutting gauges
/// and lifecycle flags. One instance serves all connections.
pub struct SharedSession {
    shards: Vec<Mutex<Session>>,
    config: ServeConfig,
    /// All requests seen (any method, malformed included).
    requests: AtomicU64,
    /// Analysis requests admitted past the gate (snapshot cadence).
    admitted: AtomicU64,
    /// Logical uptime: one tick per request plus one per accepted
    /// connection. Deterministic for a given traffic sequence, unlike
    /// wall-clock.
    ticks: AtomicU64,
    /// Analysis requests currently inside a shard.
    in_flight: AtomicUsize,
    /// Requests shed by the admission gate.
    shed: AtomicU64,
    /// Failed accepts / mid-stream connection I/O errors.
    conn_errors: AtomicU64,
    /// Units restored from the startup snapshot (warm-restart gauge).
    restored: u64,
    /// Monotone false→true; `shutdown` and `drain` both set it. Workers
    /// and the accept loop read it lock-free at loop boundaries.
    draining: AtomicBool,
    /// Serializes snapshot writes and provides unique tmp suffixes.
    snapshot_seq: Mutex<u64>,
    /// Windowed per-method/per-shard series and the slowlog ring;
    /// `None` when `--metrics-window-ms 0` disabled live telemetry.
    live: Option<Mutex<LiveMetrics>>,
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Poison recovery, per docs/SERVING.md § Locking: a panic inside a
    // shard is already contained and reported as an envelope; the data
    // is a unit cache, safe to keep serving.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Splits a total budget evenly across shards, rounding up, preserving
/// 0 = unlimited.
fn share(total: usize, shards: usize) -> usize {
    if total == 0 {
        0
    } else {
        total.div_ceil(shards)
    }
}

impl SharedSession {
    /// Builds the shard set and, when `--cache-snapshot` names a file,
    /// warm-restores it (tolerating every defect by starting cold).
    pub fn new(config: ServeConfig) -> SharedSession {
        let shard_count = config.workers.max(1);
        let mut shard_config = config.clone();
        shard_config.cache.max_entries = share(config.cache.max_entries, shard_count);
        shard_config.cache.max_bytes = share(config.cache.max_bytes, shard_count);
        let shards = (0..shard_count)
            .map(|_| Mutex::new(Session::new(shard_config.clone())))
            .collect();
        let live = (config.metrics_window_ms > 0).then(|| {
            Mutex::new(LiveMetrics::new(
                config.metrics_window_ms,
                config.metrics_windows,
                config.slowlog_capacity,
                shard_count,
            ))
        });
        let mut shared = SharedSession {
            shards,
            config,
            requests: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            conn_errors: AtomicU64::new(0),
            restored: 0,
            draining: AtomicBool::new(false),
            snapshot_seq: Mutex::new(0),
            live,
        };
        shared.restore_snapshot();
        shared
    }

    /// The active configuration (with the *total* cache budgets, not
    /// the per-shard share).
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// True once `drain` or `shutdown` was acknowledged: stop admitting
    /// and stop reading; finish what is in flight.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Analysis requests currently inside shards.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Units restored from the startup snapshot.
    pub fn restored_units(&self) -> u64 {
        self.restored
    }

    /// Counts an accepted connection (one uptime tick).
    pub fn note_connection(&self) {
        self.ticks.fetch_add(1, Ordering::SeqCst);
        pst_obs::counter!("serve_connections");
    }

    /// Counts a failed `accept()` or a mid-stream connection I/O error.
    /// Connection trouble is the *client's* problem; the daemon logs a
    /// counter and keeps serving everyone else.
    pub fn note_conn_error(&self) {
        self.conn_errors.fetch_add(1, Ordering::SeqCst);
        pst_obs::counter!("serve_conn_errors");
    }

    fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::SeqCst);
        self.ticks.fetch_add(1, Ordering::SeqCst);
        pst_obs::counter!("serve_requests");
    }

    /// The envelope for a line exceeding `--max-request-bytes`.
    pub fn oversized_reply(&self, actual: usize) -> Reply {
        self.count_request();
        Reply::error(
            &Json::Null,
            ErrorCode::OversizedRequest,
            &format!(
                "request line is {actual} bytes; the limit is {} (--max-request-bytes)",
                self.config.max_request_bytes
            ),
        )
    }

    /// The envelope for a non-UTF-8 request line.
    pub fn invalid_utf8_reply(&self, valid_up_to: usize) -> Reply {
        self.count_request();
        Reply::error(
            &Json::Null,
            ErrorCode::InvalidUtf8,
            &format!(
                "request line is not valid UTF-8 (first invalid byte at offset {valid_up_to})"
            ),
        )
    }

    /// Answers one request line from any worker thread. Control methods
    /// are answered here; analysis requests pass the admission gate and
    /// route to a shard by content key.
    pub fn handle_line(&self, line: &str) -> Reply {
        let started = Instant::now();
        self.count_request();
        let req = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => return Reply::error(&e.id, e.code, &e.message),
        };
        let parse_nanos = started.elapsed().as_nanos() as u64;
        let result = match req.method {
            Method::Shutdown => {
                self.draining.store(true, Ordering::SeqCst);
                Ok(Json::obj([("stopping", Json::Bool(true))]))
            }
            Method::Drain => {
                self.draining.store(true, Ordering::SeqCst);
                pst_obs::counter!("serve_drains");
                Ok(Json::obj([
                    ("draining", Json::Bool(true)),
                    ("in_flight", Json::UInt(self.in_flight() as u64)),
                ]))
            }
            Method::Stats => Ok(self.stats_json()),
            Method::Metrics => self.metrics_json(req.format.as_deref()),
            Method::Slowlog => self.live().map(|live| lock(live).slowlog_json()),
            _ => return self.handle_analysis(&req, started, parse_nanos),
        };
        match result {
            Ok(result) => {
                let nanos = started.elapsed().as_nanos() as u64;
                Reply {
                    shutdown: matches!(req.method, Method::Shutdown | Method::Drain),
                    ..Reply::of(ok_response(&req.id, None, None, nanos, result))
                }
            }
            Err((code, message)) => Reply::error(&req.id, code, &message),
        }
    }

    /// The live telemetry `metrics` and `slowlog` read, or the error
    /// they answer when `--metrics-window-ms 0` disabled it.
    fn live(&self) -> Result<&Mutex<LiveMetrics>, MethodError> {
        self.live.as_ref().ok_or_else(|| {
            (
                ErrorCode::Unsupported,
                "live telemetry is disabled (--metrics-window-ms 0)".to_string(),
            )
        })
    }

    /// The `metrics` RPC: windowed JSON by default, Prometheus-style
    /// text (as a `body` string field) on `"format": "text"`.
    fn metrics_json(&self, format: Option<&str>) -> Result<Json, MethodError> {
        let live = self.live()?;
        match format {
            None | Some("json") => Ok(lock(live).to_json()),
            Some("text") => Ok(Json::obj([
                ("format", Json::Str("text".to_string())),
                ("body", Json::Str(self.render_metrics_text())),
            ])),
            Some(other) => Err((
                ErrorCode::InvalidRequest,
                format!("unknown metrics format `{other}` (expected `json` or `text`)"),
            )),
        }
    }

    /// The one-shot HTTP responder's body (`--metrics-listen`): every
    /// live family plus the daemon-wide counters and gauges. Works —
    /// reduced to the daemon-wide families — even when live telemetry
    /// is disabled.
    pub fn render_metrics_text(&self) -> String {
        let counters = [
            ("pst_serve_shed_total", self.shed.load(Ordering::SeqCst)),
            (
                "pst_serve_conn_errors_total",
                self.conn_errors.load(Ordering::SeqCst),
            ),
        ];
        let gauges = [
            ("pst_serve_in_flight", self.in_flight() as u64),
            ("pst_serve_workers", self.shards.len() as u64),
            ("pst_serve_draining", u64::from(self.is_draining())),
        ];
        match &self.live {
            Some(live) => lock(live).render_text(&counters, &gauges),
            None => crate::metrics::render_extra_only(&counters, &gauges),
        }
    }

    fn handle_analysis(&self, req: &Request, started: Instant, parse_nanos: u64) -> Reply {
        if self.is_draining() {
            self.shed.fetch_add(1, Ordering::SeqCst);
            pst_obs::counter!("serve_shed");
            return Reply::of(overloaded_response(
                &req.id,
                "daemon is draining; no new work is admitted — retry against a fresh instance",
                0,
            ));
        }
        // Admission gate: claim a slot optimistically, release and shed
        // if that claim overshot the bound.
        let occupied = self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.config.max_inflight > 0 && occupied >= self.config.max_inflight {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.shed.fetch_add(1, Ordering::SeqCst);
            pst_obs::counter!("serve_shed");
            // Hint scales with saturation so a thundering herd spreads
            // out; the bench client adds jitter on top.
            let retry_after_ms = 10 + 5 * (occupied.min(100) as u64);
            return Reply::of(overloaded_response(
                &req.id,
                &format!(
                    "daemon is at its in-flight limit ({}; --max-inflight); retry after the hint",
                    self.config.max_inflight
                ),
                retry_after_ms,
            ));
        }
        let _slot = InFlightGuard(&self.in_flight);
        let key = content_key(&req.input);
        // Input-less analysis requests error inside any shard.
        let shard = self.shard_of(key.unwrap_or(0));
        let mut reply = lock(&self.shards[shard]).handle_keyed(req, key, started);
        if let Some(outcome) = &mut reply.outcome {
            outcome.parse_nanos = parse_nanos;
        }

        // Fold the request into the live series (and, past the
        // threshold, the journal) before the reply leaves the daemon.
        if let (Some(live), Some(outcome)) = (&self.live, reply.outcome.as_ref()) {
            lock(live).record(outcome, shard);
            let threshold_nanos = self.config.slowlog_ms.saturating_mul(1_000_000);
            if self.config.slowlog_ms > 0 && outcome.total_nanos >= threshold_nanos {
                pst_obs::counter!("serve_slow_requests");
                pst_obs::journal::emit(pst_obs::journal::Event::SlowRequest {
                    method: outcome.method.to_string(),
                    unit: outcome.unit.clone(),
                    total_nanos: outcome.total_nanos,
                    compute_nanos: outcome.compute_nanos,
                });
            }
        }

        let admitted = self.admitted.fetch_add(1, Ordering::SeqCst) + 1;
        if self.config.snapshot_every > 0 && admitted.is_multiple_of(self.config.snapshot_every) {
            self.save_snapshot();
        }
        reply
    }

    /// Routes a content key to its shard: same content, same shard,
    /// always.
    fn shard_of(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// Aggregated `stats` reply across all shards.
    fn stats_json(&self) -> Json {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        let mut panics = 0u64;
        let mut quarantined = 0u64;
        let mut stats = crate::cache::CacheStats::default();
        let mut hot = pst_obs::Histogram::new();
        let mut cold = pst_obs::Histogram::new();
        for shard in &self.shards {
            let s = lock(shard);
            let (e, b, _tick, cs) = s.cache_snapshot_stats();
            entries += e as u64;
            bytes += b as u64;
            stats.hits += cs.hits;
            stats.misses += cs.misses;
            stats.evictions += cs.evictions;
            stats.insertions += cs.insertions;
            panics += s.contained_panics();
            quarantined += s.quarantined_units();
            s.merge_latency_into(&mut hot, &mut cold);
        }
        let cfg = self.config.cache;
        Json::obj([
            ("requests", Json::UInt(self.requests.load(Ordering::SeqCst))),
            ("contained_panics", Json::UInt(panics)),
            ("quarantined_units", Json::UInt(quarantined)),
            (
                "uptime_ticks",
                Json::UInt(self.ticks.load(Ordering::SeqCst)),
            ),
            ("in_flight", Json::UInt(self.in_flight() as u64)),
            ("workers", Json::UInt(self.shards.len() as u64)),
            ("draining", Json::Bool(self.is_draining())),
            ("shed", Json::UInt(self.shed.load(Ordering::SeqCst))),
            (
                "conn_errors",
                Json::UInt(self.conn_errors.load(Ordering::SeqCst)),
            ),
            ("snapshot_restored_units", Json::UInt(self.restored)),
            (
                "max_request_bytes",
                Json::UInt(self.config.max_request_bytes as u64),
            ),
            ("serve_hot_p50_nanos", Json::UInt(hot.quantile(0.5))),
            ("serve_hot_p99_nanos", Json::UInt(hot.quantile(0.99))),
            ("serve_cold_p50_nanos", Json::UInt(cold.quantile(0.5))),
            ("serve_cold_p99_nanos", Json::UInt(cold.quantile(0.99))),
            (
                "cache",
                Json::obj([
                    ("entries", Json::UInt(entries)),
                    ("bytes", Json::UInt(bytes)),
                    ("max_entries", Json::UInt(cfg.max_entries as u64)),
                    ("max_bytes", Json::UInt(cfg.max_bytes as u64)),
                    ("hits", Json::UInt(stats.hits)),
                    ("misses", Json::UInt(stats.misses)),
                    ("evictions", Json::UInt(stats.evictions)),
                    ("insertions", Json::UInt(stats.insertions)),
                ]),
            ),
        ])
    }

    /// Loads the startup snapshot, if configured. Every defect — missing
    /// file, truncation, checksum mismatch, version skew, an entry that
    /// no longer parses — degrades to a cold (or partial) start with a
    /// log line; a snapshot is never a boot dependency.
    fn restore_snapshot(&mut self) {
        let Some(path) = self.config.snapshot_path.clone() else {
            return;
        };
        let entries = match snapshot::load(&path) {
            Ok(entries) => entries,
            Err(SnapshotError::Missing) => {
                eprintln!("pst serve: no cache snapshot at {path}; starting cold");
                return;
            }
            Err(e) => {
                eprintln!("pst serve: {e}; starting cold");
                pst_obs::counter!("serve_snapshot_load_failed");
                return;
            }
        };
        let mut restored = 0u64;
        for entry in &entries {
            let key = content_hash(entry.kind, entry.source.as_bytes());
            let outcome = lock(&self.shards[self.shard_of(key)]).restore_unit(
                key,
                entry.kind,
                &entry.source,
                &entry.results,
            );
            match outcome {
                Ok(()) => restored += 1,
                Err((_, message)) => {
                    eprintln!("pst serve: snapshot entry skipped: {message}");
                }
            }
        }
        self.restored = restored;
        pst_obs::counter!("serve_snapshot_restored", restored);
        eprintln!(
            "pst serve: restored {restored} of {} snapshot unit(s) from {path}",
            entries.len()
        );
    }

    /// Writes the cache snapshot, if configured. Atomic (write tmp,
    /// rename) and serialized across callers; failures are logged and
    /// counted, never fatal.
    pub fn save_snapshot(&self) {
        let Some(path) = &self.config.snapshot_path else {
            return;
        };
        let mut seq = lock(&self.snapshot_seq);
        *seq += 1;
        let mut entries = Vec::new();
        for shard in &self.shards {
            entries.extend(lock(shard).export_units());
        }
        let corrupt = cfg!(feature = "fault-inject")
            && self.config.inject_fault == Some(ServeFault::CorruptSnapshot);
        if corrupt {
            pst_obs::counter!("serve_injected_faults");
        }
        match snapshot::save(path, *seq, &entries, corrupt) {
            Ok(()) => {
                pst_obs::counter!("serve_snapshot_saved");
            }
            Err(e) => {
                eprintln!("pst serve: snapshot write to {path} failed: {e}");
                pst_obs::counter!("serve_snapshot_save_failed");
            }
        }
    }

    /// Drain epilogue, run once by the owning thread after the serving
    /// loops stop: persist the cache and push telemetry out.
    pub fn finish(&self) {
        self.save_snapshot();
        pst_obs::journal::flush();
        pst_obs::flush_thread();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

    const MINI: &str = "fn f(n) { s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }";

    fn config(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            ..ServeConfig::default()
        }
    }

    fn parsed(reply: &Reply) -> Json {
        Json::parse(&reply.line).unwrap()
    }

    fn pst_line(source: &str) -> String {
        format!(
            r#"{{"method": "pst", "source": {}}}"#,
            Json::Str(source.to_string())
        )
    }

    #[test]
    fn routes_repeat_content_to_the_same_shard_for_a_memo_hit() {
        let shared = SharedSession::new(config(4));
        let first = parsed(&shared.handle_line(&pst_line(MINI)));
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
        let second = parsed(&shared.handle_line(&pst_line(MINI)));
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
    }

    #[test]
    fn stats_aggregates_shards_and_reports_saturation() {
        let shared = SharedSession::new(config(3));
        for i in 0..4 {
            let src = format!("fn f{i}(n) {{ return n; }}");
            let r = parsed(&shared.handle_line(&pst_line(&src)));
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "unit {i}");
        }
        let stats = parsed(&shared.handle_line(r#"{"method": "stats"}"#));
        let result = stats.get("result").unwrap();
        assert_eq!(result.get("requests"), Some(&Json::UInt(5)));
        assert_eq!(result.get("workers"), Some(&Json::UInt(3)));
        assert_eq!(result.get("in_flight"), Some(&Json::UInt(0)));
        assert_eq!(result.get("draining"), Some(&Json::Bool(false)));
        assert_eq!(result.get("quarantined_units"), Some(&Json::UInt(0)));
        let ticks = result.get("uptime_ticks").and_then(Json::as_u64).unwrap();
        assert!(ticks >= 1, "uptime_ticks = {ticks}");
        let cache = result.get("cache").unwrap();
        assert_eq!(cache.get("misses"), Some(&Json::UInt(4)));
        assert_eq!(cache.get("entries"), Some(&Json::UInt(4)));
    }

    #[test]
    fn drain_stops_admitting_but_still_answers_stats() {
        let shared = SharedSession::new(config(2));
        let drain = shared.handle_line(r#"{"id": 1, "method": "drain"}"#);
        assert!(drain.shutdown);
        let r = parsed(&drain);
        assert_eq!(
            r.get("result").and_then(|x| x.get("draining")),
            Some(&Json::Bool(true))
        );
        let shed = parsed(&shared.handle_line(&pst_line(MINI)));
        assert_eq!(shed.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            shed.get("error").and_then(|e| e.get("code")),
            Some(&Json::Str("overloaded".into()))
        );
        // Control-plane methods still work while draining.
        let stats = parsed(&shared.handle_line(r#"{"method": "stats"}"#));
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            stats.get("result").and_then(|x| x.get("draining")),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn zero_max_inflight_admits_everything() {
        let shared = SharedSession::new(ServeConfig {
            max_inflight: 0,
            ..config(2)
        });
        let r = parsed(&shared.handle_line(&pst_line(MINI)));
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn shard_budget_share_rounds_up_and_preserves_unlimited() {
        assert_eq!(share(0, 4), 0);
        assert_eq!(share(256, 4), 64);
        assert_eq!(share(10, 3), 4);
        assert_eq!(share(1, 8), 1);
    }

    #[test]
    fn snapshot_round_trip_warms_the_restarted_daemon() {
        let dir = std::env::temp_dir().join(format!("pst-shared-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snapshot").to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&path);
        let cfg = ServeConfig {
            snapshot_path: Some(path.clone()),
            snapshot_every: 0, // only on drain
            cache: CacheConfig::default(),
            ..config(2)
        };
        let first = SharedSession::new(cfg.clone());
        let cold = parsed(&first.handle_line(&pst_line(MINI)));
        assert_eq!(cold.get("cached"), Some(&Json::Bool(false)));
        first.finish();
        assert_eq!(first.restored_units(), 0);

        let second = SharedSession::new(cfg);
        assert_eq!(second.restored_units(), 1);
        let warm = parsed(&second.handle_line(&pst_line(MINI)));
        assert_eq!(warm.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(warm.get("cached"), Some(&Json::Bool(true)));
        let _ = std::fs::remove_file(&path);
    }
}
