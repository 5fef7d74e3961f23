//! One cache shard: the content-hash unit cache and the unit methods
//! answered from it. The control methods (`stats`, `metrics`,
//! `slowlog`, `drain`, `shutdown`) belong to the daemon front end,
//! [`crate::shared::SharedSession`]; a shard answers them `unsupported`.
//!
//! A *unit* is one registered input — mini-language source or a raw
//! edge-list digraph — keyed by [`crate::hash::content_hash`] over its
//! text. Registering a unit parses (and for edge lists, canonicalizes)
//! it once; every later request against the same content is a cache
//! lookup. Within a unit, one [`Analysis`] per function (or edge list)
//! interns every stage methods share, so each is computed at most once,
//! and each method's final result JSON is memoized, so a repeat query is
//! a clone, not a recompute.
//!
//! Every request is fault-isolated with `catch_unwind` (the same
//! containment the fuzz loop uses): a panicking request produces a
//! structured `panic` error envelope, the touched unit is evicted from
//! the cache (its artifacts are suspect), and the daemon keeps serving.
//!
//! Telemetry reuses the v2 plumbing: `serve_*` counters for cache
//! traffic, latency histograms split cold/hot, a `UnitScope` per request
//! (so `--metrics-json` carries per-unit sub-reports), and — when a
//! journal is installed — one `unit_summary` event per request.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

use pst_analysis::{Analysis, LintConfig};
use pst_cfg::{
    canonicalize, parse_edge_list_graph, Budget, CanonicalizeOptions, Exhausted, NodeId,
};
use pst_controldep::{ClassicControlDeps, DodWitness};
use pst_core::{ControlRegions, ProgramStructureTree, PstStats};
use pst_dataflow::{solve_iterative, SingleVariableReachingDefs};
use pst_lang::{lower_program, parse_program, LoweredFunction, VarId};
use pst_obs::json::Json;
use pst_ssa::rename;

use crate::cache::{CacheConfig, LruCache};
use crate::hash::{content_hash, unit_hex};
use crate::proto::{error_response, ok_response, ErrorCode, Method, Request, RequestInput};

/// Domain tags for [`content_hash`]: the same bytes registered as mini
/// source and as an edge list are different units. Snapshots persist
/// these as `"mini"` / `"edges"` (see `snapshot.rs`).
pub(crate) const KIND_MINI: u64 = 1;
pub(crate) const KIND_EDGES: u64 = 2;

/// A request's cache key: the content hash of inline input, or the unit
/// id it names. `None` when the request carries no input.
pub(crate) fn content_key(input: &RequestInput) -> Option<u64> {
    match input {
        RequestInput::MiniSource(s) => Some(content_hash(KIND_MINI, s.as_bytes())),
        RequestInput::EdgeList(s) => Some(content_hash(KIND_EDGES, s.as_bytes())),
        RequestInput::Unit(k) => Some(*k),
        RequestInput::None => None,
    }
}

/// A daemon-level chaos fault (`pst serve --inject-fault <kind>`,
/// honored only by `fault-inject` builds). The enum itself is always
/// compiled so flag parsing stays feature-free; *firing* is gated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeFault {
    /// Periodically panic inside the analysis path (exercises
    /// containment + quarantine).
    Panic,
    /// Periodically sleep 50ms inside the analysis path (exercises the
    /// request deadline).
    Slow,
    /// Periodically compute the answer but drop the connection without
    /// replying (exercises client reconnect/retry).
    DropConn,
    /// Corrupt every cache-snapshot write (exercises cold-start
    /// tolerance on the next boot).
    CorruptSnapshot,
}

impl ServeFault {
    /// Parses the `--inject-fault` flag value.
    pub fn parse(kind: &str) -> Option<ServeFault> {
        match kind {
            "panic" => Some(ServeFault::Panic),
            "slow" => Some(ServeFault::Slow),
            "drop-conn" => Some(ServeFault::DropConn),
            "corrupt-snapshot" => Some(ServeFault::CorruptSnapshot),
            _ => None,
        }
    }

    /// The flag spelling (diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            ServeFault::Panic => "panic",
            ServeFault::Slow => "slow",
            ServeFault::DropConn => "drop-conn",
            ServeFault::CorruptSnapshot => "corrupt-snapshot",
        }
    }
}

/// Daemon configuration: cache budgets, request size cap, and the
/// fleet-facing knobs (worker pool, deadlines, admission, snapshots).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// LRU budgets for the unit cache.
    pub cache: CacheConfig,
    /// Maximum accepted request-line length in bytes; longer lines get
    /// an `oversized_request` envelope (enforced by the server loop).
    pub max_request_bytes: usize,
    /// TCP worker pool size; also the session shard count (each shard
    /// is an independent `Mutex<Session>`, so requests for different
    /// units proceed in parallel). Stdio mode forces 1.
    pub workers: usize,
    /// Per-request deadline in milliseconds (0 = none), answered
    /// `deadline_exceeded`: the request's [`Budget`], checked between
    /// phases and spent inside the superlinear ones (NTSCD, DOD and
    /// `PST-C101`'s guard peeling).
    pub request_timeout_ms: u64,
    /// Admission gate: maximum analysis requests in flight at once
    /// (0 = unlimited). Excess requests are shed with an `overloaded`
    /// envelope carrying a `retry_after_ms` hint.
    pub max_inflight: usize,
    /// Cache snapshot file (`--cache-snapshot`): loaded at startup
    /// (tolerating a missing/corrupt file by starting cold), written
    /// periodically and on drain/shutdown via write-then-rename.
    pub snapshot_path: Option<String>,
    /// Periodic snapshot cadence in admitted requests (0 = only on
    /// drain/shutdown).
    pub snapshot_every: u64,
    /// Daemon-level chaos fault; `None` in production. Only
    /// `fault-inject` builds ever fire it.
    pub inject_fault: Option<ServeFault>,
    /// Width of one live-telemetry window in milliseconds
    /// (`--metrics-window-ms`); 0 disables the windowed series, the
    /// `metrics`/`slowlog` methods, and the slowlog ring entirely: no
    /// request is folded into them, both methods answer `unsupported`,
    /// and the HTTP exposition keeps only the daemon-wide counters and
    /// gauges.
    pub metrics_window_ms: u64,
    /// How many windows the live rings retain.
    pub metrics_windows: usize,
    /// Slow-request journal threshold in milliseconds (`--slowlog-ms`);
    /// 0 emits no `slow_request` journal events, but the slowlog ring
    /// still captures the top-K slowest requests.
    pub slowlog_ms: u64,
    /// Slowlog ring capacity (top-K by total latency).
    pub slowlog_capacity: usize,
    /// Address for the one-shot HTTP metrics responder
    /// (`--metrics-listen addr:port`); `None` disables it.
    pub metrics_listen: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache: CacheConfig::default(),
            max_request_bytes: 4 << 20,
            workers: 4,
            request_timeout_ms: 0,
            max_inflight: 64,
            snapshot_path: None,
            snapshot_every: 32,
            inject_fault: None,
            metrics_window_ms: 1000,
            metrics_windows: 8,
            slowlog_ms: 0,
            slowlog_capacity: 32,
            metrics_listen: None,
        }
    }
}

/// One response line plus transport directives for the serving loop.
#[derive(Clone, Debug)]
pub struct Reply {
    /// The serialized JSON envelope (no trailing newline).
    pub line: String,
    /// True after a `shutdown` or `drain` request was acknowledged —
    /// the stream stops reading after writing this reply.
    pub shutdown: bool,
    /// True when an injected `drop-conn` fault fired: the serving loop
    /// must close the connection *without* writing the line (the client
    /// sees an abrupt disconnect and is expected to retry).
    pub drop_conn: bool,
    /// What the analysis request looked like, for the live-metrics
    /// layer. `None` for control methods and pre-dispatch failures.
    pub outcome: Option<crate::metrics::RequestOutcome>,
}

impl Reply {
    /// The reply carrying `envelope`, with no transport directive.
    pub(crate) fn of(envelope: Json) -> Reply {
        Reply {
            line: envelope.to_string(),
            shutdown: false,
            drop_conn: false,
            outcome: None,
        }
    }

    /// An error envelope; counts `serve_errors`.
    pub(crate) fn error(id: &Json, code: ErrorCode, message: &str) -> Reply {
        pst_obs::counter!("serve_errors");
        Reply::of(error_response(id, code, message))
    }
}

/// A resident unit: one [`Analysis`] per function of mini-language
/// source, or the one analysis of an edge list, plus memoized
/// per-method results. The registered source text is retained so the
/// unit (and its memos) can be persisted into a cache snapshot and
/// re-registered on restart.
struct Unit {
    analyses: Vec<Analysis<'static>>,
    /// Domain tag ([`KIND_MINI`] / [`KIND_EDGES`]).
    kind: u64,
    /// The registered input text, verbatim.
    source: String,
    /// `(method name, memoized result)` — methods take no parameters
    /// beyond the unit, so one slot per method suffices.
    results: Vec<(&'static str, Json)>,
    /// Running estimate of the memoized results' rendered size.
    results_bytes: usize,
}

impl Unit {
    fn cached_result(&self, method: &'static str) -> Option<&Json> {
        self.results
            .iter()
            .find(|(m, _)| *m == method)
            .map(|(_, r)| r)
    }

    fn memoize(&mut self, method: &'static str, result: &Json) {
        self.results_bytes += result.to_string().len() * 2;
        self.results.push((method, result.clone()));
    }

    /// Approximate retained heap: a crude, monotone estimate is all the
    /// byte budget needs (see `cache.rs`). Counts every stage the
    /// analyses have memoized.
    fn approx_bytes(&self) -> usize {
        let analyses: usize = self.analyses.iter().map(Analysis::approx_bytes).sum();
        512 + self.source.len() * 8 + self.results_bytes + analyses
    }
}

struct Answer {
    unit: String,
    /// True when the result came out of the per-method memo (the unit
    /// was resident *and* this method had already run on it).
    cached: bool,
    result: Json,
    /// True when an injected `drop-conn` daemon fault fired on this
    /// request (the serving loop drops the connection unreplied).
    drop_conn: bool,
    /// Phase timings for the slowlog: unit resolution/registration,
    /// fault injection, and method computation.
    register_nanos: u64,
    inject_nanos: u64,
    compute_nanos: u64,
}

pub(crate) type MethodError = (ErrorCode, String);

/// One unit as a snapshot sees it: `(kind tag, source text, memoized
/// results)`.
pub(crate) type ExportedUnit = (u64, String, Vec<(&'static str, Json)>);

/// The reply to a request whose budget (`--request-timeout-ms`) ran out.
fn over_budget(exhausted: Exhausted) -> MethodError {
    pst_obs::counter!("serve_deadline_exceeded");
    (
        ErrorCode::DeadlineExceeded,
        format!("request {exhausted} (--request-timeout-ms); partial work was abandoned"),
    )
}

/// One cache shard. It answers unit methods; control methods get an
/// `unsupported` envelope. The daemon front end,
/// [`crate::shared::SharedSession`], owns the control methods, wraps
/// several shards in `Mutex`es and routes each request by its content
/// key. An in-process caller can drive a lone shard through
/// [`Session::handle_line`].
pub struct Session {
    cache: LruCache<Unit>,
    config: ServeConfig,
    panics: u64,
    quarantined: u64,
    /// Lifetime latency of memo-hit requests (always compiled, unlike
    /// the feature-gated `histogram!` mirror): feeds the
    /// `serve_hot_p50/p99_nanos` stats fields.
    hot_nanos: pst_obs::Histogram,
    /// Lifetime latency of recompute requests.
    cold_nanos: pst_obs::Histogram,
    /// Analysis-request counter for periodic daemon-fault firing; only
    /// `fault-inject` builds touch it.
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    fault_cycle: u64,
}

impl Session {
    /// A fresh session under the given budgets.
    pub fn new(config: ServeConfig) -> Session {
        Session {
            cache: LruCache::new(config.cache),
            config,
            panics: 0,
            quarantined: 0,
            hot_nanos: pst_obs::Histogram::new(),
            cold_nanos: pst_obs::Histogram::new(),
            fault_cycle: 0,
        }
    }

    /// Contained-panic count (aggregated across shards by the shared
    /// front-end).
    pub fn contained_panics(&self) -> u64 {
        self.panics
    }

    /// Units quarantined after a contained panic.
    pub fn quarantined_units(&self) -> u64 {
        self.quarantined
    }

    /// Folds this shard's lifetime hot/cold latency histograms into the
    /// caller's accumulators (stats aggregation across shards).
    pub(crate) fn merge_latency_into(
        &self,
        hot: &mut pst_obs::Histogram,
        cold: &mut pst_obs::Histogram,
    ) {
        hot.merge_from(&self.hot_nanos);
        cold.merge_from(&self.cold_nanos);
    }

    /// This shard's cache occupancy/traffic, for stats aggregation:
    /// `(entries, bytes, tick, lifetime stats)`.
    pub fn cache_snapshot_stats(&self) -> (usize, usize, u64, crate::cache::CacheStats) {
        (
            self.cache.len(),
            self.cache.total_bytes(),
            self.cache.tick(),
            self.cache.stats(),
        )
    }

    /// Answers one request line. Never panics: malformed JSON, invalid
    /// graphs, and contained panics all come back as error envelopes.
    pub fn handle_line(&mut self, line: &str) -> Reply {
        let started = Instant::now();
        pst_obs::counter!("serve_requests");
        let req = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => return Reply::error(&e.id, e.code, &e.message),
        };
        let parse_nanos = started.elapsed().as_nanos() as u64;
        let mut reply = self.handle_request(&req, started);
        if let Some(outcome) = &mut reply.outcome {
            outcome.parse_nanos = parse_nanos;
        }
        reply
    }

    /// Answers one parsed request. Entry points count `serve_requests`
    /// themselves ([`Session::handle_line`] here, the front end's
    /// `handle_line` in the daemon) so a request is counted exactly once
    /// however it arrives.
    pub fn handle_request(&mut self, req: &Request, started: Instant) -> Reply {
        self.handle_keyed(req, content_key(&req.input), started)
    }

    /// [`Session::handle_request`] with the request's [`content_key`]
    /// already computed (the front end routes on it). A unit method runs
    /// under panic containment: a contained panic prints nothing (it is
    /// reported as data, same as the fuzz loop; see [`contain`]), and
    /// evicts the unit — its interned artifacts are suspect.
    pub(crate) fn handle_keyed(
        &mut self,
        req: &Request,
        key: Option<u64>,
        started: Instant,
    ) -> Reply {
        let control = [
            Method::Stats,
            Method::Metrics,
            Method::Slowlog,
            Method::Drain,
            Method::Shutdown,
        ];
        if control.contains(&req.method) {
            return Reply::error(
                &req.id,
                ErrorCode::Unsupported,
                &format!(
                    "`{}` is answered by the daemon front end (`pst serve`); \
                     a cache shard answers unit methods only",
                    req.method.name()
                ),
            );
        }
        let mut budget = Budget::UNLIMITED;
        if self.config.request_timeout_ms > 0 {
            budget = budget.until(started + Duration::from_millis(self.config.request_timeout_ms));
        }
        let outcome = contain(|| {
            // Fold this request's thread-local counters into the global
            // aggregate even if it panics: work done before the crash is
            // data, not noise.
            let _fold = pst_obs::fold_on_drop();
            self.answer(req, key, budget)
        });
        let nanos = started.elapsed().as_nanos() as u64;
        pst_obs::histogram!("serve_request_nanos", nanos);
        let failed_outcome = |method: Method| crate::metrics::RequestOutcome {
            method: method.name(),
            unit: None,
            ok: false,
            cached: false,
            total_nanos: nanos,
            parse_nanos: 0,
            register_nanos: 0,
            inject_nanos: 0,
            compute_nanos: 0,
        };
        match outcome {
            Ok(Ok(answer)) => {
                pst_obs::histogram!(
                    if answer.cached {
                        "serve_hot_nanos"
                    } else {
                        "serve_cold_nanos"
                    },
                    nanos
                );
                if answer.cached {
                    self.hot_nanos.record(nanos);
                } else {
                    self.cold_nanos.record(nanos);
                }
                pst_obs::journal::emit(pst_obs::journal::Event::UnitSummary {
                    unit: format!("serve:{}#{}", answer.unit, req.method.name()),
                    nanos,
                    count: 1,
                });
                let mut reply = Reply::of(ok_response(
                    &req.id,
                    Some(&answer.unit),
                    Some(answer.cached),
                    nanos,
                    answer.result,
                ));
                reply.drop_conn = answer.drop_conn;
                reply.outcome = Some(crate::metrics::RequestOutcome {
                    method: req.method.name(),
                    unit: Some(answer.unit),
                    ok: true,
                    cached: answer.cached,
                    total_nanos: nanos,
                    parse_nanos: 0,
                    register_nanos: answer.register_nanos,
                    inject_nanos: answer.inject_nanos,
                    compute_nanos: answer.compute_nanos,
                });
                reply
            }
            Ok(Err((code, message))) => {
                let mut reply = Reply::error(&req.id, code, &message);
                reply.outcome = Some(failed_outcome(req.method));
                reply
            }
            Err(payload) => {
                self.panics += 1;
                pst_obs::counter!("serve_panics");
                if let Some(key) = key {
                    if self.cache.remove(key).is_some() {
                        self.quarantined += 1;
                        pst_obs::counter!("serve_cache_quarantined");
                    }
                }
                let mut reply = Reply::error(
                    &req.id,
                    ErrorCode::Panic,
                    &format!(
                        "request panicked (contained; the daemon keeps serving): {}",
                        panic_message(payload)
                    ),
                );
                reply.outcome = Some(failed_outcome(req.method));
                reply
            }
        }
    }

    /// Resolves the unit (registering inline input on a miss) and
    /// computes or replays the method result.
    fn answer(
        &mut self,
        req: &Request,
        key: Option<u64>,
        mut budget: Budget,
    ) -> Result<Answer, MethodError> {
        let Some(key) = key else {
            return Err((
                ErrorCode::InvalidRequest,
                format!(
                    "method `{}` needs an input: `source`, `edges`, or `unit`",
                    req.method.name()
                ),
            ));
        };
        let hex = unit_hex(key);
        let _unit_scope = pst_obs::UnitScope::enter(format!("serve:{}#{}", hex, req.method.name()));

        // Exactly one recency-and-stats-counting cache access per request.
        let register_started = Instant::now();
        let resident = self.cache.get(key).is_some();
        if resident {
            pst_obs::counter!("serve_cache_hit");
        } else {
            pst_obs::counter!("serve_cache_miss");
            let unit = match &req.input {
                RequestInput::MiniSource(s) => register(KIND_MINI, s)?,
                RequestInput::EdgeList(s) => register(KIND_EDGES, s)?,
                RequestInput::Unit(_) | RequestInput::None => {
                    return Err((
                        ErrorCode::UnknownUnit,
                        format!("unit `{hex}` is not registered (or was evicted); resend its `source` or `edges`"),
                    ))
                }
            };
            let bytes = unit.approx_bytes();
            let evicted = self.cache.insert(key, unit, bytes);
            pst_obs::counter!("serve_cache_eviction", evicted);
        }
        let register_nanos = register_started.elapsed().as_nanos() as u64;
        budget.spend(0).map_err(over_budget)?;

        // Fault injection sits after unit resolution on purpose: a test
        // panic must exercise the quarantine path, not dodge it. The
        // daemon-level chaos fault fires at the same point. Timing the
        // phase separately pins an injected stall on `inject` in the
        // slowlog breakdown, not on `compute`.
        let inject_started = Instant::now();
        if let Some(kind) = req.inject.as_deref() {
            fault_inject(kind)?;
        }
        let drop_conn = self.daemon_fault()?;
        let inject_nanos = inject_started.elapsed().as_nanos() as u64;
        budget.spend(0).map_err(over_budget)?;

        let method = req.method.name();
        let Some(unit) = self.cache.peek_mut(key) else {
            return Err((
                ErrorCode::UnknownUnit,
                format!("unit `{hex}` was evicted while registering (cache budgets too small)"),
            ));
        };
        if let Some(result) = unit.cached_result(method) {
            pst_obs::counter!("serve_stage_hit");
            return Ok(Answer {
                unit: hex,
                cached: true,
                result: result.clone(),
                drop_conn,
                register_nanos,
                inject_nanos,
                compute_nanos: 0,
            });
        }
        pst_obs::counter!("serve_stage_miss");
        let compute_started = Instant::now();
        let result = compute(unit, req.method, &mut budget)?;
        let compute_nanos = compute_started.elapsed().as_nanos() as u64;
        unit.memoize(method, &result);
        let bytes = unit.approx_bytes();
        let evicted = self.cache.update_bytes(key, bytes);
        pst_obs::counter!("serve_cache_eviction", evicted);
        Ok(Answer {
            unit: hex,
            cached: false,
            result,
            drop_conn,
            register_nanos,
            inject_nanos,
            compute_nanos,
        })
    }

    /// Fires the daemon-level `--inject-fault` chaos fault, if one is
    /// configured and this is a firing cycle. Only `fault-inject` builds
    /// compile the firing logic; production builds never configure a
    /// fault (the CLI refuses the flag), so this is a no-op there.
    /// Returns true when the connection should be dropped unreplied.
    #[cfg(feature = "fault-inject")]
    fn daemon_fault(&mut self) -> Result<bool, MethodError> {
        let Some(fault) = self.config.inject_fault else {
            return Ok(false);
        };
        self.fault_cycle += 1;
        // Fire on every third analysis request so the chaos workload
        // mixes faulty and clean traffic on one connection.
        if self.fault_cycle % 3 != 2 {
            return Ok(false);
        }
        pst_obs::counter!("serve_injected_faults");
        match fault {
            ServeFault::Panic => panic!("injected fault: daemon panic"),
            ServeFault::Slow => {
                std::thread::sleep(std::time::Duration::from_millis(50));
                Ok(false)
            }
            ServeFault::DropConn => Ok(true),
            // Fires at snapshot-write time, not per request.
            ServeFault::CorruptSnapshot => Ok(false),
        }
    }

    #[cfg(not(feature = "fault-inject"))]
    fn daemon_fault(&mut self) -> Result<bool, MethodError> {
        Ok(false)
    }

    /// Snapshot export: `(kind, source, memoized results)` for every
    /// resident unit, least-recently-used first, so replaying the list
    /// through [`Session::restore_unit`] reproduces today's eviction
    /// order.
    pub(crate) fn export_units(&self) -> Vec<ExportedUnit> {
        self.cache
            .values_by_recency()
            .into_iter()
            .map(|u| (u.kind, u.source.clone(), u.results.clone()))
            .collect()
    }

    /// Re-registers one snapshot entry under `key`, its content hash
    /// (warm restart), restoring its memoized results so the first
    /// repeat query answers `cached: true`.
    pub(crate) fn restore_unit(
        &mut self,
        key: u64,
        kind: u64,
        source: &str,
        results: &[(String, Json)],
    ) -> Result<(), MethodError> {
        let mut unit = register(kind, source)?;
        for (name, result) in results {
            if let Some(method) = Method::ALL.iter().copied().find(|m| m.name() == name) {
                unit.memoize(method.name(), result);
            }
        }
        let bytes = unit.approx_bytes();
        self.cache.insert(key, unit, bytes);
        Ok(())
    }
}

/// `"inject"` handling: compiled-in only under `fault-inject` (e2e panic
/// containment tests); production builds refuse it loudly.
#[cfg(feature = "fault-inject")]
fn fault_inject(kind: &str) -> Result<(), MethodError> {
    match kind {
        "panic" => panic!("injected fault: panic"),
        "slow" => {
            std::thread::sleep(std::time::Duration::from_millis(50));
            Ok(())
        }
        other => Err((
            ErrorCode::InvalidRequest,
            format!("unknown fault `{other}` (this build understands: panic, slow)"),
        )),
    }
}

#[cfg(not(feature = "fault-inject"))]
fn fault_inject(_kind: &str) -> Result<(), MethodError> {
    Err((
        ErrorCode::Unsupported,
        "fault injection is not compiled into this build (rebuild with --features fault-inject)"
            .to_string(),
    ))
}

thread_local! {
    /// Whether this thread is inside [`contain`].
    static CONTAINED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, catching its panic. The first call installs, once for the
/// process, a panic hook that is silent on a thread inside `contain` and
/// otherwise calls the hook it replaced: requests run on many threads,
/// and two that swapped the process-wide hook and restored it out of
/// order would leave a silent one behind.
fn contain<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CONTAINED.with(Cell::get) {
                previous(info);
            }
        }));
    });
    CONTAINED.with(|c| c.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(f));
    CONTAINED.with(|c| c.set(false));
    outcome
}

/// Best-effort extraction of a panic payload message (same shape as the
/// fuzz loop's).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Parses mini source (lowering every function) or an edge list
/// (canonicalizing it) into a resident unit of `kind`.
fn register(kind: u64, source: &str) -> Result<Unit, MethodError> {
    let failed = |msg: String| (ErrorCode::AnalysisError, msg);
    let analyses = match kind {
        KIND_MINI => {
            let program = parse_program(source).map_err(|e| failed(format!("parse error: {e}")))?;
            let lowered =
                lower_program(&program).map_err(|e| failed(format!("lowering error: {e}")))?;
            lowered
                .into_iter()
                .zip(program.functions)
                .map(|(f, ast)| Analysis::owning_function(f, Some(ast)))
                .collect()
        }
        KIND_EDGES => {
            let (graph, entry) = parse_edge_list_graph(source)
                .map_err(|e| failed(format!("edge list error: {e}")))?;
            let canonical = canonicalize(&graph, entry, &CanonicalizeOptions::default())
                .map_err(|e| failed(format!("canonicalize error: {e}")))?;
            vec![Analysis::owning_graph(graph, canonical)]
        }
        other => {
            return Err((
                ErrorCode::InvalidRequest,
                format!("snapshot entry has unknown unit kind {other}"),
            ))
        }
    };
    Ok(Unit {
        analyses,
        kind,
        source: source.to_string(),
        results: Vec::new(),
        results_bytes: 0,
    })
}

/// Computes one method's result over a resident unit under `budget`,
/// which is also checked between the per-function analyses of a mini
/// unit.
fn compute(unit: &Unit, method: Method, budget: &mut Budget) -> Result<Json, MethodError> {
    match (unit.kind, method) {
        (KIND_MINI, Method::Canonicalize) => Err((
            ErrorCode::Unsupported,
            "`canonicalize` applies to edge-list units; this unit is mini-language source"
                .to_string(),
        )),
        (KIND_MINI, _) => unit
            .analyses
            .iter()
            .map(|analysis| {
                budget.spend(0).map_err(over_budget)?;
                method_json(analysis, method, budget)
            })
            .collect::<Result<_, _>>()
            .map(Json::Arr),
        (_, Method::Ssa | Method::Dataflow) => Err((
            ErrorCode::Unsupported,
            format!(
                "`{}` needs a mini-language unit with variables; this unit is a raw edge list",
                method.name()
            ),
        )),
        _ => method_json(&unit.analyses[0], method, budget),
    }
}

/// One method's result over one analysis: a function of a mini unit, or
/// an edge unit's graph (named `<edges>`), under `budget`.
fn method_json(
    analysis: &Analysis<'_>,
    method: Method,
    budget: &mut Budget,
) -> Result<Json, MethodError> {
    let (function, canonical) = (analysis.function(), analysis.canonical());
    let name = function.map_or("<edges>", |f| f.name.as_str());
    Ok(match (method, function, canonical) {
        (Method::Pst, Some(f), _) => pst_json(
            vec![
                ("name", Json::Str(f.name.clone())),
                ("blocks", Json::UInt(f.cfg.node_count() as u64)),
                ("edges", Json::UInt(f.cfg.edge_count() as u64)),
                ("statements", Json::UInt(f.statement_count() as u64)),
            ],
            analysis.pst(),
        ),
        (Method::Pst, None, _) => pst_json(
            vec![
                ("nodes", Json::UInt(analysis.cfg().node_count() as u64)),
                ("edges", Json::UInt(analysis.cfg().edge_count() as u64)),
            ],
            analysis.pst(),
        ),
        (Method::ControlRegions, ..) => control_regions_json(name, analysis.control_regions()),
        (Method::Controldep, ..) => controldep_json(name, analysis, budget)?,
        (Method::Lint, ..) => pst_analysis::lint(analysis, &LintConfig::new(), budget)
            .map_err(over_budget)?
            .to_json(name),
        (Method::Ssa, Some(f), _) => ssa_json(f, analysis)?,
        (Method::Dataflow, Some(f), _) => dataflow_json(f, analysis)?,
        (Method::Canonicalize, _, Some(canonical)) => {
            let counts = canonical.report.counts();
            let repairs = [
                ("pruned_unreachable", counts.pruned_unreachable),
                ("tethered_unreachable", counts.tethered_unreachable),
                ("synthetic_entries", counts.synthetic_entries),
                ("synthetic_exits", counts.synthetic_exits),
                ("merged_exits", counts.merged_exits),
                ("virtual_loop_exits", counts.virtual_loop_exits),
                ("split_self_loops", counts.split_self_loops),
            ];
            let graph = analysis.input_graph();
            Json::obj([
                ("identity", Json::Bool(canonical.report.is_identity())),
                ("input_nodes", Json::UInt(graph.node_count() as u64)),
                ("input_edges", Json::UInt(graph.edge_count() as u64)),
                ("nodes", Json::UInt(canonical.cfg.node_count() as u64)),
                ("edges", Json::UInt(canonical.cfg.edge_count() as u64)),
                (
                    "repairs",
                    Json::obj(repairs.map(|(k, n)| (k, Json::UInt(n as u64)))),
                ),
                ("report", Json::Str(canonical.report.to_string())),
            ])
        }
        _ => unreachable!("unit-less methods and kind mismatches never reach a unit"),
    })
}

/// `head` followed by the PST's shape statistics and rendered tree.
fn pst_json(mut head: Vec<(&str, Json)>, pst: &ProgramStructureTree) -> Json {
    let stats = PstStats::of(pst);
    head.extend([
        ("regions", Json::UInt(stats.region_count as u64)),
        ("max_depth", Json::UInt(stats.max_depth as u64)),
        ("average_depth", Json::Float(stats.average_depth())),
        (
            "max_collapsed_size",
            Json::UInt(stats.max_collapsed_size as u64),
        ),
        ("tree", Json::Str(pst.render())),
    ]);
    Json::obj(head)
}

fn control_regions_json(name: &str, cr: &ControlRegions) -> Json {
    Json::obj([
        ("name", Json::Str(name.to_string())),
        ("classes", Json::UInt(cr.num_classes() as u64)),
        (
            "groups",
            Json::Arr(
                cr.groups()
                    .iter()
                    .map(|nodes| {
                        Json::Arr(nodes.iter().map(|n| Json::Str(n.to_string())).collect())
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders one unit's strong-control-dependence summary: relation sizes,
/// DOD witnesses, the strong-region partition, and — when the classic
/// relation is available — the termination-sensitive surplus per branch.
/// An edge unit's NTSCD and DOD are defined on the raw digraph itself
/// (no canonicalization, non-terminating regions intact); the classic
/// relation needs a valid CFG, so its size is reported from the
/// Definition-1 repair for comparison.
fn controldep_json(
    name: &str,
    analysis: &Analysis<'_>,
    budget: &mut Budget,
) -> Result<Json, MethodError> {
    let strong = analysis.strong(budget).map_err(over_budget)?;
    let (ntscd, dod) = (strong.ntscd(), strong.dod());
    let index = |n: NodeId| Json::UInt(n.index() as u64);
    let witness =
        |w: &DodWitness| Json::Arr(vec![index(w.branch), index(w.first), index(w.second)]);
    let mut fields = vec![
        ("name", Json::Str(name.to_string())),
        ("ntscd_deps", Json::UInt(ntscd.relation_size() as u64)),
        (
            "dod_witnesses",
            Json::Arr(dod.witnesses().iter().map(witness).collect()),
        ),
        ("dod_complete", Json::Bool(dod.is_complete())),
        (
            "strong_regions",
            Json::UInt(strong.regions().num_classes() as u64),
        ),
    ];
    if let Some(classic) = strong.classic() {
        let sensitive = (0..ntscd.node_count())
            .map(NodeId::from_index)
            .filter_map(|branch| {
                let extra = strong.termination_sensitive_deps(branch);
                (!extra.is_empty()).then(|| {
                    Json::obj([
                        ("branch", index(branch)),
                        ("nodes", Json::Arr(extra.into_iter().map(index).collect())),
                    ])
                })
            });
        fields.push(("classic_deps", Json::UInt(classic.relation_size() as u64)));
        fields.push(("termination_sensitive", Json::Arr(sensitive.collect())));
    }
    if let Some(canonical) = analysis.canonical() {
        let classic = ClassicControlDeps::compute(&canonical.cfg);
        fields.push((
            "classic_deps_canonical",
            Json::UInt(classic.relation_size() as u64),
        ));
    }
    Ok(Json::obj(fields))
}

fn ssa_json(f: &LoweredFunction, analysis: &Analysis<'_>) -> Result<Json, MethodError> {
    let failure = |e: pst_ssa::SsaError| (ErrorCode::AnalysisError, format!("fn {}: {e}", f.name));
    let sparse = analysis.phi().map_err(failure)?;
    let form = rename(f, &sparse.placement).map_err(failure)?;
    let mut per_var = vec![0u64; f.var_count()];
    for phi in form.phi_nodes.iter().flatten() {
        per_var[phi.var.index()] += 1;
    }
    Ok(Json::obj([
        ("name", Json::Str(f.name.clone())),
        ("phis", Json::UInt(form.total_phis() as u64)),
        (
            "phis_per_var",
            Json::obj((0..f.var_count()).map(|v| {
                (
                    f.var_name(VarId::from_index(v)).to_string(),
                    Json::UInt(per_var[v]),
                )
            })),
        ),
    ]))
}

fn dataflow_json(f: &LoweredFunction, analysis: &Analysis<'_>) -> Result<Json, MethodError> {
    let qpg_failure = |e: pst_dataflow::QpgError| {
        (
            ErrorCode::AnalysisError,
            format!("fn {}: QPG error: {e}", f.name),
        )
    };
    let ctx = analysis.qpg_context().map_err(qpg_failure)?;
    let mut vars = Vec::new();
    for v in 0..f.var_count() {
        let var = VarId::from_index(v);
        let problem = SingleVariableReachingDefs::new(f, var);
        let qpg = ctx.build_from_sites(problem.sites()).map_err(qpg_failure)?;
        let sparse = ctx.solve(&qpg, &problem).map_err(qpg_failure)?;
        let full = solve_iterative(&f.cfg, &problem);
        let exit_defs: Vec<Json> = sparse
            .value_in(f.cfg.exit())
            .iter()
            .map(|i| Json::Str(format!("{}", problem.sites()[i])))
            .collect();
        vars.push(Json::obj([
            ("var", Json::Str(f.var_name(var).to_string())),
            ("qpg_nodes", Json::UInt(qpg.node_count() as u64)),
            ("cfg_nodes", Json::UInt(f.cfg.node_count() as u64)),
            ("exit_defs", Json::Arr(exit_defs)),
            ("agrees", Json::Bool(sparse == full)),
        ]));
    }
    Ok(Json::obj([
        ("name", Json::Str(f.name.clone())),
        ("vars", Json::Arr(vars)),
    ]))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    const MINI: &str = "fn f(n) { s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }";

    fn request(json: &str) -> String {
        json.to_string()
    }

    fn parsed(reply: &Reply) -> Json {
        Json::parse(&reply.line).expect("reply must be valid JSON")
    }

    fn session() -> Session {
        Session::new(ServeConfig::default())
    }

    #[test]
    fn pst_round_trip_hits_the_cache_on_repeat() {
        let mut s = session();
        let line = request(&format!(
            r#"{{"id": 1, "method": "pst", "source": {}}}"#,
            Json::Str(MINI.to_string())
        ));
        let first = parsed(&s.handle_line(&line));
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
        let unit = match first.get("unit") {
            Some(Json::Str(u)) => u.clone(),
            other => panic!("no unit in reply: {other:?}"),
        };
        // Repeat inline: stage memo hit.
        let second = parsed(&s.handle_line(&line));
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(second.get("result"), first.get("result"));
        // Query by unit id: same memo.
        let by_unit = parsed(&s.handle_line(&request(&format!(
            r#"{{"id": 2, "method": "pst", "unit": "{unit}"}}"#
        ))));
        assert_eq!(by_unit.get("cached"), Some(&Json::Bool(true)));
        // A *different* method on the same unit is a unit hit, stage miss.
        let lint = parsed(&s.handle_line(&request(&format!(
            r#"{{"id": 3, "method": "lint", "unit": "{unit}"}}"#
        ))));
        assert_eq!(lint.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(lint.get("cached"), Some(&Json::Bool(false)));
        // 3 unit hits (repeat, by-unit, lint), 1 miss.
        let (_, _, _, stats) = s.cache_snapshot_stats();
        assert_eq!((stats.hits, stats.misses), (3, 1));
    }

    #[test]
    fn all_methods_answer_on_both_unit_kinds() {
        let mut s = session();
        let mini = Json::Str(MINI.to_string());
        for method in [
            "pst",
            "control_regions",
            "controldep",
            "lint",
            "ssa",
            "dataflow",
        ] {
            let r =
                parsed(&s.handle_line(&format!(r#"{{"method": "{method}", "source": {mini}}}"#)));
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "mini {method}");
        }
        let edges = Json::Str("0->1\n1->2\n0->2\n".to_string());
        for method in [
            "pst",
            "control_regions",
            "controldep",
            "lint",
            "canonicalize",
        ] {
            let r =
                parsed(&s.handle_line(&format!(r#"{{"method": "{method}", "edges": {edges}}}"#)));
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "edges {method}");
        }
        // Kind mismatches are typed `unsupported` errors.
        for (method, field, input) in [
            ("canonicalize", "source", &mini),
            ("ssa", "edges", &edges),
            ("dataflow", "edges", &edges),
        ] {
            let r =
                parsed(&s.handle_line(&format!(r#"{{"method": "{method}", "{field}": {input}}}"#)));
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{method}");
            assert_eq!(
                r.get("error").and_then(|e| e.get("code")),
                Some(&Json::Str("unsupported".into()))
            );
        }
    }

    #[test]
    fn errors_are_structured_and_do_not_stop_the_session() {
        let mut s = session();
        let code_of = |r: &Json| {
            r.get("error")
                .and_then(|e| e.get("code"))
                .cloned()
                .expect("error envelope")
        };
        let r = parsed(&s.handle_line("{ not json"));
        assert_eq!(code_of(&r), Json::Str("parse_error".into()));
        let r = parsed(&s.handle_line(r#"{"method": "pst", "unit": "00000000000000aa"}"#));
        assert_eq!(code_of(&r), Json::Str("unknown_unit".into()));
        let r = parsed(&s.handle_line(r#"{"method": "pst"}"#));
        assert_eq!(code_of(&r), Json::Str("invalid_request".into()));
        let r = parsed(&s.handle_line(r#"{"method": "pst", "source": "fn ("}"#));
        assert_eq!(code_of(&r), Json::Str("analysis_error".into()));
        // ...and a well-formed request still succeeds afterwards.
        let ok = parsed(&s.handle_line(&format!(
            r#"{{"method": "pst", "source": {}}}"#,
            Json::Str(MINI.to_string())
        )));
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn an_edge_units_memoized_dod_counts_toward_its_bytes() {
        // Branch 0 orders the always-executing pair 1, 2: one DOD witness.
        let unit = register(KIND_EDGES, "0->1\n0->2\n1->2\n2->1\n").unwrap();
        let mut no_deadline = Budget::UNLIMITED;
        compute(&unit, Method::ControlRegions, &mut no_deadline).unwrap();
        let before = unit.approx_bytes() - unit.results_bytes;
        // `lint` reuses the control regions and adds only the DOD.
        let lint = compute(&unit, Method::Lint, &mut no_deadline).unwrap();
        assert!(lint.to_string().contains("PST-C103"), "{lint}");
        let after = unit.approx_bytes() - unit.results_bytes;
        assert!(
            after > before,
            "the DOD lint kept is not counted: {before} -> {after}"
        );
    }

    #[test]
    fn the_deadline_reaches_into_ntscd_and_keeps_the_unit() {
        // NTSCD on a ladder of 3,000 diamonds takes far longer than the
        // 50ms it gets; only the deadline spent inside it cuts it short.
        let ladder: String = (0..3_000)
            .map(|i| format!("if (n > {i}) {{ a = a + {i}; }} else {{ b = a; }}\n"))
            .collect();
        let source = Json::Str(format!(
            "fn f(n) {{ a = 0; b = 0; {ladder} return a + b; }}"
        ));
        let mut s = session();
        let registered =
            parsed(&s.handle_line(&format!(r#"{{"method": "pst", "source": {source}}}"#)));
        let unit = registered
            .get("unit")
            .expect("an ok reply names its unit")
            .clone();
        s.config.request_timeout_ms = 50;
        let r = parsed(&s.handle_line(&format!(r#"{{"method": "controldep", "unit": {unit}}}"#)));
        let code = r.get("error").and_then(|e| e.get("code"));
        assert_eq!(code, Some(&Json::Str("deadline_exceeded".into())), "{r}");
        // The unit was not quarantined, and nothing partial was kept.
        let ok = parsed(&s.handle_line(&format!(r#"{{"method": "pst", "unit": {unit}}}"#)));
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "{ok}");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn slow_injection_with_a_tight_budget_exceeds_the_deadline() {
        let mut s = Session::new(ServeConfig {
            request_timeout_ms: 5,
            ..ServeConfig::default()
        });
        let mini = Json::Str(MINI.to_string());
        let r = parsed(&s.handle_line(&format!(
            r#"{{"id": 1, "method": "pst", "source": {mini}, "inject": "slow"}}"#
        )));
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            r.get("error").and_then(|e| e.get("code")),
            Some(&Json::Str("deadline_exceeded".into()))
        );
        // Without the slow fault the same budget is plenty.
        let ok = parsed(&s.handle_line(&format!(r#"{{"method": "pst", "source": {mini}}}"#)));
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn a_shard_answers_control_methods_unsupported() {
        let mut s = session();
        for method in ["stats", "metrics", "slowlog", "drain", "shutdown"] {
            let reply = s.handle_line(&format!(r#"{{"id": "c", "method": "{method}"}}"#));
            assert!(!reply.shutdown, "{method}");
            let r = parsed(&reply);
            assert_eq!(r.get("id"), Some(&Json::Str("c".into())), "{method}");
            assert_eq!(
                r.get("error").and_then(|e| e.get("code")),
                Some(&Json::Str("unsupported".into())),
                "{method}"
            );
        }
    }

    #[test]
    fn eviction_under_a_tiny_budget_forgets_old_units() {
        let mut s = Session::new(ServeConfig {
            cache: CacheConfig {
                max_entries: 1,
                max_bytes: 0,
            },
            ..ServeConfig::default()
        });
        let a = format!(
            r#"{{"method": "pst", "source": {}}}"#,
            Json::Str(MINI.into())
        );
        let b = r#"{"method": "pst", "edges": "0->1\n"}"#.to_string();
        let first = parsed(&s.handle_line(&a));
        let unit_a = match first.get("unit") {
            Some(Json::Str(u)) => u.clone(),
            _ => unreachable!(),
        };
        let _ = s.handle_line(&b); // evicts unit a
        let r = parsed(&s.handle_line(&format!(r#"{{"method": "pst", "unit": "{unit_a}"}}"#)));
        assert_eq!(
            r.get("error").and_then(|e| e.get("code")),
            Some(&Json::Str("unknown_unit".into()))
        );
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_panic_is_contained_and_quarantines_the_unit() {
        let mut s = session();
        let mini = Json::Str(MINI.to_string());
        let ok = parsed(&s.handle_line(&format!(r#"{{"method": "pst", "source": {mini}}}"#)));
        assert_eq!(ok.get("cached"), Some(&Json::Bool(false)));
        let boom = parsed(&s.handle_line(&format!(
            r#"{{"id": 9, "method": "pst", "source": {mini}, "inject": "panic"}}"#
        )));
        assert_eq!(boom.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            boom.get("error").and_then(|e| e.get("code")),
            Some(&Json::Str("panic".into()))
        );
        assert_eq!(boom.get("id"), Some(&Json::UInt(9)));
        // The unit was quarantined: the same query recomputes from scratch
        // (cached=false), and the daemon is still healthy.
        let again = parsed(&s.handle_line(&format!(r#"{{"method": "pst", "source": {mini}}}"#)));
        assert_eq!(again.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(again.get("cached"), Some(&Json::Bool(false)));
    }

    #[cfg(not(feature = "fault-inject"))]
    #[test]
    fn inject_is_refused_without_the_feature() {
        let mut s = session();
        let r = parsed(&s.handle_line(&format!(
            r#"{{"method": "pst", "source": {}, "inject": "panic"}}"#,
            Json::Str(MINI.to_string())
        )));
        assert_eq!(
            r.get("error").and_then(|e| e.get("code")),
            Some(&Json::Str("unsupported".into()))
        );
    }
}
