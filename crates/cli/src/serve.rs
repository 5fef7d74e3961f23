//! `pst serve` — the long-lived analysis daemon (see `docs/SERVING.md`).
//!
//! Speaks newline-delimited JSON-RPC over stdin/stdout by default, or
//! over TCP with `--listen addr:port` (std::net only; port 0 picks a
//! free port and the bound address is announced on stdout). Session
//! state lives in `pst-serve`: a content-hash LRU cache that interns
//! parsed units and per-stage pipeline artifacts, budgeted by
//! `--cache-entries` / `--cache-bytes` (0 = unlimited). Lines longer
//! than `--max-request-bytes` are answered with an `oversized_request`
//! envelope instead of being buffered.
//!
//! Fleet knobs (`docs/SERVING.md` § Operations): `--workers` sizes the
//! TCP worker pool and session shard count, `--request-timeout-ms` arms
//! the per-request deadline, `--max-inflight` bounds the
//! admission gate (excess is shed with an `overloaded` envelope),
//! `--cache-snapshot`/`--snapshot-every` persist the cache across
//! restarts, and `--inject-fault` (fault-inject builds only) turns the
//! daemon into its own chaos monkey.
//!
//! Live telemetry (`docs/SERVING.md` § Live telemetry):
//! `--metrics-window-ms` sets the windowed-series tick width (0
//! disables the `metrics`/`slowlog` methods entirely), `--slowlog-ms`
//! arms `slow_request` journal events past the threshold, and
//! `--metrics-listen addr:port` opens a one-shot HTTP responder with
//! the Prometheus-style text exposition (scrape with `curl`, watch
//! with `pst top`).
//!
//! The daemon composes with the global observability flags: `--trace` /
//! `--metrics-json` report the `serve_*` counters and latency
//! histograms at exit, and `--journal` records one `unit_summary` event
//! per request as it happens (which is why `finish_journal` skips the
//! exit-time unit mirror for this command).

use pst_serve::{ServeConfig, ServeFault};

use crate::{take_value_flag, Failure};

/// Parsed `pst serve` options.
pub struct ServeOptions {
    /// TCP listen address (`addr:port`); stdin/stdout when absent.
    pub listen: Option<String>,
    /// Cache budgets, request size cap, and fleet knobs.
    pub config: ServeConfig,
}

impl ServeOptions {
    /// Parses serve-specific flags out of the remaining CLI arguments.
    pub fn from_args(args: &mut Vec<String>) -> Result<ServeOptions, String> {
        let listen = take_value_flag(args, "--listen")?;
        let number = |name: &str, value: Option<String>| -> Result<Option<usize>, String> {
            value
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| format!("`{name}` expects a non-negative integer, got `{s}`"))
                })
                .transpose()
        };
        let cache_entries = number("--cache-entries", take_value_flag(args, "--cache-entries")?)?;
        let cache_bytes = number("--cache-bytes", take_value_flag(args, "--cache-bytes")?)?;
        let max_request_bytes = number(
            "--max-request-bytes",
            take_value_flag(args, "--max-request-bytes")?,
        )?;
        let workers = number("--workers", take_value_flag(args, "--workers")?)?;
        let request_timeout_ms = number(
            "--request-timeout-ms",
            take_value_flag(args, "--request-timeout-ms")?,
        )?;
        let max_inflight = number("--max-inflight", take_value_flag(args, "--max-inflight")?)?;
        let snapshot_path = take_value_flag(args, "--cache-snapshot")?;
        let snapshot_every = number(
            "--snapshot-every",
            take_value_flag(args, "--snapshot-every")?,
        )?;
        let inject_fault = take_value_flag(args, "--inject-fault")?;
        let metrics_window_ms = number(
            "--metrics-window-ms",
            take_value_flag(args, "--metrics-window-ms")?,
        )?;
        let slowlog_ms = number("--slowlog-ms", take_value_flag(args, "--slowlog-ms")?)?;
        let metrics_listen = take_value_flag(args, "--metrics-listen")?;
        if let Some(extra) = args.first() {
            return Err(format!("serve does not take `{extra}`"));
        }
        let mut config = ServeConfig::default();
        if let Some(n) = cache_entries {
            config.cache.max_entries = n;
        }
        if let Some(n) = cache_bytes {
            config.cache.max_bytes = n;
        }
        if let Some(n) = max_request_bytes {
            if n == 0 {
                return Err("`--max-request-bytes` must be at least 1".to_string());
            }
            config.max_request_bytes = n;
        }
        if let Some(n) = workers {
            if n == 0 {
                return Err("`--workers` must be at least 1".to_string());
            }
            config.workers = n;
        }
        if let Some(n) = request_timeout_ms {
            config.request_timeout_ms = n as u64;
        }
        if let Some(n) = max_inflight {
            config.max_inflight = n;
        }
        config.snapshot_path = snapshot_path;
        if let Some(n) = snapshot_every {
            config.snapshot_every = n as u64;
        }
        if let Some(n) = metrics_window_ms {
            config.metrics_window_ms = n as u64;
        }
        if let Some(n) = slowlog_ms {
            config.slowlog_ms = n as u64;
        }
        config.metrics_listen = metrics_listen;
        if let Some(kind) = inject_fault {
            if !cfg!(feature = "fault-inject") {
                return Err(
                    "`--inject-fault` needs a build with the fault-inject feature".to_string(),
                );
            }
            config.inject_fault = Some(ServeFault::parse(&kind).ok_or_else(|| {
                format!(
                    "`--inject-fault` expects panic|slow|drop-conn|corrupt-snapshot, got `{kind}`"
                )
            })?);
        }
        Ok(ServeOptions { listen, config })
    }
}

/// Runs the daemon until EOF, disconnect-after-shutdown, drain, or a
/// fatal transport error. Request-level failures never reach this
/// result — they are answered in-band as structured error envelopes.
pub fn serve_command(opts: &ServeOptions) -> Result<(), Failure> {
    let _span = pst_obs::Span::enter("serve");
    let outcome = match &opts.listen {
        Some(addr) => pst_serve::serve_tcp(opts.config.clone(), addr),
        None => pst_serve::serve_stdio(opts.config.clone()),
    };
    outcome.map_err(|e| Failure::Analysis(format!("serve transport error: {e}")))
}
