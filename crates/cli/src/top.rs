//! `pst top` — a terminal dashboard for a serving daemon.
//!
//! Connects to a running `pst serve --listen` daemon over TCP, asks for
//! the live `metrics` and `stats` views in one NDJSON round trip, and
//! renders a per-method table: lifetime totals, windowed request rate,
//! errors, p50/p99 latency, and cache hit ratio, with a daemon-wide
//! header (in-flight, shed, workers, draining). By default the view
//! refreshes every `--interval-ms` (ANSI clear between frames, like
//! `top(1)`); `--once` takes a single snapshot and exits, and
//! `--once --format json` emits the raw `{"metrics": ..., "stats": ...}`
//! pair for scripts — that mode is what `scripts/verify.sh` drives.
//!
//! The daemon only serves the `metrics` method when started with
//! `--metrics-window-ms > 0` (the default); against a daemon with live
//! telemetry disabled this command reports the refusal and exits 1.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use pst_obs::json::Json;

use crate::{take_flag, take_value_flag, Failure};

/// Output format for `pst top`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopFormat {
    /// Human-readable table (the default).
    Text,
    /// Raw `{"metrics": ..., "stats": ...}` JSON, one document per poll.
    Json,
}

/// Parsed `pst top` options.
#[derive(Debug)]
pub struct TopOptions {
    /// Daemon address (`addr:port`), as announced by `pst serve --listen`.
    pub addr: String,
    /// Take one snapshot and exit instead of refreshing.
    pub once: bool,
    /// Table or raw JSON.
    pub format: TopFormat,
    /// Refresh interval between polls (clamped to >= 100ms).
    pub interval_ms: u64,
}

impl TopOptions {
    /// Parses top-specific flags out of the remaining CLI arguments.
    pub fn from_args(args: &mut Vec<String>) -> Result<TopOptions, String> {
        let addr = take_value_flag(args, "--addr")?.ok_or_else(|| {
            "top needs `--addr addr:port` (the address a `pst serve --listen` daemon announced)"
                .to_string()
        })?;
        let once = take_flag(args, "--once");
        let format = match take_value_flag(args, "--format")?.as_deref() {
            None | Some("text") => TopFormat::Text,
            Some("json") => TopFormat::Json,
            Some(other) => return Err(format!("`--format` expects text|json, got `{other}`")),
        };
        let interval_ms = match take_value_flag(args, "--interval-ms")? {
            None => 1000,
            Some(s) => s.parse::<u64>().map_err(|_| {
                format!("`--interval-ms` expects a non-negative integer, got `{s}`")
            })?,
        };
        if let Some(extra) = args.first() {
            return Err(format!("top does not take `{extra}`"));
        }
        Ok(TopOptions {
            addr,
            once,
            format,
            interval_ms,
        })
    }
}

/// Polls the daemon until interrupted (or once, with `--once`).
pub fn top_command(opts: &TopOptions) -> Result<(), Failure> {
    loop {
        let (metrics, stats) = poll(&opts.addr)?;
        match opts.format {
            TopFormat::Json => {
                println!("{}", Json::obj([("metrics", metrics), ("stats", stats)]));
            }
            TopFormat::Text => {
                if !opts.once {
                    // Same idiom as top(1): clear and home between frames.
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", render(&opts.addr, &metrics, &stats));
            }
        }
        if opts.once {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(opts.interval_ms.max(100)));
    }
}

/// One NDJSON round trip: send `metrics` + `stats`, return both results.
fn poll(addr: &str) -> Result<(Json, Json), Failure> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| Failure::Analysis(format!("top: cannot connect to {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| Failure::Analysis(format!("top: cannot arm read timeout: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| Failure::Analysis(format!("top: cannot clone connection: {e}")))?;
    writer
        .write_all(b"{\"id\": 1, \"method\": \"metrics\"}\n{\"id\": 2, \"method\": \"stats\"}\n")
        .and_then(|()| writer.flush())
        .map_err(|e| Failure::Analysis(format!("top: write to {addr} failed: {e}")))?;
    let mut reader = BufReader::new(stream);
    let metrics = read_result(&mut reader, addr, "metrics")?;
    let stats = read_result(&mut reader, addr, "stats")?;
    Ok((metrics, stats))
}

/// Reads one reply line and unwraps the `{"ok": true, "result": ...}`
/// envelope, surfacing the daemon's error message on refusal (the
/// common one: live telemetry disabled via `--metrics-window-ms 0`).
fn read_result(reader: &mut impl BufRead, addr: &str, method: &str) -> Result<Json, Failure> {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| Failure::Analysis(format!("top: read from {addr} failed: {e}")))?;
    if n == 0 {
        return Err(Failure::Analysis(format!(
            "top: {addr} closed the connection before answering `{method}`"
        )));
    }
    let reply = Json::parse(line.trim())
        .map_err(|e| Failure::Analysis(format!("top: `{method}` reply is not JSON: {e:?}")))?;
    if !matches!(reply.get("ok"), Some(Json::Bool(true))) {
        let message = match reply.get("error").and_then(|e| e.get("message")) {
            Some(Json::Str(s)) => s.clone(),
            _ => "no error message".to_string(),
        };
        return Err(Failure::Analysis(format!(
            "top: daemon refused `{method}`: {message}"
        )));
    }
    reply
        .get("result")
        .cloned()
        .ok_or_else(|| Failure::Analysis(format!("top: `{method}` reply has no result")))
}

/// A `u64` field of a JSON object, defaulting to 0.
fn u64_field(value: &Json, key: &str) -> u64 {
    value.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Renders the dashboard: a daemon-wide header plus one row per method
/// that has served at least one request.
fn render(addr: &str, metrics: &Json, stats: &Json) -> String {
    let window_ms = u64_field(metrics, "window_ms");
    let windows = u64_field(metrics, "windows");
    let span_secs = (window_ms.saturating_mul(windows)) as f64 / 1000.0;
    let draining = matches!(stats.get("draining"), Some(Json::Bool(true)));
    let cache = stats.get("cache");
    let mut out = format!(
        "pst top — {addr}  tick {}  window {window_ms}ms x{windows}\n",
        u64_field(metrics, "tick"),
    );
    out.push_str(&format!(
        "in-flight {}  shed {}  conn-errors {}  workers {}  draining {}  slowlog {}\n",
        u64_field(stats, "in_flight"),
        u64_field(stats, "shed"),
        u64_field(stats, "conn_errors"),
        u64_field(stats, "workers"),
        draining,
        u64_field(metrics, "slowlog_entries"),
    ));
    if let Some(cache) = cache {
        out.push_str(&format!(
            "cache: {} entries, {} bytes, {} hits / {} misses, {} evictions\n",
            u64_field(cache, "entries"),
            u64_field(cache, "bytes"),
            u64_field(cache, "hits"),
            u64_field(cache, "misses"),
            u64_field(cache, "evictions"),
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<10} {:>10} {:>8} {:>6} {:>10} {:>10} {:>6}\n",
        "METHOD", "TOTAL", "RATE/S", "ERRS", "P50(us)", "P99(us)", "HIT%"
    ));
    let mut active = 0usize;
    if let Some(Json::Obj(methods)) = metrics.get("methods") {
        for (name, series) in methods {
            let total = u64_field(series, "requests_total");
            if total == 0 {
                continue;
            }
            active += 1;
            let window = series.get("window");
            let in_window = window.map(|w| u64_field(w, "requests")).unwrap_or(0);
            let rate = if span_secs > 0.0 {
                in_window as f64 / span_secs
            } else {
                0.0
            };
            let hit_pct = if in_window > 0 {
                let hits = window.map(|w| u64_field(w, "cache_hits")).unwrap_or(0);
                100.0 * hits as f64 / in_window as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<10} {:>10} {:>8.1} {:>6} {:>10} {:>10} {:>5.0}%\n",
                name,
                total,
                rate,
                u64_field(series, "errors_total"),
                window.map(|w| u64_field(w, "p50_nanos")).unwrap_or(0) / 1_000,
                window.map(|w| u64_field(w, "p99_nanos")).unwrap_or(0) / 1_000,
                hit_pct,
            ));
        }
    }
    if active == 0 {
        out.push_str("(no requests served yet)\n");
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn flag(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn from_args_requires_addr_and_validates_format() {
        let err = TopOptions::from_args(&mut flag(&["--once"])).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let err =
            TopOptions::from_args(&mut flag(&["--addr", "x:1", "--format", "xml"])).unwrap_err();
        assert!(err.contains("text|json"), "{err}");
        let opts =
            TopOptions::from_args(&mut flag(&["--addr", "x:1", "--once", "--format", "json"]))
                .unwrap();
        assert!(opts.once);
        assert!(opts.format == TopFormat::Json);
        assert_eq!(opts.interval_ms, 1000);
    }

    #[test]
    fn render_shows_active_methods_and_the_daemon_header() {
        let metrics = Json::parse(
            r#"{"window_ms": 1000, "windows": 8, "tick": 3, "slowlog_entries": 2,
                "methods": {
                  "pst": {"requests_total": 40, "errors_total": 1, "cache_hits_total": 10,
                          "window": {"requests": 8, "errors": 0, "cache_hits": 4, "count": 8,
                                     "p50_nanos": 2000000, "p99_nanos": 9000000, "max_nanos": 9000000}},
                  "lint": {"requests_total": 0, "errors_total": 0, "cache_hits_total": 0,
                           "window": {"requests": 0, "errors": 0, "cache_hits": 0, "count": 0,
                                      "p50_nanos": 0, "p99_nanos": 0, "max_nanos": 0}}}}"#,
        )
        .unwrap();
        let stats = Json::parse(
            r#"{"in_flight": 1, "shed": 0, "conn_errors": 0, "workers": 4, "draining": false,
                "cache": {"entries": 3, "bytes": 900, "hits": 10, "misses": 30, "evictions": 0}}"#,
        )
        .unwrap();
        let table = render("127.0.0.1:9", &metrics, &stats);
        assert!(table.contains("pst top — 127.0.0.1:9"), "{table}");
        assert!(table.contains("workers 4"), "{table}");
        assert!(table.contains("slowlog 2"), "{table}");
        // The active method renders with p50 in microseconds and the
        // windowed hit ratio; the idle method is hidden.
        // Two spaces: the method column is left-padded to 10, which
        // distinguishes the row from the "pst top — ..." banner.
        let pst_row = table.lines().find(|l| l.starts_with("pst  ")).unwrap();
        assert!(pst_row.contains("2000"), "{pst_row}");
        assert!(pst_row.contains("50%"), "{pst_row}");
        assert!(!table.contains("\nlint"), "{table}");
    }

    #[test]
    fn render_without_traffic_says_so() {
        let metrics =
            Json::parse(r#"{"window_ms": 1000, "windows": 8, "tick": 0, "methods": {}}"#).unwrap();
        let stats = Json::parse(r#"{"workers": 1, "draining": false}"#).unwrap();
        let table = render("h:1", &metrics, &stats);
        assert!(table.contains("(no requests served yet)"), "{table}");
    }
}
