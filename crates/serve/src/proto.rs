//! The newline-delimited JSON-RPC wire protocol.
//!
//! One request per line, one response per line, in order. A request
//! names a [`Method`] plus either inline input (`"source"` for a
//! mini-language program, `"edges"` for a raw edge-list digraph) or a
//! previously registered `"unit"` id (the 16-hex content hash returned
//! by every inline request). `"id"` is echoed verbatim into the
//! response (`null` when absent or unparseable), so clients may use
//! numbers, strings, or nothing.
//!
//! ```json
//! {"id": 1, "method": "pst", "source": "fn f(n) { return n; }"}
//! {"id": 1, "ok": true, "unit": "9b60933458e17dc1", "cached": false,
//!  "nanos": 184023, "result": {...}}
//! {"id": 2, "method": "lint", "unit": "9b60933458e17dc1"}
//! {"id": 3, "method": "oops"}
//! {"id": 3, "ok": false,
//!  "error": {"code": "unknown_method", "message": "..."}}
//! ```
//!
//! Every failure — malformed JSON, invalid graphs, a contained panic —
//! is a structured `{"ok": false, "error": {...}}` envelope; the daemon
//! never dies on a request. See `docs/SERVING.md` for the full method
//! and error-code tables.

use pst_obs::json::Json;

/// Every request method the daemon answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Program structure tree + per-function shape statistics.
    Pst,
    /// Control-dependence equivalence classes (§5, Theorem 7).
    ControlRegions,
    /// Strong control dependence: NTSCD relation, DOD witnesses, and the
    /// strong-region partition (`pst-controldep`, `docs/CONTROLDEP.md`).
    Controldep,
    /// Structural lint diagnostics (`pst-analysis`).
    Lint,
    /// φ-placement and SSA renaming (§6.1). Mini units only.
    Ssa,
    /// Per-variable reaching definitions via QPGs (§6.2). Mini units only.
    Dataflow,
    /// Definition-1 repair report for an edge-list digraph. Edge units only.
    Canonicalize,
    /// Session cache statistics and `serve_*` counters.
    Stats,
    /// Live windowed telemetry: per-method and per-shard latency
    /// quantiles, rates, and cache-hit ratios over the last N windows.
    /// `"format": "text"` asks for Prometheus-style text exposition.
    Metrics,
    /// The bounded ring of the slowest requests seen so far, each with a
    /// per-phase timing breakdown.
    Slowlog,
    /// Graceful drain: stop admitting new work, finish in-flight
    /// requests, flush journal/metrics, then exit.
    Drain,
    /// Acknowledge and stop serving after this response.
    Shutdown,
}

impl Method {
    /// Every method, in documentation order.
    pub const ALL: [Method; 12] = [
        Method::Pst,
        Method::ControlRegions,
        Method::Controldep,
        Method::Lint,
        Method::Ssa,
        Method::Dataflow,
        Method::Canonicalize,
        Method::Stats,
        Method::Metrics,
        Method::Slowlog,
        Method::Drain,
        Method::Shutdown,
    ];

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Pst => "pst",
            Method::ControlRegions => "control_regions",
            Method::Controldep => "controldep",
            Method::Lint => "lint",
            Method::Ssa => "ssa",
            Method::Dataflow => "dataflow",
            Method::Canonicalize => "canonicalize",
            Method::Stats => "stats",
            Method::Metrics => "metrics",
            Method::Slowlog => "slowlog",
            Method::Drain => "drain",
            Method::Shutdown => "shutdown",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<Method> {
        Method::ALL.iter().copied().find(|m| m.name() == name)
    }
}

/// Structured error codes of the response envelope, ordered roughly by
/// how early in the request path they fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line exceeded the configured size limit.
    OversizedRequest,
    /// The request line was not valid UTF-8.
    InvalidUtf8,
    /// The request line was not valid JSON.
    ParseError,
    /// The request was JSON but not a valid request object.
    InvalidRequest,
    /// The `method` field names no known method.
    UnknownMethod,
    /// The referenced unit id was never registered or has been evicted.
    UnknownUnit,
    /// The method does not apply to this unit kind (e.g. `ssa` on an
    /// edge-list unit, which has no variables).
    Unsupported,
    /// The pipeline rejected the input with a proper error.
    AnalysisError,
    /// The request ran past its `--request-timeout-ms` budget and was
    /// abandoned, between analysis phases or inside a superlinear one.
    DeadlineExceeded,
    /// The daemon is saturated (or draining) and shed this request
    /// before doing any work; the envelope carries a `retry_after_ms`
    /// hint for the client's backoff.
    Overloaded,
    /// The pipeline panicked; the panic was contained and the daemon
    /// keeps serving.
    Panic,
}

impl ErrorCode {
    /// The wire name stored in `error.code`.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::OversizedRequest => "oversized_request",
            ErrorCode::InvalidUtf8 => "invalid_utf8",
            ErrorCode::ParseError => "parse_error",
            ErrorCode::InvalidRequest => "invalid_request",
            ErrorCode::UnknownMethod => "unknown_method",
            ErrorCode::UnknownUnit => "unknown_unit",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::AnalysisError => "analysis_error",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Panic => "panic",
        }
    }
}

/// What a request asks the daemon to analyze.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestInput {
    /// Inline mini-language source (registers the unit).
    MiniSource(String),
    /// Inline `a->b` edge-list digraph (registers the unit).
    EdgeList(String),
    /// A previously registered unit id (content-hash key).
    Unit(u64),
    /// No input (only valid for the unit-less control methods:
    /// `stats`, `metrics`, `slowlog`, `drain`, `shutdown`).
    None,
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Echoed into the response; `Json::Null` when absent.
    pub id: Json,
    /// The requested method.
    pub method: Method,
    /// The input to analyze.
    pub input: RequestInput,
    /// The `"inject"` field, honored only by `fault-inject` builds
    /// (e2e panic-containment tests); carried so production builds can
    /// reject it loudly instead of silently ignoring it.
    pub inject: Option<String>,
    /// The `"format"` field (`metrics` only): `"text"` selects the
    /// Prometheus-style exposition; absent or `"json"` selects JSON.
    pub format: Option<String>,
}

/// A request that could not be parsed into a [`Request`].
#[derive(Clone, Debug, PartialEq)]
pub struct RequestError {
    /// Echoed id (best effort: `null` unless the line parsed as JSON).
    pub id: Json,
    /// The envelope code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl Request {
    /// Parses one NDJSON line. All failures come back as
    /// [`RequestError`] envelopes, never panics.
    pub fn parse(line: &str) -> Result<Request, RequestError> {
        let fail = |id: Json, code: ErrorCode, message: String| RequestError { id, code, message };
        let j = Json::parse(line).map_err(|e| {
            fail(
                Json::Null,
                ErrorCode::ParseError,
                format!("request is not valid JSON: {e}"),
            )
        })?;
        if !matches!(j, Json::Obj(_)) {
            return Err(fail(
                Json::Null,
                ErrorCode::InvalidRequest,
                "request must be a JSON object".to_string(),
            ));
        }
        let id = j.get("id").cloned().unwrap_or(Json::Null);
        let method_name = match j.get("method") {
            Some(Json::Str(m)) => m.clone(),
            Some(_) => {
                return Err(fail(
                    id,
                    ErrorCode::InvalidRequest,
                    "`method` must be a string".to_string(),
                ))
            }
            None => {
                return Err(fail(
                    id,
                    ErrorCode::InvalidRequest,
                    "request has no `method` field".to_string(),
                ))
            }
        };
        let method = Method::from_name(&method_name).ok_or_else(|| {
            fail(
                id.clone(),
                ErrorCode::UnknownMethod,
                format!(
                    "unknown method `{method_name}` (expected one of: {})",
                    Method::ALL.map(Method::name).join(", ")
                ),
            )
        })?;
        let text_field = |key: &str| -> Result<Option<String>, RequestError> {
            match j.get(key) {
                None => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(fail(
                    id.clone(),
                    ErrorCode::InvalidRequest,
                    format!("`{key}` must be a string"),
                )),
            }
        };
        let source = text_field("source")?;
        let edges = text_field("edges")?;
        let unit = text_field("unit")?;
        let inject = text_field("inject")?;
        let format = text_field("format")?;
        let given = [source.is_some(), edges.is_some(), unit.is_some()]
            .iter()
            .filter(|&&g| g)
            .count();
        if given > 1 {
            return Err(fail(
                id,
                ErrorCode::InvalidRequest,
                "give exactly one of `source`, `edges`, or `unit`".to_string(),
            ));
        }
        let input = if let Some(s) = source {
            RequestInput::MiniSource(s)
        } else if let Some(e) = edges {
            RequestInput::EdgeList(e)
        } else if let Some(u) = unit {
            let key = crate::hash::parse_unit_hex(&u).ok_or_else(|| {
                fail(
                    id.clone(),
                    ErrorCode::InvalidRequest,
                    format!("`unit` must be a 16-hex-digit id, got `{u}`"),
                )
            })?;
            RequestInput::Unit(key)
        } else {
            RequestInput::None
        };
        Ok(Request {
            id,
            method,
            input,
            inject,
            format,
        })
    }
}

/// Builds the success envelope. `unit`/`cached` are omitted for
/// unit-less methods (`stats`, `shutdown`).
pub fn ok_response(
    id: &Json,
    unit: Option<&str>,
    cached: Option<bool>,
    nanos: u64,
    result: Json,
) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Json::Bool(true)),
    ];
    if let Some(u) = unit {
        fields.push(("unit".to_string(), Json::Str(u.to_string())));
    }
    if let Some(c) = cached {
        fields.push(("cached".to_string(), Json::Bool(c)));
    }
    fields.push(("nanos".to_string(), Json::UInt(nanos)));
    fields.push(("result".to_string(), result));
    Json::Obj(fields)
}

/// Builds the error envelope.
pub fn error_response(id: &Json, code: ErrorCode, message: &str) -> Json {
    Json::obj([
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                ("code", Json::Str(code.as_str().to_string())),
                ("message", Json::Str(message.to_string())),
            ]),
        ),
    ])
}

/// Builds the overload-shedding envelope: an `overloaded` error whose
/// error object carries a `retry_after_ms` backoff hint for the client.
pub fn overloaded_response(id: &Json, message: &str, retry_after_ms: u64) -> Json {
    Json::obj([
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                (
                    "code",
                    Json::Str(ErrorCode::Overloaded.as_str().to_string()),
                ),
                ("message", Json::Str(message.to_string())),
                ("retry_after_ms", Json::UInt(retry_after_ms)),
            ]),
        ),
    ])
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_inline_and_unit_requests() {
        let r = Request::parse(r#"{"id": 7, "method": "pst", "source": "fn f(n) {}"}"#).unwrap();
        assert_eq!(r.id, Json::UInt(7));
        assert_eq!(r.method, Method::Pst);
        assert_eq!(r.input, RequestInput::MiniSource("fn f(n) {}".into()));

        let r = Request::parse(r#"{"method": "lint", "unit": "00000000000000ff"}"#).unwrap();
        assert_eq!(r.id, Json::Null);
        assert_eq!(r.input, RequestInput::Unit(0xff));

        let r = Request::parse(r#"{"method": "shutdown"}"#).unwrap();
        assert_eq!(r.input, RequestInput::None);
    }

    #[test]
    fn rejects_malformed_requests_with_typed_codes() {
        let e = Request::parse("not json {").unwrap_err();
        assert_eq!(e.code, ErrorCode::ParseError);
        let e = Request::parse(r#"[1, 2]"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::InvalidRequest);
        let e = Request::parse(r#"{"id": 1}"#).unwrap_err();
        assert_eq!((e.code, &e.id), (ErrorCode::InvalidRequest, &Json::UInt(1)));
        let e = Request::parse(r#"{"id": 1, "method": "frobnicate"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::UnknownMethod);
        let e = Request::parse(r#"{"method": "pst", "source": "a", "unit": "b"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::InvalidRequest);
        let e = Request::parse(r#"{"method": "pst", "unit": "xyz"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::InvalidRequest);
    }

    #[test]
    fn envelopes_round_trip_through_the_json_parser() {
        let ok = ok_response(&Json::UInt(3), Some("abc"), Some(true), 42, Json::Null);
        let parsed = Json::parse(&ok.to_string()).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("cached"), Some(&Json::Bool(true)));
        let err = error_response(&Json::Null, ErrorCode::Panic, "boom");
        let parsed = Json::parse(&err.to_string()).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            parsed.get("error").and_then(|e| e.get("code")),
            Some(&Json::Str("panic".into()))
        );
        let shed = overloaded_response(&Json::UInt(5), "saturated", 40);
        let parsed = Json::parse(&shed.to_string()).unwrap();
        assert_eq!(
            parsed.get("error").and_then(|e| e.get("code")),
            Some(&Json::Str("overloaded".into()))
        );
        assert_eq!(
            parsed.get("error").and_then(|e| e.get("retry_after_ms")),
            Some(&Json::UInt(40))
        );
    }

    #[test]
    fn metrics_and_slowlog_parse_with_an_optional_format() {
        let r = Request::parse(r#"{"id": 4, "method": "metrics", "format": "text"}"#).unwrap();
        assert_eq!(r.method, Method::Metrics);
        assert_eq!(r.format.as_deref(), Some("text"));
        assert_eq!(r.input, RequestInput::None);
        let r = Request::parse(r#"{"method": "slowlog"}"#).unwrap();
        assert_eq!(r.method, Method::Slowlog);
        assert_eq!(r.format, None);
        let e = Request::parse(r#"{"method": "metrics", "format": 3}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::InvalidRequest);
    }

    #[test]
    fn drain_parses_as_an_inputless_method() {
        let r = Request::parse(r#"{"id": 2, "method": "drain"}"#).unwrap();
        assert_eq!(r.method, Method::Drain);
        assert_eq!(r.input, RequestInput::None);
    }
}
