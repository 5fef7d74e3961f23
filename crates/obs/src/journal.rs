//! An append-only structured event journal.
//!
//! The metrics report answers "what did this run measure"; the journal
//! answers "what *happened*, across runs": a durable, append-only JSONL
//! stream of typed events — run start/end, per-unit summaries, lint
//! findings, fuzz crashes, serve slowlog entries — that `pst obs` can
//! merge across many runs into one fleet view.
//!
//! Each line is one [`Record`]: a monotonic sequence offset (`seq`), a
//! run-scoped trace id (deterministic when the run was seeded via
//! `PST_TRACE_SEED`, time-derived otherwise), a [`Level`], the event
//! type tag, and the event payload. The schema round-trips exactly —
//! [`Record::to_json`] → [`Record::from_json`] is the identity — which
//! `tests/journal.rs` proptests over every event type.
//!
//! Unlike spans/counters (gated on the `enabled` feature because they
//! sit on hot paths), the journal is always compiled: it does I/O only
//! when [`install`]ed, and every write is one locked append. CLI
//! consumers install it from `--journal <path>` / `PST_JOURNAL`, where
//! `-` means stderr — the same convention as `--metrics-json`.

use std::io::Write as _;
use std::sync::Mutex;

use crate::json::Json;

/// Event severity, ordered so journals can be filtered with `>=`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Routine lifecycle events (run start/end, unit summaries).
    Info,
    /// Findings worth review (lint findings, gate regressions).
    Warn,
    /// Failures (fuzz crashes, violated invariants).
    Error,
}

impl Level {
    /// The wire name (`info` / `warn` / `error`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a wire name back into a level.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// A typed journal event. Every variant carries only plain data so the
/// JSONL schema stays flat and greppable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A subcommand started.
    RunStart {
        /// The subcommand (`regions`, `lint`, `fuzz`, `serve`,
        /// `experiments`, ...).
        command: String,
        /// Arguments after the subcommand, as given.
        args: Vec<String>,
    },
    /// A subcommand finished (emitted even on failure exits).
    RunEnd {
        /// The subcommand that started this run.
        command: String,
        /// The process exit code the run resolved to.
        exit_code: u64,
        /// Wall time from `run_start` to this event, in nanoseconds.
        nanos: u64,
    },
    /// One unit's wall-time summary, mirrored from [`crate::Report::units`]
    /// so journal-derived rankings agree with the metrics JSON.
    UnitSummary {
        /// The unit id (e.g. `file.mini#fn`, `seed:42`, a workload name).
        unit: String,
        /// Total wall-time inside the unit's scopes, nanoseconds.
        nanos: u64,
        /// How many times the unit's scope was entered.
        count: u64,
    },
    /// One lint diagnostic.
    LintFinding {
        /// The unit the finding is about.
        unit: String,
        /// Rule id (`PST-S001`, ...).
        rule: String,
        /// Severity string as the lint engine reports it.
        severity: String,
        /// Human-readable message.
        message: String,
    },
    /// A fuzz case failed — a checker violation or a contained panic.
    FuzzCrash {
        /// The failing seed.
        seed: u64,
        /// `violation` or `panic`.
        kind: String,
        /// The violation/panic message.
        detail: String,
        /// Path of the minimized reproducer, when one was written.
        reproducer: Option<String>,
    },
    /// One `pst serve` request that crossed the daemon's slowlog
    /// threshold (`--slowlog-ms`), with its phase attribution so fleet
    /// views can tell a slow compute from a slow fault injection.
    SlowRequest {
        /// The RPC method (`pst`, `controldep`, ...).
        method: String,
        /// The unit the request resolved to, when it got that far.
        unit: Option<String>,
        /// End-to-end request wall time, nanoseconds.
        total_nanos: u64,
        /// Nanoseconds spent in the analysis compute phase.
        compute_nanos: u64,
    },
}

impl Event {
    /// Every wire tag [`Event::type_str`] can return, in declaration order.
    pub const TYPES: [&'static str; 6] = [
        "run_start",
        "run_end",
        "unit_summary",
        "lint_finding",
        "fuzz_crash",
        "slow_request",
    ];

    /// The wire tag stored in the `type` field.
    pub fn type_str(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::RunEnd { .. } => "run_end",
            Event::UnitSummary { .. } => "unit_summary",
            Event::LintFinding { .. } => "lint_finding",
            Event::FuzzCrash { .. } => "fuzz_crash",
            Event::SlowRequest { .. } => "slow_request",
        }
    }

    /// The default severity this event is journaled at.
    pub fn level(&self) -> Level {
        match self {
            Event::RunStart { .. } | Event::RunEnd { .. } | Event::UnitSummary { .. } => {
                Level::Info
            }
            Event::LintFinding { .. } | Event::SlowRequest { .. } => Level::Warn,
            Event::FuzzCrash { .. } => Level::Error,
        }
    }

    /// The variant's payload as the JSON object stored under `data`.
    pub fn data_json(&self) -> Json {
        match self {
            Event::RunStart { command, args } => Json::obj([
                ("command", Json::Str(command.clone())),
                (
                    "args",
                    Json::Arr(args.iter().map(|a| Json::Str(a.clone())).collect()),
                ),
            ]),
            Event::RunEnd {
                command,
                exit_code,
                nanos,
            } => Json::obj([
                ("command", Json::Str(command.clone())),
                ("exit_code", Json::UInt(*exit_code)),
                ("nanos", Json::UInt(*nanos)),
            ]),
            Event::UnitSummary { unit, nanos, count } => Json::obj([
                ("unit", Json::Str(unit.clone())),
                ("nanos", Json::UInt(*nanos)),
                ("count", Json::UInt(*count)),
            ]),
            Event::LintFinding {
                unit,
                rule,
                severity,
                message,
            } => Json::obj([
                ("unit", Json::Str(unit.clone())),
                ("rule", Json::Str(rule.clone())),
                ("severity", Json::Str(severity.clone())),
                ("message", Json::Str(message.clone())),
            ]),
            Event::FuzzCrash {
                seed,
                kind,
                detail,
                reproducer,
            } => Json::obj([
                ("seed", Json::UInt(*seed)),
                ("kind", Json::Str(kind.clone())),
                ("detail", Json::Str(detail.clone())),
                (
                    "reproducer",
                    match reproducer {
                        Some(p) => Json::Str(p.clone()),
                        None => Json::Null,
                    },
                ),
            ]),
            Event::SlowRequest {
                method,
                unit,
                total_nanos,
                compute_nanos,
            } => Json::obj([
                ("method", Json::Str(method.clone())),
                (
                    "unit",
                    match unit {
                        Some(u) => Json::Str(u.clone()),
                        None => Json::Null,
                    },
                ),
                ("total_nanos", Json::UInt(*total_nanos)),
                ("compute_nanos", Json::UInt(*compute_nanos)),
            ]),
        }
    }

    fn from_parts(tag: &str, data: &Json) -> Option<Event> {
        fn s(j: &Json, key: &str) -> Option<String> {
            match j.get(key)? {
                Json::Str(v) => Some(v.clone()),
                _ => None,
            }
        }
        match tag {
            "run_start" => {
                let Json::Arr(items) = data.get("args")? else {
                    return None;
                };
                let mut args = Vec::with_capacity(items.len());
                for item in items {
                    let Json::Str(a) = item else { return None };
                    args.push(a.clone());
                }
                Some(Event::RunStart {
                    command: s(data, "command")?,
                    args,
                })
            }
            "run_end" => Some(Event::RunEnd {
                command: s(data, "command")?,
                exit_code: data.get("exit_code")?.as_u64()?,
                nanos: data.get("nanos")?.as_u64()?,
            }),
            "unit_summary" => Some(Event::UnitSummary {
                unit: s(data, "unit")?,
                nanos: data.get("nanos")?.as_u64()?,
                count: data.get("count")?.as_u64()?,
            }),
            "lint_finding" => Some(Event::LintFinding {
                unit: s(data, "unit")?,
                rule: s(data, "rule")?,
                severity: s(data, "severity")?,
                message: s(data, "message")?,
            }),
            "fuzz_crash" => Some(Event::FuzzCrash {
                seed: data.get("seed")?.as_u64()?,
                kind: s(data, "kind")?,
                detail: s(data, "detail")?,
                reproducer: match data.get("reproducer")? {
                    Json::Null => None,
                    Json::Str(p) => Some(p.clone()),
                    _ => return None,
                },
            }),
            "slow_request" => Some(Event::SlowRequest {
                method: s(data, "method")?,
                unit: match data.get("unit")? {
                    Json::Null => None,
                    Json::Str(u) => Some(u.clone()),
                    _ => return None,
                },
                total_nanos: data.get("total_nanos")?.as_u64()?,
                compute_nanos: data.get("compute_nanos")?.as_u64()?,
            }),
            _ => None,
        }
    }
}

/// One journal line: a sequenced, trace-stamped, levelled [`Event`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Monotonic offset within the journal (0-based).
    pub seq: u64,
    /// 16-hex-digit run trace id; all records of one run share it.
    pub trace: String,
    /// Severity.
    pub level: Level,
    /// The event payload.
    pub event: Event,
}

impl Record {
    /// Serializes the record as one JSON object. Schema:
    ///
    /// ```json
    /// {"seq": 0, "trace": "9b60933458e17dc1", "level": "info",
    ///  "type": "run_start", "data": {"command": "regions", "args": []}}
    /// ```
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::UInt(self.seq)),
            ("trace", Json::Str(self.trace.clone())),
            ("level", Json::Str(self.level.as_str().to_string())),
            ("type", Json::Str(self.event.type_str().to_string())),
            ("data", self.event.data_json()),
        ])
    }

    /// Reads a record back from [`Record::to_json`] output. Returns
    /// `None` on any schema mismatch (unknown type tag, wrong field
    /// shapes).
    pub fn from_json(j: &Json) -> Option<Record> {
        let seq = j.get("seq")?.as_u64()?;
        let Json::Str(trace) = j.get("trace")? else {
            return None;
        };
        let Json::Str(level) = j.get("level")? else {
            return None;
        };
        let Json::Str(tag) = j.get("type")? else {
            return None;
        };
        Some(Record {
            seq,
            trace: trace.clone(),
            level: Level::parse(level)?,
            event: Event::from_parts(tag, j.get("data")?)?,
        })
    }

    /// Parses one JSONL line into a record.
    pub fn parse_line(line: &str) -> Option<Record> {
        Record::from_json(&Json::parse(line.trim()).ok()?)
    }
}

/// The installed sink. `None` until [`install`] succeeds; every write
/// holds the lock for one line append (the journal is nowhere near a
/// hot path — events are per-run, per-unit, per-finding).
struct Sink {
    out: Box<dyn std::io::Write + Send>,
    trace: String,
    seq: u64,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// SplitMix64 step — enough mixing to turn a small seed or a timestamp
/// into a well-spread 64-bit trace id.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mints the run trace id: deterministic from `seed` when given (so
/// seeded runs journal reproducibly), otherwise derived from wall-clock
/// nanoseconds.
pub fn mint_trace_id(seed: Option<u64>) -> String {
    let raw = match seed {
        Some(s) => s,
        None => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0),
    };
    format!("{:016x}", splitmix64(raw))
}

/// Opens the journal sink. `target` is a file path opened in append
/// mode, or `-` for stderr (the `--metrics-json` convention). `seed`
/// makes the trace id deterministic (CLI: `PST_TRACE_SEED`).
/// Reinstalling replaces the sink and restarts `seq` at 0.
pub fn install(target: &str, seed: Option<u64>) -> std::io::Result<()> {
    let out: Box<dyn std::io::Write + Send> = if target == "-" {
        Box::new(std::io::stderr())
    } else {
        Box::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(target)?,
        )
    };
    let sink = Sink {
        out,
        trace: mint_trace_id(seed),
        seq: 0,
    };
    *lock_sink() = Some(sink);
    Ok(())
}

/// Whether a journal sink is installed.
pub fn installed() -> bool {
    lock_sink().is_some()
}

/// The current run's trace id, if a sink is installed.
pub fn trace_id() -> Option<String> {
    lock_sink().as_ref().map(|s| s.trace.clone())
}

/// Flushes the installed sink without removing it. No-op when no sink
/// is installed. Long-lived processes (the serve daemon's drain path)
/// call this at lifecycle edges; per-event writes already flush
/// line-by-line, so this exists to force out any buffering an exotic
/// sink might add.
pub fn flush() {
    if let Some(sink) = lock_sink().as_mut() {
        let _ = sink.out.flush();
    }
}

/// Removes the sink (tests; also flushes). Subsequent [`emit`]s no-op.
pub fn uninstall() {
    if let Some(mut sink) = lock_sink().take() {
        let _ = sink.out.flush();
    }
}

fn lock_sink() -> std::sync::MutexGuard<'static, Option<Sink>> {
    SINK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Appends one event at its default severity. No-op when no sink is
/// installed. Returns the record's sequence offset when written.
pub fn emit(event: Event) -> Option<u64> {
    let level = event.level();
    emit_at(level, event)
}

/// Appends one event at an explicit severity. No-op when no sink is
/// installed; write errors are swallowed (telemetry must never take
/// down the pipeline it observes).
pub fn emit_at(level: Level, event: Event) -> Option<u64> {
    let mut guard = lock_sink();
    let sink = guard.as_mut()?;
    let record = Record {
        seq: sink.seq,
        trace: sink.trace.clone(),
        level,
        event,
    };
    sink.seq += 1;
    let line = record.to_json().to_string();
    let _ = writeln!(sink.out, "{line}");
    let _ = sink.out.flush();
    Some(record.seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_is_deterministic_when_seeded() {
        assert_eq!(mint_trace_id(Some(7)), mint_trace_id(Some(7)));
        assert_ne!(mint_trace_id(Some(7)), mint_trace_id(Some(8)));
        assert_eq!(mint_trace_id(Some(7)).len(), 16);
    }

    #[test]
    fn types_lists_every_variant_tag_in_order() {
        let s = || String::new();
        let one_of_each = [
            Event::RunStart {
                command: s(),
                args: vec![],
            },
            Event::RunEnd {
                command: s(),
                exit_code: 0,
                nanos: 0,
            },
            Event::UnitSummary {
                unit: s(),
                nanos: 0,
                count: 0,
            },
            Event::LintFinding {
                unit: s(),
                rule: s(),
                severity: s(),
                message: s(),
            },
            Event::FuzzCrash {
                seed: 0,
                kind: s(),
                detail: s(),
                reproducer: None,
            },
            Event::SlowRequest {
                method: s(),
                unit: None,
                total_nanos: 0,
                compute_nanos: 0,
            },
        ];
        let tags: Vec<_> = one_of_each.iter().map(Event::type_str).collect();
        assert_eq!(tags, Event::TYPES);
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let record = Record {
            seq: 3,
            trace: mint_trace_id(Some(42)),
            level: Level::Error,
            event: Event::FuzzCrash {
                seed: 9,
                kind: "panic".into(),
                detail: "index out of bounds: \"quoted\"".into(),
                reproducer: Some("/tmp/repro.edges".into()),
            },
        };
        let line = record.to_json().to_string();
        assert_eq!(Record::parse_line(&line), Some(record));
        assert_eq!(Record::parse_line("not json"), None);
        assert_eq!(Record::parse_line("{\"seq\": 1}"), None);
    }

    #[test]
    fn emit_is_a_noop_without_a_sink_and_sequences_with_one() {
        uninstall();
        assert_eq!(
            emit(Event::UnitSummary {
                unit: "u".into(),
                nanos: 1,
                count: 1
            }),
            None
        );
        let dir = std::env::temp_dir().join(format!("pst-journal-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("j.jsonl");
        let _ = std::fs::remove_file(&path);
        install(path.to_str().unwrap(), Some(1)).unwrap();
        let first = emit(Event::RunStart {
            command: "test".into(),
            args: vec!["a".into()],
        });
        let second = emit_at(
            Level::Warn,
            Event::RunEnd {
                command: "test".into(),
                exit_code: 0,
                nanos: 5,
            },
        );
        uninstall();
        assert_eq!((first, second), (Some(0), Some(1)));
        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<Record> = text
            .lines()
            .map(|l| Record::parse_line(l).unwrap())
            .collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[0].event.type_str(), "run_start");
        assert_eq!(records[1].level, Level::Warn);
        assert_eq!(records[0].trace, records[1].trace);
        let _ = std::fs::remove_file(&path);
    }
}
