//! `pst obs` — fleet-level aggregation of telemetry artifacts.
//!
//! Reads any mix of structured-event journals (`--journal` JSONL) and
//! metrics reports (`--metrics-json` output), and renders one merged
//! view: global histograms (exact integer bucket merges), the top-N
//! slowest units across every run, and the journal event stream
//! filtered by `--level` (minimum severity) and `--type` (exact event
//! type).
//!
//! Each input file should describe a *different* run: a run's journal
//! mirrors its per-unit summaries, so feeding both the journal and the
//! metrics JSON of the same run counts its units twice.

use std::collections::BTreeMap;

use pst_obs::journal::{Level, Record};
use pst_obs::json::Json;
use pst_obs::{Histogram, UnitReport};

use crate::{take_value_flag, Failure};

/// Output format for the aggregated view.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable summary (default).
    Text,
    /// One JSON object with the merged state.
    Json,
}

/// Parsed `pst obs` options.
pub struct ObsOptions {
    /// Input artifacts: journals or metrics JSON.
    pub inputs: Vec<String>,
    /// Output format.
    pub format: Format,
    /// Minimum journal level to keep (`info` keeps everything).
    pub level: Level,
    /// Exact event type to keep (e.g. `fuzz_crash`); `None` keeps all.
    pub event_type: Option<String>,
    /// How many of the slowest units to list.
    pub top: usize,
}

impl ObsOptions {
    /// Parses obs-specific flags; every remaining argument is an input.
    pub fn from_args(args: &mut Vec<String>) -> Result<ObsOptions, String> {
        let format = match take_value_flag(args, "--format")?.as_deref() {
            None | Some("text") => Format::Text,
            Some("json") => Format::Json,
            Some(other) => return Err(format!("`--format` expects text|json, got `{other}`")),
        };
        let level = match take_value_flag(args, "--level")? {
            None => Level::Info,
            Some(name) => Level::parse(&name)
                .ok_or_else(|| format!("`--level` expects info|warn|error, got `{name}`"))?,
        };
        let event_type = take_value_flag(args, "--type")?;
        if let Some(t) = &event_type {
            let types = pst_obs::journal::Event::TYPES;
            if !types.contains(&t.as_str()) {
                return Err(format!(
                    "`--type` expects one of {}, got `{t}`",
                    types.join("|")
                ));
            }
        }
        let top = match take_value_flag(args, "--top")? {
            None => 10,
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("`--top` expects a positive integer, got `{v}`"))?,
        };
        if let Some(stray) = args.iter().find(|a| a.starts_with("--")) {
            return Err(format!("unexpected obs flag `{stray}`"));
        }
        let inputs = std::mem::take(args);
        if inputs.is_empty() {
            return Err("obs expects at least one journal or metrics file".to_string());
        }
        Ok(ObsOptions {
            inputs,
            format,
            level,
            event_type,
            top,
        })
    }
}

/// What kind of artifact one input file turned out to be.
#[derive(Clone, Copy, PartialEq, Eq)]
enum InputKind {
    Journal,
    Metrics,
}

impl InputKind {
    fn label(self) -> &'static str {
        match self {
            InputKind::Journal => "journal",
            InputKind::Metrics => "metrics",
        }
    }
}

/// The merged fleet state accumulated over every input.
#[derive(Default)]
struct Fleet {
    /// `(path, kind)` per input, in command-line order.
    files: Vec<(String, InputKind)>,
    /// Distinct trace ids seen across the journals, sorted.
    traces: Vec<String>,
    /// Every journal record, in input order.
    records: Vec<Record>,
    /// Global histograms merged by name (exact bucket addition).
    histograms: BTreeMap<String, Histogram>,
    /// Per-unit sub-reports merged by unit id.
    units: BTreeMap<String, UnitReport>,
}

impl Fleet {
    fn ingest(&mut self, path: &str) -> Result<(), Failure> {
        let text = crate::read_source(path).map_err(Failure::Usage)?;
        let kind = self.classify_and_merge(path, &text)?;
        self.files.push((path.to_string(), kind));
        Ok(())
    }

    fn classify_and_merge(&mut self, path: &str, text: &str) -> Result<InputKind, Failure> {
        let first = text.lines().find(|l| !l.trim().is_empty());
        if first.is_some_and(|l| Record::parse_line(l).is_some()) {
            self.merge_journal(path, text)?;
            return Ok(InputKind::Journal);
        }
        let json = Json::parse(text).map_err(|e| {
            Failure::Analysis(format!(
                "`{path}` is neither a journal nor a JSON document: {e}"
            ))
        })?;
        if json.get("counters").is_some() || json.get("spans").is_some() {
            self.merge_report_json(path, &json)?;
            return Ok(InputKind::Metrics);
        }
        Err(Failure::Analysis(format!(
            "`{path}` is not a journal or a metrics report"
        )))
    }

    fn merge_journal(&mut self, path: &str, text: &str) -> Result<(), Failure> {
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = Record::parse_line(line).ok_or_else(|| {
                Failure::Analysis(format!("`{path}` line {}: not a journal record", i + 1))
            })?;
            if !self.traces.contains(&record.trace) {
                self.traces.push(record.trace.clone());
            }
            // A journaled unit summary mirrors one entry of the run's
            // `Report::units`, so fold it in as a bare sub-report.
            if let pst_obs::journal::Event::UnitSummary { unit, nanos, count } = &record.event {
                self.units
                    .entry(unit.clone())
                    .or_default()
                    .merge_from(&UnitReport {
                        count: *count,
                        nanos: *nanos,
                        ..UnitReport::default()
                    });
            }
            self.records.push(record);
        }
        self.traces.sort();
        Ok(())
    }

    /// Merges the "histograms" and "units" sections of a metrics report.
    /// Reports written by a build without the `obs` feature simply lack
    /// the keys.
    fn merge_report_json(&mut self, path: &str, json: &Json) -> Result<(), Failure> {
        let malformed =
            |what: &str| Failure::Analysis(format!("`{path}`: malformed `{what}` section"));
        if let Some(Json::Obj(hists)) = json.get("histograms") {
            for (name, h) in hists {
                let h = Histogram::from_json(h).ok_or_else(|| malformed("histograms"))?;
                self.histograms
                    .entry(name.clone())
                    .or_default()
                    .merge_from(&h);
            }
        }
        if let Some(Json::Obj(units)) = json.get("units") {
            for (name, u) in units {
                let u = UnitReport::from_json(u).ok_or_else(|| malformed("units"))?;
                self.units.entry(name.clone()).or_default().merge_from(&u);
            }
        }
        Ok(())
    }

    /// Records surviving the `--level` / `--type` filters, in input order.
    fn selected<'a>(&'a self, opts: &'a ObsOptions) -> impl Iterator<Item = &'a Record> {
        self.records.iter().filter(move |r| {
            r.level >= opts.level
                && opts
                    .event_type
                    .as_deref()
                    .is_none_or(|t| r.event.type_str() == t)
        })
    }

    /// Event counts by type over the *selected* records.
    fn counts_by_type(&self, opts: &ObsOptions) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for r in self.selected(opts) {
            *counts.entry(r.event.type_str()).or_insert(0) += 1;
        }
        counts
    }

    /// Units sorted by total attributed wall time, slowest first (name
    /// breaks ties so the ranking is deterministic).
    fn top_units(&self, n: usize) -> Vec<(&String, &UnitReport)> {
        let mut ranked: Vec<_> = self.units.iter().collect();
        ranked.sort_by(|(an, a), (bn, b)| b.nanos.cmp(&a.nanos).then(an.cmp(bn)));
        ranked.truncate(n);
        ranked
    }

    fn render_text(&self, opts: &ObsOptions) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let journals = self
            .files
            .iter()
            .filter(|(_, k)| *k == InputKind::Journal)
            .count();
        let _ = writeln!(
            out,
            "fleet: {} file(s) ({journals} journal(s)), {} trace(s)",
            self.files.len(),
            self.traces.len()
        );
        for (path, kind) in &self.files {
            let _ = writeln!(out, "  [{}] {path}", kind.label());
        }
        let selected: Vec<&Record> = self.selected(opts).collect();
        let _ = writeln!(
            out,
            "events: {} selected of {} (level >= {}{})",
            selected.len(),
            self.records.len(),
            opts.level.as_str(),
            match &opts.event_type {
                Some(t) => format!(", type == {t}"),
                None => String::new(),
            }
        );
        for (ty, n) in self.counts_by_type(opts) {
            let _ = writeln!(out, "  {ty:<14} {n:>6}");
        }
        // The full stream is only interesting once a filter narrows it.
        if opts.level > Level::Info || opts.event_type.is_some() {
            for r in &selected {
                let _ = writeln!(
                    out,
                    "  {}#{:<4} [{:<5}] {:<14} {}",
                    r.trace,
                    r.seq,
                    r.level.as_str(),
                    r.event.type_str(),
                    r.event.data_json()
                );
            }
        }
        if !self.units.is_empty() {
            let _ = writeln!(
                out,
                "top {} unit(s) by total time:",
                opts.top.min(self.units.len())
            );
            for (i, (name, u)) in self.top_units(opts.top).iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  {:>3}. {:<40} {:>10} ({}x)",
                    i + 1,
                    name,
                    pst_obs::fmt_ns(u.nanos),
                    u.count
                );
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "merged histograms:");
            for (name, h) in &self.histograms {
                let _ = writeln!(out, "  {name:<30} {}", h.render_line());
            }
        }
        out
    }

    fn to_json(&self, opts: &ObsOptions) -> Json {
        Json::obj([
            (
                "files",
                Json::Arr(
                    self.files
                        .iter()
                        .map(|(path, kind)| {
                            Json::obj([
                                ("path", Json::Str(path.clone())),
                                ("kind", Json::Str(kind.label().to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "traces",
                Json::Arr(self.traces.iter().map(|t| Json::Str(t.clone())).collect()),
            ),
            (
                "event_counts",
                Json::Obj(
                    self.counts_by_type(opts)
                        .into_iter()
                        .map(|(ty, n)| (ty.to_string(), Json::UInt(n)))
                        .collect(),
                ),
            ),
            (
                "events",
                Json::Arr(self.selected(opts).map(Record::to_json).collect()),
            ),
            (
                "top_units",
                Json::Arr(
                    self.top_units(opts.top)
                        .into_iter()
                        .map(|(name, u)| {
                            Json::obj([
                                ("unit", Json::Str(name.clone())),
                                ("nanos", Json::UInt(u.nanos)),
                                ("count", Json::UInt(u.count)),
                            ])
                        })
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
}

/// Runs `pst obs`: merge every input, then render the fleet view.
pub fn obs_command(opts: &ObsOptions) -> Result<(), Failure> {
    let mut fleet = Fleet::default();
    for path in &opts.inputs {
        fleet.ingest(path)?;
    }
    match opts.format {
        Format::Text => print!("{}", fleet.render_text(opts)),
        Format::Json => println!("{}", fleet.to_json(opts)),
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn journal_line(seq: u64, trace: &str, event: pst_obs::journal::Event) -> String {
        Record {
            seq,
            trace: trace.to_string(),
            level: event.level(),
            event,
        }
        .to_json()
        .to_string()
    }

    #[test]
    fn two_journals_merge_units_and_traces() {
        use pst_obs::journal::Event;
        let a = [
            journal_line(
                0,
                "aaaa",
                Event::RunStart {
                    command: "regions".into(),
                    args: vec![],
                },
            ),
            journal_line(
                1,
                "aaaa",
                Event::UnitSummary {
                    unit: "f".into(),
                    nanos: 100,
                    count: 1,
                },
            ),
            journal_line(
                2,
                "aaaa",
                Event::RunEnd {
                    command: "regions".into(),
                    exit_code: 0,
                    nanos: 200,
                },
            ),
        ]
        .join("\n");
        let b = [
            journal_line(
                0,
                "bbbb",
                Event::UnitSummary {
                    unit: "f".into(),
                    nanos: 50,
                    count: 2,
                },
            ),
            journal_line(
                1,
                "bbbb",
                Event::UnitSummary {
                    unit: "g".into(),
                    nanos: 500,
                    count: 1,
                },
            ),
        ]
        .join("\n");
        let mut fleet = Fleet::default();
        fleet.classify_and_merge("a.jsonl", &a).unwrap();
        fleet.classify_and_merge("b.jsonl", &b).unwrap();
        assert_eq!(fleet.traces, vec!["aaaa".to_string(), "bbbb".to_string()]);
        assert_eq!(fleet.records.len(), 5);
        let ranked = fleet.top_units(10);
        assert_eq!(ranked[0].0, "g");
        assert_eq!(
            (ranked[1].0.as_str(), ranked[1].1.nanos, ranked[1].1.count),
            ("f", 150, 3)
        );
    }

    #[test]
    fn level_and_type_filters_select_events() {
        use pst_obs::journal::Event;
        let text = [
            journal_line(
                0,
                "t",
                Event::RunStart {
                    command: "lint".into(),
                    args: vec![],
                },
            ),
            journal_line(
                1,
                "t",
                Event::LintFinding {
                    unit: "u".into(),
                    rule: "PST-S001".into(),
                    severity: "warning".into(),
                    message: "m".into(),
                },
            ),
            journal_line(
                2,
                "t",
                Event::FuzzCrash {
                    seed: 7,
                    kind: "panic".into(),
                    detail: "boom".into(),
                    reproducer: None,
                },
            ),
        ]
        .join("\n");
        let mut fleet = Fleet::default();
        fleet.classify_and_merge("j", &text).unwrap();
        let mut opts = ObsOptions {
            inputs: vec![],
            format: Format::Text,
            level: Level::Warn,
            event_type: None,
            top: 10,
        };
        let kinds: Vec<_> = fleet.selected(&opts).map(|r| r.event.type_str()).collect();
        assert_eq!(kinds, vec!["lint_finding", "fuzz_crash"]);
        opts.event_type = Some("fuzz_crash".to_string());
        assert_eq!(fleet.selected(&opts).count(), 1);
    }

    #[test]
    fn metrics_reports_contribute_histograms_and_units() {
        let mut h = Histogram::new();
        h.record_n(10, 4);
        let metrics = Json::obj([
            ("spans", Json::Arr(vec![])),
            ("counters", Json::obj([("c", Json::UInt(3u64))])),
            ("gauges", Json::Obj(vec![])),
            ("histograms", Json::obj([("lat", h.to_json())])),
            (
                "units",
                Json::obj([(
                    "f",
                    UnitReport {
                        count: 1,
                        nanos: 42,
                        ..UnitReport::default()
                    }
                    .to_json(),
                )]),
            ),
        ])
        .to_string();
        let mut fleet = Fleet::default();
        let kind = fleet.classify_and_merge("m.json", &metrics).unwrap();
        assert!(kind == InputKind::Metrics);
        // Same file merged twice doubles the histogram exactly.
        fleet.classify_and_merge("m.json", &metrics).unwrap();
        assert_eq!(fleet.histograms["lat"].count(), 8);
        assert_eq!(fleet.units["f"].nanos, 84);
    }
}
