//! Journal schema contracts, proptested: every event type serializes →
//! parses → re-serializes identically, across arbitrary strings
//! (including quotes, backslashes, and non-ASCII that exercise the JSON
//! escaper), levels, and sequence offsets.

use proptest::collection::vec;
use proptest::prelude::*;
use pst_obs::journal::{Event, Level, Record};
use pst_obs::json::Json;

/// Strings that stress the emitter: escapes, unicode, emptiness.
fn string_strategy() -> impl Strategy<Value = String> {
    vec(
        proptest::sample::select(vec![
            "a",
            "B",
            "0",
            "_",
            "-",
            " ",
            "\"",
            "\\",
            "\n",
            "\t",
            "/",
            "µ",
            "⊕",
            "seed:",
            "examples/fig1.mini#f",
            "PST-S001",
        ]),
        0..8,
    )
    .prop_map(|parts| parts.concat())
}

fn level_strategy() -> impl Strategy<Value = Level> {
    proptest::sample::select(vec![Level::Info, Level::Warn, Level::Error])
}

fn event_strategy() -> impl Strategy<Value = Event> {
    let s = string_strategy;
    prop_oneof![
        (s(), vec(s(), 0..5)).prop_map(|(command, args)| Event::RunStart { command, args }),
        (s(), 0u64..300, 0u64..u64::MAX).prop_map(|(command, exit_code, nanos)| {
            Event::RunEnd {
                command,
                exit_code,
                nanos,
            }
        }),
        (s(), 0u64..u64::MAX, 0u64..1_000_000)
            .prop_map(|(unit, nanos, count)| { Event::UnitSummary { unit, nanos, count } }),
        (s(), s(), s(), s()).prop_map(|(unit, rule, severity, message)| Event::LintFinding {
            unit,
            rule,
            severity,
            message,
        }),
        (0u64..u64::MAX, s(), s(), proptest::option::of(s())).prop_map(
            |(seed, kind, detail, reproducer)| Event::FuzzCrash {
                seed,
                kind,
                detail,
                reproducer,
            }
        ),
        (
            s(),
            proptest::option::of(s()),
            0u64..u64::MAX,
            0u64..u64::MAX
        )
            .prop_map(
                |(method, unit, total_nanos, compute_nanos)| Event::SlowRequest {
                    method,
                    unit,
                    total_nanos,
                    compute_nanos,
                }
            ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    #[test]
    fn every_event_type_round_trips_identically(
        seq in 0u64..u64::MAX,
        level in level_strategy(),
        event in event_strategy(),
    ) {
        let record = Record {
            seq,
            trace: pst_obs::journal::mint_trace_id(Some(seq)),
            level,
            event,
        };
        // serialize → parse → re-serialize must be byte-identical.
        let line = record.to_json().to_string();
        let reparsed = Record::parse_line(&line);
        prop_assert_eq!(reparsed.as_ref(), Some(&record));
        prop_assert_eq!(reparsed.unwrap().to_json().to_string(), line);
        // And the JSON itself is valid for third-party consumers.
        prop_assert!(Json::parse(&line).is_ok());
        // Filters such as `pst obs --type` accept exactly these tags.
        prop_assert!(Event::TYPES.contains(&record.event.type_str()));
    }
}

#[test]
fn unknown_type_tags_and_missing_fields_are_rejected() {
    let good = Record {
        seq: 0,
        trace: "0".repeat(16),
        level: Level::Info,
        event: Event::UnitSummary {
            unit: "u".into(),
            nanos: 1,
            count: 1,
        },
    };
    let line = good.to_json().to_string();
    assert!(Record::parse_line(&line).is_some());
    assert!(Record::parse_line(&line.replace("unit_summary", "mystery_event")).is_none());
    assert!(
        Record::parse_line(&line.replace("\"level\":\"info\"", "\"level\":\"loud\"")).is_none()
    );
}
