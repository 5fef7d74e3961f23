//! Crash-safe session-cache snapshots (`--cache-snapshot <path>`).
//!
//! A snapshot is NDJSON with a fixed frame:
//!
//! ```text
//! {"pst_snapshot": 1, "entries": N}          header (version + count)
//! {"kind": "mini", "source": "...", "results": {"pst": ..., ...}}
//! ...                                        N entry lines, LRU-first
//! {"checksum": "0123456789abcdef"}           splitmix64 over the payload
//! ```
//!
//! Entries carry the registered *source text* plus the memoized
//! per-method result JSON — not the parsed artifacts. Restoring replays
//! each entry through the normal registration path, so a snapshot can
//! never smuggle in artifacts the current binary wouldn't compute; the
//! memos are what make the first post-restart repeat query answer
//! `cached: true`. Entries are ordered least-recently-used first so the
//! restored cache has today's eviction order.
//!
//! Writes are crash-only: the whole file is rendered, written to a
//! `<path>.tmp.<suffix>` sibling, then atomically renamed over `<path>`.
//! A crash mid-write leaves the previous snapshot intact. Loading treats
//! *any* defect — missing file, bad header, version skew, truncation,
//! checksum mismatch, malformed entry — as "start cold": the daemon
//! logs the reason, counts `serve_snapshot_load_failed`, and serves with
//! an empty cache. A snapshot is an optimization, never a dependency.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use pst_obs::json::Json;

use crate::hash::{content_hash, unit_hex};
use crate::session::{ExportedUnit, KIND_EDGES, KIND_MINI};

/// Snapshot format version; bump on any incompatible frame change.
/// Loaders refuse other versions (cold start), never reinterpret.
pub(crate) const SNAPSHOT_VERSION: u64 = 1;

/// Domain tag for the payload checksum (distinct from unit hashing).
const KIND_CHECKSUM: u64 = 0xC0DE;

/// One restorable cache entry.
#[derive(Debug)]
pub(crate) struct SnapshotEntry {
    /// Unit kind tag ([`KIND_MINI`] / [`KIND_EDGES`]).
    pub kind: u64,
    /// The registered input text, verbatim.
    pub source: String,
    /// Memoized `(method name, result)` pairs.
    pub results: Vec<(String, Json)>,
}

/// Why a snapshot failed to load. Every variant means "start cold".
#[derive(Debug)]
pub(crate) enum SnapshotError {
    /// The file does not exist (a normal first boot).
    Missing,
    /// The file could not be read.
    Io(io::Error),
    /// The frame is structurally wrong (header, counts, checksum,
    /// entry shape, version skew).
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Missing => write!(f, "no snapshot file (cold start)"),
            SnapshotError::Io(e) => write!(f, "snapshot unreadable: {e}"),
            SnapshotError::Malformed(why) => write!(f, "snapshot rejected: {why}"),
        }
    }
}

fn kind_name(kind: u64) -> Option<&'static str> {
    match kind {
        KIND_MINI => Some("mini"),
        KIND_EDGES => Some("edges"),
        _ => None,
    }
}

fn kind_tag(name: &str) -> Option<u64> {
    match name {
        "mini" => Some(KIND_MINI),
        "edges" => Some(KIND_EDGES),
        _ => None,
    }
}

/// Renders the full snapshot file (header, entries, checksum trailer).
fn render(entries: &[ExportedUnit]) -> String {
    let mut lines: Vec<String> = Vec::with_capacity(entries.len() + 2);
    let mut persisted = 0u64;
    let mut body = Vec::with_capacity(entries.len());
    for (kind, source, results) in entries {
        let Some(kind) = kind_name(*kind) else {
            continue; // unknown kinds are dropped, not mis-tagged
        };
        persisted += 1;
        body.push(
            Json::obj([
                ("kind", Json::Str(kind.to_string())),
                ("source", Json::Str(source.clone())),
                (
                    "results",
                    Json::obj(results.iter().map(|(m, r)| (*m, r.clone()))),
                ),
            ])
            .to_string(),
        );
    }
    lines.push(
        Json::obj([
            ("pst_snapshot", Json::UInt(SNAPSHOT_VERSION)),
            ("entries", Json::UInt(persisted)),
        ])
        .to_string(),
    );
    lines.extend(body);
    let payload = lines.join("\n");
    let checksum = unit_hex(content_hash(KIND_CHECKSUM, payload.as_bytes()));
    lines.push(Json::obj([("checksum", Json::Str(checksum))]).to_string());
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

/// Writes a snapshot atomically: render, write `<path>.tmp.<suffix>`,
/// rename over `<path>`. `corrupt` truncates the rendered payload first
/// (the `corrupt-snapshot` chaos fault — proves the *loader's* cold-start
/// tolerance, which is why corruption happens before the atomic rename:
/// the damaged file is what the next boot sees).
pub(crate) fn save(
    path: &str,
    suffix: u64,
    entries: &[ExportedUnit],
    corrupt: bool,
) -> io::Result<()> {
    let mut text = render(entries);
    if corrupt {
        text.truncate(text.len() * 2 / 3);
    }
    let tmp = format!("{path}.tmp.{suffix}");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    let renamed = fs::rename(&tmp, path);
    if renamed.is_err() {
        let _ = fs::remove_file(&tmp); // never leave tmp litter behind
    }
    renamed
}

/// Loads and validates a snapshot. Any defect is an error; the caller
/// starts cold.
pub(crate) fn load(path: &str) -> Result<Vec<SnapshotEntry>, SnapshotError> {
    if !Path::new(path).exists() {
        return Err(SnapshotError::Missing);
    }
    let text = fs::read_to_string(path).map_err(SnapshotError::Io)?;
    let malformed = |why: String| SnapshotError::Malformed(why);
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| malformed("empty file".to_string()))?;
    let header =
        Json::parse(header_line).map_err(|e| malformed(format!("header is not JSON: {e}")))?;
    let version = header
        .get("pst_snapshot")
        .and_then(Json::as_u64)
        .ok_or_else(|| malformed("header lacks a pst_snapshot version".to_string()))?;
    if version != SNAPSHOT_VERSION {
        return Err(malformed(format!(
            "version {version} (this build reads {SNAPSHOT_VERSION})"
        )));
    }
    let count = header
        .get("entries")
        .and_then(Json::as_u64)
        .ok_or_else(|| malformed("header lacks an entry count".to_string()))?;

    let mut entries = Vec::with_capacity(count as usize);
    let mut payload_lines = vec![header_line.to_string()];
    for i in 0..count {
        let line = lines
            .next()
            .ok_or_else(|| malformed(format!("truncated: {i} of {count} entries present")))?;
        payload_lines.push(line.to_string());
        let entry =
            Json::parse(line).map_err(|e| malformed(format!("entry {i} is not JSON: {e}")))?;
        let kind = match entry.get("kind") {
            Some(Json::Str(name)) => kind_tag(name)
                .ok_or_else(|| malformed(format!("entry {i} has unknown kind `{name}`")))?,
            _ => return Err(malformed(format!("entry {i} lacks a kind"))),
        };
        let source = match entry.get("source") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err(malformed(format!("entry {i} lacks a source"))),
        };
        let results = match entry.get("results") {
            Some(Json::Obj(fields)) => fields.clone(),
            None => Vec::new(),
            _ => return Err(malformed(format!("entry {i} has non-object results"))),
        };
        entries.push(SnapshotEntry {
            kind,
            source,
            results,
        });
    }

    let trailer_line = lines
        .next()
        .ok_or_else(|| malformed("truncated: missing checksum trailer".to_string()))?;
    if lines.next().is_some() {
        return Err(malformed("trailing data after the checksum".to_string()));
    }
    let trailer =
        Json::parse(trailer_line).map_err(|e| malformed(format!("trailer is not JSON: {e}")))?;
    let stated = match trailer.get("checksum") {
        Some(Json::Str(s)) => s.clone(),
        _ => return Err(malformed("trailer lacks a checksum".to_string())),
    };
    let payload = payload_lines.join("\n");
    let actual = unit_hex(content_hash(KIND_CHECKSUM, payload.as_bytes()));
    if stated != actual {
        return Err(malformed(format!(
            "checksum mismatch (file says {stated}, payload hashes to {actual})"
        )));
    }
    Ok(entries)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("pst-snap-{}-{name}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join("cache.snapshot").to_string_lossy().into_owned()
    }

    fn sample() -> Vec<ExportedUnit> {
        vec![
            (
                KIND_MINI,
                "fn f(n) { return n; }".to_string(),
                vec![("pst", Json::obj([("ok", Json::Bool(true))]))],
            ),
            (KIND_EDGES, "0->1\n".to_string(), vec![]),
        ]
    }

    #[test]
    fn round_trips_entries_in_order() {
        let path = temp_path("roundtrip");
        save(&path, 0, &sample(), false).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].kind, KIND_MINI);
        assert_eq!(loaded[0].source, "fn f(n) { return n; }");
        assert_eq!(loaded[0].results.len(), 1);
        assert_eq!(loaded[0].results[0].0, "pst");
        assert_eq!(loaded[1].kind, KIND_EDGES);
        assert!(loaded[1].results.is_empty());
    }

    #[test]
    fn missing_truncated_and_corrupt_files_are_typed_errors() {
        let path = temp_path("defects");
        assert!(matches!(load(&path), Err(SnapshotError::Missing)));

        save(&path, 0, &sample(), false).unwrap();
        let good = fs::read_to_string(&path).unwrap();

        // Truncation (what the corrupt-snapshot chaos fault produces).
        fs::write(&path, &good[..good.len() * 2 / 3]).unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::Malformed(_))));

        // Payload tampering fails the checksum.
        fs::write(&path, good.replace("0->1", "0->2")).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Version skew is refused, not reinterpreted.
        fs::write(
            &path,
            good.replace("\"pst_snapshot\":1", "\"pst_snapshot\":99"),
        )
        .unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn corrupt_flag_produces_an_unloadable_file() {
        let path = temp_path("chaos");
        save(&path, 7, &sample(), true).unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::Malformed(_))));
    }
}
