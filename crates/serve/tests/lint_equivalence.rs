//! An edge unit's `lint` reply reuses the unit's canonicalization and
//! its (interned) decisive order dependence instead of recomputing them.
//! Whatever order the methods arrive in, and across a cache-snapshot
//! restart, the reply must equal what `lint_graph` reports for the same
//! input from scratch.

use pst_analysis::{lint_graph, LintConfig};
use pst_cfg::{parse_edge_list_graph, CanonicalizeOptions};
use pst_obs::json::Json;
use pst_serve::{CacheConfig, ServeConfig, SharedSession};

/// Inputs with something for every graph rule to find: a two-entry cycle
/// (DOD pairs, a virtual loop exit), unreachable code and several sinks,
/// and a larger pseudo-random digraph.
fn inputs() -> Vec<String> {
    let mut random = String::new();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    for v in 0..60u64 {
        for _ in 0..1 + next(2) {
            random.push_str(&format!("{v}->{}\n", next(60)));
        }
    }
    vec![
        "0->1\n0->2\n1->2\n2->1\n".to_string(),
        "0->1 1->2 2->1 0->3 3->4 0->5 6->3\n".to_string(),
        random,
    ]
}

fn request(id: u64, method: &str, edges: &str) -> String {
    format!(
        r#"{{"id": {id}, "method": "{method}", "edges": {}}}"#,
        Json::Str(edges.to_string())
    )
}

/// The `result` of a successful reply.
fn result(session: &SharedSession, id: u64, method: &str, edges: &str) -> String {
    let reply = Json::parse(&session.handle_line(&request(id, method, edges)).line)
        .expect("replies are JSON");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{method}: {reply:?}"
    );
    reply
        .get("result")
        .expect("ok replies carry a result")
        .to_string()
}

fn from_scratch(edges: &str) -> String {
    let (graph, entry) = parse_edge_list_graph(edges).expect("inputs parse");
    lint_graph(
        &graph,
        entry,
        &CanonicalizeOptions::default(),
        &LintConfig::new(),
    )
    .expect("inputs canonicalize")
    .report
    .to_json("<edges>")
    .to_string()
}

fn config(snapshot_path: Option<String>) -> ServeConfig {
    ServeConfig {
        snapshot_path,
        snapshot_every: 0,
        cache: CacheConfig::default(),
        ..ServeConfig::default()
    }
}

#[test]
fn lint_before_controldep_matches_lint_graph() {
    for edges in inputs() {
        let session = SharedSession::new(config(None));
        assert_eq!(result(&session, 1, "lint", &edges), from_scratch(&edges));
        result(&session, 2, "controldep", &edges);
    }
}

#[test]
fn lint_after_controldep_matches_lint_graph() {
    for edges in inputs() {
        let session = SharedSession::new(config(None));
        result(&session, 1, "controldep", &edges);
        assert_eq!(result(&session, 2, "lint", &edges), from_scratch(&edges));
    }
}

#[test]
fn lint_after_a_snapshot_restore_matches_lint_graph() {
    let dir = std::env::temp_dir().join(format!("pst-lint-equivalence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cache.snapshot").to_string_lossy().into_owned();
    for edges in inputs() {
        // Only `controldep` is memoized before the restart, so the
        // restored unit computes `lint` afresh.
        let _ = std::fs::remove_file(&path);
        let first = SharedSession::new(config(Some(path.clone())));
        result(&first, 1, "controldep", &edges);
        first.finish();
        let second = SharedSession::new(config(Some(path.clone())));
        assert_eq!(second.restored_units(), 1);
        assert_eq!(result(&second, 2, "lint", &edges), from_scratch(&edges));
        result(&second, 3, "controldep", &edges);
        assert_eq!(result(&second, 4, "lint", &edges), from_scratch(&edges));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
