//! Contained request panics never take over the process's panic hook.
//! The hook is process-wide, so this is a test binary of its own.

#![cfg(feature = "fault-inject")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use pst_obs::json::Json;
use pst_serve::hash::parse_unit_hex;
use pst_serve::{ServeConfig, SharedSession};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

/// Sends a `pst` request for `source` with the extra `fields`, and
/// returns the string at `path` in the reply.
fn ask(shared: &SharedSession, source: &str, fields: &str, path: &[&str]) -> Option<String> {
    let line = format!(r#"{{"id": 1, "method": "pst", "source": "{source}"{fields}}}"#);
    let reply = Json::parse(&shared.handle_line(&line).line).expect("replies are JSON");
    match path.iter().try_fold(&reply, |j, key| j.get(key))? {
        Json::Str(s) => Some(s.clone()),
        _ => None,
    }
}

#[test]
fn concurrent_contained_panics_leave_the_process_hook_in_place() {
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    let shared = SharedSession::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    // One source per shard (a unit routes to shard `id % 2`), long
    // enough that registering it again after each panic evicts it keeps
    // both requests inside containment at once.
    let body = "s = s + n; ".repeat(500);
    let mut sources: [Option<String>; 2] = [None, None];
    for i in 0.. {
        let source = format!("fn f{i}(n) {{ s = 0; {body}return s; }}");
        let unit = ask(&shared, &source, "", &["unit"]).expect("a unit id");
        let shard = parse_unit_hex(&unit).expect("16 hex digits") % 2;
        sources[shard as usize].get_or_insert(source);
        if sources.iter().all(Option::is_some) {
            break;
        }
    }

    // Both shards panic at once, round after round.
    let start = Barrier::new(2);
    for _ in 0..100 {
        std::thread::scope(|scope| {
            for source in sources.iter().flatten() {
                let (shared, start) = (&shared, &start);
                scope.spawn(move || {
                    start.wait();
                    let code = ask(shared, source, r#", "inject": "panic""#, &["error", "code"]);
                    assert_eq!(code.as_deref(), Some("panic"));
                });
            }
        });
    }
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        0,
        "contained panics are silent"
    );

    assert!(std::panic::catch_unwind(|| panic!("outside any request")).is_err());
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        1,
        "an outside panic reaches the hook"
    );
}
