//! The request path does work linear in the request and writes each
//! reply once. A megabyte of request or snapshot JSON parses in
//! milliseconds (a scan that re-validated the rest of the document per
//! char took seconds), and sequential round trips over TCP from a plain
//! client never wait out a delayed ACK (a reply written as line, then
//! newline, cost ≈40 ms each). An edge list naming a huge node number
//! is an error reply, not an allocation that aborts the daemon.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use pst_obs::json::Json;
use pst_serve::{serve_listener, ServeConfig, Session, SharedSession};

/// The bound on a megabyte request or snapshot line, generous for a
/// debug build on a loaded machine.
const MEGABYTE_BOUND: Duration = Duration::from_secs(2);

/// A mini-language unit of just over 1 MiB: one small function under
/// comment lines that need every kind of JSON escape.
fn megabyte_source() -> String {
    let line = "// say \"hi\" \\ then\ttab, é and \u{1F600}, control \u{1} done\n";
    let mut source = line.repeat((1 << 20) / line.len() + 1);
    source.push_str("fn big(n) { s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }\n");
    assert!(source.len() > 1 << 20);
    source
}

fn request(id: u64, method: &str, field: &str, text: &str) -> String {
    format!(
        r#"{{"id": {id}, "method": "{method}", "{field}": {}}}"#,
        Json::Str(text.to_string())
    )
}

fn ok(line: &str) -> Json {
    let reply = Json::parse(line).expect("replies are JSON");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{line:.300}");
    reply
}

#[test]
fn a_megabyte_request_is_answered_within_the_bound() {
    let line = request(1, "pst", "source", &megabyte_source());
    let mut session = Session::new(ServeConfig::default());
    let started = Instant::now();
    let reply = session.handle_line(&line);
    let elapsed = started.elapsed();
    ok(&reply.line);
    assert!(elapsed < MEGABYTE_BOUND, "took {elapsed:?}");
    let outcome = reply.outcome.expect("analysis replies carry an outcome");
    assert!(outcome.parse_nanos > 0);
    assert!(outcome.parse_nanos <= outcome.total_nanos);
}

#[test]
fn a_megabyte_snapshot_entry_restores_within_the_bound() {
    let dir = std::env::temp_dir().join(format!("pst-request-path-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cache.snapshot").to_string_lossy().into_owned();
    let _ = std::fs::remove_file(&path);
    let config = ServeConfig {
        snapshot_path: Some(path.clone()),
        snapshot_every: 0,
        ..ServeConfig::default()
    };
    let line = request(1, "pst", "source", &megabyte_source());
    let first = SharedSession::new(config.clone());
    ok(&first.handle_line(&line).line);
    first.finish();
    let snapshot = std::fs::read_to_string(&path).expect("snapshot written");
    assert!(snapshot.lines().any(|l| l.len() > 1 << 20));

    let started = Instant::now();
    let second = SharedSession::new(config);
    let elapsed = started.elapsed();
    assert_eq!(second.restored_units(), 1);
    assert!(elapsed < MEGABYTE_BOUND, "restore took {elapsed:?}");
    let warm = ok(&second.handle_line(&line).line);
    assert_eq!(warm.get("cached"), Some(&Json::Bool(true)));
    let _ = std::fs::remove_file(&path);
}

/// `line` with the envelope's `nanos` value blanked: the one field a
/// daemon and a sequential session legitimately disagree on.
fn without_nanos(line: &str) -> String {
    match line.find(r#""nanos":"#) {
        Some(at) => {
            let digits = at + r#""nanos":"#.len();
            let end = line[digits..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(line.len(), |n| digits + n);
            format!("{}{}", &line[..digits], &line[end..])
        }
        None => line.to_string(),
    }
}

/// Fifty request lines over a small mini unit and a long chain digraph
/// whose `pst` reply (the rendered tree) is well over 64 KiB.
fn round_trip_lines() -> Vec<String> {
    let mini =
        "fn f(n) { s = 0; while (n > 0) { if (n > 5) { s = s + n; } n = n - 1; } return s; }";
    let chain: String = (0..4000).map(|v| format!("{v}->{}\n", v + 1)).collect();
    let mini_methods = ["pst", "control_regions", "lint", "ssa", "dataflow"];
    let edge_methods = ["pst", "control_regions", "lint", "canonicalize"];
    (0..50u64)
        .map(|id| match id % 3 {
            0 => request(id, "pst", "edges", &chain),
            1 => request(id, mini_methods[id as usize % 5], "source", mini),
            _ => request(id, edge_methods[id as usize % 4], "edges", &chain),
        })
        .collect()
}

#[test]
fn fifty_tcp_round_trips_take_well_under_a_delayed_ack_each() {
    let lines = round_trip_lines();
    let mut session = Session::new(ServeConfig::default());
    let expected: Vec<String> = lines.iter().map(|l| session.handle_line(l).line).collect();
    assert!(
        expected.iter().any(|r| r.len() > 64 << 10),
        "no reply over 64 KiB"
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || serve_listener(ServeConfig::default(), listener));
    // A plain blocking client: Nagle stays on, and each request is one
    // write, as a client of a line protocol would send it.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let started = Instant::now();
    let mut replies = Vec::with_capacity(lines.len());
    for line in &lines {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        replies.push(reply.trim_end_matches('\n').to_string());
    }
    let elapsed = started.elapsed();
    writer
        .write_all(b"{\"method\": \"shutdown\"}\n")
        .expect("shutdown");
    let mut bye = String::new();
    reader.read_line(&mut bye).expect("shutdown reply");
    server.join().expect("server thread").expect("server");

    for (i, (got, want)) in replies.iter().zip(&expected).enumerate() {
        ok(got);
        assert_eq!(without_nanos(got), without_nanos(want), "reply {i}");
    }
    assert!(
        elapsed < Duration::from_secs(1),
        "50 round trips took {elapsed:?}"
    );
}

/// An `edges` request naming node 4·10⁹. Parsing once created every node
/// up to the largest number named, and the allocation aborted the
/// daemon.
const HUGE_NODE: &str = r#"{"id": 2, "method": "pst", "edges": "0->4000000000"}"#;

fn huge_node_error(line: &str) {
    let reply = Json::parse(line).expect("replies are JSON");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{line}");
    let error = reply.get("error").expect("error envelope");
    assert_eq!(
        error.get("code"),
        Some(&Json::Str("analysis_error".to_string())),
        "{line}"
    );
    assert!(line.contains("0->4000000000"), "{line}");
}

#[test]
fn a_huge_node_number_gets_a_structured_error() {
    let mut session = Session::new(ServeConfig::default());
    huge_node_error(&session.handle_line(HUGE_NODE).line);
}

#[test]
fn a_tcp_daemon_answers_on_after_a_huge_node_number() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || serve_listener(ServeConfig::default(), listener));
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        reply
    };
    huge_node_error(&ask(HUGE_NODE));
    ok(&ask(&request(3, "pst", "edges", "0->1\n1->2\n")));
    ask(r#"{"method": "shutdown"}"#);
    server.join().expect("server thread").expect("server");
}
