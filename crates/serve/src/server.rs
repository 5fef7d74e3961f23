//! The serving loops: stdin/stdout and a concurrent TCP front (std::net
//! only).
//!
//! Both transports share the bounded `LineReader`: a line longer than
//! `max_request_bytes` is drained without buffering and answered with an
//! `oversized_request` envelope, and a non-UTF-8 line is answered with
//! `invalid_utf8` naming the first bad byte offset — the daemon never
//! dies on input, it answers. Blank lines are skipped; EOF (or a client
//! disconnect, over TCP) ends that stream cleanly; an acknowledged
//! `shutdown` or `drain` ends the daemon.
//!
//! The TCP path is a bounded worker pool (`--workers N`, scoped threads)
//! behind a non-blocking accept loop. Accepted connections land in a
//! bounded queue; when the queue is full the connection is shed with a
//! raw `overloaded` envelope instead of silently queueing unbounded
//! work. Worker streams carry a short read timeout so an idle or
//! wedged client can never pin a worker across a drain: every timeout
//! tick re-checks the drain flag. A failed `accept()` or a mid-stream
//! I/O error is counted (`serve_conn_errors`) and never stops the
//! accept loop — connection trouble is per-client, not per-daemon.
//!
//! Drain choreography: `drain`/`shutdown` flips the shared monotone
//! flag; the accept loop stops accepting and closes the queue; each
//! worker finishes (and answers) its in-flight request, refuses to read
//! further lines, and exits; the scope joins; then the owning thread
//! runs the epilogue (cache snapshot, journal/metrics flush).

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use pst_obs::json::Json;

use crate::proto::overloaded_response;
use crate::session::{Reply, ServeConfig};
use crate::shared::SharedSession;

/// How often a blocked worker re-checks lifecycle flags.
const POLL_TICK: Duration = Duration::from_millis(50);
/// Accept-loop sleep when no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(5);
/// Pending-connection queue bound, per worker.
const QUEUE_PER_WORKER: usize = 4;

/// One bounded read off the request stream.
enum Line {
    /// Stream ended before any byte of a new line.
    Eof,
    /// A complete UTF-8 line within the size cap (no trailing newline;
    /// an unterminated final line is still a request).
    Text(String),
    /// Line exceeded the cap; carries the actual byte length drained.
    Oversized(usize),
    /// Line was not UTF-8; carries the offset of the first invalid byte.
    InvalidUtf8(usize),
}

/// A bounded line reader that survives read timeouts: partial-line
/// state persists across calls, so a stream with a read timeout can be
/// polled (`Ok(None)` = no complete line yet, check the drain flag and
/// come back) without ever corrupting or dropping request bytes.
struct LineReader<R> {
    reader: R,
    cap: usize,
    buf: Vec<u8>,
    total: usize,
}

impl<R: BufRead> LineReader<R> {
    fn new(reader: R, cap: usize) -> Self {
        LineReader {
            reader,
            cap,
            buf: Vec::new(),
            total: 0,
        }
    }

    /// Reads one `\n`-terminated line, buffering at most `cap` bytes
    /// (oversized lines are drained to the newline but never held).
    /// `Ok(None)` means the read timed out mid-line; call again.
    fn read_line(&mut self) -> io::Result<Option<Line>> {
        loop {
            let available = match self.reader.fill_buf() {
                Ok(available) => available,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                if self.total == 0 {
                    return Ok(Some(Line::Eof));
                }
                break; // unterminated final line is still a request
            }
            let (consumed, done) = match available.iter().position(|&b| b == b'\n') {
                Some(pos) => (pos + 1, true),
                None => (available.len(), false),
            };
            let chunk_len = if done { consumed - 1 } else { consumed };
            self.total += chunk_len;
            if self.total <= self.cap {
                let chunk = &available[..chunk_len];
                self.buf.extend_from_slice(chunk);
            }
            self.reader.consume(consumed);
            if done {
                break;
            }
        }
        let total = std::mem::take(&mut self.total);
        let buf = std::mem::take(&mut self.buf);
        if total > self.cap {
            return Ok(Some(Line::Oversized(total)));
        }
        match String::from_utf8(buf) {
            Ok(text) => Ok(Some(Line::Text(text))),
            Err(e) => Ok(Some(Line::InvalidUtf8(e.utf8_error().valid_up_to()))),
        }
    }
}

fn reply_for(shared: &SharedSession, line: Line) -> Option<Reply> {
    match line {
        Line::Eof => None,
        Line::Text(text) if text.trim().is_empty() => Some(Reply {
            line: String::new(),
            shutdown: false,
            drop_conn: false,
            outcome: None,
        }),
        Line::Text(text) => Some(shared.handle_line(&text)),
        Line::Oversized(actual) => Some(shared.oversized_reply(actual)),
        Line::InvalidUtf8(offset) => Some(shared.invalid_utf8_reply(offset)),
    }
}

/// Serves one request stream to completion against the shared session.
/// Returns `true` when a `shutdown`/`drain` acknowledged on *this*
/// stream ended it, `false` on EOF/disconnect (or when a drain from
/// another stream stopped the daemon).
pub fn serve_stream<R: BufRead, W: Write>(
    shared: &SharedSession,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<bool> {
    let cap = shared.config().max_request_bytes;
    let mut lines = LineReader::new(reader, cap);
    loop {
        let line = match lines.read_line()? {
            Some(line) => line,
            // Timeout tick on a timeout-capable stream: stop reading if
            // the daemon is draining, otherwise poll again.
            None if shared.is_draining() => return Ok(false),
            None => continue,
        };
        let Some(reply) = reply_for(shared, line) else {
            return Ok(false); // EOF
        };
        if reply.line.is_empty() {
            continue; // blank input line
        }
        if reply.drop_conn {
            // Injected drop-conn fault: vanish without replying. The
            // client sees an abrupt disconnect and is expected to retry.
            return Ok(false);
        }
        // One write per reply, newline included: a separate write of
        // the "\n" would sit in Nagle's buffer until the client's
        // delayed ACK (~40ms) released it.
        let mut line = reply.line;
        line.push('\n');
        writer.write_all(line.as_bytes())?;
        writer.flush()?;
        if reply.shutdown {
            return Ok(true);
        }
        if shared.is_draining() {
            return Ok(false);
        }
    }
}

/// Serves stdin → stdout until EOF or `shutdown`/`drain`. Stdio has one
/// stream, so the worker pool collapses to the calling thread
/// (`workers` is forced to 1 — one shard, no idle mutex traffic). A
/// `--metrics-listen` responder, when configured, runs on a side thread
/// (announced on stderr — stdout belongs to the NDJSON replies).
pub fn serve_stdio(mut config: ServeConfig) -> io::Result<()> {
    config.workers = 1;
    let metrics = match &config.metrics_listen {
        Some(addr) => {
            let listener = bind_metrics(addr)?;
            eprintln!("pst serve: metrics on {}", listener.local_addr()?);
            Some(listener)
        }
        None => None,
    };
    let shared = SharedSession::new(config);
    let stdin = io::stdin();
    let stdout = io::stdout();
    let stopped = std::sync::atomic::AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        if let Some(listener) = &metrics {
            scope.spawn(|| {
                while !stopped.load(std::sync::atomic::Ordering::SeqCst) && !shared.is_draining() {
                    poll_metrics(&shared, listener);
                    std::thread::sleep(ACCEPT_TICK);
                }
            });
        }
        let mut reader = stdin.lock();
        let mut writer = stdout.lock();
        let result = serve_stream(&shared, &mut reader, &mut writer);
        stopped.store(true, std::sync::atomic::Ordering::SeqCst);
        result
    });
    shared.finish();
    result.map(|_| ())
}

/// Binds the one-shot HTTP metrics responder (non-blocking, polled by
/// whichever loop owns the daemon's idle ticks).
fn bind_metrics(addr: &str) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// Drains every pending metrics connection: read the request
/// best-effort, answer one `HTTP/1.0 200` text exposition, close. Any
/// connection trouble is counted and never stops the daemon.
fn poll_metrics(shared: &SharedSession, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(false).is_err() {
                    shared.note_conn_error();
                    continue;
                }
                answer_metrics_conn(shared, stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => {
                shared.note_conn_error();
                return;
            }
        }
    }
}

/// Answers one scrape. The request line is read (bounded, best-effort)
/// only to let well-behaved HTTP clients finish writing; the response
/// is the same exposition for every path.
fn answer_metrics_conn(shared: &SharedSession, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut scratch = [0u8; 1024];
    let _ = io::Read::read(&mut stream, &mut scratch);
    let body = shared.render_metrics_text();
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    if stream.write_all(response.as_bytes()).is_err() {
        shared.note_conn_error();
    }
}

/// Binds `addr` (`addr:port`; port 0 picks a free port) and serves TCP
/// connections concurrently. The bound address is announced on stdout
/// as `pst serve: listening on <addr>` so callers that requested port 0
/// can find the port.
pub fn serve_tcp(config: ServeConfig, addr: &str) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    {
        let mut out = io::stdout().lock();
        writeln!(out, "pst serve: listening on {}", listener.local_addr()?)?;
        out.flush()?;
    }
    serve_listener(config, listener)
}

/// A bounded hand-off queue from the accept loop to the worker pool.
/// Push beyond the bound is refused (the caller sheds the connection);
/// closing wakes every blocked worker.
struct ConnQueue {
    state: Mutex<(VecDeque<TcpStream>, bool)>,
    ready: Condvar,
    bound: usize,
}

impl ConnQueue {
    fn new(bound: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            bound,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (VecDeque<TcpStream>, bool)> {
        // Poison recovery, per docs/SERVING.md § Locking: the queue
        // holds plain connection handles; a panicking worker cannot
        // leave them inconsistent.
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Enqueues a connection, or returns it when the queue is full.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.lock();
        if state.1 || state.0.len() >= self.bound {
            return Err(stream);
        }
        state.0.push_back(stream);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.lock();
        loop {
            if let Some(stream) = state.0.pop_front() {
                return Some(stream);
            }
            if state.1 {
                return None;
            }
            let (next, _timeout) = self
                .ready
                .wait_timeout(state, POLL_TICK)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = next;
        }
    }

    /// Stops accepting pushes and wakes all workers. Already-queued
    /// connections are still handed out (they were accepted; shedding
    /// them now would strand clients silently).
    fn close(&self) {
        self.lock().1 = true;
        self.ready.notify_all();
    }
}

/// Writes a raw `overloaded` envelope to a connection the queue
/// refused, then drops it. Best-effort: the client may already be gone.
fn shed_connection(shared: &SharedSession, mut stream: TcpStream) {
    pst_obs::counter!("serve_shed");
    let envelope = overloaded_response(
        &Json::Null,
        &format!(
            "daemon accept queue is full ({} workers; --workers); retry after the hint",
            shared.config().workers
        ),
        25,
    );
    let _ = stream.write_all(format!("{envelope}\n").as_bytes());
}

/// Serves one accepted connection on a worker thread. All I/O errors
/// are counted and end only this connection.
fn serve_conn(shared: &SharedSession, stream: TcpStream) {
    // A short read timeout turns a blocked worker into a poller, so an
    // idle connection can never hold a worker hostage across a drain.
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        shared.note_conn_error();
        return;
    }
    let write_half = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            shared.note_conn_error();
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut writer = write_half;
    if let Err(_e) = serve_stream(shared, &mut reader, &mut writer) {
        shared.note_conn_error();
    }
}

/// Serves an already-bound listener (see [`serve_tcp`]); split out so
/// tests can bind their own port without racing on rebinds. Returns
/// after a `shutdown`/`drain` finished the in-flight work and the
/// epilogue (snapshot + telemetry flush) ran.
pub fn serve_listener(config: ServeConfig, listener: TcpListener) -> io::Result<()> {
    let metrics = match &config.metrics_listen {
        Some(addr) => {
            let bound = bind_metrics(addr)?;
            // Announced like the main listener so a port-0 caller can
            // find the scrape endpoint.
            let mut out = io::stdout().lock();
            writeln!(out, "pst serve: metrics on {}", bound.local_addr()?)?;
            out.flush()?;
            Some(bound)
        }
        None => None,
    };
    let shared = SharedSession::new(config);
    let workers = shared.config().workers.max(1);
    listener.set_nonblocking(true)?;
    let queue = ConnQueue::new(workers * QUEUE_PER_WORKER);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(stream) = queue.pop() {
                    serve_conn(&shared, stream);
                    // Fold this connection's thread-local telemetry so a
                    // crash after any connection loses nothing.
                    pst_obs::flush_thread();
                }
                pst_obs::flush_thread();
            });
        }
        // The accept loop owns the lifecycle: poll, hand off, and stop
        // accepting the moment a drain is acknowledged anywhere. Metrics
        // scrapes piggyback on the same loop's idle ticks.
        loop {
            if shared.is_draining() {
                break;
            }
            if let Some(m) = &metrics {
                poll_metrics(&shared, m);
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shared.note_connection();
                    // Accepted sockets must not inherit the listener's
                    // non-blocking mode (platform-dependent).
                    if stream.set_nonblocking(false).is_err() {
                        shared.note_conn_error();
                        continue;
                    }
                    if let Err(refused) = queue.push(stream) {
                        shed_connection(&shared, refused);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_TICK);
                }
                Err(_) => {
                    // Satellite fix: a failed accept() is counted and
                    // the loop keeps serving — it used to be silently
                    // skipped and could never be observed.
                    shared.note_conn_error();
                    std::thread::sleep(ACCEPT_TICK);
                }
            }
        }
        queue.close();
    });
    shared.finish();
    pst_obs::flush_thread();
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn drive(input: &[u8], config: ServeConfig) -> (Vec<Json>, bool) {
        let shared = SharedSession::new(config);
        let mut reader = std::io::Cursor::new(input.to_vec());
        let mut out = Vec::new();
        let shutdown = serve_stream(&shared, &mut reader, &mut out).unwrap();
        let replies = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("every reply line is JSON"))
            .collect();
        (replies, shutdown)
    }

    #[test]
    fn round_trip_blank_lines_eof_and_shutdown() {
        let input = b"\n{\"id\": 1, \"method\": \"stats\"}\n\n{\"id\": \"bye\", \"method\": \"shutdown\"}\n{\"method\": \"stats\"}\n";
        let (replies, shutdown) = drive(input, ServeConfig::default());
        // Blank lines answered nothing; the post-shutdown request was
        // never read.
        assert_eq!(replies.len(), 2);
        assert!(shutdown);
        assert_eq!(replies[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(replies[0].get("id"), Some(&Json::UInt(1)));
        assert_eq!(replies[1].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(replies[1].get("id"), Some(&Json::Str("bye".into())));
    }

    #[test]
    fn drain_ends_the_stream_like_shutdown() {
        let input = b"{\"id\": 1, \"method\": \"drain\"}\n{\"method\": \"stats\"}\n";
        let (replies, shutdown) = drive(input, ServeConfig::default());
        assert_eq!(replies.len(), 1);
        assert!(shutdown);
        assert_eq!(
            replies[0].get("result").and_then(|r| r.get("draining")),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn unterminated_final_line_is_still_a_request() {
        let (replies, shutdown) = drive(b"{\"method\": \"stats\"}", ServeConfig::default());
        assert_eq!(replies.len(), 1);
        assert!(!shutdown);
        assert_eq!(replies[0].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn oversized_line_is_drained_and_answered_then_serving_continues() {
        let config = ServeConfig {
            max_request_bytes: 64,
            ..ServeConfig::default()
        };
        let big = format!(
            "{{\"method\": \"pst\", \"source\": \"{}\"}}",
            "x".repeat(500)
        );
        let input = format!("{big}\n{{\"method\": \"stats\"}}\n");
        let (replies, _) = drive(input.as_bytes(), config);
        assert_eq!(replies.len(), 2);
        assert_eq!(
            replies[0].get("error").and_then(|e| e.get("code")),
            Some(&Json::Str("oversized_request".into()))
        );
        assert_eq!(replies[1].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn invalid_utf8_line_reports_the_bad_offset() {
        let mut input = b"{\"method\": \"stats\"".to_vec();
        input.push(0xff);
        input.extend_from_slice(b"}\n{\"method\": \"stats\"}\n");
        let (replies, _) = drive(&input, ServeConfig::default());
        assert_eq!(replies.len(), 2);
        let err = replies[0].get("error").unwrap();
        assert_eq!(err.get("code"), Some(&Json::Str("invalid_utf8".into())));
        match err.get("message") {
            Some(Json::Str(m)) => assert!(m.contains("offset 18"), "got: {m}"),
            other => panic!("no message: {other:?}"),
        }
        assert_eq!(replies[1].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn tcp_round_trip_on_a_test_bound_port() {
        // Bind our own free port, serve it in a thread, talk to it.
        use std::io::{BufRead as _, BufReader, Write as _};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            serve_listener(ServeConfig::default(), listener).unwrap();
        });
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"{\"id\": 1, \"method\": \"stats\"}\n{\"method\": \"shutdown\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let reply = Json::parse(line.trim()).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        line.clear();
        reader.read_line(&mut line).unwrap();
        let bye = Json::parse(line.trim()).unwrap();
        assert_eq!(
            bye.get("result").and_then(|r| r.get("stopping")),
            Some(&Json::Bool(true))
        );
        server.join().unwrap();
    }

    #[test]
    fn concurrent_clients_are_all_answered_and_drain_finishes_in_flight() {
        use std::io::{BufRead as _, BufReader, Write as _};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        };
        let server = std::thread::spawn(move || {
            serve_listener(config, listener).unwrap();
        });
        // Several concurrent clients, each with its own unit.
        let clients: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut stream = std::net::TcpStream::connect(addr).unwrap();
                    let line = format!(
                        "{{\"id\": {i}, \"method\": \"pst\", \"source\": \"fn c{i}(n) {{ return n; }}\"}}\n"
                    );
                    stream.write_all(line.as_bytes()).unwrap();
                    let mut reader = BufReader::new(stream);
                    let mut reply = String::new();
                    reader.read_line(&mut reply).unwrap();
                    Json::parse(reply.trim()).unwrap()
                })
            })
            .collect();
        for (i, client) in clients.into_iter().enumerate() {
            let reply = client.join().unwrap();
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "client {i}");
        }
        // Drain from a fresh connection ends the daemon gracefully.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"{\"id\": \"bye\", \"method\": \"drain\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let bye = Json::parse(line.trim()).unwrap();
        assert_eq!(
            bye.get("result").and_then(|r| r.get("draining")),
            Some(&Json::Bool(true))
        );
        server.join().unwrap();
    }
}
