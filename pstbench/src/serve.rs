//! The request path: units, seeded request streams, reply checking,
//! in-process probes of the daemon's layers, and the TCP client that
//! drives a real `pst serve` daemon.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use pst_obs::json::Json;
use pst_serve::{CacheConfig, Request, ServeConfig, Session};

use crate::stats::{Rng, Zipf};
use crate::trace::Tracer;

/// Methods a mini-language unit rotates through.
pub const MINI_METHODS: &[&str] = &[
    "pst",
    "control_regions",
    "controldep",
    "lint",
    "ssa",
    "dataflow",
];
/// Methods an edge-list unit rotates through.
pub const EDGE_METHODS: &[&str] = &[
    "pst",
    "control_regions",
    "controldep",
    "lint",
    "canonicalize",
];
/// Every analysis method, in the order per-method metrics are named.
pub const ALL_METHODS: [&str; 7] = [
    "pst",
    "control_regions",
    "controldep",
    "lint",
    "ssa",
    "dataflow",
    "canonicalize",
];
const MAX_METHODS: usize = 8;

/// One registered input of the request mix.
#[derive(Clone, Debug)]
pub struct Unit {
    /// Mini-language source (`true`) or edge list (`false`).
    pub mini: bool,
    /// The unit text, sent inline on every request.
    pub text: String,
    /// `text` as a JSON string literal, escaped once.
    pub escaped: String,
    /// CFG edges the daemon analyses for this unit.
    pub edges: u64,
    /// The methods the unit rotates through.
    pub methods: &'static [&'static str],
}

impl Unit {
    /// A unit over `text` that analyses `edges` CFG edges.
    pub fn new(mini: bool, text: String, edges: u64, methods: &'static [&'static str]) -> Unit {
        let escaped = Json::Str(text.clone()).to_string();
        Unit {
            mini,
            text,
            escaped,
            edges,
            methods,
        }
    }

    /// The request line for `method` with request id `id`.
    pub fn request_line(&self, id: u64, method: &str) -> String {
        let field = if self.mini { "source" } else { "edges" };
        let mut line = String::with_capacity(self.escaped.len() + 64);
        line.push_str("{\"id\":");
        line.push_str(&id.to_string());
        line.push_str(",\"method\":\"");
        line.push_str(method);
        line.push_str("\",\"");
        line.push_str(field);
        line.push_str("\":");
        line.push_str(&self.escaped);
        line.push('}');
        line
    }
}

/// Index of a `(unit, method)` pair in per-pair tables.
pub fn slot(unit: usize, method: usize) -> usize {
    unit * MAX_METHODS + method
}

/// A seeded request stream with Zipf popularity over a fixed rank order,
/// each unit rotating through its kind's methods.
///
/// Units are picked by smooth weighted round robin rather than by
/// independent draws, so every stretch of the stream holds each unit in
/// proportion to its popularity: a run's few rare, expensive misses then
/// do not depend on luck. The seed sets the starting credits and each
/// unit's first method.
#[derive(Clone, Debug)]
pub struct RequestStream {
    weights: Vec<f64>,
    credit: Vec<f64>,
    rotation: Vec<usize>,
}

impl RequestStream {
    /// A stream over `units` units where unit `i` has popularity rank
    /// `i`; `stream` separates streams of the same seed.
    pub fn new(units: usize, zipf_s: f64, seed: u64, stream: u64) -> RequestStream {
        let mut rng = Rng::new(seed, stream);
        let zipf = Zipf::new(units, zipf_s);
        RequestStream {
            weights: (0..units).map(|r| zipf.probability(r)).collect(),
            credit: (0..units).map(|_| rng.next_f64()).collect(),
            rotation: (0..units).map(|_| rng.below(MAX_METHODS)).collect(),
        }
    }

    /// The next `(unit, method index)`.
    pub fn next(&mut self, units: &[Unit]) -> (usize, usize) {
        for (c, w) in self.credit.iter_mut().zip(&self.weights) {
            *c += w;
        }
        let u = (0..self.credit.len())
            .max_by(|&a, &b| self.credit[a].total_cmp(&self.credit[b]))
            .expect("a stream has units");
        self.credit[u] -= 1.0;
        let m = self.rotation[u] % units[u].methods.len();
        self.rotation[u] += 1;
        (u, m)
    }
}

/// The fields of a reply envelope the benchmark reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplyView<'a> {
    /// Echoed request id.
    pub id: Option<u64>,
    /// `"ok": true`.
    pub ok: bool,
    /// `"cached": true`: answered from the per-method memo.
    pub cached: bool,
    /// The daemon's own handling time.
    pub nanos: u64,
    /// The `result` value, verbatim.
    pub result: &'a str,
}

/// Reads the envelope `{"id":..,"ok":..,..,"nanos":..,"result":..}`
/// without building a JSON tree (the client must stay cheap).
pub fn parse_reply(line: &str) -> Option<ReplyView<'_>> {
    let line = line.trim_end();
    let rest = line.strip_prefix("{\"id\":")?;
    let id_end = rest.find(',')?;
    let id = rest[..id_end].parse().ok();
    if !rest[id_end..].starts_with(",\"ok\":true") {
        return Some(ReplyView {
            id,
            ok: false,
            cached: false,
            nanos: 0,
            result: "",
        });
    }
    let at = line.find(",\"result\":")?;
    let head = &line[..at];
    let nanos = head
        .find("\"nanos\":")
        .and_then(|i| head[i + 8..].parse().ok())?;
    Some(ReplyView {
        id,
        ok: true,
        cached: head.contains("\"cached\":true"),
        nanos,
        result: line.get(at + 10..line.len() - 1)?,
    })
}

/// Reply bookkeeping shared by the request loops: the first result seen
/// for each `(unit, method)` pair, how many replies each pair got, and
/// how many replies disagreed with the first one. After the run,
/// [`Answers::verify`] compares every first result with the in-process
/// library's answer.
pub struct Answers {
    first: Mutex<Vec<Option<String>>>,
    replies: Vec<AtomicU64>,
    inconsistent: AtomicU64,
    tamper: AtomicBool,
}

impl Answers {
    /// Bookkeeping for `units` units; `tamper` corrupts the first reply
    /// observed (the self-test proving the check can fail).
    pub fn new(units: usize, tamper: bool) -> Answers {
        Answers {
            first: Mutex::new(vec![None; units * MAX_METHODS]),
            replies: (0..units * MAX_METHODS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            inconsistent: AtomicU64::new(0),
            tamper: AtomicBool::new(tamper),
        }
    }

    /// Records one OK reply's result; false when it differs from the
    /// first result of its pair.
    pub fn observe(&self, slot: usize, result: &str) -> bool {
        self.replies[slot].fetch_add(1, Ordering::Relaxed);
        let result = if self.tamper.swap(false, Ordering::Relaxed) {
            result.get(1..).unwrap_or_default()
        } else {
            result
        };
        let mut first = self.first.lock().expect("answer table lock poisoned");
        match &first[slot] {
            None => {
                first[slot] = Some(result.to_string());
                true
            }
            Some(seen) => {
                let same = seen == result;
                if !same {
                    self.inconsistent.fetch_add(1, Ordering::Relaxed);
                }
                same
            }
        }
    }

    /// Replies that failed the check: those inconsistent with their
    /// pair's first reply, plus every reply of a pair whose first result
    /// differs from the in-process library's answer. Also returns each
    /// unit's full analysis time (every method, fresh), in milliseconds.
    pub fn verify(&self, units: &[Unit]) -> (u64, Vec<f64>) {
        let first = self.first.lock().expect("answer table lock poisoned");
        let mut failed = self.inconsistent.load(Ordering::Relaxed);
        let mut unit_ms = Vec::with_capacity(units.len());
        for (u, unit) in units.iter().enumerate() {
            // A fresh sequential session per unit: the library answer
            // with nothing cached and nothing evicted.
            let mut session = Session::new(ServeConfig::default());
            let mut nanos = 0;
            for (m, method) in unit.methods.iter().enumerate() {
                let reply = session.handle_line(&unit.request_line(0, method));
                let view = parse_reply(&reply.line);
                nanos += view.map_or(0, |r| r.nanos);
                let Some(seen) = &first[slot(u, m)] else {
                    continue;
                };
                if !view.is_some_and(|r| r.ok && r.result == seen) {
                    failed += self.replies[slot(u, m)].load(Ordering::Relaxed);
                }
            }
            unit_ms.push(nanos as f64 / 1e6);
        }
        (failed, unit_ms)
    }
}

/// Latency samples of one request loop.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Latency of replies answered from the memo, microseconds.
    pub hit_us: Vec<f64>,
    /// Latency of replies computed fresh, milliseconds.
    pub miss_ms: Vec<f64>,
    /// When each OK reply arrived.
    pub done: Vec<Instant>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, were shed, or failed the reply check.
    pub failed: u64,
}

impl Samples {
    fn absorb(&mut self, other: Samples) {
        self.hit_us.extend(other.hit_us);
        self.miss_ms.extend(other.miss_ms);
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// OK replies per second from `start` to the last reply.
    pub fn ok_per_sec(&self, start: Instant) -> f64 {
        let span = self
            .done
            .iter()
            .max()
            .map_or(0.0, |t| t.saturating_duration_since(start).as_secs_f64());
        self.done.len() as f64 / span.max(1e-9)
    }

    /// Classifies one reply that took `latency`.
    fn record(&mut self, answers: &Answers, pair: (usize, usize), reply: &str, latency: Duration) {
        self.attempted += 1;
        match parse_reply(reply) {
            Some(r) if r.ok && answers.observe(slot(pair.0, pair.1), r.result) => {
                self.done.push(Instant::now());
                let ns = latency.as_nanos() as f64;
                if r.cached {
                    self.hit_us.push(ns / 1e3);
                } else {
                    self.miss_ms.push(ns / 1e6);
                }
            }
            _ => self.failed += 1,
        }
    }
}

/// Cache and error counters read from a `stats` reply.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Unit lookups that found a resident entry.
    pub hits: u64,
    /// Unit lookups that found nothing.
    pub misses: u64,
    /// Entries evicted.
    pub evictions: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Contained panics plus connection errors.
    pub errors: u64,
}

impl ServerStats {
    /// Parses the `stats` method's reply line.
    pub fn parse(line: &str) -> Option<ServerStats> {
        let j = Json::parse(line).ok()?;
        let r = j.get("result")?;
        let num = |o: &Json, k: &str| o.get(k).and_then(Json::as_u64).unwrap_or(0);
        let cache = r.get("cache")?;
        Some(ServerStats {
            hits: num(cache, "hits"),
            misses: num(cache, "misses"),
            evictions: num(cache, "evictions"),
            shed: num(r, "shed"),
            errors: num(r, "contained_panics") + num(r, "conn_errors"),
        })
    }

    /// Share of unit lookups that hit.
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// Zipf exponent of every request stream.
pub const ZIPF_S: f64 = 1.0;

/// Per-layer probes of the request path, measured in process on the
/// workload's own units: request parsing, content hashing, a sequential
/// session's hit path, and each method's computation on a unit that is
/// already registered (so registration is charged to no method).
pub fn layer_probe(t: &mut Tracer, units: &[Unit], op_base: u64) -> Vec<(String, f64)> {
    let mut parse_us = Vec::new();
    let mut hash_ns = 0u64;
    let mut hash_bytes = 0u64;
    let mut hit_us = Vec::new();
    let mut hit_allocs = Vec::new();
    let mut miss_ms: HashMap<&str, Vec<f64>> = HashMap::new();
    for (u, unit) in units.iter().enumerate() {
        let op = op_base + u as u64;
        let kind = if unit.mini { 1 } else { 2 };
        let t0 = Instant::now();
        t.span("serve.hash", op, |_| {
            std::hint::black_box(pst_serve::hash::content_hash(kind, unit.text.as_bytes()))
        });
        hash_ns += t0.elapsed().as_nanos() as u64;
        hash_bytes += unit.text.len() as u64;
        for method in unit.methods {
            // Register the unit through a cheap method other than the one
            // measured.
            let mut session = Session::new(ServeConfig::default());
            let register = if *method == "control_regions" {
                "pst"
            } else {
                "control_regions"
            };
            session.handle_line(&unit.request_line(0, register));
            let line = unit.request_line(0, method);
            let t0 = Instant::now();
            let req = t.span("serve.proto.parse", op, |_| Request::parse(&line));
            parse_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            let Ok(req) = req else { continue };
            let t0 = Instant::now();
            t.span(miss_span(method), op, |_| {
                std::hint::black_box(session.handle_request(&req, Instant::now()))
            });
            miss_ms
                .entry(method)
                .or_default()
                .push(t0.elapsed().as_nanos() as f64 / 1e6);
            let a0 = crate::alloc::thread_allocs();
            let t0 = Instant::now();
            t.span("serve.session.hit", op, |_| {
                std::hint::black_box(session.handle_request(&req, Instant::now()))
            });
            hit_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            hit_allocs.push((crate::alloc::thread_allocs() - a0) as f64);
        }
    }
    let mut out = vec![
        (
            "serve.proto.parse_us".to_string(),
            crate::stats::median(&parse_us),
        ),
        (
            "serve.hash.ns_per_byte".to_string(),
            hash_ns as f64 / hash_bytes.max(1) as f64,
        ),
        (
            "serve.session.hit_us".to_string(),
            crate::stats::median(&hit_us),
        ),
        (
            "serve.session.hit_allocs".to_string(),
            crate::stats::median(&hit_allocs),
        ),
    ];
    for method in ALL_METHODS {
        let v = miss_ms.get(method).map_or(0.0, |v| crate::stats::median(v));
        out.push((format!("serve.session.miss_ms.{method}"), v));
    }
    out
}

fn miss_span(method: &str) -> &'static str {
    match method {
        "pst" => "serve.session.miss.pst",
        "control_regions" => "serve.session.miss.control_regions",
        "controldep" => "serve.session.miss.controldep",
        "lint" => "serve.session.miss.lint",
        "ssa" => "serve.session.miss.ssa",
        "dataflow" => "serve.session.miss.dataflow",
        _ => "serve.session.miss.canonicalize",
    }
}

/// A running daemon: a `pst serve` child process, or (in tests) the same
/// library front end on a thread of this process.
pub struct Daemon {
    /// `host:port` it listens on.
    pub addr: String,
    child: Option<(Child, ChildStdout)>,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

/// Daemon flags shared by both ways of starting one.
fn daemon_config(cache_entries: usize) -> ServeConfig {
    ServeConfig {
        workers: 2,
        cache: CacheConfig {
            max_entries: cache_entries,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    }
}

impl Daemon {
    /// Starts `bin serve --listen 127.0.0.1:0 --workers 2` and waits for
    /// it to announce its address.
    pub fn spawn(bin: &Path, cache_entries: usize) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--cache-entries",
            ])
            .arg(cache_entries.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        // Read the announcement byte by byte so nothing after it is
        // buffered away from the pipe we keep.
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while stdout.read(&mut byte)? == 1 && byte[0] != b'\n' {
            line.push(byte[0]);
        }
        let text = String::from_utf8_lossy(&line).to_string();
        let Some(addr) = text.strip_prefix("pst serve: listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "daemon did not announce an address: `{text}`"
            )));
        };
        Ok(Daemon {
            addr: addr.trim().to_string(),
            child: Some((child, stdout)),
            thread: None,
        })
    }

    /// Starts the library front end on a thread of this process.
    pub fn in_thread(cache_entries: usize) -> io::Result<Daemon> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let config = daemon_config(cache_entries);
        let thread = std::thread::spawn(move || pst_serve::serve_listener(config, listener));
        Ok(Daemon {
            addr,
            child: None,
            thread: Some(thread),
        })
    }

    /// Opens a client connection.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::open(&self.addr)
    }

    /// Peak resident set of the daemon process, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        match &self.child {
            Some((child, _)) => peak_rss_mb(&format!("/proc/{}/status", child.id())),
            None => peak_rss_mb("/proc/self/status"),
        }
    }

    /// Asks the daemon to shut down and waits until it has.
    pub fn shutdown(mut self) -> io::Result<()> {
        let acked = self
            .connect()
            .and_then(|mut c| c.call("{\"id\":0,\"method\":\"shutdown\"}").map(|_| ()));
        if let Some(t) = self.thread.take() {
            acked?;
            return t
                .join()
                .map_err(|_| io::Error::other("daemon thread panicked"))?;
        }
        if let Some((mut child, _stdout)) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while acked.is_ok() && Instant::now() < deadline {
                if child.try_wait()?.is_some() {
                    return Ok(());
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            child.kill()?;
            child.wait()?;
            return Err(acked
                .err()
                .unwrap_or_else(|| io::Error::other("daemon ignored shutdown")));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some((mut child, _)) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(t) = self.thread.take() {
            if let Ok(mut c) = Conn::open(&self.addr) {
                let _ = c.call("{\"id\":0,\"method\":\"shutdown\"}");
            }
            let _ = t.join();
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One client connection speaking NDJSON, as a plain blocking client
/// does: it writes a request and reads until the reply's newline, so
/// whatever the transport costs between the two is part of every
/// latency the benchmark reports.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: Mutex<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: Mutex::new(stream.try_clone()?),
            reader: BufReader::new(stream),
            buf: Vec::new(),
        })
    }

    /// Sends one request line.
    pub fn send(&self, line: &str) -> io::Result<()> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer
            .lock()
            .expect("writer lock poisoned")
            .write_all(&framed)
    }

    /// Reads one reply line.
    pub fn recv(&mut self) -> io::Result<&str> {
        read_reply(&mut self.reader, &mut self.buf)
    }

    /// Sends one request and reads its reply.
    pub fn call(&mut self, line: &str) -> io::Result<&str> {
        self.send(line)?;
        self.recv()
    }
}

/// Reads one newline-terminated reply into `buf`.
fn read_reply<'a>(reader: &mut BufReader<TcpStream>, buf: &'a mut Vec<u8>) -> io::Result<&'a str> {
    buf.clear();
    if reader.read_until(b'\n', buf)? == 0 || buf.pop() != Some(b'\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed the connection",
        ));
    }
    std::str::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// One scheduled request of the open loop.
#[derive(Clone, Copy, Debug)]
pub struct Scheduled {
    /// When it is due, relative to the loop start.
    pub due: Duration,
    /// `(unit, method index)`.
    pub pair: (usize, usize),
}

/// A seeded Poisson schedule at `rate` requests per second over `span`.
pub fn poisson_schedule(units: &[Unit], rate: f64, span: Duration, seed: u64) -> Vec<Scheduled> {
    let mut gaps = Rng::new(seed, 70);
    let mut stream = RequestStream::new(units.len(), ZIPF_S, seed, 71);
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        at += gaps.exp(1.0 / rate);
        if at >= span.as_secs_f64() {
            return out;
        }
        out.push(Scheduled {
            due: Duration::from_secs_f64(at),
            pair: stream.next(units),
        });
    }
}

/// What the open loop measured besides latency.
#[derive(Clone, Debug, Default)]
pub struct OpenLoop {
    /// Latency samples, timed from when each request was due.
    pub samples: Samples,
    /// How late the generator started writing each request, µs.
    pub lateness_us: Vec<f64>,
    /// Time each request spent outside the daemon's handler after being
    /// written (socket queues behind earlier requests, transport), µs.
    pub queue_us: Vec<f64>,
}

/// One reply of the open loop: its schedule index, when it arrived, and
/// the daemon's own handling time.
type Arrival = (usize, Instant, u64);

/// Runs `schedule` over `conns` connections, as a client with a small
/// connection pool does: each request is written when due on the
/// connection with the fewest replies outstanding, and one reader per
/// connection takes its replies in order.
pub fn open_loop(
    conns: Vec<Conn>,
    units: &[Unit],
    answers: &Answers,
    schedule: &[Scheduled],
) -> io::Result<OpenLoop> {
    let start = Instant::now() + Duration::from_millis(20);
    let (readers, writers): (Vec<_>, Vec<_>) = conns
        .into_iter()
        .map(|c| (c.reader, c.writer))
        .unzip();
    let outstanding: Vec<AtomicUsize> = writers.iter().map(|_| AtomicUsize::new(0)).collect();
    let (sent, received) = std::thread::scope(|scope| {
        let mut queues = Vec::with_capacity(writers.len());
        let mut handles = Vec::with_capacity(writers.len());
        for (mut reader, pending) in readers.into_iter().zip(&outstanding) {
            let (tx, rx) = mpsc::channel::<usize>();
            queues.push(tx);
            handles.push(scope.spawn(move || -> io::Result<(Samples, Vec<Arrival>)> {
                let mut samples = Samples::default();
                let mut got = Vec::new();
                let mut buf = Vec::new();
                for idx in rx {
                    let line = read_reply(&mut reader, &mut buf)?;
                    let at = Instant::now();
                    pending.fetch_sub(1, Ordering::SeqCst);
                    let s = schedule[idx];
                    let view = parse_reply(line);
                    if view.is_some_and(|r| r.id == Some(idx as u64)) {
                        samples.record(
                            answers,
                            s.pair,
                            line,
                            at.saturating_duration_since(start + s.due),
                        );
                    } else {
                        samples.attempted += 1;
                        samples.failed += 1;
                    }
                    got.push((idx, at, view.map_or(0, |r| r.nanos)));
                }
                Ok((samples, got))
            }));
        }
        let sent = send_when_due(&writers, &outstanding, &queues, units, schedule, start);
        if sent.is_err() {
            // Unblock the readers: no reply is coming for a request that
            // was never written.
            for w in &writers {
                let _ = w
                    .lock()
                    .expect("writer lock poisoned")
                    .shutdown(std::net::Shutdown::Both);
            }
        }
        drop(queues);
        let received = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| io::Error::other("reader panicked"))?)
            .collect::<io::Result<Vec<_>>>();
        (sent, received)
    });
    let sent = sent?;
    let mut out = OpenLoop::default();
    for (samples, got) in received? {
        for (idx, at, nanos) in got {
            let (t0, t1) = sent[idx];
            out.lateness_us.push(
                t0.saturating_duration_since(start + schedule[idx].due)
                    .as_nanos() as f64
                    / 1e3,
            );
            let outside = at.saturating_duration_since(t1).as_nanos() as f64 - nanos as f64;
            out.queue_us.push(outside.max(0.0) / 1e3);
        }
        out.samples.absorb(samples);
    }
    Ok(out)
}

/// The open loop's sender: returns when each request started and
/// finished being written.
fn send_when_due(
    writers: &[Mutex<TcpStream>],
    outstanding: &[AtomicUsize],
    queues: &[mpsc::Sender<usize>],
    units: &[Unit],
    schedule: &[Scheduled],
    start: Instant,
) -> io::Result<Vec<(Instant, Instant)>> {
    let mut sent = Vec::with_capacity(schedule.len());
    for (idx, s) in schedule.iter().enumerate() {
        let unit = &units[s.pair.0];
        let mut line = unit.request_line(idx as u64, unit.methods[s.pair.1]);
        line.push('\n');
        let due = start + s.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let t0 = Instant::now();
        let c = (0..writers.len())
            .min_by_key(|&c| outstanding[c].load(Ordering::SeqCst))
            .expect("the pool has connections");
        outstanding[c].fetch_add(1, Ordering::SeqCst);
        // Queue the index before writing, so the reader knows what the
        // reply answers however fast it comes.
        queues[c]
            .send(idx)
            .map_err(|_| io::Error::other("reader gone"))?;
        writers[c]
            .lock()
            .expect("writer lock poisoned")
            .write_all(line.as_bytes())?;
        sent.push((t0, Instant::now()));
    }
    Ok(sent)
}

/// Closed loop: every connection sends its next request as soon as the
/// previous reply arrives, until `deadline`. Returns the samples and when
/// the loop started.
pub fn closed_loop(
    conns: Vec<Conn>,
    units: &[Unit],
    answers: &Answers,
    seed: u64,
    deadline: Instant,
) -> io::Result<(Samples, Instant)> {
    let started = Instant::now();
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                scope.spawn(move || -> io::Result<Samples> {
                    let mut stream = RequestStream::new(units.len(), ZIPF_S, seed, 80 + c as u64);
                    let mut samples = Samples::default();
                    let mut id = 0u64;
                    while Instant::now() < deadline {
                        let pair = stream.next(units);
                        id += 1;
                        let line = units[pair.0].request_line(id, units[pair.0].methods[pair.1]);
                        let t0 = Instant::now();
                        let reply = conn.call(&line)?;
                        let latency = t0.elapsed();
                        samples.record(answers, pair, reply, latency);
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| io::Error::other("client panicked"))?)
            .collect::<io::Result<Vec<_>>>()
    })?;
    let mut all = Samples::default();
    for p in parts {
        all.absorb(p);
    }
    Ok((all, started))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_views_read_the_envelope() {
        let ok =
            r#"{"id":7,"ok":true,"unit":"00ff","cached":true,"nanos":1234,"result":{"a":[1,2]}}"#;
        let r = parse_reply(ok).unwrap();
        assert_eq!(
            (r.id, r.ok, r.cached, r.nanos, r.result),
            (Some(7), true, true, 1234, r#"{"a":[1,2]}"#)
        );
        let err = r#"{"id":3,"ok":false,"error":{"code":"panic","message":"x"}}"#;
        assert!(!parse_reply(err).unwrap().ok);
    }

    #[test]
    fn request_lines_parse_as_requests() {
        let u = Unit::new(false, "0->1\n1->2\n".to_string(), 2, EDGE_METHODS);
        let req = Request::parse(&u.request_line(5, "pst")).unwrap();
        assert_eq!(req.id, Json::UInt(5));
    }
}
