//! `pst-serve` — the long-lived analysis daemon behind `pst serve`.
//!
//! The paper frames the Program Structure Tree as a *reusable* artifact:
//! build it once, answer region queries repeatedly (§5's control-region
//! partition, §6's φ-placement and dataflow consumers). The one-shot CLI
//! throws that reuse away — every invocation re-parses and recomputes
//! the whole pipeline. This crate keeps the artifacts alive: a session
//! holds an LRU cache keyed by content hash that interns parsed units,
//! canonicalized CFGs, and per-stage pipeline results, so a repeat query
//! at any stage is a lookup, not a recompute.
//!
//! The wire protocol is newline-delimited JSON-RPC over stdin/stdout or
//! TCP (std::net only, zero dependencies) — see [`proto`] and
//! `docs/SERVING.md`. Every request is fault-isolated: malformed JSON,
//! invalid graphs, and contained panics come back as structured error
//! envelopes while the daemon keeps serving.
//!
//! The daemon is built to survive fleets, not demos: a bounded worker
//! pool serves concurrent TCP connections against sharded sessions
//! ([`shared`]), per-request deadlines and an in-flight
//! admission gate bound tail latency under overload (`deadline_exceeded`
//! / `overloaded` envelopes), `drain`/`shutdown` finish in-flight work
//! before exiting, and the cache persists across restarts through
//! crash-safe snapshots (the private `snapshot` module).
//!
//! Module map:
//! - [`hash`] — SplitMix64 content hashing for unit ids
//! - [`proto`] — request/response envelopes and error codes
//! - [`cache`] — the budgeted LRU unit cache
//! - [`session`] — one cache shard: artifact interning, the unit
//!   methods, panic containment
//! - [`shared`] — the one front end over the shards: control methods
//!   (`stats`, `metrics`, `slowlog`, `drain`, `shutdown`), content-key
//!   routing, admission, snapshot lifecycle
//! - [`metrics`] — live telemetry: windowed per-method/per-shard
//!   series, the slow-request ring, Prometheus-style text exposition
//! - `snapshot` — versioned, checksummed, atomically-written cache
//!   snapshots (internal; driven by [`shared`])
//! - [`server`] — bounded line reader, worker pool, stdio/TCP loops
//!
//! Telemetry: `serve_*` counters (requests, errors, panics, cache
//! hit/miss/eviction/quarantine, stage hit/miss, shed, conn_errors,
//! deadline_exceeded, snapshot saves/restores), `serve_request_nanos`
//! plus cold/hot latency histograms, a `UnitScope` per request, and —
//! when a journal is installed — one `unit_summary` event per request
//! plus `slow_request` events past the `--slowlog-ms` threshold. The
//! `metrics` and `slowlog` methods (and the `--metrics-listen` HTTP
//! responder) expose the live windowed view; see [`metrics`].

// The daemon's request path must never panic on user input; unwrap and
// expect are banned outside test modules (each test module opts back in
// explicitly). verify.sh runs clippy with these as hard errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod hash;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod session;
pub mod shared;
mod snapshot;

pub use cache::{CacheConfig, CacheStats, LruCache};
pub use metrics::{LiveMetrics, RequestOutcome};
pub use proto::{ErrorCode, Method, Request, RequestInput};
pub use server::{serve_listener, serve_stdio, serve_stream, serve_tcp};
pub use session::{Reply, ServeConfig, ServeFault, Session};
pub use shared::SharedSession;
