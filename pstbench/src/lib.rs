//! The repository benchmark: three workloads timed from outside through
//! each layer's public functions.
//!
//! * `cfg-scale`: seeded valid CFGs on a doubling ladder of ≈1k to
//!   ≥128k edges, analysed in process (edge-list parse → S = G + exit→entry
//!   → cycle equivalence → PST → control regions).
//! * `program-corpus`: a seeded corpus of generated mini-language
//!   functions through the whole pipeline a `pst lint` user pays for.
//! * `serve-mix`: a real `pst serve` daemon driven over TCP with a Zipf
//!   request mix, open loop then closed loop.
//!
//! Every workload reports every end-to-end metric; see `README.md` for
//! what each one means on each workload.

pub mod alloc;
pub mod cfg_scale;
pub mod corpus;
pub mod layers;
pub mod serve;
pub mod serve_mix;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics, `(name, unit)`, reported by every workload's
/// untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("edges_per_s", "edges/s"),
    ("scaling_slope", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, reported by every workload's
/// traced run. A layer the workload never calls reads 0. The request
/// latencies and rate lead the list: they are end-to-end figures of
/// serve-mix alone, and every end-to-end metric must be measured on
/// every workload, so they are reported here and not gated.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("serve_hit_p50_us", "us"),
    ("serve_miss_p50_ms", "ms"),
    ("serve_rps", "1/s"),
    ("serve_hit_p99_us", "us"),
    ("serve_miss_p99_ms", "ms"),
    ("cfg.parse_edge_list.ns_per_edge", "ns/edge"),
    ("cfg.strongly_connect.ns_per_edge", "ns/edge"),
    ("core.cycle_equiv.ns_per_edge", "ns/edge"),
    ("core.pst.ns_per_edge", "ns/edge"),
    ("core.control_regions.ns_per_edge", "ns/edge"),
    ("core.cycle_equiv.slope", "ratio"),
    ("core.pst.slope", "ratio"),
    ("core.control_regions.slope", "ratio"),
    ("core.cycle_equiv.allocs_per_edge", "count/edge"),
    ("core.pst.allocs_per_edge", "count/edge"),
    ("core.control_regions.allocs_per_edge", "count/edge"),
    ("core.peak_heap_mb", "MB"),
    ("dominators.ns_per_edge", "ns/edge"),
    ("core.cycle_equiv_vs_dominators", "ratio"),
    ("lang.parse.ms", "ms"),
    ("lang.lower.ms", "ms"),
    ("core.pst.ms", "ms"),
    ("core.control_regions.ms", "ms"),
    ("ssa.phi.ms", "ms"),
    ("ssa.rename.ms", "ms"),
    ("dataflow.qpg.ms", "ms"),
    ("analysis.lint.ms", "ms"),
    ("lang.parse.allocs", "count"),
    ("lang.lower.allocs", "count"),
    ("core.pst.allocs", "count"),
    ("core.control_regions.allocs", "count"),
    ("ssa.phi.allocs", "count"),
    ("ssa.rename.allocs", "count"),
    ("dataflow.qpg.allocs", "count"),
    ("analysis.lint.allocs", "count"),
    ("dataflow.qpg_solves", "count"),
    ("dataflow.qpg_size_ratio", "ratio"),
    ("analysis.lint.diagnostics", "count"),
    ("controldep.strong.ms.p99", "ms"),
    ("serve.proto.parse_us", "us"),
    ("serve.hash.ns_per_byte", "ns/byte"),
    ("serve.session.hit_us", "us"),
    ("serve.session.hit_allocs", "count"),
    ("serve.transport_us", "us"),
    ("serve.session.miss_ms.pst", "ms"),
    ("serve.session.miss_ms.control_regions", "ms"),
    ("serve.session.miss_ms.controldep", "ms"),
    ("serve.session.miss_ms.lint", "ms"),
    ("serve.session.miss_ms.ssa", "ms"),
    ("serve.session.miss_ms.dataflow", "ms"),
    ("serve.session.miss_ms.canonicalize", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("client.queue_us.p99", "us"),
    ("client.lateness_us.p99", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
];

/// The three workloads.
pub const WORKLOADS: [&str; 3] = ["cfg-scale", "program-corpus", "serve-mix"];

/// A deliberate corruption of one answer, proving a correctness check
/// can fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Merge two control-region classes of one cfg-scale graph.
    MergeRegions,
    /// Drop one φ from one program-corpus function.
    DropPhi,
    /// Tamper with one serve reply's result.
    TamperReply,
}

/// How large a run's inputs are: the benchmark's own sizes, or a tiny
/// configuration for the benchmark's tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// Small inputs, for tests.
    Small,
}

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Corrupt one answer on purpose (the benchmark's own tests).
    pub fault: Option<Fault>,
    /// Input sizes.
    pub scale: Scale,
    /// The `pst` binary serve-mix drives; `None` serves from a thread of
    /// this process through the same library front end (tests).
    pub pst_bin: Option<PathBuf>,
    /// Where traced runs write their spans.
    pub trace_dir: Option<PathBuf>,
}

/// A metric value with its sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// The value.
    pub value: f64,
    /// Samples it summarises.
    pub samples: u64,
}

/// What one run of one workload found.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were shed, timed out, or failed their
    /// correctness check.
    pub failed: u64,
    /// Checks whose oracle ran out of budget: neither passed nor failed.
    pub inconclusive: u64,
    /// Checks that ran to a verdict.
    pub checks: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                samples: samples as u64,
            },
        );
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs one workload.
pub fn run(workload: &str, opts: &Options) -> Result<Outcome, String> {
    match workload {
        "cfg-scale" => cfg_scale::run(opts),
        "program-corpus" => corpus::run(opts),
        "serve-mix" => serve_mix::run(opts),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// A run's timed set-ups. A shared machine changes speed for seconds at
/// a time, so set-ups made back to back all land in the same spell: a
/// run makes the set-up it keeps before its timed phases, repeats it
/// between and after them ([`Setups::again`], [`Setups::between_passes`]),
/// and reports the median of [`SETUPS`] as `setup_s`.
pub struct Setups<F> {
    setup: F,
    secs: Vec<f64>,
}

impl<T, F: FnMut() -> Result<T, String>> Setups<F> {
    /// Makes and times the set-up whose state the run keeps.
    pub fn first(mut setup: F) -> Result<(Setups<F>, T), String> {
        let t0 = Instant::now();
        let state = setup()?;
        let secs = vec![t0.elapsed().as_secs_f64()];
        Ok((Setups { setup, secs }, state))
    }

    /// Repeats the set-up, with allocation counting off, and drops its
    /// state (a daemon, say) untimed; returns how long the set-up took.
    pub fn again(&mut self) -> Result<Duration, String> {
        alloc::set_counting(false);
        let t0 = Instant::now();
        let state = (self.setup)()?;
        let took = t0.elapsed();
        drop(state);
        self.secs.push(took.as_secs_f64());
        Ok(took)
    }

    /// Called between timed passes of a window of `seconds` that ends at
    /// `*end`: at each `1 / (SETUPS - 1)` of the window repeats the
    /// set-up and moves `*end` on by its duration, so the window keeps its
    /// measured length. [`Setups::finish`] makes the last one.
    pub fn between_passes(&mut self, end: &mut Instant, seconds: f64) -> Result<(), String> {
        let made = self.secs.len();
        let left = end.saturating_duration_since(Instant::now()).as_secs_f64();
        if made < SETUPS - 1 && seconds - left >= seconds * made as f64 / (SETUPS - 1) as f64 {
            *end += self.again()?;
        }
        Ok(())
    }

    /// Makes the remaining set-ups and records `setup_s`.
    pub fn finish(mut self, out: &mut Outcome) -> Result<(), String> {
        while self.secs.len() < SETUPS {
            self.again()?;
        }
        out.put("setup_s", stats::median(&self.secs), self.secs.len());
        Ok(())
    }
}

/// Writes a traced run's spans to `<trace_dir>/<workload>-<seed>.jsonl`.
pub fn write_trace(opts: &Options, workload: &str, tracer: &trace::Tracer) -> Result<(), String> {
    let Some(dir) = &opts.trace_dir else {
        return Ok(());
    };
    let path = dir.join(format!("{workload}-{}.jsonl", opts.seed));
    let fail = |e: std::io::Error| format!("writing {}: {e}", path.display());
    std::fs::create_dir_all(dir).map_err(fail)?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(fail)?);
    tracer.write_jsonl(&mut file).map_err(fail)?;
    std::io::Write::flush(&mut file).map_err(fail)
}
