//! Per-layer metrics from traced passes.
//!
//! A traced pass analyses every input of a workload once, one root span
//! per input. Each input's spans are split into layer self times by
//! [`crate::trace::attribute`]; this module folds those splits into the
//! per-layer metrics the benchmark reports.

use crate::stats::{loglog_slope, median, quantile};
use crate::trace::{attribute, check_nesting, self_costs, Attribution, Span};

/// Share of a traced pass's wall time by which it may exceed the sum of
/// its root spans, plus [`GAP_NS_PER_INPUT`] per input: the gap is the
/// tracer's bookkeeping between the workload's clock reads and the root
/// span's, and the occasional growth of the span buffer.
pub const GAP_SHARE: f64 = 0.01;

/// Allowed gap per input between a pass's clock and its root spans.
pub const GAP_NS_PER_INPUT: u64 = 50_000;

/// The library layers the benchmark wraps in spans, by public call.
pub const LAYERS: [&str; 14] = [
    "cfg.parse_edge_list",
    "cfg.strongly_connect",
    "cfg.canonicalize",
    "core.cycle_equiv",
    "core.pst",
    "core.control_regions",
    "dominators",
    "lang.parse",
    "lang.lower",
    "ssa.phi",
    "ssa.rename",
    "dataflow.qpg",
    "analysis.lint",
    "controldep.strong",
];

/// Whether a span name is a layer (anything else inside a pass is
/// unattributed).
pub fn is_layer(name: &str) -> bool {
    LAYERS.contains(&name) || name.starts_with("serve.")
}

/// One traced pass: its wall time (read by the workload's own clock
/// outside the spans, like an untraced pass) and, per input, the edges
/// analysed and the split of the input's root span.
#[derive(Clone, Debug, Default)]
pub struct TracedPass {
    /// Wall time of the pass, nanoseconds.
    pub wall_ns: u64,
    /// `(edges, attribution)` per input.
    pub inputs: Vec<(u64, Attribution)>,
}

impl TracedPass {
    /// Splits every root span recorded from index `from` on; fails when
    /// those spans do not nest (see [`check_nesting`]).
    pub fn from_spans(
        spans: &[Span],
        from: usize,
        edges_of_op: impl Fn(u64) -> u64,
        wall_ns: u64,
    ) -> Result<TracedPass, String> {
        check_nesting(spans, from)?;
        let costs = self_costs(spans);
        let inputs = (from..spans.len())
            .filter(|&i| spans[i].parent.is_none())
            .map(|i| {
                (
                    edges_of_op(spans[i].op),
                    attribute(spans, &costs, i, is_layer),
                )
            })
            .collect();
        Ok(TracedPass { wall_ns, inputs })
    }

    /// The layer-sum identity: for every input, Σ layer self time +
    /// unattributed time equals its root span exactly; and the root
    /// spans together cover the pass's wall time, read by the workload's
    /// own clock, up to the allowed gap ([`GAP_SHARE`],
    /// [`GAP_NS_PER_INPUT`]) and never more than it.
    pub fn check(&self) -> Result<(), String> {
        for (i, (_, a)) in self.inputs.iter().enumerate() {
            if a.accounted_ns() != a.pass_ns {
                return Err(format!(
                    "input {i}: layer self times plus unattributed time are {} ns, its span {} ns",
                    a.accounted_ns(),
                    a.pass_ns
                ));
            }
        }
        let spans = self.pass_ns();
        let allowed = (self.wall_ns as f64 * GAP_SHARE) as u64
            + GAP_NS_PER_INPUT * self.inputs.len() as u64;
        if spans > self.wall_ns || self.wall_ns - spans > allowed {
            return Err(format!(
                "root spans cover {spans} ns of a pass clocked at {} ns (allowed gap {allowed} ns)",
                self.wall_ns
            ));
        }
        Ok(())
    }

    fn layer_ns(&self, layer: &str) -> u64 {
        self.inputs
            .iter()
            .filter_map(|(_, a)| a.layers.get(layer))
            .map(|l| l.self_ns)
            .sum()
    }

    fn layer_allocs(&self, layer: &str) -> u64 {
        self.inputs
            .iter()
            .filter_map(|(_, a)| a.layers.get(layer))
            .map(|l| l.self_allocs)
            .sum()
    }

    fn edges(&self) -> u64 {
        self.inputs.iter().map(|(e, _)| e).sum()
    }

    fn pass_ns(&self) -> u64 {
        self.inputs.iter().map(|(_, a)| a.pass_ns).sum()
    }

    fn unattributed_ns(&self) -> u64 {
        self.inputs.iter().map(|(_, a)| a.unattributed_ns).sum()
    }
}

/// Folds traced passes (and the untraced passes run beside them) into
/// per-layer metrics: for each layer its self time per pass (`.ms`), its
/// allocations per pass (`.allocs`), its time per analysed edge
/// (`.ns_per_edge`), the log–log slope of its per-input time against
/// input edges (`.slope`) and its allocations per edge on the largest
/// input (`.allocs_per_edge`); plus the pass-level tracing overhead and
/// unattributed share.
pub fn layer_metrics(traced: &[TracedPass], untraced_wall_ns: &[f64]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if traced.is_empty() {
        return out;
    }
    for layer in LAYERS {
        let per_pass =
            |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        out.push((
            format!("{layer}.ms"),
            per_pass(&|p| p.layer_ns(layer) as f64 / 1e6),
        ));
        out.push((
            format!("{layer}.allocs"),
            per_pass(&|p| p.layer_allocs(layer) as f64),
        ));
        out.push((
            format!("{layer}.ns_per_edge"),
            per_pass(&|p| p.layer_ns(layer) as f64 / p.edges().max(1) as f64),
        ));
        let inputs = traced[0].inputs.len();
        let points: Vec<(f64, f64)> = (0..inputs)
            .filter(|&i| traced[0].inputs[i].1.layers.contains_key(layer))
            .map(|i| {
                let ns: Vec<f64> = traced
                    .iter()
                    .filter_map(|p| p.inputs.get(i)?.1.layers.get(layer))
                    .map(|l| l.self_ns as f64)
                    .collect();
                (traced[0].inputs[i].0 as f64, median(&ns))
            })
            .collect();
        out.push((format!("{layer}.slope"), loglog_slope(&points)));
        let top = traced[0]
            .inputs
            .iter()
            .filter(|(_, a)| a.layers.contains_key(layer))
            .max_by_key(|(e, _)| *e);
        let allocs_per_edge = top.map_or(0.0, |(e, a)| {
            a.layers[layer].self_allocs as f64 / (*e).max(1) as f64
        });
        out.push((format!("{layer}.allocs_per_edge"), allocs_per_edge));
    }
    let traced_wall: Vec<f64> = traced.iter().map(|p| p.wall_ns as f64).collect();
    let overhead = if untraced_wall_ns.is_empty() {
        0.0
    } else {
        (median(&traced_wall) / median(untraced_wall_ns) - 1.0) * 100.0
    };
    out.push(("bench.trace_overhead_pct".to_string(), overhead));
    let unattributed: Vec<f64> = traced
        .iter()
        .map(|p| p.unattributed_ns() as f64 * 100.0 / p.pass_ns().max(1) as f64)
        .collect();
    out.push(("bench.unattributed_pct".to_string(), median(&unattributed)));
    out
}

/// The `q`-quantile, in milliseconds, of the self time of every span
/// named `name`.
pub fn span_quantile_ms(spans: &[Span], name: &str, q: f64) -> f64 {
    let costs = self_costs(spans);
    let ms: Vec<f64> = spans
        .iter()
        .zip(&costs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, c)| c.0 as f64 / 1e6)
        .collect();
    quantile(&ms, q)
}
