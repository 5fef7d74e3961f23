//! The benchmark's own spans around each public call it makes.
//!
//! A span records its name, start, end, parent and the id of the
//! operation it belongs to, plus the allocation calls its thread made
//! inside it. Spans stay in memory and are written out when the run
//! ends. A layer's self time is its span minus the spans of its
//! children; whatever no layer span covers inside a pass is that pass's
//! unattributed time, so layer self times plus unattributed time add up
//! to the pass time exactly (see [`attribute`]).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use crate::alloc;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
    /// A layer name (`core.pst`) or a structural name (`pass`).
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
    /// Allocation calls made inside the span, children included.
    pub allocs: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. When off, [`Tracer::span`] only calls
/// its closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose times count from `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off between spans (traced and untraced
    /// passes interleave in one traced run).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of operation `op`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            op,
            name,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.stack.push(idx);
        let allocs = alloc::thread_allocs();
        self.spans[idx].start_ns = self.now();
        let out = f(self);
        self.spans[idx].end_ns = self.now();
        self.spans[idx].allocs = alloc::thread_allocs() - allocs;
        self.stack.pop();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index the next recorded span will get.
    pub fn next_index(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        Ok(())
    }
}

/// Checks that the spans from index `from` on form a tree: every span
/// ends after it starts, lies inside its parent, and starts after the
/// previous span with the same parent ended. Self times are only a
/// partition of a root span when this holds.
pub fn check_nesting(spans: &[Span], from: usize) -> Result<(), String> {
    let mut last_end: Vec<u64> = vec![0; spans.len()];
    let mut last_root_end = 0;
    for (i, s) in spans.iter().enumerate().skip(from) {
        let bad = |why: &str| Err(format!("span {i} (`{}`) {why}", s.name));
        if s.end_ns < s.start_ns {
            return bad("ends before it starts");
        }
        let prev_end = match s.parent {
            Some(p) if p >= i => return bad("has a parent recorded after it"),
            Some(p) => {
                let parent = &spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return bad("escapes its parent");
                }
                std::mem::replace(&mut last_end[p], s.end_ns)
            }
            None => std::mem::replace(&mut last_root_end, s.end_ns),
        };
        if s.start_ns < prev_end {
            return bad("overlaps an earlier sibling");
        }
    }
    Ok(())
}

/// Self time and self allocations of every span: its own figures minus
/// those of its direct children. Meaningful once [`check_nesting`] holds.
pub fn self_costs(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut child = vec![(0u64, 0u64); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p].0 += s.dur_ns();
            child[p].1 += s.allocs;
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| {
            (
                s.dur_ns().saturating_sub(c.0),
                s.allocs.saturating_sub(c.1),
            )
        })
        .collect()
}

/// Totals of one layer inside one pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCost {
    /// Self time, nanoseconds.
    pub self_ns: u64,
    /// Self allocation calls.
    pub self_allocs: u64,
    /// Spans of the layer.
    pub calls: u64,
}

/// How one pass's time splits over layers.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Wall time of the pass span.
    pub pass_ns: u64,
    /// Per layer, in name order.
    pub layers: BTreeMap<&'static str, LayerCost>,
    /// Time inside the pass that no layer span covers.
    pub unattributed_ns: u64,
}

impl Attribution {
    /// Σ layer self time + unattributed time; equals `pass_ns` exactly.
    pub fn accounted_ns(&self) -> u64 {
        self.layers.values().map(|l| l.self_ns).sum::<u64>() + self.unattributed_ns
    }
}

/// Splits the pass rooted at span `root` over the spans whose names
/// `is_layer` accepts; every other span inside the pass (the pass itself
/// and structural spans such as one input) counts as unattributed.
pub fn attribute(
    spans: &[Span],
    costs: &[(u64, u64)],
    root: usize,
    is_layer: impl Fn(&str) -> bool,
) -> Attribution {
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    let mut out = Attribution {
        pass_ns: spans[root].dur_ns(),
        ..Attribution::default()
    };
    for i in root..spans.len() {
        if i > root {
            match spans[i].parent {
                Some(p) if p >= root && inside[p] => inside[i] = true,
                _ => continue,
            }
        }
        if is_layer(spans[i].name) {
            let l = out.layers.entry(spans[i].name).or_default();
            l.self_ns += costs[i].0;
            l.self_allocs += costs[i].1;
            l.calls += 1;
        } else {
            out.unattributed_ns += costs[i].0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("pass", 0, |t| {
            for i in 0..3 {
                t.span("input", i, |t| {
                    t.span("a", i, |_| std::hint::black_box(vec![0u8; 4096]));
                    t.span("b", i, |t| {
                        t.span("a", i, |_| std::hint::black_box(vec![1u8; 64]))
                    });
                });
            }
        });
        assert_eq!(check_nesting(t.spans(), 0), Ok(()));
        let costs = self_costs(t.spans());
        let a = attribute(t.spans(), &costs, 0, |n| n == "a" || n == "b");
        assert_eq!(a.accounted_ns(), a.pass_ns);
        assert_eq!(a.layers["a"].calls, 6);
        assert_eq!(a.layers["b"].calls, 3);
    }

    #[test]
    fn nesting_rejects_escaping_and_overlapping_spans() {
        let span = |parent, start_ns, end_ns| Span {
            parent,
            op: 0,
            name: "s",
            start_ns,
            end_ns,
            allocs: 0,
        };
        let good = [span(None, 0, 10), span(Some(0), 1, 4), span(Some(0), 4, 9)];
        assert_eq!(check_nesting(&good, 0), Ok(()));
        let escapes = [span(None, 0, 10), span(Some(0), 5, 11)];
        assert!(check_nesting(&escapes, 0).is_err());
        let overlaps = [span(None, 0, 10), span(Some(0), 1, 6), span(Some(0), 5, 9)];
        assert!(check_nesting(&overlaps, 0).is_err());
        let roots_overlap = [span(None, 0, 10), span(None, 9, 12)];
        assert!(check_nesting(&roots_overlap, 0).is_err());
    }
}
