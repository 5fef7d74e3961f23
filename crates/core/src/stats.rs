//! PST shape statistics (paper §4, Figures 5, 6 and 9).
//!
//! The paper characterizes PSTs of real programs as *broad and shallow*:
//! 8609 regions across 254 procedures, average nesting depth 2.68, maximum
//! 13, with ~97 % of regions at depth ≤ 6, PST size growing with procedure
//! size while depth and maximum collapsed region size stay flat. The
//! `experiments` binary in `pst-bench` regenerates those figures from these
//! statistics over the synthetic corpus.

use crate::ProgramStructureTree;

/// Shape statistics of one procedure's PST.
///
/// Depths are measured on *canonical* regions: children of the synthetic
/// root have depth 1; the root itself is not counted as a region.
///
/// # Examples
///
/// ```
/// use pst_cfg::parse_edge_list;
/// use pst_core::{ProgramStructureTree, PstStats};
/// let cfg = parse_edge_list("0->1 1->2 2->1 1->3").unwrap();
/// let pst = ProgramStructureTree::build(&cfg);
/// let stats = PstStats::of(&pst);
/// assert_eq!(stats.region_count, 2);
/// assert_eq!(stats.max_depth, 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PstStats {
    /// Number of canonical SESE regions.
    pub region_count: usize,
    /// `depth_histogram[d]` = number of canonical regions at depth `d`
    /// (index 0 is always 0; kept for direct plotting).
    pub depth_histogram: Vec<usize>,
    /// Maximum canonical region depth (0 when there are no regions).
    pub max_depth: usize,
    /// Sum of canonical region depths (for averaging across procedures).
    pub total_depth: usize,
    /// Largest collapsed region size (interior nodes + immediate children),
    /// measured over canonical regions and the root.
    pub max_collapsed_size: usize,
    /// Number of CFG nodes — the paper's "procedure size".
    pub procedure_size: usize,
}

impl PstStats {
    /// Computes the statistics of `pst` in one pass (collapsed sizes are
    /// accumulated from a single interior-count table rather than per-region
    /// scans, so this stays linear on deep trees).
    pub fn of(pst: &ProgramStructureTree) -> Self {
        let mut interior = vec![0usize; pst.region_count()];
        for i in 0..pst.node_count() {
            interior[pst.region_of_node(pst_cfg::NodeId::from_index(i)).index()] += 1;
        }
        let mut depth_histogram = Vec::new();
        let mut max_depth = 0;
        let mut total_depth = 0;
        let mut max_collapsed_size = 0;
        for r in pst.regions() {
            let collapsed = interior[r.index()] + pst.children(r).len();
            max_collapsed_size = max_collapsed_size.max(collapsed);
            if r == pst.root() {
                continue;
            }
            let d = pst.depth(r);
            if depth_histogram.len() <= d {
                depth_histogram.resize(d + 1, 0);
            }
            depth_histogram[d] += 1;
            max_depth = max_depth.max(d);
            total_depth += d;
        }
        PstStats {
            region_count: pst.canonical_region_count(),
            depth_histogram,
            max_depth,
            total_depth,
            max_collapsed_size,
            procedure_size: pst.node_count(),
        }
    }

    /// Average canonical region depth (0.0 for empty PSTs).
    pub fn average_depth(&self) -> f64 {
        if self.region_count == 0 {
            0.0
        } else {
            self.total_depth as f64 / self.region_count as f64
        }
    }

    /// Fraction of regions at depth ≤ `d` (1.0 for empty PSTs).
    pub fn cumulative_at_depth(&self, d: usize) -> f64 {
        if self.region_count == 0 {
            return 1.0;
        }
        let below: usize = self.depth_histogram.iter().take(d + 1).sum();
        below as f64 / self.region_count as f64
    }

    /// Serializes the statistics as JSON (`pst_obs::json`); the schema is
    /// documented in `docs/OBSERVABILITY.md`.
    pub fn to_json(&self) -> pst_obs::json::Json {
        use pst_obs::json::Json;
        Json::obj([
            ("region_count", Json::UInt(self.region_count as u64)),
            (
                "depth_histogram",
                Json::Arr(
                    self.depth_histogram
                        .iter()
                        .map(|&c| Json::UInt(c as u64))
                        .collect(),
                ),
            ),
            ("max_depth", Json::UInt(self.max_depth as u64)),
            ("total_depth", Json::UInt(self.total_depth as u64)),
            (
                "max_collapsed_size",
                Json::UInt(self.max_collapsed_size as u64),
            ),
            ("procedure_size", Json::UInt(self.procedure_size as u64)),
        ])
    }

    /// Merges per-procedure statistics into suite-level aggregates
    /// (Figure 5 pools all 254 procedures).
    pub fn merge(stats: &[PstStats]) -> PstStats {
        let mut out = PstStats {
            region_count: 0,
            depth_histogram: Vec::new(),
            max_depth: 0,
            total_depth: 0,
            max_collapsed_size: 0,
            procedure_size: 0,
        };
        for s in stats {
            out.region_count += s.region_count;
            out.total_depth += s.total_depth;
            out.max_depth = out.max_depth.max(s.max_depth);
            out.max_collapsed_size = out.max_collapsed_size.max(s.max_collapsed_size);
            out.procedure_size += s.procedure_size;
            if out.depth_histogram.len() < s.depth_histogram.len() {
                out.depth_histogram.resize(s.depth_histogram.len(), 0);
            }
            for (d, &c) in s.depth_histogram.iter().enumerate() {
                out.depth_histogram[d] += c;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pst_cfg::parse_edge_list;

    fn stats_of(desc: &str) -> PstStats {
        let cfg = parse_edge_list(desc).unwrap();
        PstStats::of(&ProgramStructureTree::build(&cfg))
    }

    #[test]
    fn straight_line_stats() {
        let s = stats_of("0->1 1->2 2->3");
        assert_eq!(s.region_count, 2);
        assert_eq!(s.max_depth, 1);
        assert_eq!(s.depth_histogram, vec![0, 2]);
        assert!((s.average_depth() - 1.0).abs() < 1e-9);
        assert_eq!(s.procedure_size, 4);
    }

    #[test]
    fn nested_loop_depths() {
        let s = stats_of("0->1 1->2 2->3 3->2 3->1 1->4");
        assert!(s.max_depth >= 2);
        assert_eq!(s.depth_histogram.iter().sum::<usize>(), s.region_count);
    }

    #[test]
    fn cumulative_is_monotone_and_reaches_one() {
        let s = stats_of("0->1 1->2 2->3 3->2 3->1 1->4");
        let mut last = 0.0;
        for d in 0..=s.max_depth {
            let c = s.cumulative_at_depth(d);
            assert!(c >= last);
            last = c;
        }
        assert!((s.cumulative_at_depth(s.max_depth) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_of_empty_slice_is_all_zero() {
        let m = PstStats::merge(&[]);
        assert_eq!(m.region_count, 0);
        assert_eq!(m.max_depth, 0);
        assert_eq!(m.total_depth, 0);
        assert_eq!(m.max_collapsed_size, 0);
        assert_eq!(m.procedure_size, 0);
        assert!(m.depth_histogram.is_empty());
        assert_eq!(m.average_depth(), 0.0);
        assert_eq!(m.cumulative_at_depth(0), 1.0);
    }

    #[test]
    fn merge_of_one_is_identity() {
        let s = stats_of("0->1 1->2 2->1 1->3");
        assert_eq!(PstStats::merge(std::slice::from_ref(&s)), s);
    }

    #[test]
    fn minimal_cfg_stats() {
        // The smallest valid CFG: one edge entry -> exit. Its only
        // canonical region is the whole procedure.
        let s = stats_of("0->1");
        assert_eq!(s.procedure_size, 2);
        assert_eq!(s.region_count, 0);
        assert_eq!(s.max_depth, 0);
        assert_eq!(s.average_depth(), 0.0);
    }

    #[test]
    fn json_round_trips() {
        let s = stats_of("0->1 1->2 2->1 1->3");
        let text = s.to_json().to_string();
        let parsed = pst_obs::json::Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("region_count").and_then(|j| j.as_u64()),
            Some(s.region_count as u64)
        );
        assert_eq!(
            parsed.get("max_depth").and_then(|j| j.as_u64()),
            Some(s.max_depth as u64)
        );
    }

    #[test]
    fn merge_sums_histograms() {
        let a = stats_of("0->1 1->2 2->3");
        let b = stats_of("0->1 1->2 2->1 1->3");
        let m = PstStats::merge(&[a.clone(), b.clone()]);
        assert_eq!(m.region_count, a.region_count + b.region_count);
        assert_eq!(m.total_depth, a.total_depth + b.total_depth);
        assert_eq!(m.max_depth, a.max_depth.max(b.max_depth));
        assert_eq!(m.depth_histogram.iter().sum::<usize>(), m.region_count);
    }
}
