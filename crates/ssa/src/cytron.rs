//! Baseline φ-placement via iterated dominance frontiers (Cytron,
//! Ferrante, Rosen, Wegman & Zadeck, TOPLAS 1991).
//!
//! For every variable, φ-functions go at the iterated dominance frontier
//! of its definition sites. The CFG entry counts as an implicit definition
//! of every variable (the "undefined initial value"), which also matches
//! the PST algorithm's rule of treating a region's entry as a definition.

use pst_cfg::NodeId;
use pst_dominators::{dominance_frontiers, dominator_tree, iterated_dominance_frontier, Direction};
use pst_lang::{LoweredFunction, VarId};

/// The φ-placement for every variable of a function.
///
/// Two placements are equal iff they put φs for the same variables at the
/// same nodes, so baseline and PST results compare with `==`.
///
/// # Examples
///
/// ```
/// use pst_lang::{parse_program, lower_function};
/// use pst_ssa::place_phis_cytron;
/// let p = parse_program("fn f(n) { s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }").unwrap();
/// let l = lower_function(&p.functions[0]).unwrap();
/// let phis = place_phis_cytron(&l);
/// let s = l.var_id("s").unwrap();
/// // `s` needs a phi at the loop header.
/// assert_eq!(phis.phis_of(s).len(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhiPlacement {
    /// `phis[v]` = sorted nodes where variable `v` needs a φ.
    phis: Vec<Vec<NodeId>>,
}

impl PhiPlacement {
    /// Builds a placement from per-variable node lists (sorted internally).
    pub fn from_lists(mut phis: Vec<Vec<NodeId>>) -> Self {
        for p in &mut phis {
            p.sort_unstable();
            p.dedup();
        }
        PhiPlacement { phis }
    }

    /// Sorted φ nodes for `var`.
    pub fn phis_of(&self, var: VarId) -> &[NodeId] {
        &self.phis[var.index()]
    }

    /// Number of variables covered.
    pub fn var_count(&self) -> usize {
        self.phis.len()
    }

    /// Total number of φ-functions across all variables.
    pub fn total_phis(&self) -> usize {
        self.phis.iter().map(|p| p.len()).sum()
    }

    /// The variables (with their φ node lists), for iteration.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &[NodeId])> {
        self.phis
            .iter()
            .enumerate()
            .map(|(i, p)| (VarId::from_index(i), p.as_slice()))
    }
}

/// Places φ-functions for every variable with the classical IDF algorithm.
pub fn place_phis_cytron(function: &LoweredFunction) -> PhiPlacement {
    let _span = pst_obs::Span::enter("phi_cytron");
    let cfg = &function.cfg;
    let dt = dominator_tree(cfg.graph(), cfg.entry());
    let df = dominance_frontiers(cfg.graph(), &dt, Direction::Forward);
    let phis = (0..function.var_count())
        .map(|v| {
            let var = VarId::from_index(v);
            let mut seeds = function.definition_sites(var);
            if !seeds.contains(&cfg.entry()) {
                seeds.push(cfg.entry());
            }
            iterated_dominance_frontier(&df, &seeds)
        })
        .collect();
    PhiPlacement { phis }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pst_lang::{lower_function, parse_function_body};

    fn placement(src: &str) -> (LoweredFunction, PhiPlacement) {
        let f = parse_function_body(src).unwrap();
        let l = lower_function(&f).unwrap();
        let p = place_phis_cytron(&l);
        (l, p)
    }

    #[test]
    fn straight_line_needs_no_phis() {
        let (_, p) = placement("x = 1; y = x + 1; return y;");
        assert_eq!(p.total_phis(), 0);
    }

    #[test]
    fn diamond_join_needs_phi() {
        let (l, p) = placement("if (c) { x = 1; } else { x = 2; } return x;");
        let x = l.var_id("x").unwrap();
        assert_eq!(p.phis_of(x).len(), 1);
        let join = p.phis_of(x)[0];
        assert!(l.cfg.graph().in_degree(join) >= 2);
    }

    #[test]
    fn variable_defined_in_one_arm_still_needs_phi() {
        // Because the entry is an implicit definition.
        let (l, p) = placement("if (c) { x = 1; } return x;");
        let x = l.var_id("x").unwrap();
        assert_eq!(p.phis_of(x).len(), 1);
    }

    #[test]
    fn loop_variable_gets_header_phi() {
        let (l, p) = placement("while (n > 0) { n = n - 1; } return n;");
        let n = l.var_id("n").unwrap();
        assert_eq!(p.phis_of(n).len(), 1);
        // The condition variable `c`... there is none; the header is the
        // only join.
    }

    #[test]
    fn variable_untouched_in_loop_needs_no_phi() {
        let (l, p) = placement("y = 7; while (n > 0) { n = n - 1; } return y;");
        let y = l.var_id("y").unwrap();
        assert!(p.phis_of(y).is_empty());
        let n = l.var_id("n").unwrap();
        assert_eq!(p.phis_of(n).len(), 1);
    }

    #[test]
    fn phi_nodes_are_joins() {
        let (l, p) =
            placement("while (a) { if (b) { x = 1; } else { x = 2; } s = s + x; } return s;");
        for (_, nodes) in p.iter() {
            for &n in nodes {
                assert!(l.cfg.graph().in_degree(n) >= 2, "phi at non-join {n:?}");
            }
        }
        assert!(p.total_phis() > 0);
    }

    #[test]
    fn has_phi_matches_lists() {
        let (l, p) = placement("if (c) { x = 1; } else { x = 2; } return x;");
        let x = l.var_id("x").unwrap();
        for (var, nodes) in p.iter() {
            assert_eq!(p.phis_of(var), nodes);
            assert!(nodes.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
            // Only `x` is assigned on both arms of the diamond.
            assert_eq!(nodes.len(), usize::from(var == x));
        }
    }
}
