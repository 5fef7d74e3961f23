//! PST-based φ-placement (paper §6.1, Theorem 9).
//!
//! If a merge node needs a φ for variable `v`, it lies in the iterated
//! dominance frontier of an assignment to `v` *in the same SESE region*
//! (Theorem 9). The paper's algorithm therefore:
//!
//! 1. marks every region containing an assignment to `v` (and, for the
//!    entry's implicit definition, the root),
//! 2. collapses immediately nested regions to single statements — a marked
//!    child counts as a definition, an unmarked one as a NO-OP — and
//! 3. runs any standard φ-placement inside each marked region, treating
//!    the region entry as a definition.
//!
//! Unmarked regions are never examined: that is the *sparsity* win
//! measured in the paper's Figure 10 and reproduced by
//! [`PstPhiPlacement::fraction_examined`]. Exploiting nesting also defuses
//! the quadratic dominance-frontier blow-up of nested repeat-until loops
//! (each loop is its own region); `tests/scale.rs` asserts that space
//! claim, and the `phi_cytron`/`phi_pst` rows of `experiments -- timing`
//! time both placements over the corpus.
//!
//! Every region's dominators and frontiers are computed once per function
//! into one flat table, so a variable costs only its definition blocks,
//! the regions they mark and the frontier entries its IDF visits.
//!
//! The same table gives the paper's §6.3 divide-and-conquer dominators
//! ([`crate::dominator_tree_via_pst`]).

use pst_cfg::{group_rows, Dominators, NodeId};
use pst_core::{CollapsedNode, CollapsedRegion, ProgramStructureTree};
use pst_lang::{LoweredFunction, VarId};

use crate::{PhiPlacement, SsaError};

/// Result of PST-based φ-placement, with the sparsity accounting of the
/// paper's Figure 10.
#[derive(Clone, Debug)]
pub struct PstPhiPlacement {
    /// The computed placement (equal to the Cytron baseline, per
    /// Theorem 9 — asserted by the property tests).
    pub placement: PhiPlacement,
    /// Per variable: number of regions examined (marked).
    pub regions_examined: Vec<usize>,
    /// Total number of regions in the PST (including the root).
    pub total_regions: usize,
}

impl PstPhiPlacement {
    /// Fraction of regions examined for `var` (Figure 10's x-axis).
    pub fn fraction_examined(&self, var: VarId) -> f64 {
        self.regions_examined[var.index()] as f64 / self.total_regions as f64
    }
}

/// No global id or block yet.
const NONE: u32 = u32::MAX;

/// What a global id of [`RegionFrontiers`] stands for, besides a CFG
/// node (which stands for itself).
const CHILD: u32 = u32::MAX - 1;
const SYNTHETIC_ENTRY: u32 = u32::MAX;

/// Every region's dominator tree and dominance frontiers in one flat
/// table.
///
/// Each region's collapsed graph gets a synthetic entry with one edge to
/// the region head, so the head is a proper join when a backedge targets
/// it. Mini node `i` of region `r` has the global id `base[r] + i`, and
/// the synthetic entry the id `base[r + 1] - 1`. The frontier of global
/// id `g` is `list[start[g]..start[g + 1]]`, in global ids of the same
/// region, so one worklist over global ids runs every region's IDF at
/// once without mixing them. `dom` holds every region's dominator tree
/// over global ids, one per synthetic entry.
#[derive(Clone)]
pub(crate) struct RegionFrontiers {
    pub(crate) base: Vec<u32>,
    start: Vec<u32>,
    list: Vec<u32>,
    dom: Dominators,
}

impl RegionFrontiers {
    /// Builds the table over all regions at once, in flat arrays of
    /// global ids.
    ///
    /// Dominators come from the shared iterative kernel
    /// ([`pst_cfg::Dominators`]) with every synthetic entry as a root, and
    /// frontiers from Cooper, Harvey & Kennedy's walk from each
    /// predecessor of a join up to the join's immediate dominator
    /// ([`pst_dominators::dominance_frontiers`], the oracle of the tests).
    pub(crate) fn build(collapsed: &[CollapsedRegion]) -> Self {
        let mut base = Vec::with_capacity(collapsed.len() + 1);
        let mut ids = 0u32;
        for mini in collapsed {
            base.push(ids);
            ids += mini.graph.node_count() as u32 + 1;
        }
        base.push(ids);
        let ids = ids as usize;

        // Every region's edges and its synthetic entry edge.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (mini, &b) in collapsed.iter().zip(&base) {
            let g = &mini.graph;
            edges.extend(g.edges().map(|e| {
                let (u, v) = g.endpoints(e);
                (b + u.index() as u32, b + v.index() as u32)
            }));
            edges.push((b + g.node_count() as u32, b + mini.head.index() as u32));
        }
        let (succ_start, succ) = group_rows(ids, 0, || edges.iter().map(|&(u, v)| (u as usize, v)));
        let (pred_start, pred) = group_rows(ids, 0, || edges.iter().map(|&(u, v)| (v as usize, u)));
        let row = |start: &[u32], v: usize| start[v] as usize..start[v + 1] as usize;
        let dom = Dominators::new(
            ids,
            base[1..].iter().map(|&next_base| next_base as usize - 1),
            |v| succ[row(&succ_start, v)].iter().map(|&s| s as usize),
            |v| pred[row(&pred_start, v)].iter().map(|&p| p as usize),
        );

        // Frontiers: walk from each predecessor of a join up to the
        // join's immediate dominator. A walk that meets one made earlier
        // for the same join stops there, so no pair repeats.
        let mut walked = vec![NONE; ids];
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for b in 0..ids {
            let preds = &pred[row(&pred_start, b)];
            let Some(idom_b) = dom.idom(b) else {
                continue; // unreachable, or an entry
            };
            if preds.len() < 2 {
                continue; // not a join
            }
            for &p in preds {
                let mut runner = Some(p as usize).filter(|&p| dom.order().number(p).is_some());
                while let Some(r) = runner {
                    if r == idom_b || walked[r] == b as u32 {
                        break;
                    }
                    walked[r] = b as u32;
                    pairs.push((r as u32, b as u32));
                    runner = dom.idom(r);
                }
            }
        }
        let (start, list) =
            group_rows(ids, 0, || pairs.iter().map(|&(v, join)| (v as usize, join)));
        RegionFrontiers {
            base,
            start,
            list,
            dom,
        }
    }

    /// Number of global ids.
    fn ids(&self) -> usize {
        self.start.len() - 1
    }

    /// The frontier of global id `id`.
    fn of(&self, id: u32) -> &[u32] {
        &self.list[self.start[id as usize] as usize..self.start[id as usize + 1] as usize]
    }

    /// The immediate dominator of global id `id` in its region, as a
    /// global id; `None` for a synthetic entry or an unreachable id.
    pub(crate) fn idom_of(&self, id: u32) -> Option<u32> {
        self.dom.idom(id as usize).map(|up| up as u32)
    }
}

/// Places φ-functions for every variable by divide-and-conquer over the
/// PST.
///
/// `collapsed` must come from [`pst_core::collapse_all`] on the same
/// CFG/PST pair.
///
/// Every region's dominance frontiers are built once, up front, into one
/// flat table. Each variable then costs time in proportion to what it
/// touches: its definition blocks, the regions they mark, and the
/// frontier entries its IDF visits.
///
/// # Errors
///
/// Returns an [`SsaError`] when the PST or the collapsed graphs do not
/// belong to `function`'s CFG (a collapsed child region or the synthetic
/// region entry surfaces as a join).
///
/// # Examples
///
/// ```
/// use pst_lang::{parse_program, lower_function};
/// use pst_core::{collapse_all, ProgramStructureTree};
/// use pst_ssa::{place_phis_cytron, place_phis_pst};
/// let p = parse_program(
///     "fn f(n) { s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }"
/// ).unwrap();
/// let l = lower_function(&p.functions[0]).unwrap();
/// let pst = ProgramStructureTree::build(&l.cfg);
/// let collapsed = collapse_all(&l.cfg, &pst);
/// let sparse = place_phis_pst(&l, &pst, &collapsed).unwrap();
/// assert_eq!(sparse.placement, place_phis_cytron(&l)); // Theorem 9
/// ```
pub fn place_phis_pst(
    function: &LoweredFunction,
    pst: &ProgramStructureTree,
    collapsed: &[CollapsedRegion],
) -> Result<PstPhiPlacement, SsaError> {
    let _span = pst_obs::Span::enter("phi_pst");
    place(function, pst, collapsed, &RegionFrontiers::build(collapsed))
}

/// [`place_phis_pst`] over a prebuilt frontier table.
fn place(
    function: &LoweredFunction,
    pst: &ProgramStructureTree,
    collapsed: &[CollapsedRegion],
    frontiers: &RegionFrontiers,
) -> Result<PstPhiPlacement, SsaError> {
    let total_regions = pst.region_count();
    let entry = function.cfg.entry();

    // The global id of every CFG node in its innermost region and of
    // every region in its parent, and what each global id stands for.
    let mut node_id = vec![NONE; function.cfg.node_count()];
    let mut child_id = vec![NONE; total_regions];
    let mut member = vec![SYNTHETIC_ENTRY; frontiers.ids()];
    for (mini, &base) in collapsed.iter().zip(&frontiers.base) {
        for (i, &m) in mini.members.iter().enumerate() {
            let id = base + i as u32;
            member[id as usize] = match m {
                CollapsedNode::Interior(n) => {
                    node_id[n.index()] = id;
                    n.index() as u32
                }
                CollapsedNode::Child(c) => {
                    child_id[c.index()] = id;
                    CHILD
                }
            };
        }
    }

    // One pass over the blocks collects every variable's definition
    // blocks, once each (the paper: "by maintaining a list of definitions
    // for each variable, we can perform the marking step in time
    // proportional to the number of regions marked").
    let mut defs: Vec<(usize, NodeId)> = Vec::new();
    let mut last_block = vec![NONE; function.var_count()];
    for node in function.cfg.graph().nodes() {
        for s in &function.blocks[node.index()].stmts {
            if let Some(d) = s.def {
                if last_block[d.index()] != node.index() as u32 {
                    last_block[d.index()] = node.index() as u32;
                    defs.push((d.index(), node));
                }
            }
        }
    }
    let (def_start, def_blocks) = group_rows(function.var_count(), entry, || defs.iter().copied());

    // Per-variable state, stamped with the variable's number + 1 instead
    // of cleared.
    let mut marked_by = vec![0u32; total_regions];
    let mut queued_by = vec![0u32; frontiers.ids()];
    let mut placed_by = vec![0u32; frontiers.ids()];
    let mut marked = Vec::new();
    let mut work: Vec<u32> = Vec::new();
    let mut phis: Vec<Vec<NodeId>> = Vec::with_capacity(function.var_count());
    let mut regions_examined = Vec::with_capacity(function.var_count());
    for (v, rows) in def_start.windows(2).enumerate() {
        let stamp = v as u32 + 1;
        // The entry's implicit definition marks the root region.
        let def_nodes = def_blocks[rows[0] as usize..rows[1] as usize]
            .iter()
            .copied()
            .chain([entry]);

        // Step 1: mark every region containing an assignment (all
        // ancestors of the defining nodes' innermost regions).
        marked.clear();
        for d in def_nodes.clone() {
            let mut r = Some(pst.region_of_node(d));
            while let Some(region) = r {
                if marked_by[region.index()] == stamp {
                    break;
                }
                marked_by[region.index()] = stamp;
                marked.push(region);
                r = pst.parent(region);
            }
        }
        regions_examined.push(marked.len());

        // Steps 2–3: in each marked region the seeds are its interior
        // definitions and its marked children (a marked child counts as
        // a definition); the region entry is one too, but the synthetic
        // entry dominates its region and so has an empty frontier. The
        // IDF runs over every marked region at once.
        work.clear();
        let seeds = def_nodes.map(|d| node_id[d.index()]).chain(
            marked
                .iter()
                .filter(|r| pst.parent(**r).is_some())
                .map(|c| child_id[c.index()]),
        );
        for id in seeds {
            if queued_by[id as usize] != stamp {
                queued_by[id as usize] = stamp;
                work.push(id);
            }
        }
        let mut result: Vec<NodeId> = Vec::new();
        while let Some(x) = work.pop() {
            for &y in frontiers.of(x) {
                if placed_by[y as usize] == stamp {
                    continue;
                }
                placed_by[y as usize] = stamp;
                match member[y as usize] {
                    CHILD => return Err(SsaError::JoinAtRegionBoundary),
                    SYNTHETIC_ENTRY => return Err(SsaError::JoinAtSyntheticEntry),
                    n => result.push(NodeId::from_index(n as usize)),
                }
                if queued_by[y as usize] != stamp {
                    queued_by[y as usize] = stamp;
                    work.push(y);
                }
            }
        }
        phis.push(result);
    }

    Ok(PstPhiPlacement {
        placement: PhiPlacement::from_lists(phis),
        regions_examined,
        total_regions,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;
    use pst_core::collapse_all;
    use pst_dominators::{dominance_frontiers, dominator_tree, Direction};
    use pst_lang::{lower_function, parse_function_body};
    use pst_workloads::{generate_function, ProgramGenConfig};

    use super::*;
    use crate::place_phis_cytron;

    /// A generated function of about 60 statements, with or without gotos.
    pub(crate) fn generated(seed: u64, goto: bool) -> LoweredFunction {
        let config = ProgramGenConfig {
            target_stmts: 60,
            goto_prob: if goto { 0.12 } else { 0.0 },
            ..Default::default()
        };
        lower_function(&generate_function("p", &config, seed)).unwrap()
    }

    /// Where the flat table first disagrees with `dominance_frontiers`
    /// over each cloned mini graph plus its synthetic entry, compared as
    /// sets.
    fn table_difference(collapsed: &[CollapsedRegion], table: &RegionFrontiers) -> Option<String> {
        for (r, mini) in collapsed.iter().enumerate() {
            let mut g = mini.graph.clone();
            let entry = g.add_node();
            g.add_edge(entry, mini.head);
            let dt = dominator_tree(&g, entry);
            let want = dominance_frontiers(&g, &dt, Direction::Forward);
            let base = table.base[r];
            for (i, want) in want.iter().enumerate() {
                let want: BTreeSet<u32> = want.iter().map(|n| base + n.index() as u32).collect();
                let got: BTreeSet<u32> = table.of(base + i as u32).iter().copied().collect();
                if got != want {
                    return Some(format!("region {r}, mini node {i}: {got:?}, want {want:?}"));
                }
            }
        }
        None
    }

    /// Regions containing a definition block of `var` or the entry,
    /// counted by containment queries rather than by walking parents.
    fn regions_containing_defs(
        l: &LoweredFunction,
        pst: &ProgramStructureTree,
        var: VarId,
    ) -> usize {
        let mut defs = l.definition_sites(var);
        defs.push(l.cfg.entry());
        pst.regions()
            .filter(|&r| defs.iter().any(|&d| pst.contains_node(r, d)))
            .count()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn frontier_table_and_theorem_9_path_match_their_oracles(
            seed in 0u64..100_000,
            goto in 0usize..2,
        ) {
            let l = generated(seed, goto == 1);
            let pst = ProgramStructureTree::build(&l.cfg);
            let collapsed = collapse_all(&l.cfg, &pst);
            let table = RegionFrontiers::build(&collapsed);
            prop_assert_eq!(table_difference(&collapsed, &table), None);
            let sparse = place(&l, &pst, &collapsed, &table).unwrap();
            prop_assert_eq!(&sparse.placement, &place_phis_cytron(&l));
            for v in 0..l.var_count() {
                let var = VarId::from_index(v);
                let want = regions_containing_defs(&l, &pst, var);
                prop_assert_eq!(sparse.regions_examined[v], want);
            }
        }

    }

    #[test]
    fn a_dropped_frontier_entry_fails_the_cytron_comparison() {
        let caught = (0..20u64).any(|seed| {
            let l = generated(seed, seed % 2 == 1);
            let pst = ProgramStructureTree::build(&l.cfg);
            let collapsed = collapse_all(&l.cfg, &pst);
            let table = RegionFrontiers::build(&collapsed);
            let baseline = place_phis_cytron(&l);
            (0..table.list.len()).any(|dropped| {
                let mut mutated = table.clone();
                mutated.list.remove(dropped);
                for s in &mut mutated.start {
                    if *s as usize > dropped {
                        *s -= 1;
                    }
                }
                assert!(table_difference(&collapsed, &mutated).is_some());
                place(&l, &pst, &collapsed, &mutated).map(|p| p.placement) != Ok(baseline.clone())
            })
        });
        assert!(caught, "no dropped frontier entry changed a placement");
    }

    fn both(src: &str) -> (LoweredFunction, PhiPlacement, PstPhiPlacement) {
        let f = parse_function_body(src).unwrap();
        let l = lower_function(&f).unwrap();
        let baseline = place_phis_cytron(&l);
        let pst = ProgramStructureTree::build(&l.cfg);
        let collapsed = collapse_all(&l.cfg, &pst);
        let sparse = place_phis_pst(&l, &pst, &collapsed).unwrap();
        (l, baseline, sparse)
    }

    fn agree(src: &str) {
        let (_, baseline, sparse) = both(src);
        assert_eq!(baseline, sparse.placement, "{src}");
    }

    #[test]
    fn agrees_on_straight_line() {
        agree("x = 1; y = x; return y;");
    }

    #[test]
    fn agrees_on_conditionals() {
        agree("if (c) { x = 1; } else { x = 2; } return x;");
        agree("if (c) { x = 1; } return x;");
        agree("if (c) { if (d) { x = 1; } } else { x = 2; } return x;");
    }

    #[test]
    fn agrees_on_loops() {
        agree("while (n > 0) { n = n - 1; } return n;");
        agree("do { n = n - 1; } while (n > 0); return n;");
        agree("for (i = 0; i < n; i = i + 1) { s = s + i; } return s;");
        agree("while (a) { while (b) { x = x + 1; } y = y + x; } return y;");
    }

    #[test]
    fn agrees_on_switch_and_breaks() {
        agree("switch (x) { case 0: { y = 1; } case 1: { y = 2; } default: { } } return y;");
        agree("while (a) { if (b) { break; } if (c) { continue; } x = x + 1; } return x;");
    }

    #[test]
    fn agrees_on_gotos() {
        agree("top: x = x + 1; if (x < 3) { goto top; } return x;");
        agree(
            "if (c) { goto b; } a: x = x + 1; goto c; b: x = x - 1; c: if (x > 0) { goto a; } return x;",
        );
    }

    #[test]
    fn sparsity_skips_untouched_regions() {
        // `y` is only touched in the top-level straight-line part; the two
        // loop regions must never be examined for it.
        let (l, _, sparse) = both(
            "y = 1;
             while (a) { x = x + 1; }
             while (b) { z = z + 1; }
             return y;",
        );
        let y = l.var_id("y").unwrap();
        let x = l.var_id("x").unwrap();
        assert!(sparse.regions_examined[y.index()] < sparse.total_regions);
        assert!(sparse.regions_examined[y.index()] <= sparse.regions_examined[x.index()]);
        assert!(sparse.fraction_examined(y) < 1.0);
    }

    #[test]
    fn nested_repeat_until_agrees() {
        // The quadratic-DF shape from the paper's §6.1 discussion.
        agree(
            "do { do { do { x = x + 1; } while (a); y = y + x; } while (b); z = z + y; } while (c); return z;",
        );
    }
}
