//! Seeded fault injection: deliberate, minimal corruptions of pipeline
//! artifacts, used to prove the checkers are sound *detectors* rather
//! than tautologies. Compiled only under the `fault-inject` feature.
//!
//! Every mutation is designed to keep the corrupted artifact internally
//! plausible — dense class ids, coherent tree links — so only a checker
//! that re-derives the invariant from the CFG can notice. A checker that
//! merely re-reads the artifact would pass, and the proptests in
//! `tests/fault_injection.rs` would catch that vacuity.

use pst_cfg::NodeId;
use pst_controldep::{Dod, DodWitness, Ntscd, StrongControlDeps};
use pst_core::{ControlRegions, CycleEquiv, RegionId};
use pst_ssa::PhiPlacement;

use crate::pipeline::PipelineArtifacts;
use crate::report::CheckerId;

/// The kinds of deliberate corruption [`inject`] can apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Move one edge of a multi-edge cycle-equivalence class into a
    /// different existing class (mislabels one bracket name).
    SwapBracketNames,
    /// Relabel an entire cycle-equivalence class as another one.
    MergeCycleClasses,
    /// Move one edge of a multi-edge class into a fresh singleton class.
    SplitCycleClass,
    /// Reparent a PST region under a non-ancestor region, recomputing
    /// depths/intervals so the tree stays internally coherent.
    ReparentRegion,
    /// Remove one φ site from the computed placement.
    DropPhiSite,
    /// Merge two control regions into one.
    MergeControlRegions,
    /// Insert one `(node, branch)` pair the NTSCD relation does not
    /// contain.
    AddSpuriousNtscdDep,
    /// Append a fabricated DOD witness triple.
    ForgeDodWitness,
}

impl FaultKind {
    /// Every fault kind, for table-driven tests.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::SwapBracketNames,
        FaultKind::MergeCycleClasses,
        FaultKind::SplitCycleClass,
        FaultKind::ReparentRegion,
        FaultKind::DropPhiSite,
        FaultKind::MergeControlRegions,
        FaultKind::AddSpuriousNtscdDep,
        FaultKind::ForgeDodWitness,
    ];

    /// Stable lowercase name (used by the CLI's `--inject-fault`).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SwapBracketNames => "swap-bracket-names",
            FaultKind::MergeCycleClasses => "merge-cycle-classes",
            FaultKind::SplitCycleClass => "split-cycle-class",
            FaultKind::ReparentRegion => "reparent-region",
            FaultKind::DropPhiSite => "drop-phi-site",
            FaultKind::MergeControlRegions => "merge-control-regions",
            FaultKind::AddSpuriousNtscdDep => "add-spurious-ntscd-dep",
            FaultKind::ForgeDodWitness => "forge-dod-witness",
        }
    }

    /// Parses a [`name`](Self::name) back into a kind.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The checker this fault is designed to trip. Other checkers may
    /// also notice (a corrupted partition ruins region detection's
    /// bookkeeping too), but this one *must*.
    pub fn intended_checker(self) -> CheckerId {
        match self {
            FaultKind::SwapBracketNames
            | FaultKind::MergeCycleClasses
            | FaultKind::SplitCycleClass => CheckerId::CycleEquiv,
            FaultKind::ReparentRegion => CheckerId::Pst,
            FaultKind::DropPhiSite => CheckerId::Phi,
            FaultKind::MergeControlRegions => CheckerId::ControlRegions,
            FaultKind::AddSpuriousNtscdDep => CheckerId::Ntscd,
            FaultKind::ForgeDodWitness => CheckerId::Dod,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded, reproducible corruption: the same plan applied to the same
/// artifacts always mutates the same way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// What to corrupt.
    pub kind: FaultKind,
    /// Picks *which* edge/class/region/φ-site is corrupted.
    pub seed: u64,
}

/// Minimal deterministic generator (SplitMix64) so fault selection does
/// not pull the `rand` crate into a non-test dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish pick from a non-empty slice.
    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next() % items.len() as u64) as usize]
    }
}

/// Applies `plan` to `artifacts`, corrupting exactly one artifact.
///
/// Returns a description of what was done, or `None` when the input is
/// too degenerate for this fault to apply (e.g. splitting a class when
/// every class is a singleton) — the artifacts are untouched in that
/// case. Inapplicability is *structural*, so callers can skip rather
/// than fail.
pub fn inject(artifacts: &mut PipelineArtifacts, plan: &FaultPlan) -> Option<String> {
    let mut rng = SplitMix64(plan.seed ^ 0xda94_2042_e4dd_58b5);
    match plan.kind {
        FaultKind::SwapBracketNames => {
            // Move one edge out of a multi-edge class into another class:
            // after renumbering, the partition genuinely differs (moving
            // between two singletons would merely rename labels).
            let labels = artifacts.detection.cycle_equiv.classes().to_vec();
            let groups = artifacts.detection.cycle_equiv.groups();
            let donors: Vec<usize> = (0..groups.len())
                .filter(|&c| groups[c].len() >= 2)
                .collect();
            if donors.is_empty() || groups.len() < 2 {
                return None;
            }
            let donor = *rng.pick(&donors);
            let edge = *rng.pick(&groups[donor]);
            let others: Vec<u32> = (0..groups.len() as u32)
                .filter(|&c| c as usize != donor)
                .collect();
            let target = *rng.pick(&others);
            let mut mutated = labels;
            mutated[edge.index()] = target;
            artifacts.detection.cycle_equiv = CycleEquiv::from_classes(mutated);
            Some(format!(
                "moved edge {edge} from cycle-equivalence class {donor} to class {target}"
            ))
        }
        FaultKind::MergeCycleClasses => {
            let labels = artifacts.detection.cycle_equiv.classes().to_vec();
            let num = artifacts.detection.cycle_equiv.num_classes();
            if num < 2 {
                return None;
            }
            let a = rng.next() % num as u64;
            let b = (a + 1 + rng.next() % (num as u64 - 1)) % num as u64;
            let mutated: Vec<u32> = labels
                .into_iter()
                .map(|l| if l as u64 == b { a as u32 } else { l })
                .collect();
            artifacts.detection.cycle_equiv = CycleEquiv::from_classes(mutated);
            Some(format!("merged cycle-equivalence class {b} into class {a}"))
        }
        FaultKind::SplitCycleClass => {
            let labels = artifacts.detection.cycle_equiv.classes().to_vec();
            let groups = artifacts.detection.cycle_equiv.groups();
            let splittable: Vec<usize> = (0..groups.len())
                .filter(|&c| groups[c].len() >= 2)
                .collect();
            if splittable.is_empty() {
                return None;
            }
            let class = *rng.pick(&splittable);
            let edge = *rng.pick(&groups[class]);
            let mut mutated = labels;
            mutated[edge.index()] = groups.len() as u32;
            artifacts.detection.cycle_equiv = CycleEquiv::from_classes(mutated);
            Some(format!(
                "split edge {edge} out of cycle-equivalence class {class}"
            ))
        }
        FaultKind::ReparentRegion => {
            let pst = &mut artifacts.pst;
            // Every (region, new-parent) pair fault_reparent accepts:
            // non-root region, destination outside the region's subtree,
            // destination not already the parent.
            let mut candidates: Vec<(RegionId, RegionId)> = Vec::new();
            for r in pst.regions() {
                if pst.parent(r).is_none() {
                    continue;
                }
                for p in pst.regions() {
                    if p != r && pst.parent(r) != Some(p) && !pst.region_contains(r, p) {
                        candidates.push((r, p));
                    }
                }
            }
            if candidates.is_empty() {
                return None;
            }
            let &(region, new_parent) = rng.pick(&candidates);
            let applied = pst.fault_reparent(region, new_parent);
            debug_assert!(applied, "candidate enumeration mirrors the guards");
            Some(format!("reparented {region} under {new_parent}"))
        }
        FaultKind::DropPhiSite => {
            let mut lists: Vec<Vec<_>> = artifacts
                .phi
                .iter()
                .map(|(_, nodes)| nodes.to_vec())
                .collect();
            let occupied: Vec<usize> = (0..lists.len()).filter(|&v| !lists[v].is_empty()).collect();
            if occupied.is_empty() {
                return None;
            }
            let var = *rng.pick(&occupied);
            let at = (rng.next() % lists[var].len() as u64) as usize;
            let node = lists[var].remove(at);
            artifacts.phi = PhiPlacement::from_lists(lists);
            Some(format!(
                "dropped the φ for variable v{var} at node {}",
                node.index()
            ))
        }
        FaultKind::MergeControlRegions => {
            let labels = artifacts.control_regions.classes().to_vec();
            let num = artifacts.control_regions.num_classes();
            if num < 2 {
                return None;
            }
            let a = rng.next() % num as u64;
            let b = (a + 1 + rng.next() % (num as u64 - 1)) % num as u64;
            let mutated: Vec<u32> = labels
                .into_iter()
                .map(|l| if l as u64 == b { a as u32 } else { l })
                .collect();
            artifacts.control_regions = ControlRegions::from_classes(mutated);
            Some(format!("merged control region {b} into region {a}"))
        }
        FaultKind::AddSpuriousNtscdDep => {
            let n = artifacts.cfg().node_count();
            if n == 0 {
                return None;
            }
            let mut deps = artifacts.strong.ntscd().clone().into_raw();
            // Scan from a random offset for a (node, branch) pair the
            // relation does not contain; only a complete relation (every
            // node depending on every node) leaves nothing to add.
            let total = n * n;
            let start = (rng.next() % total as u64) as usize;
            let mut found = None;
            for k in 0..total {
                let idx = (start + k) % total;
                let (node, branch) = (idx / n, idx % n);
                if let Err(pos) = deps[node].binary_search(&NodeId::from_index(branch)) {
                    found = Some((node, branch, pos));
                    break;
                }
            }
            let (node, branch, pos) = found?;
            deps[node].insert(pos, NodeId::from_index(branch));
            artifacts.strong = StrongControlDeps::from_parts(
                Ntscd::from_raw(deps),
                artifacts.strong.dod().clone(),
                artifacts.strong.classic().cloned(),
            );
            Some(format!(
                "added a spurious NTSCD dependence of node {node} on node {branch}"
            ))
        }
        FaultKind::ForgeDodWitness => {
            let n = artifacts.cfg().node_count();
            if n < 3 {
                return None;
            }
            let mut witnesses = artifacts.strong.dod().clone().into_raw();
            let complete = artifacts.strong.dod().is_complete();
            for _attempt in 0..64 {
                let p = (rng.next() % n as u64) as usize;
                let x = (rng.next() % n as u64) as usize;
                let y = (rng.next() % n as u64) as usize;
                if x == y {
                    continue;
                }
                let (a, b) = if x < y { (x, y) } else { (y, x) };
                let forged = DodWitness {
                    branch: NodeId::from_index(p),
                    first: NodeId::from_index(a),
                    second: NodeId::from_index(b),
                };
                let Err(pos) = witnesses.binary_search(&forged) else {
                    continue;
                };
                witnesses.insert(pos, forged);
                artifacts.strong = StrongControlDeps::from_parts(
                    artifacts.strong.ntscd().clone(),
                    Dod::from_raw(witnesses, complete),
                    artifacts.strong.classic().cloned(),
                );
                return Some(format!("forged a DOD witness ({p}; {a}, {b})"));
            }
            None
        }
    }
}
