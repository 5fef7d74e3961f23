//! Shared analysis helpers for the experiment binary: corpus
//! construction, per-procedure PST analysis, and the aggregations behind
//! each figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pst_core::{
    classify_regions, collapse_all, CollapsedRegion, ProgramStructureTree, PstStats,
    RegionClassification, RegionKind,
};
use pst_ssa::{place_phis_cytron, place_phis_pst};
use pst_workloads::{paper_corpus, Corpus, Procedure};

/// The seed every experiment uses, fixed so all outputs are reproducible.
pub const CORPUS_SEED: u64 = 1994;

/// Builds the canonical 254-procedure corpus.
pub fn corpus() -> Corpus {
    paper_corpus(CORPUS_SEED)
}

/// Everything the figures need about one procedure.
pub struct ProcAnalysis<'a> {
    /// The corpus procedure.
    pub procedure: &'a Procedure,
    /// Its program structure tree.
    pub pst: ProgramStructureTree,
    /// Collapsed per-region graphs.
    pub collapsed: Vec<CollapsedRegion>,
    /// Shape statistics (Figures 5, 6, 9).
    pub stats: PstStats,
    /// Region kinds (Figure 7).
    pub classification: RegionClassification,
}

/// Analyzes every procedure of the corpus.
pub fn analyze(corpus: &Corpus) -> Vec<ProcAnalysis<'_>> {
    corpus
        .iter()
        .map(|procedure| {
            let cfg = &procedure.lowered.cfg;
            let pst = ProgramStructureTree::build(cfg);
            let collapsed = collapse_all(cfg, &pst);
            let stats = PstStats::of(&pst);
            let classification = classify_regions(cfg, &pst);
            ProcAnalysis {
                procedure,
                pst,
                collapsed,
                stats,
                classification,
            }
        })
        .collect()
}

/// Figure 10's raw data: for every variable of every procedure, the
/// fraction of PST regions examined during PST-based φ-placement.
/// Also cross-checks the placement against the Cytron baseline.
pub fn phi_fractions(analyses: &[ProcAnalysis<'_>]) -> Vec<f64> {
    let mut fractions = Vec::new();
    for a in analyses {
        let l = &a.procedure.lowered;
        let sparse = place_phis_pst(l, &a.pst, &a.collapsed).expect("CFG/PST pair is consistent");
        let baseline = place_phis_cytron(l);
        assert_eq!(
            baseline, sparse.placement,
            "Theorem 9 violated on a corpus procedure"
        );
        for v in 0..l.var_count() {
            fractions.push(sparse.fraction_examined(pst_lang::VarId::from_index(v)));
        }
    }
    fractions
}

/// Weighted region-kind totals across analyses (Figure 7), in the fixed
/// order block / if-then-else / case / loop / dag / unstructured.
pub fn kind_totals(analyses: &[ProcAnalysis<'_>]) -> Vec<(RegionKind, usize)> {
    let mut totals: Vec<(RegionKind, usize)> = Vec::new();
    for a in analyses {
        for (kind, w) in a.classification.weighted_counts() {
            match totals.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, t)) => *t += w,
                None => totals.push((kind, w)),
            }
        }
    }
    totals
}

/// Renders a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_analyzes_cleanly() {
        let c = corpus();
        let analyses = analyze(&c);
        assert_eq!(analyses.len(), 254);
        let total_regions: usize = analyses.iter().map(|a| a.stats.region_count).sum();
        assert!(total_regions > 1000, "corpus should be region-rich");
    }

    #[test]
    fn phi_fractions_are_probabilities() {
        let c = corpus();
        let analyses = analyze(&c);
        let fr = phi_fractions(&analyses[..20]);
        assert!(!fr.is_empty());
        assert!(fr.iter().all(|&f| (0.0..=1.0).contains(&f)));
    }
}
