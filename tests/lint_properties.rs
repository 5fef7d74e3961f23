//! Lint-engine properties over the generated corpus.
//!
//! Two claims ride on the lint engine: it stays *silent* on correct code
//! (no false alarms from the correctness rules on structured generator
//! output), and it stays *linear* (the `lint_*` work counters are bounded
//! by a fixed multiple of the CFG size at every scale, mirroring the
//! paper's O(E) story).
//!
//! The obs registry is process-global; every test that records counters
//! serializes on one lock, and those that measure reset the registry
//! first.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use pst_analysis::{lint_function, lint_graph, LintConfig};
use pst_cfg::CanonicalizeOptions;
use pst_lang::lower_function;
use pst_workloads::{generate_function, random_cfg, ProgramGenConfig};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Holds `OBS_LOCK` for one test or case. A test thread folds its
/// thread-local registries into the global aggregate when it exits,
/// which can be after the next test has reset and started measuring;
/// dropping this guard clears them while the lock is still held.
struct ObsLock {
    _held: MutexGuard<'static, ()>,
}

impl Drop for ObsLock {
    fn drop(&mut self) {
        pst_obs::reset();
    }
}

fn locked() -> ObsLock {
    ObsLock {
        _held: OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner()),
    }
}

proptest! {
    /// Structured generator output is correct by construction: every
    /// variable is seeded before use, control flow is reducible and every
    /// loop is single-entry. The correctness rules (irreducible-loop,
    /// multi-entry-loop, vacuous-branch, uninitialized-use) must not fire
    /// on any of it. The smell rules are explicitly allowed out:
    /// generated code legitimately contains statements cut off by a
    /// `break`/`return` (PST-S003), empty branch arms when the
    /// statement budget runs out mid-block (PST-C002), and loops whose
    /// random bodies never touch the guard variables — the generator
    /// promises well-formedness, not termination, so the
    /// possibly-non-terminating-loop rule (PST-C101) can genuinely fire
    /// on its output; PST-S005 and PST-D002 are silenced for symmetry
    /// so this test pins down exactly the always-silent set.
    #[test]
    fn correctness_rules_are_silent_on_structured_corpus(seed in 0u64..200) {
        let _l = locked();
        let config = ProgramGenConfig {
            goto_prob: 0.0,
            ..ProgramGenConfig::default()
        };
        let function = generate_function("gen", &config, seed);
        let lowered = lower_function(&function).expect("generator output lowers");
        let mut lint_config = LintConfig::new();
        for smell in ["PST-S003", "PST-S005", "PST-C002", "PST-C101", "PST-D002"] {
            lint_config.allow(smell).unwrap();
        }
        let report = lint_function(&lowered, Some(&function), &lint_config);
        prop_assert!(
            report.is_clean(),
            "seed {}: false alarms on clean code: {:?}",
            seed,
            report.diagnostics
        );
    }
}

#[test]
fn graph_lint_counters_scale_linearly_with_edges() {
    let _l = locked();
    assert!(pst_obs::enabled(), "build with the default `obs` feature");
    // Each linear graph-mode rule touches every node and edge at most a
    // constant number of times (reducibility DFS, one SCC pass, a scan of
    // the repair list, one class comparison per out-edge), so total
    // recorded work is bounded by a fixed multiple of E. The strong
    // control-dependence rules (PST-C102/C103) are documented as
    // non-linear and record to `lint_strongdep_work` instead, which is
    // deliberately outside this bound. The sizes span two orders of
    // magnitude in edge count.
    const C: f64 = 8.0;
    let mut edge_counts = Vec::new();
    for n in [20, 200, 2000, 4000] {
        let cfg = random_cfg(n, n / 2, 1994).unwrap();
        pst_obs::reset();
        let lint = lint_graph(
            cfg.graph(),
            cfg.entry(),
            &CanonicalizeOptions::default(),
            &LintConfig::new(),
        )
        .expect("valid CFGs canonicalize");
        assert!(!lint.report.rules_run.is_empty());
        let report = pst_obs::report();
        let e = cfg.edge_count();
        let work = report.counter("lint_structural_work") + report.counter("lint_controldep_work");
        assert!(work > 0, "lint recorded no work at n={n}");
        assert!(
            report.counter("lint_strongdep_work") > 0,
            "strong rules recorded no work at n={n}"
        );
        assert!(
            (work as f64) <= C * e as f64,
            "lint work {work} exceeds {C}*E (E={e}) at n={n}: not linear"
        );
        edge_counts.push(e);
    }
    assert!(edge_counts[edge_counts.len() - 1] >= edge_counts[0] * 100);
}

#[test]
fn function_lint_counters_scale_with_program_size() {
    let _l = locked();
    assert!(pst_obs::enabled(), "build with the default `obs` feature");
    const C: f64 = 8.0;
    for stmts in [40, 400, 4000] {
        let config = ProgramGenConfig {
            target_stmts: stmts,
            goto_prob: 0.0,
            ..ProgramGenConfig::default()
        };
        let function = generate_function("gen", &config, 7);
        let lowered = lower_function(&function).expect("generator output lowers");
        pst_obs::reset();
        let report = lint_function(&lowered, Some(&function), &LintConfig::new());
        assert_eq!(report.rules_run.len(), 9, "all mini rules ran");
        let obs = pst_obs::report();
        let size = lowered.statement_count() + lowered.cfg.node_count() + lowered.cfg.edge_count();
        for family in [
            "lint_structural_work",
            "lint_controldep_work",
            "lint_dataflow_work",
        ] {
            let work = obs.counter(family);
            assert!(work > 0, "{family} recorded nothing at {stmts} stmts");
            assert!(
                (work as f64) <= C * size as f64,
                "{family}={work} exceeds {C}*size (size={size}) at {stmts} stmts"
            );
        }
    }
}
