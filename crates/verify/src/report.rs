//! Structured verification verdicts.
//!
//! Checkers never panic: each returns a [`ViolationReport`] listing what
//! it found (or that its oracle ran out of budget), and
//! [`VerifyReport`](crate::VerifyReport) aggregates one report per
//! checker so callers can render, count, or map the outcome onto an exit
//! code.

/// Identifies one of the independent pipeline checkers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckerId {
    /// Edge cycle equivalence vs. the slow undirected oracle (Definition 3).
    CycleEquiv,
    /// SESE conditions per canonical region via dom/pdom (Definition, Thm 2).
    Sese,
    /// PST structural coherence and proper nesting (Theorem 1).
    Pst,
    /// Control regions vs. the CDG baseline partition (Theorem 7).
    ControlRegions,
    /// PST φ-placement vs. the Cytron baseline (Theorem 9).
    Phi,
    /// NTSCD vs. the naive maximal-path oracle (plus classic-CD
    /// equivalence on acyclic graphs).
    Ntscd,
    /// DOD witnesses vs. exhaustive maximal-path enumeration.
    Dod,
}

impl CheckerId {
    /// All checkers, in pipeline order.
    pub const ALL: [CheckerId; 7] = [
        CheckerId::CycleEquiv,
        CheckerId::Sese,
        CheckerId::Pst,
        CheckerId::ControlRegions,
        CheckerId::Phi,
        CheckerId::Ntscd,
        CheckerId::Dod,
    ];

    /// Stable lowercase name (used in reports, counters, and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            CheckerId::CycleEquiv => "cycle-equiv",
            CheckerId::Sese => "sese",
            CheckerId::Pst => "pst",
            CheckerId::ControlRegions => "control-regions",
            CheckerId::Phi => "phi",
            CheckerId::Ntscd => "ntscd",
            CheckerId::Dod => "dod",
        }
    }
}

impl std::fmt::Display for CheckerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reports keep at most this many violation messages; further violations
/// are only counted, so a badly corrupted input cannot balloon memory.
pub const MAX_RECORDED_VIOLATIONS: usize = 16;

/// Outcome of running one checker over one pipeline's artifacts.
#[derive(Clone, Debug)]
pub struct ViolationReport {
    /// Which checker produced this report.
    pub checker: CheckerId,
    /// Human-readable violation descriptions (first
    /// [`MAX_RECORDED_VIOLATIONS`] only).
    pub violations: Vec<String>,
    /// Total violations found, including ones not recorded.
    pub violation_count: usize,
    /// The checker's oracle ran out of its [`pst_cfg::Budget`] and the
    /// check is *inconclusive* (no violations were established).
    pub budget_exhausted: bool,
}

impl ViolationReport {
    /// A fresh, clean report for `checker`.
    pub fn new(checker: CheckerId) -> Self {
        ViolationReport {
            checker,
            violations: Vec::new(),
            violation_count: 0,
            budget_exhausted: false,
        }
    }

    /// Records one violation (message kept only below the cap).
    pub fn push(&mut self, message: String) {
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(message);
        }
        self.violation_count += 1;
    }

    /// Whether the checker found no violations (an exhausted budget still
    /// counts as "no violation" — the check is inconclusive, not failed).
    pub fn is_clean(&self) -> bool {
        self.violation_count == 0
    }
}

impl std::fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            if self.budget_exhausted {
                write!(
                    f,
                    "{}: inconclusive (oracle budget exhausted)",
                    self.checker
                )
            } else {
                write!(f, "{}: ok", self.checker)
            }
        } else {
            writeln!(f, "{}: {} violation(s)", self.checker, self.violation_count)?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            if self.violation_count > self.violations.len() {
                writeln!(
                    f,
                    "  … and {} more",
                    self.violation_count - self.violations.len()
                )?;
            }
            Ok(())
        }
    }
}

/// Aggregated verdict of all checkers over one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// One report per checker that ran, in pipeline order.
    pub reports: Vec<ViolationReport>,
}

impl VerifyReport {
    /// Whether every checker came back clean.
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(|r| r.is_clean())
    }

    /// Total violations across all checkers.
    pub fn violation_count(&self) -> usize {
        self.reports.iter().map(|r| r.violation_count).sum()
    }

    /// Checkers whose oracle budget ran out (inconclusive checks).
    pub fn exhausted_checkers(&self) -> Vec<CheckerId> {
        self.reports
            .iter()
            .filter(|r| r.budget_exhausted)
            .map(|r| r.checker)
            .collect()
    }

    /// Checkers that found at least one violation.
    pub fn failing_checkers(&self) -> Vec<CheckerId> {
        self.reports
            .iter()
            .filter(|r| !r.is_clean())
            .map(|r| r.checker)
            .collect()
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in &self.reports {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_caps_recorded_messages() {
        let mut r = ViolationReport::new(CheckerId::Pst);
        for i in 0..MAX_RECORDED_VIOLATIONS + 5 {
            r.push(format!("violation {i}"));
        }
        assert_eq!(r.violations.len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(r.violation_count, MAX_RECORDED_VIOLATIONS + 5);
        assert!(!r.is_clean());
        assert!(r.to_string().contains("and 5 more"));
    }

    #[test]
    fn clean_and_exhausted_render() {
        let mut r = ViolationReport::new(CheckerId::CycleEquiv);
        assert!(r.is_clean());
        assert_eq!(r.to_string(), "cycle-equiv: ok");
        r.budget_exhausted = true;
        assert!(r.is_clean(), "budget exhaustion is not a violation");
        assert!(r.to_string().contains("inconclusive"));
    }

    #[test]
    fn aggregate_verdicts() {
        let mut v = VerifyReport::default();
        v.reports.push(ViolationReport::new(CheckerId::Sese));
        assert!(v.is_clean());
        let mut bad = ViolationReport::new(CheckerId::Phi);
        bad.push("missing φ".to_string());
        v.reports.push(bad);
        assert!(!v.is_clean());
        assert_eq!(v.violation_count(), 1);
        assert_eq!(v.failing_checkers(), vec![CheckerId::Phi]);
        assert!(v.reports[0].is_clean());
    }
}
