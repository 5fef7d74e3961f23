//! [`Budget`], the one work limit every superlinear stage spends from.

use std::fmt;
use std::time::Instant;

/// Steps [`Budget::spend`] may take between two reads of the clock.
const STRIDE: u64 = 1 << 16;

/// A work limit: steps left, a deadline, or both. Each stage documents
/// its step; the graph stages count `N + E + 1` per pass over a graph.
/// [`Budget::spend`] costs one compare and one subtraction, and reads
/// the clock at most once per 65,536 steps.
///
/// The policy, one for every stage:
/// * Running out of **steps** is deterministic. A stage with a
///   documented partial form may return it and memoize it: DOD's
///   `is_complete() == false`, a `pst-verify` checker's
///   `budget_exhausted` ("inconclusive").
/// * Running out of **time** is not. The stage returns
///   `Err(Exhausted::Deadline)` and memoizes nothing, so a cached result
///   never holds work cut short by one caller's clock.
///
/// ```
/// use pst_cfg::{Budget, Exhausted};
/// let mut budget = Budget::steps(10);
/// assert!(budget.spend(10).is_ok());
/// assert_eq!(budget.spend(1), Err(Exhausted::Steps { budget: 10 }));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Steps `spend` may take before it looks at the limits again.
    fuel: u64,
    /// Steps left beyond `fuel`.
    reserve: u64,
    /// The step limit granted; `None` is unlimited.
    granted: Option<u64>,
    deadline: Option<Instant>,
}

impl Budget {
    /// No limit at all.
    pub const UNLIMITED: Budget = Budget {
        fuel: u64::MAX,
        reserve: 0,
        granted: None,
        deadline: None,
    };

    /// A limit of `n` steps.
    pub const fn steps(n: u64) -> Budget {
        Budget {
            fuel: n,
            reserve: 0,
            granted: Some(n),
            deadline: None,
        }
    }

    /// This budget, ending at `deadline` as well.
    pub fn until(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self.refuel(self.left())
    }

    /// This budget with at most `n` steps left, its deadline kept.
    pub fn capped(mut self, n: u64) -> Budget {
        let n = n.min(self.left());
        self.granted = Some(n);
        self.refuel(n)
    }

    /// Takes `n` steps; `spend(0)` takes none but reads the clock, the
    /// check a phase boundary makes. A refused spend takes nothing.
    #[inline]
    pub fn spend(&mut self, n: u64) -> Result<(), Exhausted> {
        if n != 0 && n <= self.fuel {
            self.fuel -= n;
            return Ok(());
        }
        let left = match self.granted {
            None => u64::MAX,
            Some(budget) => self
                .left()
                .checked_sub(n)
                .ok_or(Exhausted::Steps { budget })?,
        };
        if self.deadline.is_some_and(|at| Instant::now() >= at) {
            return Err(Exhausted::Deadline);
        }
        *self = self.refuel(left);
        Ok(())
    }

    fn left(self) -> u64 {
        self.fuel.saturating_add(self.reserve)
    }

    fn refuel(mut self, left: u64) -> Budget {
        self.fuel = self.deadline.map_or(left, |_| left.min(STRIDE));
        self.reserve = left - self.fuel;
        self
    }
}

/// `None` is [`Budget::UNLIMITED`], `Some(n)` is [`Budget::steps`]`(n)`.
impl From<Option<u64>> for Budget {
    fn from(steps: Option<u64>) -> Budget {
        steps.map_or(Budget::UNLIMITED, Budget::steps)
    }
}

/// Which limit of a [`Budget`] ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exhausted {
    /// The step limit ran out.
    Steps {
        /// The limit granted.
        budget: u64,
    },
    /// The deadline passed.
    Deadline,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exhausted::Steps { budget } => write!(f, "ran out of its step budget of {budget}"),
            Exhausted::Deadline => f.write_str("ran past its deadline"),
        }
    }
}

impl std::error::Error for Exhausted {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_step_budget_runs_out_exactly() {
        let mut budget = Budget::steps(10);
        assert_eq!(budget.spend(11), Err(Exhausted::Steps { budget: 10 }));
        // A refused spend takes nothing.
        assert_eq!(budget.spend(4), Ok(()));
        assert_eq!(budget.spend(6), Ok(()));
        assert_eq!(budget.spend(0), Ok(()));
        assert_eq!(budget.spend(1), Err(Exhausted::Steps { budget: 10 }));
        let mut capped = Budget::steps(100).capped(3);
        assert_eq!(capped.spend(3), Ok(()));
        assert_eq!(capped.spend(1), Err(Exhausted::Steps { budget: 3 }));
    }

    #[test]
    fn a_past_deadline_is_caught_within_one_stride() {
        let past = Instant::now();
        let mut budget = Budget::UNLIMITED.until(past);
        assert_eq!(budget.spend(0), Err(Exhausted::Deadline));
        let mut budget = Budget::steps(u64::MAX / 2).until(past);
        let spent = (0..=STRIDE).take_while(|_| budget.spend(1).is_ok()).count();
        assert!(
            spent as u64 <= STRIDE,
            "{spent} steps went past the deadline"
        );
        // A step cap under the same clock keeps it.
        let mut capped = Budget::UNLIMITED.until(past).capped(STRIDE * 4);
        assert_eq!(capped.spend(STRIDE + 1), Err(Exhausted::Deadline));
    }

    #[test]
    fn unlimited_never_runs_out() {
        let mut budget = Budget::UNLIMITED;
        for _ in 0..4 {
            assert_eq!(budget.spend(u64::MAX), Ok(()));
            assert_eq!(budget.spend(0), Ok(()));
        }
        assert!(Budget::from(None).spend(u64::MAX).is_ok());
        assert_eq!(
            Budget::from(Some(2)).spend(3),
            Err(Exhausted::Steps { budget: 2 })
        );
        assert_eq!(
            Exhausted::Steps { budget: 7 }.to_string(),
            "ran out of its step budget of 7"
        );
    }
}
