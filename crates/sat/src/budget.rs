//! Resource budgets for bounded solving.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The work one solve has charged so far. [`Budget::child`] makes it
/// when a cap is set, and every clone and child of that budget charges
/// the same counters.
#[derive(Debug, Default)]
struct WorkPool {
    conflicts: AtomicU64,
    propagations: AtomicU64,
}

/// Limits on how much work a solve may perform before giving up with
/// [`crate::SolveOutcome::Unknown`].
///
/// A default budget is unlimited. Budgets make "aborted instances"
/// (Table 1 / Table 2 of the paper) measurable and deterministic when
/// expressed in conflicts rather than seconds.
///
/// Every limit covers the whole solve the budget is handed to.
/// [`Budget::child`] turns a timeout into that solve's deadline and the
/// conflict and propagation caps into its one work pool, and every
/// clone, child, SAT call, stage and portfolio member of the solve
/// charges that pool. For a bare [`crate::Solver`], one `solve` call is
/// the whole solve. A single-threaded solve limited only by caps depends
/// on no clock, so where it stops repeats from run to run.
///
/// Besides the passive caps, a budget may carry a **cooperative stop
/// flag** ([`Budget::with_stop_flag`]): a shared [`AtomicBool`] that any
/// thread can raise to interrupt the solve. The solver polls it inside
/// the propagation loop (every 1,024 propagations), so cancellation
/// lands within a bounded amount of work even in the middle of a long
/// implication chain — the mechanism the parallel portfolio uses to halt
/// losing configurations the moment a winner commits.
///
/// # Examples
///
/// ```
/// use coremax_sat::Budget;
/// use std::time::Duration;
/// let b = Budget::new()
///     .with_max_conflicts(10_000)
///     .with_timeout(Duration::from_secs(5));
/// assert_eq!(b.max_conflicts(), Some(10_000));
/// ```
///
/// Cooperative cancellation:
///
/// ```
/// use coremax_sat::Budget;
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
/// let stop = Arc::new(AtomicBool::new(false));
/// let b = Budget::new().with_stop_flag(stop.clone());
/// assert!(!b.stop_requested());
/// stop.store(true, Ordering::Relaxed);
/// assert!(b.stop_requested());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    max_conflicts: Option<u64>,
    max_propagations: Option<u64>,
    timeout: Option<Duration>,
    deadline: Option<Instant>,
    // Cooperative stop flags. More than one can accumulate when budgets
    // are layered (a caller's flag plus the portfolio's race flag);
    // `stop_requested` honours any of them.
    stop: Vec<Arc<AtomicBool>>,
    // The running solve's work pool; `None` until `child` starts a
    // capped solve.
    pool: Option<Arc<WorkPool>>,
}

impl Budget {
    /// An unlimited budget.
    #[must_use]
    pub fn new() -> Self {
        Budget::default()
    }

    /// Caps the conflicts of the whole solve. On a budget that already
    /// meters a solve (one made by [`Budget::child`]), the cap bounds
    /// that solve's total since it started.
    #[must_use]
    pub fn with_max_conflicts(mut self, conflicts: u64) -> Self {
        self.max_conflicts = Some(conflicts);
        self
    }

    /// Caps the propagations of the whole solve, metered like
    /// [`Budget::with_max_conflicts`].
    #[must_use]
    pub fn with_max_propagations(mut self, propagations: u64) -> Self {
        self.max_propagations = Some(propagations);
        self
    }

    /// Caps wall-clock time. The clock starts at the solve the budget
    /// is handed to.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Caps wall-clock time with an absolute deadline (shared across
    /// several solver invocations, e.g. one MaxSAT run).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cooperative stop flag: raising it (from any thread)
    /// interrupts the solve with [`crate::SolveOutcome::Unknown`] within
    /// a bounded number of propagations. Flags accumulate — a budget
    /// layered by several owners (caller timeout + portfolio race)
    /// honours every attached flag.
    #[must_use]
    pub fn with_stop_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.stop.push(flag);
        self
    }

    /// The conflict cap, if any.
    #[must_use]
    pub fn max_conflicts(&self) -> Option<u64> {
        self.max_conflicts
    }

    /// The propagation cap, if any.
    #[must_use]
    pub fn max_propagations(&self) -> Option<u64> {
        self.max_propagations
    }

    /// The absolute deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Returns `true` if any attached stop flag has been raised.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        self.stop.iter().any(|f| f.load(Ordering::Relaxed))
    }

    /// Charges work to the solve's pool and returns `true` once the
    /// pool's total reaches a cap. Solvers call it at their polling
    /// points with the work done since their previous charge. Without a
    /// pool it charges nothing and returns `false`.
    #[must_use]
    pub fn charge(&self, conflicts: u64, propagations: u64) -> bool {
        let Some(pool) = &self.pool else {
            return false;
        };
        let c = pool.conflicts.fetch_add(conflicts, Ordering::Relaxed) + conflicts;
        let p = pool.propagations.fetch_add(propagations, Ordering::Relaxed) + propagations;
        self.capped_at(c, p)
    }

    /// Returns `true` once the solve's pool has reached a cap. Reads no
    /// clock.
    pub(crate) fn work_spent(&self) -> bool {
        self.pool.as_ref().is_some_and(|pool| {
            self.capped_at(
                pool.conflicts.load(Ordering::Relaxed),
                pool.propagations.load(Ordering::Relaxed),
            )
        })
    }

    fn capped_at(&self, conflicts: u64, propagations: u64) -> bool {
        self.max_conflicts.is_some_and(|m| conflicts >= m)
            || self.max_propagations.is_some_and(|m| propagations >= m)
    }

    /// Returns `true` if no limit is set at all (and no stop flag is
    /// attached).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_conflicts.is_none()
            && self.max_propagations.is_none()
            && self.timeout.is_none()
            && self.deadline.is_none()
            && self.stop.is_empty()
    }

    /// Resolves the effective deadline given a solve start time: the
    /// earlier of `start + timeout` and the absolute deadline.
    #[must_use]
    pub fn effective_deadline(&self, start: Instant) -> Option<Instant> {
        match (self.timeout.map(|t| start + t), self.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Returns `true` when a stop flag has been raised, the solve's
    /// work pool has reached a cap, or the absolute deadline has passed
    /// — the between-SAT-calls poll MaxSAT drivers use to abort a run
    /// without starting another sub-solve. Only the *absolute* deadline
    /// and an existing pool are consulted (resolve a relative timeout
    /// and start the pool with [`Budget::child`] first).
    #[must_use]
    pub fn interrupted(&self) -> bool {
        self.stop_requested()
            || self.work_spent()
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Derives the budget of a solve that starts at `start`, or of a
    /// part of it: the wall-clock limits collapse to an absolute
    /// deadline anchored at `start`, and the caps get the solve's work
    /// pool, made here unless the budget already carries one. The caps
    /// and stop flags carry over. So every SAT call, stage and
    /// portfolio member handed the result (or a clone, or a child of
    /// it) shares one clock and one pool.
    ///
    /// This is the one way child budgets should be built — constructing
    /// `Budget::new().with_deadline(..)` by hand silently severs the
    /// cancellation chain and the pool.
    #[must_use]
    pub fn child(&self, start: Instant) -> Budget {
        let capped = self.max_conflicts.is_some() || self.max_propagations.is_some();
        Budget {
            max_conflicts: self.max_conflicts,
            max_propagations: self.max_propagations,
            timeout: None,
            deadline: self.effective_deadline(start),
            stop: self.stop.clone(),
            pool: self.pool.clone().or_else(|| capped.then(Arc::default)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        assert!(Budget::new().is_unlimited());
        assert_eq!(Budget::new().max_conflicts(), None);
        assert!(!Budget::new().stop_requested());
    }

    #[test]
    fn builders_set_fields() {
        let b = Budget::new()
            .with_max_conflicts(5)
            .with_max_propagations(7)
            .with_timeout(Duration::from_millis(100));
        assert!(!b.is_unlimited());
        assert_eq!(b.max_conflicts(), Some(5));
        assert_eq!(b.max_propagations(), Some(7));
        let start = Instant::now();
        assert_eq!(
            b.effective_deadline(start),
            Some(start + Duration::from_millis(100))
        );
    }

    #[test]
    fn effective_deadline_takes_minimum() {
        let start = Instant::now();
        let d1 = start + Duration::from_secs(10);
        let b = Budget::new()
            .with_timeout(Duration::from_secs(60))
            .with_deadline(d1);
        assert_eq!(b.effective_deadline(start), Some(d1));

        let b2 = Budget::new().with_timeout(Duration::from_secs(1));
        assert_eq!(
            b2.effective_deadline(start),
            Some(start + Duration::from_secs(1))
        );

        assert_eq!(Budget::new().effective_deadline(start), None);
    }

    #[test]
    fn stop_flag_is_shared_and_budget_not_unlimited() {
        let stop = Arc::new(AtomicBool::new(false));
        let b = Budget::new().with_stop_flag(stop.clone());
        assert!(!b.is_unlimited(), "a stop flag is a limit");
        let clone = b.clone();
        stop.store(true, Ordering::Relaxed);
        assert!(b.stop_requested());
        assert!(clone.stop_requested(), "clones share the flag");
    }

    #[test]
    fn multiple_stop_flags_accumulate() {
        let a = Arc::new(AtomicBool::new(false));
        let b = Arc::new(AtomicBool::new(false));
        let budget = Budget::new()
            .with_stop_flag(a.clone())
            .with_stop_flag(b.clone());
        assert!(!budget.stop_requested());
        b.store(true, Ordering::Relaxed);
        assert!(budget.stop_requested(), "any raised flag interrupts");
    }

    #[test]
    fn shared_caps_meter_jointly_and_survive_child() {
        let b = Budget::new().with_max_conflicts(10);
        assert!(!b.is_unlimited());
        // `child` starts the solve's pool; a child of a child, and every
        // clone, charges the same one.
        let run = b.child(Instant::now());
        let stage = run.child(Instant::now());
        assert!(!run.charge(6, 100));
        assert!(stage.clone().charge(4, 0), "joint total hits the cap");
        assert!(run.work_spent(), "exhaustion is visible to all");
        assert!(run.interrupted());
        assert!(run.charge(0, 0), "exhaustion is sticky");
        // The budget itself meters no solve: the next solve it is handed
        // to starts a fresh pool.
        assert!(!b.interrupted());
        assert!(!b.charge(100, 100));
        assert!(!b.child(Instant::now()).interrupted());
    }

    #[test]
    fn shared_caps_noop_when_both_none() {
        // Without a cap no pool is made: charging does nothing.
        let b = Budget::new().child(Instant::now());
        assert!(b.is_unlimited());
        assert!(!b.charge(1_000_000, 1_000_000));
        assert!(!b.interrupted());
    }

    #[test]
    fn a_cap_of_zero_is_spent_before_any_work() {
        for b in [
            Budget::new().with_max_conflicts(0),
            Budget::new().with_max_propagations(0),
        ] {
            assert!(b.child(Instant::now()).interrupted());
        }
    }

    #[test]
    fn a_cap_added_inside_a_solve_bounds_the_solve_total() {
        let run = Budget::new().with_max_conflicts(100).child(Instant::now());
        assert!(!run.charge(30, 0));
        let tighter = run.clone().with_max_conflicts(30);
        assert!(tighter.interrupted(), "the solve has spent 30 already");
        assert!(!run.interrupted());
        let props = run.clone().with_max_propagations(5);
        assert!(props.charge(0, 5), "the pool counts every cap's work");
        assert!(!run.interrupted());
    }

    #[test]
    fn child_resolves_deadline_and_keeps_stop_flags() {
        let stop = Arc::new(AtomicBool::new(false));
        let start = Instant::now();
        let b = Budget::new()
            .with_timeout(Duration::from_secs(3))
            .with_max_conflicts(99)
            .with_stop_flag(stop.clone());
        let child = b.child(start);
        assert_eq!(child.deadline(), Some(start + Duration::from_secs(3)));
        // The timeout became the deadline: a later start does not move it.
        assert_eq!(
            child.effective_deadline(start + Duration::from_secs(1)),
            Some(start + Duration::from_secs(3))
        );
        assert_eq!(child.max_conflicts(), Some(99), "caps carry over");
        assert_eq!(child.max_propagations(), None);
        stop.store(true, Ordering::Relaxed);
        assert!(child.stop_requested(), "child budgets share the flag");

        let unlimited = Budget::new().child(start);
        assert!(unlimited.is_unlimited());
    }
}
