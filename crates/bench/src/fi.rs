//! `coremax_fi` — fault injection for the anytime-soundness contract.
//!
//! Graceful degradation is a *proven* property here, not a hoped-for
//! one: this module arms budget-level faults (stop flags raised from a
//! concurrent thread at a randomized instant, already-expired and
//! near-expired deadlines, whole-solve conflict and propagation caps)
//! against any [`MaxSatSolver`] and checks the returned solution
//! against the soundness invariants every budget-exhausted solve must
//! satisfy:
//!
//! 1. never a wrong exact verdict — `Optimal` must name the true
//!    optimum and `Infeasible` must only appear on truly infeasible
//!    instances, no matter where the fault landed;
//! 2. a returned incumbent satisfies the hard clauses at *exactly* its
//!    reported cost (an upper-bound certificate);
//! 3. the certified interval brackets the truth:
//!    `lower_bound ≤ optimum ≤ incumbent_cost`.
//!
//! The checks are driven by the proptest harness in
//! `tests/prop_fault_injection.rs`, with the exhaustive oracle deciding
//! the ground truth on small instances.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use coremax::{verify_solution, MaxSatSolution, MaxSatStatus};
use coremax_cnf::{Assignment, WcnfFormula, Weight};
use coremax_sat::Budget;

/// One injectable fault, expressed as a budget restriction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Stop flag already raised when the solve starts: the solver must
    /// back off immediately (this is the path that exercises
    /// cancellation *before* preprocessing and mid-pipeline polls).
    StopImmediately,
    /// Stop flag raised from a concurrent thread after a randomized
    /// delay — lands at an arbitrary point of the run: mid-simplify,
    /// mid-GC, mid-search, or inside a portfolio worker.
    StopAfter(Duration),
    /// Wall-clock deadline this far in the future (possibly zero).
    Deadline(Duration),
    /// Conflict cap on the whole solve: every SAT call of the run (and
    /// every portfolio member) charges one pool, and the run stops once
    /// it is spent.
    ConflictCap(u64),
    /// Propagation cap on the whole solve, metered like
    /// [`Fault::ConflictCap`]; it fires inside the propagation loop, the
    /// innermost injection point available.
    PropagationCap(u64),
}

/// Handle to the thread a [`Fault::StopAfter`] spawned; join it after
/// the solve so proptest iterations do not leak threads.
#[derive(Debug)]
pub struct FaultThread(JoinHandle<()>);

impl FaultThread {
    /// Waits for the flag-raising thread to finish.
    pub fn join(self) {
        let _ = self.0.join();
    }
}

/// Arms `fault` as a [`Budget`]. The caps are armed as shared caps
/// ([`Budget::with_shared_caps`]): a per-call cap would not reach a
/// driver's SAT calls, because [`Budget::child`] drops it. For
/// [`Fault::StopAfter`] the returned handle must be joined once the
/// solve returns.
#[must_use]
pub fn armed_budget(fault: &Fault) -> (Budget, Option<FaultThread>) {
    match fault {
        Fault::StopImmediately => {
            let flag = Arc::new(AtomicBool::new(true));
            (Budget::new().with_stop_flag(flag), None)
        }
        Fault::StopAfter(delay) => {
            let flag = Arc::new(AtomicBool::new(false));
            let armed = flag.clone();
            let delay = *delay;
            let handle = std::thread::spawn(move || {
                std::thread::sleep(delay);
                armed.store(true, Ordering::Relaxed);
            });
            (
                Budget::new().with_stop_flag(flag),
                Some(FaultThread(handle)),
            )
        }
        Fault::Deadline(timeout) => (Budget::new().with_timeout(*timeout), None),
        Fault::ConflictCap(cap) => (Budget::new().with_shared_caps(Some(*cap), None), None),
        Fault::PropagationCap(cap) => (Budget::new().with_shared_caps(None, Some(*cap)), None),
    }
}

/// Exhaustive oracle: minimum cost over all assignments, `None` when
/// the hard clauses are unsatisfiable.
///
/// # Panics
///
/// Panics on more than 16 variables (the scan is `2^n`).
#[must_use]
pub fn exhaustive_optimum(w: &WcnfFormula) -> Option<Weight> {
    let n = w.num_vars();
    assert!(n <= 16, "oracle is exponential; keep instances small");
    let mut best: Option<Weight> = None;
    for bits in 0u32..(1 << n) {
        let values: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        if let Some(cost) = w.cost(&Assignment::from_bools(&values)) {
            best = Some(best.map_or(cost, |b: Weight| b.min(cost)));
        }
    }
    best
}

/// Checks the anytime-soundness invariants of `s` on `w` against the
/// oracle's `optimum` (`None` = hard-infeasible).
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_anytime_sound(
    w: &WcnfFormula,
    s: &MaxSatSolution,
    optimum: Option<Weight>,
) -> Result<(), String> {
    if !verify_solution(w, s) {
        return Err(format!(
            "solution failed verification: status={:?} cost={:?} lb={}",
            s.status, s.cost, s.lower_bound
        ));
    }
    match s.status {
        MaxSatStatus::Optimal => {
            if s.cost != optimum {
                return Err(format!(
                    "wrong Optimal: reported {:?}, oracle {:?}",
                    s.cost, optimum
                ));
            }
        }
        MaxSatStatus::Infeasible => {
            if optimum.is_some() {
                return Err(format!("wrong Infeasible: oracle optimum is {optimum:?}"));
            }
        }
        MaxSatStatus::Unknown => {
            if let Some(opt) = optimum {
                if s.lower_bound > opt {
                    return Err(format!(
                        "lower bound {} exceeds the true optimum {opt}",
                        s.lower_bound
                    ));
                }
                if let Some(cost) = s.cost {
                    if cost < opt {
                        return Err(format!(
                            "incumbent cost {cost} beats the true optimum {opt}"
                        ));
                    }
                }
            } else if s.model.is_some() {
                // verify_solution already rejects an incumbent that
                // violates a hard clause; on an infeasible instance no
                // model can cost anything, so this arm is defensive.
                return Err("incumbent reported on a hard-infeasible instance".into());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax::{MaxSatSolver, MaxSatStats, Wmsu1};
    use coremax_cnf::{dimacs, Lit};

    #[test]
    fn armed_stop_flag_interrupts() {
        let w = dimacs::parse_wcnf("p wcnf 2 4\n3 1 0\n4 -1 0\n2 2 0\n5 -2 0\n").unwrap();
        let (budget, thread) = armed_budget(&Fault::StopImmediately);
        assert!(thread.is_none());
        let mut solver = Wmsu1::new();
        solver.set_budget(budget);
        let s = solver.solve(&w);
        assert_eq!(s.status, MaxSatStatus::Unknown);
        check_anytime_sound(&w, &s, exhaustive_optimum(&w)).unwrap();
    }

    #[test]
    fn stop_after_joins_cleanly() {
        let (budget, thread) = armed_budget(&Fault::StopAfter(Duration::from_micros(50)));
        assert!(!budget.interrupted());
        thread.expect("StopAfter spawns a thread").join();
        assert!(budget.interrupted(), "flag raised after the delay");
    }

    #[test]
    fn checker_rejects_wrong_exact_verdicts() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_soft([Lit::positive(x)], 1);
        w.add_soft([Lit::negative(x)], 1);
        // A (fabricated) claim that the optimum is 0: wrong Optimal.
        let lying = MaxSatSolution {
            status: MaxSatStatus::Optimal,
            cost: Some(0),
            model: Some(Assignment::from_bools(&[true])),
            lower_bound: 0,
            stats: MaxSatStats::default(),
        };
        assert!(check_anytime_sound(&w, &lying, Some(1)).is_err());
        // A fabricated Infeasible on a feasible instance.
        let infeasible = MaxSatSolution::infeasible(MaxSatStats::default());
        assert!(check_anytime_sound(&w, &infeasible, Some(1)).is_err());
        // An over-tight lower bound.
        let overtight = MaxSatSolution::interval(2, None, None, MaxSatStats::default());
        assert!(check_anytime_sound(&w, &overtight, Some(1)).is_err());
        // A sound certified interval.
        let sound = MaxSatSolution::interval(
            1,
            Some(1),
            Some(Assignment::from_bools(&[true])),
            MaxSatStats::default(),
        );
        check_anytime_sound(&w, &sound, Some(1)).unwrap();
    }
}
