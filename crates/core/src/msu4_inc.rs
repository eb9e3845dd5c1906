//! Incremental msu4 over a single persistent SAT solver.
//!
//! The paper's §5 names "exploit[ing] alternative SAT solver technology"
//! as the first improvement direction; this module is that improvement.
//! The msu4 paper rebuilt the working formula for non-incremental
//! MiniSAT 1.14 each iteration. Here every soft clause `ωᵢ` is added
//! **once** as `ωᵢ ∨ sᵢ` with a fresh selector variable, and the
//! selectors double as blocking variables:
//!
//! - an *unblocked* clause is enforced by assuming `¬sᵢ`;
//! - the solver's **failed assumptions** after an UNSAT answer name the
//!   soft clauses of a core directly — no clause-id bookkeeping;
//! - *blocking* a clause just removes its `¬sᵢ` assumption;
//! - the bound `Σ_vb s ≤ ub − 1` only tightens, so it is added
//!   permanently: one sorting network over the blocked selectors, built
//!   with its first `ub` outputs at the first tightening after a core
//!   grows the blocking set, and each bound as the unit `¬out[ub − 1]`.
//!   Tightening without a new core adds no encoding clauses.
//!
//! This is how later core-guided solvers (e.g. open-wbo's MSU3/OLL
//! implementations) drive their SAT engines, applied to Algorithm 1.
//! [`crate::Msu4`] runs on the same kind of engine; the two differ
//! in how they keep the bound (see [`Msu4Incremental`]).

use coremax_cards::CardEncoding;
use coremax_cnf::{Lit, WcnfFormula, Weight};
use coremax_sat::{Budget, SolveOutcome};

use crate::msu4::BlockingBound;
use crate::run::CoreRun;
use crate::types::{MaxSatSolution, MaxSatSolver};

/// Assumption-based incremental msu4. Same algorithm and answer as
/// [`crate::Msu4`]; where msu4 keeps one gated bound live and retires
/// it when superseded, this variant adds every bound permanently and
/// runs no feasibility pre-check.
///
/// # Input restrictions
///
/// Unweighted (partial) MaxSAT, like [`crate::Msu4`].
///
/// # Panics
///
/// [`MaxSatSolver::solve`] panics on weighted input.
///
/// # Examples
///
/// ```
/// use coremax::{Msu4Incremental, MaxSatSolver};
/// use coremax_cnf::{Lit, WcnfFormula};
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// w.add_soft([Lit::positive(x)], 1);
/// w.add_soft([Lit::negative(x)], 1);
/// assert_eq!(Msu4Incremental::new().solve(&w).cost, Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Msu4Incremental {
    budget: Budget,
}

impl Default for Msu4Incremental {
    fn default() -> Self {
        Msu4Incremental::new()
    }
}

impl Msu4Incremental {
    /// Incremental msu4 with the sorting-network (v2) encoding.
    #[must_use]
    pub fn new() -> Self {
        Msu4Incremental {
            budget: Budget::new(),
        }
    }
}

impl MaxSatSolver for Msu4Incremental {
    fn name(&self) -> &'static str {
        "msu4-inc"
    }

    fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        assert!(
            wcnf.is_unweighted(),
            "msu4-inc handles unweighted (partial) MaxSAT; got weighted soft clauses"
        );
        let mut run = CoreRun::new(wcnf, &self.budget);
        run.add_softs();
        // ub is the incumbent's cost, or every soft clause before the
        // first model.
        let num_soft = wcnf.num_soft() as Weight;

        let mut vb: Vec<Lit> = Vec::new(); // selectors of blocked clauses
        let mut bound = BlockingBound::new(CardEncoding::SortingNetwork, false);
        // Whether any cardinality bound was materialised: a
        // clause-level refutation *before* that can only involve the
        // hard clauses (relaxed softs are unrefutable — their selectors
        // are free), i.e. the instance is infeasible.
        let mut bounds_added = false;

        loop {
            match run.solve(&[]) {
                SolveOutcome::Unknown => return run.unknown(),
                SolveOutcome::Unsat => {
                    if run.engine.formula_refuted() {
                        // Refuted independently of the assumptions: either
                        // the hard clauses are inconsistent (infeasible) or
                        // the accumulated bounds are (current ub optimal —
                        // Algorithm 1's line 21/22 case). Bound clauses
                        // only exist after a SAT iteration, so an
                        // `Optimal` here always carries that iteration's
                        // model; before any bound the refutation can only
                        // cite hard clauses, however late CDCL finds it.
                        return if bounds_added {
                            run.optimal()
                        } else {
                            run.infeasible()
                        };
                    }
                    // Failed softs name the core's clauses directly, all
                    // unblocked by construction.
                    let failed = run.engine.failed_softs();
                    run.core(failed.len(), 1);
                    let mut fresh = 0usize;
                    for id in failed {
                        if run.engine.is_active(id) {
                            run.engine.deactivate(id);
                            vb.push(run.engine.selector(id));
                            fresh += 1;
                            run.stats.blocking_vars += 1;
                        }
                    }
                    if fresh == 0 {
                        // The assumption core was empty or already
                        // blocked: the hard part must be inconsistent.
                        return run.infeasible();
                    }
                    run.raise_lb(run.lb() + 1);
                }
                SolveOutcome::Sat => {
                    // Cost = falsified soft clauses (unblocked ones are
                    // enforced by assumptions, so only blocked count).
                    run.offer(run.model());
                    // Tighten: Σ_vb s ≤ ub − 1 (added permanently; bounds
                    // only tighten so stale ones are merely redundant).
                    // ub = 0 needs no bound: the check below returns.
                    let ub = run.ub().expect("incumbent after SAT");
                    if ub > 0 {
                        bound.tighten(&mut run, &vb, ub as usize);
                        bounds_added = true;
                    }
                }
            }
            if run.lb() >= run.ub().unwrap_or(num_soft) {
                return run.optimal();
            }
            if run.interrupted() {
                return run.unknown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpll::dpll_max_satisfiable;
    use crate::{MaxSatStatus, Msu4};
    use coremax_cnf::dimacs;

    fn unweighted(text: &str) -> WcnfFormula {
        WcnfFormula::from_cnf_all_soft(&dimacs::parse_cnf(text).unwrap())
    }

    #[test]
    fn paper_examples() {
        let e1 = unweighted("p cnf 2 3\n1 0\n2 -1 0\n-2 0\n");
        assert_eq!(Msu4Incremental::new().solve(&e1).cost, Some(1));
        let e2 =
            unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        let s = Msu4Incremental::new().solve(&e2);
        assert_eq!(s.cost, Some(2));
        assert_eq!(s.num_satisfied(&e2), Some(6));
    }

    #[test]
    fn satisfiable_costs_zero() {
        let w = unweighted("p cnf 2 2\n1 2 0\n-1 0\n");
        let s = Msu4Incremental::new().solve(&w);
        assert_eq!(s.cost, Some(0));
        assert_eq!(s.stats.sat_calls, 1, "single incremental call suffices");
    }

    #[test]
    fn partial_maxsat() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        let y = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_soft([Lit::negative(x)], 1);
        w.add_soft([Lit::positive(y)], 1);
        let s = Msu4Incremental::new().solve(&w);
        assert_eq!(s.cost, Some(1));
        let m = s.model.unwrap();
        assert_eq!(m.value(x), Some(true));
        assert_eq!(m.value(y), Some(true));
    }

    #[test]
    fn infeasible_hard() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_hard([Lit::negative(x)]);
        w.add_soft([Lit::positive(x)], 1);
        assert_eq!(
            Msu4Incremental::new().solve(&w).status,
            MaxSatStatus::Infeasible
        );
    }

    #[test]
    fn agrees_with_oracle_and_rebuilding_msu4() {
        let mut seed = 0x5851F42D4C957F2Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..25 {
            let num_vars = 4 + (next() % 4) as usize;
            let num_clauses = 6 + (next() % 12) as usize;
            let mut f = coremax_cnf::CnfFormula::with_vars(num_vars);
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        Lit::new(
                            coremax_cnf::Var::new((next() % num_vars as u64) as u32),
                            next() & 1 == 0,
                        )
                    })
                    .collect();
                f.add_clause(lits);
            }
            let oracle = (f.num_clauses() - dpll_max_satisfiable(&f)) as u64;
            let w = WcnfFormula::from_cnf_all_soft(&f);
            let inc = Msu4Incremental::new().solve(&w);
            let rebuild = Msu4::v2().solve(&w);
            assert_eq!(
                inc.cost,
                Some(oracle),
                "round {round}: msu4-inc wrong on {f}"
            );
            assert_eq!(inc.cost, rebuild.cost, "round {round}: variants disagree");
            if let Some(m) = &inc.model {
                assert_eq!(w.cost(m), inc.cost);
            }
        }
    }

    #[test]
    fn budget_abort() {
        use std::time::Duration;
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let mut solver = Msu4Incremental::new();
        solver.set_budget(Budget::new().with_timeout(Duration::from_nanos(1)));
        assert_eq!(solver.solve(&w).status, MaxSatStatus::Unknown);
    }

    #[test]
    fn optimal_verdict_always_carries_a_model() {
        // Hard (x1 ∨ x2) ∧ ¬x1 with a single soft ¬x2: the first
        // iteration is assumption-UNSAT, so lb meets ub = num_soft
        // before any SAT iteration ran. The fix materialises a model
        // with one relaxed call — an Optimal verdict must never be
        // model-free (Stratified and the parallel portfolio both rely
        // on it).
        use coremax_cnf::Lit;
        let mut w = WcnfFormula::new();
        let x1 = w.new_var();
        let x2 = w.new_var();
        w.add_hard([Lit::positive(x1), Lit::positive(x2)]);
        w.add_hard([Lit::negative(x1)]);
        w.add_soft([Lit::negative(x2)], 1);
        let s = Msu4Incremental::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.cost, Some(1));
        let model = s.model.as_ref().expect("optimal must carry a model");
        assert_eq!(w.cost(model), Some(1));
        assert!(crate::verify_solution(&w, &s));
    }

    #[test]
    fn late_hard_infeasibility_is_never_reported_optimal() {
        // Infeasible hard chain plus softs: whether CDCL refutes the
        // hard clauses on the first call or only after assumption
        // iterations blocked every soft, the verdict must be
        // Infeasible — not "Optimal at worst case".
        use coremax_cnf::Lit;
        let mut w = WcnfFormula::new();
        let x1 = w.new_var();
        let x2 = w.new_var();
        w.add_hard([Lit::positive(x1)]);
        w.add_hard([Lit::negative(x1), Lit::positive(x2)]);
        w.add_hard([Lit::negative(x2)]);
        w.add_soft([Lit::positive(x1)], 1);
        w.add_soft([Lit::positive(x2)], 1);
        let s = Msu4Incremental::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Infeasible);
        assert!(s.model.is_none());
    }

    #[test]
    fn single_solver_many_fewer_rebuilds() {
        // Statistics sanity: the incremental variant performs the same
        // number of SAT *calls* but zero solver rebuilds; its call count
        // must match the algorithm's iteration structure.
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let s = Msu4Incremental::new().solve(&w);
        assert_eq!(s.cost, Some(2));
        assert!(s.stats.sat_calls >= 3);
        assert!(s.stats.cores >= 1);
    }
}
