//! Deletion-based unsatisfiable-core minimisation.
//!
//! The paper closes with: msu4 "is effective only for instances for
//! which SAT solvers are effective at identifying small unsatisfiable
//! cores". Cores from CDCL solvers are sound but not minimal; the
//! classic remedy is deletion-based minimisation — try dropping each
//! clause, keep the drop if the rest stays unsatisfiable. The result is
//! an *irredundant* (set-minimal) core, at the cost of one SAT call per
//! clause.

use coremax_cnf::{CnfFormula, Lit};
use coremax_sat::{Budget, IncrementalSolver, SoftId, SolveOutcome};

/// Shrinks `core` (clause indices into `formula`) to an irredundant
/// unsatisfiable subset by deletion-based minimisation.
///
/// Each candidate removal costs one SAT call on the remaining subset;
/// if the budget expires mid-way the current (still sound) subset is
/// returned. The input must be unsatisfiable as given.
///
/// # Examples
///
/// ```
/// use coremax::minimize_core;
/// use coremax_cnf::dimacs;
/// use coremax_sat::Budget;
///
/// // (x)(¬x) plus two redundant clauses in the "core".
/// let f = dimacs::parse_cnf("p cnf 2 4\n1 0\n-1 0\n2 0\n1 2 0\n")?;
/// let minimal = minimize_core(&f, &[0, 1, 2, 3], &Budget::new());
/// assert_eq!(minimal, vec![0, 1]);
/// # Ok::<(), coremax_cnf::ParseDimacsError>(())
/// ```
#[must_use]
pub fn minimize_core(formula: &CnfFormula, core: &[usize], budget: &Budget) -> Vec<usize> {
    // Each core clause is a soft of one engine, enforced by assuming its
    // selector's negation, so the minimiser works on assumptions.
    let mut engine = IncrementalSolver::new();
    engine.ensure_vars(formula.num_vars());
    engine.set_budget(budget.child(std::time::Instant::now()));
    let softs = engine.add_softs(
        core.iter()
            .map(|&idx| formula.clause(idx).lits().iter().copied()),
    );
    let assumptions = softs.map(|i| engine.assumption(SoftId(i))).collect();
    let mut kept: Vec<usize> = minimize_failed(&mut engine, assumptions)
        .into_iter()
        .filter_map(|a| engine.soft_of(a))
        .map(|id| core[id.0])
        .collect();
    kept.sort_unstable();
    kept
}

/// Deletion-based minimisation of `core`, a set of assumptions under
/// which `engine` is UNSAT: drop one literal, re-solve under the rest,
/// and while the answer stays UNSAT keep only the failed subset (often
/// several literals smaller at once). One engine serves every probe, so
/// learned clauses carry over between them. Stops early, with a sound
/// superset, when the engine's budget runs out.
pub(crate) fn minimize_failed(engine: &mut IncrementalSolver, mut core: Vec<Lit>) -> Vec<Lit> {
    let mut i = 0;
    while i < core.len() {
        let mut candidate = core.clone();
        candidate.remove(i);
        match engine.solve_exact(&candidate) {
            SolveOutcome::Unsat if !engine.formula_refuted() => {
                let failed = engine.failed_assumptions();
                core.retain(|l| failed.contains(l));
            }
            SolveOutcome::Sat => i += 1,
            // The budget is spent, or the clauses are refuted without
            // any assumption and every probe would be.
            _ => break,
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpll::dpll_is_satisfiable;
    use coremax_cnf::dimacs;

    #[test]
    fn shrinks_to_a_single_contradiction() {
        // Two independent contradictions: {0,1} and {2,3,4}. Either is a
        // valid minimal core; both are smaller than the input.
        let f = dimacs::parse_cnf("p cnf 3 5\n1 0\n-1 0\n2 0\n3 0\n-2 -3 0\n").unwrap();
        let minimal = minimize_core(&f, &[0, 1, 2, 3, 4], &Budget::new());
        assert!(
            minimal == vec![0, 1] || minimal == vec![2, 3, 4],
            "unexpected minimal core {minimal:?}"
        );
    }

    #[test]
    fn minimal_core_is_irredundant() {
        // Implication chain: every clause is necessary.
        let f = dimacs::parse_cnf("p cnf 3 4\n1 0\n-1 2 0\n-2 3 0\n-3 0\n").unwrap();
        let minimal = minimize_core(&f, &[0, 1, 2, 3], &Budget::new());
        assert_eq!(minimal, vec![0, 1, 2, 3]);
    }

    #[test]
    fn result_is_unsat_subset() {
        let f = dimacs::parse_cnf("p cnf 4 7\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n3 0\n-3 4 0\n-4 0\n")
            .unwrap();
        // Two independent contradictions; start from everything.
        let minimal = minimize_core(&f, &[0, 1, 2, 3, 4, 5, 6], &Budget::new());
        let mut sub = CnfFormula::with_vars(f.num_vars());
        for &i in &minimal {
            sub.add_clause(f.clause(i).lits().iter().copied());
        }
        assert!(!dpll_is_satisfiable(&sub));
        // Irredundance: dropping any clause makes it satisfiable.
        for drop in 0..minimal.len() {
            let mut weaker = CnfFormula::with_vars(f.num_vars());
            for (i, &idx) in minimal.iter().enumerate() {
                if i != drop {
                    weaker.add_clause(f.clause(idx).lits().iter().copied());
                }
            }
            assert!(
                dpll_is_satisfiable(&weaker),
                "clause {drop} was redundant in the 'minimal' core"
            );
        }
    }

    #[test]
    fn budget_exhaustion_returns_sound_superset() {
        use std::time::Duration;
        let f = dimacs::parse_cnf("p cnf 2 3\n1 0\n-1 0\n2 0\n").unwrap();
        let result = minimize_core(&f, &[0, 1, 2], &Budget::new().with_timeout(Duration::ZERO));
        // Nothing was checked: the original core comes back.
        assert_eq!(result, vec![0, 1, 2]);
    }

    #[test]
    fn pigeonhole_core_minimises() {
        use coremax_cnf::{Lit, Var};
        // PHP(3,2) plus noise clauses; minimise the full clause set.
        let mut f = CnfFormula::new();
        let var = |p: usize, h: usize| Var::new((p * 2 + h) as u32);
        for p in 0..3 {
            f.add_clause([Lit::positive(var(p, 0)), Lit::positive(var(p, 1))]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in p1 + 1..3 {
                    f.add_clause([Lit::negative(var(p1, h)), Lit::negative(var(p2, h))]);
                }
            }
        }
        for _ in 0..5 {
            let v = f.new_var();
            f.add_clause([Lit::positive(v)]);
        }
        let all: Vec<usize> = (0..f.num_clauses()).collect();
        let minimal = minimize_core(&f, &all, &Budget::new());
        // The noise units cannot be in any minimal core.
        assert!(minimal.len() <= 9);
        assert!(minimal.iter().all(|&i| i < 9));
    }
}
