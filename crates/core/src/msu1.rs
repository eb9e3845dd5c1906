//! msu1 — Fu & Malik's core-guided algorithm (reference \[11\]).

use coremax_cnf::WcnfFormula;
use coremax_sat::Budget;

use crate::types::{MaxSatSolution, MaxSatSolver};
use crate::wmsu1::Wmsu1;

/// Fu & Malik's algorithm (SAT 2006), the paper's msu1.
///
/// Repeatedly solve the working formula; on UNSAT, add a **fresh**
/// blocking variable to every soft clause in the core (clauses hit by
/// `r` cores accumulate `r` blocking variables — the drawback §2.3
/// points out) together with an *exactly-one* constraint over the new
/// variables, and increase the cost by one. The first satisfiable
/// working formula proves the accumulated cost optimal.
///
/// This is [`Wmsu1`]'s loop run on unit weights: every core's minimum
/// weight is 1, so no weight is ever split and each core costs one.
///
/// # Input restrictions
///
/// Unweighted (partial) MaxSAT: soft weights must all be 1.
///
/// # Panics
///
/// [`MaxSatSolver::solve`] panics on weighted input.
///
/// # Examples
///
/// ```
/// use coremax::{Msu1, MaxSatSolver};
/// use coremax_cnf::{Lit, WcnfFormula};
///
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// w.add_soft([Lit::positive(x)], 1);
/// w.add_soft([Lit::negative(x)], 1);
/// assert_eq!(Msu1::new().solve(&w).cost, Some(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Msu1 {
    inner: Wmsu1,
}

impl Msu1 {
    /// msu1 with the pairwise exactly-one encoding used by Fu & Malik.
    #[must_use]
    pub fn new() -> Self {
        Msu1 {
            inner: Wmsu1::new(),
        }
    }
}

impl MaxSatSolver for Msu1 {
    fn name(&self) -> &'static str {
        "msu1"
    }

    fn set_budget(&mut self, budget: Budget) {
        self.inner.set_budget(budget);
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        assert!(
            wcnf.is_unweighted(),
            "msu1 handles unweighted (partial) MaxSAT; got weighted soft clauses"
        );
        self.inner.solve(wcnf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpll::dpll_max_satisfiable;
    use crate::MaxSatStatus;
    use coremax_cnf::{dimacs, Lit};

    fn unweighted(text: &str) -> WcnfFormula {
        WcnfFormula::from_cnf_all_soft(&dimacs::parse_cnf(text).unwrap())
    }

    #[test]
    fn paper_examples() {
        let e1 = unweighted("p cnf 2 3\n1 0\n2 -1 0\n-2 0\n");
        assert_eq!(Msu1::new().solve(&e1).cost, Some(1));
        let e2 =
            unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        let s = Msu1::new().solve(&e2);
        assert_eq!(s.cost, Some(2));
        assert_eq!(s.num_satisfied(&e2), Some(6));
    }

    #[test]
    fn counts_its_final_sat_answer() {
        // Two cores, then the SAT answer that proves the cost optimal:
        // every SAT call is either an unsat or a sat iteration.
        let e2 =
            unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        let s = Msu1::new().solve(&e2);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.stats.sat_iterations, 1);
        assert_eq!(
            s.stats.sat_calls,
            s.stats.unsat_iterations + s.stats.sat_iterations
        );
    }

    #[test]
    fn satisfiable_costs_zero() {
        let w = unweighted("p cnf 2 2\n1 2 0\n-1 2 0\n");
        let s = Msu1::new().solve(&w);
        assert_eq!(s.cost, Some(0));
        assert_eq!(s.stats.cores, 0);
    }

    #[test]
    fn model_attains_cost() {
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let s = Msu1::new().solve(&w);
        assert_eq!(s.cost, Some(2));
        let m = s.model.unwrap();
        assert_eq!(w.cost(&m), Some(2));
    }

    #[test]
    fn partial_infeasible() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_hard([Lit::negative(x)]);
        w.add_soft([Lit::positive(x)], 1);
        assert_eq!(Msu1::new().solve(&w).status, MaxSatStatus::Infeasible);
    }

    #[test]
    fn clauses_accumulate_multiple_blockers() {
        // A clause participating in several cores gains several blocking
        // vars; the run must still report the right optimum.
        let w = unweighted("p cnf 3 6\n1 0\n-1 0\n1 2 0\n-2 0\n1 3 0\n-3 0\n");
        let oracle = {
            let f = dimacs::parse_cnf("p cnf 3 6\n1 0\n-1 0\n1 2 0\n-2 0\n1 3 0\n-3 0\n").unwrap();
            f.num_clauses() - dpll_max_satisfiable(&f)
        };
        let s = Msu1::new().solve(&w);
        assert_eq!(s.cost, Some(oracle as u64));
    }

    #[test]
    fn agrees_with_oracle_on_random_formulas() {
        let mut seed = 0xD1B54A32D192ED03u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let num_vars = 4 + (next() % 3) as usize;
            let num_clauses = 5 + (next() % 10) as usize;
            let mut f = coremax_cnf::CnfFormula::with_vars(num_vars);
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = coremax_cnf::Var::new((next() % num_vars as u64) as u32);
                        Lit::new(v, next() & 1 == 0)
                    })
                    .collect();
                f.add_clause(lits);
            }
            let oracle = f.num_clauses() - dpll_max_satisfiable(&f);
            let w = WcnfFormula::from_cnf_all_soft(&f);
            let s = Msu1::new().solve(&w);
            assert_eq!(s.cost, Some(oracle as u64), "msu1 wrong on {f}");
        }
    }

    #[test]
    fn budget_abort() {
        use std::time::Duration;
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let mut solver = Msu1::new();
        solver.set_budget(Budget::new().with_timeout(Duration::from_nanos(1)));
        let s = solver.solve(&w);
        assert_eq!(s.status, MaxSatStatus::Unknown);
        assert!(s.lower_bound <= 2, "lb stays below the optimum");
    }

    #[test]
    fn optimal_carries_tight_lower_bound() {
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let s = Msu1::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.lower_bound, 2);
        assert_eq!(s.gap(), Some(0));
    }
}
