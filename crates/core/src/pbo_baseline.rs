//! The paper's `pbo` column: MaxSAT through the PBO formulation,
//! solved by a minisat+-style optimiser (see [`coremax_pbo`]).

use std::time::Instant;

use coremax_cnf::WcnfFormula;
use coremax_pbo::{maxsat_as_pbo, PboOutcome};
use coremax_sat::Budget;

use crate::types::{MaxSatSolution, MaxSatSolver, MaxSatStats, MaxSatStatus};

/// MaxSAT via Pseudo-Boolean Optimisation (§2.2 / Example 1 of the
/// paper): one blocking variable per soft clause, objective `min Σ w·b`,
/// BDD-encoded bound strengthening. Supports weighted partial input.
///
/// This is the reproduction of running **minisat+** on the PBO MaxSAT
/// formulation — the baseline the paper reports as better than maxsatz
/// on industrial instances but still far behind msu4.
///
/// # Examples
///
/// ```
/// use coremax::{PboBaseline, MaxSatSolver};
/// use coremax_cnf::{Lit, WcnfFormula};
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// w.add_soft([Lit::positive(x)], 1);
/// w.add_soft([Lit::negative(x)], 1);
/// assert_eq!(PboBaseline::new().solve(&w).cost, Some(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PboBaseline {
    budget: Budget,
}

impl PboBaseline {
    /// Creates the baseline with an unlimited budget.
    #[must_use]
    pub fn new() -> Self {
        PboBaseline::default()
    }
}

impl MaxSatSolver for PboBaseline {
    fn name(&self) -> &'static str {
        "pbo"
    }

    fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn supports_weights(&self) -> bool {
        true
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        let start = Instant::now();
        let mut pbo = maxsat_as_pbo(wcnf);
        pbo.set_budget(self.budget.clone());
        let outcome = pbo.solve();
        let mut stats = MaxSatStats {
            sat_calls: u64::from(pbo.sat_calls()),
            ..MaxSatStats::default()
        };
        stats.absorb_sat(pbo.stats());
        stats.wall_time = start.elapsed();
        match outcome {
            PboOutcome::Optimal { model, cost } => {
                // The PBO model ranges over original + blocking + aux
                // variables; the cost of the original-variable projection
                // equals the objective value because blocking variables
                // are driven to the falsified clauses at the optimum.
                let real_cost = wcnf.cost(&model).unwrap_or(cost);
                let cost = real_cost.min(cost);
                MaxSatSolution {
                    status: MaxSatStatus::Optimal,
                    cost: Some(cost),
                    model: Some(model),
                    lower_bound: cost,
                    stats,
                }
            }
            PboOutcome::Infeasible => MaxSatSolution::infeasible(stats),
            PboOutcome::Unknown { best } => {
                // Linear descent proves no lower bound before the final
                // UNSAT call; the incumbent certifies its exact cost on
                // the original soft clauses.
                let model = best.map(|(m, _)| m);
                let cost = model.as_ref().and_then(|m| wcnf.cost(m));
                let model = cost.is_some().then_some(model).flatten();
                MaxSatSolution {
                    status: MaxSatStatus::Unknown,
                    cost,
                    model,
                    lower_bound: 0,
                    stats,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpll::dpll_max_satisfiable;
    use coremax_cnf::{dimacs, Lit};

    fn unweighted(text: &str) -> WcnfFormula {
        WcnfFormula::from_cnf_all_soft(&dimacs::parse_cnf(text).unwrap())
    }

    #[test]
    fn paper_example2() {
        let w = unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        let s = PboBaseline::new().solve(&w);
        assert_eq!(s.cost, Some(2));
        assert_eq!(s.status, MaxSatStatus::Optimal);
    }

    #[test]
    fn reports_its_engine_work() {
        // Pigeonhole 6/5, every clause soft: the optimiser's SAT engine
        // searches, and its counters reach the solution's stats.
        let w = WcnfFormula::from_cnf_all_soft(&coremax_instances::pigeonhole(5));
        let s = PboBaseline::new().solve(&w);
        assert_eq!(s.cost, Some(1));
        assert!(s.stats.sat_calls > 1, "{:?}", s.stats);
        assert!(s.stats.sat.conflicts > 0, "{}", s.stats.sat);
        assert!(s.stats.sat.propagations > 0, "{}", s.stats.sat);
    }

    #[test]
    fn weighted_supported() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_soft([Lit::positive(x)], 7);
        w.add_soft([Lit::negative(x)], 3);
        assert_eq!(PboBaseline::new().solve(&w).cost, Some(3));
    }

    #[test]
    fn infeasible() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_hard([Lit::negative(x)]);
        assert_eq!(
            PboBaseline::new().solve(&w).status,
            MaxSatStatus::Infeasible
        );
    }

    #[test]
    fn agrees_with_oracle() {
        let mut seed = 0x6C62272E07BB0142u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..15 {
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
            let s = PboBaseline::new().solve(&w);
            assert_eq!(s.cost, Some(oracle as u64), "pbo wrong on {f}");
        }
    }
}
