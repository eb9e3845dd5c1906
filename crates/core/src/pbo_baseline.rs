//! Tests of `pbo`, [`crate::PboBaseline`]: linear-sat's descent with a
//! fresh BDD per bound, on the PBO formulation of §2.2.

#[cfg(test)]
mod tests {
    use crate::dpll::dpll_max_satisfiable;
    use crate::{MaxSatSolver, MaxSatStatus, PboBaseline};
    use coremax_cnf::{dimacs, Lit, Var, WcnfFormula};
    use coremax_sat::Budget;

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
        // Pigeonhole 6/5, every clause soft: the descent's SAT engine
        // searches, and its counters reach the solution's stats. Every
        // call is a SAT or an UNSAT iteration, and each bound is
        // encoded.
        let w = WcnfFormula::from_cnf_all_soft(&coremax_instances::pigeonhole(5));
        let s = PboBaseline::new().solve(&w);
        assert_eq!(s.cost, Some(1));
        assert!(s.stats.sat_calls > 1, "{:?}", s.stats);
        assert_eq!(
            s.stats.sat_iterations + s.stats.unsat_iterations,
            s.stats.sat_calls,
            "{}",
            s.stats
        );
        assert!(s.stats.cardinality_clauses > 0, "{}", s.stats);
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
    fn maxsat_reduction_example1() {
        // Paper Example 1: optimum 2 of 3, so cost 1.
        let mut w = WcnfFormula::new();
        let x1 = w.new_var();
        let x2 = w.new_var();
        w.add_soft([Lit::positive(x1)], 1);
        w.add_soft([Lit::positive(x2), Lit::negative(x1)], 1);
        w.add_soft([Lit::negative(x2)], 1);
        let s = PboBaseline::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.cost, Some(1));
    }

    #[test]
    fn maxsat_reduction_respects_hard_clauses() {
        // Hard: x1. Soft: ¬x1 (w=5), x2 (w=1). Optimal cost = 5 with x2
        // satisfied.
        let mut w = WcnfFormula::new();
        let x1 = w.new_var();
        let x2 = w.new_var();
        w.add_hard([Lit::positive(x1)]);
        w.add_soft([Lit::negative(x1)], 5);
        w.add_soft([Lit::positive(x2)], 1);
        let s = PboBaseline::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.cost, Some(5));
        let model = s.model.expect("optimal has a model");
        assert_eq!(model.value(x1), Some(true));
        assert_eq!(model.value(x2), Some(true));
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        use std::time::Duration;
        // A moderately hard optimisation with a zero time budget.
        let mut w = WcnfFormula::new();
        let vars: Vec<Var> = (0..12).map(|_| w.new_var()).collect();
        for i in 0..vars.len() {
            for j in i + 1..vars.len() {
                w.add_soft([Lit::negative(vars[i]), Lit::negative(vars[j])], 1);
            }
            w.add_soft([Lit::positive(vars[i])], 1);
        }
        let mut pbo = PboBaseline::new();
        pbo.set_budget(Budget::new().with_timeout(Duration::from_nanos(1)));
        assert_eq!(pbo.solve(&w).status, MaxSatStatus::Unknown);
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
                        let v = Var::new((next() % num_vars as u64) as u32);
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
