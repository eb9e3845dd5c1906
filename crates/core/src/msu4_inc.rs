//! Tests of `msu4-inc`, [`crate::Msu4::incremental`]: msu4 v2 with
//! permanent bounds in one engine. msu4's own tests run every
//! variant; these pin the mode's own cases.

mod tests {
    use crate::dpll::dpll_max_satisfiable;
    use crate::{MaxSatSolver, MaxSatStatus, Msu4};
    use coremax_cnf::{dimacs, Lit, WcnfFormula};
    use coremax_sat::Budget;

    fn unweighted(text: &str) -> WcnfFormula {
        WcnfFormula::from_cnf_all_soft(&dimacs::parse_cnf(text).unwrap())
    }

    #[test]
    fn paper_examples() {
        let e1 = unweighted("p cnf 2 3\n1 0\n2 -1 0\n-2 0\n");
        assert_eq!(Msu4::incremental().solve(&e1).cost, Some(1));
        let e2 =
            unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        let s = Msu4::incremental().solve(&e2);
        assert_eq!(s.cost, Some(2));
        assert_eq!(s.num_satisfied(&e2), Some(6));
    }

    #[test]
    fn satisfiable_costs_zero() {
        let w = unweighted("p cnf 2 2\n1 2 0\n-1 0\n");
        let s = Msu4::incremental().solve(&w);
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
        let s = Msu4::incremental().solve(&w);
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
            Msu4::incremental().solve(&w).status,
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
            let inc = Msu4::incremental().solve(&w);
            let gated = Msu4::v2().solve(&w);
            assert_eq!(
                inc.cost,
                Some(oracle),
                "round {round}: msu4-inc wrong on {f}"
            );
            assert_eq!(inc.cost, gated.cost, "round {round}: variants disagree");
            if let Some(m) = &inc.model {
                assert_eq!(w.cost(m), inc.cost);
            }
        }
    }

    #[test]
    fn budget_abort() {
        use std::time::Duration;
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let mut solver = Msu4::incremental();
        solver.set_budget(Budget::new().with_timeout(Duration::from_nanos(1)));
        assert_eq!(solver.solve(&w).status, MaxSatStatus::Unknown);
    }

    #[test]
    fn single_solver_many_fewer_rebuilds() {
        // Statistics sanity: the whole solve runs on one engine, and its
        // call count follows the algorithm's iteration structure: two
        // cores, then a model.
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let s = Msu4::incremental().solve(&w);
        assert_eq!(s.cost, Some(2));
        assert!(s.stats.sat_calls >= 3);
        assert!(s.stats.cores >= 1);
    }
}
