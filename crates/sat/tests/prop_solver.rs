//! Property tests: the CDCL solver agrees with the reference (exhaustive
//! enumeration in `oracle`; the `dpll` in test names is the reference's
//! old name) on random small formulas, models satisfy every clause, and
//! failed-assumption cores are themselves unsatisfiable.

mod oracle;

use coremax_cnf::{CnfFormula, Lit};
use coremax_sat::{RestartMode, SolveOutcome, Solver, SolverConfig};
use proptest::prelude::*;

/// Case count, overridable via `PROPTEST_CASES` (the CI incremental
/// job raises it to 256).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}

/// A configuration that stresses every new hot-path mechanism at once:
/// a tiny learned-clause cap forces database reductions, `gc_frac: 0.0`
/// forces an arena collection after every reduction, and glucose-mode
/// restarts exercise the adaptive schedule.
fn stress_config() -> SolverConfig {
    SolverConfig {
        learntsize_factor: 0.01,
        learntsize_inc: 1.01,
        min_learnts: 3.0,
        gc_frac: 0.0,
        restart_mode: RestartMode::Glucose,
        glucose_lbd_window: 5,
        ..SolverConfig::default()
    }
}

/// Loads clause `i` of `f` as `Cᵢ ∨ sᵢ` with a fresh selector `sᵢ` and
/// solves under every `¬sᵢ`. On UNSAT, returns the clauses whose
/// selectors failed (a failed-assumption core) as a formula.
fn selector_core(solver: &mut Solver, f: &CnfFormula) -> Option<CnfFormula> {
    solver.ensure_vars(f.num_vars());
    let enforce: Vec<Lit> = f
        .iter()
        .map(|c| {
            let sel = Lit::positive(solver.new_var());
            solver.add_clause(c.lits().iter().copied().chain([sel]));
            !sel
        })
        .collect();
    if solver.solve_with_assumptions(&enforce) != SolveOutcome::Unsat {
        return None;
    }
    let mut core = CnfFormula::with_vars(f.num_vars());
    for a in solver.failed_assumptions() {
        let i = a.var().index() - f.num_vars();
        core.add_clause(f.clause(i).lits().iter().copied());
    }
    Some(core)
}

/// Strategy: random CNF over `max_vars` variables with clauses of length
/// 1..=4. Produces a mix of SAT and UNSAT formulas.
fn arb_cnf(max_vars: i32, max_clauses: usize) -> impl Strategy<Value = CnfFormula> {
    let lit = (1..=max_vars).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    let clause = prop::collection::vec(lit, 1..=4);
    prop::collection::vec(clause, 1..=max_clauses).prop_map(|clauses| {
        let mut f = CnfFormula::new();
        for c in clauses {
            f.add_clause(c.into_iter().map(|d| Lit::from_dimacs(d).unwrap()));
        }
        f
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn cdcl_agrees_with_dpll(f in arb_cnf(8, 30)) {
        let expected = oracle::is_satisfiable(&f);
        let mut s = Solver::new();
        s.add_formula(&f);
        let outcome = s.solve();
        let got = match outcome {
            SolveOutcome::Sat => true,
            SolveOutcome::Unsat => false,
            SolveOutcome::Unknown => unreachable!("no budget set"),
        };
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn models_satisfy_every_clause(f in arb_cnf(10, 40)) {
        let mut s = Solver::new();
        s.add_formula(&f);
        if s.solve() == SolveOutcome::Sat {
            let m = s.model().expect("model after SAT");
            for c in f.iter() {
                prop_assert!(c.is_satisfied_by(m), "violated clause {c}");
            }
        }
    }

    #[test]
    fn cores_are_unsatisfiable(f in arb_cnf(7, 25)) {
        let mut s = Solver::new();
        if let Some(core) = selector_core(&mut s, &f) {
            prop_assert!(core.num_clauses() > 0);
            // The core alone must be UNSAT (checked by the reference).
            prop_assert!(!oracle::is_satisfiable(&core), "core was satisfiable");
        } else {
            prop_assert!(oracle::is_satisfiable(&f));
        }
    }

    #[test]
    fn solving_under_assumptions_consistent(f in arb_cnf(6, 20), polarity in any::<bool>()) {
        // φ ∧ a is SAT iff the reference says φ with the unit a added is SAT.
        let a = Lit::new(coremax_cnf::Var::new(0), polarity);
        let mut s = Solver::new();
        s.add_formula(&f);
        s.ensure_vars(1);
        let outcome = s.solve_with_assumptions(&[a]);
        let mut g = f.clone();
        g.ensure_var(coremax_cnf::Var::new(0));
        g.add_clause([a]);
        let expected = oracle::is_satisfiable(&g);
        match outcome {
            SolveOutcome::Sat => prop_assert!(expected),
            SolveOutcome::Unsat => prop_assert!(!expected),
            SolveOutcome::Unknown => unreachable!("no budget set"),
        }
    }

    #[test]
    fn stressed_cdcl_agrees_with_dpll(f in arb_cnf(8, 35)) {
        // The optimized engine (binary watches, LBD reduction, forced
        // arena GC, glucose restarts) must agree with the reference
        // and keep its models valid.
        let expected = oracle::is_satisfiable(&f);
        let mut s = Solver::with_config(stress_config());
        s.add_formula(&f);
        match s.solve() {
            SolveOutcome::Sat => {
                prop_assert!(expected);
                let m = s.model().expect("model after SAT");
                for c in f.iter() {
                    prop_assert!(c.is_satisfied_by(m), "violated clause {c}");
                }
            }
            SolveOutcome::Unsat => prop_assert!(!expected),
            SolveOutcome::Unknown => unreachable!("no budget set"),
        }
    }

    #[test]
    fn cores_survive_arena_gc(f in arb_cnf(7, 30)) {
        // Cores extracted after (possibly many) arena compactions must
        // still be genuinely unsatisfiable subsets of the input.
        let mut s = Solver::with_config(stress_config());
        if let Some(core) = selector_core(&mut s, &f) {
            prop_assert!(core.num_clauses() > 0);
            prop_assert!(!oracle::is_satisfiable(&core), "core was satisfiable after GC");
        } else {
            prop_assert!(oracle::is_satisfiable(&f));
        }
    }

    #[test]
    fn incremental_addition_matches_batch(f in arb_cnf(6, 16)) {
        // Adding clauses one by one with intermediate solves must agree
        // with solving the whole formula at once.
        let mut incremental = Solver::new();
        let mut all_sat = true;
        for c in f.iter() {
            incremental.add_clause(c.lits().iter().copied());
            let o = incremental.solve();
            all_sat = o == SolveOutcome::Sat;
        }
        prop_assert_eq!(all_sat, oracle::is_satisfiable(&f));
    }
}
