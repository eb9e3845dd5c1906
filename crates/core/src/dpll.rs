//! A tiny reference DPLL solver and exhaustive MaxSAT oracle for this
//! crate's unit tests.
//!
//! These are deliberately simple (and slow) implementations used to
//! cross-validate the MaxSAT algorithms on small formulas. They are
//! test-only: the engine's own tests check it against exhaustive
//! enumeration (`crates/sat/tests/oracle`), and the repository-level
//! agreement test uses `coremax_bench::fi::exhaustive_optimum`.

use coremax_cnf::{Assignment, CnfFormula, Var};

/// Decides satisfiability of `formula` by plain DPLL (unit propagation +
/// chronological backtracking, first-unassigned-variable branching).
///
/// Intended for formulas with up to a few dozen variables.
#[must_use]
pub fn dpll_is_satisfiable(formula: &CnfFormula) -> bool {
    let mut assignment = Assignment::for_vars(formula.num_vars());
    dpll(formula, &mut assignment, 0)
}

fn dpll(formula: &CnfFormula, assignment: &mut Assignment, next_var: usize) -> bool {
    let mut propagated: Vec<Var> = Vec::new();
    let satisfiable = dpll_step(formula, assignment, next_var, &mut propagated);
    if !satisfiable {
        // Undo this frame's unit propagations before backtracking.
        for &v in &propagated {
            assignment.unassign(v);
        }
    }
    satisfiable
}

fn dpll_step(
    formula: &CnfFormula,
    assignment: &mut Assignment,
    mut next_var: usize,
    propagated: &mut Vec<Var>,
) -> bool {
    // Unit propagation to fixpoint.
    loop {
        let mut changed = false;
        for clause in formula.iter() {
            match clause.eval(assignment) {
                Some(true) => continue,
                Some(false) => return false,
                None => {}
            }
            let mut unassigned = None;
            let mut count = 0;
            for &l in clause.lits() {
                if assignment.lit_value(l).is_none() {
                    count += 1;
                    unassigned = Some(l);
                }
            }
            if count == 1 {
                let l = unassigned.expect("counted one unassigned literal");
                assignment.assign_lit(l);
                propagated.push(l.var());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    match formula.eval(assignment) {
        Some(true) => return true,
        Some(false) => return false,
        None => {}
    }

    while next_var < formula.num_vars() && assignment.value(Var::new(next_var as u32)).is_some() {
        next_var += 1;
    }
    if next_var == formula.num_vars() {
        return formula.eval(assignment) == Some(true);
    }
    let var = Var::new(next_var as u32);
    for value in [true, false] {
        assignment.assign(var, value);
        if dpll(formula, assignment, next_var + 1) {
            return true;
        }
        assignment.unassign(var);
    }
    false
}

/// Computes the exact MaxSAT optimum of `formula` — the maximum number
/// of simultaneously satisfiable clauses — by exhaustive enumeration.
///
/// Exponential in the number of variables; the oracle for test suites.
///
/// # Panics
///
/// Panics if the formula has more than 24 variables.
#[must_use]
pub fn dpll_max_satisfiable(formula: &CnfFormula) -> usize {
    let n = formula.num_vars();
    assert!(n <= 24, "exhaustive MaxSAT oracle limited to 24 variables");
    let mut best = 0;
    let mut assignment = Assignment::for_vars(n);
    for bits in 0u64..(1u64 << n) {
        for i in 0..n {
            assignment.assign(Var::new(i as u32), bits >> i & 1 == 1);
        }
        let sat = formula.num_satisfied(&assignment);
        if sat > best {
            best = sat;
            if best == formula.num_clauses() {
                break;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax_cnf::Lit;

    fn cnf(clauses: &[&[i32]]) -> CnfFormula {
        let mut f = CnfFormula::new();
        for c in clauses {
            f.add_clause(c.iter().map(|&d| Lit::from_dimacs(d).unwrap()));
        }
        f
    }

    #[test]
    fn sat_simple() {
        assert!(dpll_is_satisfiable(&cnf(&[&[1, 2], &[-1], &[2]])));
    }

    #[test]
    fn unsat_simple() {
        assert!(!dpll_is_satisfiable(&cnf(&[&[1], &[-1]])));
        assert!(!dpll_is_satisfiable(&cnf(&[
            &[1, 2],
            &[-1, 2],
            &[1, -2],
            &[-1, -2]
        ])));
    }

    #[test]
    fn empty_formula_sat() {
        assert!(dpll_is_satisfiable(&CnfFormula::new()));
    }

    #[test]
    fn empty_clause_unsat() {
        let mut f = CnfFormula::new();
        f.add_clause(std::iter::empty());
        assert!(!dpll_is_satisfiable(&f));
    }

    #[test]
    fn maxsat_oracle_paper_example1() {
        // (x1)(x2 ∨ ¬x1)(¬x2): 2 of 3 satisfiable.
        assert_eq!(dpll_max_satisfiable(&cnf(&[&[1], &[2, -1], &[-2]])), 2);
    }

    #[test]
    fn maxsat_oracle_paper_example2() {
        // Example 2 of the paper: optimum is 6 of 8.
        let f = cnf(&[
            &[1],
            &[-1, -2],
            &[2],
            &[-1, -3],
            &[3],
            &[-2, -3],
            &[1, -4],
            &[-1, 4],
        ]);
        assert_eq!(dpll_max_satisfiable(&f), 6);
    }

    #[test]
    fn maxsat_oracle_all_satisfiable() {
        let f = cnf(&[&[1, 2], &[-1, 2]]);
        assert_eq!(dpll_max_satisfiable(&f), 2);
    }

    #[test]
    fn dpll_agrees_with_oracle_on_small_formulas() {
        // Deterministic pseudo-random 3-CNFs over 6 vars.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..50 {
            let mut f = CnfFormula::with_vars(6);
            let clauses = 8 + (next() % 12) as usize;
            for _ in 0..clauses {
                let mut lits = Vec::new();
                for _ in 0..3 {
                    let v = (next() % 6) as i32 + 1;
                    let s = if next() & 1 == 0 { 1 } else { -1 };
                    lits.push(Lit::from_dimacs(v * s).unwrap());
                }
                f.add_clause(lits);
            }
            let sat = dpll_is_satisfiable(&f);
            let opt = dpll_max_satisfiable(&f);
            assert_eq!(sat, opt == f.num_clauses());
        }
    }
}
