//! Propositions 1 and 2 of the paper: MaxSAT bounds from disjoint
//! unsatisfiable cores and from satisfying assignments of the relaxed
//! formula.

use coremax_cnf::CnfFormula;
use coremax_sat::{Budget, IncrementalSolver, SoftId, SolveOutcome};

/// The result of a disjoint-core analysis (Proposition 1).
#[derive(Debug, Clone)]
pub struct DisjointCoreReport {
    /// Clause indices of each disjoint core found, in discovery order.
    pub cores: Vec<Vec<usize>>,
    /// Upper bound on the number of simultaneously satisfiable clauses:
    /// `|φ| − K` where `K` is the number of disjoint cores.
    pub upper_bound_satisfied: usize,
    /// Equivalently, a lower bound on the optimum cost (`K`).
    pub lower_bound_cost: usize,
    /// `true` if the analysis ran to completion (remaining formula
    /// satisfiable), `false` if the budget stopped it early (the bounds
    /// are still valid).
    pub complete: bool,
}

/// Computes disjoint unsatisfiable cores of `formula` by repeatedly
/// extracting a core and removing its clauses (Proposition 1: `K`
/// disjoint cores ⟹ at most `|φ| − K` clauses are satisfiable).
///
/// # Examples
///
/// ```
/// use coremax::disjoint_core_analysis;
/// use coremax_cnf::dimacs;
/// use coremax_sat::Budget;
///
/// // (x)(¬x)(y)(¬y): two disjoint cores.
/// let f = dimacs::parse_cnf("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n")?;
/// let report = disjoint_core_analysis(&f, &Budget::new());
/// assert_eq!(report.cores.len(), 2);
/// assert_eq!(report.upper_bound_satisfied, 2);
/// # Ok::<(), coremax_cnf::ParseDimacsError>(())
/// ```
#[must_use]
pub fn disjoint_core_analysis(formula: &CnfFormula, budget: &Budget) -> DisjointCoreReport {
    let start = std::time::Instant::now();
    let child_budget = budget.child(start);
    let mut cores: Vec<Vec<usize>> = Vec::new();
    let mut complete = false;

    // One persistent engine: every clause is registered as a selector-
    // managed soft, so "removing" a core is retiring its members — the
    // solver keeps its learned clauses and heuristic state between
    // extraction rounds instead of being rebuilt from scratch.
    let mut engine = IncrementalSolver::new();
    engine.ensure_vars(formula.num_vars());
    engine.set_budget(child_budget.clone());
    let handles: Vec<_> = engine
        .add_softs(formula.iter().map(|c| c.lits().iter().copied()))
        .map(SoftId)
        .collect();

    loop {
        match engine.solve(&[]) {
            SolveOutcome::Sat => {
                complete = true;
                break;
            }
            SolveOutcome::Unknown => break,
            SolveOutcome::Unsat => {
                let failed = engine.failed_softs();
                if failed.is_empty() {
                    // Cannot happen — every clause is selector-gated, so
                    // the formula alone is satisfiable — but an empty
                    // core must not loop forever.
                    break;
                }
                let core: Vec<usize> = failed
                    .iter()
                    .filter_map(|id| handles.iter().position(|h| h == id))
                    .collect();
                for &i in &core {
                    engine.retire(handles[i]);
                }
                cores.push(core);
            }
        }
    }

    let k = cores.len();
    DisjointCoreReport {
        upper_bound_satisfied: formula.num_clauses() - k,
        lower_bound_cost: k,
        cores,
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax_cnf::dimacs;

    #[test]
    fn satisfiable_formula_no_cores() {
        let f = dimacs::parse_cnf("p cnf 2 2\n1 2 0\n-1 0\n").unwrap();
        let r = disjoint_core_analysis(&f, &Budget::new());
        assert!(r.cores.is_empty());
        assert_eq!(r.upper_bound_satisfied, 2);
        assert_eq!(r.lower_bound_cost, 0);
        assert!(r.complete);
    }

    #[test]
    fn two_disjoint_cores_found() {
        let f = dimacs::parse_cnf("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n").unwrap();
        let r = disjoint_core_analysis(&f, &Budget::new());
        assert_eq!(r.cores.len(), 2);
        assert_eq!(r.lower_bound_cost, 2);
        // Cores must be disjoint.
        let mut seen = std::collections::HashSet::new();
        for core in &r.cores {
            for &i in core {
                assert!(seen.insert(i), "clause {i} in two cores");
            }
        }
    }

    #[test]
    fn bound_is_sound_for_example2() {
        let f = dimacs::parse_cnf(
            "p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n",
        )
        .unwrap();
        let r = disjoint_core_analysis(&f, &Budget::new());
        // True optimum: 6 satisfied / cost 2. The UB must be ≥ 6 and the
        // cost LB ≤ 2.
        assert!(r.upper_bound_satisfied >= 6);
        assert!(r.lower_bound_cost <= 2);
        assert!(r.lower_bound_cost >= 1);
    }
}
