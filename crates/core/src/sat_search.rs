//! "MaxSAT as iterated SAT" baselines: model-improving linear search
//! and binary search on the cost bound.
//!
//! Section 2 of the paper notes that converting MaxSAT into a sequence
//! of SAT problems generally "does not perform well" compared with
//! branch and bound — except on industrial instances, which is exactly
//! the regime msu4 targets. These two solvers make that comparison
//! reproducible: both attach a blocking variable to *every* soft clause
//! up front (so the search space blow-up of §2.2 applies) and differ
//! only in how the bound on `Σ b` moves. Both keep it on a sorting
//! network over all the blockers, reused for every bound its outputs
//! reach.

use coremax_cards::CardEncoding;
use coremax_cnf::{Lit, Var, WcnfFormula};
use coremax_sat::{Budget, SolveOutcome};

use crate::blocking_bound::BlockingBound;
use crate::run::CoreRun;
use crate::types::{MaxSatSolution, MaxSatSolver};

/// Starts a run on the working formula: the hard clauses, and one
/// blocking variable appended to every soft clause as a hard clause.
/// Returns the run and the blocking literals. A model's cost counts the
/// soft clauses it falsifies, not the blockers it raises.
fn relaxed_run<'a>(wcnf: &'a WcnfFormula, budget: &Budget) -> (CoreRun<'a>, Vec<Lit>) {
    let mut run = CoreRun::new(wcnf, budget);
    // One blocker per soft, numbered in soft order, grown in one step.
    let first = run.engine.num_vars();
    run.engine.ensure_vars(first + wcnf.num_soft());
    let blockers = wcnf
        .soft_clauses()
        .zip(first..)
        .map(|(soft, v)| {
            let b = Lit::positive(Var::new(v as u32));
            run.engine
                .add_clause(soft.clause.lits().iter().copied().chain([b]));
            b
        })
        .collect();
    (run, blockers)
}

/// Model-improving linear search ("SAT–UNSAT"): find any model, then
/// repeatedly demand strictly lower cost until UNSAT.
///
/// # Panics
///
/// [`MaxSatSolver::solve`] panics on weighted input.
///
/// # Examples
///
/// ```
/// use coremax::{LinearSearchSat, MaxSatSolver};
/// use coremax_cnf::{Lit, WcnfFormula};
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// w.add_soft([Lit::positive(x)], 1);
/// w.add_soft([Lit::negative(x)], 1);
/// assert_eq!(LinearSearchSat::new().solve(&w).cost, Some(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinearSearchSat {
    budget: Budget,
}

impl LinearSearchSat {
    /// Linear search with the sorting-network encoding.
    #[must_use]
    pub fn new() -> Self {
        LinearSearchSat::default()
    }
}

impl MaxSatSolver for LinearSearchSat {
    fn name(&self) -> &'static str {
        "linear-sat"
    }

    fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        assert!(
            wcnf.is_unweighted(),
            "linear-sat handles unweighted (partial) MaxSAT"
        );
        // One engine for the whole descent. The bound only ever
        // tightens (`Σ b ≤ cost − 1` with strictly decreasing cost), so
        // it is permanent: the first model's bound builds the network,
        // and every later one is a unit on its outputs. Linear descent
        // proves no lower bound until the final UNSAT.
        let (mut run, blockers) = relaxed_run(wcnf, &self.budget);
        let mut bound = BlockingBound::new(CardEncoding::SortingNetwork, false);
        loop {
            match run.solve(&[]) {
                SolveOutcome::Sat => {
                    run.offer(run.model());
                    let cost = run.ub().expect("incumbent after SAT") as usize;
                    if cost == 0 {
                        return run.optimal();
                    }
                    bound.set(&mut run, &blockers, cost - 1);
                }
                SolveOutcome::Unsat if run.ub().is_some() => return run.optimal(),
                SolveOutcome::Unsat => return run.infeasible(),
                SolveOutcome::Unknown => return run.unknown(),
            }
        }
    }
}

/// Binary search on the cost bound between 0 and `|soft|`.
///
/// # Panics
///
/// [`MaxSatSolver::solve`] panics on weighted input.
#[derive(Debug, Clone, Default)]
pub struct BinarySearchSat {
    budget: Budget,
}

impl BinarySearchSat {
    /// Binary search with the sorting-network encoding.
    #[must_use]
    pub fn new() -> Self {
        BinarySearchSat::default()
    }
}

impl MaxSatSolver for BinarySearchSat {
    fn name(&self) -> &'static str {
        "binary-sat"
    }

    fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        assert!(
            wcnf.is_unweighted(),
            "binary-sat handles unweighted (partial) MaxSAT"
        );
        // One engine for the whole search. Unlike the linear descent
        // the probed bound moves in both directions, so it is gated:
        // each probe assumes its `Σ b ≤ mid` on one network, rebuilt
        // only when a probe passes its last output. The lower bound is
        // the smallest cost not yet excluded, the upper bound the
        // incumbent's cost.
        let (mut run, blockers) = relaxed_run(wcnf, &self.budget);
        let mut bound = BlockingBound::new(CardEncoding::SortingNetwork, true);

        // Feasibility first (no bound at all).
        match run.solve(&[]) {
            SolveOutcome::Unsat => return run.infeasible(),
            SolveOutcome::Unknown => return run.unknown(),
            SolveOutcome::Sat => run.offer(run.model()),
        }

        loop {
            let (lo, hi) = (run.lb(), run.ub().expect("incumbent after SAT"));
            if lo >= hi {
                return run.optimal();
            }
            let mid = (lo + (hi - lo) / 2) as usize;
            bound.set(&mut run, &blockers, mid);
            match run.solve(bound.assumptions()) {
                SolveOutcome::Sat => run.offer(run.model()),
                SolveOutcome::Unsat => run.raise_lb(mid as u64 + 1),
                SolveOutcome::Unknown => return run.unknown(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpll::dpll_max_satisfiable;
    use crate::MaxSatStatus;
    use coremax_cnf::{dimacs, Var};

    fn unweighted(text: &str) -> WcnfFormula {
        WcnfFormula::from_cnf_all_soft(&dimacs::parse_cnf(text).unwrap())
    }

    fn both() -> Vec<Box<dyn MaxSatSolver>> {
        vec![
            Box::new(LinearSearchSat::new()),
            Box::new(BinarySearchSat::new()),
        ]
    }

    #[test]
    fn paper_example2() {
        let w = unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        for mut s in both() {
            let r = s.solve(&w);
            assert_eq!(r.cost, Some(2), "{}", s.name());
            assert_eq!(r.status, MaxSatStatus::Optimal);
        }
    }

    #[test]
    fn satisfiable_costs_zero() {
        let w = unweighted("p cnf 1 1\n1 0\n");
        for mut s in both() {
            assert_eq!(s.solve(&w).cost, Some(0), "{}", s.name());
        }
    }

    #[test]
    fn infeasible_hard() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_hard([Lit::negative(x)]);
        for mut s in both() {
            assert_eq!(s.solve(&w).status, MaxSatStatus::Infeasible, "{}", s.name());
        }
    }

    #[test]
    fn agrees_with_oracle() {
        let mut seed = 0xE7037ED1A0B428DBu64;
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
                        let v = Var::new((next() % num_vars as u64) as u32);
                        Lit::new(v, next() & 1 == 0)
                    })
                    .collect();
                f.add_clause(lits);
            }
            let oracle = f.num_clauses() - dpll_max_satisfiable(&f);
            let w = WcnfFormula::from_cnf_all_soft(&f);
            for mut s in both() {
                let r = s.solve(&w);
                assert_eq!(r.cost, Some(oracle as u64), "{} wrong on {f}", s.name());
                let m = r.model.unwrap();
                assert_eq!(w.cost(&m), r.cost);
            }
        }
    }

    #[test]
    fn both_searches_reach_example2_optimum() {
        let w = unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        let rl = LinearSearchSat::new().solve(&w);
        let rb = BinarySearchSat::new().solve(&w);
        assert_eq!(rl.cost, Some(2), "linear");
        assert_eq!(rb.cost, Some(2), "binary");
    }

    #[test]
    fn binary_search_uses_fewer_calls_on_wide_ranges() {
        // 12 mutually-exclusive units: optimum 11 falsified.
        let mut f = coremax_cnf::CnfFormula::new();
        let v = f.new_var();
        for i in 0..12 {
            f.add_clause([Lit::new(v, i == 0)]);
        }
        let w = WcnfFormula::from_cnf_all_soft(&f);
        let mut lin = LinearSearchSat::new();
        let mut bin = BinarySearchSat::new();
        let rl = lin.solve(&w);
        let rb = bin.solve(&w);
        assert_eq!(rl.cost, rb.cost);
        assert!(rb.stats.sat_calls <= rl.stats.sat_calls + 4);
    }
}
