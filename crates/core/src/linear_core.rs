//! msu2 and msu3 — the companion-report algorithms (reference \[22\],
//! Marques-Silva & Planes, CoRR abs/0712.0097).
//!
//! Both are core-guided like msu4 but search the bound from below only
//! (UNSAT → SAT): blocking variables are attached to soft clauses as
//! cores are discovered, and a single global `Σ b ≤ k` constraint is
//! kept, with `k` incremented on every refutation. The first satisfiable
//! working formula proves cost `k` optimal. The report's stated
//! improvements over msu1 are (a) at most one blocking variable per
//! clause and (b) a linear cardinality encoding; we expose both axes:
//!
//! - [`Msu3`]: the plain linear UNSAT→SAT search,
//! - [`Msu2`]: the same search with the sequential-counter ("linear")
//!   encoding and the per-core `Σ ≥ 1` redundant constraints.
//!
//! The exact pseudo-code of \[22\] is not reproduced in the DATE'08
//! paper; this reconstruction matches its described properties.

use coremax_cards::CardEncoding;
use coremax_cnf::{Lit, WcnfFormula};
use coremax_sat::{Budget, SolveOutcome};

use crate::blocking_bound::BlockingBound;
use crate::run::CoreRun;
use crate::types::{MaxSatSolution, MaxSatSolver};

/// Shared implementation of the msu2/msu3 linear UNSAT→SAT search.
#[derive(Debug, Clone)]
struct LinearCore {
    encoding: CardEncoding,
    core_at_least_one: bool,
    budget: Budget,
}

impl LinearCore {
    fn new(encoding: CardEncoding, core_at_least_one: bool) -> Self {
        LinearCore {
            encoding,
            core_at_least_one,
            budget: Budget::new(),
        }
    }

    fn solve(&self, wcnf: &WcnfFormula) -> MaxSatSolution {
        assert!(
            wcnf.is_unweighted(),
            "msu2/msu3 handle unweighted (partial) MaxSAT; got weighted soft clauses"
        );
        // Unblocked softs are enforced by their selector assumptions;
        // *blocking* clause `i` just deactivates it, so its selector
        // becomes the blocking variable the global bound ranges over —
        // no clause is ever re-added. The lower bound is the search's
        // current `k`.
        let mut run = CoreRun::new(wcnf, &self.budget);
        run.add_softs();
        let num_soft = wcnf.num_soft();

        let mut vb: Vec<Lit> = Vec::new(); // selectors of blocked clauses

        // The global `Σ_vb b ≤ k` constraint *loosens* as `k` grows and
        // its variable set grows with `vb`, so it is gated: each version
        // is assumed, and retired for good once superseded.
        let mut bound = BlockingBound::new(self.encoding, true);

        loop {
            let k = run.lb() as usize;
            bound.set(&mut run, &vb, k);

            match run.solve(bound.assumptions()) {
                // `k` is the running lower bound of the UNSAT→SAT
                // search: certified even when the run is cut short.
                SolveOutcome::Unknown => return run.unknown(),
                SolveOutcome::Sat => {
                    // The model falsifies at most `k` clauses (only
                    // blocked ones, under the bound), so exactly `k`.
                    run.offer(run.model());
                    return run.optimal();
                }
                SolveOutcome::Unsat => {
                    // Refuted independently of every assumption: blocked
                    // selectors and the bound gate are free at the clause
                    // level and the ge1 clauses are satisfiable on their
                    // own, so only the hard clauses can be contradictory.
                    if run.engine.formula_refuted() {
                        return run.infeasible();
                    }
                    let failed = run.engine.failed_softs();
                    run.core(failed.len(), 1);
                    let failed_assumptions = run.engine.failed_assumptions();
                    let touched_bound = bound
                        .assumptions()
                        .iter()
                        .any(|a| failed_assumptions.contains(a));
                    // Failed soft assumptions are exactly the unblocked
                    // clauses of the core; blocking one turns its selector
                    // into a blocking variable.
                    let mut fresh_blockers: Vec<Lit> = Vec::new();
                    for id in failed {
                        if run.engine.is_active(id) {
                            run.engine.deactivate(id);
                            let b = run.engine.selector(id);
                            vb.push(b);
                            run.stats.blocking_vars += 1;
                            fresh_blockers.push(b);
                        }
                    }
                    if fresh_blockers.is_empty() && !touched_bound {
                        // No assumption of either kind was involved —
                        // cannot happen without a formula-level refutation,
                        // but classify conservatively as infeasible.
                        return run.infeasible();
                    }
                    // Like msu4's optional line-19 constraint, the ≥1
                    // clause is only sound over the *newly* blocked
                    // clauses (cores are not minimal, so previously
                    // blocked clauses may appear spuriously). Unlike in
                    // msu4 — whose accumulated bounds only tighten — the
                    // bound here loosens as `k` grows, so the clause is
                    // implied only when the refutation did not use the
                    // bound at all.
                    if self.core_at_least_one && !fresh_blockers.is_empty() && !touched_bound {
                        run.engine.add_clause(fresh_blockers.iter().copied());
                        run.stats.cardinality_clauses += 1;
                    }
                    if fresh_blockers.is_empty() {
                        // The core involves only hard clauses, blocked
                        // clauses and the bound: any assignment of cost ≤ k
                        // would extend to a model of the refuted working
                        // formula, so the refutation proves optimum > k.
                        run.raise_lb(k as u64 + 1);
                        if k + 1 > num_soft {
                            // Cannot falsify more clauses than exist: the
                            // hard part must be inconsistent.
                            return run.infeasible();
                        }
                    }
                    // With fresh blocking variables the working formula
                    // gains freedom; re-solve at the same bound. Each
                    // iteration either blocks a new clause or lifts the
                    // bound, so the loop terminates in ≤ 2·|soft| rounds.
                }
            }
            if run.interrupted() {
                return run.unknown();
            }
        }
    }
}

/// msu3: linear UNSAT→SAT core-guided search, one blocking variable per
/// clause, BDD-encoded global bound.
///
/// # Panics
///
/// [`MaxSatSolver::solve`] panics on weighted input.
///
/// # Examples
///
/// ```
/// use coremax::{Msu3, MaxSatSolver};
/// use coremax_cnf::{Lit, WcnfFormula};
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// w.add_soft([Lit::positive(x)], 1);
/// w.add_soft([Lit::negative(x)], 1);
/// assert_eq!(Msu3::new().solve(&w).cost, Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Msu3 {
    inner: LinearCore,
}

impl Default for Msu3 {
    fn default() -> Self {
        Msu3::new()
    }
}

impl Msu3 {
    /// msu3 with the BDD bound encoding.
    #[must_use]
    pub fn new() -> Self {
        Msu3 {
            inner: LinearCore::new(CardEncoding::Bdd, false),
        }
    }
}

impl MaxSatSolver for Msu3 {
    fn name(&self) -> &'static str {
        "msu3"
    }

    fn set_budget(&mut self, budget: Budget) {
        self.inner.budget = budget;
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        self.inner.solve(wcnf)
    }
}

/// msu2: the msu3 search with the sequential-counter ("linear")
/// cardinality encoding and redundant per-core `Σ b ≥ 1` clauses.
///
/// # Panics
///
/// [`MaxSatSolver::solve`] panics on weighted input.
#[derive(Debug, Clone)]
pub struct Msu2 {
    inner: LinearCore,
}

impl Default for Msu2 {
    fn default() -> Self {
        Msu2::new()
    }
}

impl Msu2 {
    /// msu2 with its default (sequential counter) encoding.
    #[must_use]
    pub fn new() -> Self {
        Msu2 {
            inner: LinearCore::new(CardEncoding::SequentialCounter, true),
        }
    }
}

impl MaxSatSolver for Msu2 {
    fn name(&self) -> &'static str {
        "msu2"
    }

    fn set_budget(&mut self, budget: Budget) {
        self.inner.budget = budget;
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        self.inner.solve(wcnf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpll::dpll_max_satisfiable;
    use crate::MaxSatStatus;
    use coremax_cnf::dimacs;

    fn unweighted(text: &str) -> WcnfFormula {
        WcnfFormula::from_cnf_all_soft(&dimacs::parse_cnf(text).unwrap())
    }

    fn solvers() -> Vec<Box<dyn MaxSatSolver>> {
        vec![Box::new(Msu2::new()), Box::new(Msu3::new())]
    }

    #[test]
    fn paper_examples() {
        let e2 =
            unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        for mut s in solvers() {
            let r = s.solve(&e2);
            assert_eq!(r.cost, Some(2), "{}", s.name());
            assert_eq!(r.status, MaxSatStatus::Optimal);
            let m = r.model.unwrap();
            assert_eq!(e2.cost(&m), Some(2), "{} model is suboptimal", s.name());
        }
    }

    #[test]
    fn satisfiable_costs_zero() {
        let w = unweighted("p cnf 2 2\n1 2 0\n-1 0\n");
        for mut s in solvers() {
            assert_eq!(s.solve(&w).cost, Some(0), "{}", s.name());
        }
    }

    #[test]
    fn partial_infeasible() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_hard([Lit::negative(x)]);
        w.add_soft([Lit::positive(x)], 1);
        for mut s in solvers() {
            assert_eq!(s.solve(&w).status, MaxSatStatus::Infeasible, "{}", s.name());
        }
    }

    #[test]
    fn agrees_with_oracle_on_random_formulas() {
        let mut seed = 0xA0761D6478BD642Fu64;
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
            for mut s in solvers() {
                let r = s.solve(&w);
                assert_eq!(r.cost, Some(oracle as u64), "{} wrong on {f}", s.name());
            }
        }
    }

    #[test]
    fn stats_count_cores() {
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let mut s = Msu3::new();
        let r = s.solve(&w);
        assert_eq!(r.cost, Some(2));
        assert!(r.stats.cores >= 2);
        assert!(r.stats.blocking_vars >= 2);
    }
}
