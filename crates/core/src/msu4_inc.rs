//! Incremental msu4 over a single persistent SAT solver.
//!
//! The paper's §5 names "exploit[ing] alternative SAT solver technology"
//! as the first improvement direction; this module is that improvement.
//! Instead of rebuilding the working formula each iteration (the msu4
//! paper used non-incremental MiniSAT 1.14), every soft clause `ωᵢ` is
//! added **once** as `ωᵢ ∨ sᵢ` with a fresh selector variable, and the
//! selectors double as blocking variables:
//!
//! - an *unblocked* clause is enforced by assuming `¬sᵢ`;
//! - the solver's **failed assumptions** after an UNSAT answer name the
//!   soft clauses of a core directly — no clause-id bookkeeping;
//! - *blocking* a clause just removes its `¬sᵢ` assumption;
//! - the bound `Σ_vb s ≤ ub − 1` only tightens, so it is added
//!   permanently: one sorting network over the blocked selectors, built
//!   with its first `ub` outputs at the first tightening after a core
//!   grows the blocking set, and each bound as the unit `¬out[ub − 1]`.
//!   Tightening without a new core adds no encoding clauses.
//!
//! This is how later core-guided solvers (e.g. open-wbo's MSU3/OLL
//! implementations) drive their SAT engines, applied to Algorithm 1.

use std::time::Instant;

use coremax_cards::CardEncoding;
use coremax_cnf::{Lit, WcnfFormula};
use coremax_sat::{Budget, EngineMode, IncrementalSolver, SharedContext, SolveOutcome};

use crate::msu4::BlockingBound;
use crate::types::{MaxSatSolution, MaxSatSolver, MaxSatStats, MaxSatStatus};

/// Assumption-based incremental msu4. Same algorithm and answer as
/// [`crate::Msu4`], one SAT solver for the whole run.
///
/// # Input restrictions
///
/// Unweighted (partial) MaxSAT, like [`crate::Msu4`].
///
/// # Panics
///
/// [`MaxSatSolver::solve`] panics on weighted input.
///
/// # Examples
///
/// ```
/// use coremax::{Msu4Incremental, MaxSatSolver};
/// use coremax_cnf::{Lit, WcnfFormula};
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// w.add_soft([Lit::positive(x)], 1);
/// w.add_soft([Lit::negative(x)], 1);
/// assert_eq!(Msu4Incremental::new().solve(&w).cost, Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Msu4Incremental {
    budget: Budget,
    engine_mode: EngineMode,
    shared: Option<SharedContext>,
}

impl Default for Msu4Incremental {
    fn default() -> Self {
        Msu4Incremental::new()
    }
}

impl Msu4Incremental {
    /// Incremental msu4 with the sorting-network (v2) encoding.
    #[must_use]
    pub fn new() -> Self {
        Msu4Incremental {
            budget: Budget::new(),
            engine_mode: EngineMode::Persistent,
            shared: None,
        }
    }

    /// Selects how the SAT engine services iterations; the rebuilding
    /// mode reconstructs a fresh solver per call (benchmark baseline).
    #[must_use]
    pub fn with_engine_mode(mut self, mode: EngineMode) -> Self {
        self.engine_mode = mode;
        self
    }
}

impl MaxSatSolver for Msu4Incremental {
    fn name(&self) -> &'static str {
        "msu4-inc"
    }

    fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn set_shared_context(&mut self, ctx: SharedContext) {
        self.shared = Some(ctx);
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        assert!(
            wcnf.is_unweighted(),
            "msu4-inc handles unweighted (partial) MaxSAT; got weighted soft clauses"
        );
        let start = Instant::now();
        let child_budget = self.budget.child(start);
        let mut stats = MaxSatStats::default();
        let num_soft = wcnf.num_soft();

        let finish = |status: MaxSatStatus,
                      cost: Option<usize>,
                      lower_bound: usize,
                      model: Option<coremax_cnf::Assignment>,
                      mut stats: MaxSatStats| {
            stats.wall_time = start.elapsed();
            MaxSatSolution {
                status,
                cost: cost.map(|c| c as u64),
                model,
                lower_bound: lower_bound as u64,
                stats,
            }
        };

        // One engine for the whole run; the selector-per-soft-clause
        // bookkeeping this module used to do by hand now lives in
        // `IncrementalSolver`.
        let mut engine =
            IncrementalSolver::with_mode_and_shared(self.engine_mode, self.shared.clone());
        engine.ensure_vars(wcnf.num_vars());
        engine.set_budget(child_budget.clone());
        for h in wcnf.hard_clauses() {
            engine.add_clause_shared(h.lits().iter().copied());
        }
        for s in wcnf.soft_clauses() {
            engine.add_soft(s.clause.lits().iter().copied());
        }

        let mut vb: Vec<Lit> = Vec::new(); // selectors of blocked clauses
        let mut lb = 0usize;
        let mut ub = num_soft;
        let mut best_model: Option<coremax_cnf::Assignment> = None;
        let mut bound = BlockingBound::new(CardEncoding::SortingNetwork, false);
        // Whether any cardinality bound was materialised: a
        // clause-level refutation *before* that can only involve the
        // hard clauses (relaxed softs are unrefutable — their selectors
        // are free), i.e. the instance is infeasible.
        let mut bounds_added = false;

        loop {
            stats.sat_calls += 1;
            match engine.solve(&[]) {
                SolveOutcome::Unknown => {
                    stats.absorb_sat(&engine.stats());
                    // Certified interval: lb from disjoint cores, ub from
                    // the best model found so far.
                    return finish(
                        MaxSatStatus::Unknown,
                        best_model.is_some().then_some(ub),
                        lb,
                        best_model,
                        stats,
                    );
                }
                SolveOutcome::Unsat => {
                    stats.unsat_iterations += 1;
                    if engine.formula_refuted() {
                        // Refuted independently of the assumptions: either
                        // the hard clauses are inconsistent (infeasible) or
                        // the accumulated bounds are (current ub optimal —
                        // Algorithm 1's line 21/22 case). Bound clauses
                        // only exist after a SAT iteration, so an
                        // `Optimal` here always carries that iteration's
                        // model; before any bound the refutation can only
                        // cite hard clauses, however late CDCL finds it.
                        if !bounds_added {
                            stats.absorb_sat(&engine.stats());
                            return finish(MaxSatStatus::Infeasible, None, 0, None, stats);
                        }
                        stats.absorb_sat(&engine.stats());
                        return finish(MaxSatStatus::Optimal, Some(ub), ub, best_model, stats);
                    }
                    stats.cores += 1;
                    if coremax_obs::tracing_enabled() {
                        coremax_obs::emit(coremax_obs::Event::CoreExtracted {
                            size: engine.failed_softs().len() as u64,
                            weight: 1,
                        });
                    }
                    // Failed softs name the core's clauses directly, all
                    // unblocked by construction.
                    let mut fresh = 0usize;
                    for id in engine.failed_softs() {
                        if engine.is_active(id) {
                            engine.deactivate(id);
                            vb.push(engine.selector(id));
                            fresh += 1;
                            stats.blocking_vars += 1;
                        }
                    }
                    if fresh == 0 {
                        // The assumption core was empty or already
                        // blocked: the hard part must be inconsistent.
                        stats.absorb_sat(&engine.stats());
                        return finish(MaxSatStatus::Infeasible, None, 0, None, stats);
                    }
                    lb += 1;
                    if coremax_obs::tracing_enabled() {
                        coremax_obs::emit(coremax_obs::Event::Bounds {
                            lb: lb as u64,
                            ub: best_model.is_some().then_some(ub as u64),
                        });
                    }
                }
                SolveOutcome::Sat => {
                    stats.sat_iterations += 1;
                    let model = engine.model().expect("model after SAT").clone();
                    // Cost = falsified soft clauses (unblocked ones are
                    // enforced by assumptions, so only blocked count).
                    let f = wcnf
                        .soft_clauses()
                        .iter()
                        .filter(|s| !s.clause.is_satisfied_by(&model))
                        .count();
                    if f < ub || best_model.is_none() {
                        ub = f;
                        best_model = Some(model);
                        if coremax_obs::tracing_enabled() {
                            coremax_obs::emit(coremax_obs::Event::Incumbent { cost: ub as u64 });
                            coremax_obs::emit(coremax_obs::Event::Bounds {
                                lb: lb as u64,
                                ub: Some(ub as u64),
                            });
                        }
                    }
                    // Tighten: Σ_vb s ≤ ub − 1 (added permanently; bounds
                    // only tighten so stale ones are merely redundant).
                    // ub = 0 needs no bound: the check below returns.
                    if ub > 0 {
                        bound.tighten(&mut engine, &vb, ub, &mut stats);
                        bounds_added = true;
                    }
                }
            }
            if lb >= ub {
                if best_model.is_none() {
                    // The lower bound met the worst case before any SAT
                    // iteration (every soft clause is blocked, so the
                    // assumption set is empty): one relaxed call
                    // materialises a model attaining `ub` — an Optimal
                    // verdict must never be model-free — or exposes the
                    // hard clauses as infeasible.
                    stats.sat_calls += 1;
                    match engine.solve_exact(&[]) {
                        SolveOutcome::Sat => {
                            stats.sat_iterations += 1;
                            best_model = engine.model().cloned();
                        }
                        SolveOutcome::Unsat => {
                            stats.absorb_sat(&engine.stats());
                            return finish(MaxSatStatus::Infeasible, None, 0, None, stats);
                        }
                        SolveOutcome::Unknown => {
                            // lb ≥ ub is proven but no model could be
                            // materialised in time: report the certified
                            // lower bound with no incumbent.
                            stats.absorb_sat(&engine.stats());
                            return finish(MaxSatStatus::Unknown, None, lb.min(ub), None, stats);
                        }
                    }
                }
                stats.absorb_sat(&engine.stats());
                return finish(MaxSatStatus::Optimal, Some(ub), ub, best_model, stats);
            }
            if child_budget.interrupted() {
                stats.absorb_sat(&engine.stats());
                return finish(
                    MaxSatStatus::Unknown,
                    best_model.is_some().then_some(ub),
                    lb,
                    best_model,
                    stats,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Msu4;
    use coremax_cnf::dimacs;
    use coremax_sat::dpll_max_satisfiable;

    fn unweighted(text: &str) -> WcnfFormula {
        WcnfFormula::from_cnf_all_soft(&dimacs::parse_cnf(text).unwrap())
    }

    #[test]
    fn paper_examples() {
        let e1 = unweighted("p cnf 2 3\n1 0\n2 -1 0\n-2 0\n");
        assert_eq!(Msu4Incremental::new().solve(&e1).cost, Some(1));
        let e2 =
            unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        let s = Msu4Incremental::new().solve(&e2);
        assert_eq!(s.cost, Some(2));
        assert_eq!(s.num_satisfied(&e2), Some(6));
    }

    #[test]
    fn satisfiable_costs_zero() {
        let w = unweighted("p cnf 2 2\n1 2 0\n-1 0\n");
        let s = Msu4Incremental::new().solve(&w);
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
        let s = Msu4Incremental::new().solve(&w);
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
            Msu4Incremental::new().solve(&w).status,
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
            let inc = Msu4Incremental::new().solve(&w);
            let rebuild = Msu4::v2().solve(&w);
            assert_eq!(
                inc.cost,
                Some(oracle),
                "round {round}: msu4-inc wrong on {f}"
            );
            assert_eq!(inc.cost, rebuild.cost, "round {round}: variants disagree");
            if let Some(m) = &inc.model {
                assert_eq!(w.cost(m), inc.cost);
            }
        }
    }

    #[test]
    fn budget_abort() {
        use std::time::Duration;
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let mut solver = Msu4Incremental::new();
        solver.set_budget(Budget::new().with_timeout(Duration::from_nanos(1)));
        assert_eq!(solver.solve(&w).status, MaxSatStatus::Unknown);
    }

    #[test]
    fn optimal_verdict_always_carries_a_model() {
        // Hard (x1 ∨ x2) ∧ ¬x1 with a single soft ¬x2: the first
        // iteration is assumption-UNSAT, so lb meets ub = num_soft
        // before any SAT iteration ran. The fix materialises a model
        // with one relaxed call — an Optimal verdict must never be
        // model-free (Stratified and the parallel portfolio both rely
        // on it).
        use coremax_cnf::Lit;
        let mut w = WcnfFormula::new();
        let x1 = w.new_var();
        let x2 = w.new_var();
        w.add_hard([Lit::positive(x1), Lit::positive(x2)]);
        w.add_hard([Lit::negative(x1)]);
        w.add_soft([Lit::negative(x2)], 1);
        let s = Msu4Incremental::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.cost, Some(1));
        let model = s.model.as_ref().expect("optimal must carry a model");
        assert_eq!(w.cost(model), Some(1));
        assert!(crate::verify_solution(&w, &s));
    }

    #[test]
    fn late_hard_infeasibility_is_never_reported_optimal() {
        // Infeasible hard chain plus softs: whether CDCL refutes the
        // hard clauses on the first call or only after assumption
        // iterations blocked every soft, the verdict must be
        // Infeasible — not "Optimal at worst case".
        use coremax_cnf::Lit;
        let mut w = WcnfFormula::new();
        let x1 = w.new_var();
        let x2 = w.new_var();
        w.add_hard([Lit::positive(x1)]);
        w.add_hard([Lit::negative(x1), Lit::positive(x2)]);
        w.add_hard([Lit::negative(x2)]);
        w.add_soft([Lit::positive(x1)], 1);
        w.add_soft([Lit::positive(x2)], 1);
        let s = Msu4Incremental::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Infeasible);
        assert!(s.model.is_none());
    }

    #[test]
    fn single_solver_many_fewer_rebuilds() {
        // Statistics sanity: the incremental variant performs the same
        // number of SAT *calls* but zero solver rebuilds; its call count
        // must match the algorithm's iteration structure.
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let s = Msu4Incremental::new().solve(&w);
        assert_eq!(s.cost, Some(2));
        assert!(s.stats.sat_calls >= 3);
        assert!(s.stats.cores >= 1);
    }
}
