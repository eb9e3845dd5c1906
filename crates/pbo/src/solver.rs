//! SAT-based pseudo-Boolean optimisation by linear model-improving
//! search — the minisat+ strategy used as the paper's `pbo` baseline.

use coremax_cards::CnfSink;
use coremax_cnf::{Assignment, ClauseStore, Lit, WcnfFormula};
use coremax_sat::{Budget, SolveOutcome, Solver, SolverStats};

use crate::constraint::{PbConstraint, PbOp, PbTerm};
use crate::encode::encode_pb;

/// Result of a [`PboSolver::solve`] run.
#[derive(Debug, Clone)]
pub enum PboOutcome {
    /// The optimum was proven.
    Optimal {
        /// A model attaining the optimum.
        model: Assignment,
        /// The objective value of that model.
        cost: u64,
    },
    /// The constraints are unsatisfiable regardless of the objective.
    Infeasible,
    /// The budget ran out; the best model found so far (if any) is
    /// reported.
    Unknown {
        /// Best (model, cost) discovered before exhaustion, if any.
        best: Option<(Assignment, u64)>,
    },
}

/// A pseudo-Boolean optimisation problem: CNF clauses plus PB
/// constraints as the feasible region, and a linear objective to
/// minimise.
///
/// Solved by iterative strengthening: find any model, then repeatedly
/// add `objective ≤ cost − 1` (BDD-encoded) until UNSAT; the last model
/// is optimal. This is minisat+'s default search strategy and the
/// behaviour the paper's §2.2 analysis (blocking-variable blow-up)
/// relies on.
#[derive(Debug)]
pub struct PboSolver {
    num_vars: usize,
    clauses: ClauseStore,
    constraints: Vec<PbConstraint>,
    objective: Vec<PbTerm>,
    budget: Budget,
    /// Statistics: SAT solver calls made by the last `solve`.
    sat_calls: u32,
    /// The SAT engine's counters from the last `solve`.
    stats: SolverStats,
}

impl PboSolver {
    /// Creates an empty problem over `num_vars` variables.
    #[must_use]
    pub fn new(num_vars: usize) -> Self {
        PboSolver {
            num_vars,
            clauses: ClauseStore::new(),
            constraints: Vec::new(),
            objective: Vec::new(),
            budget: Budget::new(),
            sat_calls: 0,
            stats: SolverStats::default(),
        }
    }

    /// Adds a CNF clause constraint.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        for l in self.clauses.push(lits) {
            self.num_vars = self.num_vars.max(l.var().index() + 1);
        }
    }

    /// Adds a PB constraint.
    pub fn add_constraint(&mut self, constraint: PbConstraint) {
        for t in constraint.terms() {
            self.num_vars = self.num_vars.max(t.lit.var().index() + 1);
        }
        self.constraints.push(constraint);
    }

    /// Sets the linear objective `min Σ coeff·lit`.
    pub fn set_objective(&mut self, objective: Vec<PbTerm>) {
        for t in &objective {
            self.num_vars = self.num_vars.max(t.lit.var().index() + 1);
        }
        self.objective = objective;
    }

    /// Sets the resource budget for the whole optimisation run.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Number of variables (grows as constraints are added).
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// SAT solver invocations performed by the most recent `solve`.
    #[must_use]
    pub fn sat_calls(&self) -> u32 {
        self.sat_calls
    }

    /// The SAT engine's counters from the most recent `solve`.
    #[must_use]
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Evaluates the objective under `model`.
    #[must_use]
    pub fn objective_value(&self, model: &Assignment) -> u64 {
        self.objective
            .iter()
            .filter(|t| model.satisfies(t.lit))
            .map(|t| t.coeff)
            .sum()
    }

    /// Flips true objective literals to false where every clause and PB
    /// constraint (including the accumulated strengthening bounds)
    /// remains satisfied. Never increases the objective.
    fn minimise_model(&self, model: &mut Assignment, bounds: &[PbConstraint]) {
        for term in &self.objective {
            if !model.satisfies(term.lit) {
                continue;
            }
            model.assign_lit(!term.lit);
            let still_ok = self
                .clauses
                .iter()
                .all(|c| c.iter().any(|&l| model.satisfies(l)))
                && self.constraints.iter().all(|c| c.is_satisfied_by(model))
                && bounds.iter().all(|c| c.is_satisfied_by(model));
            if !still_ok {
                model.assign_lit(term.lit);
            }
        }
    }

    /// Runs the optimisation.
    pub fn solve(&mut self) -> PboOutcome {
        self.sat_calls = 0;
        let mut solver = Solver::new();
        solver.ensure_vars(self.num_vars);
        // The whole iterative search shares one clock and one work pool
        // (a bare budget would restart both at every strengthening
        // round).
        solver.set_budget(self.budget.child(std::time::Instant::now()));
        for c in &self.clauses {
            solver.add_clause(c.iter().copied());
        }
        let mut sink = CnfSink::new(self.num_vars);
        for constraint in &self.constraints {
            encode_pb(constraint, &mut sink);
        }
        solver.ensure_vars(sink.num_vars());
        for c in sink.clauses() {
            solver.add_clause(c.iter().copied());
        }

        let mut best: Option<(Assignment, u64)> = None;
        let mut bounds_so_far: Vec<PbConstraint> = Vec::new();
        let outcome = loop {
            self.sat_calls += 1;
            match solver.solve() {
                SolveOutcome::Sat => {
                    let mut model = solver.model().expect("model after SAT").clone();
                    // Greedy objective minimisation: flip objective
                    // literals to false where the clauses and PB
                    // constraints stay satisfied (a model may raise a
                    // blocking variable of a clause that is satisfied
                    // anyway). This is minisat+'s model-tightening step;
                    // without it the linear search descends one wasted
                    // objective unit per SAT call.
                    self.minimise_model(&mut model, &bounds_so_far);
                    let cost = self.objective_value(&model);
                    let improved = best.as_ref().is_none_or(|(_, b)| cost < *b);
                    if improved {
                        best = Some((model, cost));
                    }
                    if cost == 0 {
                        let (model, cost) = best.expect("cost-0 model recorded");
                        break PboOutcome::Optimal { model, cost };
                    }
                    // Strengthen: objective ≤ cost − 1.
                    let bound =
                        PbConstraint::new(self.objective.clone(), PbOp::Le, cost as i64 - 1);
                    let mut sink = CnfSink::new(solver.num_vars());
                    encode_pb(&bound, &mut sink);
                    bounds_so_far.push(bound);
                    solver.ensure_vars(sink.num_vars());
                    for c in sink.clauses() {
                        solver.add_clause(c.iter().copied());
                    }
                }
                SolveOutcome::Unsat => {
                    break match best.take() {
                        Some((model, cost)) => PboOutcome::Optimal { model, cost },
                        None => PboOutcome::Infeasible,
                    };
                }
                SolveOutcome::Unknown => break PboOutcome::Unknown { best: best.take() },
            }
        };
        self.stats = *solver.stats();
        outcome
    }
}

/// Builds the PBO formulation of a (weighted, partial) MaxSAT instance:
/// every soft clause `ωᵢ` gets a fresh blocking variable `bᵢ` (Example 1
/// of the paper), hard clauses are kept verbatim, and the objective is
/// `min Σ wᵢ·bᵢ`.
///
/// The MaxSAT optimum equals `Σ wᵢ −` the PBO optimum; for unweighted
/// instances, "number of clauses − cost".
#[must_use]
pub fn maxsat_as_pbo(wcnf: &WcnfFormula) -> PboSolver {
    let mut pbo = PboSolver::new(wcnf.num_vars());
    for h in wcnf.hard_clauses() {
        pbo.add_clause(h.lits().iter().copied());
    }
    let mut objective = Vec::with_capacity(wcnf.num_soft());
    for (next, soft) in (wcnf.num_vars() as u32..).zip(wcnf.soft_clauses()) {
        let b = Lit::positive(coremax_cnf::Var::new(next));
        pbo.add_clause(soft.clause.iter().copied().chain([b]));
        objective.push(PbTerm::new(soft.weight, b));
    }
    pbo.set_objective(objective);
    pbo
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax_cnf::Var;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d).unwrap()
    }

    #[test]
    fn unconstrained_objective_is_zero() {
        let mut pbo = PboSolver::new(2);
        pbo.set_objective(vec![PbTerm::new(1, lit(1)), PbTerm::new(1, lit(2))]);
        match pbo.solve() {
            PboOutcome::Optimal { cost, .. } => assert_eq!(cost, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn forced_costs_add_up() {
        // x1 forced true (cost 2), x2 free (cost 5 if true).
        let mut pbo = PboSolver::new(2);
        pbo.add_clause([lit(1)]);
        pbo.set_objective(vec![PbTerm::new(2, lit(1)), PbTerm::new(5, lit(2))]);
        match pbo.solve() {
            PboOutcome::Optimal { model, cost } => {
                assert_eq!(cost, 2);
                assert_eq!(model.value(Var::new(0)), Some(true));
                assert_eq!(model.value(Var::new(1)), Some(false));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        let mut pbo = PboSolver::new(1);
        pbo.add_clause([lit(1)]);
        pbo.add_clause([lit(-1)]);
        assert!(matches!(pbo.solve(), PboOutcome::Infeasible));
    }

    #[test]
    fn pb_constraints_respected() {
        // minimise x1+x2+x3 s.t. x1+x2+x3 ≥ 2.
        let lits: Vec<Lit> = (1..=3).map(lit).collect();
        let mut pbo = PboSolver::new(3);
        pbo.add_constraint(PbConstraint::cardinality(&lits, PbOp::Ge, 2));
        pbo.set_objective(lits.iter().map(|&l| PbTerm::new(1, l)).collect());
        match pbo.solve() {
            PboOutcome::Optimal { cost, model } => {
                assert_eq!(cost, 2);
                let trues = (0..3)
                    .filter(|&i| model.value(Var::new(i)) == Some(true))
                    .count();
                assert_eq!(trues, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn weighted_choice_picks_cheaper() {
        // Exactly one of x1, x2; x1 costs 10, x2 costs 1.
        let lits2 = [lit(1), lit(2)];
        let mut pbo = PboSolver::new(2);
        pbo.add_constraint(PbConstraint::cardinality(&lits2, PbOp::Eq, 1));
        pbo.set_objective(vec![PbTerm::new(10, lit(1)), PbTerm::new(1, lit(2))]);
        match pbo.solve() {
            PboOutcome::Optimal { cost, model } => {
                assert_eq!(cost, 1);
                assert_eq!(model.value(Var::new(1)), Some(true));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn maxsat_reduction_example1() {
        // Paper Example 1: optimum 2 of 3 ⟹ PBO cost 1.
        let mut w = WcnfFormula::new();
        let x1 = w.new_var();
        let x2 = w.new_var();
        w.add_soft([Lit::positive(x1)], 1);
        w.add_soft([Lit::positive(x2), Lit::negative(x1)], 1);
        w.add_soft([Lit::negative(x2)], 1);
        let mut pbo = maxsat_as_pbo(&w);
        match pbo.solve() {
            PboOutcome::Optimal { cost, .. } => assert_eq!(cost, 1),
            other => panic!("unexpected {other:?}"),
        }
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
        let mut pbo = maxsat_as_pbo(&w);
        match pbo.solve() {
            PboOutcome::Optimal { cost, model } => {
                assert_eq!(cost, 5);
                assert_eq!(model.value(x1), Some(true));
                assert_eq!(model.value(x2), Some(true));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_hard_clauses_reported() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_hard([Lit::negative(x)]);
        w.add_soft([Lit::positive(x)], 1);
        let mut pbo = maxsat_as_pbo(&w);
        assert!(matches!(pbo.solve(), PboOutcome::Infeasible));
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
        let mut pbo = maxsat_as_pbo(&w);
        pbo.set_budget(Budget::new().with_timeout(Duration::from_nanos(1)));
        assert!(matches!(pbo.solve(), PboOutcome::Unknown { .. }));
    }

    #[test]
    fn sat_calls_counted() {
        let mut pbo = PboSolver::new(1);
        pbo.set_objective(vec![PbTerm::new(1, lit(1))]);
        let _ = pbo.solve();
        assert!(pbo.sat_calls() >= 1);
    }
}
