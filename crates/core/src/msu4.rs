//! The msu4 algorithm — Algorithm 1 of the paper.

use coremax_cards::CardEncoding;
use coremax_cnf::{Assignment, Lit, WcnfFormula, Weight};
use coremax_sat::{Budget, SoftId, SolveOutcome};

use crate::blocking_bound::BlockingBound;
use crate::core_min::minimize_failed;
use crate::run::CoreRun;
use crate::types::{MaxSatSolution, MaxSatSolver};

/// Configuration of the [`Msu4`] solver.
#[derive(Debug, Clone)]
pub struct Msu4Config {
    /// CNF encoding used for the cardinality constraints. The paper's
    /// **v1** is [`CardEncoding::Bdd`], **v2** is
    /// [`CardEncoding::SortingNetwork`].
    pub encoding: CardEncoding,
    /// Whether to add the optional `Σ_{i∈core} bᵢ ≥ 1` constraint when a
    /// core is blocked (Algorithm 1, line 19). The paper notes it "is in
    /// fact optional, but experiments suggest that it is most often
    /// useful"; it is on by default and an ablation bench toggles it.
    pub core_at_least_one: bool,
    /// Whether to shrink each extracted core with deletion-based
    /// minimisation ([`crate::minimize_core`]) before blocking. Fewer
    /// blocking variables per core at the price of one SAT call per
    /// core clause — the paper's closing remark ties msu4's efficiency
    /// to small cores, and this knob probes that dependence.
    pub minimize_cores: bool,
}

impl Default for Msu4Config {
    fn default() -> Self {
        Msu4Config {
            encoding: CardEncoding::SortingNetwork,
            core_at_least_one: true,
            minimize_cores: false,
        }
    }
}

/// The msu4 core-guided MaxSAT solver (Marques-Silva & Planes, DATE'08).
///
/// msu4 maintains a working formula φW. Each SAT-solver call either
/// *refutes* φW — then every not-yet-blocked soft clause in the
/// unsatisfiable core receives a blocking variable, raising the lower
/// bound on the optimum cost — or *satisfies* it — then the number of
/// blocking variables assigned 1 gives an upper bound, and a cardinality
/// constraint demands the next model do strictly better. The algorithm
/// stops when the bounds meet, or when a core contains no unblocked soft
/// clause (the current bound is then provably optimal).
///
/// Unlike msu1 (Fu & Malik), at most **one** blocking variable is ever
/// attached to a clause.
///
/// The live bound `Σ b ≤ ub − 1` is gated: assumed behind one
/// activation literal and retired when superseded. [`Msu4::incremental`]
/// (`msu4-inc`, the paper's §5 direction of exploiting incremental SAT
/// technology) adds every bound permanently instead.
///
/// # Input restrictions
///
/// Supports *unweighted* (partial) MaxSAT: all soft clauses must have
/// weight 1. Hard clauses are fully supported (they are never blocked;
/// a core of hard clauses only means the instance is infeasible).
///
/// # Panics
///
/// [`MaxSatSolver::solve`] panics if a soft clause has weight ≠ 1.
///
/// # Examples
///
/// ```
/// use coremax::{Msu4, MaxSatSolver};
/// use coremax_cnf::{Lit, WcnfFormula};
///
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// w.add_soft([Lit::positive(x)], 1);
/// w.add_soft([Lit::negative(x)], 1);
/// let solution = Msu4::v2().solve(&w);
/// assert_eq!(solution.cost, Some(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Msu4 {
    config: Msu4Config,
    /// Whether bounds are added permanently (`msu4-inc`) instead of
    /// gated.
    permanent: bool,
    budget: Budget,
}

impl Msu4 {
    /// msu4 with the default (v2 / sorting network) configuration.
    #[must_use]
    pub fn new() -> Self {
        Msu4::default()
    }

    /// The paper's **v1**: BDD cardinality encoding.
    #[must_use]
    pub fn v1() -> Self {
        Msu4::with_config(Msu4Config {
            encoding: CardEncoding::Bdd,
            ..Msu4Config::default()
        })
    }

    /// The paper's **v2**: sorting-network cardinality encoding.
    #[must_use]
    pub fn v2() -> Self {
        Msu4::with_config(Msu4Config {
            encoding: CardEncoding::SortingNetwork,
            ..Msu4Config::default()
        })
    }

    /// **msu4-inc**: v2 with every bound added permanently. A bound
    /// only tightens, so the unit `¬out[ub − 1]` on the network over the
    /// blocking set stands in for assuming it.
    ///
    /// # Examples
    ///
    /// ```
    /// use coremax::{MaxSatSolver, Msu4};
    /// use coremax_cnf::{Lit, WcnfFormula};
    ///
    /// let mut w = WcnfFormula::new();
    /// let x = w.new_var();
    /// w.add_soft([Lit::positive(x)], 1);
    /// w.add_soft([Lit::negative(x)], 1);
    /// let mut solver = Msu4::incremental();
    /// assert_eq!(solver.name(), "msu4-inc");
    /// assert_eq!(solver.solve(&w).cost, Some(1));
    /// ```
    #[must_use]
    pub fn incremental() -> Self {
        Msu4 {
            permanent: true,
            ..Msu4::v2()
        }
    }

    /// msu4 with an explicit configuration.
    #[must_use]
    pub fn with_config(config: Msu4Config) -> Self {
        Msu4 {
            config,
            permanent: false,
            budget: Budget::new(),
        }
    }
}

impl MaxSatSolver for Msu4 {
    fn name(&self) -> &'static str {
        if self.permanent {
            return "msu4-inc";
        }
        match self.config.encoding {
            CardEncoding::Bdd => "msu4-v1",
            CardEncoding::SortingNetwork => "msu4-v2",
            _ => "msu4",
        }
    }

    fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        assert!(
            wcnf.is_unweighted(),
            "msu4 handles unweighted (partial) MaxSAT; got weighted soft clauses"
        );
        let mut run = CoreRun::new(wcnf, &self.budget);
        // Bounds in *cost* space: lb = the paper's νU (each disjointly
        // refuted core forces one more falsified clause, Prop. 1);
        // ub = the paper's νBV (the incumbent's cost, Prop. 2), or every
        // soft clause before the first model.
        let num_soft = wcnf.num_soft() as Weight;

        // Feasibility pre-check: cores are not guaranteed minimal, so a
        // hard-only contradiction could otherwise hide inside a mixed
        // core and the termination argument of Algorithm 1 (which assumes
        // plain MaxSAT) would return a bogus optimum. Running it on the
        // same engine seeds the clause database before the softs arrive.
        // Its model is not an incumbent (ub stays νBV = every soft): it
        // only stands in for one at an exit that has none.
        let mut hard_model: Option<Assignment> = None;
        if wcnf.num_hard() > 0 {
            match run.solve(&[]) {
                SolveOutcome::Unsat => return run.infeasible(),
                SolveOutcome::Unknown => return run.unknown(),
                SolveOutcome::Sat => hard_model = Some(run.model()),
            }
        }
        let fall_back = |run: &mut CoreRun, hard_model: Option<Assignment>| {
            if let Some(model) = hard_model.filter(|_| run.ub().is_none()) {
                run.offer(model);
            }
        };

        // Selector per soft clause; an *unblocked* clause is one whose
        // selector assumption is still active, and blocking it merely
        // deactivates the assumption (the selector is the paper's
        // blocking variable — at most one per clause, by construction).
        // The engine maps a core's assumptions back to their softs.
        run.add_softs();
        // All blocking literals, in introduction order (the paper's VB).
        let mut vb: Vec<Lit> = Vec::new();
        // The *current* Σ_vb b ≤ ub−1 bound. Superseded bounds are
        // implied by the tightest one, so φW keeps only the latest —
        // Algorithm 1 accumulates them, but keeping stale encodings
        // active changes neither models nor correctness and only slows
        // propagation. Gated, the live encoding sits behind one
        // activation literal and is retired (unit `t`) when superseded;
        // permanent, the stale ones stay, implied by the latest.
        let mut bound = BlockingBound::new(self.config.encoding, !self.permanent);

        loop {
            match run.solve(bound.assumptions()) {
                SolveOutcome::Unknown => {
                    fall_back(&mut run, hard_model);
                    return run.unknown();
                }
                SolveOutcome::Unsat => {
                    // Independent of all assumptions. Selectors and bound
                    // gates are free at the clause level, ge1 clauses are
                    // satisfiable on their own, and the pre-check found
                    // the hard clauses satisfiable. So only permanent
                    // bounds, added after a model, can refute the
                    // clauses: no assignment beats the incumbent.
                    if run.engine.formula_refuted() {
                        debug_assert!(self.permanent && run.ub().is_some());
                        return run.optimal();
                    }
                    let failed = run.engine.failed_assumptions().to_vec();
                    let core = if self.config.minimize_cores {
                        minimize_failed(&mut run.engine, failed)
                    } else {
                        failed
                    };
                    run.core(core.len(), 1);
                    // φI: unblocked soft clauses in the core (the paper's
                    // "initial clauses"). A bound literal can be the
                    // assumption of a blocked soft (a one-input network
                    // outputs its input), so filter on activity.
                    let new_blocked: Vec<SoftId> = core
                        .iter()
                        .filter_map(|&a| run.engine.soft_of(a))
                        .filter(|&id| run.engine.is_active(id))
                        .collect();
                    if new_blocked.is_empty() {
                        // Line 21–22: the core can be re-derived no matter
                        // which further clauses are blocked, so the current
                        // upper bound is the optimum.
                        fall_back(&mut run, hard_model);
                        return run.optimal();
                    }
                    // Lines 17–20: attach blocking variables and (optionally)
                    // require at least one of them to be used.
                    let mut core_blockers = Vec::with_capacity(new_blocked.len());
                    for id in new_blocked {
                        run.engine.deactivate(id);
                        let b = run.engine.selector(id);
                        vb.push(b);
                        core_blockers.push(b);
                        run.stats.blocking_vars += 1;
                    }
                    if self.config.core_at_least_one {
                        run.engine.add_clause(core_blockers.iter().copied());
                        run.stats.cardinality_clauses += 1;
                    }
                    // Lines 23–24: every such core lifts the lower bound.
                    run.raise_lb(run.lb() + 1);
                }
                SolveOutcome::Sat => {
                    // Line 26 uses ν = blocking variables assigned 1; the
                    // incumbent's cost tightens it to the model's *actual*
                    // number of falsified soft clauses f ≤ ν (a model may
                    // raise a blocking variable of a clause it satisfies
                    // anyway). Soundness is unchanged: any assignment of
                    // cost ≤ f−1 extends to a model of φW with Σb ≤ f−1,
                    // so the strengthened constraint excludes no optimum.
                    // Without this, descent proceeds one wasted blocking
                    // variable at a time, one SAT call per step.
                    run.offer(run.model());
                    // Lines 30–31: demand strictly fewer blocking vars
                    // (ub = 0 needs no bound: line 32 below returns).
                    let ub = run.ub().expect("incumbent after SAT");
                    if ub > 0 {
                        bound.set(&mut run, &vb, ub as usize - 1);
                    }
                }
            }
            // Line 32: bounds met.
            if run.lb() >= run.ub().unwrap_or(num_soft) {
                fall_back(&mut run, hard_model);
                return run.optimal();
            }
            if run.interrupted() {
                fall_back(&mut run, hard_model);
                return run.unknown();
            }
        }
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

    /// v1, v2, and v2 with permanent bounds (msu4-inc).
    fn variants() -> [Msu4; 3] {
        [Msu4::v1(), Msu4::v2(), Msu4::incremental()]
    }

    #[test]
    fn example1_of_the_paper() {
        let w = unweighted("p cnf 2 3\n1 0\n2 -1 0\n-2 0\n");
        for mut solver in variants() {
            let s = solver.solve(&w);
            assert_eq!(s.status, MaxSatStatus::Optimal);
            assert_eq!(s.cost, Some(1));
            assert_eq!(s.num_satisfied(&w), Some(2));
        }
    }

    #[test]
    fn example2_of_the_paper() {
        // §3.3: optimum 6 of 8 (two clauses falsified).
        let w = unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        for mut solver in variants() {
            let s = solver.solve(&w);
            assert_eq!(s.status, MaxSatStatus::Optimal);
            assert_eq!(s.cost, Some(2));
            assert_eq!(s.num_satisfied(&w), Some(6));
            // The model must actually attain the claimed cost.
            let m = s.model.as_ref().unwrap();
            assert_eq!(w.cost(m), Some(2));
        }
    }

    #[test]
    fn satisfiable_formula_costs_zero() {
        let w = unweighted("p cnf 3 3\n1 2 0\n-1 3 0\n-3 2 0\n");
        for mut solver in variants() {
            let s = solver.solve(&w);
            assert_eq!(s.status, MaxSatStatus::Optimal, "{}", solver.name());
            assert_eq!(s.cost, Some(0), "{}", solver.name());
            // No hard clauses, so no pre-check: one call suffices.
            assert_eq!(s.stats.sat_calls, 1, "{}", solver.name());
        }
    }

    #[test]
    fn all_clauses_conflicting() {
        // (x)(¬x)(y)(¬y): cost 2.
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        for mut solver in variants() {
            let s = solver.solve(&w);
            assert_eq!(s.cost, Some(2), "{}", solver.name());
        }
    }

    #[test]
    fn lone_empty_soft_clause_is_optimal_with_a_model() {
        // No hard clauses and one empty soft: the only core blocks it,
        // so lb meets ub = 1 before any SAT answer, and the optimum
        // still needs a model.
        let w = unweighted("p cnf 1 1\n0\n");
        for mut solver in variants() {
            let s = solver.solve(&w);
            assert_eq!(s.status, MaxSatStatus::Optimal, "{}", solver.name());
            assert_eq!(s.cost, Some(1), "{}", solver.name());
            assert!(crate::verify_solution(&w, &s), "{}", solver.name());
        }
    }

    #[test]
    fn partial_maxsat_hard_clauses_respected() {
        // Hard: x1. Soft: ¬x1, x2, ¬x2 → optimum cost 2? No: falsify ¬x1
        // (forced) and one of x2/¬x2 → cost 2.
        let mut w = WcnfFormula::new();
        let x1 = w.new_var();
        let x2 = w.new_var();
        w.add_hard([Lit::positive(x1)]);
        w.add_soft([Lit::negative(x1)], 1);
        w.add_soft([Lit::positive(x2)], 1);
        w.add_soft([Lit::negative(x2)], 1);
        for mut solver in variants() {
            let s = solver.solve(&w);
            assert_eq!(s.status, MaxSatStatus::Optimal, "{}", solver.name());
            assert_eq!(s.cost, Some(2), "{}", solver.name());
            let m = s.model.unwrap();
            assert_eq!(m.value(x1), Some(true), "{}", solver.name());
        }
    }

    #[test]
    fn infeasible_hard_clauses() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_hard([Lit::negative(x)]);
        w.add_soft([Lit::positive(x)], 1);
        for mut solver in variants() {
            let s = solver.solve(&w);
            assert_eq!(s.status, MaxSatStatus::Infeasible, "{}", solver.name());
        }
    }

    #[test]
    fn late_hard_infeasibility_is_never_reported_optimal() {
        // An infeasible hard chain plus softs: whether CDCL refutes the
        // hard clauses at the pre-check or only after assumption
        // iterations blocked every soft, the verdict is Infeasible, not
        // "Optimal at worst case".
        let mut w = WcnfFormula::new();
        let x1 = w.new_var();
        let x2 = w.new_var();
        w.add_hard([Lit::positive(x1)]);
        w.add_hard([Lit::negative(x1), Lit::positive(x2)]);
        w.add_hard([Lit::negative(x2)]);
        w.add_soft([Lit::positive(x1)], 1);
        w.add_soft([Lit::positive(x2)], 1);
        for mut solver in variants() {
            let s = solver.solve(&w);
            assert_eq!(s.status, MaxSatStatus::Infeasible, "{}", solver.name());
            assert!(s.model.is_none(), "{}", solver.name());
        }
    }

    #[test]
    fn optimal_verdict_always_carries_a_model() {
        // Hard (x1 ∨ x2) ∧ ¬x1 with the single soft ¬x2: the first
        // iteration after the pre-check is UNSAT, so lb meets ub =
        // num_soft before any SAT iteration ran. The Optimal verdict
        // still carries a model (Stratified and the portfolio rely on
        // it).
        let mut w = WcnfFormula::new();
        let x1 = w.new_var();
        let x2 = w.new_var();
        w.add_hard([Lit::positive(x1), Lit::positive(x2)]);
        w.add_hard([Lit::negative(x1)]);
        w.add_soft([Lit::negative(x2)], 1);
        for mut solver in variants() {
            let s = solver.solve(&w);
            assert_eq!(s.status, MaxSatStatus::Optimal, "{}", solver.name());
            assert_eq!(s.cost, Some(1), "{}", solver.name());
            let model = s.model.as_ref().expect("optimal must carry a model");
            assert_eq!(w.cost(model), Some(1), "{}", solver.name());
            assert!(crate::verify_solution(&w, &s), "{}", solver.name());
        }
    }

    #[test]
    #[should_panic(expected = "unweighted")]
    fn weighted_input_rejected() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_soft([Lit::positive(x)], 3);
        let _ = Msu4::v2().solve(&w);
    }

    #[test]
    fn optional_constraint_off_still_correct() {
        let w = unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        let mut solver = Msu4::with_config(Msu4Config {
            encoding: CardEncoding::SortingNetwork,
            core_at_least_one: false,
            minimize_cores: false,
        });
        let s = solver.solve(&w);
        assert_eq!(s.cost, Some(2));
    }

    #[test]
    fn agrees_with_oracle_on_random_formulas() {
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..30 {
            let num_vars = 4 + (next() % 4) as usize; // 4..=7
            let num_clauses = 6 + (next() % 14) as usize;
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
            for mut solver in variants() {
                let s = solver.solve(&w);
                assert_eq!(
                    s.cost,
                    Some(oracle as u64),
                    "round {round}: {} disagreed on {f}",
                    solver.name()
                );
                if let Some(m) = &s.model {
                    assert_eq!(w.cost(m), s.cost, "model does not attain claimed cost");
                }
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        for mut solver in variants() {
            let s = solver.solve(&w);
            assert_eq!(s.cost, Some(2), "{}", solver.name());
            // Two cores, then a model.
            assert!(s.stats.sat_calls >= 3, "{}", solver.name());
            assert!(s.stats.cores >= 1, "{}", solver.name());
            assert!(s.stats.blocking_vars >= 2, "{}", solver.name());
        }
    }

    #[test]
    fn budget_abort_returns_unknown() {
        use std::time::Duration;
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        for mut solver in variants() {
            solver.set_budget(Budget::new().with_timeout(Duration::from_nanos(1)));
            let s = solver.solve(&w);
            assert_eq!(s.status, MaxSatStatus::Unknown, "{}", solver.name());
        }
    }

    #[test]
    fn core_minimisation_preserves_optimum() {
        let w = unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        let mut solver = Msu4::with_config(Msu4Config {
            encoding: CardEncoding::SortingNetwork,
            core_at_least_one: true,
            minimize_cores: true,
        });
        let s = solver.solve(&w);
        assert_eq!(s.cost, Some(2));
        assert_eq!(s.status, MaxSatStatus::Optimal);
    }

    #[test]
    fn core_minimisation_uses_fewer_blocking_vars() {
        // A localised contradiction inside satisfiable padding: the raw
        // core may drag padding in, the minimised one cannot.
        let mut text = String::from("p cnf 12 24\n1 0\n-1 0\n");
        for v in 2..=12 {
            text.push_str(&format!("{v} 0\n"));
            text.push_str(&format!("{v} {} 0\n", if v < 12 { v + 1 } else { 2 }));
        }
        let w = unweighted(&text);
        let mut min_solver = Msu4::with_config(Msu4Config {
            encoding: CardEncoding::SortingNetwork,
            core_at_least_one: true,
            minimize_cores: true,
        });
        let with_min = min_solver.solve(&w);
        let without = Msu4::v2().solve(&w);
        assert_eq!(with_min.cost, without.cost);
        assert!(
            with_min.stats.blocking_vars <= without.stats.blocking_vars,
            "minimisation must not block more clauses"
        );
        assert_eq!(with_min.stats.blocking_vars, 2, "exactly the contradiction");
    }

    #[test]
    fn names_distinguish_versions() {
        assert_eq!(Msu4::v1().name(), "msu4-v1");
        assert_eq!(Msu4::v2().name(), "msu4-v2");
        assert_eq!(Msu4::incremental().name(), "msu4-inc");
    }

    #[test]
    fn sorting_network_is_encoded_once_per_blocking_set() {
        use std::sync::{Arc, Mutex};

        /// Clause counts of the bound tightenings emitted on one thread.
        struct Tightenings {
            thread: u64,
            clauses: Mutex<Vec<u64>>,
        }
        impl coremax_obs::EventSink for Tightenings {
            fn on_event(&self, event: &coremax_obs::Event) {
                if let coremax_obs::Event::RelaxationEncoded { clauses, .. } = event {
                    if coremax_obs::thread_tag() == self.thread {
                        self.clauses.lock().unwrap().push(*clauses);
                    }
                }
            }
        }

        // msu4: one core, then five ever better models, so four
        // tightenings of the bound over the same blocking set. Linear
        // search blocks every soft up front and finds no core: its whole
        // descent tightens one network over all of them.
        let w = WcnfFormula::from_cnf_all_soft(&coremax_instances::untestable_atpg(1, 4));
        let sink = Arc::new(Tightenings {
            thread: coremax_obs::thread_tag(),
            clauses: Mutex::new(Vec::new()),
        });
        let _guard = coremax_obs::install(sink.clone(), false);
        let solvers: [(Box<dyn MaxSatSolver>, u64); 3] = [
            (Box::new(Msu4::v2()), 1),
            (Box::new(Msu4::incremental()), 1),
            (Box::new(crate::LinearSearchSat::new()), 0),
        ];
        for (mut solver, cores) in solvers {
            sink.clauses.lock().unwrap().clear();
            let s = solver.solve(&w);
            let name = solver.name();
            assert_eq!(s.status, MaxSatStatus::Optimal, "{name}");
            assert_eq!(s.stats.cores, cores, "{name}");
            assert!(s.stats.sat_iterations >= 4, "{name}: {:?}", s.stats);
            let tightenings = sink.clauses.lock().unwrap().clone();
            assert!(tightenings.len() >= 3, "{name}: {tightenings:?}");
            assert!(tightenings[0] > 0, "{name}: {tightenings:?}");
            assert!(
                tightenings[1..].iter().all(|&c| c == 0),
                "{name} re-encoded: {tightenings:?}"
            );
            // Plus each core's Σ b ≥ 1 clause.
            assert_eq!(
                s.stats.cardinality_clauses,
                tightenings[0] + cores,
                "{name}"
            );
        }
    }
}
