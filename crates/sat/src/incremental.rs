//! IPASIR-style persistent incremental solving.
//!
//! [`IncrementalSolver`] is the assumption-based engine the core-guided
//! MaxSAT drivers run on. One instance lives for a whole optimisation
//! run: learned clauses, VSIDS activities, saved phases and the clause
//! arena all carry over from one `solve` call to the next, so each
//! iteration of an MSU loop starts where the previous one stopped
//! instead of re-deriving everything from a cold solver.
//!
//! On top of the raw [`Solver`] it adds *selector-variable soft-clause
//! management*: a soft clause `ω` is stored once as `ω ∨ s` with a
//! fresh selector variable `s`, and its lifecycle is driven purely
//! through that selector —
//!
//! - **active**: assume `¬s`, so the clause is enforced;
//! - **deactivated** (relaxed): drop the assumption — `s` doubles as
//!   the clause's blocking variable, free for cardinality constraints;
//! - **hardened**: add the unit `¬s`, making the clause permanent;
//! - **retired**: add the unit `s`, satisfying the stored clause
//!   forever (used when a driver replaces a soft with an extended
//!   copy, e.g. Fu–Malik relaxation rounds).
//!
//! After an UNSAT answer, [`IncrementalSolver::failed_softs`] maps the
//! solver's failed assumptions straight back to soft-clause handles —
//! the unsatisfiable core, with no clause-id bookkeeping.
//!
//! The `prop_incremental` tests check the engine against a fresh
//! [`Solver`] built per call, round by round.
//!
//! # Examples
//!
//! ```
//! use coremax_cnf::{Lit, Var};
//! use coremax_sat::{IncrementalSolver, SolveOutcome};
//!
//! let mut engine = IncrementalSolver::new();
//! let x = engine.new_var();
//! // Hard: x. Softs: ¬x (contradicts the hard clause) and x.
//! engine.add_clause([Lit::positive(x)]);
//! let s0 = engine.add_soft([Lit::negative(x)]);
//! let s1 = engine.add_soft([Lit::positive(x)]);
//! assert_eq!(engine.solve(&[]), SolveOutcome::Unsat);
//! assert_eq!(engine.failed_softs(), vec![s0]);
//! // Relax the core's soft clause and the formula becomes satisfiable.
//! engine.deactivate(s0);
//! assert_eq!(engine.solve(&[]), SolveOutcome::Sat);
//! assert!(engine.is_active(s1));
//! ```

use std::ops::Range;

use coremax_cnf::{Assignment, Lit, Var};

use crate::budget::Budget;
use crate::solver::{SolveOutcome, Solver, SolverConfig};
use crate::stats::SolverStats;

/// Handle for a soft clause registered with
/// [`IncrementalSolver::add_soft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SoftId(pub usize);

/// Lifecycle of a registered soft clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SoftState {
    /// `¬s` is assumed on every solve: the clause is enforced.
    Active,
    /// No assumption: the selector is a free blocking variable.
    Inactive,
    /// Unit `¬s` added: permanently enforced, no assumption needed.
    Hardened,
    /// Unit `s` added: the stored clause is satisfied forever.
    Retired,
}

/// A persistent assumption-based SAT engine with selector-variable
/// soft-clause management. See the [module docs](self) for the model.
#[derive(Debug)]
pub struct IncrementalSolver {
    solver: Solver,
    budget: Budget,
    num_vars: usize,
    /// The selector of each soft, by `SoftId`. Each is a fresh variable,
    /// so their variables ascend, which `soft_of` searches by.
    selectors: Vec<Lit>,
    states: Vec<SoftState>,
    assumption_buf: Vec<Lit>,
}

impl Default for IncrementalSolver {
    fn default() -> Self {
        IncrementalSolver::new()
    }
}

impl IncrementalSolver {
    /// An engine with default solver configuration.
    #[must_use]
    pub fn new() -> Self {
        IncrementalSolver::with_config(SolverConfig::default())
    }

    /// An engine with an explicit solver configuration.
    #[must_use]
    pub fn with_config(config: SolverConfig) -> Self {
        IncrementalSolver {
            solver: Solver::with_config(config),
            budget: Budget::new(),
            num_vars: 0,
            selectors: Vec::new(),
            states: Vec::new(),
            assumption_buf: Vec::new(),
        }
    }

    /// Sets the budget applied to subsequent solve calls. Callers
    /// typically pass a [`Budget::child`] anchored at the start of the
    /// whole optimisation run so every iteration shares one deadline.
    pub fn set_budget(&mut self, budget: Budget) {
        self.solver.set_budget(budget.clone());
        self.budget = budget;
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars as u32);
        self.num_vars += 1;
        self.solver.ensure_vars(self.num_vars);
        v
    }

    /// Grows the variable table to at least `num_vars` variables.
    pub fn ensure_vars(&mut self, num_vars: usize) {
        self.num_vars = self.num_vars.max(num_vars);
        self.solver.ensure_vars(self.num_vars);
    }

    /// Number of variables (problem + selectors + auxiliaries).
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Adds a hard clause.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.solver.add_clause(lits);
        // The solver grows its variables to cover the clause.
        self.num_vars = self.num_vars.max(self.solver.num_vars());
    }

    /// Registers a soft clause: stores `lits ∨ s` for a fresh selector
    /// `s` and returns its handle. The clause starts *active* (enforced
    /// via the assumption `¬s` on every solve). This is
    /// [`IncrementalSolver::add_softs`] of one clause.
    pub fn add_soft<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> SoftId {
        SoftId(self.add_softs([lits]).start)
    }

    /// Registers a batch of soft clauses, each as [`add_soft`] does, and
    /// returns the range of their handles' indices, in batch order
    /// (`SoftId(i)` for each `i`). The selectors are the next
    /// variables, one per clause in batch order, and every per-variable
    /// array of the engine grows once for the whole batch. Literals on
    /// variables past the selectors are created on demand, after them.
    ///
    /// [`add_soft`]: IncrementalSolver::add_soft
    pub fn add_softs<I>(&mut self, softs: I) -> Range<usize>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: IntoIterator<Item = Lit>,
    {
        let softs = softs.into_iter();
        let first_id = self.selectors.len();
        let first_var = self.num_vars;
        let count = softs.len();
        self.ensure_vars(first_var + count);
        self.selectors.reserve(count);
        self.states.reserve(count);
        for (i, lits) in softs.enumerate() {
            let sel = Lit::positive(Var::new((first_var + i) as u32));
            self.selectors.push(sel);
            self.states.push(SoftState::Active);
            self.add_clause(lits.into_iter().chain(std::iter::once(sel)));
        }
        debug_assert_eq!(self.selectors.len(), first_id + count, "exact batch length");
        first_id..first_id + count
    }

    /// The positive selector literal of a soft clause (`s` in `ω ∨ s`).
    /// True models that set it "pay" for the clause; while deactivated
    /// it is exactly the clause's blocking variable.
    #[must_use]
    pub fn selector(&self, id: SoftId) -> Lit {
        self.selectors[id.0]
    }

    /// The assumption literal (`¬s`) that enforces a soft clause.
    #[must_use]
    pub fn assumption(&self, id: SoftId) -> Lit {
        !self.selectors[id.0]
    }

    /// The soft clause that `assumption` enforces (`¬s` for its
    /// selector `s`), if it is one: the lookup that maps a failed
    /// assumption back to its soft.
    #[must_use]
    pub fn soft_of(&self, assumption: Lit) -> Option<SoftId> {
        self.selectors
            .binary_search_by_key(&assumption.var(), |s| s.var())
            .ok()
            .map(SoftId)
            .filter(|&id| self.assumption(id) == assumption)
    }

    /// Whether the soft clause is currently enforced by assumption.
    #[must_use]
    pub fn is_active(&self, id: SoftId) -> bool {
        self.states[id.0] == SoftState::Active
    }

    /// Number of registered soft clauses (any state).
    #[must_use]
    pub fn num_softs(&self) -> usize {
        self.selectors.len()
    }

    /// Stops enforcing a soft clause: its `¬s` assumption is dropped,
    /// leaving `s` free — the incremental equivalent of attaching a
    /// blocking variable. No-op unless the clause is active.
    pub fn deactivate(&mut self, id: SoftId) {
        if self.states[id.0] == SoftState::Active {
            self.states[id.0] = SoftState::Inactive;
        }
    }

    /// Re-enforces a previously deactivated soft clause.
    ///
    /// # Panics
    ///
    /// Panics if the clause was hardened or retired — those transitions
    /// added a unit clause and cannot be undone.
    pub fn activate(&mut self, id: SoftId) {
        match self.states[id.0] {
            SoftState::Active | SoftState::Inactive => self.states[id.0] = SoftState::Active,
            s => panic!("cannot re-activate a {s:?} soft clause"),
        }
    }

    /// Makes a soft clause permanently hard by adding the unit `¬s`.
    ///
    /// # Panics
    ///
    /// Panics if the clause was retired: retiring added the unit `s`,
    /// so hardening would assert the contradictory `¬s` and silently
    /// refute the whole formula.
    pub fn harden(&mut self, id: SoftId) {
        match self.states[id.0] {
            SoftState::Hardened => {}
            SoftState::Retired => panic!("cannot harden a retired soft clause"),
            SoftState::Active | SoftState::Inactive => {
                self.states[id.0] = SoftState::Hardened;
                let unit = !self.selectors[id.0];
                self.add_clause([unit]);
            }
        }
    }

    /// Permanently satisfies the *stored* clause by adding the unit
    /// `s`, removing it from the problem. Drivers use this to replace a
    /// soft clause with an extended copy (relaxation rounds append
    /// blocking variables by retiring the old clause and registering
    /// `ω ∨ b` as a new soft).
    pub fn retire(&mut self, id: SoftId) {
        if self.states[id.0] != SoftState::Retired {
            self.states[id.0] = SoftState::Retired;
            let unit = self.selectors[id.0];
            self.add_clause([unit]);
        }
    }

    /// Solves under the active softs' assumptions plus
    /// `extra_assumptions` (bound-encoding gates, probe literals, …).
    pub fn solve(&mut self, extra_assumptions: &[Lit]) -> SolveOutcome {
        // Budget-aware backoff: an already-interrupted budget (stop flag
        // raised, deadline passed) makes the whole call a no-op instead
        // of entering — and paying the setup of — a doomed search.
        if self.budget.interrupted() {
            return SolveOutcome::Unknown;
        }
        let mut assumptions = std::mem::take(&mut self.assumption_buf);
        assumptions.clear();
        for (sel, state) in self.selectors.iter().zip(&self.states) {
            if *state == SoftState::Active {
                assumptions.push(!*sel);
            }
        }
        assumptions.extend_from_slice(extra_assumptions);
        let outcome = self.solver.solve_with_assumptions(&assumptions);
        self.assumption_buf = assumptions;
        outcome
    }

    /// Solves under *exactly* the given assumptions, ignoring soft
    /// activation state. Used for assumption-set core minimisation:
    /// re-solving with a candidate subset of a failed-assumption core
    /// checks whether the dropped literal was necessary.
    pub fn solve_exact(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        if self.budget.interrupted() {
            return SolveOutcome::Unknown;
        }
        self.solver.solve_with_assumptions(assumptions)
    }

    /// The satisfying assignment of the last successful solve.
    #[must_use]
    pub fn model(&self) -> Option<&Assignment> {
        self.solver.model()
    }

    /// After UNSAT: the subset of assumption literals used to derive
    /// the contradiction (soft assumptions and extras alike).
    #[must_use]
    pub fn failed_assumptions(&self) -> &[Lit] {
        self.solver.failed_assumptions()
    }

    /// After UNSAT: the soft clauses among the failed assumptions — the
    /// unsatisfiable core, in registration order. Failed extra
    /// assumptions (e.g. bound gates) are not included; inspect
    /// [`IncrementalSolver::failed_assumptions`] for those.
    #[must_use]
    pub fn failed_softs(&self) -> Vec<SoftId> {
        let mut ids: Vec<SoftId> = self
            .solver
            .failed_assumptions()
            .iter()
            .filter_map(|&a| self.soft_of(a))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Whether the clauses are refuted *independently of the
    /// assumptions* (every further solve is then trivially UNSAT). A
    /// soft's clause is satisfied once its selector is true, so this
    /// only ever reflects hard clauses and permanently added
    /// constraints, which is how drivers separate "infeasible" from
    /// "core found".
    #[must_use]
    pub fn formula_refuted(&self) -> bool {
        !self.solver.is_ok()
    }

    /// The engine's cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        *self.solver.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(engine_var: Var, positive: bool) -> Lit {
        Lit::new(engine_var, positive)
    }

    #[test]
    fn soft_lifecycle_and_cores() {
        let mut e = IncrementalSolver::new();
        let x = e.new_var();
        e.add_clause([lit(x, true)]);
        let s0 = e.add_soft([lit(x, false)]);
        let s1 = e.add_soft([lit(x, true)]);
        assert_eq!(e.solve(&[]), SolveOutcome::Unsat);
        assert!(!e.formula_refuted(), "assumption-level core only");
        assert_eq!(e.failed_softs(), vec![s0]);
        e.deactivate(s0);
        assert_eq!(e.solve(&[]), SolveOutcome::Sat);
        let m = e.model().unwrap();
        assert_eq!(m.value(x), Some(true));
        // Re-activating restores the contradiction.
        e.activate(s0);
        assert_eq!(e.solve(&[]), SolveOutcome::Unsat);
        e.deactivate(s0);
        // Hardening s1 is consistent; retiring s0 removes it.
        e.harden(s1);
        e.retire(s0);
        assert_eq!(e.solve(&[]), SolveOutcome::Sat);
        assert!(!e.is_active(s1) && !e.formula_refuted());
    }

    #[test]
    fn a_batch_registers_like_one_soft_at_a_time() {
        let clauses: Vec<Vec<Lit>> = (0..5)
            .map(|i| {
                vec![
                    lit(Var::new(i % 3), i % 2 == 0),
                    lit(Var::new(2 - i % 3), true),
                ]
            })
            .collect();
        let mut one = IncrementalSolver::new();
        one.ensure_vars(3);
        let ids: Vec<SoftId> = clauses.iter().map(|c| one.add_soft(c.clone())).collect();
        let mut batch = IncrementalSolver::new();
        batch.ensure_vars(3);
        let range = batch.add_softs(clauses.iter().map(|c| c.iter().copied()));
        assert_eq!(range.clone().map(SoftId).collect::<Vec<_>>(), ids);
        assert_eq!(batch.num_vars(), one.num_vars());
        for &id in &ids {
            assert_eq!(batch.selector(id), one.selector(id));
        }
        assert_eq!(batch.solve(&[]), one.solve(&[]));
        assert_eq!(batch.stats().propagations, one.stats().propagations);
        // The next batch continues the numbering.
        assert_eq!(batch.add_softs([[lit(Var::new(0), true)]]), 5..6);
        assert_eq!(batch.selector(SoftId(5)).var(), Var::new(8));
    }

    #[test]
    #[should_panic(expected = "cannot harden a retired soft clause")]
    fn harden_after_retire_is_a_contract_violation() {
        // Retiring added the unit `s`; hardening would add `¬s` and
        // silently refute the formula — the engine must refuse.
        let mut e = IncrementalSolver::new();
        let x = e.new_var();
        let s = e.add_soft([lit(x, true)]);
        e.retire(s);
        e.harden(s);
    }

    #[test]
    fn formula_refutation_is_mode_independent() {
        let mut e = IncrementalSolver::new();
        let x = e.new_var();
        e.add_clause([lit(x, true)]);
        e.add_clause([lit(x, false)]);
        let _s = e.add_soft([lit(x, true)]);
        assert_eq!(e.solve(&[]), SolveOutcome::Unsat);
        assert!(e.formula_refuted());
    }

    /// Pigeonhole with 4 pigeons and 3 holes over fresh variables: the
    /// 4 at-least-one clauses, then the at-most-one clauses.
    fn php_4_3(e: &mut IncrementalSolver) -> (Vec<Vec<Lit>>, Vec<Vec<Lit>>) {
        let at_least: Vec<Vec<Lit>> = (0..4)
            .map(|_| (0..3).map(|_| lit(e.new_var(), true)).collect())
            .collect();
        let mut at_most = Vec::new();
        for h in 0..3 {
            for (i, pi) in at_least.iter().enumerate() {
                for pj in &at_least[i + 1..] {
                    at_most.push(vec![!pi[h], !pj[h]]);
                }
            }
        }
        (at_least, at_most)
    }

    #[test]
    fn formula_refutation_found_by_search_is_reported() {
        let forced_gc = SolverConfig {
            learntsize_factor: 0.01,
            learntsize_inc: 1.001,
            min_learnts: 3.0,
            gc_frac: 0.0,
            ..SolverConfig::default()
        };
        for config in [SolverConfig::default(), forced_gc] {
            // All clauses hard: only a level-0 conflict of the search
            // can refute them, since none is falsified when added.
            let mut e = IncrementalSolver::with_config(config.clone());
            let (at_least, at_most) = php_4_3(&mut e);
            for c in at_least.iter().chain(&at_most) {
                e.add_clause(c.iter().copied());
            }
            assert!(!e.formula_refuted(), "nothing conflicts at add time");
            let fresh = e.new_var();
            let _ = e.add_soft([lit(fresh, true)]);
            assert_eq!(e.solve(&[]), SolveOutcome::Unsat);
            assert!(e.stats().conflicts > 0, "refuted by search");
            assert!(e.formula_refuted());
            assert!(e.failed_softs().is_empty());

            // At-least-one clauses soft: the softs are the core, and the
            // hard clauses alone stay satisfiable.
            let mut e = IncrementalSolver::with_config(config);
            let (at_least, at_most) = php_4_3(&mut e);
            for c in &at_most {
                e.add_clause(c.iter().copied());
            }
            let softs: Vec<SoftId> = at_least
                .iter()
                .map(|c| e.add_soft(c.iter().copied()))
                .collect();
            assert_eq!(e.solve(&[]), SolveOutcome::Unsat);
            assert!(!e.formula_refuted());
            assert_eq!(e.failed_softs(), softs);
        }
    }

    #[test]
    fn extra_assumptions_gate_constraints() {
        let mut e = IncrementalSolver::new();
        let x = e.new_var();
        let y = e.new_var();
        e.add_clause([lit(x, true), lit(y, true)]);
        // Gated constraint ¬x: active while assuming ¬t.
        let t = Lit::positive(e.new_var());
        e.add_clause([lit(x, false), t]);
        assert_eq!(e.solve(&[!t]), SolveOutcome::Sat);
        assert_eq!(e.model().unwrap().value(y), Some(true));
        // Add the conflicting gated constraint ¬y under the same gate.
        e.add_clause([lit(y, false), t]);
        assert_eq!(e.solve(&[!t]), SolveOutcome::Unsat);
        assert_eq!(e.failed_assumptions(), &[!t]);
        assert!(e.failed_softs().is_empty());
        // Retire the gate: both constraints vanish.
        e.add_clause([t]);
        assert_eq!(e.solve(&[]), SolveOutcome::Sat);
    }

    #[test]
    fn persistent_engine_counts_reuse() {
        let mut e = IncrementalSolver::new();
        let x = e.new_var();
        let y = e.new_var();
        e.add_clause([lit(x, true), lit(y, true)]);
        let _ = e.add_soft([lit(x, false)]);
        for _ in 0..3 {
            assert_eq!(e.solve(&[]), SolveOutcome::Sat);
        }
        assert_eq!(e.stats().incremental_solves, 2, "calls beyond the first");
    }

    #[test]
    fn spent_budget_answers_unknown_on_every_call() {
        use std::time::Duration;
        let mut e = IncrementalSolver::new();
        let x = e.new_var();
        e.add_clause([lit(x, true)]);
        e.set_budget(Budget::new().with_timeout(Duration::from_nanos(1)));
        assert_eq!(e.solve(&[]), SolveOutcome::Unknown);
        assert_eq!(e.solve(&[]), SolveOutcome::Unknown);
    }
}
