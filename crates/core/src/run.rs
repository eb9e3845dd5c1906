//! One core-guided run: what msu1/msu3/msu4 (Algorithm 1), OLL and the
//! SAT-search baselines share.
//!
//! Each of those drivers calls SAT on one persistent engine, relaxes a
//! core or records a model, and stops when its bounds meet. A
//! [`CoreRun`] owns everything around that loop: the clock and child
//! budget, the [`IncrementalSolver`] loaded with the hard clauses, the
//! work counters, the driver events, and the certified interval
//! `lb ≤ optimum ≤ cost(incumbent)`. The interval changes only through
//! [`CoreRun::raise_lb`] and [`CoreRun::offer`], and a run ends only
//! through [`CoreRun::optimal`], [`CoreRun::infeasible`] or
//! [`CoreRun::unknown`], so every driver reports the same way.

use std::ops::Range;
use std::time::Instant;

use coremax_cards::CnfSink;
use coremax_cnf::{Assignment, Lit, WcnfFormula, Weight};
use coremax_obs::{Event, Phase};
use coremax_sat::{Budget, IncrementalSolver, SolveOutcome};

use crate::types::{MaxSatSolution, MaxSatStats, MaxSatStatus};

/// The state of one core-guided solve. Drivers use `engine` and
/// `stats` directly for their own steps; the interval is private.
#[derive(Debug)]
pub(crate) struct CoreRun<'a> {
    wcnf: &'a WcnfFormula,
    start: Instant,
    budget: Budget,
    pub(crate) engine: IncrementalSolver,
    pub(crate) stats: MaxSatStats,
    /// Certified lower bound on the optimum.
    lb: Weight,
    /// The cheapest model offered so far, with its cost.
    incumbent: Option<(Weight, Assignment)>,
}

impl<'a> CoreRun<'a> {
    /// Starts the clock, derives the run's budget from `budget`, and
    /// loads the hard clauses into one engine. Softs are the driver's.
    pub(crate) fn new(wcnf: &'a WcnfFormula, budget: &Budget) -> Self {
        let start = Instant::now();
        let budget = budget.child(start);
        let mut engine = IncrementalSolver::new();
        engine.ensure_vars(wcnf.num_vars());
        engine.set_budget(budget.clone());
        for h in wcnf.hard_clauses() {
            engine.add_clause(h.lits().iter().copied());
        }
        CoreRun {
            wcnf,
            start,
            budget,
            engine,
            stats: MaxSatStats::default(),
            lb: 0,
            incumbent: None,
        }
    }

    /// Registers every soft clause of the formula with the engine in one
    /// batch, in formula order, each active under a fresh selector.
    /// Returns the range of their `SoftId` indices.
    pub(crate) fn add_softs(&mut self) -> Range<usize> {
        let wcnf = self.wcnf;
        self.engine
            .add_softs(wcnf.soft_clauses().map(|s| s.clause.lits().iter().copied()))
    }

    /// Solves under the active softs plus `assumptions`, counting the
    /// call and its outcome.
    pub(crate) fn solve(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        let outcome = self.engine.solve(assumptions);
        self.count(outcome)
    }

    fn count(&mut self, outcome: SolveOutcome) -> SolveOutcome {
        self.stats.sat_calls += 1;
        match outcome {
            SolveOutcome::Sat => self.stats.sat_iterations += 1,
            SolveOutcome::Unsat => self.stats.unsat_iterations += 1,
            SolveOutcome::Unknown => {}
        }
        outcome
    }

    /// Whether the run's budget is spent.
    pub(crate) fn interrupted(&self) -> bool {
        self.budget.interrupted()
    }

    /// The engine's model after a SAT answer.
    pub(crate) fn model(&self) -> Assignment {
        self.engine.model().expect("model after SAT").clone()
    }

    /// Counts a core of `size` softs whose minimum weight is `weight`.
    pub(crate) fn core(&mut self, size: usize, weight: Weight) {
        self.stats.cores += 1;
        coremax_obs::emit(Event::CoreExtracted {
            size: size as u64,
            weight,
        });
    }

    /// Adds the clauses `build` writes over fresh variables, each
    /// extended by `gate` when one is given, timed as encoding and
    /// counted as cardinality clauses. Returns what `build` returns and
    /// the number of clauses added.
    pub(crate) fn encode<R>(
        &mut self,
        gate: Option<Lit>,
        build: impl FnOnce(&mut CnfSink) -> R,
    ) -> (R, u64) {
        let span = coremax_obs::span(Phase::Encode);
        let mut sink = CnfSink::new(self.engine.num_vars());
        let built = build(&mut sink);
        self.engine.ensure_vars(sink.num_vars());
        let clauses = sink.into_clauses();
        let added = clauses.len() as u64;
        self.stats.cardinality_clauses += added;
        for c in &clauses {
            self.engine.add_clause(c.iter().copied().chain(gate));
        }
        span.finish(&mut self.stats.phase);
        (built, added)
    }

    /// Reports a relaxation step: `blocking_vars` fresh variables and
    /// `clauses` encoding clauses.
    pub(crate) fn relaxed(&self, blocking_vars: usize, clauses: u64) {
        coremax_obs::emit(Event::RelaxationEncoded {
            blocking_vars: blocking_vars as u64,
            clauses,
        });
    }

    /// The certified lower bound.
    pub(crate) fn lb(&self) -> Weight {
        self.lb
    }

    /// The incumbent's cost, an upper bound on the optimum.
    pub(crate) fn ub(&self) -> Option<Weight> {
        self.incumbent.as_ref().map(|&(cost, _)| cost)
    }

    /// Raises the lower bound to `lb`, which the driver has proven.
    pub(crate) fn raise_lb(&mut self, lb: Weight) {
        self.lb = self.lb.max(lb);
        coremax_obs::emit(Event::Bounds {
            lb: self.lb,
            ub: self.ub(),
        });
    }

    /// Costs `model` and keeps it as the incumbent if it is cheaper than
    /// the current one.
    pub(crate) fn offer(&mut self, model: Assignment) {
        let cost = self.cost(&model);
        if self.ub().is_none_or(|ub| cost < ub) {
            self.incumbent = Some((cost, model));
            coremax_obs::emit(Event::Incumbent { cost });
            coremax_obs::emit(Event::Bounds {
                lb: self.lb,
                ub: Some(cost),
            });
        }
    }

    /// The weight of the softs `model` falsifies.
    fn cost(&self, model: &Assignment) -> Weight {
        debug_assert!(
            self.wcnf.hard_clauses().all(|h| h.is_satisfied_by(model)),
            "a model of the working formula satisfies the hard clauses"
        );
        self.wcnf
            .soft_clauses()
            .filter(|s| !s.clause.is_satisfied_by(model))
            .fold(0, |acc: Weight, s| acc.saturating_add(s.weight))
    }

    /// Ends the run with the incumbent proven optimal. A driver can
    /// prove its bound before any model exists (every soft relaxed, no
    /// SAT answer yet); one call without assumptions then finds a model,
    /// which attains the bound, or shows the hard clauses infeasible.
    pub(crate) fn optimal(mut self) -> MaxSatSolution {
        if self.incumbent.is_none() {
            let outcome = self.engine.solve_exact(&[]);
            match self.count(outcome) {
                SolveOutcome::Sat => {
                    let model = self.model();
                    self.incumbent = Some((self.cost(&model), model));
                }
                SolveOutcome::Unsat => return self.infeasible(),
                SolveOutcome::Unknown => return self.unknown(),
            }
        }
        let (cost, model) = self.incumbent.take().expect("incumbent set above");
        self.finish(MaxSatStatus::Optimal, Some(cost), Some(model), cost)
    }

    /// Ends the run with the hard clauses refuted.
    pub(crate) fn infeasible(self) -> MaxSatSolution {
        self.finish(MaxSatStatus::Infeasible, None, None, 0)
    }

    /// Ends the run unproven, with the certified interval: the lower
    /// bound, clamped to the incumbent's cost, and the incumbent.
    pub(crate) fn unknown(mut self) -> MaxSatSolution {
        let (cost, model) = self.incumbent.take().unzip();
        let lb = cost.map_or(self.lb, |c| self.lb.min(c));
        self.finish(MaxSatStatus::Unknown, cost, model, lb)
    }

    fn finish(
        mut self,
        status: MaxSatStatus,
        cost: Option<Weight>,
        model: Option<Assignment>,
        lower_bound: Weight,
    ) -> MaxSatSolution {
        self.stats.absorb_sat(&self.engine.stats());
        self.stats.wall_time = self.start.elapsed();
        MaxSatSolution {
            status,
            cost,
            model,
            lower_bound,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        BinarySearchSat, LinearSearchSat, MaxSatSolver, MaxSatStatus, Msu1, Msu2, Msu3, Msu4, Oll,
        Wmsu1,
    };
    use coremax_cnf::dimacs;

    #[test]
    fn every_sat_call_is_an_iteration() {
        // The paper's Example 2 with its two units made hard: msu4's
        // feasibility pre-check is a SAT call like any other.
        let w = dimacs::parse_wcnf(
            "p wcnf 4 7 8\n8 1 0\n8 2 0\n1 -1 -2 0\n1 -1 3 0\n1 -2 4 0\n1 -3 0\n1 -4 0\n",
        )
        .expect("valid WCNF");
        let solvers: Vec<Box<dyn MaxSatSolver>> = vec![
            Box::new(Wmsu1::new()),
            Box::new(Msu1::new()),
            Box::new(Msu2::new()),
            Box::new(Msu3::new()),
            Box::new(Msu4::v1()),
            Box::new(Msu4::v2()),
            Box::new(Msu4::incremental()),
            Box::new(Oll::new()),
            Box::new(LinearSearchSat::new()),
            Box::new(BinarySearchSat::new()),
        ];
        for mut solver in solvers {
            let s = solver.solve(&w);
            let name = solver.name();
            assert_eq!(s.status, MaxSatStatus::Optimal, "{name}");
            assert_eq!(s.cost, Some(3), "{name}");
            assert_eq!(
                s.stats.sat_calls,
                s.stats.sat_iterations + s.stats.unsat_iterations,
                "{name}: {}",
                s.stats
            );
        }
    }
}
