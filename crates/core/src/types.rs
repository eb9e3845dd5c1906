//! Common result types and the solver trait.

use std::fmt;
use std::time::Duration;

use coremax_cnf::{Assignment, WcnfFormula, Weight};
use coremax_obs::PhaseTimes;
use coremax_sat::{Budget, SolverStats};
use coremax_simp::SimpStats;

/// Verdict of a MaxSAT run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxSatStatus {
    /// The optimum was found and proven.
    Optimal,
    /// The hard clauses are unsatisfiable: no assignment is feasible.
    Infeasible,
    /// The budget was exhausted before the optimum was proven (the
    /// instance counts as *aborted* in the paper's tables).
    Unknown,
}

impl fmt::Display for MaxSatStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MaxSatStatus::Optimal => "OPTIMAL",
            MaxSatStatus::Infeasible => "INFEASIBLE",
            MaxSatStatus::Unknown => "UNKNOWN",
        })
    }
}

/// Counters describing the work a MaxSAT solver performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct MaxSatStats {
    /// Number of SAT-solver invocations.
    pub sat_calls: u64,
    /// Iterations with an UNSAT outcome (the paper's `νU`).
    pub unsat_iterations: u64,
    /// Iterations with a SAT outcome.
    pub sat_iterations: u64,
    /// Unsatisfiable cores extracted.
    pub cores: u64,
    /// Blocking variables introduced.
    pub blocking_vars: u64,
    /// Clauses generated for cardinality constraints.
    pub cardinality_clauses: u64,
    /// Branch-and-bound nodes explored (B&B solvers only).
    pub nodes: u64,
    /// Soft-clause copies created by WMSU1-style weight splitting: a
    /// core clause of weight `w > w_min` is cloned at `w − w_min`
    /// before its `w_min` share is relaxed.
    pub weight_splits: u64,
    /// Weight strata solved: one per stage of [`crate::Stratified`] (one
    /// for its pass-through of unit-weight input), plus those
    /// [`crate::Oll`] opens itself; 0 for solvers that do not stratify.
    pub strata: u64,
    /// Soft clauses promoted to hard ones by stratification (a stratum
    /// solved at cost 0 is frozen by hardening instead of cardinality)
    /// or by OLL's gap rule (residual weight exceeds `ub − lb`).
    pub hardened: u64,
    /// Incremental totalizer bound extensions performed by OLL-style
    /// solvers: a core containing a totalizer output raised that
    /// totalizer's bound in place (new layers only) instead of
    /// re-encoding it from scratch.
    pub totalizer_extensions: u64,
    /// Total wall-clock time.
    pub wall_time: Duration,
    /// Aggregated CDCL-engine counters across every SAT solver this run
    /// created (propagations, conflicts, LBD histogram, GC activity, …).
    pub sat: SolverStats,
    /// Preprocessing counters (all zero unless the solve went through
    /// [`crate::Preprocessed`]).
    pub simp: SimpStats,
    /// Driver-level per-phase wall time (encoding, preprocessing
    /// passes). The CDCL-engine phases live under [`Self::sat`]'s own
    /// breakdown; [`Self::phase_times`] merges the two. All zero
    /// unless `coremax_obs` timing was enabled during the solve.
    pub phase: PhaseTimes,
}

impl MaxSatStats {
    /// Folds the counters of one underlying SAT solver into this run's
    /// aggregate. Call once per SAT-solver lifetime (after its last
    /// `solve`), since [`SolverStats`] counters are themselves
    /// cumulative.
    pub fn absorb_sat(&mut self, stats: &SolverStats) {
        self.sat.absorb(stats);
    }

    /// Folds the counters of a sub-solve (one stratum, one delegated
    /// inner run) into this run's aggregate. Wall-clock time and
    /// preprocessing counters are *not* merged: the caller owns the
    /// clock, and `simp` describes a single pipeline pass.
    pub fn absorb(&mut self, other: &MaxSatStats) {
        self.sat_calls += other.sat_calls;
        self.unsat_iterations += other.unsat_iterations;
        self.sat_iterations += other.sat_iterations;
        self.cores += other.cores;
        self.blocking_vars += other.blocking_vars;
        self.cardinality_clauses += other.cardinality_clauses;
        self.nodes += other.nodes;
        self.weight_splits += other.weight_splits;
        self.strata += other.strata;
        self.hardened += other.hardened;
        self.totalizer_extensions += other.totalizer_extensions;
        self.sat.absorb(&other.sat);
        self.phase.absorb(&other.phase);
    }

    /// The complete per-phase wall-time breakdown of the run: the
    /// driver-level phases (encode, preprocessing) merged with the
    /// aggregated CDCL-engine phases (propagate, analyze, reductions,
    /// GC, SAT calls).
    #[must_use]
    pub fn phase_times(&self) -> PhaseTimes {
        self.phase.merged(&self.sat.phase)
    }

    /// Serializes the full stats tree — MaxSAT counters, the merged
    /// [`PhaseTimes`] breakdown, the aggregated [`SolverStats`] (with
    /// its own phase breakdown), and the [`SimpStats`] — as one JSON
    /// object. Hand-rolled (no serde), like the BENCH artifacts.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.to_json_into(&mut out);
        out
    }

    /// [`Self::to_json`], appending into an existing buffer.
    pub fn to_json_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"sat_calls\": {}, \"unsat_iterations\": {}, \"sat_iterations\": {}, \
             \"cores\": {}, \"blocking_vars\": {}, \"cardinality_clauses\": {}, \
             \"nodes\": {}, \"weight_splits\": {}, \"strata\": {}, \"hardened\": {}, \
             \"totalizer_extensions\": {}, \"wall_time_ms\": {:.3}, \"phase_times\": ",
            self.sat_calls,
            self.unsat_iterations,
            self.sat_iterations,
            self.cores,
            self.blocking_vars,
            self.cardinality_clauses,
            self.nodes,
            self.weight_splits,
            self.strata,
            self.hardened,
            self.totalizer_extensions,
            self.wall_time.as_secs_f64() * 1e3,
        );
        self.phase_times().to_json_into(out);
        out.push_str(", \"sat\": ");
        self.sat.to_json_into(out);
        out.push_str(", \"simp\": ");
        self.simp.to_json_into(out);
        out.push('}');
    }
}

impl fmt::Display for MaxSatStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sat_calls={} unsat_iters={} sat_iters={} cores={} blocking_vars={} card_clauses={} nodes={} weight_splits={} strata={} hardened={} tot_ext={} time={:?}",
            self.sat_calls,
            self.unsat_iterations,
            self.sat_iterations,
            self.cores,
            self.blocking_vars,
            self.cardinality_clauses,
            self.nodes,
            self.weight_splits,
            self.strata,
            self.hardened,
            self.totalizer_extensions,
            self.wall_time
        )?;
        let phase = self.phase_times();
        if !phase.is_zero() {
            write!(f, " phase=[{phase}]")?;
        }
        Ok(())
    }
}

/// The outcome of a MaxSAT solver run.
///
/// `cost` is the total weight of falsified soft clauses: the proven
/// optimum when `status` is [`MaxSatStatus::Optimal`], or the best known
/// upper bound when [`MaxSatStatus::Unknown`] (if any model was found).
///
/// Every run — including a budget-exhausted one — is a **certified
/// interval**: `lower_bound` is a proven lower bound on the optimum
/// (derived from extracted cores; 0 is always sound) and `cost`, when
/// present, is the exact cost of the incumbent `model`, an upper bound.
/// So at any abort point `lower_bound ≤ optimum ≤ cost` holds, and a
/// caller can decide whether the gap is good enough instead of
/// discarding the run.
#[derive(Debug, Clone)]
pub struct MaxSatSolution {
    /// Verdict.
    pub status: MaxSatStatus,
    /// Optimal (or best-known incumbent) cost; `None` when infeasible or
    /// when no model was found within budget. For `Unknown` this is the
    /// *exact* cost of `model` — a certified upper bound.
    pub cost: Option<Weight>,
    /// A model attaining `cost`, if one was found.
    pub model: Option<Assignment>,
    /// Certified lower bound on the optimum cost (0 when nothing was
    /// proven). Equals `cost` for `Optimal`; meaningless for
    /// `Infeasible` (kept at whatever was proven before refutation).
    pub lower_bound: Weight,
    /// Work counters.
    pub stats: MaxSatStats,
}

impl MaxSatSolution {
    /// Convenience constructor for the infeasible verdict.
    #[must_use]
    pub fn infeasible(stats: MaxSatStats) -> Self {
        MaxSatSolution {
            status: MaxSatStatus::Infeasible,
            cost: None,
            model: None,
            lower_bound: 0,
            stats,
        }
    }

    /// Convenience constructor for a budget-exhausted run: a certified
    /// `[lower_bound, cost]` interval (either side may be trivial —
    /// `lower_bound` 0, or no incumbent at all).
    #[must_use]
    pub fn interval(
        lower_bound: Weight,
        cost: Option<Weight>,
        model: Option<Assignment>,
        stats: MaxSatStats,
    ) -> Self {
        MaxSatSolution {
            status: MaxSatStatus::Unknown,
            cost,
            model,
            lower_bound,
            stats,
        }
    }

    /// The unproven width of the certified interval: `cost −
    /// lower_bound` for an aborted run with an incumbent, 0 once the
    /// optimum is proven, `None` when no incumbent exists (the upper
    /// side of the interval is still infinite).
    #[must_use]
    pub fn gap(&self) -> Option<Weight> {
        match self.status {
            MaxSatStatus::Optimal => Some(0),
            MaxSatStatus::Infeasible => None,
            MaxSatStatus::Unknown => self.cost.map(|c| c.saturating_sub(self.lower_bound)),
        }
    }

    /// Number of satisfied soft clauses under the solution's model
    /// (unweighted view used by the paper, which reports "the MaxSAT
    /// solution" as a satisfied-clause count). `None` without a model.
    #[must_use]
    pub fn num_satisfied(&self, wcnf: &WcnfFormula) -> Option<usize> {
        let model = self.model.as_ref()?;
        wcnf.num_soft_satisfied(model)
    }

    /// Returns `true` if the run proved an optimum.
    #[must_use]
    pub fn is_optimal(&self) -> bool {
        self.status == MaxSatStatus::Optimal
    }
}

/// Common interface of every MaxSAT algorithm in this crate.
///
/// # Panics
///
/// Implementations may document restrictions on the accepted formulas
/// (e.g. [`crate::Msu4`] requires unweighted soft clauses) and panic on
/// unsupported input; see each implementation.
pub trait MaxSatSolver {
    /// A short stable identifier (used by the experiment harness).
    fn name(&self) -> &'static str;

    /// Sets the resource budget for subsequent [`MaxSatSolver::solve`]
    /// calls. Each limit covers one whole `solve` (see [`Budget`]);
    /// exceeding it yields [`MaxSatStatus::Unknown`].
    fn set_budget(&mut self, budget: Budget);

    /// Returns `true` if [`MaxSatSolver::solve`] accepts soft clauses
    /// with arbitrary weights. Solvers restricted to unweighted
    /// (partial) MaxSAT keep the default `false`; routers such as
    /// [`crate::Stratified`] and the CLI use this to decide whether an
    /// instance can be handed over as-is.
    fn supports_weights(&self) -> bool {
        false
    }

    /// Solves the given weighted partial MaxSAT instance.
    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution;
}

impl MaxSatSolver for Box<dyn MaxSatSolver> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn set_budget(&mut self, budget: Budget) {
        (**self).set_budget(budget);
    }

    fn supports_weights(&self) -> bool {
        (**self).supports_weights()
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        (**self).solve(wcnf)
    }
}

/// `Send`-able trait objects: what the parallel portfolio and batch
/// drivers in `coremax_par` move across worker threads.
impl MaxSatSolver for Box<dyn MaxSatSolver + Send> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn set_budget(&mut self, budget: Budget) {
        (**self).set_budget(budget);
    }

    fn supports_weights(&self) -> bool {
        (**self).supports_weights()
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        (**self).solve(wcnf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_display() {
        assert_eq!(MaxSatStatus::Optimal.to_string(), "OPTIMAL");
        assert_eq!(MaxSatStatus::Unknown.to_string(), "UNKNOWN");
        assert_eq!(MaxSatStatus::Infeasible.to_string(), "INFEASIBLE");
    }

    #[test]
    fn infeasible_constructor() {
        let s = MaxSatSolution::infeasible(MaxSatStats::default());
        assert_eq!(s.status, MaxSatStatus::Infeasible);
        assert!(s.cost.is_none());
        assert!(s.model.is_none());
        assert_eq!(s.lower_bound, 0);
        assert!(!s.is_optimal());
        assert_eq!(s.gap(), None);
    }

    #[test]
    fn interval_constructor_and_gap() {
        let s = MaxSatSolution::interval(3, Some(7), None, MaxSatStats::default());
        assert_eq!(s.status, MaxSatStatus::Unknown);
        assert_eq!(s.lower_bound, 3);
        assert_eq!(s.gap(), Some(4));
        let open = MaxSatSolution::interval(3, None, None, MaxSatStats::default());
        assert_eq!(open.gap(), None, "no incumbent: upper side open");
        let tight = MaxSatSolution::interval(5, Some(5), None, MaxSatStats::default());
        assert_eq!(tight.gap(), Some(0));
    }

    #[test]
    fn num_satisfied_requires_model() {
        let s = MaxSatSolution::infeasible(MaxSatStats::default());
        let w = WcnfFormula::new();
        assert_eq!(s.num_satisfied(&w), None);
    }

    #[test]
    fn stats_json_is_wellformed_and_nested() {
        let mut st = MaxSatStats {
            sat_calls: 7,
            cores: 3,
            wall_time: Duration::from_millis(12),
            ..MaxSatStats::default()
        };
        st.phase
            .add(coremax_obs::Phase::Encode, Duration::from_micros(5));
        st.totalizer_extensions = 2;
        let v = coremax_obs::json::parse(&st.to_json()).expect("valid json");
        assert_eq!(v.get("sat_calls").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("totalizer_extensions").unwrap().as_u64(), Some(2));
        assert_eq!(
            v.get("phase_times")
                .unwrap()
                .get("encode_us")
                .unwrap()
                .as_u64(),
            Some(5)
        );
        assert!(v.get("sat").unwrap().get("decisions").is_some());
        assert!(v.get("sat").unwrap().get("phase_times").is_some());
        assert!(v.get("simp").unwrap().get("rounds").is_some());
    }

    #[test]
    fn stats_display_mentions_calls() {
        let st = MaxSatStats {
            sat_calls: 7,
            weight_splits: 3,
            strata: 2,
            totalizer_extensions: 4,
            ..MaxSatStats::default()
        };
        assert!(st.to_string().contains("sat_calls=7"));
        assert!(st.to_string().contains("weight_splits=3"));
        assert!(st.to_string().contains("strata=2"));
        assert!(st.to_string().contains("tot_ext=4"));
    }

    /// The `Send` audit behind `coremax_par`: every solver a portfolio
    /// member can be built from — and the wrappers around them — must
    /// cross thread boundaries, and the shared inputs must be `Sync`.
    /// Compile-time only; if a solver ever grows an `Rc`/`RefCell`
    /// this stops building.
    #[test]
    fn solver_stack_is_send() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<coremax_sat::Solver>();
        assert_send::<Budget>();
        assert_sync::<Budget>();
        assert_sync::<WcnfFormula>();
        assert_send::<crate::Msu1>();
        assert_send::<crate::Msu3>();
        assert_send::<crate::Msu4>();
        assert_send::<crate::Wmsu1>();
        assert_send::<crate::Oll>();
        assert_send::<crate::BranchBound>();
        assert_send::<crate::Stratified<crate::Msu3>>();
        assert_send::<crate::Preprocessed<crate::Msu4>>();
        assert_send::<Box<dyn MaxSatSolver + Send>>();
        assert_send::<crate::Preprocessed<Box<dyn MaxSatSolver + Send>>>();
        assert_send::<crate::Stratified<Box<dyn MaxSatSolver + Send>>>();
    }

    #[test]
    fn boxed_send_solver_dispatches() {
        let mut solver: Box<dyn MaxSatSolver + Send> = Box::new(crate::Msu4::v2());
        assert_eq!(solver.name(), "msu4-v2");
        assert!(!solver.supports_weights());
        solver.set_budget(Budget::new());
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_soft([coremax_cnf::Lit::positive(x)], 1);
        w.add_soft([coremax_cnf::Lit::negative(x)], 1);
        assert_eq!(solver.solve(&w).cost, Some(1));
    }

    #[test]
    fn absorb_sums_counters_but_not_wall_time() {
        let mut a = MaxSatStats {
            sat_calls: 2,
            cores: 1,
            strata: 1,
            wall_time: Duration::from_secs(5),
            ..MaxSatStats::default()
        };
        let b = MaxSatStats {
            sat_calls: 3,
            cores: 2,
            weight_splits: 4,
            hardened: 1,
            totalizer_extensions: 2,
            wall_time: Duration::from_secs(7),
            ..MaxSatStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.sat_calls, 5);
        assert_eq!(a.cores, 3);
        assert_eq!(a.weight_splits, 4);
        assert_eq!(a.strata, 1);
        assert_eq!(a.hardened, 1);
        assert_eq!(a.totalizer_extensions, 2);
        assert_eq!(a.wall_time, Duration::from_secs(5));
    }
}
