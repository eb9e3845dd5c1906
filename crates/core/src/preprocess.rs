//! Preprocessing wrapper: simplify once, solve the residual formula,
//! reconstruct the model.
//!
//! Core-guided algorithms rebuild their working formula from the input
//! on every iteration, so any clause the simplifier removes is removed
//! from *every* SAT call of the run. [`Preprocessed`] is the glue: it
//! runs `coremax_simp` with all soft-clause variables frozen (the
//! contract the MSU relaxation schemes require), hands the residual
//! instance to any inner [`MaxSatSolver`], then maps the answer back —
//! cost re-offset by what preprocessing already decided, model extended
//! through the elimination stack — so callers (and
//! [`crate::verify_solution`]) keep working against the untouched
//! input.

use std::time::Instant;

use coremax_cnf::WcnfFormula;
use coremax_sat::Budget;
use coremax_simp::{SimpConfig, Simplifier};

use crate::types::{MaxSatSolution, MaxSatSolver, MaxSatStats, MaxSatStatus};

/// Wraps any MaxSAT solver with the `coremax_simp` preprocessing
/// pipeline.
///
/// The wrapper is transparent: statuses, costs, and models all refer to
/// the *original* instance. Preprocessing counters surface through
/// [`MaxSatStats::simp`].
///
/// # Examples
///
/// ```
/// use coremax::{MaxSatSolver, Msu4, Preprocessed};
/// use coremax_cnf::dimacs;
///
/// // Hard chain x1→x2→x3 with soft endpoints: the middle variable is
/// // resolved away before msu4 ever runs.
/// let wcnf = dimacs::parse_wcnf(
///     "p wcnf 3 4 9\n9 -1 2 0\n9 -2 3 0\n1 -3 0\n1 1 0\n",
/// ).unwrap();
/// let mut solver = Preprocessed::new(Msu4::v2());
/// let direct = Msu4::v2().solve(&wcnf);
/// let solution = solver.solve(&wcnf);
/// assert_eq!(solution.cost, direct.cost);
/// assert!(coremax::verify_solution(&wcnf, &solution));
/// assert!(solution.stats.simp.eliminated_vars >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct Preprocessed<S> {
    inner: S,
    config: SimpConfig,
    budget: Budget,
}

impl<S: MaxSatSolver> Preprocessed<S> {
    /// Wraps `inner` with the default preprocessing configuration.
    #[must_use]
    pub fn new(inner: S) -> Self {
        Preprocessed::with_config(inner, SimpConfig::default())
    }

    /// Wraps `inner` with an explicit preprocessing configuration.
    #[must_use]
    pub fn with_config(inner: S, config: SimpConfig) -> Self {
        Preprocessed {
            inner,
            config,
            budget: Budget::new(),
        }
    }

    /// The inner solver.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: MaxSatSolver> MaxSatSolver for Preprocessed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn supports_weights(&self) -> bool {
        self.inner.supports_weights()
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        let start = Instant::now();
        // Anchor the wall-clock budget *before* preprocessing, so
        // simplification time counts against the caller's timeout: the
        // inner solver receives an absolute deadline of `start +
        // timeout` (or the caller's own deadline, whichever is
        // earlier), while conflict/propagation caps pass through.
        let mut inner_budget = self.budget.clone();
        if let Some(deadline) = self.budget.effective_deadline(start) {
            inner_budget = inner_budget.with_deadline(deadline);
        }
        self.inner.set_budget(inner_budget.clone());
        // The simplifier itself takes no budget, so honour cancellation
        // at its boundaries: a raised stop flag (or an already-expired
        // deadline) skips the pipeline entirely, and a stop raised
        // *during* simplification is observed before the inner solve —
        // the simplifier pass is the one uninterruptible window left.
        let abort = |simp_stats, lower_bound: u64, start: Instant| MaxSatSolution {
            status: MaxSatStatus::Unknown,
            cost: None,
            model: None,
            lower_bound,
            stats: MaxSatStats {
                simp: simp_stats,
                wall_time: start.elapsed(),
                ..MaxSatStats::default()
            },
        };
        if inner_budget.interrupted() {
            return abort(coremax_simp::SimpStats::default(), 0, start);
        }
        let mut simplifier = Simplifier::with_config(self.config.clone());
        simplifier.set_budget(inner_budget.clone());
        let simp_span = coremax_obs::span(coremax_obs::Phase::SimpPass);
        let simp = simplifier.simplify(wcnf);
        let simp_stats = *simplifier.stats();
        let mut pre_phase = coremax_obs::PhaseTimes::default();
        simp_span.finish(&mut pre_phase);
        if inner_budget.interrupted() {
            // A completed (or partially completed) pipeline has already
            // charged `cost_offset` for soft clauses it proved falsified
            // in every feasible assignment — a sound lower bound on its
            // own, even with no residual solve.
            let mut solution = abort(simp_stats, simp.cost_offset, start);
            solution.stats.phase.absorb(&pre_phase);
            return solution;
        }
        if simp.infeasible {
            let mut stats = MaxSatStats {
                simp: simp_stats,
                ..MaxSatStats::default()
            };
            stats.phase.absorb(&pre_phase);
            stats.wall_time = start.elapsed();
            return MaxSatSolution::infeasible(stats);
        }
        let mut solution = self.inner.solve(&simp.formula);
        solution.stats.simp = simp_stats;
        solution.stats.phase.absorb(&pre_phase);
        solution.stats.wall_time = start.elapsed();
        // Costs on the residual formula miss what preprocessing already
        // charged; models live in the compacted space. The lower bound
        // shifts by the same offset: residual-optimum ≥ inner lb, and
        // original-optimum = residual-optimum + cost_offset.
        solution.cost = solution.cost.map(|c| c.saturating_add(simp.cost_offset));
        solution.lower_bound = solution.lower_bound.saturating_add(simp.cost_offset);
        if let Some(model) = solution.model.take() {
            solution.model = Some(simp.reconstruct_model(&model));
        } else if solution.status == MaxSatStatus::Optimal {
            // Defensive: an optimal verdict without a model cannot be
            // reconstructed; keep it as-is (verify will flag it, as it
            // would for the inner solver alone).
        }
        if solution.status == MaxSatStatus::Unknown {
            // An anytime incumbent certifies its cost *exactly* on the
            // original instance: recompute it through the reconstruction
            // rather than trusting the residual-space figure; drop the
            // incumbent if the reconstructed model cannot be costed.
            match solution.model.as_ref().and_then(|m| wcnf.cost(m)) {
                Some(c) => solution.cost = Some(c),
                None => {
                    solution.model = None;
                    solution.cost = None;
                }
            }
        }
        solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_solution, BranchBound, Msu1, Msu4};
    use coremax_cnf::{dimacs, Lit, WcnfFormula};

    fn chain_instance() -> WcnfFormula {
        dimacs::parse_wcnf("p wcnf 4 6 9\n9 -1 2 0\n9 -2 3 0\n9 -3 4 0\n1 -4 0\n1 1 0\n1 2 0\n")
            .unwrap()
    }

    #[test]
    fn agrees_with_direct_solve_on_chain() {
        let w = chain_instance();
        let direct = Msu4::v2().solve(&w);
        let mut pre = Preprocessed::new(Msu4::v2());
        let s = pre.solve(&w);
        assert_eq!(s.status, direct.status);
        assert_eq!(s.cost, direct.cost);
        assert!(verify_solution(&w, &s), "reconstructed model must verify");
        assert!(s.stats.simp.vars_out < s.stats.simp.vars_in);
    }

    #[test]
    fn infeasible_detected_by_preprocessing() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_hard([Lit::negative(x)]);
        w.add_soft([Lit::positive(x)], 1);
        let mut pre = Preprocessed::new(Msu4::v2());
        let s = pre.solve(&w);
        assert_eq!(s.status, MaxSatStatus::Infeasible);
        assert!(verify_solution(&w, &s));
        assert!(s.stats.simp.facts >= 1);
    }

    #[test]
    fn cost_offset_added_back() {
        // Hard unit kills a weight-5 soft clause: the inner solver sees
        // cost 0, the caller must see 5.
        let w = dimacs::parse_wcnf("p wcnf 1 2 9\n9 1 0\n5 -1 0\n").unwrap();
        let mut pre = Preprocessed::new(BranchBound::new());
        let s = pre.solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.cost, Some(5));
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn weighted_instances_pass_through() {
        let w = dimacs::parse_wcnf("p wcnf 2 4 9\n9 1 2 0\n4 -1 0\n3 -2 0\n2 1 0\n").unwrap();
        let direct = BranchBound::new().solve(&w);
        let mut pre = Preprocessed::new(BranchBound::new());
        let s = pre.solve(&w);
        assert_eq!(s.cost, direct.cost);
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn works_with_boxed_solvers() {
        let w = chain_instance();
        let boxed: Box<dyn MaxSatSolver> = Box::new(Msu1::new());
        let mut pre = Preprocessed::new(boxed);
        let s = pre.solve(&w);
        assert_eq!(s.cost, Msu1::new().solve(&w).cost);
        assert!(verify_solution(&w, &s));
        assert_eq!(pre.name(), "msu1");
    }

    #[test]
    fn budget_propagates_to_inner_solver() {
        use std::time::Duration;
        let w = chain_instance();
        let mut pre = Preprocessed::new(Msu4::v2());
        pre.set_budget(Budget::new().with_timeout(Duration::from_secs(30)));
        let s = pre.solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
    }

    #[test]
    fn preprocessing_time_counts_against_the_timeout() {
        use std::time::Duration;
        // A 1 ns timeout expires before (or during) preprocessing: the
        // inner solver must see an already-elapsed deadline and abort,
        // exactly as it would without the wrapper.
        let w = chain_instance();
        let mut pre = Preprocessed::new(Msu4::v2());
        pre.set_budget(Budget::new().with_timeout(Duration::from_nanos(1)));
        let s = pre.solve(&w);
        assert_eq!(s.status, MaxSatStatus::Unknown);
    }

    #[test]
    fn paper_example2_still_optimum_6_of_8() {
        // Plain MaxSAT: no hard clauses, everything frozen — the
        // wrapper must be a clean pass-through.
        let cnf = dimacs::parse_cnf(
            "p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n",
        )
        .unwrap();
        let w = WcnfFormula::from_cnf_all_soft(&cnf);
        let mut pre = Preprocessed::new(Msu4::v2());
        let s = pre.solve(&w);
        assert_eq!(s.cost, Some(2));
        assert_eq!(s.num_satisfied(&w), Some(6));
        assert!(verify_solution(&w, &s));
    }
}
