//! Stratified weighted MaxSAT: solve weight strata heaviest-first,
//! freezing each stratum's optimum before descending.
//!
//! Stratification turns *any* MaxSAT solver — including the paper's
//! unweighted msu3/msu4 — into an exact weighted solver whenever the
//! weight distribution is diverse enough, which is precisely the regime
//! (few distinct weights, heavy ones dominating) where industrial
//! weighted instances live (Ansótegui–Bonet–Levy's stratified WPM1
//! heuristic).
//!
//! # Exactness
//!
//! Soft clauses are partitioned into **groups** of weight strata,
//! heaviest first, closing a group as soon as the *hardening
//! condition* holds: `gcd(weights in the group) > total weight of
//! everything lighter`. Achievable per-group costs are subset sums of
//! the group's weights, so two different group costs differ by at
//! least the gcd — and the condition makes any improvement in a
//! heavier group outweigh every lighter clause combined. Minimising
//! the groups lexicographically (each stage's optimum frozen by a
//! cardinality/pseudo-Boolean bound over relaxation selectors before
//! the next stage starts) is then exactly the weighted optimum.
//!
//! # Delegation
//!
//! Each group's weights are divided by its gcd. A uniform group thus
//! becomes an unweighted sub-instance, which the inner solver runs. A
//! mixed group keeps its normalised weights: a weight-capable inner
//! solver runs it as-is, and an unweighted one hands it to an internal
//! [`Oll`] (the weight-native OLL/RC2 loop). So the combination is
//! exact on *every* weighted instance, not just well-stratified ones.

use std::time::Instant;

use coremax_cards::{encode_at_most, CardEncoding, CnfSink};
use coremax_cnf::{ClauseStore, Lit, Var, WcnfFormula, Weight};
use coremax_pbo::{encode_pb, PbConstraint, PbOp, PbTerm};
use coremax_sat::Budget;

use crate::oll::Oll;
use crate::types::{MaxSatSolution, MaxSatSolver, MaxSatStats, MaxSatStatus};

/// Stratified meta-solver: weight strata solved heaviest-first, each
/// stratum delegated to the inner [`MaxSatSolver`].
///
/// Unweighted instances pass straight through to the inner solver (one
/// stratum, no freezing overhead), so `Stratified<S>` is a safe default
/// wrapper for any `S`.
///
/// # Examples
///
/// ```
/// use coremax::{MaxSatSolver, Msu3, Stratified};
/// use coremax_cnf::{Lit, WcnfFormula};
///
/// // msu3 alone panics on weighted input; stratified it is exact.
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// let y = w.new_var();
/// w.add_hard([Lit::negative(x), Lit::negative(y)]);
/// w.add_soft([Lit::positive(x)], 100);
/// w.add_soft([Lit::positive(y)], 3);
/// let s = Stratified::new(Msu3::new()).solve(&w);
/// assert_eq!(s.cost, Some(3));
/// assert!(coremax::verify_solution(&w, &s));
/// ```
#[derive(Debug, Clone)]
pub struct Stratified<S> {
    inner: S,
    budget: Budget,
}

impl<S: MaxSatSolver> Stratified<S> {
    /// Wraps `inner` with the totalizer freeze encoding. `inner` runs
    /// every uniform group; a mixed group goes to `inner` only if it
    /// [supports weights](MaxSatSolver::supports_weights), and to an
    /// internal [`Oll`] otherwise.
    #[must_use]
    pub fn new(inner: S) -> Self {
        Stratified {
            inner,
            budget: Budget::new(),
        }
    }
}

/// One group of weight strata solved as a single stage.
struct Group {
    /// `(soft index, weight)` pairs, every weight a multiple of `gcd`.
    clauses: Vec<(usize, Weight)>,
    gcd: Weight,
}

fn gcd(a: Weight, b: Weight) -> Weight {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Greedy heaviest-first grouping under the hardening condition
/// `gcd(group) > total weight of all lighter clauses`.
fn partition(wcnf: &WcnfFormula) -> Vec<Group> {
    let strata = wcnf.weight_strata();
    // suffix[i] = total weight of strata i.. (saturating: an overflowed
    // remainder simply prevents early group closure, which is sound).
    let mut suffix: Vec<Weight> = vec![0; strata.len() + 1];
    for i in (0..strata.len()).rev() {
        suffix[i] = suffix[i + 1].saturating_add(strata[i].total_weight());
    }
    let mut groups = Vec::new();
    let mut current = Group {
        clauses: Vec::new(),
        gcd: 0,
    };
    for (i, stratum) in strata.iter().enumerate() {
        current.gcd = gcd(current.gcd, stratum.weight);
        current
            .clauses
            .extend(stratum.indices.iter().map(|&j| (j, stratum.weight)));
        if current.gcd > suffix[i + 1] {
            groups.push(std::mem::replace(
                &mut current,
                Group {
                    clauses: Vec::new(),
                    gcd: 0,
                },
            ));
        }
    }
    if !current.clauses.is_empty() {
        groups.push(current);
    }
    groups
}

impl<S: MaxSatSolver> MaxSatSolver for Stratified<S> {
    fn name(&self) -> &'static str {
        "stratified"
    }

    fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn supports_weights(&self) -> bool {
        true
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        let start = Instant::now();
        // Every stage shares one clock, the caller's stop flags and one
        // work pool.
        let stage_budget = self.budget.child(start);
        let mut stats = MaxSatStats::default();

        let groups = partition(wcnf);
        if groups.is_empty() {
            // No soft clauses: the inner solver decides feasibility.
            self.inner.set_budget(stage_budget);
            let mut solution = self.inner.solve(wcnf);
            solution.stats.strata = 1;
            return solution;
        }

        // Hard clauses accumulate stratum freezes as stages complete.
        let mut hard = ClauseStore::new();
        for c in wcnf.hard_clauses() {
            hard.push(c.iter().copied());
        }
        let mut num_vars = wcnf.num_vars();
        let mut total_cost: Weight = 0;
        let mut model = None;

        let finish = |status: MaxSatStatus,
                      cost: Option<Weight>,
                      lower_bound: Weight,
                      model: Option<coremax_cnf::Assignment>,
                      mut stats: MaxSatStats| {
            stats.wall_time = start.elapsed();
            MaxSatSolution {
                status,
                cost,
                model,
                lower_bound,
                stats,
            }
        };

        // Any model satisfying the (possibly frozen) hard clauses also
        // satisfies the original hard clauses, so it is a valid incumbent
        // for the original instance at its recomputed exact cost.
        let incumbent = |candidate: Option<coremax_cnf::Assignment>,
                         fallback: &Option<coremax_cnf::Assignment>| {
            let best = candidate
                .into_iter()
                .chain(fallback.clone())
                .filter_map(|m| wcnf.cost(&m).map(|c| (c, m)))
                .min_by_key(|&(c, _)| c);
            match best {
                Some((c, m)) => (Some(c), Some(m)),
                None => (None, None),
            }
        };

        let num_groups = groups.len();
        for (gi, group) in groups.into_iter().enumerate() {
            stats.strata += 1;
            let g = group.gcd.max(1);
            if coremax_obs::tracing_enabled() {
                coremax_obs::emit(coremax_obs::Event::StratumOpened {
                    index: gi as u64,
                    weight: g,
                    softs: group.clauses.len() as u64,
                });
            }
            let uniform = group.clauses.iter().all(|&(_, w)| w == group.clauses[0].1);

            // Build the stage sub-instance at the normalised weights: a
            // uniform group's are all 1.
            let mut sub = WcnfFormula::with_vars(num_vars);
            for h in &hard {
                sub.add_hard(h.iter().copied());
            }
            for &(j, w) in &group.clauses {
                sub.add_soft(wcnf.soft(j).clause.iter().copied(), w / g);
            }

            // Delegate. A weight-incapable inner solver only ever sees
            // unweighted sub-instances; mixed groups it cannot take go
            // to the internal weight-native fallback.
            let solution = if sub.is_unweighted() || self.inner.supports_weights() {
                self.inner.set_budget(stage_budget.clone());
                self.inner.solve(&sub)
            } else {
                let mut fallback = Oll::new();
                fallback.set_budget(stage_budget.clone());
                fallback.solve(&sub)
            };
            stats.absorb(&solution.stats);
            match solution.status {
                MaxSatStatus::Infeasible => {
                    // Only the hard clauses can be contradictory: every
                    // later stage is feasible by the previous model.
                    return finish(MaxSatStatus::Infeasible, None, 0, None, stats);
                }
                MaxSatStatus::Unknown => {
                    // Completed stages are frozen at their exact optima
                    // and the interrupted stage certifies its own lb in
                    // normalised units: both add up to a sound global lb.
                    let lb = total_cost.saturating_add(solution.lower_bound.saturating_mul(g));
                    let (cost, best) = incumbent(solution.model, &model);
                    return finish(MaxSatStatus::Unknown, cost, lb, best, stats);
                }
                MaxSatStatus::Optimal => {}
            }
            let k_units = solution.cost.expect("optimal stage carries a cost");
            total_cost = total_cost.saturating_add(k_units.saturating_mul(g));
            model = solution.model;
            if coremax_obs::tracing_enabled() {
                coremax_obs::emit(coremax_obs::Event::StratumClosed {
                    index: gi as u64,
                    cost: k_units.saturating_mul(g),
                });
                coremax_obs::emit(coremax_obs::Event::Bounds {
                    lb: total_cost,
                    ub: None,
                });
            }

            if gi + 1 == num_groups {
                break;
            }
            // Freeze the stage optimum before descending.
            if k_units == 0 {
                // Hardening: the stage proved every clause satisfiable.
                for &(j, _) in &group.clauses {
                    hard.push(wcnf.soft(j).clause.iter().copied());
                    stats.hardened += 1;
                }
            } else {
                let mut selectors: Vec<(Lit, Weight)> = Vec::with_capacity(group.clauses.len());
                for &(j, w) in &group.clauses {
                    let b = Lit::positive(Var::new(num_vars as u32));
                    num_vars += 1;
                    hard.push(wcnf.soft(j).clause.iter().copied().chain([b]));
                    selectors.push((b, w / g));
                    stats.blocking_vars += 1;
                }
                let mut sink = CnfSink::new(num_vars);
                if uniform {
                    let lits: Vec<Lit> = selectors.iter().map(|&(b, _)| b).collect();
                    encode_at_most(
                        &lits,
                        usize::try_from(k_units).unwrap_or(usize::MAX),
                        CardEncoding::Totalizer,
                        &mut sink,
                    );
                } else {
                    let terms: Vec<PbTerm> =
                        selectors.iter().map(|&(b, u)| PbTerm::new(u, b)).collect();
                    let bound = i64::try_from(k_units).unwrap_or(i64::MAX);
                    encode_pb(&PbConstraint::new(terms, PbOp::Le, bound), &mut sink);
                }
                num_vars = sink.num_vars();
                let freeze = sink.into_clauses();
                stats.cardinality_clauses += freeze.len() as u64;
                for c in &freeze {
                    hard.push(c.iter().copied());
                }
            }
            if stage_budget.interrupted() {
                let (cost, best) = incumbent(None, &model);
                return finish(MaxSatStatus::Unknown, cost, total_cost, best, stats);
            }
        }

        finish(
            MaxSatStatus::Optimal,
            Some(total_cost),
            total_cost,
            model,
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_solution, BranchBound, Msu3, Msu4, Wmsu1};
    use coremax_cnf::dimacs;

    fn weighted(text: &str) -> WcnfFormula {
        dimacs::parse_wcnf(text).unwrap()
    }

    #[test]
    fn partition_respects_hardening_condition() {
        // Weights 100, 8, 4: 100 > 8+4·3 = 20 closes the first group;
        // gcd(8,4)=4 > 0 closes the rest only at the end.
        let mut w = WcnfFormula::with_vars(3);
        w.add_soft([Lit::positive(Var::new(0))], 100);
        w.add_soft([Lit::positive(Var::new(1))], 8);
        for _ in 0..3 {
            w.add_soft([Lit::positive(Var::new(2))], 4);
        }
        let groups = partition(&w);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].gcd, 100);
        assert_eq!(groups[0].clauses.len(), 1);
        assert_eq!(groups[1].gcd, 4);
        assert_eq!(groups[1].clauses.len(), 4);
    }

    #[test]
    fn partition_merges_non_dominating_weights() {
        // 10 does not dominate 9+1; gcd(10,9)=1 not > 1; one group.
        let mut w = WcnfFormula::with_vars(3);
        w.add_soft([Lit::positive(Var::new(0))], 10);
        w.add_soft([Lit::positive(Var::new(1))], 9);
        w.add_soft([Lit::positive(Var::new(2))], 1);
        let groups = partition(&w);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].gcd, 1);
    }

    #[test]
    fn unweighted_input_is_a_single_stratum_pass_through() {
        let cnf = dimacs::parse_cnf("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n").unwrap();
        let w = WcnfFormula::from_cnf_all_soft(&cnf);
        let s = Stratified::new(Msu3::new()).solve(&w);
        assert_eq!(s.cost, Some(2));
        assert_eq!(s.stats.strata, 1);
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn dominating_weights_stratify_exactly() {
        // Conflicting pairs at three scales: optimum picks the lighter
        // of each pair = 1 + 10 + 100.
        let w = weighted("p wcnf 3 6\n1000 1 0\n100 -1 0\n70 2 0\n10 -2 0\n7 3 0\n1 -3 0\n");
        let s = Stratified::new(Msu4::v2()).solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.cost, Some(111));
        assert!(s.stats.strata >= 3, "strata = {}", s.stats.strata);
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn non_dominating_weights_still_exact() {
        // The classic lexicographic trap: satisfying the weight-10
        // clause (x1) drags down the 9 *and* both 1s via the hard
        // implications. Naive per-weight lexicographic solving keeps
        // the 10 satisfied and answers 11; the gcd grouping merges the
        // non-dominating weights and answers the true optimum 10.
        let w = weighted("p wcnf 3 6 99\n99 -1 2 0\n99 -1 3 0\n10 1 0\n9 -1 0\n1 -2 0\n1 -3 0\n");
        let oracle = BranchBound::new().solve(&w);
        assert_eq!(oracle.cost, Some(10));
        for solution in [
            Stratified::new(Msu3::new()).solve(&w),
            Stratified::new(Msu4::v2()).solve(&w),
            Stratified::new(Wmsu1::new()).solve(&w),
        ] {
            assert_eq!(solution.cost, Some(10));
            assert!(verify_solution(&w, &solution));
        }
    }

    #[test]
    fn hardening_kicks_in_on_satisfiable_heavy_stratum() {
        let w = weighted("p wcnf 2 3 99\n99 1 2 0\n100 1 0\n1 -1 0\n");
        let s = Stratified::new(Msu3::new()).solve(&w);
        assert_eq!(s.cost, Some(1));
        assert!(s.stats.hardened >= 1);
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn weight_capable_inner_gets_the_mixed_group_directly() {
        let w = weighted("p wcnf 3 4 99\n99 -1 -2 0\n10 1 0\n9 2 0\n1 3 0\n");
        let s = Stratified::new(BranchBound::new()).solve(&w);
        assert_eq!(s.cost, Some(9));
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn huge_mixed_weights_go_to_the_weighted_fallback() {
        // Mixed non-dominating group with huge normalised weights: an
        // unweighted inner solver cannot take it, so the internal Oll
        // runs it, and must still be exact.
        let w = weighted("p wcnf 3 4 9999999\n9999999 -1 -2 0\n500000 1 0\n499999 2 0\n2 3 0\n");
        let s = Stratified::new(Msu3::new()).solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.cost, Some(499_999));
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn infeasible_propagates() {
        let w = weighted("p wcnf 1 3 9\n9 1 0\n9 -1 0\n5 1 0\n");
        let s = Stratified::new(Msu3::new()).solve(&w);
        assert_eq!(s.status, MaxSatStatus::Infeasible);
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn no_soft_clauses_delegates_feasibility() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        let s = Stratified::new(Msu3::new()).solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.cost, Some(0));
        let mut infeasible = WcnfFormula::new();
        let y = infeasible.new_var();
        infeasible.add_hard([Lit::positive(y)]);
        infeasible.add_hard([Lit::negative(y)]);
        assert_eq!(
            Stratified::new(Msu3::new()).solve(&infeasible).status,
            MaxSatStatus::Infeasible
        );
    }

    #[test]
    fn agrees_with_branch_bound_on_random_weighted() {
        let mut seed = 0x0F1E_2D3C_4B5A_6978u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..15 {
            let num_vars = 3 + (next() % 3) as usize;
            let mut w = WcnfFormula::with_vars(num_vars);
            for _ in 0..(4 + next() % 6) {
                let len = 1 + (next() % 2) as usize;
                let lits: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(Var::new((next() % num_vars as u64) as u32), next() & 1 == 0))
                    .collect();
                // Power-of-two-flavoured weights: some domination, some
                // merging.
                w.add_soft(lits, 1 << (next() % 5));
            }
            let oracle = BranchBound::new().solve(&w);
            for solution in [
                Stratified::new(Msu3::new()).solve(&w),
                Stratified::new(Msu4::v2()).solve(&w),
            ] {
                assert_eq!(
                    solution.cost, oracle.cost,
                    "stratified wrong on round {round}"
                );
                assert!(verify_solution(&w, &solution));
            }
        }
    }

    #[test]
    fn budget_abort() {
        use std::time::Duration;
        let w = weighted("p wcnf 2 4\n3 1 0\n4 -1 0\n2 2 0\n5 -2 0\n");
        let mut solver = Stratified::new(Msu3::new());
        solver.set_budget(Budget::new().with_timeout(Duration::from_nanos(1)));
        assert_eq!(solver.solve(&w).status, MaxSatStatus::Unknown);
    }
}
