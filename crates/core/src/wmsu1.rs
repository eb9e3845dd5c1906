//! wmsu1 — weight-aware Fu & Malik with weight splitting (WMSU1/WPM1).
//!
//! The msu* algorithms of the DATE'08 paper are defined for unweighted
//! (partial) MaxSAT; their canonical weighted successor keeps the core
//! relaxation loop but *splits* weights instead of counting clauses:
//! when an unsatisfiable core is found, the minimum weight `w_min` over
//! its soft clauses is charged to the lower bound, every core clause of
//! weight `w > w_min` is cloned into a residual copy at `w − w_min`,
//! the `w_min` shares are relaxed with fresh blocking variables, and an
//! exactly-one constraint over the fresh variables is added as hard
//! clauses (Ansótegui–Bonet–Levy's WPM1 / Manquinho–Marques-Silva–
//! Planes's WBO lineage). On unweighted input every `w_min` is 1, no
//! weight is split, and the loop is Fu & Malik's msu1 exactly:
//! [`crate::Msu1`] is this loop restricted to unit weights.

use coremax_cards::{encode_exactly, CardEncoding};
use coremax_cnf::{Lit, WcnfFormula, Weight};
use coremax_sat::{Budget, SoftId, SolveOutcome};

use crate::run::CoreRun;
use crate::types::{MaxSatSolution, MaxSatSolver};

/// Weight-aware Fu & Malik (WMSU1): per-core relaxation with weight
/// splitting. Handles arbitrary weighted partial MaxSAT natively — no
/// clause replication, no weight cap.
///
/// # Examples
///
/// ```
/// use coremax::{MaxSatSolver, Wmsu1};
/// use coremax_cnf::{Lit, WcnfFormula};
///
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// w.add_soft([Lit::positive(x)], 1_000_000);
/// w.add_soft([Lit::negative(x)], 7);
/// let s = Wmsu1::new().solve(&w);
/// assert_eq!(s.cost, Some(7));
/// assert!(coremax::verify_solution(&w, &s));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Wmsu1 {
    budget: Budget,
}

impl Wmsu1 {
    /// wmsu1 with the pairwise exactly-one encoding (Fu & Malik's
    /// original choice; cores are usually small).
    #[must_use]
    pub fn new() -> Self {
        Wmsu1::default()
    }
}

/// One working soft clause: the literals of an original soft clause
/// plus accumulated blocking literals, at the weight share it currently
/// carries. Only the blocking literals are stored, so a clause that
/// never gains one costs no allocation.
#[derive(Debug, Clone)]
struct WorkingSoft {
    /// Index of the original soft clause in the formula.
    original: usize,
    blocking: Vec<Lit>,
    weight: Weight,
}

impl WorkingSoft {
    /// The clause's literals: the original's, then the blocking ones.
    fn lits<'a>(&'a self, wcnf: &'a WcnfFormula) -> impl Iterator<Item = Lit> + 'a {
        let original = wcnf.soft(self.original).clause.lits();
        original.iter().chain(&self.blocking).copied()
    }
}

impl MaxSatSolver for Wmsu1 {
    fn name(&self) -> &'static str {
        "wmsu1"
    }

    fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn supports_weights(&self) -> bool {
        true
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        // Every working soft clause (the originals and the residual
        // copies splitting creates) is enforced through its selector
        // assumption. Extending a clause with a blocking literal retires
        // the old copy and registers the extended one under a fresh
        // selector. Each core charges its w_min to the lower bound.
        let mut run = CoreRun::new(wcnf, &self.budget);
        // Soft clauses gain blocking literals and shed weight over time;
        // splitting appends residual copies.
        let mut soft: Vec<WorkingSoft> = wcnf
            .soft_clauses()
            .enumerate()
            .map(|(original, s)| WorkingSoft {
                original,
                blocking: Vec::new(),
                weight: s.weight,
            })
            .collect();
        // The live handle of each working soft, and the working soft of
        // each handle (indexed by `SoftId`; a retired handle keeps its
        // entry, but a retired soft is never in a core).
        let mut handles: Vec<SoftId> = run.add_softs().map(SoftId).collect();
        let mut working_of: Vec<usize> = (0..handles.len()).collect();

        loop {
            match run.solve(&[]) {
                SolveOutcome::Unknown => return run.unknown(),
                SolveOutcome::Sat => {
                    // The model falsifies exactly the charged weight.
                    run.offer(run.model());
                    return run.optimal();
                }
                SolveOutcome::Unsat => {
                    // Refuted independently of the soft assumptions: the
                    // hard (plus exactly-one) skeleton is contradictory —
                    // selectors are free at the clause level and the
                    // exactly-one constraints are satisfiable on their
                    // own, so the instance has no feasible assignment.
                    if run.engine.formula_refuted() {
                        return run.infeasible();
                    }
                    let failed = run.engine.failed_softs();
                    let in_core: Vec<usize> = failed.iter().map(|id| working_of[id.0]).collect();
                    if in_core.is_empty() {
                        return run.infeasible();
                    }
                    let w_min = in_core
                        .iter()
                        .map(|&i| soft[i].weight)
                        .min()
                        .expect("non-empty core");
                    run.core(in_core.len(), w_min);
                    // Relax the w_min share of every core clause with a
                    // fresh blocking variable; clauses heavier than
                    // w_min keep a residual un-relaxed copy (registered
                    // *before* the blocking literal is appended).
                    let mut fresh: Vec<Lit> = Vec::with_capacity(in_core.len());
                    for &i in &in_core {
                        if soft[i].weight > w_min {
                            let residual = WorkingSoft {
                                weight: soft[i].weight.saturating_sub(w_min),
                                ..soft[i].clone()
                            };
                            handles.push(run.engine.add_soft(residual.lits(wcnf)));
                            working_of.push(soft.len());
                            soft.push(residual);
                            soft[i].weight = w_min;
                            run.stats.weight_splits += 1;
                        }
                        let b = Lit::positive(run.engine.new_var());
                        soft[i].blocking.push(b);
                        fresh.push(b);
                        run.stats.blocking_vars += 1;
                        run.engine.retire(handles[i]);
                        handles[i] = run.engine.add_soft(soft[i].lits(wcnf));
                        working_of.push(i);
                    }
                    let ((), clauses) = run.encode(None, |sink| {
                        encode_exactly(&fresh, 1, CardEncoding::Pairwise, sink)
                    });
                    run.relaxed(fresh.len(), clauses);
                    run.raise_lb(run.lb().saturating_add(w_min));
                }
            }
            if run.interrupted() {
                return run.unknown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_solution, BranchBound, MaxSatStatus, Msu1};
    use coremax_cnf::dimacs;

    fn weighted(text: &str) -> WcnfFormula {
        dimacs::parse_wcnf(text).unwrap()
    }

    #[test]
    fn trivially_satisfiable_costs_zero() {
        let w = weighted("p wcnf 2 2 9\n5 1 2 0\n3 -1 0\n");
        let s = Wmsu1::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.cost, Some(0));
        assert_eq!(s.stats.cores, 0);
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn picks_the_lighter_side_of_a_conflict() {
        let w = weighted("p wcnf 1 2\n4 1 0\n9 -1 0\n");
        let s = Wmsu1::new().solve(&w);
        assert_eq!(s.cost, Some(4));
        assert!(verify_solution(&w, &s));
        // One core over both clauses, split at w_min = 4: the weight-9
        // clause is cloned at weight 5.
        assert_eq!(s.stats.cores, 1);
        assert_eq!(s.stats.weight_splits, 1);
    }

    #[test]
    fn repeated_cores_accumulate_weight() {
        // Hard x, softs ¬x at 2 and ¬x at 3: cost must reach 5.
        let w = weighted("p wcnf 1 3 9\n9 1 0\n2 -1 0\n3 -1 0\n");
        let s = Wmsu1::new().solve(&w);
        assert_eq!(s.cost, Some(5));
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn degenerates_to_msu1_on_unweighted_input() {
        let text = "p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n";
        let w = WcnfFormula::from_cnf_all_soft(&dimacs::parse_cnf(text).unwrap());
        let weighted_run = Wmsu1::new().solve(&w);
        let unweighted_run = Msu1::new().solve(&w);
        assert_eq!(weighted_run.cost, unweighted_run.cost);
        assert_eq!(weighted_run.cost, Some(2));
        assert_eq!(weighted_run.stats.weight_splits, 0);
    }

    #[test]
    fn partial_infeasible() {
        let w = weighted("p wcnf 1 3 9\n9 1 0\n9 -1 0\n5 1 0\n");
        let s = Wmsu1::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Infeasible);
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn huge_weights_without_replication() {
        // Total weight 3·10^12: far beyond any replication cap.
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        let y = w.new_var();
        w.add_hard([Lit::negative(x), Lit::negative(y)]);
        w.add_soft([Lit::positive(x)], 1_000_000_000_000);
        w.add_soft([Lit::positive(y)], 2_000_000_000_000);
        let s = Wmsu1::new().solve(&w);
        assert_eq!(s.cost, Some(1_000_000_000_000));
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn sentinel_adjacent_weights_split_without_overflow() {
        // HARD_WEIGHT − 1 is the largest legal soft weight; a core
        // pairing it with a tiny clause splits at w_min = 3 and must
        // compute the residual HARD_WEIGHT − 4 without wrapping.
        use coremax_cnf::HARD_WEIGHT;
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_soft([Lit::positive(x)], HARD_WEIGHT - 1);
        w.add_soft([Lit::negative(x)], 3);
        let s = Wmsu1::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.cost, Some(3));
        assert!(s.stats.weight_splits >= 1);
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn duplicate_soft_clauses_with_different_weights() {
        // (x) at 3 and (x) at 5 against hard ¬x: both copies count.
        let w = weighted("p wcnf 1 3 9\n9 -1 0\n3 1 0\n5 1 0\n");
        let s = Wmsu1::new().solve(&w);
        assert_eq!(s.cost, Some(8));
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn agrees_with_branch_bound_on_random_weighted() {
        let mut seed = 0x1357_9BDF_2468_ACE0u64;
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
                    .map(|_| {
                        Lit::new(
                            coremax_cnf::Var::new((next() % num_vars as u64) as u32),
                            next() & 1 == 0,
                        )
                    })
                    .collect();
                w.add_soft(lits, 1 + next() % 9);
            }
            let oracle = BranchBound::new().solve(&w);
            let s = Wmsu1::new().solve(&w);
            assert_eq!(s.cost, oracle.cost, "wmsu1 wrong on round {round}");
            assert!(verify_solution(&w, &s));
        }
    }

    #[test]
    fn budget_abort() {
        use std::time::Duration;
        let w = weighted("p wcnf 2 4\n3 1 0\n4 -1 0\n2 2 0\n5 -2 0\n");
        let mut solver = Wmsu1::new();
        solver.set_budget(Budget::new().with_timeout(Duration::from_nanos(1)));
        let s = solver.solve(&w);
        assert_eq!(s.status, MaxSatStatus::Unknown);
        assert!(s.lower_bound <= 5, "lb never exceeds the optimum");
    }

    #[test]
    fn optimal_lower_bound_equals_cost() {
        let w = weighted("p wcnf 1 2\n4 1 0\n9 -1 0\n");
        let s = Wmsu1::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.lower_bound, 4);
        assert_eq!(s.gap(), Some(0));
    }
}
