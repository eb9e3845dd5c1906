//! A maxsatz-style branch-and-bound MaxSAT solver — the paper's
//! `maxsatz` column (Li, Manyà & Planes \[17, 18\]).
//!
//! A DPLL-shaped search over the original variables. At every node the
//! current cost (weight of already-falsified soft clauses) plus a lower
//! bound on the cost still to come is compared with the best complete
//! assignment found so far. The lower bound is the hallmark maxsatz
//! technique: **counting disjoint inconsistent subformulas detected by
//! (simulated) unit propagation** \[17\], each of which forces at least
//! one more falsified clause. Hard clauses are handled as
//! infinite-weight clauses (falsifying one prunes immediately).
//!
//! Like the original, this solver shines on small/random instances and
//! collapses on large industrial ones — reproducing the paper's Table 1
//! behaviour requires that weakness, so no clause learning is added.

use std::time::Instant;

use coremax_cnf::{Assignment, Lit, Var, WcnfFormula, Weight};
use coremax_sat::Budget;

use crate::types::{MaxSatSolution, MaxSatSolver, MaxSatStats, MaxSatStatus};

/// Branch-and-bound MaxSAT solver in the maxsatz tradition. Supports
/// weighted partial instances.
///
/// # Examples
///
/// ```
/// use coremax::{BranchBound, MaxSatSolver};
/// use coremax_cnf::{Lit, WcnfFormula};
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// w.add_soft([Lit::positive(x)], 2);
/// w.add_soft([Lit::negative(x)], 3);
/// assert_eq!(BranchBound::new().solve(&w).cost, Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BranchBound {
    budget: Budget,
}

/// Internal clause form: literals plus weight (`None` = hard).
#[derive(Debug, Clone)]
struct BbClause {
    lits: Vec<Lit>,
    weight: Option<Weight>,
}

struct SearchCtx {
    clauses: Vec<BbClause>,
    num_vars: usize,
    best_cost: Weight,
    best_model: Option<Assignment>,
    nodes: u64,
    // Child budget with the deadline resolved and stop flags attached;
    // polled every 256 nodes.
    budget: Budget,
    aborted: bool,
    /// Scratch: per-clause state recomputed against the current partial
    /// assignment during bound computation.
    occurrences: Vec<Vec<usize>>, // var -> clause indices
}

impl BranchBound {
    /// Creates a solver with an unlimited budget.
    #[must_use]
    pub fn new() -> Self {
        BranchBound::default()
    }
}

impl MaxSatSolver for BranchBound {
    fn name(&self) -> &'static str {
        "maxsatz-bb"
    }

    fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn supports_weights(&self) -> bool {
        true
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        let start = Instant::now();
        let child_budget = self.budget.child(start);
        let mut stats = MaxSatStats::default();

        let mut clauses: Vec<BbClause> = Vec::with_capacity(wcnf.num_clauses());
        for h in wcnf.hard_clauses() {
            clauses.push(BbClause {
                lits: h.lits().to_vec(),
                weight: None,
            });
        }
        for s in wcnf.soft_clauses() {
            clauses.push(BbClause {
                lits: s.clause.lits().to_vec(),
                weight: Some(s.weight),
            });
        }
        let num_vars = wcnf.num_vars();
        let mut occurrences = vec![Vec::new(); num_vars];
        for (i, c) in clauses.iter().enumerate() {
            for l in &c.lits {
                occurrences[l.var().index()].push(i);
            }
        }

        let total: Weight = wcnf.total_soft_weight();
        let mut ctx = SearchCtx {
            clauses,
            num_vars,
            best_cost: total.saturating_add(1), // sentinel: nothing found yet
            best_model: None,
            nodes: 0,
            budget: child_budget,
            aborted: false,
            occurrences,
        };

        let mut assignment = Assignment::for_vars(num_vars);
        ctx.search(&mut assignment, 0);

        stats.nodes = ctx.nodes;
        stats.wall_time = start.elapsed();
        if ctx.aborted {
            // Branch-and-bound prunes against the incumbent, so an
            // interrupted search certifies no global lower bound beyond
            // the trivial 0; the incumbent (when one exists) is a
            // complete assignment whose cost is exact.
            let has_model = ctx.best_model.is_some();
            return MaxSatSolution {
                status: MaxSatStatus::Unknown,
                cost: has_model.then_some(ctx.best_cost),
                model: ctx.best_model,
                lower_bound: 0,
                stats,
            };
        }
        match ctx.best_model {
            Some(model) => MaxSatSolution {
                status: MaxSatStatus::Optimal,
                cost: Some(ctx.best_cost),
                model: Some(model),
                lower_bound: ctx.best_cost,
                stats,
            },
            None => MaxSatSolution::infeasible(stats),
        }
    }
}

impl SearchCtx {
    /// Cost of soft clauses already falsified; `None` if a hard clause
    /// is falsified.
    fn current_cost(&self, assignment: &Assignment) -> Option<Weight> {
        let mut cost: Weight = 0;
        for c in &self.clauses {
            let falsified = c
                .lits
                .iter()
                .all(|&l| assignment.lit_value(l) == Some(false));
            if falsified {
                match c.weight {
                    None => return None,
                    // Saturating: a wrapped total would understate the
                    // cost and let the search prune the true optimum.
                    Some(w) => cost = cost.saturating_add(w),
                }
            }
        }
        Some(cost)
    }

    /// Lower bound on *additional* cost: disjoint inconsistent
    /// subformulas detected by unit propagation over the reduct of the
    /// unresolved clauses (Li–Manyà–Planes 2006). Each inconsistency
    /// consumes its clauses, so different inconsistencies are disjoint
    /// and their minimum weights add up.
    fn lower_bound(&self, assignment: &Assignment) -> Weight {
        // Build the reduct: clauses not yet satisfied, restricted to
        // unassigned literals; skip already-falsified (counted in cost).
        let mut reduct: Vec<(Vec<Lit>, Option<Weight>)> = Vec::new();
        for c in &self.clauses {
            let mut lits = Vec::new();
            let mut satisfied = false;
            for &l in &c.lits {
                match assignment.lit_value(l) {
                    Some(true) => {
                        satisfied = true;
                        break;
                    }
                    Some(false) => {}
                    None => lits.push(l),
                }
            }
            if !satisfied && !lits.is_empty() {
                reduct.push((lits, c.weight));
            }
        }

        let mut lb: Weight = 0;
        let mut alive: Vec<bool> = vec![true; reduct.len()];
        // Repeatedly look for an inconsistency via unit propagation over
        // the remaining reduct; on success remove the involved clauses.
        while let Some((involved, min_weight)) = up_inconsistency(&reduct, &alive, self.num_vars) {
            lb = lb.saturating_add(min_weight);
            for i in involved {
                alive[i] = false;
            }
        }
        lb
    }

    fn search(&mut self, assignment: &mut Assignment, cost_unused: Weight) {
        let _ = cost_unused;
        if self.aborted {
            return;
        }
        self.nodes += 1;
        if self.nodes.is_multiple_of(256) && self.budget.interrupted() {
            self.aborted = true;
            return;
        }

        let cost = match self.current_cost(assignment) {
            Some(c) => c,
            None => return, // hard clause falsified
        };
        if cost >= self.best_cost {
            return;
        }
        let lb = cost + self.lower_bound(assignment);
        if lb >= self.best_cost {
            return;
        }

        // Pick the unassigned variable occurring most often in short
        // unresolved clauses (maxsatz-style heuristic).
        let var = self.pick_branch_var(assignment);
        let var = match var {
            Some(v) => v,
            None => {
                // Complete assignment.
                if cost < self.best_cost {
                    self.best_cost = cost;
                    self.best_model = Some(assignment.clone());
                    if coremax_obs::tracing_enabled() {
                        coremax_obs::emit(coremax_obs::Event::Incumbent { cost });
                    }
                }
                return;
            }
        };

        for value in [true, false] {
            assignment.assign(var, value);
            self.search(assignment, 0);
            if self.aborted {
                assignment.unassign(var);
                return;
            }
            assignment.unassign(var);
        }
    }

    fn pick_branch_var(&self, assignment: &Assignment) -> Option<Var> {
        let mut best: Option<(Var, u64)> = None;
        for v in 0..self.num_vars {
            let var = Var::new(v as u32);
            if assignment.value(var).is_some() {
                continue;
            }
            let mut score = 1u64; // unreferenced variables still branchable
            for &ci in &self.occurrences[v] {
                let c = &self.clauses[ci];
                let mut satisfied = false;
                let mut unassigned = 0u32;
                for &l in &c.lits {
                    match assignment.lit_value(l) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        None => unassigned += 1,
                        Some(false) => {}
                    }
                }
                if !satisfied && unassigned > 0 {
                    // Shorter effective clauses weigh more.
                    score += 1 << (3u32.saturating_sub(unassigned.min(3)));
                }
            }
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((var, score));
            }
        }
        best.map(|(v, _)| v)
    }
}

/// Searches for one inconsistent subformula using unit propagation over
/// the alive part of the reduct. Returns the indices of the involved
/// clauses and the minimum soft weight among them (hard clauses do not
/// cap the weight). Returns `None` when no inconsistency is found.
fn up_inconsistency(
    reduct: &[(Vec<Lit>, Option<Weight>)],
    alive: &[bool],
    num_vars: usize,
) -> Option<(Vec<usize>, Weight)> {
    // Simulated assignment for the propagation probe.
    let mut value: Vec<Option<bool>> = vec![None; num_vars];
    // For each propagated var, the reduct clause that forced it.
    let mut reason: Vec<usize> = vec![usize::MAX; num_vars];
    let mut trail: Vec<Var> = Vec::new();

    loop {
        let mut progressed = false;
        for (i, (lits, _)) in reduct.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            let mut satisfied = false;
            let mut unassigned: Option<Lit> = None;
            let mut count = 0;
            for &l in lits {
                match value[l.var().index()] {
                    Some(v) if v == l.is_positive() => {
                        satisfied = true;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        count += 1;
                        unassigned = Some(l);
                    }
                }
            }
            if satisfied {
                continue;
            }
            match count {
                0 => {
                    // Conflict: collect the involved clauses by walking
                    // reasons back from this clause's literals.
                    let mut involved = vec![i];
                    let mut min_weight = reduct[i].1.unwrap_or(Weight::MAX);
                    let mut queue: Vec<Var> = lits.iter().map(|l| l.var()).collect();
                    let mut seen = vec![false; num_vars];
                    while let Some(v) = queue.pop() {
                        if seen[v.index()] || value[v.index()].is_none() {
                            continue;
                        }
                        seen[v.index()] = true;
                        let r = reason[v.index()];
                        if r == usize::MAX {
                            continue;
                        }
                        involved.push(r);
                        min_weight = min_weight.min(reduct[r].1.unwrap_or(Weight::MAX));
                        for &l in &reduct[r].0 {
                            queue.push(l.var());
                        }
                    }
                    involved.sort_unstable();
                    involved.dedup();
                    // A purely-hard inconsistency cannot happen on the
                    // reduct of a feasible branch; weight falls back to 1
                    // defensively.
                    let w = if min_weight == Weight::MAX {
                        1
                    } else {
                        min_weight
                    };
                    let _ = trail;
                    return Some((involved, w));
                }
                1 => {
                    let l = unassigned.expect("one unassigned literal");
                    value[l.var().index()] = Some(l.is_positive());
                    reason[l.var().index()] = i;
                    trail.push(l.var());
                    progressed = true;
                }
                _ => {}
            }
        }
        if !progressed {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpll::dpll_max_satisfiable;
    use coremax_cnf::dimacs;

    fn unweighted(text: &str) -> WcnfFormula {
        WcnfFormula::from_cnf_all_soft(&dimacs::parse_cnf(text).unwrap())
    }

    #[test]
    fn paper_examples() {
        let e1 = unweighted("p cnf 2 3\n1 0\n2 -1 0\n-2 0\n");
        assert_eq!(BranchBound::new().solve(&e1).cost, Some(1));
        let e2 =
            unweighted("p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n");
        let s = BranchBound::new().solve(&e2);
        assert_eq!(s.cost, Some(2));
        assert_eq!(s.num_satisfied(&e2), Some(6));
    }

    #[test]
    fn weighted_instances() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_soft([Lit::positive(x)], 2);
        w.add_soft([Lit::negative(x)], 5);
        let s = BranchBound::new().solve(&w);
        assert_eq!(s.cost, Some(2));
        assert_eq!(s.model.unwrap().value(x), Some(false));
    }

    #[test]
    fn hard_clauses_respected() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_soft([Lit::negative(x)], 10);
        let s = BranchBound::new().solve(&w);
        assert_eq!(s.cost, Some(10));
        assert_eq!(s.model.unwrap().value(x), Some(true));
    }

    #[test]
    fn infeasible_hard() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_hard([Lit::negative(x)]);
        assert_eq!(
            BranchBound::new().solve(&w).status,
            MaxSatStatus::Infeasible
        );
    }

    #[test]
    fn agrees_with_oracle() {
        let mut seed = 0x8BB84B93962EACC9u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..25 {
            let num_vars = 4 + (next() % 4) as usize;
            let num_clauses = 5 + (next() % 12) as usize;
            let mut f = coremax_cnf::CnfFormula::with_vars(num_vars);
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = Var::new((next() % num_vars as u64) as u32);
                        Lit::new(v, next() & 1 == 0)
                    })
                    .collect();
                f.add_clause(lits);
            }
            let oracle = f.num_clauses() - dpll_max_satisfiable(&f);
            let w = WcnfFormula::from_cnf_all_soft(&f);
            let s = BranchBound::new().solve(&w);
            assert_eq!(s.cost, Some(oracle as u64), "bb wrong on {f}");
            let m = s.model.unwrap();
            assert_eq!(w.cost(&m), s.cost);
        }
    }

    #[test]
    fn lower_bound_counts_disjoint_inconsistencies() {
        // (x)(¬x)(y)(¬y): two disjoint UP inconsistencies at the root.
        let w = unweighted("p cnf 2 4\n1 0\n-1 0\n2 0\n-2 0\n");
        let s = BranchBound::new().solve(&w);
        assert_eq!(s.cost, Some(2));
        // With a working LB the root alone should prune most branching:
        // 2 vars → at most a handful of nodes.
        assert!(s.stats.nodes <= 16, "nodes = {}", s.stats.nodes);
    }

    #[test]
    fn budget_abort() {
        use std::time::Duration;
        let mut f = coremax_cnf::CnfFormula::new();
        // 18 vars of pairwise conflicts: big search tree.
        let vars: Vec<Var> = (0..18).map(|_| f.new_var()).collect();
        for i in 0..vars.len() {
            for j in i + 1..vars.len() {
                f.add_clause([Lit::negative(vars[i]), Lit::negative(vars[j])]);
            }
            f.add_clause([Lit::positive(vars[i])]);
        }
        let w = WcnfFormula::from_cnf_all_soft(&f);
        let mut bb = BranchBound::new();
        bb.set_budget(Budget::new().with_timeout(Duration::from_millis(1)));
        let s = bb.solve(&w);
        assert_eq!(s.status, MaxSatStatus::Unknown);
    }
}
