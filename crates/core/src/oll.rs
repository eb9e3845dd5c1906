//! OLL/RC2-class core-guided MaxSAT with incremental totalizers.
//!
//! The msu* lineage of the DATE'08 paper relaxes every core with fresh
//! blocking variables and re-encodes its cardinality bound from
//! scratch. The OLL family (Andres–Kaufmann–Matheis–Schaub for ASP,
//! Morgado–Dodaro–Marques-Silva for MaxSAT, and the RC2 solver of the
//! MaxSAT Evaluations) instead keeps a *soft cardinality constraint*
//! per core: the core's relaxation literals feed a truncated totalizer
//! whose output `o(1)` ("two or more violated") becomes a new soft
//! literal. When a later core contains that output, the totalizer's
//! bound is raised **in place** — [`IncrementalTotalizer::increase_bound`]
//! emits only the new layers into the persistent engine — and the next
//! output becomes the next soft. Weights are handled RC2-style: a core
//! charges its minimum weight `w_min` to the certified lower bound,
//! members heavier than `w_min` keep their assumption at the residual
//! weight (a fresh relaxation literal joins the totalizer in their
//! stead), and members at exactly `w_min` are deactivated with their
//! selector counted directly. Either way, a totalizer-output member
//! passes `w_min` on to its totalizer's next output, as RC2 does.
//!
//! On top of the core loop sit the two RC2 refinements named by the
//! ROADMAP: *core exhaustion* (a totalizer whose bound reaches its
//! input count can never overflow again and stops producing softs) and
//! *weight-aware hardening* (once an incumbent exists, any working
//! soft whose residual weight exceeds the certified gap `ub − lb` is
//! made permanently hard — falsifying it would already cost more than
//! the incumbent). Incumbents arise from an internal Boolean-
//! lexicographic schedule: softs are activated stratum by stratum
//! (distinct weights, heaviest first), and every SAT answer before the
//! last stratum yields a model whose exact cost is a certified upper
//! bound — so the solver is natively anytime on weighted input.
//!
//! Every intermediate state is a certified interval: `lb` is the sum
//! of per-core charges (sound by the OLL transformation), and the
//! incumbent cost is exact by construction. Budget exhaustion at any
//! point — including between a core and its totalizer extension —
//! returns `[lb, incumbent]`. A final model whose cost is not the
//! charged `lb` is reported as that interval too, never as optimal.

use coremax_cards::IncrementalTotalizer;
use coremax_cnf::{Lit, WcnfFormula, Weight};
use coremax_sat::{Budget, SoftId, SolveOutcome};

use crate::run::CoreRun;
use crate::types::{MaxSatSolution, MaxSatSolver};

/// OLL/RC2-class solver: soft cardinality constraints with
/// incrementally extended totalizers, core exhaustion and weight-aware
/// hardening. Handles arbitrary weighted partial MaxSAT natively.
///
/// # Examples
///
/// ```
/// use coremax::{MaxSatSolver, Oll};
/// use coremax_cnf::{Lit, WcnfFormula};
///
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// w.add_soft([Lit::positive(x)], 1_000_000);
/// w.add_soft([Lit::negative(x)], 7);
/// let s = Oll::new().solve(&w);
/// assert_eq!(s.cost, Some(7));
/// assert!(coremax::verify_solution(&w, &s));
/// ```
#[derive(Debug, Clone)]
pub struct Oll {
    budget: Budget,
}

impl Default for Oll {
    fn default() -> Self {
        Oll::new()
    }
}

impl Oll {
    /// OLL on a persistent incremental engine.
    #[must_use]
    pub fn new() -> Self {
        Oll {
            budget: Budget::new(),
        }
    }
}

/// Where a working soft came from.
#[derive(Debug, Clone, Copy)]
enum Origin {
    /// One of the instance's original soft clauses.
    Original,
    /// Output `level` of totalizer `tot`: the unit `¬o(level)` asserts
    /// "at most `level` of that totalizer's inputs are true".
    TotOutput {
        /// Index into the solver's totalizer arena.
        tot: usize,
        /// The output index this soft bounds.
        level: usize,
    },
}

/// One working soft: its current (residual) weight and provenance.
#[derive(Debug, Clone, Copy)]
struct Working {
    weight: Weight,
    origin: Origin,
}

/// What stands on one materialised totalizer output.
#[derive(Debug, Clone, Copy)]
enum OnOutput {
    /// No soft yet.
    Nothing,
    /// The latest soft on the output; one no longer working was relaxed.
    Soft(SoftId),
    /// The output was hardened: false for good.
    Hardened,
}

impl MaxSatSolver for Oll {
    fn name(&self) -> &'static str {
        "oll"
    }

    fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn supports_weights(&self) -> bool {
        true
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        let mut run = CoreRun::new(wcnf, &self.budget);

        // Every original soft is registered up front but starts
        // deactivated; the stratified schedule below activates them
        // heaviest-distinct-weight first. `working` is indexed by
        // `SoftId`, so each soft is a slot, and `None` is a soft that
        // is not working: pending, relaxed or hardened.
        let mut working: Vec<Option<Working>> = vec![None; wcnf.num_soft()];
        let mut pending: Vec<(SoftId, Weight)> = Vec::with_capacity(wcnf.num_soft());
        for (i, s) in run.add_softs().zip(wcnf.soft_clauses()) {
            let id = SoftId(i);
            run.engine.deactivate(id);
            pending.push((id, s.weight));
        }

        // Opens the next stratum: activates every pending soft at the
        // heaviest remaining weight.
        let open_stratum = |pending: &mut Vec<(SoftId, Weight)>,
                            working: &mut [Option<Working>],
                            run: &mut CoreRun| {
            let Some(threshold) = pending.iter().map(|&(_, w)| w).max() else {
                return;
            };
            pending.retain(|&(id, w)| {
                if w >= threshold {
                    run.engine.activate(id);
                    working[id.0] = Some(Working {
                        weight: w,
                        origin: Origin::Original,
                    });
                    false
                } else {
                    true
                }
            });
            let index = run.stats.strata;
            run.stats.strata += 1;
            if coremax_obs::tracing_enabled() {
                coremax_obs::emit(coremax_obs::Event::StratumOpened {
                    index,
                    weight: threshold,
                    softs: working.iter().flatten().count() as u64,
                });
            }
        };
        open_stratum(&mut pending, &mut working, &mut run);

        let mut tots: Vec<IncrementalTotalizer> = Vec::new();
        // What stands on each totalizer output, by totalizer and level.
        let mut on_outputs: Vec<Vec<OnOutput>> = Vec::new();

        loop {
            match run.solve(&[]) {
                SolveOutcome::Unknown => return run.unknown(),
                SolveOutcome::Sat => {
                    run.offer(run.model());
                    let ub = run.ub().expect("incumbent after SAT");
                    let lb = run.lb();
                    if pending.is_empty() {
                        // SAT under every working assumption: the OLL
                        // invariant makes this model's cost equal the
                        // accumulated per-core charges, which proves it
                        // optimal. Should the two differ, only the
                        // interval is certified.
                        return if ub == lb {
                            run.optimal()
                        } else {
                            run.unknown()
                        };
                    }
                    // Weight-aware hardening: with a certified interval
                    // [lb, ub], falsifying any working soft of residual
                    // weight > ub − lb costs more than the incumbent —
                    // make it permanently hard. In `SoftId` order: the
                    // order the units reach the engine steers its search.
                    let gap = ub.saturating_sub(lb);
                    for (i, slot) in working.iter_mut().enumerate() {
                        let Some(meta) = slot.take_if(|meta| meta.weight > gap) else {
                            continue;
                        };
                        run.engine.harden(SoftId(i));
                        if let Origin::TotOutput { tot, level } = meta.origin {
                            on_outputs[tot][level] = OnOutput::Hardened;
                        }
                        run.stats.hardened += 1;
                        if coremax_obs::tracing_enabled() {
                            coremax_obs::emit(coremax_obs::Event::SoftHardened {
                                weight: meta.weight,
                                gap,
                            });
                        }
                    }
                    pending.retain(|&(id, w)| {
                        if w > gap {
                            run.engine.harden(id);
                            run.stats.hardened += 1;
                            if coremax_obs::tracing_enabled() {
                                coremax_obs::emit(coremax_obs::Event::SoftHardened {
                                    weight: w,
                                    gap,
                                });
                            }
                            false
                        } else {
                            true
                        }
                    });
                    open_stratum(&mut pending, &mut working, &mut run);
                }
                SolveOutcome::Unsat => {
                    let members: Vec<SoftId> = run
                        .engine
                        .failed_softs()
                        .into_iter()
                        .filter(|id| working[id.0].is_some())
                        .collect();
                    // Refuted independently of every assumption, or by
                    // no working soft. Before any hardening this can
                    // only cite hard clauses (totalizer definitions and
                    // relaxation links are satisfiable with free
                    // selectors): the instance is infeasible. After
                    // hardening it is unreachable (the incumbent
                    // satisfies every hardened unit); keep the certified
                    // interval.
                    if run.engine.formula_refuted() || members.is_empty() {
                        return if run.stats.hardened == 0 && run.ub().is_none() {
                            run.infeasible()
                        } else {
                            run.unknown()
                        };
                    }
                    let minw = members
                        .iter()
                        .filter_map(|id| working[id.0])
                        .map(|meta| meta.weight)
                        .min()
                        .expect("non-empty core");
                    run.core(members.len(), minw);

                    // RC2-style core processing. Members heavier than
                    // w_min keep their assumption at the residual weight
                    // and contribute a fresh relaxation literal (true
                    // whenever the member's selector is); members at
                    // exactly w_min are deactivated and contribute their
                    // selector directly. Every totalizer-output member
                    // owes w_min to its totalizer's next output.
                    let mut rels: Vec<Lit> = Vec::with_capacity(members.len());
                    let mut extensions: Vec<(usize, usize)> = Vec::new();
                    for &id in &members {
                        let meta = working[id.0].as_mut().expect("member is working");
                        if let Origin::TotOutput { tot, level } = meta.origin {
                            extensions.push((tot, level));
                        }
                        if meta.weight > minw {
                            meta.weight = meta.weight.saturating_sub(minw);
                            let relax = Lit::positive(run.engine.new_var());
                            let selector = run.engine.selector(id);
                            run.engine.add_clause([!selector, relax]);
                            rels.push(relax);
                            run.stats.blocking_vars += 1;
                            run.stats.weight_splits += 1;
                        } else {
                            run.engine.deactivate(id);
                            working[id.0] = None;
                            rels.push(run.engine.selector(id));
                        }
                    }

                    // The next output of each member's totalizer gains
                    // w_min. A working soft on it just grows. A hardened
                    // output is false for good, and an exhausted bound
                    // (the input count) can never overflow: nothing is
                    // owed. Otherwise the output gets a fresh soft, and
                    // the totalizer's bound is raised in place first if
                    // the output does not exist yet: only the new layers
                    // are emitted.
                    for (tot, level) in extensions {
                        let next = level + 1;
                        if next >= tots[tot].num_inputs() {
                            continue;
                        }
                        match on_outputs[tot][next] {
                            OnOutput::Hardened => continue,
                            OnOutput::Soft(id) => {
                                if let Some(meta) = working[id.0].as_mut() {
                                    meta.weight = meta.weight.saturating_add(minw);
                                    continue;
                                }
                            }
                            OnOutput::Nothing => {}
                        }
                        if tots[tot].bound() < next {
                            let ((), clauses) =
                                run.encode(None, |sink| tots[tot].increase_bound(next, sink));
                            run.stats.totalizer_extensions += 1;
                            if coremax_obs::tracing_enabled() {
                                coremax_obs::emit(coremax_obs::Event::TotalizerExtended {
                                    bound: next as u64,
                                    clauses,
                                });
                            }
                        }
                        let out = tots[tot].output(next).expect("bound reaches next");
                        let id = run.engine.add_soft([!out]);
                        debug_assert_eq!(id.0, working.len(), "one slot per soft");
                        on_outputs[tot][next] = OnOutput::Soft(id);
                        working.push(Some(Working {
                            weight: minw,
                            origin: Origin::TotOutput { tot, level: next },
                        }));
                    }

                    // New soft cardinality constraint over this core's
                    // relaxation literals (a singleton core needs none:
                    // its violation is simply allowed).
                    if rels.len() >= 2 {
                        let vars_before = run.engine.num_vars();
                        let (tot, clauses) =
                            run.encode(None, |sink| IncrementalTotalizer::new(&rels, 1, sink));
                        let aux_vars = run.engine.num_vars() - vars_before;
                        let out = tot.output(1).expect("two or more inputs");
                        let id = run.engine.add_soft([!out]);
                        debug_assert_eq!(id.0, working.len(), "one slot per soft");
                        let mut on = vec![OnOutput::Nothing; tot.num_inputs()];
                        on[1] = OnOutput::Soft(id);
                        on_outputs.push(on);
                        tots.push(tot);
                        working.push(Some(Working {
                            weight: minw,
                            origin: Origin::TotOutput {
                                tot: tots.len() - 1,
                                level: 1,
                            },
                        }));
                        run.relaxed(aux_vars, clauses);
                    }
                    // The core's charge, reported once it is relaxed.
                    run.raise_lb(run.lb().saturating_add(minw));
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
    use crate::{verify_solution, BranchBound, MaxSatStatus, Msu1, Wmsu1};
    use coremax_cnf::dimacs;

    fn weighted(text: &str) -> WcnfFormula {
        dimacs::parse_wcnf(text).unwrap()
    }

    #[test]
    fn trivially_satisfiable_costs_zero() {
        let w = weighted("p wcnf 2 2 9\n5 1 2 0\n3 -1 0\n");
        let s = Oll::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.cost, Some(0));
        assert_eq!(s.stats.cores, 0);
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn picks_the_lighter_side_of_a_conflict() {
        let w = weighted("p wcnf 1 2\n4 1 0\n9 -1 0\n");
        let s = Oll::new().solve(&w);
        assert_eq!(s.cost, Some(4));
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn totalizer_extension_fires_on_deep_cores() {
        // At most two of four vars true (every triple of negations is
        // hard), all four positives soft: every core has at least three
        // members, and a single relaxation per totalizer is never
        // enough — the bound must be raised in place.
        let w = weighted(
            "p wcnf 4 8 9\n9 -1 -2 -3 0\n9 -1 -2 -4 0\n9 -1 -3 -4 0\n9 -2 -3 -4 0\n\
             1 1 0\n1 2 0\n1 3 0\n1 4 0\n",
        );
        let s = Oll::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.cost, Some(2));
        assert!(verify_solution(&w, &s));
        assert!(
            s.stats.totalizer_extensions >= 1,
            "deep cores must reuse the totalizer incrementally: {:?}",
            s.stats
        );
    }

    #[test]
    fn core_exhaustion_stops_producing_softs() {
        // At most one of three vars true, all three positives soft:
        // optimum 2. Depending on which cores the engine reports, a
        // two-input totalizer can be driven to its input count — the
        // exhaustion path must not produce an out-of-range output.
        let w = weighted("p wcnf 3 6 9\n9 -1 -2 0\n9 -1 -3 0\n9 -2 -3 0\n1 1 0\n1 2 0\n1 3 0\n");
        let s = Oll::new().solve(&w);
        assert_eq!(s.cost, Some(2));
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn weight_splitting_keeps_residuals() {
        // Stratum 1 (weight 2) yields an incumbent of cost 2, so the
        // gap is exactly 2 and the heavy soft survives hardening; the
        // weight-1 stratum then puts it in a mixed core, which must
        // split its weight rather than charge the full 2.
        let w = weighted("p wcnf 2 4 9\n9 -2 0\n2 1 0\n1 -1 0\n1 2 0\n");
        let s = Oll::new().solve(&w);
        assert_eq!(s.cost, Some(2));
        assert!(verify_solution(&w, &s));
        assert!(s.stats.weight_splits >= 1, "{:?}", s.stats);
    }

    #[test]
    fn degenerates_to_msu_results_on_unweighted_input() {
        let text = "p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n";
        let w = WcnfFormula::from_cnf_all_soft(&dimacs::parse_cnf(text).unwrap());
        let oll = Oll::new().solve(&w);
        let msu1 = Msu1::new().solve(&w);
        assert_eq!(oll.cost, msu1.cost);
        assert_eq!(oll.cost, Some(2));
        assert!(verify_solution(&w, &oll));
    }

    #[test]
    fn partial_infeasible() {
        let w = weighted("p wcnf 1 3 9\n9 1 0\n9 -1 0\n5 1 0\n");
        let s = Oll::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Infeasible);
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn huge_weights_without_replication() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        let y = w.new_var();
        w.add_hard([Lit::negative(x), Lit::negative(y)]);
        w.add_soft([Lit::positive(x)], 1_000_000_000_000);
        w.add_soft([Lit::positive(y)], 2_000_000_000_000);
        let s = Oll::new().solve(&w);
        assert_eq!(s.cost, Some(1_000_000_000_000));
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn duplicate_soft_clauses_with_different_weights() {
        let w = weighted("p wcnf 1 3 9\n9 -1 0\n3 1 0\n5 1 0\n");
        let s = Oll::new().solve(&w);
        assert_eq!(s.cost, Some(8));
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn near_sentinel_weights_stay_saturating() {
        use coremax_cnf::HARD_WEIGHT;
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_soft([Lit::negative(x)], HARD_WEIGHT - 1);
        w.add_soft([Lit::positive(x)], 3);
        let s = Oll::new().solve(&w);
        assert_eq!(s.cost, Some(HARD_WEIGHT - 1));
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn agrees_with_branch_bound_on_random_weighted() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..25 {
            let num_vars = 3 + (next() % 3) as usize;
            let mut w = WcnfFormula::with_vars(num_vars);
            for _ in 0..(next() % 3) {
                let len = 1 + (next() % 3) as usize;
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        Lit::new(
                            coremax_cnf::Var::new((next() % num_vars as u64) as u32),
                            next() & 1 == 0,
                        )
                    })
                    .collect();
                w.add_hard(lits);
            }
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
            let s = Oll::new().solve(&w);
            assert_eq!(s.status, oracle.status, "oll status wrong on round {round}");
            assert_eq!(s.cost, oracle.cost, "oll wrong on round {round}");
            assert!(verify_solution(&w, &s));
        }
    }

    #[test]
    fn agrees_with_wmsu1_on_mixed_strata() {
        // Three weight levels force the stratified schedule through
        // multiple SAT answers before the optimum.
        let w =
            weighted("p wcnf 3 7 99\n99 -1 -2 0\n99 -2 -3 0\n8 1 0\n8 2 0\n2 3 0\n1 1 0\n1 3 0\n");
        let a = Oll::new().solve(&w);
        let b = Wmsu1::new().solve(&w);
        assert_eq!(a.cost, b.cost);
        assert!(verify_solution(&w, &a));
    }

    #[test]
    fn budget_abort_returns_certified_interval() {
        use std::time::Duration;
        let w = weighted("p wcnf 2 4\n3 1 0\n4 -1 0\n2 2 0\n5 -2 0\n");
        let mut solver = Oll::new();
        solver.set_budget(Budget::new().with_timeout(Duration::from_nanos(1)));
        let s = solver.solve(&w);
        assert_eq!(s.status, MaxSatStatus::Unknown);
        assert!(s.lower_bound <= 5, "lb never exceeds the optimum");
        if let (Some(cost), Some(model)) = (s.cost, s.model.as_ref()) {
            assert_eq!(w.cost(model), Some(cost), "incumbent certifies its cost");
            assert!(s.lower_bound <= cost);
        }
    }

    #[test]
    fn optimal_lower_bound_equals_cost() {
        let w = weighted("p wcnf 1 2\n4 1 0\n9 -1 0\n");
        let s = Oll::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.lower_bound, 4);
        assert_eq!(s.gap(), Some(0));
    }

    #[test]
    fn hard_units_against_every_soft_cost_their_sum() {
        let w = weighted("p wcnf 3 6 9\n9 -1 0\n9 -2 0\n9 -3 0\n2 1 0\n3 2 0\n4 3 0\n");
        let s = Oll::new().solve(&w);
        assert_eq!(s.cost, Some(9));
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn hardening_fires_on_wide_weight_spread() {
        // Heavy stratum solved first yields an incumbent; the light
        // soft (weight 1) is far under the gap, but the heavy pending
        // one (weight 50 > gap) must be hardened.
        let w = weighted("p wcnf 3 6 999\n999 -1 -2 0\n100 1 0\n100 2 0\n50 3 0\n1 -3 0\n1 1 0\n");
        let s = Oll::new().solve(&w);
        let oracle = BranchBound::new().solve(&w);
        assert_eq!(s.cost, oracle.cost);
        assert!(verify_solution(&w, &s));
    }

    #[test]
    fn weighted_suite_instances_reach_the_optimum() {
        // Each of these puts a totalizer output heavier than the core's
        // w_min into a core. Unless that output passes w_min on to its
        // totalizer's next output, the working formula under-counts
        // cost, and the first three come back "optimal" above the
        // optimum.
        use coremax_instances::{weighted_suite, SuiteConfig};
        let cases = [
            (2, 153, "w-uniform-v18"),
            (2, 232, "w-uniform-v22"),
            (3, 67, "w-uniform-v26"),
            (2, 112, "w-uniform-v10"),
            (2, 217, "w-uniform-v18"),
            (2, 297, "w-skewed-v22"),
        ];
        for (scale, seed, name) in cases {
            let inst = weighted_suite(&SuiteConfig { scale, seed })
                .into_iter()
                .find(|i| i.name == name)
                .expect("suite instance");
            let s = Oll::new().solve(&inst.wcnf);
            let reference = Wmsu1::new().solve(&inst.wcnf);
            assert_eq!(s.status, MaxSatStatus::Optimal, "{name}, seed {seed}");
            assert!(verify_solution(&inst.wcnf, &s), "{name}, seed {seed}");
            assert_eq!(s.cost, reference.cost, "{name}, seed {seed}");
        }
    }

    #[test]
    fn empty_formula_is_optimal_at_zero() {
        let w = WcnfFormula::new();
        let s = Oll::new().solve(&w);
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!(s.cost, Some(0));
    }
}
