//! Property tests for the preprocessing pipeline: `simplify → solve →
//! reconstruct` answers exactly like solving the original directly —
//! same satisfiability, same MaxSAT optimum — and every reconstructed
//! model checks out against the *untouched* input, including under
//! stressed SAT-solver configurations (forced GC, Luby restarts at
//! base 1).

use coremax_cnf::{dimacs, Assignment, Lit, WcnfFormula, Weight};
use coremax_sat::{SolveOutcome, Solver, SolverConfig};
use coremax_simp::{SimpConfig, Simplifier};
use proptest::prelude::*;

/// Exhaustive MaxSAT oracle (≤ 16 variables): minimum cost and a model
/// attaining it, or `None` when the hard clauses are unsatisfiable.
fn optimum(w: &WcnfFormula) -> Option<(Weight, Assignment)> {
    let n = w.num_vars();
    assert!(n <= 16, "oracle is exhaustive");
    let mut best: Option<(Weight, Assignment)> = None;
    for mask in 0u32..1 << n {
        let bools: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
        let a = Assignment::from_bools(&bools);
        if let Some(c) = w.cost(&a) {
            if best.as_ref().is_none_or(|(b, _)| c < *b) {
                best = Some((c, a));
            }
        }
    }
    best
}

/// A configuration stressing the SAT engine: tiny learned cap forces
/// reductions, `gc_frac: 0.0` forces arena collections, and a Luby base
/// of 1 restarts as often as the schedule allows.
fn stress_config() -> SolverConfig {
    SolverConfig {
        learntsize_factor: 0.01,
        learntsize_inc: 1.01,
        min_learnts: 3.0,
        gc_frac: 0.0,
        restart_base: 1,
        ..SolverConfig::default()
    }
}

fn solve_hard(wcnf: &WcnfFormula, config: SolverConfig) -> (SolveOutcome, Option<Assignment>) {
    let mut s = Solver::with_config(config);
    s.ensure_vars(wcnf.num_vars());
    for c in wcnf.hard_clauses() {
        s.add_clause(c.lits().iter().copied());
    }
    let outcome = s.solve();
    (outcome, s.model().cloned())
}

/// Random weighted partial MaxSAT instance over `max_vars` variables.
fn arb_wcnf(max_vars: i32) -> impl Strategy<Value = WcnfFormula> {
    let lit = (1..=max_vars).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    let clause = prop::collection::vec(lit, 1..=3);
    let weighted = (clause.clone(), 1u64..=4);
    (
        prop::collection::vec(clause, 0..10),
        prop::collection::vec(weighted, 0..8),
    )
        .prop_map(move |(hard, soft)| {
            let mut w = WcnfFormula::with_vars(max_vars as usize);
            for c in hard {
                w.add_hard(c.into_iter().map(|d| Lit::from_dimacs(d).unwrap()));
            }
            for (c, weight) in soft {
                w.add_soft(c.into_iter().map(|d| Lit::from_dimacs(d).unwrap()), weight);
            }
            w
        })
}

/// Random hard-only instance (every variable eligible for elimination).
fn arb_hard_only(max_vars: i32, max_clauses: usize) -> impl Strategy<Value = WcnfFormula> {
    let lit = (1..=max_vars).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    let clause = prop::collection::vec(lit, 1..=4);
    prop::collection::vec(clause, 1..=max_clauses).prop_map(move |hard| {
        let mut w = WcnfFormula::with_vars(max_vars as usize);
        for c in hard {
            w.add_hard(c.into_iter().map(|d| Lit::from_dimacs(d).unwrap()));
        }
        w
    })
}

fn configs() -> Vec<SimpConfig> {
    vec![
        SimpConfig::default(),
        SimpConfig {
            probing: false,
            ..SimpConfig::default()
        },
        SimpConfig {
            grow_limit: 4,
            ..SimpConfig::default()
        },
        SimpConfig {
            subsumption: false,
            bve: true,
            ..SimpConfig::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn maxsat_optimum_preserved(w in arb_wcnf(7)) {
        let reference = optimum(&w);
        for config in configs() {
            let mut simp = Simplifier::with_config(config.clone());
            let result = simp.simplify(&w);
            if result.infeasible {
                prop_assert!(reference.is_none(), "simplifier refuted a feasible instance");
                continue;
            }
            let simplified = optimum(&result.formula);
            match (&reference, &simplified) {
                (None, None) => {}
                (Some((ref_cost, _)), Some((simp_cost, simp_model))) => {
                    prop_assert_eq!(
                        *ref_cost,
                        simp_cost.saturating_add(result.cost_offset),
                        "optimum changed under {:?}", config
                    );
                    // The reconstructed optimal model attains the
                    // optimum on the ORIGINAL formula.
                    let full = result.reconstruct_model(simp_model);
                    prop_assert_eq!(
                        w.cost(&full),
                        Some(*ref_cost),
                        "reconstructed model does not attain the optimum"
                    );
                }
                _ => prop_assert!(false, "feasibility disagreement under {:?}", config),
            }
        }
    }

    #[test]
    fn sat_equivalence_with_stressed_solvers(w in arb_hard_only(8, 30)) {
        let (direct, _) = solve_hard(&w, SolverConfig::default());
        let mut simp = Simplifier::new();
        let result = simp.simplify(&w);
        if result.infeasible {
            prop_assert_eq!(direct, SolveOutcome::Unsat);
        } else {
            for config in [SolverConfig::default(), stress_config()] {
                let (outcome, model) = solve_hard(&result.formula, config);
                prop_assert_eq!(outcome, direct, "SAT verdict changed by preprocessing");
                if let Some(m) = model {
                    let full = result.reconstruct_model(&m);
                    for c in w.hard_clauses() {
                        prop_assert!(
                            c.is_satisfied_by(&full),
                            "reconstructed model violates original clause {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simplification_is_idempotent_on_output(w in arb_wcnf(6)) {
        // Simplifying an already-simplified formula must not change the
        // optimum again (offsets accumulate correctly).
        let mut simp = Simplifier::new();
        let once = simp.simplify(&w);
        if !once.infeasible {
            let mut simp2 = Simplifier::new();
            let twice = simp2.simplify(&once.formula);
            if twice.infeasible {
                prop_assert!(optimum(&once.formula).is_none());
            } else {
                match (optimum(&once.formula), optimum(&twice.formula)) {
                    (None, None) => {}
                    (Some((a, _)), Some((b, _))) => {
                        prop_assert_eq!(a, b.saturating_add(twice.cost_offset));
                    }
                    _ => prop_assert!(false, "feasibility flip on re-simplification"),
                }
            }
        }
    }

    #[test]
    fn reconstructed_models_are_total(w in arb_wcnf(6)) {
        let mut simp = Simplifier::new();
        let result = simp.simplify(&w);
        if !result.infeasible {
            if let Some((_, m)) = optimum(&result.formula) {
                let full = result.reconstruct_model(&m);
                prop_assert!(full.is_total());
                prop_assert_eq!(full.num_vars(), w.num_vars());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic pipeline tests
// ---------------------------------------------------------------------

#[test]
fn unit_facts_flow_into_soft_clauses() {
    // Hard unit x1; soft (¬x1) is doomed, soft (x1 ∨ x2) is free.
    let w = dimacs::parse_wcnf("p wcnf 2 3 9\n9 1 0\n3 -1 0\n2 1 2 0\n").unwrap();
    let mut simp = Simplifier::new();
    let result = simp.simplify(&w);
    assert!(!result.infeasible);
    assert_eq!(result.cost_offset, 3, "falsified soft weight charged");
    assert_eq!(result.formula.num_soft(), 0);
    assert_eq!(result.formula.num_hard(), 0);
    let model = result.reconstruct_model(&Assignment::for_vars(0));
    assert_eq!(w.cost(&model), Some(3));
}

#[test]
fn chain_elimination_shrinks_to_nothing() {
    // x1→x2→x3→x4, all vars hard-only: everything resolves away.
    let w = dimacs::parse_wcnf("p wcnf 4 3 9\n9 -1 2 0\n9 -2 3 0\n9 -3 4 0\n").unwrap();
    let mut simp = Simplifier::new();
    let result = simp.simplify(&w);
    assert!(!result.infeasible);
    assert_eq!(result.formula.num_hard(), 0);
    assert_eq!(result.formula.num_vars(), 0);
    let model = result.reconstruct_model(&Assignment::for_vars(0));
    assert_eq!(
        w.cost(&model),
        Some(0),
        "reconstruction satisfies the chain"
    );
}

#[test]
fn frozen_soft_variables_survive() {
    // x2 bridges two hard clauses but also appears in a soft clause:
    // it must not be eliminated.
    let w = dimacs::parse_wcnf("p wcnf 3 4 9\n9 1 2 0\n9 -2 3 0\n1 2 0\n1 -3 0\n").unwrap();
    let mut simp = Simplifier::new();
    let result = simp.simplify(&w);
    assert!(!result.infeasible);
    let x2 = coremax_cnf::Var::new(1);
    assert!(
        result.var_map.map_var(x2).is_some(),
        "soft variable was eliminated"
    );
    assert_eq!(result.formula.num_soft(), 2);
}

#[test]
fn extra_frozen_variables_survive() {
    // Same chain as above but hard-only; freezing x2 manually keeps it.
    let w = dimacs::parse_wcnf("p wcnf 3 2 9\n9 1 2 0\n9 -2 3 0\n").unwrap();
    let x2 = coremax_cnf::Var::new(1);
    let mut simp = Simplifier::new();
    let result = simp.simplify_frozen(&w, &[x2]);
    assert!(!result.infeasible);
    assert!(result.var_map.map_var(x2).is_some());
}

#[test]
fn subsumption_and_strengthening() {
    // (x1 ∨ x2) subsumes (x1 ∨ x2 ∨ x3); (¬x1 ∨ x2) self-subsumes the
    // pair down to the unit (x2).
    let w = dimacs::parse_wcnf("p wcnf 3 3 9\n9 1 2 0\n9 1 2 3 0\n9 -1 2 0\n").unwrap();
    let mut simp = Simplifier::with_config(SimpConfig {
        bve: false,
        probing: false,
        ..SimpConfig::default()
    });
    let result = simp.simplify(&w);
    assert!(!result.infeasible);
    assert!(simp.stats().subsumed >= 1, "{}", simp.stats());
    assert!(simp.stats().strengthened >= 1, "{}", simp.stats());
    // (x2) became a fact, so nothing is left.
    assert_eq!(result.formula.num_hard(), 0);
    let model = result.reconstruct_model(&Assignment::for_vars(0));
    assert_eq!(w.cost(&model), Some(0));
}

#[test]
fn probing_finds_failed_literals() {
    // x1 → x2 and x1 → ¬x2: probing x1 fails, ¬x1 becomes a fact.
    let w = dimacs::parse_wcnf("p wcnf 3 3 9\n9 -1 2 0\n9 -1 -2 0\n9 1 3 0\n").unwrap();
    let mut simp = Simplifier::with_config(SimpConfig {
        bve: false,
        subsumption: false,
        ..SimpConfig::default()
    });
    let result = simp.simplify(&w);
    assert!(!result.infeasible);
    assert!(simp.stats().failed_literals >= 1, "{}", simp.stats());
    // ¬x1 forces x3; everything collapses to facts.
    assert_eq!(result.formula.num_hard(), 0);
    let model = result.reconstruct_model(&Assignment::for_vars(result.formula.num_vars()));
    assert_eq!(w.cost(&model), Some(0));
}

#[test]
fn infeasible_hard_clauses_detected() {
    let w = dimacs::parse_wcnf("p wcnf 1 3 9\n9 1 0\n9 -1 0\n1 1 0\n").unwrap();
    let mut simp = Simplifier::new();
    let result = simp.simplify(&w);
    assert!(result.infeasible);
}

#[test]
fn hard_subsumed_soft_clause_dropped() {
    // Hard (x1 ∨ x2) subsumes soft (x1 ∨ x2 ∨ x3): the soft clause can
    // never cost anything in a feasible model.
    let w = dimacs::parse_wcnf("p wcnf 3 2 9\n9 1 2 0\n4 1 2 3 0\n").unwrap();
    let mut simp = Simplifier::with_config(SimpConfig {
        bve: false,
        probing: false,
        ..SimpConfig::default()
    });
    let result = simp.simplify(&w);
    assert!(!result.infeasible);
    assert_eq!(result.formula.num_soft(), 0);
    assert_eq!(result.cost_offset, 0);
    assert_eq!(simp.stats().soft_dropped, 1);
    let model = result.reconstruct_model(&optimum(&result.formula).unwrap().1);
    assert_eq!(w.cost(&model), Some(0));
}

#[test]
fn pure_literal_removed_with_reconstruction() {
    // x1 occurs only positively in the hard part; x2 is soft-frozen.
    let w = dimacs::parse_wcnf("p wcnf 2 3 9\n9 1 2 0\n9 1 -2 0\n1 2 0\n").unwrap();
    let mut simp = Simplifier::with_config(SimpConfig {
        probing: false,
        subsumption: false,
        ..SimpConfig::default()
    });
    let result = simp.simplify(&w);
    assert!(!result.infeasible);
    assert!(simp.stats().pure_literals >= 1, "{}", simp.stats());
    assert_eq!(result.formula.num_hard(), 0);
    if let Some((cost, m)) = optimum(&result.formula) {
        let full = result.reconstruct_model(&m);
        assert_eq!(w.cost(&full), Some(cost));
    }
}

#[test]
fn weighted_offsets_accumulate() {
    // Two soft clauses die to hard units with different weights.
    let w = dimacs::parse_wcnf("p wcnf 2 4 9\n9 1 0\n9 2 0\n5 -1 0\n7 -2 0\n").unwrap();
    let mut simp = Simplifier::new();
    let result = simp.simplify(&w);
    assert_eq!(result.cost_offset, 12);
    let model = result.reconstruct_model(&Assignment::for_vars(0));
    assert_eq!(w.cost(&model), Some(12));
}

#[test]
fn new_format_input_simplifies_identically() {
    let classic = dimacs::parse_wcnf("p wcnf 3 4 9\n9 -1 2 0\n9 -2 3 0\n1 -3 0\n1 1 0\n").unwrap();
    let modern = dimacs::parse_wcnf("h -1 2 0\nh -2 3 0\n1 -3 0\n1 1 0\n").unwrap();
    let a = Simplifier::new().simplify(&classic);
    let b = Simplifier::new().simplify(&modern);
    assert_eq!(a, b);
}

#[test]
fn stats_describe_the_run() {
    let w = dimacs::parse_wcnf("p wcnf 4 4 9\n9 -1 2 0\n9 -2 3 0\n9 -3 4 0\n1 1 0\n").unwrap();
    let mut simp = Simplifier::new();
    let _ = simp.simplify(&w);
    let st = simp.stats();
    assert_eq!(st.vars_in, 4);
    assert_eq!(st.hard_in, 3);
    assert_eq!(st.soft_in, 1);
    assert!(st.rounds >= 1);
    assert!(st.vars_out <= st.vars_in);
    let text = st.to_string();
    assert!(text.contains("vars 4->"), "{text}");
}
