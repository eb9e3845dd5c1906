//! Differential weighted-oracle harness.
//!
//! Small random weighted instances — skewed, uniform and power-of-two
//! weight distributions from the shared `coremax_instances` generator —
//! are solved by exhaustive enumeration and by every weighted path in
//! the crate: [`Wmsu1`], [`Oll`], [`Stratified<Msu3>`],
//! [`Stratified<Msu4>`], [`Stratified<Oll>`] and the maxsatz-style
//! [`BranchBound`], each bare, and all but `Stratified<Oll>` also
//! wrapped in [`Preprocessed`].
//! All runs must agree with the oracle's optimal cost, and every model
//! must pass [`verify_solution`] against the original instance.
//!
//! The suite additionally closes the serialisation loop: parse → solve
//! → serialize → reparse → solve must reproduce the optimum in both
//! WCNF dialects (classic header and post-2022 headerless).
//!
//! `PROPTEST_CASES` scales the case count (CI runs an elevated pass).

#![recursion_limit = "256"]

use coremax::{
    verify_solution, BranchBound, MaxSatSolver, MaxSatStatus, Msu3, Msu4, Oll, Preprocessed,
    Stratified, Wmsu1,
};
use coremax_cnf::{dimacs, Assignment, WcnfFormula, Weight};
use coremax_instances::{
    random_weighted_wcnf, weighted_suite, SuiteConfig, WeightDist, WeightedConfig,
};
use coremax_sat::Budget;
use proptest::prelude::*;

/// Exhaustive oracle: the minimum cost over all 2^n assignments, or
/// `None` when no assignment satisfies the hard clauses.
fn exhaustive_optimum(w: &WcnfFormula) -> Option<Weight> {
    let n = w.num_vars();
    assert!(n <= 16, "oracle is exponential; keep instances small");
    let mut best: Option<Weight> = None;
    for bits in 0u32..(1 << n) {
        let values: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        let assignment = Assignment::from_bools(&values);
        if let Some(cost) = w.cost(&assignment) {
            best = Some(best.map_or(cost, |b: Weight| b.min(cost)));
        }
    }
    best
}

/// The full differential line-up. Boxed so one loop covers them all;
/// rebuilt per instance (solvers are stateless between solves, but this
/// also proves constructibility stays cheap).
fn lineup() -> Vec<(&'static str, Box<dyn MaxSatSolver>)> {
    vec![
        ("wmsu1", Box::new(Wmsu1::new())),
        ("oll", Box::new(Oll::new())),
        ("stratified<msu3>", Box::new(Stratified::new(Msu3::new()))),
        ("stratified<msu4>", Box::new(Stratified::new(Msu4::v2()))),
        ("stratified<oll>", Box::new(Stratified::new(Oll::new()))),
        ("maxsatz-bb", Box::new(BranchBound::new())),
        ("pre(wmsu1)", Box::new(Preprocessed::new(Wmsu1::new()))),
        ("pre(oll)", Box::new(Preprocessed::new(Oll::new()))),
        (
            "pre(stratified<msu3>)",
            Box::new(Preprocessed::new(Stratified::new(Msu3::new()))),
        ),
        (
            "pre(stratified<msu4>)",
            Box::new(Preprocessed::new(Stratified::new(Msu4::v2()))),
        ),
        (
            "pre(maxsatz-bb)",
            Box::new(Preprocessed::new(BranchBound::new())),
        ),
    ]
}

fn check_against_oracle(w: &WcnfFormula) {
    let oracle = exhaustive_optimum(w);
    for (label, mut solver) in lineup() {
        let s = solver.solve(w);
        prop_assert!(
            verify_solution(w, &s),
            "{label}: solution failed verification"
        );
        match oracle {
            Some(optimum) => {
                prop_assert_eq!(
                    s.status,
                    MaxSatStatus::Optimal,
                    "{} must prove the optimum",
                    label
                );
                prop_assert_eq!(s.cost, Some(optimum), "{} cost differs from oracle", label);
                let model = s.model.as_ref().expect("optimal carries a model");
                prop_assert_eq!(w.cost(model), Some(optimum), "{} model lies", label);
            }
            None => {
                prop_assert_eq!(
                    s.status,
                    MaxSatStatus::Infeasible,
                    "{} must detect infeasibility",
                    label
                );
            }
        }
    }
}

/// Weight distributions under test.
fn arb_dist() -> impl Strategy<Value = WeightDist> {
    prop_oneof![
        (1u64..=3, 1u64..=8).prop_map(|(lo, extra)| WeightDist::Uniform { lo, hi: lo + extra }),
        (0u32..=3).prop_map(|max_exp| WeightDist::PowerOfTwo { max_exp }),
        (1u64..=3, 5u64..=30, 2usize..=4).prop_map(|(light, heavy, heavy_every)| {
            WeightDist::Skewed {
                light,
                heavy,
                heavy_every,
            }
        }),
    ]
}

fn arb_instance() -> impl Strategy<Value = WcnfFormula> {
    (
        3usize..=6, // vars
        0usize..=5, // hard
        2usize..=9, // soft
        arb_dist(),
        any::<u64>(), // seed
    )
        .prop_map(|(num_vars, num_hard, num_soft, dist, seed)| {
            random_weighted_wcnf(&WeightedConfig {
                num_vars,
                num_hard,
                num_soft,
                max_len: 3,
                dist,
                seed,
            })
        })
}

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    // The headline differential property: eleven solver
    // configurations, one exhaustive oracle, zero tolerance.
    #[test]
    fn all_weighted_paths_agree_with_the_exhaustive_oracle(w in arb_instance()) {
        check_against_oracle(&w);
    }

    // Round-trip: parse → solve → serialize → reparse → solve must
    // reproduce the optimum in both WCNF dialects.
    #[test]
    fn wcnf_roundtrip_preserves_the_optimum(w in arb_instance()) {
        let direct = Wmsu1::new().solve(&w);
        for (dialect, text) in [
            ("classic", dimacs::write_wcnf(&w)),
            ("post-2022", dimacs::write_wcnf_new(&w)),
        ] {
            let reparsed = dimacs::parse_wcnf(&text)
                .unwrap_or_else(|e| panic!("{dialect} output must parse: {e}"));
            prop_assert!(w.hard_clauses().eq(reparsed.hard_clauses()), "{} hard", dialect);
            prop_assert!(w.soft_clauses().eq(reparsed.soft_clauses()), "{} soft", dialect);
            let again = Stratified::new(Msu4::v2()).solve(&reparsed);
            prop_assert_eq!(again.status, direct.status, "{} status", dialect);
            prop_assert_eq!(again.cost, direct.cost, "{} optimum", dialect);
            prop_assert!(verify_solution(&reparsed, &again), "{} verify", dialect);
        }
    }
}

/// Hard-infeasible weighted instances: the generator plants feasible
/// hard parts, so cover the infeasible branch deterministically.
#[test]
fn infeasible_weighted_instances_agree() {
    let w =
        dimacs::parse_wcnf("p wcnf 2 5 99\n99 1 0\n99 -1 2 0\n99 -2 0\n7 1 0\n3 -2 0\n").unwrap();
    assert_eq!(exhaustive_optimum(&w), None);
    for (label, mut solver) in lineup() {
        let s = solver.solve(&w);
        assert_eq!(s.status, MaxSatStatus::Infeasible, "{label}");
        assert!(verify_solution(&w, &s), "{label}");
    }
}

/// Weights right under the `HARD_WEIGHT` sentinel flow through the
/// native paths without panicking or wrapping.
#[test]
fn near_sentinel_weights_solve_natively() {
    use coremax_cnf::{Lit, HARD_WEIGHT};
    let mut w = WcnfFormula::new();
    let x = w.new_var();
    w.add_hard([Lit::positive(x)]);
    w.add_soft([Lit::negative(x)], HARD_WEIGHT - 1);
    w.add_soft([Lit::positive(x)], 3);
    for (label, mut solver) in [
        ("wmsu1", Box::new(Wmsu1::new()) as Box<dyn MaxSatSolver>),
        ("oll", Box::new(Oll::new())),
        ("stratified<msu3>", Box::new(Stratified::new(Msu3::new()))),
        ("maxsatz-bb", Box::new(BranchBound::new())),
    ] {
        let s = solver.solve(&w);
        assert_eq!(s.cost, Some(HARD_WEIGHT - 1), "{label}");
        assert!(verify_solution(&w, &s), "{label}");
    }
}

/// Duplicate soft clauses with different weights are distinct cost
/// carriers for every solver.
#[test]
fn duplicate_soft_clauses_with_different_weights_agree() {
    let w = dimacs::parse_wcnf("p wcnf 2 5 99\n99 -1 -2 0\n3 1 0\n5 1 0\n2 2 0\n7 2 0\n").unwrap();
    let optimum = exhaustive_optimum(&w).unwrap();
    assert_eq!(optimum, 8); // keep x2 (9 > 8), falsify both x1 copies
    for (label, mut solver) in lineup() {
        let s = solver.solve(&w);
        assert_eq!(s.cost, Some(optimum), "{label}");
        assert!(verify_solution(&w, &s), "{label}");
    }
}

/// A heavy stratum that freezes first, then a large mixed group: 16
/// softs at weight 100,000 and 50 at weights 1–6. Stratifying an
/// unweighted solver must send the mixed group to a weight-native
/// solver that settles it within a small conflict budget. Under a
/// `Wmsu1` fallback the first instance made over 600,000 conflicts
/// without a verdict: Fu–Malik's exactly-one relaxations stall below
/// the frozen heavy stratum.
#[test]
fn frozen_heavy_stratum_then_mixed_group_solves_within_budget() {
    for (seed, optimum) in [(2_728_000, 300_044), (3_783_000, 78)] {
        let w = weighted_suite(&SuiteConfig { scale: 2, seed })
            .into_iter()
            .find(|i| i.name == "w-skewed-heavy-v22")
            .expect("the suite has a skewed-heavy v22 instance")
            .wcnf;
        let budget = || Budget::new().with_shared_caps(Some(20_000), None);
        for (label, mut solver) in [
            (
                "stratified<msu3>",
                Box::new(Stratified::new(Msu3::new())) as Box<dyn MaxSatSolver>,
            ),
            ("stratified<msu4>", Box::new(Stratified::new(Msu4::v2()))),
        ] {
            solver.set_budget(budget());
            let s = solver.solve(&w);
            assert_eq!(s.status, MaxSatStatus::Optimal, "{label} at seed {seed}");
            assert_eq!(s.cost, Some(optimum), "{label} at seed {seed}");
            assert!(verify_solution(&w, &s), "{label} at seed {seed}");
        }
    }
}
