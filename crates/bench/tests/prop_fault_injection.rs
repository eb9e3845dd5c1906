//! Fault-injection harness: graceful degradation under randomized
//! resource faults.
//!
//! Random small weighted instances are solved with faults armed at
//! randomized points — a pre-raised stop flag, a stop flag raised from
//! a concurrent thread mid-run (lands mid-preprocessing, mid-GC,
//! mid-search, or inside portfolio workers), already-expired and
//! near-expired deadlines, and whole-solve conflict/propagation caps.
//! Every outcome must satisfy the anytime-soundness invariants checked
//! by [`coremax_bench::fi::check_anytime_sound`] against the exhaustive
//! oracle: never a wrong `Optimal`/`Infeasible`, incumbents certify
//! their cost exactly, and `lower_bound ≤ optimum ≤ incumbent_cost`.
//!
//! `PROPTEST_CASES` scales the case count (CI runs 256+).

#![recursion_limit = "256"]

use std::time::Duration;

use coremax::{
    BranchBound, MaxSatSolver, MaxSatStatus, Msu3, Msu4, Oll, PboBaseline, Preprocessed,
    Stratified, Wmsu1,
};
use coremax_bench::fi::{armed_budget, check_anytime_sound, exhaustive_optimum, Fault};
use coremax_cnf::WcnfFormula;
use coremax_instances::{random_weighted_wcnf, WeightDist, WeightedConfig};
use coremax_par::Portfolio;
use coremax_simp::Simplifier;
use proptest::prelude::*;

/// Solvers under fault injection: every anytime driver family plus the
/// preprocessing wrapper (reconstruction through the elimination
/// stack) and the parallel portfolio (faults land inside workers).
fn lineup() -> Vec<(&'static str, Box<dyn MaxSatSolver>)> {
    vec![
        ("wmsu1", Box::new(Wmsu1::new())),
        ("oll", Box::new(Oll::new())),
        ("stratified<msu3>", Box::new(Stratified::new(Msu3::new()))),
        ("stratified<msu4>", Box::new(Stratified::new(Msu4::v2()))),
        (
            "stratified<msu4-inc>",
            Box::new(Stratified::new(Msu4::incremental())),
        ),
        ("stratified<oll>", Box::new(Stratified::new(Oll::new()))),
        ("maxsatz-bb", Box::new(BranchBound::new())),
        ("pbo", Box::new(PboBaseline::new())),
        ("pre(wmsu1)", Box::new(Preprocessed::new(Wmsu1::new()))),
        ("pre(oll)", Box::new(Preprocessed::new(Oll::new()))),
        (
            "pre(stratified<msu3>)",
            Box::new(Preprocessed::new(Stratified::new(Msu3::new()))),
        ),
        ("portfolio(2)", Box::new(Portfolio::new(2))),
    ]
}

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

/// Faults at randomized severities. `StopAfter`/`Deadline` delays are
/// microsecond-scale so the fault lands *during* the run on these
/// small instances, not safely after it.
fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        Just(Fault::StopImmediately),
        (0u64..=500).prop_map(|us| Fault::StopAfter(Duration::from_micros(us))),
        (0u64..=500).prop_map(|us| Fault::Deadline(Duration::from_micros(us))),
        (0u64..=40).prop_map(Fault::ConflictCap),
        (0u64..=200).prop_map(Fault::PropagationCap),
    ]
}

fn inject_and_check(w: &WcnfFormula, fault: &Fault) {
    let optimum = exhaustive_optimum(w);
    for (label, mut solver) in lineup() {
        let (budget, thread) = armed_budget(fault);
        solver.set_budget(budget);
        let s = solver.solve(w);
        if let Some(t) = thread {
            t.join();
        }
        check_anytime_sound(w, &s, optimum)
            .unwrap_or_else(|violation| panic!("{label} under {fault:?}: {violation}"));
    }
}

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    // The headline property: every configuration of the lineup, five
    // fault classes, zero tolerated soundness violations.
    #[test]
    fn faulted_solves_stay_anytime_sound(w in arb_instance(), fault in arb_fault()) {
        inject_and_check(&w, &fault);
    }

    // Cancellation at a random point inside preprocessing: simplify
    // under a delayed stop flag, then solve the (partially simplified)
    // residual fresh — cost_offset plus reconstruction must still land
    // exactly on the oracle optimum. Every applied rewrite is
    // individually sound, so a cancelled pipeline yields a correct,
    // merely less simplified, instance.
    #[test]
    fn cancelled_preprocessing_still_solves_exactly(
        w in arb_instance(),
        delay_us in 0u64..=200,
    ) {
        let optimum = exhaustive_optimum(&w);
        let (budget, thread) = armed_budget(&Fault::StopAfter(Duration::from_micros(delay_us)));
        let mut simp = Simplifier::new();
        simp.set_budget(budget);
        let result = simp.simplify(&w);
        if let Some(t) = thread {
            t.join();
        }
        if result.infeasible {
            prop_assert_eq!(optimum, None, "preprocessing refuted a feasible instance");
        } else {
            // Fresh, unfaulted solve of the residual.
            let s = Wmsu1::new().solve(&result.formula);
            match optimum {
                Some(opt) => {
                    prop_assert_eq!(s.status, MaxSatStatus::Optimal);
                    let residual = s.cost.expect("optimal has a cost");
                    prop_assert_eq!(residual + result.cost_offset, opt,
                        "residual {} + offset {} != oracle {}", residual, result.cost_offset, opt);
                    let model = result.reconstruct_model(&s.model.expect("optimal has a model"));
                    prop_assert_eq!(w.cost(&model), Some(opt), "reconstructed model lies");
                }
                None => {
                    prop_assert_eq!(s.status, MaxSatStatus::Infeasible);
                }
            }
        }
    }
}

/// Pre-raised stop flag: every solver must return a bare-but-sound
/// certified interval deterministically (no wall-clock involved).
#[test]
fn pre_raised_stop_flag_is_deterministic() {
    let w = random_weighted_wcnf(&WeightedConfig {
        num_vars: 6,
        num_hard: 3,
        num_soft: 8,
        max_len: 3,
        dist: WeightDist::Uniform { lo: 1, hi: 9 },
        seed: 7,
    });
    let optimum = exhaustive_optimum(&w);
    for (label, mut solver) in lineup() {
        let (budget, _) = armed_budget(&Fault::StopImmediately);
        solver.set_budget(budget);
        let first = solver.solve(&w);
        // A solver may still finish exactly if the instance is solved
        // before the first budget poll; what it must never do is lie.
        check_anytime_sound(&w, &first, optimum).unwrap_or_else(|e| panic!("{label}: {e}"));
        // Re-arming the same fault reproduces the same interval.
        let (budget, _) = armed_budget(&Fault::StopImmediately);
        let mut again = lineup()
            .into_iter()
            .find(|(l, _)| *l == label)
            .expect("lineup is stable")
            .1;
        again.set_budget(budget);
        let second = again.solve(&w);
        assert_eq!(first.status, second.status, "{label} status");
        assert_eq!(first.cost, second.cost, "{label} incumbent cost");
        assert_eq!(first.lower_bound, second.lower_bound, "{label} lower bound");
    }
}

/// The at-most-2-of-4 instance: every core has at least 3 members, and
/// the optimum (2) exceeds what the bound-1 totalizer outputs allow.
fn at_most_two_of_four() -> WcnfFormula {
    coremax_cnf::dimacs::parse_wcnf(
        "p wcnf 4 8 9\n9 -1 -2 -3 0\n9 -1 -2 -4 0\n9 -1 -3 -4 0\n9 -2 -3 -4 0\n\
         1 1 0\n1 2 0\n1 3 0\n1 4 0\n",
    )
    .expect("instance parses")
}

/// Both cap classes reach every driver: armed at 0, each stops every
/// member of the lineup before it can prove the optimum, with a
/// certified interval.
#[test]
fn work_caps_at_zero_stop_every_sat_driver() {
    let w = at_most_two_of_four();
    let optimum = exhaustive_optimum(&w);
    for fault in [Fault::ConflictCap(0), Fault::PropagationCap(0)] {
        for (label, mut solver) in lineup() {
            let (budget, _) = armed_budget(&fault);
            solver.set_budget(budget);
            let s = solver.solve(&w);
            check_anytime_sound(&w, &s, optimum)
                .unwrap_or_else(|violation| panic!("{label} under {fault:?}: {violation}"));
            assert_eq!(s.status, MaxSatStatus::Unknown, "{label} under {fault:?}");
        }
    }
}

/// Cancellation landing around an in-place totalizer bound raise. The
/// at-most-2-of-4 instance forces the OLL driver through at least one
/// `increase_bound` extension on the unfaulted path. Sweeping the
/// whole-solve conflict and propagation caps lands the stop at every
/// budget poll point — before the first core, between a core and its
/// extension, and right after the raised output becomes an assumption —
/// and each truncated run must still return a certified interval, never
/// a wrong verdict. Each cap class must stop some run and let some run
/// finish, or the sweep would not reach those points. The unfaulted run
/// takes 3 conflicts and 50 propagations, so the propagation cap steps
/// by 4 to span it in the same 25 points.
#[test]
fn cancellation_mid_totalizer_extension_keeps_the_interval_certified() {
    let w = at_most_two_of_four();
    let optimum = exhaustive_optimum(&w);
    assert_eq!(optimum, Some(2));
    // Unfaulted control: this instance really drives the extension path.
    let control = Oll::new().solve(&w);
    assert_eq!(control.cost, Some(2));
    assert!(
        control.stats.totalizer_extensions >= 1,
        "instance must force a totalizer extension"
    );
    // Per cap class: (stopped early, finished exactly).
    let mut seen = [(false, false); 2];
    for cap in 0..=24u64 {
        for (class, fault) in [Fault::ConflictCap(cap), Fault::PropagationCap(4 * cap)]
            .into_iter()
            .enumerate()
        {
            let (budget, _) = armed_budget(&fault);
            let mut solver = Oll::new();
            solver.set_budget(budget);
            let s = solver.solve(&w);
            check_anytime_sound(&w, &s, optimum)
                .unwrap_or_else(|violation| panic!("oll under {fault:?}: {violation}"));
            seen[class].0 |= s.status == MaxSatStatus::Unknown;
            seen[class].1 |= s.status == MaxSatStatus::Optimal;
        }
    }
    assert_eq!(
        seen,
        [(true, true); 2],
        "(stopped, finished) under the conflict and the propagation caps"
    );
}
