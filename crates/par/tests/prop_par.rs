//! Thread-count differential harness.
//!
//! Two properties anchor the parallel subsystem:
//!
//! 1. **Thread-count determinism** — for random weighted and unweighted
//!    instances, the portfolio's `(status, cost, model cost)` is
//!    identical for `jobs ∈ {1, 2, 4, 8}` (plus `COREMAX_TEST_JOBS`
//!    when set — CI's matrix extends the set with 3, an odd count that
//!    stripes the members unevenly, and 16, wider than the member
//!    list), equals the exhaustive oracle, and equals the reported
//!    winner configuration re-run alone sequentially.
//! 2. **Cancellation soundness** — a solver stopped at an arbitrary
//!    point returns `Unknown` or a *correct* `Optimal` (it can win the
//!    race against the flag), never a wrong verdict; its work counters
//!    are a prefix of the uncancelled run's (no double-counted
//!    conflicts after a stop); and a fresh uncancelled solve still
//!    matches the oracle.
//!
//! `PROPTEST_CASES` scales the case count (CI runs an elevated pass).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use coremax::{verify_solution, MaxSatSolver, MaxSatStatus, Msu3, Stratified};
use coremax_cnf::{Assignment, CnfFormula, Lit, Var, WcnfFormula, Weight};
use coremax_instances::{
    equiv_instance, pigeonhole, random_unsat_3cnf, random_weighted_wcnf, WeightDist, WeightedConfig,
};
use coremax_par::{solve_batch, BatchOptions, Portfolio};
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

fn arb_dist() -> impl Strategy<Value = WeightDist> {
    prop_oneof![
        // Unweighted: every soft clause at weight 1 (the paper's
        // regime and the one exercising the msu3/msu4 members bare).
        Just(WeightDist::Uniform { lo: 1, hi: 1 }),
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
        2usize..=8, // soft
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

/// The tested thread counts: the issue's {1, 2, 4, 8} plus the CI
/// matrix value from `COREMAX_TEST_JOBS` when present.
fn job_counts() -> Vec<usize> {
    let mut jobs = vec![1usize, 2, 4, 8];
    if let Some(extra) = std::env::var("COREMAX_TEST_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        if !jobs.contains(&extra) {
            jobs.push(extra);
        }
    }
    jobs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    // Property 1: the reported answer is a pure function of the
    // instance — not of the thread count, and not of which member
    // happened to finish first.
    #[test]
    fn portfolio_answer_is_thread_count_invariant(w in arb_instance()) {
        let oracle = exhaustive_optimum(&w);
        let mut reference: Option<(MaxSatStatus, Option<Weight>, Option<Weight>)> = None;
        for jobs in job_counts() {
            let outcome = Portfolio::new(jobs).solve(&w);
            let model_cost = outcome.solution.model.as_ref().map(|m| {
                w.cost(m).expect("portfolio models satisfy the hard clauses")
            });
            let key = (outcome.solution.status, outcome.solution.cost, model_cost);
            match &reference {
                None => reference = Some(key),
                Some(expected) => prop_assert_eq!(
                    &key, expected,
                    "jobs={} diverged from jobs=1", jobs
                ),
            }
            // Against the oracle: unlimited budget means every race has
            // an exact winner.
            match oracle {
                Some(optimum) => {
                    prop_assert_eq!(outcome.solution.status, MaxSatStatus::Optimal);
                    prop_assert_eq!(outcome.solution.cost, Some(optimum), "jobs={}", jobs);
                    prop_assert_eq!(model_cost, Some(optimum), "jobs={} model lies", jobs);
                }
                None => {
                    prop_assert_eq!(outcome.solution.status, MaxSatStatus::Infeasible);
                }
            }
            prop_assert!(verify_solution(&w, &outcome.solution), "jobs={}", jobs);

            // The reported winner, re-run alone sequentially, must
            // reproduce the race's answer (fixed-priority tie-break,
            // not wall-clock order).
            let index = outcome.winner_index.expect("unlimited budget always has a winner");
            let members = Portfolio::default_members();
            prop_assert_eq!(members[index].name(), outcome.winner.unwrap());
            let solo = Portfolio::with_members(1, vec![members[index].clone()]).solve(&w);
            prop_assert_eq!(solo.solution.status, outcome.solution.status);
            prop_assert_eq!(solo.solution.cost, outcome.solution.cost, "winner re-run differs");
        }
    }

    // Property 2: cancellation at an arbitrary point is sound. The
    // flag is raised from a second thread after a random sub-millisecond
    // delay, so the stop lands anywhere from before the first
    // propagation to after the optimum was proven.
    #[test]
    fn cancellation_at_a_random_point_is_sound(
        w in arb_instance(),
        delay_us in 0u64..800,
    ) {
        let oracle = exhaustive_optimum(&w);
        // Reference run: same configuration, no cancellation.
        let full = Stratified::new(Msu3::new()).solve(&w);

        let stop = Arc::new(AtomicBool::new(false));
        let mut cancelled_solver = Stratified::new(Msu3::new());
        cancelled_solver.set_budget(Budget::new().with_stop_flag(stop.clone()));
        let cancelled = std::thread::scope(|scope| {
            let setter = scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
                stop.store(true, Ordering::Relaxed);
            });
            let solution = cancelled_solver.solve(&w);
            setter.join().expect("setter thread");
            solution
        });

        match cancelled.status {
            MaxSatStatus::Unknown => {
                // Any reported bound must still be attained by a real
                // model of the original instance.
                prop_assert!(verify_solution(&w, &cancelled));
            }
            status => {
                // The solve won the race against the flag: the verdict
                // must be *correct*, exactly as if never cancelled.
                prop_assert_eq!(status, full.status);
                prop_assert_eq!(cancelled.cost, full.cost);
                prop_assert!(verify_solution(&w, &cancelled));
            }
        }

        // No double-counted work after a stop: a cancelled run performs
        // a prefix of the uncancelled run's deterministic work, so every
        // cumulative counter is bounded by the full run's.
        prop_assert!(
            cancelled.stats.sat.conflicts <= full.stats.sat.conflicts,
            "conflicts {} > uncancelled {}",
            cancelled.stats.sat.conflicts,
            full.stats.sat.conflicts
        );
        prop_assert!(
            cancelled.stats.sat.propagations <= full.stats.sat.propagations,
            "propagations {} > uncancelled {}",
            cancelled.stats.sat.propagations,
            full.stats.sat.propagations
        );
        prop_assert!(
            cancelled.stats.sat_iterations + cancelled.stats.unsat_iterations
                <= cancelled.stats.sat_calls,
            "iteration counters exceed SAT calls"
        );

        // A fresh, uncancelled solve still matches the exhaustive
        // oracle: cancellation never poisons later runs.
        let fresh = Stratified::new(Msu3::new()).solve(&w);
        match oracle {
            Some(optimum) => {
                prop_assert_eq!(fresh.status, MaxSatStatus::Optimal);
                prop_assert_eq!(fresh.cost, Some(optimum));
            }
            None => prop_assert_eq!(fresh.status, MaxSatStatus::Infeasible),
        }
        prop_assert!(verify_solution(&w, &fresh));
    }

    // Merged-interval certification: whatever point the deadline lands
    // on — before any member starts, mid-race, or after some members
    // found incumbents — the portfolio's answer is a certified,
    // *uncrossed* interval: lb ≤ incumbent cost, and the incumbent's
    // model attains its cost on the original instance.
    #[test]
    fn aborted_portfolio_reports_an_uncrossed_certified_interval(
        w in arb_instance(),
        timeout_us in 50u64..5_000,
    ) {
        let mut portfolio = Portfolio::new(2);
        portfolio.set_budget(
            Budget::new().with_timeout(std::time::Duration::from_micros(timeout_us)),
        );
        let outcome = portfolio.solve(&w);
        let s = &outcome.solution;
        if let Some(cost) = s.cost {
            prop_assert!(
                s.lower_bound <= cost,
                "crossed interval: lb {} > ub {}",
                s.lower_bound,
                cost
            );
            let model = s.model.as_ref().expect("an incumbent carries its model");
            prop_assert_eq!(w.cost(model), Some(cost), "incumbent does not certify");
        }
        prop_assert!(verify_solution(&w, s));
    }

    // Batch driver determinism: per-instance answers and their order
    // are independent of the worker count.
    #[test]
    fn batch_results_are_worker_count_invariant(
        seeds in proptest::collection::vec(any::<u64>(), 2..6),
    ) {
        let owned: Vec<(String, WcnfFormula)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                (
                    format!("inst-{i}"),
                    random_weighted_wcnf(&WeightedConfig {
                        num_vars: 5,
                        num_hard: 3,
                        num_soft: 6,
                        max_len: 3,
                        dist: WeightDist::Uniform { lo: 1, hi: 4 },
                        seed,
                    }),
                )
            })
            .collect();
        let items: Vec<(&str, &WcnfFormula)> =
            owned.iter().map(|(n, w)| (n.as_str(), w)).collect();
        let run = |jobs: usize| {
            solve_batch(
                &items,
                || Box::new(Stratified::new(Msu3::new())) as Box<dyn MaxSatSolver + Send>,
                &BatchOptions {
                    jobs,
                    budget: Budget::new(),
                },
            )
        };
        let seq = run(1);
        prop_assert_eq!(seq.outcomes.len(), items.len());
        for (outcome, (name, w)) in seq.outcomes.iter().zip(&owned) {
            prop_assert_eq!(&outcome.name, name);
            prop_assert_eq!(outcome.solution.cost, exhaustive_optimum(w), "{}", name);
            prop_assert!(verify_solution(w, &outcome.solution), "{}", name);
        }
        for jobs in [2usize, 4, 8] {
            let par = run(jobs);
            for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
                prop_assert_eq!(&a.name, &b.name, "jobs={} reorders", jobs);
                prop_assert_eq!(a.solution.status, b.solution.status, "{}", a.name);
                prop_assert_eq!(a.solution.cost, b.solution.cost, "{}", a.name);
            }
        }
    }
}

/// A pre-raised flag cancels a whole portfolio race deterministically:
/// zero decisions anywhere, status Unknown, and the same portfolio
/// solves the instance once the flag is lowered.
#[test]
fn pre_raised_flag_stops_portfolio_before_any_work() {
    let w = random_weighted_wcnf(&WeightedConfig::default());
    let stop = Arc::new(AtomicBool::new(true));
    let mut portfolio = Portfolio::new(4);
    portfolio.set_budget(Budget::new().with_stop_flag(stop.clone()));
    let outcome = portfolio.solve(&w);
    assert_eq!(outcome.solution.status, MaxSatStatus::Unknown);
    assert!(outcome.winner.is_none());
    assert_eq!(outcome.total_stats.sat.decisions, 0);

    stop.store(false, Ordering::Relaxed);
    let outcome = portfolio.solve(&w);
    assert_eq!(outcome.solution.status, MaxSatStatus::Optimal);
    assert!(verify_solution(&w, &outcome.solution));
}

/// Every clause of `cnf` as a hard clause, plus soft units on its first
/// three variables: a hard refutation that every member must prove.
fn hardened(cnf: &CnfFormula) -> WcnfFormula {
    let mut w = WcnfFormula::new();
    for _ in 0..cnf.num_vars() {
        w.new_var();
    }
    for c in cnf.clauses() {
        w.add_hard(c.iter().copied());
    }
    for i in 0..3.min(cnf.num_vars()) {
        w.add_soft([Lit::positive(Var::new(i as u32))], 1);
    }
    w
}

/// Hard implication chain `x1 → x2 → … → xn` with soft endpoints
/// (optimum 1): easy for every member.
fn chain(n: usize) -> WcnfFormula {
    let mut w = WcnfFormula::new();
    for _ in 0..n {
        w.new_var();
    }
    for i in 0..n - 1 {
        w.add_hard([
            Lit::negative(Var::new(i as u32)),
            Lit::positive(Var::new(i as u32 + 1)),
        ]);
    }
    w.add_soft([Lit::positive(Var::new(0))], 1);
    w.add_soft([Lit::negative(Var::new(n as u32 - 1))], 1);
    w
}

/// Races on structured instances, beyond the oracle's reach: hard
/// pigeonhole and random-UNSAT refutations, a hard chain and an
/// all-soft miter. Every race at jobs 1, 2, 4 and 8 must return a
/// verified solution, and all exact verdicts on an instance must agree.
/// A budget abort is checked only for verification: which race aborts
/// first on a loaded host is timing.
#[test]
fn races_agree_on_structured_instances() {
    let mut instances: Vec<(String, WcnfFormula)> = (5..=7)
        .map(|holes| (format!("php-hard-{holes}"), hardened(&pigeonhole(holes))))
        .collect();
    for (vars, seed) in [(24, 42), (28, 43)] {
        instances.push((
            format!("rand3-hard-{vars}"),
            hardened(&random_unsat_3cnf(vars, seed)),
        ));
    }
    instances.push(("chain-partial-64".into(), chain(64)));
    instances.push((
        "equiv-soft-1-6".into(),
        WcnfFormula::from_cnf_all_soft(&equiv_instance(1, 6)),
    ));
    for (name, w) in &instances {
        let mut key = None;
        for jobs in [1, 2, 4, 8] {
            let mut portfolio = Portfolio::new(jobs);
            portfolio.set_budget(Budget::new().with_timeout(Duration::from_secs(20)));
            let solution = portfolio.solve(w).solution;
            let run = format!("{name} jobs={jobs}");
            assert!(verify_solution(w, &solution), "{run}: failed verification");
            if solution.status == MaxSatStatus::Unknown {
                continue;
            }
            let verdict = (solution.status, solution.cost);
            assert_eq!(*key.get_or_insert(verdict), verdict, "{run}: disagreement");
        }
    }
}
