//! Portfolio racing: K solver configurations, one instance, first exact
//! answer wins under a deterministic tie-break.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use coremax::{
    MaxSatSolution, MaxSatSolver, MaxSatStats, MaxSatStatus, Msu3, Msu4, Oll, Preprocessed,
    Stratified, Wmsu1,
};
use coremax_cnf::{WcnfFormula, Weight};
use coremax_sat::Budget;

/// Which base algorithm a portfolio member runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BaseAlgo {
    Msu4V2,
    Msu4V1,
    Msu4Inc,
    Msu3,
    Wmsu1,
    Oll,
    StratMsu4,
}

/// One racing configuration: a base algorithm, optionally behind the
/// `coremax_simp` preprocessing pipeline.
///
/// Members whose base algorithm is weight-restricted are transparently
/// wrapped in [`Stratified`] when the instance is weighted, so every
/// member is exact on every instance it receives.
#[derive(Debug, Clone)]
pub struct PortfolioMember {
    name: &'static str,
    base: BaseAlgo,
    preprocess: bool,
}

impl PortfolioMember {
    /// The member's stable display name (e.g. `msu4-v2+simp`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Builds a fresh solver for this member. `weighted` selects the
    /// stratification wrapper for weight-restricted base algorithms.
    fn build(&self, weighted: bool) -> Box<dyn MaxSatSolver + Send> {
        let mut solver: Box<dyn MaxSatSolver + Send> = match self.base {
            BaseAlgo::Msu4V2 => Box::new(Msu4::v2()),
            BaseAlgo::Msu4V1 => Box::new(Msu4::v1()),
            BaseAlgo::Msu4Inc => Box::new(Msu4::incremental()),
            BaseAlgo::Msu3 => Box::new(Msu3::new()),
            BaseAlgo::Wmsu1 => Box::new(Wmsu1::new()),
            BaseAlgo::Oll => Box::new(Oll::new()),
            BaseAlgo::StratMsu4 => Box::new(Stratified::new(Msu4::v2())),
        };
        if weighted && !solver.supports_weights() {
            solver = Box::new(Stratified::new(solver));
        }
        if self.preprocess {
            solver = Box::new(Preprocessed::new(solver));
        }
        solver
    }
}

/// Summary of one member's run within a race.
#[derive(Debug, Clone)]
pub struct MemberRun {
    /// Member name.
    pub name: &'static str,
    /// Outcome status; `None` when the member never produced a result
    /// (the race ended before a worker picked it up).
    pub status: Option<MaxSatStatus>,
    /// The member's reported cost, when it produced one.
    pub cost: Option<Weight>,
    /// The member's certified lower bound, when it produced a result.
    pub lower_bound: Option<Weight>,
}

/// Result of a portfolio race.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// Winning member name (`None` when no member finished exactly).
    pub winner: Option<&'static str>,
    /// Winning member index (the deterministic priority tie-break:
    /// lowest index among exact finishers).
    pub winner_index: Option<usize>,
    /// The reported solution: the winner's, or — when nothing finished
    /// exactly within budget — the best-bound `Unknown` among the
    /// members that produced a result. The thread-count-invariance
    /// guarantee covers *exact* outcomes only; which members reach a
    /// bound before a wall-clock deadline is inherently
    /// timing-dependent, exactly as sequential timeouts already are.
    pub solution: MaxSatSolution,
    /// Per-member run summaries, in member-priority order. Which losers
    /// carry a (cancelled) result is timing-dependent; the *winning*
    /// answer is not.
    pub runs: Vec<MemberRun>,
    /// Work counters aggregated over every member that produced a
    /// result — the whole race's effort, unlike `solution.stats`
    /// (the winner's own counters, which stay thread-count-invariant
    /// in what they describe). `total_stats.wall_time` is the race's
    /// wall-clock span; `solution.stats.wall_time` stays the winner's
    /// own solve time.
    pub total_stats: MaxSatStats,
}

/// Races K solver configurations on one instance across worker threads.
///
/// See the [crate docs](crate) for the determinism guarantee. The
/// portfolio also implements [`MaxSatSolver`], reporting the winner's
/// solution, so it can slot into any existing driver (CLI, batch,
/// verification harnesses).
#[derive(Debug, Clone)]
pub struct Portfolio {
    members: Vec<PortfolioMember>,
    jobs: usize,
    budget: Budget,
}

impl Portfolio {
    /// A portfolio over [`Portfolio::default_members`] using `jobs`
    /// worker threads (clamped to ≥ 1).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Portfolio {
            members: Portfolio::default_members(),
            jobs: jobs.max(1),
            budget: Budget::new(),
        }
    }

    /// A portfolio over an explicit member list. Order is priority:
    /// on ties the lowest-index exact finisher is reported.
    #[must_use]
    pub fn with_members(jobs: usize, members: Vec<PortfolioMember>) -> Self {
        Portfolio {
            members,
            jobs: jobs.max(1),
            budget: Budget::new(),
        }
    }

    /// The default racing line-up: the paper's strongest variants first,
    /// each bare and behind the `coremax_simp` pipeline.
    #[must_use]
    pub fn default_members() -> Vec<PortfolioMember> {
        let bases: [(&'static str, &'static str, BaseAlgo); 7] = [
            ("msu4-v2", "msu4-v2+simp", BaseAlgo::Msu4V2),
            ("msu4-inc", "msu4-inc+simp", BaseAlgo::Msu4Inc),
            ("oll", "oll+simp", BaseAlgo::Oll),
            ("msu4-v1", "msu4-v1+simp", BaseAlgo::Msu4V1),
            ("msu3", "msu3+simp", BaseAlgo::Msu3),
            ("wmsu1", "wmsu1+simp", BaseAlgo::Wmsu1),
            ("strat-msu4", "strat-msu4+simp", BaseAlgo::StratMsu4),
        ];
        let mut members = Vec::with_capacity(bases.len() * 2);
        for (bare, simp, base) in bases {
            members.push(PortfolioMember {
                name: bare,
                base,
                preprocess: false,
            });
            members.push(PortfolioMember {
                name: simp,
                base,
                preprocess: true,
            });
        }
        members
    }

    /// The member list, in priority order.
    #[must_use]
    pub fn members(&self) -> &[PortfolioMember] {
        &self.members
    }

    /// Sets the per-race budget (shared by every member).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Races all members on `wcnf` and returns the deterministic
    /// winner.
    ///
    /// The first member to finish with an exact verdict (`Optimal` or
    /// `Infeasible`) raises a shared stop flag; running members are
    /// interrupted within a bounded number of propagations and members
    /// not yet started are skipped. The *reported* winner is then the
    /// lowest-priority-index exact finisher — never the wall-clock
    /// first — so whenever a race produces an exact verdict,
    /// `(status, cost, model cost)` is identical for any `jobs` value.
    /// (All-`Unknown` races under a wall-clock budget report a
    /// best-effort bound; see [`PortfolioOutcome::solution`].)
    #[must_use]
    pub fn solve(&self, wcnf: &WcnfFormula) -> PortfolioOutcome {
        let start = Instant::now();
        let weighted = !wcnf.is_unweighted();
        let members = &self.members;
        let race_stop = Arc::new(AtomicBool::new(false));
        // Resolve the caller's limits ONCE, at race start: a relative
        // timeout handed out unresolved would restart its clock in every
        // member, letting a K-member race run up to K× the requested
        // bound, and a cap would be spent K times over. Every member
        // charges the race's one work pool, so the race as a whole
        // respects the cap (give or take one polling interval per
        // member).
        let member_budget = self.budget.child(start).with_stop_flag(race_stop.clone());
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<MaxSatSolution>>> =
            members.iter().map(|_| Mutex::new(None)).collect();

        let workers = self.jobs.min(members.len()).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= members.len() {
                        break;
                    }
                    if race_stop.load(Ordering::Relaxed) {
                        // A winner committed: skip unstarted members.
                        // Each claimed member still gets a lifecycle
                        // event, so event streams stay balanced (every
                        // member index appears exactly once as
                        // started/skipped).
                        if coremax_obs::tracing_enabled() {
                            coremax_obs::emit(coremax_obs::Event::MemberSkipped {
                                index: i as u64,
                                name: members[i].name,
                            });
                        }
                        continue;
                    }
                    if coremax_obs::tracing_enabled() {
                        coremax_obs::emit(coremax_obs::Event::MemberStarted {
                            index: i as u64,
                            name: members[i].name,
                        });
                    }
                    let mut solver = members[i].build(weighted);
                    solver.set_budget(member_budget.clone());
                    let solution = solver.solve(wcnf);
                    let exact = matches!(
                        solution.status,
                        MaxSatStatus::Optimal | MaxSatStatus::Infeasible
                    );
                    if coremax_obs::tracing_enabled() {
                        if exact {
                            coremax_obs::emit(coremax_obs::Event::MemberFinished {
                                index: i as u64,
                                name: members[i].name,
                                status: match solution.status {
                                    MaxSatStatus::Optimal => "optimal",
                                    _ => "infeasible",
                                },
                            });
                        } else {
                            coremax_obs::emit(coremax_obs::Event::MemberCancelled {
                                index: i as u64,
                                name: members[i].name,
                            });
                        }
                    }
                    *slots[i].lock().expect("no poisoned slot") = Some(solution);
                    if exact {
                        race_stop.store(true, Ordering::Relaxed);
                    }
                });
            }
        });

        let results: Vec<Option<MaxSatSolution>> = slots
            .into_iter()
            .map(|m| m.into_inner().expect("no poisoned slot"))
            .collect();

        let mut total_stats = MaxSatStats::default();
        for s in results.iter().flatten() {
            total_stats.absorb(&s.stats);
        }

        let runs: Vec<MemberRun> = members
            .iter()
            .zip(&results)
            .map(|(m, r)| MemberRun {
                name: m.name,
                status: r.as_ref().map(|s| s.status),
                cost: r.as_ref().and_then(|s| s.cost),
                lower_bound: r.as_ref().map(|s| s.lower_bound),
            })
            .collect();

        // Deterministic tie-break: lowest member index with an exact
        // verdict. All exact members agree on (status, cost), so the
        // reported answer does not depend on which subset finished.
        let winner_index = results.iter().position(|r| {
            r.as_ref().is_some_and(|s| {
                matches!(s.status, MaxSatStatus::Optimal | MaxSatStatus::Infeasible)
            })
        });

        if let Some(i) = winner_index {
            if coremax_obs::tracing_enabled() {
                coremax_obs::emit(coremax_obs::Event::WinnerChosen {
                    index: i as u64,
                    name: members[i].name,
                });
            }
        }

        let solution = match winner_index {
            Some(i) => results[i].clone().expect("winner slot is filled"),
            None => merge_aborted_intervals(&results),
        };
        // The race's wall-clock span belongs to the aggregate: the
        // winner's `stats.wall_time` keeps describing the winner's own
        // solve, exactly as it would sequentially.
        total_stats.wall_time = start.elapsed();

        PortfolioOutcome {
            winner: winner_index.map(|i| members[i].name),
            winner_index,
            solution,
            runs,
            total_stats,
        }
    }
}

/// Merges the certified intervals of an all-aborted race: incumbent
/// from the member with the lowest upper bound (lowest member index on
/// cost ties, so the reported incumbent is deterministic for any
/// thread count given the same member results), lower bound the
/// tightest any member proved. Every member lb is sound for the same
/// instance, so their max is too — but the lb and the incumbent come
/// from *different* members, so the lb is clamped to the incumbent's
/// cost: a merged interval must never be crossed.
fn merge_aborted_intervals(results: &[Option<MaxSatSolution>]) -> MaxSatSolution {
    let tightest_lb = results
        .iter()
        .flatten()
        .map(|s| s.lower_bound)
        .max()
        .unwrap_or(0);
    let best = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().and_then(|s| s.cost.map(|c| (c, i, s))))
        .min_by_key(|&(c, i, _)| (c, i));
    let mut merged = match best {
        Some((_, _, s)) => s.clone(),
        None => MaxSatSolution {
            status: MaxSatStatus::Unknown,
            cost: None,
            model: None,
            lower_bound: 0,
            stats: MaxSatStats::default(),
        },
    };
    merged.lower_bound = merged.lower_bound.max(tightest_lb);
    if let Some(cost) = merged.cost {
        merged.lower_bound = merged.lower_bound.min(cost);
    }
    merged
}

impl MaxSatSolver for Portfolio {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn set_budget(&mut self, budget: Budget) {
        Portfolio::set_budget(self, budget);
    }

    fn supports_weights(&self) -> bool {
        true // weight-restricted members are stratified transparently
    }

    fn solve(&mut self, wcnf: &WcnfFormula) -> MaxSatSolution {
        Portfolio::solve(self, wcnf).solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax_cnf::{dimacs, Lit};

    fn example2() -> WcnfFormula {
        let cnf = dimacs::parse_cnf(
            "p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n",
        )
        .unwrap();
        WcnfFormula::from_cnf_all_soft(&cnf)
    }

    #[test]
    fn default_members_cover_bare_and_simp() {
        let members = Portfolio::default_members();
        assert_eq!(members.len(), 14);
        assert!(members.iter().any(|m| m.name() == "msu4-v2"));
        assert!(members.iter().any(|m| m.name() == "msu4-v2+simp"));
        assert!(members.iter().any(|m| m.name() == "oll"));
        assert!(members.iter().any(|m| m.name() == "oll+simp"));
        let names: std::collections::HashSet<_> = members.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), members.len(), "member names unique");
    }

    #[test]
    fn every_member_is_exact_on_weighted_input() {
        // 99-weight sentinel-free weighted instance; the optimum is 3.
        let w = dimacs::parse_wcnf("p wcnf 2 3 99\n99 1 2 0\n100 -1 0\n3 -2 0\n").unwrap();
        for member in Portfolio::default_members() {
            let mut solver = member.build(true);
            let s = solver.solve(&w);
            assert_eq!(s.status, MaxSatStatus::Optimal, "{}", member.name());
            assert_eq!(s.cost, Some(3), "{}", member.name());
            assert!(coremax::verify_solution(&w, &s), "{}", member.name());
        }
    }

    #[test]
    fn race_reports_example2_optimum_for_any_job_count() {
        let w = example2();
        for jobs in [1, 2, 4, 8, 64] {
            let outcome = Portfolio::new(jobs).solve(&w);
            assert_eq!(
                outcome.solution.status,
                MaxSatStatus::Optimal,
                "jobs={jobs}"
            );
            assert_eq!(outcome.solution.cost, Some(2), "jobs={jobs}");
            let model = outcome.solution.model.as_ref().expect("optimal model");
            assert_eq!(w.cost(model), Some(2), "jobs={jobs}");
            assert!(outcome.winner.is_some());
            assert_eq!(
                outcome.winner_index.map(|i| outcome.runs[i].name),
                outcome.winner
            );
        }
    }

    #[test]
    fn sequential_race_winner_is_the_first_member() {
        // With one worker and no budget, member 0 always finishes
        // exactly, stops the race, and later members never start.
        let outcome = Portfolio::new(1).solve(&example2());
        assert_eq!(outcome.winner_index, Some(0));
        assert!(outcome.runs[1..].iter().all(|r| r.status.is_none()));
    }

    #[test]
    fn infeasible_hard_clauses_reported_deterministically() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_hard([Lit::negative(x)]);
        w.add_soft([Lit::positive(x)], 1);
        for jobs in [1, 4] {
            let outcome = Portfolio::new(jobs).solve(&w);
            assert_eq!(outcome.solution.status, MaxSatStatus::Infeasible);
            assert_eq!(outcome.solution.cost, None);
        }
    }

    #[test]
    fn raised_stop_flag_aborts_the_whole_race() {
        let stop = Arc::new(AtomicBool::new(true));
        let mut portfolio = Portfolio::new(4);
        portfolio.set_budget(Budget::new().with_stop_flag(stop));
        let outcome = portfolio.solve(&example2());
        assert_eq!(outcome.solution.status, MaxSatStatus::Unknown);
        assert!(outcome.winner.is_none());
        assert!(outcome
            .runs
            .iter()
            .all(|r| r.status.is_none() || r.status == Some(MaxSatStatus::Unknown)));
    }

    #[test]
    fn race_members_share_one_timeout_clock() {
        use std::time::Duration;
        // A random 3-CNF refutation no member proves within 40 ms: with
        // every member resolving the timeout from its own start, a
        // 12-member sequential race would take ~12 × 40 ms; with the
        // shared clock it ends in ~one timeout (members started after
        // the deadline abort instantly).
        let cnf = coremax_instances::random_unsat_3cnf(90, 1);
        let w = WcnfFormula::from_cnf_all_soft(&cnf);
        let mut portfolio = Portfolio::new(1);
        portfolio.set_budget(Budget::new().with_timeout(Duration::from_millis(40)));
        let t = std::time::Instant::now();
        let outcome = portfolio.solve(&w);
        let elapsed = t.elapsed();
        assert_eq!(outcome.solution.status, MaxSatStatus::Unknown);
        assert!(
            elapsed < Duration::from_millis(300),
            "race ran {elapsed:?}, expected ~one 40 ms timeout, not twelve"
        );
    }

    #[test]
    fn all_members_timeout_merges_the_certified_intervals() {
        use std::time::Duration;
        // A random 3-CNF refutation no member finishes within the
        // deadline, though members reach incumbents and lower bounds:
        // the merged solution must be the member minimum (lowest index
        // on cost ties) for the incumbent and the member maximum for the
        // lower bound — the merge property itself is thread-count-
        // invariant even though which members reach which bound is not.
        let cnf = coremax_instances::random_unsat_3cnf(90, 1);
        let w = WcnfFormula::from_cnf_all_soft(&cnf);
        for jobs in [1, 4] {
            let mut portfolio = Portfolio::new(jobs);
            portfolio.set_budget(Budget::new().with_timeout(Duration::from_millis(30)));
            let outcome = portfolio.solve(&w);
            assert_eq!(
                outcome.solution.status,
                MaxSatStatus::Unknown,
                "jobs={jobs}"
            );
            assert!(outcome.winner.is_none(), "jobs={jobs}");
            let member_min = outcome.runs.iter().filter_map(|r| r.cost).min();
            assert_eq!(
                outcome.solution.cost, member_min,
                "jobs={jobs}: incumbent must be the member minimum"
            );
            let member_max_lb = outcome
                .runs
                .iter()
                .filter_map(|r| r.lower_bound)
                .max()
                .unwrap_or(0);
            let expected_lb = match outcome.solution.cost {
                Some(cost) => member_max_lb.min(cost),
                None => member_max_lb,
            };
            assert_eq!(
                outcome.solution.lower_bound, expected_lb,
                "jobs={jobs}: lower bound must be the tightest any member \
                 proved, clamped to the incumbent"
            );
            if let Some(cost) = outcome.solution.cost {
                let model = outcome.solution.model.as_ref().expect("incumbent model");
                assert_eq!(
                    w.cost(model),
                    Some(cost),
                    "jobs={jobs}: incumbent certifies"
                );
                assert!(outcome.solution.lower_bound <= cost, "jobs={jobs}");
            }
        }
    }

    /// Synthetic aborted member: an Unknown with the given interval.
    fn aborted_member(
        cost: Option<coremax_cnf::Weight>,
        lower_bound: coremax_cnf::Weight,
        model_bits: &[bool],
    ) -> Option<MaxSatSolution> {
        Some(MaxSatSolution {
            status: MaxSatStatus::Unknown,
            cost,
            model: cost.map(|_| coremax_cnf::Assignment::from_bools(model_bits)),
            lower_bound,
            stats: MaxSatStats::default(),
        })
    }

    #[test]
    fn aborted_merge_clamps_the_lower_bound_to_the_incumbent() {
        // The tightest lb (7, from a member without an incumbent) and
        // the best incumbent (cost 5) come from different members; the
        // merged interval must not be crossed.
        let results = vec![
            aborted_member(Some(5), 1, &[true]),
            aborted_member(None, 7, &[]),
        ];
        let merged = merge_aborted_intervals(&results);
        assert_eq!(merged.cost, Some(5));
        assert_eq!(
            merged.lower_bound, 5,
            "lb must be clamped to the incumbent cost, not reported as 7"
        );
    }

    #[test]
    fn aborted_merge_breaks_cost_ties_by_lowest_member_index() {
        let results = vec![
            aborted_member(None, 2, &[]),
            aborted_member(Some(4), 3, &[true, false]),
            aborted_member(Some(4), 1, &[false, true]),
        ];
        let merged = merge_aborted_intervals(&results);
        assert_eq!(merged.cost, Some(4));
        assert_eq!(
            merged.model,
            Some(coremax_cnf::Assignment::from_bools(&[true, false])),
            "equal costs must resolve to the lowest member index"
        );
        assert_eq!(merged.lower_bound, 3, "tightest sound lb, not crossed");
    }

    #[test]
    fn aborted_merge_without_any_result_is_a_bare_unknown() {
        let merged = merge_aborted_intervals(&[None, None]);
        assert_eq!(merged.status, MaxSatStatus::Unknown);
        assert_eq!(merged.cost, None);
        assert_eq!(merged.lower_bound, 0);
    }

    #[test]
    fn pre_raised_stop_flag_interval_is_jobs_invariant() {
        // With the stop flag raised before the race starts no member
        // does any work, so the merged bare interval is identical for
        // every thread count.
        let w = example2();
        let mut baseline = None;
        for jobs in [1, 2, 4] {
            let stop = Arc::new(AtomicBool::new(true));
            let mut portfolio = Portfolio::new(jobs);
            portfolio.set_budget(Budget::new().with_stop_flag(stop));
            let outcome = portfolio.solve(&w);
            assert_eq!(outcome.solution.status, MaxSatStatus::Unknown);
            let key = (outcome.solution.cost, outcome.solution.lower_bound);
            match baseline {
                None => baseline = Some(key),
                Some(b) => assert_eq!(key, b, "jobs={jobs}: interval must not depend on jobs"),
            }
        }
    }

    #[test]
    fn conflict_cap_is_spent_once_by_the_whole_race() {
        // Regression: the race used to re-attach the caller's conflict
        // cap to every member, so a K-member race could spend K× the
        // cap. With the cap shared, the members' joint conflict total
        // must stay within the cap plus a bounded polling slack per
        // member, for any job count.
        let cnf = coremax_instances::pigeonhole(7);
        let w = WcnfFormula::from_cnf_all_soft(&cnf);
        let cap = 300u64;
        let members = Portfolio::default_members();
        let num_members = members.len() as u64;
        let mut portfolio = Portfolio::with_members(8, members);
        portfolio.set_budget(Budget::new().with_max_conflicts(cap));
        let outcome = portfolio.solve(&w);
        let spent = outcome.total_stats.sat.conflicts;
        assert!(
            spent <= cap + num_members * 64,
            "race spent {spent} conflicts against a shared cap of {cap}: \
             the cap must be metered jointly, not per member"
        );
        // Sanity: the cap was actually felt (php(7) needs far more than
        // 300 conflicts to prove UNSAT, so no member finished exactly).
        assert_eq!(outcome.solution.status, MaxSatStatus::Unknown);
    }

    #[test]
    fn winner_wall_time_is_its_own_not_the_races() {
        // Regression: the winner's `stats.wall_time` used to be
        // overwritten with the race's span. The race span lives on
        // `total_stats` only.
        let outcome = Portfolio::new(2).solve(&example2());
        assert!(outcome.winner.is_some());
        assert!(outcome.total_stats.wall_time > std::time::Duration::ZERO);
        assert!(
            outcome.solution.stats.wall_time < outcome.total_stats.wall_time,
            "winner wall_time {:?} must be its own solve time, strictly \
             inside the race span {:?}",
            outcome.solution.stats.wall_time,
            outcome.total_stats.wall_time
        );
    }

    #[test]
    fn portfolio_implements_maxsat_solver() {
        let mut solver: Box<dyn MaxSatSolver + Send> = Box::new(Portfolio::new(2));
        assert_eq!(solver.name(), "portfolio");
        assert!(solver.supports_weights());
        let s = solver.solve(&example2());
        assert_eq!(s.cost, Some(2));
    }
}
