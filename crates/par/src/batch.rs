//! Work-stealing batch execution: many instances, N workers, one
//! configuration.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use coremax::{MaxSatSolution, MaxSatSolver, MaxSatStats, MaxSatStatus};
use coremax_cnf::WcnfFormula;
use coremax_sat::Budget;

/// Knobs for [`solve_batch`].
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads (clamped to ≥ 1).
    pub jobs: usize,
    /// Per-instance budget (each instance starts a fresh clock and work
    /// pool).
    pub budget: Budget,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            jobs: 1,
            budget: Budget::new(),
        }
    }
}

/// One instance's result within a batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Instance name, as given in the input list.
    pub name: String,
    /// The solution (statuses and costs are identical to a sequential
    /// run of the same configuration on the same instance).
    pub solution: MaxSatSolution,
}

/// Aggregated results of a batch run, in input order.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-instance outcomes, ordered as the input list (independent of
    /// which worker solved what).
    pub outcomes: Vec<BatchOutcome>,
    /// Wall-clock time of the whole batch.
    pub wall_time: Duration,
    /// Work counters summed over every instance.
    pub total_stats: MaxSatStats,
    /// Instances proven optimal.
    pub optimal: usize,
    /// Instances with infeasible hard clauses.
    pub infeasible: usize,
    /// Instances aborted within budget (the paper's "aborted" column).
    pub unknown: usize,
}

impl BatchReport {
    /// Sum of per-instance solve times — the sequential-equivalent cost
    /// of the batch. `wall_time` below this means parallelism paid off.
    #[must_use]
    pub fn cpu_time(&self) -> Duration {
        self.outcomes
            .iter()
            .map(|o| o.solution.stats.wall_time)
            .sum()
    }
}

/// Solves every `(name, instance)` pair with a fresh solver from
/// `make_solver`, stealing work across `options.jobs` threads.
///
/// Work stealing is index-based: workers atomically pop the next
/// unsolved instance, so long instances never serialise the queue
/// behind them. Per-instance results are deterministic — the same
/// configuration solves each instance no matter which worker runs it or
/// how many workers exist — and are reported in input order.
#[must_use]
pub fn solve_batch<F>(
    items: &[(&str, &WcnfFormula)],
    make_solver: F,
    options: &BatchOptions,
) -> BatchReport
where
    F: Fn() -> Box<dyn MaxSatSolver + Send> + Sync,
{
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<MaxSatSolution>>> =
        items.iter().map(|_| Mutex::new(None)).collect();

    let workers = options.jobs.max(1).min(items.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= items.len() {
                    break;
                }
                let mut solver = make_solver();
                solver.set_budget(options.budget.clone());
                let solution = solver.solve(items[i].1);
                *slots[i].lock().expect("no poisoned slot") = Some(solution);
            });
        }
    });

    let mut total_stats = MaxSatStats::default();
    let (mut optimal, mut infeasible, mut unknown) = (0usize, 0usize, 0usize);
    let outcomes: Vec<BatchOutcome> = items
        .iter()
        .zip(slots)
        .map(|(&(name, _), slot)| {
            let solution = slot
                .into_inner()
                .expect("no poisoned slot")
                .expect("every queued instance is solved");
            total_stats.absorb(&solution.stats);
            match solution.status {
                MaxSatStatus::Optimal => optimal += 1,
                MaxSatStatus::Infeasible => infeasible += 1,
                MaxSatStatus::Unknown => unknown += 1,
            }
            BatchOutcome {
                name: name.to_string(),
                solution,
            }
        })
        .collect();
    total_stats.wall_time = start.elapsed();

    BatchReport {
        outcomes,
        wall_time: total_stats.wall_time,
        total_stats,
        optimal,
        infeasible,
        unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax::Msu4;
    use coremax_cnf::{dimacs, Lit};

    fn instances() -> Vec<(String, WcnfFormula)> {
        let mut out = Vec::new();
        // A few small all-soft UNSAT formulas with known optima.
        for (name, text, _cost) in [
            ("units", "p cnf 1 2\n1 0\n-1 0\n", 1),
            (
                "example2",
                "p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n",
                2,
            ),
            ("pair", "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n", 1),
        ] {
            let cnf = dimacs::parse_cnf(text).unwrap();
            out.push((name.to_string(), WcnfFormula::from_cnf_all_soft(&cnf)));
        }
        // And one with infeasible hard clauses.
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_hard([Lit::negative(x)]);
        w.add_soft([Lit::positive(x)], 1);
        out.push(("infeasible".to_string(), w));
        out
    }

    #[test]
    fn batch_results_are_job_count_invariant_and_in_input_order() {
        let owned = instances();
        let items: Vec<(&str, &WcnfFormula)> = owned.iter().map(|(n, w)| (n.as_str(), w)).collect();
        let run = |jobs: usize| {
            solve_batch(
                &items,
                || Box::new(Msu4::v2()) as Box<dyn MaxSatSolver + Send>,
                &BatchOptions {
                    jobs,
                    budget: Budget::new(),
                },
            )
        };
        let seq = run(1);
        assert_eq!(seq.optimal, 3);
        assert_eq!(seq.infeasible, 1);
        assert_eq!(seq.unknown, 0);
        for jobs in [2, 4, 8] {
            let par = run(jobs);
            assert_eq!(par.outcomes.len(), seq.outcomes.len());
            for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
                assert_eq!(a.name, b.name, "input order preserved");
                assert_eq!(a.solution.status, b.solution.status, "{}", a.name);
                assert_eq!(a.solution.cost, b.solution.cost, "{}", a.name);
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = solve_batch(
            &[],
            || Box::new(Msu4::v2()) as Box<dyn MaxSatSolver + Send>,
            &BatchOptions::default(),
        );
        assert!(report.outcomes.is_empty());
        assert_eq!(report.optimal + report.infeasible + report.unknown, 0);
    }

    #[test]
    fn cpu_time_sums_instance_times() {
        let owned = instances();
        let items: Vec<(&str, &WcnfFormula)> = owned.iter().map(|(n, w)| (n.as_str(), w)).collect();
        let report = solve_batch(
            &items,
            || Box::new(Msu4::v2()) as Box<dyn MaxSatSolver + Send>,
            &BatchOptions::default(),
        );
        let sum: Duration = report
            .outcomes
            .iter()
            .map(|o| o.solution.stats.wall_time)
            .sum();
        assert_eq!(report.cpu_time(), sum);
    }
}
