//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! The paper's binaries (`table1`, `table2`, `cactus`, `scatter`) and
//! the CI baselines `perf_baseline`, `weighted_baseline`,
//! `parallel_baseline` and `anytime_baseline` use these helpers to run
//! every solver over the generated instance suite under a per-instance
//! budget and collect outcome/time rows. `sharing_baseline`,
//! `obs_overhead_check` and the Criterion benches stand alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fi;

use std::time::Duration;

use coremax::{
    verify_solution, BinarySearchSat, BranchBound, LinearSearchSat, MaxSatSolver, MaxSatStatus,
    Msu1, Msu2, Msu3, Msu4, Oll, PboBaseline, Preprocessed, Stratified, Wmsu1,
};
use coremax_instances::Instance;
use coremax_sat::Budget;
use coremax_simp::SimpStats;

/// One solver run on one instance.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Instance name.
    pub instance: String,
    /// Instance family name.
    pub family: &'static str,
    /// Solver name.
    pub solver: &'static str,
    /// Whether the run went through the preprocessing pipeline.
    pub preprocess: bool,
    /// Outcome.
    pub status: MaxSatStatus,
    /// Proven (or best-known) cost.
    pub cost: Option<u64>,
    /// Certified lower bound — equals `cost` on optimal runs, a sound
    /// partial bound on aborted ones.
    pub lower_bound: u64,
    /// Wall-clock time.
    pub time: Duration,
    /// CDCL propagations aggregated over the run's SAT calls.
    pub sat_propagations: u64,
    /// CDCL conflicts aggregated over the run's SAT calls.
    pub sat_conflicts: u64,
    /// Incremental totalizer bound extensions (OLL-style solvers;
    /// zero for the others).
    pub totalizer_extensions: u64,
    /// Preprocessing counters (zeros when `preprocess` is false).
    pub simp: SimpStats,
    /// `verify_solution` verdict against the *original* instance —
    /// reconstructed models must check out exactly like direct ones.
    pub verified: bool,
    /// Anytime time-series: the certified `[lb, ub]` staircase sampled
    /// from the run's bounds/incumbent events, relative to the run's
    /// start. Empty unless the run was captured by
    /// [`run_solver_over_traced`].
    pub samples: Vec<coremax_obs::BoundSample>,
}

impl RunRecord {
    /// `true` when the paper would count the run as *aborted*.
    #[must_use]
    pub fn aborted(&self) -> bool {
        self.status == MaxSatStatus::Unknown
    }
}

/// Builds a solver by experiment name. The set matches the paper's
/// evaluation: `maxsatz`, `pbo`, `msu4v1`, `msu4v2`, plus the extended
/// family (`msu1`, `msu2`, `msu3`, `linear`, `binary`) and the weighted
/// line-up (`wmsu1`, `strat-msu3`, `strat-msu4`, `oll`, `strat-oll`).
///
/// # Panics
///
/// Panics on an unknown name (experiment configs are static).
#[must_use]
pub fn solver_by_name(name: &str) -> Box<dyn MaxSatSolver> {
    solver_by_name_send(name) as Box<dyn MaxSatSolver>
}

/// [`solver_by_name`] as a [`Send`] trait object — what the parallel
/// baseline moves across batch workers.
///
/// # Panics
///
/// Panics on an unknown name (experiment configs are static).
#[must_use]
pub fn solver_by_name_send(name: &str) -> Box<dyn MaxSatSolver + Send> {
    match name {
        "maxsatz" => Box::new(BranchBound::new()),
        "pbo" => Box::new(PboBaseline::new()),
        "msu4v1" => Box::new(Msu4::v1()),
        "msu4v2" => Box::new(Msu4::v2()),
        "msu4inc" => Box::new(coremax::Msu4Incremental::new()),
        "msu1" => Box::new(Msu1::new()),
        "msu2" => Box::new(Msu2::new()),
        "msu3" => Box::new(Msu3::new()),
        "linear" => Box::new(LinearSearchSat::new()),
        "binary" => Box::new(BinarySearchSat::new()),
        "wmsu1" => Box::new(Wmsu1::new()),
        "oll" => Box::new(Oll::new()),
        "strat-msu3" => Box::new(Stratified::new(Msu3::new())),
        "strat-msu4" => Box::new(Stratified::new(Msu4::v2())),
        "strat-oll" => Box::new(Stratified::new(Oll::new())),
        other => panic!("unknown experiment solver `{other}`"),
    }
}

/// The paper's Table 1 / Table 2 solver line-up.
pub const PAPER_SOLVERS: [&str; 4] = ["maxsatz", "pbo", "msu4v1", "msu4v2"];

/// The weighted-evaluation line-up: the native weight-aware paths,
/// including the OLL/RC2-class solver bare and behind the stratified
/// wrapper.
pub const WEIGHTED_SOLVERS: [&str; 5] = ["wmsu1", "strat-msu3", "strat-msu4", "oll", "strat-oll"];

/// Runs `solver_name` over `instances` with `budget` per instance
/// (no preprocessing).
#[must_use]
pub fn run_solver_over(
    solver_name: &str,
    instances: &[Instance],
    budget: Duration,
) -> Vec<RunRecord> {
    run_solver_over_opts(solver_name, instances, budget, false)
}

/// Runs `solver_name` over `instances` with `budget` per instance,
/// optionally wrapping the solver in the [`Preprocessed`] pipeline.
/// Every solution — reconstructed or not — is verified against the
/// original instance and the verdict recorded.
#[must_use]
pub fn run_solver_over_opts(
    solver_name: &str,
    instances: &[Instance],
    budget: Duration,
    preprocess: bool,
) -> Vec<RunRecord> {
    let inner = solver_by_name(solver_name);
    let mut solver: Box<dyn MaxSatSolver> = if preprocess {
        Box::new(Preprocessed::new(inner))
    } else {
        inner
    };
    // Tables are keyed by the experiment alias, not the solver's own
    // `name()` (e.g. `msu4v2` instead of `msu4-v2`).
    let static_name: &'static str = experiment_alias(solver_name);
    instances
        .iter()
        .map(|instance| {
            solver.set_budget(Budget::new().with_timeout(budget));
            let solution = solver.solve(&instance.wcnf);
            let verified = verify_solution(&instance.wcnf, &solution);
            RunRecord {
                instance: instance.name.clone(),
                family: instance.family.name(),
                solver: static_name,
                preprocess,
                status: solution.status,
                cost: solution.cost,
                lower_bound: solution.lower_bound,
                time: solution.stats.wall_time,
                sat_propagations: solution.stats.sat.propagations,
                sat_conflicts: solution.stats.sat.conflicts,
                totalizer_extensions: solution.stats.totalizer_extensions,
                simp: solution.stats.simp,
                verified,
                samples: Vec::new(),
            }
        })
        .collect()
}

/// [`run_solver_over_opts`] with an observability collector attached to
/// every run: each record's [`RunRecord::samples`] holds the certified
/// anytime `(elapsed, lb, ub)` staircase reconstructed from the run's
/// bounds and incumbent events.
///
/// Installs the process-wide event sink for the duration of each solve,
/// so it must not run concurrently with other traced work.
#[must_use]
pub fn run_solver_over_traced(
    solver_name: &str,
    instances: &[Instance],
    budget: Duration,
    preprocess: bool,
) -> Vec<RunRecord> {
    let inner = solver_by_name(solver_name);
    let mut solver: Box<dyn MaxSatSolver> = if preprocess {
        Box::new(Preprocessed::new(inner))
    } else {
        inner
    };
    let static_name: &'static str = experiment_alias(solver_name);
    instances
        .iter()
        .map(|instance| {
            let collector = std::sync::Arc::new(coremax_obs::CollectorSink::new());
            let guard = coremax_obs::install(collector.clone(), false);
            solver.set_budget(Budget::new().with_timeout(budget));
            let solution = solver.solve(&instance.wcnf);
            drop(guard);
            let verified = verify_solution(&instance.wcnf, &solution);
            RunRecord {
                instance: instance.name.clone(),
                family: instance.family.name(),
                solver: static_name,
                preprocess,
                status: solution.status,
                cost: solution.cost,
                lower_bound: solution.lower_bound,
                time: solution.stats.wall_time,
                sat_propagations: solution.stats.sat.propagations,
                sat_conflicts: solution.stats.sat.conflicts,
                totalizer_extensions: solution.stats.totalizer_extensions,
                simp: solution.stats.simp,
                verified,
                samples: collector.bound_samples(),
            }
        })
        .collect()
}

fn experiment_alias(name: &str) -> &'static str {
    match name {
        "maxsatz" => "maxsatz",
        "pbo" => "pbo",
        "msu4v1" => "msu4v1",
        "msu4v2" => "msu4v2",
        "msu4inc" => "msu4inc",
        "msu1" => "msu1",
        "msu2" => "msu2",
        "msu3" => "msu3",
        "linear" => "linear",
        "binary" => "binary",
        "wmsu1" => "wmsu1",
        "oll" => "oll",
        "strat-msu3" => "strat-msu3",
        "strat-msu4" => "strat-msu4",
        "strat-oll" => "strat-oll",
        _ => "unknown",
    }
}

/// Counts aborted instances per solver, in `solvers` order — the shape
/// of the paper's Table 1 and Table 2.
#[must_use]
pub fn aborted_counts(records: &[RunRecord], solvers: &[&str]) -> Vec<(String, usize)> {
    solvers
        .iter()
        .map(|&s| {
            let aborted = records
                .iter()
                .filter(|r| r.solver == s && r.aborted())
                .count();
            (s.to_string(), aborted)
        })
        .collect()
}

/// Checks that all solvers that finished an instance agree on its cost.
/// Returns the disagreeing instance names (empty = consistent).
#[must_use]
pub fn consistency_violations(records: &[RunRecord]) -> Vec<String> {
    use std::collections::HashMap;
    let mut by_instance: HashMap<&str, Vec<&RunRecord>> = HashMap::new();
    for r in records {
        if r.status == MaxSatStatus::Optimal {
            by_instance.entry(&r.instance).or_default().push(r);
        }
    }
    let mut bad = Vec::new();
    for (name, rs) in by_instance {
        let costs: Vec<Option<u64>> = rs.iter().map(|r| r.cost).collect();
        if costs.windows(2).any(|w| w[0] != w[1]) {
            bad.push(name.to_string());
        }
    }
    bad.sort();
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax_instances::{full_suite, SuiteConfig};

    #[test]
    fn solver_registry_complete() {
        for name in PAPER_SOLVERS {
            let s = solver_by_name(name);
            assert!(!s.name().is_empty());
        }
        for name in WEIGHTED_SOLVERS {
            let s = solver_by_name(name);
            assert!(s.supports_weights(), "{name} must take weighted input");
        }
    }

    #[test]
    fn weighted_lineup_agrees_on_the_weighted_suite() {
        use coremax_instances::weighted_suite;
        let suite: Vec<_> = weighted_suite(&SuiteConfig::default())
            .into_iter()
            // Keep it quick: three light-total instances, which every
            // lineup member solves in milliseconds.
            .filter(|i| i.wcnf.total_soft_weight() <= 100_000)
            .take(3)
            .collect();
        assert!(!suite.is_empty());
        let mut records = Vec::new();
        for name in WEIGHTED_SOLVERS {
            records.extend(run_solver_over_opts(
                name,
                &suite,
                Duration::from_secs(20),
                false,
            ));
        }
        assert!(records.iter().all(|r| r.verified), "all runs verified");
        assert!(
            consistency_violations(&records).is_empty(),
            "weighted solvers disagree"
        );
    }

    #[test]
    #[should_panic(expected = "unknown experiment solver")]
    fn unknown_solver_panics() {
        let _ = solver_by_name("does-not-exist");
    }

    #[test]
    fn run_and_count() {
        let suite = full_suite(&SuiteConfig::default());
        let small: Vec<_> = suite.into_iter().take(3).collect();
        let records = run_solver_over("msu4v2", &small, Duration::from_secs(20));
        assert_eq!(records.len(), 3);
        let counts = aborted_counts(&records, &["msu4v2"]);
        assert_eq!(counts[0].0, "msu4v2");
        assert!(counts[0].1 <= 3);
        assert!(records.iter().all(|r| !r.preprocess));
        assert!(records.iter().all(|r| r.verified));
    }

    #[test]
    fn preprocessed_runs_agree_and_verify() {
        let suite = full_suite(&SuiteConfig::default());
        // The debug family is partial MaxSAT: the simplifier has hard
        // clauses to chew on there.
        let small: Vec<_> = suite
            .into_iter()
            .filter(|i| i.family.name() == "debug")
            .take(2)
            .collect();
        assert!(!small.is_empty());
        let plain = run_solver_over_opts("msu4v2", &small, Duration::from_secs(20), false);
        let pre = run_solver_over_opts("msu4v2", &small, Duration::from_secs(20), true);
        for (a, b) in plain.iter().zip(&pre) {
            assert_eq!(a.instance, b.instance);
            assert!(b.preprocess);
            assert_eq!(a.cost, b.cost, "preprocessing changed the optimum");
            assert!(b.verified, "reconstructed model failed verification");
            assert!(b.simp.vars_in > 0, "simp counters populated");
        }
    }

    #[test]
    fn consistency_check_detects_disagreement() {
        let a = RunRecord {
            instance: "x".into(),
            family: "php",
            solver: "a",
            preprocess: false,
            status: MaxSatStatus::Optimal,
            cost: Some(1),
            lower_bound: 1,
            time: Duration::ZERO,
            sat_propagations: 0,
            sat_conflicts: 0,
            totalizer_extensions: 0,
            simp: SimpStats::default(),
            verified: true,
            samples: Vec::new(),
        };
        let mut b = a.clone();
        b.solver = "b";
        b.cost = Some(2);
        assert_eq!(
            consistency_violations(&[a.clone(), b]),
            vec!["x".to_string()]
        );
        let b2 = RunRecord {
            cost: Some(1),
            solver: "b",
            ..a.clone()
        };
        assert!(consistency_violations(&[a, b2]).is_empty());
    }
}
