//! New-config-surface coverage on the generated instance suite: Luby
//! and glucose restart modes must reach the same verdicts on the small
//! families, the binary watch lists must actually carry propagations,
//! and the new `SolverStats` counters must move as designed.

use coremax_cnf::WcnfFormula;
use coremax_instances::{full_suite, SuiteConfig};
use coremax_sat::{RestartMode, SolveOutcome, Solver, SolverConfig, SolverStats};

/// Loads every clause of the instance (hard and soft alike) into a
/// plain SAT solver.
fn sat_solver_for(wcnf: &WcnfFormula, config: SolverConfig) -> Solver {
    let mut solver = Solver::with_config(config);
    solver.ensure_vars(wcnf.num_vars());
    for c in wcnf.hard_clauses() {
        solver.add_clause(c.lits().iter().copied());
    }
    for s in wcnf.soft_clauses() {
        solver.add_clause(s.clause.lits().iter().copied());
    }
    solver
}

fn small_suite() -> Vec<(String, WcnfFormula)> {
    full_suite(&SuiteConfig::default())
        .into_iter()
        .filter(|i| i.wcnf.num_vars() <= 120)
        .map(|i| (i.name, i.wcnf))
        .collect()
}

#[test]
fn luby_and_glucose_reach_the_same_outcomes() {
    let glucose_config = SolverConfig {
        restart_mode: RestartMode::Glucose,
        glucose_lbd_window: 10,
        ..SolverConfig::default()
    };
    let suite = small_suite();
    assert!(suite.len() >= 5, "suite filter too strict: {}", suite.len());
    let mut luby_stats = SolverStats::default();
    let mut glucose_stats = SolverStats::default();
    for (name, wcnf) in &suite {
        let mut luby = sat_solver_for(wcnf, SolverConfig::default());
        let mut glucose = sat_solver_for(wcnf, glucose_config.clone());
        let (a, b) = (luby.solve(), glucose.solve());
        assert_ne!(a, SolveOutcome::Unknown, "{name}: no budget set");
        assert_eq!(a, b, "{name}: restart modes disagree");
        if a == SolveOutcome::Unsat {
            assert!(!luby.is_ok(), "{name}: not refuted");
            assert!(!glucose.is_ok(), "{name}: not refuted");
        }
        luby_stats.absorb(luby.stats());
        glucose_stats.absorb(glucose.stats());
    }
    // The restart accounting must attribute restarts to the right mode.
    assert_eq!(luby_stats.restarts_glucose, 0);
    assert_eq!(luby_stats.restarts, luby_stats.restarts_luby);
    assert_eq!(glucose_stats.restarts_luby, 0);
    assert_eq!(glucose_stats.restarts, glucose_stats.restarts_glucose);
}

#[test]
fn new_counters_move_on_the_suite() {
    let mut total = SolverStats::default();
    for (_, wcnf) in small_suite() {
        let mut solver = sat_solver_for(&wcnf, SolverConfig::default());
        let _ = solver.solve();
        total.absorb(solver.stats());
    }
    assert!(total.propagations > 0);
    assert!(
        total.bin_propagations > 0,
        "binary watch lists never fired: {total}"
    );
    assert!(total.conflicts > 0);
    // Every conflict lands in exactly one LBD histogram bucket.
    assert_eq!(total.lbd_hist.iter().sum::<u64>(), total.conflicts);
    assert_eq!(total.learned_clauses, total.conflicts);
    assert!(total.peak_learned > 0);
}

#[test]
fn forced_gc_on_suite_instances_keeps_verdicts() {
    let gc_config = SolverConfig {
        learntsize_factor: 0.01,
        learntsize_inc: 1.01,
        min_learnts: 5.0,
        gc_frac: 0.0,
        ..SolverConfig::default()
    };
    let mut gc_seen = 0u64;
    for (name, wcnf) in small_suite() {
        let mut plain = sat_solver_for(&wcnf, SolverConfig::default());
        let mut stressed = sat_solver_for(&wcnf, gc_config.clone());
        assert_eq!(
            plain.solve(),
            stressed.solve(),
            "{name}: forced GC changed the verdict"
        );
        gc_seen += stressed.stats().gc_runs;
    }
    assert!(gc_seen > 0, "tiny learnt cap must trigger collections");
}
