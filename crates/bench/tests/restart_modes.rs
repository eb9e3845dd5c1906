//! New-config-surface coverage on the generated instance suite: the
//! binary watch lists must actually carry propagations, the new
//! `SolverStats` counters must move as designed, and forced arena
//! collections must keep every verdict.

use coremax_cnf::WcnfFormula;
use coremax_instances::{full_suite, SuiteConfig};
use coremax_sat::{Solver, SolverConfig, SolverStats};

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
