//! Robustness of the CDCL solver across configuration extremes: every
//! configuration must stay sound (agree with the exhaustive reference in
//! `oracle`, once a DPLL, hence the test names) even when heuristics are
//! handicapped.

mod oracle;

use coremax_cnf::{CnfFormula, Lit, Var};
use coremax_sat::{RestartMode, SolveOutcome, Solver, SolverConfig};

fn random_cnf(seed: &mut u64, num_vars: usize, num_clauses: usize) -> CnfFormula {
    let mut next = move || {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    };
    let mut f = CnfFormula::with_vars(num_vars);
    for _ in 0..num_clauses {
        let len = 1 + (next() % 3) as usize;
        let lits: Vec<Lit> = (0..len)
            .map(|_| {
                let v = Var::new((next() % num_vars as u64) as u32);
                Lit::new(v, next() & 1 == 0)
            })
            .collect();
        f.add_clause(lits);
    }
    f
}

/// Loads clause `i` of `f` as `Cᵢ ∨ sᵢ` with a fresh selector `sᵢ` and
/// solves under every `¬sᵢ`. On UNSAT, returns the clauses whose
/// selectors failed (a failed-assumption core) as a formula.
fn selector_core(solver: &mut Solver, f: &CnfFormula) -> Option<CnfFormula> {
    solver.ensure_vars(f.num_vars());
    let enforce: Vec<Lit> = f
        .iter()
        .map(|c| {
            let sel = Lit::positive(solver.new_var());
            solver.add_clause(c.lits().iter().copied().chain([sel]));
            !sel
        })
        .collect();
    if solver.solve_with_assumptions(&enforce) != SolveOutcome::Unsat {
        return None;
    }
    let mut core = CnfFormula::with_vars(f.num_vars());
    for a in solver.failed_assumptions() {
        let i = a.var().index() - f.num_vars();
        core.add_clause(f.clause(i).lits().iter().copied());
    }
    Some(core)
}

fn configs() -> Vec<(&'static str, SolverConfig)> {
    vec![
        ("default", SolverConfig::default()),
        (
            "restart-every-conflict",
            SolverConfig {
                restart_base: 1,
                ..SolverConfig::default()
            },
        ),
        (
            "no-decay",
            SolverConfig {
                var_decay: 1.0,
                clause_decay: 1.0,
                ..SolverConfig::default()
            },
        ),
        (
            "aggressive-decay",
            SolverConfig {
                var_decay: 0.5,
                ..SolverConfig::default()
            },
        ),
        (
            "tiny-learnt-db",
            SolverConfig {
                learntsize_factor: 0.01,
                learntsize_inc: 1.01,
                min_learnts: 3.0,
                ..SolverConfig::default()
            },
        ),
        (
            "positive-phase",
            SolverConfig {
                default_phase: true,
                ..SolverConfig::default()
            },
        ),
        (
            "glucose-restarts",
            SolverConfig {
                restart_mode: RestartMode::Glucose,
                glucose_lbd_window: 8,
                ..SolverConfig::default()
            },
        ),
        (
            "gc-every-reduce",
            SolverConfig {
                learntsize_factor: 0.01,
                learntsize_inc: 1.01,
                min_learnts: 3.0,
                gc_frac: 0.0,
                ..SolverConfig::default()
            },
        ),
    ]
}

#[test]
fn all_configs_agree_with_dpll() {
    let mut seed = 0x853C49E6748FEA9Bu64;
    for round in 0..30 {
        let f = random_cnf(&mut seed, 7, 10 + round % 18);
        let expected = oracle::is_satisfiable(&f);
        for (name, config) in configs() {
            let mut solver = Solver::with_config(config);
            solver.add_formula(&f);
            let got = match solver.solve() {
                SolveOutcome::Sat => true,
                SolveOutcome::Unsat => false,
                SolveOutcome::Unknown => unreachable!("no budget"),
            };
            assert_eq!(got, expected, "config {name} wrong on round {round}");
        }
    }
}

#[test]
fn all_configs_extract_sound_cores() {
    let mut seed = 0xDA3E39CB94B95BDBu64;
    for _ in 0..20 {
        let f = random_cnf(&mut seed, 6, 22);
        for (name, config) in configs() {
            let mut solver = Solver::with_config(config);
            if let Some(core) = selector_core(&mut solver, &f) {
                assert!(
                    !oracle::is_satisfiable(&core),
                    "config {name} produced a satisfiable core"
                );
            }
        }
    }
}

#[test]
fn tiny_learnt_db_forces_deletions() {
    // Drive the reduce-DB path hard and re-verify soundness on a
    // pigeonhole instance (many conflicts).
    let mut f = CnfFormula::new();
    let holes = 5;
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| Var::new((p * holes + h) as u32);
    for p in 0..pigeons {
        f.add_clause((0..holes).map(|h| Lit::positive(var(p, h))));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                f.add_clause([Lit::negative(var(p1, h)), Lit::negative(var(p2, h))]);
            }
        }
    }
    let mut solver = Solver::with_config(SolverConfig {
        learntsize_factor: 0.01,
        learntsize_inc: 1.001,
        min_learnts: 5.0,
        ..SolverConfig::default()
    });
    let core = selector_core(&mut solver, &f).expect("pigeonhole is UNSAT");
    assert!(
        solver.stats().deleted_clauses > 0,
        "expected database reductions: {}",
        solver.stats()
    );
    // Core must still be sound after deletions.
    let mut check = Solver::new();
    check.add_formula(&core);
    assert_eq!(check.solve(), SolveOutcome::Unsat);
}

#[test]
fn determinism_across_runs() {
    let mut seed = 0x9E3779B97F4A7C15u64;
    let f = random_cnf(&mut seed, 8, 30);
    let run = || {
        let mut solver = Solver::new();
        solver.add_formula(&f);
        let outcome = solver.solve();
        (outcome, solver.stats().conflicts, solver.stats().decisions)
    };
    let first = run();
    for _ in 0..3 {
        assert_eq!(run(), first, "solver must be deterministic");
    }
}
