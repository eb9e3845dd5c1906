//! Property tests for the persistent incremental engine: interleaved
//! add-clause / solve-under-assumptions rounds on one long-lived solver
//! must agree with a fresh solver built from scratch for every round —
//! learned clauses, saved phases, and arena compactions may change the
//! *search*, never the *answer*.

mod oracle;

use coremax_cnf::{CnfFormula, Lit, Var};
use coremax_sat::{IncrementalSolver, SoftId, SolveOutcome, Solver, SolverConfig};
use proptest::prelude::*;

/// Case count, overridable via `PROPTEST_CASES` (the CI incremental
/// job raises it to 256).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(128)
}

const MAX_VARS: u32 = 7;

/// Forces learned-clause reductions and an arena collection after every
/// reduction, so persistence is exercised across GC compactions too, and
/// restarts as often as the Luby schedule allows (base 1).
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

/// One round: a batch of clauses to add, then a solve under assumptions.
/// Assumptions are (variable index, polarity) pairs; duplicates are
/// deduplicated by variable in the test body so the set is consistent.
type Round = (Vec<Vec<i32>>, Vec<(u32, bool)>);

fn arb_rounds() -> impl Strategy<Value = Vec<Round>> {
    let lit = (1..=MAX_VARS as i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    let clause = prop::collection::vec(lit, 1..=4);
    let batch = prop::collection::vec(clause, 0..=8);
    let assumption = (0..MAX_VARS, any::<bool>());
    let assumptions = prop::collection::vec(assumption, 0..=3);
    prop::collection::vec((batch, assumptions), 1..=5)
}

fn dedup_assumptions(raw: &[(u32, bool)]) -> Vec<Lit> {
    let mut seen = [false; MAX_VARS as usize];
    let mut out = Vec::new();
    for &(v, pol) in raw {
        if !seen[v as usize] {
            seen[v as usize] = true;
            out.push(Lit::new(Var::new(v), pol));
        }
    }
    out
}

/// Reference answer for "formula so far ∧ assumptions" via the exhaustive
/// oracle: each assumption becomes a unit clause.
fn oracle(clauses: &[Vec<i32>], assumptions: &[Lit]) -> bool {
    let mut f = CnfFormula::with_vars(MAX_VARS as usize);
    for c in clauses {
        f.add_clause(c.iter().map(|&d| Lit::from_dimacs(d).unwrap()));
    }
    for &a in assumptions {
        f.add_clause([a]);
    }
    oracle::is_satisfiable(&f)
}

/// The engine's soft-clause interface answered from scratch: every
/// clause is kept, and each solve builds a fresh [`Solver`] and solves
/// under the active softs' `¬s` plus the extra assumptions.
struct FreshPeer {
    config: SolverConfig,
    num_vars: usize,
    /// Each soft's stored clause `ω ∨ s`, in registration order.
    clauses: Vec<Vec<Lit>>,
    /// Each soft's selector `s` and whether it is active.
    softs: Vec<(Lit, bool)>,
    failed: Vec<Lit>,
}

impl FreshPeer {
    fn new(config: SolverConfig, num_vars: usize) -> Self {
        FreshPeer {
            config,
            num_vars,
            clauses: Vec::new(),
            softs: Vec::new(),
            failed: Vec::new(),
        }
    }

    fn add_soft(&mut self, lits: impl IntoIterator<Item = Lit>) -> SoftId {
        let sel = Lit::positive(Var::new(self.num_vars as u32));
        self.num_vars += 1;
        self.clauses.push(lits.into_iter().chain([sel]).collect());
        self.softs.push((sel, true));
        SoftId(self.softs.len() - 1)
    }

    fn solve(&mut self, extra: &[Lit]) -> SolveOutcome {
        let mut solver = Solver::with_config(self.config.clone());
        solver.ensure_vars(self.num_vars);
        for c in &self.clauses {
            solver.add_clause(c.iter().copied());
        }
        let mut assumptions: Vec<Lit> = self
            .softs
            .iter()
            .filter(|&&(_, active)| active)
            .map(|&(sel, _)| !sel)
            .collect();
        assumptions.extend_from_slice(extra);
        let outcome = solver.solve_with_assumptions(&assumptions);
        self.failed = solver.failed_assumptions().to_vec();
        outcome
    }

    fn failed_softs(&self) -> Vec<SoftId> {
        (0..self.softs.len())
            .filter(|&i| self.failed.contains(&!self.softs[i].0))
            .map(SoftId)
            .collect()
    }

    fn deactivate(&mut self, id: SoftId) {
        self.softs[id.0].1 = false;
    }
}

/// Checks an UNSAT answer's core against the oracle: the failed softs'
/// clauses plus the failed extra assumptions must be unsatisfiable.
fn check_core(
    handle_clause: &[Vec<i32>],
    failed: &[SoftId],
    failed_assumptions: &[Lit],
    assumptions: &[Lit],
) {
    let failed_clauses: Vec<Vec<i32>> = failed
        .iter()
        .map(|&id| handle_clause[id.0].clone())
        .collect();
    let extra: Vec<Lit> = failed_assumptions
        .iter()
        .copied()
        .filter(|a| assumptions.contains(a))
        .collect();
    prop_assert!(
        !oracle(&failed_clauses, &extra),
        "soft core was satisfiable"
    );
}

fn check_rounds(rounds: Vec<Round>, config: SolverConfig) {
    let mut persistent = Solver::with_config(config.clone());
    persistent.ensure_vars(MAX_VARS as usize);
    let mut so_far: Vec<Vec<i32>> = Vec::new();

    for (batch, raw_assumptions) in rounds {
        for c in &batch {
            persistent.add_clause(c.iter().map(|&d| Lit::from_dimacs(d).unwrap()));
        }
        so_far.extend(batch);
        let assumptions = dedup_assumptions(&raw_assumptions);

        let persistent_outcome = persistent.solve_with_assumptions(&assumptions);

        // A fresh solver over the same clauses and assumptions.
        let mut fresh = Solver::with_config(config.clone());
        fresh.ensure_vars(MAX_VARS as usize);
        for c in &so_far {
            fresh.add_clause(c.iter().map(|&d| Lit::from_dimacs(d).unwrap()));
        }
        let fresh_outcome = fresh.solve_with_assumptions(&assumptions);

        prop_assert_eq!(
            persistent_outcome,
            fresh_outcome,
            "persistent and fresh disagree"
        );
        prop_assert_eq!(
            persistent_outcome == SolveOutcome::Sat,
            oracle(&so_far, &assumptions)
        );

        match persistent_outcome {
            SolveOutcome::Sat => {
                let m = persistent.model().expect("model after SAT");
                let mut f = CnfFormula::with_vars(MAX_VARS as usize);
                for c in &so_far {
                    f.add_clause(c.iter().map(|&d| Lit::from_dimacs(d).unwrap()));
                }
                for c in f.iter() {
                    prop_assert!(c.is_satisfied_by(m), "violated clause {}", c);
                }
                for &a in &assumptions {
                    prop_assert!(m.satisfies(a), "violated assumption {}", a);
                }
            }
            SolveOutcome::Unsat => {
                // Failed assumptions are a *sound* core (a subset of the
                // given assumptions whose conjunction with the formula
                // is unsatisfiable) — not necessarily the minimal one a
                // fresh solver would report.
                if persistent.is_ok() {
                    let failed = persistent.failed_assumptions().to_vec();
                    for a in &failed {
                        prop_assert!(assumptions.contains(a), "{} was never assumed", a);
                    }
                    prop_assert!(
                        !oracle(&so_far, &failed),
                        "failed-assumption core was satisfiable"
                    );
                }
            }
            SolveOutcome::Unknown => unreachable!("no budget set"),
        }

        if !persistent.is_ok() {
            // The formula itself is refuted: every later round is UNSAT
            // regardless of assumptions, which the fresh comparison
            // would confirm round by round. Stop early.
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn persistent_engine_agrees_with_fresh_per_round(rounds in arb_rounds()) {
        check_rounds(rounds, SolverConfig::default());
    }

    #[test]
    fn persistent_engine_agrees_across_gc_compaction(rounds in arb_rounds()) {
        check_rounds(rounds, stress_config());
    }

    #[test]
    fn engine_modes_agree_on_soft_lifecycles(rounds in arb_rounds()) {
        // Same rounds driven through the selector-managed soft-clause
        // engine and its fresh-solver peer: both must report identical
        // statuses, and on UNSAT both cores must be sound. Each round's
        // batch becomes soft clauses; each round solves, then
        // deactivates the failed softs (a miniature core-guided driver).
        let mut engine = IncrementalSolver::with_config(stress_config());
        engine.ensure_vars(MAX_VARS as usize);
        let mut peer = FreshPeer::new(stress_config(), MAX_VARS as usize);
        let mut handle_clause: Vec<Vec<i32>> = Vec::new();

        for (batch, raw_assumptions) in rounds {
            let assumptions = dedup_assumptions(&raw_assumptions);
            for c in &batch {
                handle_clause.push(c.clone());
                let lits = || c.iter().map(|&d| Lit::from_dimacs(d).unwrap());
                let id = engine.add_soft(lits());
                prop_assert_eq!(id.0, handle_clause.len() - 1);
                prop_assert_eq!(peer.add_soft(lits()), id);
            }
            let outcome = engine.solve(&assumptions);
            prop_assert_eq!(outcome, peer.solve(&assumptions), "engine and fresh peer disagree");
            if outcome == SolveOutcome::Unsat && !engine.formula_refuted() {
                let failed = engine.failed_softs();
                check_core(&handle_clause, &failed, engine.failed_assumptions(), &assumptions);
                for &id in &failed {
                    engine.deactivate(id);
                }
                let failed = peer.failed_softs();
                check_core(&handle_clause, &failed, &peer.failed, &assumptions);
                for &id in &failed {
                    peer.deactivate(id);
                }
            }
        }
    }
}
