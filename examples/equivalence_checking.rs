//! Equivalence checking with the SAT substrate, and what MaxSAT adds
//! when the check fails.
//!
//! 1. Prove a ripple-carry adder equivalent to a majority-gate adder
//!    (miter UNSAT) and inspect the unsatisfiable core.
//! 2. Break one circuit and rerun: the miter becomes SAT and yields a
//!    counterexample input.
//! 3. On the broken miter, MaxSAT reports how close to equivalent the
//!    circuits are (how many miter constraints must be dropped).
//!
//! Run with: `cargo run --example equivalence_checking`

use coremax::{MaxSatSolver, Msu4};
use coremax_circuits::{builders, debug, miter, tseitin};
use coremax_cnf::WcnfFormula;
use coremax_sat::{IncrementalSolver, SolveOutcome, Solver};

fn main() {
    let a = builders::ripple_carry_adder(4);
    let b = builders::majority_adder(4);
    println!(
        "adder A: {} gates; adder B: {} gates (structurally different)",
        a.num_gates(),
        b.num_gates()
    );

    // --- equivalence proof ---
    let m = miter::build_miter(&a, &b).expect("same interface");
    let enc = tseitin::encode(&m);
    let mut formula = enc.formula.clone();
    formula.add_clause([enc.output_lits[0]]);
    // One soft per clause, so the failed softs name the core's clauses.
    let mut engine = IncrementalSolver::new();
    engine.ensure_vars(formula.num_vars());
    for c in formula.iter() {
        engine.add_soft(c.lits().iter().copied());
    }
    match engine.solve(&[]) {
        SolveOutcome::Unsat => {
            println!(
                "EQUIVALENT: miter UNSAT; core uses {} of {} clauses",
                engine.failed_softs().len(),
                formula.num_clauses()
            );
        }
        other => panic!("expected UNSAT, got {other:?}"),
    }

    // --- break B and find a counterexample ---
    let (broken, gate) = debug::mutate_gate(&b, 99).expect("gates exist");
    let m2 = miter::build_miter(&a, &broken).expect("same interface");
    let enc2 = tseitin::encode(&m2);
    let mut solver2 = Solver::new();
    solver2.add_formula(&enc2.formula);
    solver2.add_clause([enc2.output_lits[0]]);
    match solver2.solve() {
        SolveOutcome::Sat => {
            let model = solver2.model().expect("model after SAT");
            let cex: Vec<bool> = (0..m2.num_inputs())
                .map(|i| model.value(enc2.input_vars[i]).unwrap_or(false))
                .collect();
            println!("NOT equivalent after mutating gate {gate}: counterexample {cex:?}");
            assert_ne!(
                a.eval(&cex),
                broken.eval(&cex),
                "counterexample must differ"
            );
        }
        other => panic!("expected SAT, got {other:?}"),
    }

    // --- MaxSAT view: how inconsistent is the broken miter? ---
    let mut wcnf = WcnfFormula::from_cnf_all_soft(&enc2.formula);
    wcnf.add_hard([enc2.output_lits[0]]);
    let solution = Msu4::v2().solve(&wcnf);
    let cost = solution.cost.expect("optimum");
    println!(
        "MaxSAT: dropping {cost} of {} miter clauses suffices to force a difference",
        wcnf.num_soft()
    );
}
