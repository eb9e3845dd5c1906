//! End-to-end pipelines across crates: circuit → CNF → SAT/MaxSAT, and
//! the full design-debugging flow the paper motivates.

use coremax::{verify_solution, MaxSatSolver, MaxSatStatus, Msu4};
use coremax_circuits::{atpg, builders, debug, miter, seq, transform, tseitin};
use coremax_cnf::{dimacs, WcnfFormula};
use coremax_sat::{IncrementalSolver, SolveOutcome, Solver};

#[test]
fn adder_equivalence_pipeline() {
    // Build → rewrite → miter → Tseitin → SAT: UNSAT proves equivalence,
    // and the core is itself unsatisfiable.
    let a = builders::ripple_carry_adder(4);
    let b = transform::rewrite_nand(&builders::majority_adder(4));
    let m = miter::build_miter(&a, &b).expect("interfaces match");
    let enc = tseitin::encode(&m);
    let mut formula = enc.formula.clone();
    formula.add_clause([enc.output_lits[0]]);

    // One soft per clause, so the failed softs name the core's clauses.
    let mut engine = IncrementalSolver::new();
    engine.ensure_vars(formula.num_vars());
    for c in formula.iter() {
        engine.add_soft(c.lits().iter().copied());
    }
    assert_eq!(engine.solve(&[]), SolveOutcome::Unsat);

    let core = engine.failed_softs();
    assert!(!core.is_empty());
    // Replay only the core and confirm it is unsatisfiable on its own.
    let mut replay = Solver::new();
    replay.ensure_vars(formula.num_vars());
    for id in &core {
        replay.add_clause(formula.clause(id.0).lits().iter().copied());
    }
    assert_eq!(replay.solve(), SolveOutcome::Unsat, "core must be UNSAT");
}

#[test]
fn bmc_pipeline_depth_sweep() {
    let machine = seq::counter_with_safe_property(2);
    let width = machine.core.outputs().len();
    for k in 1..=5 {
        let unrolled = seq::unroll(&machine, k);
        let enc = tseitin::encode(&unrolled);
        let mut solver = Solver::new();
        solver.add_formula(&enc.formula);
        let violations: Vec<_> = (0..k)
            .map(|t| enc.output_lits[(t + 1) * width - 1])
            .collect();
        solver.add_clause(violations);
        assert_eq!(solver.solve(), SolveOutcome::Unsat, "depth {k}");
    }
}

#[test]
fn design_debugging_pipeline_localises_bug() {
    let reference = builders::comparator(4);
    let (buggy, bug_gate) = debug::mutate_gate(&reference, 0xBEEF).expect("has gates");
    let instance =
        debug::debug_instance(&reference, &buggy, bug_gate, 3, 0xF00D).expect("interfaces match");

    let mut solver = Msu4::v2();
    let solution = solver.solve(&instance.wcnf);
    assert_eq!(solution.status, MaxSatStatus::Optimal);
    assert!(verify_solution(&instance.wcnf, &solution));
    assert!(solution.cost.expect("cost") <= instance.cost_upper_bound);
}

#[test]
fn atpg_pipeline_testable_and_untestable() {
    let base = builders::ripple_carry_adder(3);
    // A real fault on a primary input is testable.
    let testable = atpg::atpg_miter(
        &base,
        atpg::StuckAtFault {
            net: base.input(2),
            value: true,
        },
    );
    let enc = tseitin::encode(&testable);
    let mut solver = Solver::new();
    solver.add_formula(&enc.formula);
    solver.add_clause([enc.output_lits[0]]);
    assert_eq!(solver.solve(), SolveOutcome::Sat);

    // A planted-redundancy fault is untestable.
    let (with_red, r) = atpg::with_redundant_logic(&base);
    let untestable = atpg::atpg_miter(
        &with_red,
        atpg::StuckAtFault {
            net: r,
            value: false,
        },
    );
    let enc2 = tseitin::encode(&untestable);
    let mut solver2 = Solver::new();
    solver2.add_formula(&enc2.formula);
    solver2.add_clause([enc2.output_lits[0]]);
    assert_eq!(solver2.solve(), SolveOutcome::Unsat);
}

#[test]
fn wcnf_file_round_trip_preserves_optimum() {
    let reference = builders::parity_tree(4);
    let (buggy, g) = debug::mutate_gate(&reference, 3).expect("gates");
    let instance = debug::debug_instance(&reference, &buggy, g, 2, 5).expect("ok");

    let text = dimacs::write_wcnf(&instance.wcnf);
    let reparsed = dimacs::parse_wcnf(&text).expect("own output parses");
    assert_eq!(reparsed, instance.wcnf);

    let a = Msu4::v2().solve(&instance.wcnf);
    let b = Msu4::v1().solve(&reparsed);
    assert_eq!(a.cost, b.cost);
}

#[test]
fn maxsat_on_unsat_cnf_counts_min_falsified() {
    // Cross-crate sanity: the MaxSAT cost of an UNSAT CNF is ≥ 1 and a
    // verified model attains it.
    let cnf = coremax_instances::pigeonhole(3);
    let wcnf = WcnfFormula::from_cnf_all_soft(&cnf);
    let solution = Msu4::v2().solve(&wcnf);
    let cost = solution.cost.expect("optimal");
    assert!(cost >= 1);
    assert!(verify_solution(&wcnf, &solution));
    // PHP(4,3): exactly one pigeon must be dropped.
    assert_eq!(cost, 1);
}
