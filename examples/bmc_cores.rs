//! Bounded model checking with unsatisfiable-core inspection: the
//! workflow behind the paper's model-checking benchmark family, plus the
//! Proposition-1 disjoint-core bound and deletion-based minimisation.
//!
//! Run with: `cargo run --release --example bmc_cores`

use coremax::{disjoint_core_analysis, minimize_core};
use coremax_circuits::{seq, tseitin};
use coremax_cnf::WcnfFormula;
use coremax_sat::{Budget, IncrementalSolver, SolveOutcome};

fn main() {
    // A 3-bit counter with a safety property that always holds.
    let machine = seq::counter_with_safe_property(3);
    let width = machine.core.outputs().len();
    println!(
        "machine: {} registers, {} gates in the combinational core",
        machine.num_registers(),
        machine.core.num_gates()
    );

    for depth in [2usize, 4, 8] {
        let unrolled = seq::unroll(&machine, depth);
        let enc = tseitin::encode(&unrolled);
        let mut formula = enc.formula.clone();
        let violations: Vec<_> = (0..depth)
            .map(|t| enc.output_lits[(t + 1) * width - 1])
            .collect();
        formula.add_clause(violations);

        // One soft per clause: the failed softs are the raw core.
        let mut engine = IncrementalSolver::new();
        engine.ensure_vars(formula.num_vars());
        for c in formula.iter() {
            engine.add_soft(c.lits().iter().copied());
        }
        assert_eq!(engine.solve(&[]), SolveOutcome::Unsat, "property must hold");
        let core: Vec<usize> = engine.failed_softs().iter().map(|id| id.0).collect();
        let minimal = minimize_core(&formula, &core, &Budget::new());
        println!(
            "depth {depth}: {} clauses, raw core {}, minimal core {} ({} conflicts)",
            formula.num_clauses(),
            core.len(),
            minimal.len(),
            engine.stats().conflicts
        );

        // The MaxSAT view of the same instance (Proposition 1): how many
        // disjoint refutations does it contain?
        let report = disjoint_core_analysis(&formula, &Budget::new());
        let wcnf = WcnfFormula::from_cnf_all_soft(&formula);
        println!(
            "  Prop. 1: {} disjoint core(s) → at most {} of {} clauses satisfiable",
            report.cores.len(),
            report.upper_bound_satisfied,
            wcnf.num_soft()
        );
    }
}
