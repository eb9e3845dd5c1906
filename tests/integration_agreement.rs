//! Cross-algorithm agreement: every solver in the suite must report the
//! same optimum on the same instance — including the exhaustive oracle
//! on small formulas.

use coremax::{
    BinarySearchSat, BranchBound, LinearSearchSat, MaxSatSolver, Msu1, Msu2, Msu3, Msu4,
    PboBaseline,
};
use coremax_bench::fi::exhaustive_optimum;
use coremax_cnf::{CnfFormula, Lit, Var, WcnfFormula};

fn all_solvers() -> Vec<Box<dyn MaxSatSolver>> {
    vec![
        Box::new(Msu4::v1()),
        Box::new(Msu4::v2()),
        Box::new(Msu1::new()),
        Box::new(Msu2::new()),
        Box::new(Msu3::new()),
        Box::new(PboBaseline::new()),
        Box::new(BranchBound::new()),
        Box::new(LinearSearchSat::new()),
        Box::new(BinarySearchSat::new()),
    ]
}

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

#[test]
fn all_solvers_agree_with_oracle_on_random_unweighted() {
    let mut seed = 0x1234_5678_9ABC_DEF0u64;
    for round in 0..12 {
        let f = random_cnf(&mut seed, 5, 8 + round % 7);
        let w = WcnfFormula::from_cnf_all_soft(&f);
        let oracle = exhaustive_optimum(&w).expect("no hard clauses");
        for mut solver in all_solvers() {
            let s = solver.solve(&w);
            assert_eq!(
                s.cost,
                Some(oracle),
                "round {round}: {} disagrees with oracle on {f}",
                solver.name()
            );
            if let Some(model) = &s.model {
                assert_eq!(w.cost(model), s.cost, "{} model mismatch", solver.name());
            }
        }
    }
}

#[test]
fn all_solvers_agree_on_generated_suite_instances() {
    use coremax_instances::{full_suite, SuiteConfig};
    let suite = full_suite(&SuiteConfig::default());
    // Pick small representatives of each plain family.
    let mut picked = Vec::new();
    for family in ["php", "xor", "bmc", "equiv"] {
        if let Some(inst) = suite.iter().find(|i| i.family.name() == family) {
            picked.push(inst);
        }
    }
    assert!(picked.len() >= 3);
    for instance in picked {
        let mut reference: Option<u64> = None;
        for mut solver in all_solvers() {
            // Skip the exponential B&B on larger circuit instances.
            if solver.name() == "maxsatz-bb" && instance.wcnf.num_vars() > 24 {
                continue;
            }
            let s = solver.solve(&instance.wcnf);
            let cost = s.cost.expect("suite instances are solvable");
            match reference {
                None => reference = Some(cost),
                Some(r) => assert_eq!(cost, r, "{} disagrees on {}", solver.name(), instance.name),
            }
        }
    }
}

#[test]
fn partial_maxsat_agreement() {
    // Hard skeleton + soft units; solvers supporting partial MaxSAT must
    // agree (msu* family, pbo, bb, linear, binary).
    let mut w = WcnfFormula::new();
    let a = w.new_var();
    let b = w.new_var();
    let c = w.new_var();
    w.add_hard([Lit::positive(a), Lit::positive(b)]);
    w.add_hard([Lit::negative(a), Lit::negative(b)]);
    w.add_soft([Lit::positive(a)], 1);
    w.add_soft([Lit::positive(b)], 1);
    w.add_soft([Lit::negative(c)], 1);
    w.add_soft([Lit::positive(c)], 1);
    // Exactly one of a,b true → one of the first two soft falsified; the
    // c pair costs one more: optimum 2.
    for mut solver in all_solvers() {
        let s = solver.solve(&w);
        assert_eq!(s.cost, Some(2), "{}", solver.name());
    }
}

#[test]
fn weighted_solvers_agree() {
    // Only pbo and bb accept weights.
    let mut w = WcnfFormula::new();
    let x = w.new_var();
    let y = w.new_var();
    w.add_soft([Lit::positive(x)], 4);
    w.add_soft([Lit::negative(x)], 7);
    w.add_soft([Lit::positive(y)], 2);
    w.add_soft([Lit::negative(y)], 2);
    let mut pbo = PboBaseline::new();
    let mut bb = BranchBound::new();
    let a = pbo.solve(&w);
    let b = bb.solve(&w);
    assert_eq!(a.cost, Some(6));
    assert_eq!(b.cost, Some(6));
}

#[test]
fn infeasible_agreement() {
    let mut w = WcnfFormula::new();
    let x = w.new_var();
    w.add_hard([Lit::positive(x)]);
    w.add_hard([Lit::negative(x)]);
    w.add_soft([Lit::positive(x)], 1);
    for mut solver in all_solvers() {
        let s = solver.solve(&w);
        assert_eq!(
            s.status,
            coremax::MaxSatStatus::Infeasible,
            "{}",
            solver.name()
        );
    }
}
