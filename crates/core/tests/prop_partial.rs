//! Property tests over random *partial* MaxSAT instances: all
//! core-guided solvers agree with the branch-and-bound reference (which
//! is exact), and reported models always attain the reported cost.

use coremax::{
    BinarySearchSat, BranchBound, LinearSearchSat, MaxSatSolver, MaxSatStatus, Msu1, Msu2, Msu3,
    Msu4, PboBaseline,
};
use coremax_cnf::{Lit, WcnfFormula};
use proptest::prelude::*;

/// Random partial MaxSAT instance: a few hard clauses over the first
/// variables plus unit-weight soft clauses.
fn arb_partial(max_vars: i32) -> impl Strategy<Value = WcnfFormula> {
    let lit = (1..=max_vars).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    let clause = prop::collection::vec(lit, 1..=3);
    (
        prop::collection::vec(clause.clone(), 0..6),
        prop::collection::vec(clause, 1..14),
    )
        .prop_map(move |(hard, soft)| {
            let mut w = WcnfFormula::with_vars(max_vars as usize);
            for c in hard {
                w.add_hard(c.into_iter().map(|d| Lit::from_dimacs(d).unwrap()));
            }
            for c in soft {
                w.add_soft(c.into_iter().map(|d| Lit::from_dimacs(d).unwrap()), 1);
            }
            w
        })
}

fn solvers() -> Vec<Box<dyn MaxSatSolver>> {
    vec![
        Box::new(Msu4::v1()),
        Box::new(Msu4::v2()),
        Box::new(Msu4::incremental()),
        Box::new(Msu1::new()),
        Box::new(Msu2::new()),
        Box::new(Msu3::new()),
        Box::new(LinearSearchSat::new()),
        Box::new(BinarySearchSat::new()),
        Box::new(PboBaseline::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_agree_with_branch_bound_reference(w in arb_partial(5)) {
        let reference = BranchBound::new().solve(&w);
        for mut solver in solvers() {
            let s = solver.solve(&w);
            prop_assert_eq!(
                s.status, reference.status,
                "{} status differs", solver.name()
            );
            prop_assert_eq!(s.cost, reference.cost, "{} cost differs", solver.name());
            if s.status == MaxSatStatus::Optimal {
                let model = s.model.expect("optimal has model");
                prop_assert_eq!(w.cost(&model), s.cost, "{} model lies", solver.name());
            }
        }
    }

    #[test]
    fn optimum_invariant_under_soft_clause_shuffle(w in arb_partial(5), seed in any::<u64>()) {
        // The optimum must not depend on the order soft clauses are given.
        let base = Msu4::v2().solve(&w).cost;
        let mut shuffled = WcnfFormula::with_vars(w.num_vars());
        for h in w.hard_clauses() {
            shuffled.add_hard(h.lits().iter().copied());
        }
        let mut softs: Vec<_> = w.soft_clauses().collect();
        // Deterministic Fisher-Yates from the seed.
        let mut state = seed | 1;
        for i in (1..softs.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            softs.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for s in softs {
            shuffled.add_soft(s.clause.lits().iter().copied(), s.weight);
        }
        prop_assert_eq!(Msu4::v2().solve(&shuffled).cost, base);
    }

    #[test]
    fn adding_a_hard_clause_never_decreases_cost(w in arb_partial(4), d in 1i32..4) {
        let before = Msu4::v2().solve(&w);
        let mut extended = w.clone();
        extended.add_hard([Lit::from_dimacs(d).unwrap()]);
        let after = Msu4::v2().solve(&extended);
        match (before.status, after.status) {
            (MaxSatStatus::Optimal, MaxSatStatus::Optimal) => {
                prop_assert!(after.cost >= before.cost, "hard constraint lowered the cost");
            }
            (MaxSatStatus::Infeasible, s) => {
                prop_assert_eq!(s, MaxSatStatus::Infeasible);
            }
            _ => {}
        }
    }

    #[test]
    fn adding_a_soft_clause_increases_cost_by_at_most_one(w in arb_partial(4), d in 1i32..4) {
        let before = Msu4::v2().solve(&w);
        let mut extended = w.clone();
        extended.add_soft([Lit::from_dimacs(d).unwrap()], 1);
        let after = Msu4::v2().solve(&extended);
        if before.status == MaxSatStatus::Optimal && after.status == MaxSatStatus::Optimal {
            let (b, a) = (before.cost.unwrap(), after.cost.unwrap());
            prop_assert!(a >= b && a <= b + 1, "cost moved from {b} to {a}");
        }
    }
}
