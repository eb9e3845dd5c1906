//! Property tests for DIMACS serialisation: write→parse is the
//! identity for both CNF and WCNF, for arbitrary generated formulas.

use coremax_cnf::{dimacs, CnfFormula, Lit, WcnfFormula};
use proptest::prelude::*;

fn arb_lits(max_var: i32) -> impl Strategy<Value = Vec<Lit>> {
    prop::collection::vec(
        (1..=max_var).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]),
        0..=5,
    )
    .prop_map(|ds| {
        ds.into_iter()
            .map(|d| Lit::from_dimacs(d).unwrap())
            .collect()
    })
}

proptest! {
    #[test]
    fn cnf_roundtrip(clauses in prop::collection::vec(arb_lits(12), 0..30)) {
        let mut f = CnfFormula::new();
        for c in clauses {
            f.add_clause(c);
        }
        let text = dimacs::write_cnf(&f);
        let parsed = dimacs::parse_cnf(&text).expect("own output must parse");
        // Variable counts may differ (writer declares max used), clauses
        // must be identical.
        prop_assert_eq!(f.num_clauses(), parsed.num_clauses());
        for (a, b) in f.iter().zip(parsed.iter()) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn wcnf_roundtrip(
        hard in prop::collection::vec(arb_lits(10), 0..10),
        soft in prop::collection::vec((arb_lits(10), 1u64..100), 0..15),
    ) {
        let mut w = WcnfFormula::new();
        for c in hard {
            w.add_hard(c);
        }
        for (c, weight) in soft {
            w.add_soft(c, weight);
        }
        let text = dimacs::write_wcnf(&w);
        let parsed = dimacs::parse_wcnf(&text).expect("own output must parse");
        prop_assert_eq!(w.num_hard(), parsed.num_hard());
        prop_assert_eq!(w.num_soft(), parsed.num_soft());
        for (a, b) in w.soft_clauses().zip(parsed.soft_clauses()) {
            prop_assert_eq!(a, b);
        }
        for (a, b) in w.hard_clauses().zip(parsed.hard_clauses()) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn wcnf_new_format_roundtrip(
        hard in prop::collection::vec(arb_lits(10), 0..10),
        soft in prop::collection::vec((arb_lits(10), 1u64..100), 0..15),
    ) {
        let mut w = WcnfFormula::new();
        for c in hard {
            w.add_hard(c);
        }
        for (c, weight) in soft {
            w.add_soft(c, weight);
        }
        let text = dimacs::write_wcnf_new(&w);
        let parsed = dimacs::parse_wcnf(&text).expect("own output must parse");
        prop_assert!(w.hard_clauses().eq(parsed.hard_clauses()));
        prop_assert!(w.soft_clauses().eq(parsed.soft_clauses()));
        // Cross-dialect agreement: both writers describe one formula.
        let via_classic = dimacs::parse_wcnf(&dimacs::write_wcnf(&w)).expect("classic");
        prop_assert!(via_classic.hard_clauses().eq(parsed.hard_clauses()));
        prop_assert!(via_classic.soft_clauses().eq(parsed.soft_clauses()));
        prop_assert_eq!(via_classic.total_soft_weight(), parsed.total_soft_weight());
    }

    #[test]
    fn parser_never_panics_on_noise(text in "[ \\t\\r\\nhp0-9cw%-]{0,120}") {
        // Arbitrary junk: parsing may fail but must not panic.
        let _ = dimacs::parse_cnf(&text);
        let _ = dimacs::parse_wcnf(&text);
    }

    #[test]
    fn formula_eval_consistent_with_counts(
        clauses in prop::collection::vec(arb_lits(8), 1..20),
        bits in any::<u16>(),
    ) {
        let mut f = CnfFormula::new();
        for c in clauses {
            f.add_clause(c);
        }
        let mut a = coremax_cnf::Assignment::for_vars(f.num_vars());
        for i in 0..f.num_vars().min(16) {
            a.assign(coremax_cnf::Var::new(i as u32), bits >> i & 1 == 1);
        }
        a.complete_with(false);
        let satisfied = f.num_satisfied(&a);
        prop_assert_eq!(satisfied + f.num_unsatisfied(&a), f.num_clauses());
        prop_assert_eq!(f.eval(&a) == Some(true), satisfied == f.num_clauses());
    }
}
