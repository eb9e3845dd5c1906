//! CNF translation of pseudo-Boolean constraints.
//!
//! Every constraint is brought to the normal form `Σ cᵢ·lᵢ ≤ b` with
//! `0 ≤ b < Σ cᵢ` and handed to `coremax_cards`' BDD encoder
//! ([`weighted_at_most`]), the encoder msu4 v1's cardinality bounds use
//! at unit coefficients (Eén & Sörensson, JSAT 2006, §4).

use coremax_cards::{weighted_at_most, CnfSink};

use crate::constraint::{PbConstraint, PbOp};

/// Encodes `constraint` into CNF clauses appended to `sink`.
///
/// `Ge` constraints are rewritten as `Le` over negated literals and `Eq`
/// as the conjunction of both directions. Trivially-true constraints
/// emit nothing; trivially-false ones emit the empty clause.
pub fn encode_pb(constraint: &PbConstraint, sink: &mut CnfSink) {
    if constraint.is_trivially_true() {
        return;
    }
    if constraint.is_trivially_false() {
        sink.add_clause([]);
        return;
    }
    match constraint.op() {
        PbOp::Le => encode_le(constraint, sink),
        PbOp::Ge => {
            let flipped = flip_ge(constraint);
            encode_le(&flipped, sink);
        }
        PbOp::Eq => {
            let le = PbConstraint::new(constraint.terms().to_vec(), PbOp::Le, constraint.bound());
            let ge = PbConstraint::new(constraint.terms().to_vec(), PbOp::Ge, constraint.bound());
            encode_pb(&le, sink);
            encode_pb(&ge, sink);
        }
    }
}

/// `Σ c·l ≥ b` ⟺ `Σ c·¬l ≤ Σc − b`.
fn flip_ge(c: &PbConstraint) -> PbConstraint {
    let terms = c
        .terms()
        .iter()
        .map(|t| crate::PbTerm::new(t.coeff, !t.lit))
        .collect();
    PbConstraint::new(terms, PbOp::Le, c.coeff_sum() as i64 - c.bound())
}

/// A non-trivial `Le` constraint, as the BDD.
fn encode_le(constraint: &PbConstraint, sink: &mut CnfSink) {
    debug_assert_eq!(constraint.op(), PbOp::Le);
    debug_assert!(constraint.bound() >= 0);
    let terms = constraint
        .terms()
        .iter()
        .map(|t| (t.coeff, t.lit))
        .collect();
    weighted_at_most(terms, constraint.bound() as u64, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PbTerm;
    use coremax_cnf::{Lit, Var};
    use coremax_sat::{SolveOutcome, Solver};

    fn lit(i: u32) -> Lit {
        Lit::positive(Var::new(i))
    }

    /// Exhaustively checks that the encoding is exact for a constraint
    /// over `n` variables.
    fn check(constraint: &PbConstraint, n: usize) {
        let mut sink = CnfSink::new(n);
        encode_pb(constraint, &mut sink);
        for bits in 0u32..(1 << n) {
            let mut solver = Solver::new();
            solver.ensure_vars(sink.num_vars());
            for c in sink.clauses() {
                solver.add_clause(c.iter().copied());
            }
            let assumptions: Vec<Lit> = (0..n)
                .map(|i| Lit::new(Var::new(i as u32), bits >> i & 1 == 1))
                .collect();
            let sat = solver.solve_with_assumptions(&assumptions) == SolveOutcome::Sat;
            let mut assignment = coremax_cnf::Assignment::for_vars(n);
            for (i, &a) in assumptions.iter().enumerate() {
                assignment.assign(Var::new(i as u32), a.is_positive());
            }
            assert_eq!(
                sat,
                constraint.is_satisfied_by(&assignment),
                "{constraint} bits={bits:b}"
            );
        }
    }

    #[test]
    fn le_exact() {
        // 3x0 + 2x1 + 1x2 ≤ 3
        let c = PbConstraint::new(
            vec![
                PbTerm::new(3, lit(0)),
                PbTerm::new(2, lit(1)),
                PbTerm::new(1, lit(2)),
            ],
            PbOp::Le,
            3,
        );
        check(&c, 3);
    }

    #[test]
    fn ge_exact() {
        // 2x0 + 2x1 + 3x2 ≥ 4
        let c = PbConstraint::new(
            vec![
                PbTerm::new(2, lit(0)),
                PbTerm::new(2, lit(1)),
                PbTerm::new(3, lit(2)),
            ],
            PbOp::Ge,
            4,
        );
        check(&c, 3);
    }

    #[test]
    fn eq_exact() {
        let c = PbConstraint::new(
            vec![
                PbTerm::new(1, lit(0)),
                PbTerm::new(2, lit(1)),
                PbTerm::new(3, lit(2)),
                PbTerm::new(4, lit(3)),
            ],
            PbOp::Eq,
            5,
        );
        check(&c, 4);
    }

    #[test]
    fn mixed_polarity_exact() {
        let c = PbConstraint::from_signed(
            vec![(2, lit(0)), (-3, lit(1)), (1, lit(2)), (-1, lit(3))],
            PbOp::Le,
            0,
        );
        check(&c, 4);
    }

    #[test]
    fn cardinality_special_case_matches() {
        let lits: Vec<Lit> = (0..5).map(lit).collect();
        let c = PbConstraint::cardinality(&lits, PbOp::Le, 2);
        check(&c, 5);
    }

    #[test]
    fn trivially_true_emits_nothing() {
        let c = PbConstraint::new(vec![PbTerm::new(1, lit(0))], PbOp::Le, 10);
        let mut sink = CnfSink::new(1);
        encode_pb(&c, &mut sink);
        assert_eq!(sink.num_clauses(), 0);
    }

    #[test]
    fn trivially_false_emits_empty_clause() {
        let c = PbConstraint::new(vec![PbTerm::new(1, lit(0))], PbOp::Ge, 5);
        let mut sink = CnfSink::new(1);
        encode_pb(&c, &mut sink);
        assert_eq!(sink.num_clauses(), 1);
        assert!(sink.clauses().get(0).is_empty());
    }

    #[test]
    fn memoisation_bounds_node_count() {
        // Uniform coefficients: the BDD is the cardinality grid.
        let lits: Vec<Lit> = (0..20).map(lit).collect();
        let c = PbConstraint::cardinality(&lits, PbOp::Le, 4);
        let mut sink = CnfSink::new(20);
        encode_pb(&c, &mut sink);
        assert!(sink.num_vars() - 20 <= 20 * 5);
    }
}
