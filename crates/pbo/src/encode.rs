//! BDD translation of pseudo-Boolean constraints to CNF.
//!
//! Eén & Sörensson (JSAT 2006) §4: the constraint `Σ cᵢ·lᵢ ≤ b` is a
//! monotone pseudo-Boolean function; its ROBDD under a fixed variable
//! order has one node per distinct reachable "interval" of partial sums.
//! We build it top-down with memoisation on `(index, accumulated sum)`
//! and Tseitin-encode each node as an ITE gate. Coefficients are sorted
//! descending first, which tends to maximise node sharing.

use std::collections::HashMap;

use coremax_cards::CnfSink;
use coremax_cnf::Lit;

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRef {
    True,
    False,
    Node(Lit),
}

fn encode_le(constraint: &PbConstraint, sink: &mut CnfSink) {
    debug_assert_eq!(constraint.op(), PbOp::Le);
    debug_assert!(constraint.bound() >= 0);
    let mut terms = constraint.terms().to_vec();
    terms.sort_by_key(|t| std::cmp::Reverse(t.coeff));
    let bound = constraint.bound() as u64;
    // Suffix coefficient sums for the "rest always fits" terminal test.
    let mut suffix = vec![0u64; terms.len() + 1];
    for i in (0..terms.len()).rev() {
        suffix[i] = suffix[i + 1] + terms[i].coeff;
    }
    let mut memo: HashMap<(usize, u64), NodeRef> = HashMap::new();
    let root = build(&terms, bound, &suffix, 0, 0, &mut memo, sink);
    match root {
        NodeRef::True => {}
        NodeRef::False => sink.add_clause([]),
        NodeRef::Node(l) => sink.add_clause([l]),
    }
}

#[allow(clippy::too_many_arguments)]
fn build(
    terms: &[crate::PbTerm],
    bound: u64,
    suffix: &[u64],
    i: usize,
    sum: u64,
    memo: &mut HashMap<(usize, u64), NodeRef>,
    sink: &mut CnfSink,
) -> NodeRef {
    if sum > bound {
        return NodeRef::False;
    }
    if sum + suffix[i] <= bound {
        return NodeRef::True;
    }
    if let Some(&n) = memo.get(&(i, sum)) {
        return n;
    }
    debug_assert!(i < terms.len());
    let cond = terms[i].lit;
    let hi = build(
        terms,
        bound,
        suffix,
        i + 1,
        sum + terms[i].coeff,
        memo,
        sink,
    );
    let lo = build(terms, bound, suffix, i + 1, sum, memo, sink);
    let node = encode_ite(cond, hi, lo, sink);
    memo.insert((i, sum), node);
    node
}

/// Tseitin `t ⇔ ITE(c, a, b)` with terminal simplification (same gate
/// library as the cardinality BDD encoder).
fn encode_ite(c: Lit, a: NodeRef, b: NodeRef, sink: &mut CnfSink) -> NodeRef {
    use NodeRef::{False, Node, True};
    match (a, b) {
        (True, True) => True,
        (False, False) => False,
        (True, False) => Node(c),
        (False, True) => Node(!c),
        (True, Node(bl)) => {
            let t = Lit::positive(sink.fresh_var());
            sink.add_clause([!c, t]);
            sink.add_clause([!bl, t]);
            sink.add_clause([c, bl, !t]);
            Node(t)
        }
        (False, Node(bl)) => {
            let t = Lit::positive(sink.fresh_var());
            sink.add_clause([!t, !c]);
            sink.add_clause([!t, bl]);
            sink.add_clause([c, !bl, t]);
            Node(t)
        }
        (Node(al), True) => {
            let t = Lit::positive(sink.fresh_var());
            sink.add_clause([c, t]);
            sink.add_clause([!al, t]);
            sink.add_clause([!c, al, !t]);
            Node(t)
        }
        (Node(al), False) => {
            let t = Lit::positive(sink.fresh_var());
            sink.add_clause([!t, c]);
            sink.add_clause([!t, al]);
            sink.add_clause([!c, !al, t]);
            Node(t)
        }
        (Node(al), Node(bl)) => {
            if al == bl {
                return Node(al);
            }
            let t = Lit::positive(sink.fresh_var());
            sink.add_clause([!c, !al, t]);
            sink.add_clause([!c, al, !t]);
            sink.add_clause([c, !bl, t]);
            sink.add_clause([c, bl, !t]);
            sink.add_clause([!al, !bl, t]);
            sink.add_clause([al, bl, !t]);
            Node(t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PbTerm;
    use coremax_cnf::Var;
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
