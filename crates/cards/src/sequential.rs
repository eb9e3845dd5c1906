//! Sinz sequential-counter encoding (LTSeq).
//!
//! C. Sinz, *Towards an Optimal CNF Encoding of Boolean Cardinality
//! Constraints*, CP 2005. Registers `s(i,j)` mean "at least `j+1` of the
//! first `i+1` literals are true". `O(n·k)` clauses and auxiliaries —
//! the "linear encoding" referenced for msu2/msu3 in the companion
//! report (Marques-Silva & Planes, CoRR abs/0712.0097).

use coremax_cnf::{Lit, Var};

use crate::CnfSink;

pub(crate) fn at_most(lits: &[Lit], k: usize, sink: &mut CnfSink) {
    let n = lits.len();
    debug_assert!(k >= 1 && k < n);

    // s(i,j): register variable, i in 0..n-1 (no registers needed for
    // the last literal), j in 0..k, allocated row by row.
    let first = sink.num_vars();
    for _ in 0..(n - 1) * k {
        sink.fresh_var();
    }
    let reg = |i: usize, j: usize| Lit::positive(Var::new((first + i * k + j) as u32));

    // x0 → s(0,0)
    sink.add_clause([!lits[0], reg(0, 0)]);
    // ¬s(0,j) for j ≥ 1 (a prefix of length one cannot reach count 2).
    for j in 1..k {
        sink.add_clause([!reg(0, j)]);
    }
    // Indexing is clearer than iterators here: every clause couples
    // position i with its predecessor register row i - 1.
    #[allow(clippy::needless_range_loop)]
    for i in 1..n - 1 {
        // xi → s(i,0)
        sink.add_clause([!lits[i], reg(i, 0)]);
        // s(i−1,0) → s(i,0)
        sink.add_clause([!reg(i - 1, 0), reg(i, 0)]);
        for j in 1..k {
            // xi ∧ s(i−1,j−1) → s(i,j)
            sink.add_clause([!lits[i], !reg(i - 1, j - 1), reg(i, j)]);
            // s(i−1,j) → s(i,j)
            sink.add_clause([!reg(i - 1, j), reg(i, j)]);
        }
        // xi ∧ s(i−1,k−1) → overflow forbidden
        sink.add_clause([!lits[i], !reg(i - 1, k - 1)]);
    }
    // Last literal: overflow check only.
    sink.add_clause([!lits[n - 1], !reg(n - 2, k - 1)]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax_cnf::Var;

    #[test]
    fn clause_and_var_counts_are_linear() {
        let n = 20;
        let k = 3;
        let lits: Vec<Lit> = (0..n).map(|i| Lit::positive(Var::new(i as u32))).collect();
        let mut sink = CnfSink::new(n);
        at_most(&lits, k, &mut sink);
        assert_eq!(sink.num_vars() - n, (n - 1) * k);
        // 2nk + n - 3k - 1 clauses per Sinz's paper (up to constants).
        assert!(sink.num_clauses() <= 2 * n * k + n);
    }

    #[test]
    fn at_most_one_structure() {
        let lits: Vec<Lit> = (0..3).map(|i| Lit::positive(Var::new(i))).collect();
        let mut sink = CnfSink::new(3);
        at_most(&lits, 1, &mut sink);
        // n-1 = 2 registers, and a handful of clauses.
        assert_eq!(sink.num_vars(), 5);
        assert!(sink.num_clauses() >= 4);
    }
}
