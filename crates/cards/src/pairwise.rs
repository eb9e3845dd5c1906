//! Naive binomial ("pairwise") encoding.
//!
//! `Σ lits ≤ k` holds iff no `k+1` of the literals are simultaneously
//! true, so one clause `(¬l₁ ∨ … ∨ ¬l_{k+1})` per `(k+1)`-subset encodes
//! the constraint with no auxiliary variables. Exponential in general;
//! used as the semantic oracle in tests and for very small `n`.

use coremax_cnf::Lit;

use crate::CnfSink;

pub(crate) fn at_most(lits: &[Lit], k: usize, sink: &mut CnfSink) {
    debug_assert!(k >= 1 && k < lits.len());
    let mut subset: Vec<usize> = (0..=k).collect();
    loop {
        sink.add_clause(subset.iter().map(|&i| !lits[i]));
        if !next_combination(&mut subset, lits.len()) {
            return;
        }
    }
}

/// Advances `idx` to the next m-combination of `0..n` in lexicographic
/// order; returns `false` after the last combination.
fn next_combination(idx: &mut [usize], n: usize) -> bool {
    let m = idx.len();
    let mut i = m;
    while i > 0 {
        i -= 1;
        if idx[i] < n - m + i {
            idx[i] += 1;
            for j in i + 1..m {
                idx[j] = idx[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax_cnf::Var;

    fn lits(n: usize) -> Vec<Lit> {
        (0..n).map(|i| Lit::positive(Var::new(i as u32))).collect()
    }

    fn binomial(n: usize, r: usize) -> usize {
        if r > n {
            return 0;
        }
        let mut result = 1usize;
        for i in 0..r {
            result = result * (n - i) / (i + 1);
        }
        result
    }

    #[test]
    fn clause_count_is_binomial() {
        for n in 2..=7 {
            for k in 1..n {
                let mut sink = CnfSink::new(n);
                at_most(&lits(n), k, &mut sink);
                assert_eq!(sink.num_clauses(), binomial(n, k + 1), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn no_aux_vars() {
        let mut sink = CnfSink::new(5);
        at_most(&lits(5), 2, &mut sink);
        assert_eq!(sink.num_vars(), 5);
    }

    #[test]
    fn at_most_one_is_all_pairs() {
        let mut sink = CnfSink::new(4);
        at_most(&lits(4), 1, &mut sink);
        assert_eq!(sink.num_clauses(), 6);
        for c in sink.clauses() {
            assert_eq!(c.len(), 2);
            assert!(c.iter().all(|l| l.is_negative()));
        }
    }
}
