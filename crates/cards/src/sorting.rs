//! Batcher odd-even merge-sorting network (msu4 **v2**).
//!
//! Eén & Sörensson, *Translating Pseudo-Boolean Constraints into SAT*
//! (JSAT 2006), §5.2. The network sorts the input literals so that true
//! inputs bubble to the front: output `out[i]` is true iff at least
//! `i+1` inputs are true. `Σ lits ≤ k` is then the single unit clause
//! `¬out[k]`. Comparators are encoded with full (two-sided) Tseitin
//! clauses so models remain extractable and the same network serves
//! both bound directions.
//!
//! Only a prefix of the outputs is ever built, as in the cardinality
//! networks of Asín, Nieuwenhuis, Oliveras & Rodríguez-Carbonell
//! (*Constraints* 16, 2011): the first `k` outputs of a merge depend only
//! on the first `k` outputs of each sorted half, so every sub-network
//! keeps `k` outputs, and a comparator output that reaches no kept
//! output is never created. The input is padded to a power of two with
//! constant-false literals that are folded away: a comparator with a
//! false input is a pair of wires, so padding costs no variable and no
//! clause.

use coremax_cnf::Lit;

use crate::CnfSink;

pub(crate) fn at_most(lits: &[Lit], k: usize, sink: &mut CnfSink) {
    debug_assert!(k >= 1 && k < lits.len());
    let out = sorted_prefix(lits, k + 1, sink);
    sink.add_clause([!out[k]]);
}

/// The first `k` outputs of the odd-even sorting network over `lits`,
/// in descending order: `out[i]` ⇔ at least `i+1` inputs are true.
/// Returns `min(k, lits.len())` outputs; the rest are constant false.
///
/// Raising a bound `Σ lits ≤ j` for any `j < k` is then one literal,
/// `¬out[j]`, so a network built once with `k` outputs serves every
/// tighter bound after it — as a unit clause or as an assumption.
///
/// # Examples
///
/// ```
/// use coremax_cnf::{Lit, Var};
/// use coremax_cards::{sorted_prefix, CnfSink};
///
/// let lits: Vec<Lit> = (0..100).map(|i| Lit::positive(Var::new(i))).collect();
/// let mut sink = CnfSink::new(100);
/// let out = sorted_prefix(&lits, 3, &mut sink);
/// assert_eq!(out.len(), 3);
/// // Σ lits ≤ 2 is the unit ¬out[2]; Σ lits ≤ 0 is ¬out[0].
/// sink.add_clause([!out[2]]);
/// ```
pub fn sorted_prefix(lits: &[Lit], k: usize, sink: &mut CnfSink) -> Vec<Lit> {
    if lits.len() <= 1 || k == 0 {
        return lits[..k.min(lits.len())].to_vec();
    }
    // Split where the network padded to a power of two splits; the
    // padding of the right half is folded away inside its own sort.
    let mid = lits.len().next_power_of_two() / 2;
    let a = sorted_prefix(&lits[..mid], k, sink);
    let b = sorted_prefix(&lits[mid..], k, sink);
    merge(&a, &b, k, sink)
}

/// The first `k` outputs of Batcher's odd-even merge of two descending
/// sequences, each constant false past its end.
fn merge(a: &[Lit], b: &[Lit], k: usize, sink: &mut CnfSink) -> Vec<Lit> {
    let a = &a[..a.len().min(k)];
    let b = &b[..b.len().min(k)];
    match (a, b) {
        (_, []) => return a.to_vec(),
        ([], _) => return b.to_vec(),
        ([x], [y]) => return comparator(*x, *y, k >= 2, sink),
        _ => {}
    }
    let evens = |s: &[Lit]| -> Vec<Lit> { s.iter().step_by(2).copied().collect() };
    let odds = |s: &[Lit]| -> Vec<Lit> { s.iter().skip(1).step_by(2).copied().collect() };
    // out[2i+1], out[2i+2] compare e[i] with d[i+1]; out[0] is d[0].
    let d = merge(&evens(a), &evens(b), k / 2 + 1, sink);
    let e = merge(&odds(a), &odds(b), k / 2, sink);

    let mut out = Vec::with_capacity(k.min(a.len() + b.len()));
    out.push(d[0]);
    let mut i = 0;
    while out.len() < k {
        match (e.get(i), d.get(i + 1)) {
            (Some(&x), Some(&y)) => {
                let with_lo = out.len() + 1 < k;
                out.extend(comparator(x, y, with_lo, sink));
            }
            // A comparator with a false input passes the other one
            // through, and every later output is false.
            (Some(&x), None) | (None, Some(&x)) => {
                out.push(x);
                break;
            }
            (None, None) => break,
        }
        i += 1;
    }
    out
}

/// A two-sorter: `hi = a ∨ b` and, when `with_lo`, `lo = a ∧ b`, each
/// with both implication directions emitted. Returns `[hi]` or
/// `[hi, lo]`.
fn comparator(a: Lit, b: Lit, with_lo: bool, sink: &mut CnfSink) -> Vec<Lit> {
    let hi = Lit::positive(sink.fresh_var());
    sink.add_clause([!a, hi]);
    sink.add_clause([!b, hi]);
    sink.add_clause([a, b, !hi]);
    if !with_lo {
        return vec![hi];
    }
    let lo = Lit::positive(sink.fresh_var());
    sink.add_clause([!a, !b, lo]);
    sink.add_clause([a, !lo]);
    sink.add_clause([b, !lo]);
    vec![hi, lo]
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax_cnf::Var;
    use coremax_sat::SolveOutcome;

    fn input_lits(n: usize) -> Vec<Lit> {
        (0..n).map(|i| Lit::positive(Var::new(i as u32))).collect()
    }

    /// For every input assignment, every kept output must equal the
    /// unary count ("out[i] ⇔ popcount > i"): the model agrees, and the
    /// opposite value is refuted. Covers every `k ≤ n ≤ 8`, so every
    /// padded size up to 8.
    #[test]
    fn network_counts_exactly() {
        for n in 0..=8usize {
            for k in 0..=n {
                let lits = input_lits(n);
                let mut sink = CnfSink::new(n);
                let out = sorted_prefix(&lits, k, &mut sink);
                assert_eq!(out.len(), k, "n={n} k={k}");
                for bits in 0u32..(1 << n) {
                    let mut solver = crate::test_support::solver_for_sink(&sink);
                    let inputs = crate::test_support::bit_assumptions(n, bits);
                    assert_eq!(solver.solve_with_assumptions(&inputs), SolveOutcome::Sat);
                    let m = solver.model().unwrap().clone();
                    let pop = bits.count_ones() as usize;
                    for (i, &o) in out.iter().enumerate() {
                        let expected = if pop > i { o } else { !o };
                        assert!(m.satisfies(expected), "n={n} k={k} bits={bits:b} out {i}");
                        let mut wrong = inputs.clone();
                        wrong.push(!expected);
                        assert_eq!(
                            solver.solve_with_assumptions(&wrong),
                            SolveOutcome::Unsat,
                            "n={n} k={k} bits={bits:b}: out {i} is not forced"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn comparator_truth_table() {
        let a = Lit::positive(Var::new(0));
        let b = Lit::positive(Var::new(1));
        let mut sink = CnfSink::new(2);
        let out = comparator(a, b, true, &mut sink);
        for bits in 0u32..4 {
            let mut solver = crate::test_support::solver_for_sink(&sink);
            let assumptions = [
                Lit::new(Var::new(0), bits & 1 == 1),
                Lit::new(Var::new(1), bits & 2 == 2),
            ];
            assert_eq!(
                solver.solve_with_assumptions(&assumptions),
                SolveOutcome::Sat
            );
            let m = solver.model().unwrap();
            let (av, bv) = (bits & 1 == 1, bits & 2 == 2);
            assert_eq!(m.satisfies(out[0]), av || bv);
            assert_eq!(m.satisfies(out[1]), av && bv);
        }
    }

    #[test]
    fn network_size_nlog2n() {
        let n = 64;
        let lits = input_lits(n);
        let mut sink = CnfSink::new(n);
        let _ = sorted_prefix(&lits, n, &mut sink);
        // O(n log² n) comparators, 6 clauses each.
        let comparators = (sink.num_vars() - n) / 2;
        assert!(comparators <= n * 36, "too many comparators: {comparators}");
    }

    #[test]
    fn padding_is_free() {
        // Five inputs pad to eight: no variable or clause may stand for
        // a padding literal, so the network is no larger than its
        // comparators over real inputs.
        let lits = input_lits(5);
        let mut sink = CnfSink::new(5);
        let out = sorted_prefix(&lits, 5, &mut sink);
        assert_eq!(out.len(), 5);
        assert!(sink.clauses().iter().all(|c| c.len() >= 2));
        assert_eq!(sink.num_clauses(), 3 * (sink.num_vars() - 5));
    }

    #[test]
    fn short_prefix_of_a_wide_network_stays_small() {
        // msu4 v2 on atpg-k2-s6: one core of 1,239 blocking variables
        // and a first bound of ub − 1 = 2, so three outputs suffice.
        let lits = input_lits(1239);
        let mut sink = CnfSink::new(1239);
        let out = sorted_prefix(&lits, 3, &mut sink);
        assert_eq!(out.len(), 3);
        assert!(
            sink.num_clauses() <= 20_000,
            "{} clauses for 3 outputs",
            sink.num_clauses()
        );
    }
}
