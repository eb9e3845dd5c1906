//! CNF encodings of cardinality constraints.
//!
//! The msu4 algorithm of Marques-Silva & Planes (DATE 2008) adds
//! constraints of the form `Σ bᵢ ≤ k` and `Σ bᵢ ≥ 1` to a working CNF
//! formula. Its two implementation variants differ *only* in how these
//! constraints are translated to clauses:
//!
//! - **v1** used BDDs ([`CardEncoding::Bdd`]), and
//! - **v2** used sorting networks ([`CardEncoding::SortingNetwork`]),
//!
//! both following Eén & Sörensson's *Translating Pseudo-Boolean
//! Constraints into SAT* (JSAT 2006). This crate implements those two
//! plus the sequential counter (Sinz 2005, the "linear encoding" of
//! msu2/msu3) and the totalizer (Bailleux & Boufkhad 2003) for the
//! ablation experiments, and the naive pairwise/binomial encoding as a
//! correctness oracle.
//!
//! All encodings are *exact*: for a total assignment of the input
//! literals, the encoding (with its auxiliary variables) is satisfiable
//! iff the cardinality bound holds.
//!
//! # Examples
//!
//! ```
//! use coremax_cnf::{Lit, Var};
//! use coremax_cards::{CardEncoding, CnfSink, encode_at_most};
//!
//! let lits: Vec<Lit> = (0..4).map(|i| Lit::positive(Var::new(i))).collect();
//! let mut sink = CnfSink::new(4); // variables 0..4 already in use
//! encode_at_most(&lits, 2, CardEncoding::SortingNetwork, &mut sink);
//! assert!(sink.num_clauses() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bdd;
mod pairwise;
mod sequential;
mod sink;
mod sorting;
mod totalizer;

pub use sink::CnfSink;
pub use sorting::sorted_prefix;
pub use totalizer::IncrementalTotalizer;

/// Shared scaffolding for the exhaustive encoding tests in this crate
/// (unit and integration alike): every one of them builds the same
/// preamble — a fresh solver loaded with a sink's clauses — and forces
/// the input variables to a bit pattern via assumptions.
#[doc(hidden)]
pub mod test_support {
    use coremax_cnf::{Lit, Var};
    use coremax_sat::Solver;

    use crate::CnfSink;

    /// A fresh solver over the sink's variables, loaded with all of
    /// its clauses.
    #[must_use]
    pub fn solver_for_sink(sink: &CnfSink) -> Solver {
        let mut solver = Solver::new();
        solver.ensure_vars(sink.num_vars());
        for c in sink.clauses() {
            solver.add_clause(c.iter().copied());
        }
        solver
    }

    /// Assumptions forcing input variable `i` (for each `i < n`) to
    /// bit `i` of `bits`.
    #[must_use]
    pub fn bit_assumptions(n: usize, bits: u32) -> Vec<Lit> {
        (0..n)
            .map(|i| Lit::new(Var::new(i as u32), bits >> i & 1 == 1))
            .collect()
    }
}

use coremax_cnf::Lit;

/// Selects the CNF translation used for a cardinality constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CardEncoding {
    /// BDD / ITE-chain encoding (msu4 **v1**, Eén–Sörensson §5.1).
    Bdd,
    /// Batcher odd-even sorting network (msu4 **v2**, Eén–Sörensson §5.2).
    SortingNetwork,
    /// Sinz sequential counter — the "linear encoding" used by msu2/msu3.
    SequentialCounter,
    /// Bailleux–Boufkhad totalizer (unary counting tree).
    Totalizer,
    /// Naive binomial encoding; exponential, for tests and tiny n only.
    Pairwise,
}

impl CardEncoding {
    /// All supported encodings, for sweep-style benchmarks.
    pub const ALL: [CardEncoding; 5] = [
        CardEncoding::Bdd,
        CardEncoding::SortingNetwork,
        CardEncoding::SequentialCounter,
        CardEncoding::Totalizer,
        CardEncoding::Pairwise,
    ];

    /// A short stable name (used by the bench harness output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CardEncoding::Bdd => "bdd",
            CardEncoding::SortingNetwork => "sortnet",
            CardEncoding::SequentialCounter => "seqcounter",
            CardEncoding::Totalizer => "totalizer",
            CardEncoding::Pairwise => "pairwise",
        }
    }
}

impl std::fmt::Display for CardEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Encodes `Σ lits ≤ k` into `sink` using the chosen encoding.
///
/// `k >= lits.len()` produces no clauses (trivially true); `k == 0`
/// produces unit clauses forcing every literal false.
pub fn encode_at_most(lits: &[Lit], k: usize, encoding: CardEncoding, sink: &mut CnfSink) {
    if k >= lits.len() {
        return;
    }
    if k == 0 {
        for &l in lits {
            sink.add_clause([!l]);
        }
        return;
    }
    match encoding {
        CardEncoding::Bdd => bdd::at_most(lits, k, sink),
        CardEncoding::SortingNetwork => sorting::at_most(lits, k, sink),
        CardEncoding::SequentialCounter => sequential::at_most(lits, k, sink),
        CardEncoding::Totalizer => totalizer::at_most(lits, k, sink),
        CardEncoding::Pairwise => pairwise::at_most(lits, k, sink),
    }
}

/// Encodes `Σ lits ≥ k` into `sink` using the chosen encoding.
///
/// Implemented as `Σ ¬lits ≤ n − k`. `k == 0` is trivially true;
/// `k > lits.len()` is unsatisfiable and emits the empty clause.
pub fn encode_at_least(lits: &[Lit], k: usize, encoding: CardEncoding, sink: &mut CnfSink) {
    if k == 0 {
        return;
    }
    if k > lits.len() {
        sink.add_clause([]);
        return;
    }
    if k == 1 {
        // Σ lits ≥ 1 is just the clause itself — the form msu4 adds for
        // every freshly blocked core (Algorithm 1, line 19).
        sink.add_clause(lits.iter().copied());
        return;
    }
    let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
    encode_at_most(&negated, lits.len() - k, encoding, sink);
}

/// Encodes `Σ lits = k` into `sink` (conjunction of ≤ k and ≥ k).
pub fn encode_exactly(lits: &[Lit], k: usize, encoding: CardEncoding, sink: &mut CnfSink) {
    encode_at_most(lits, k, encoding, sink);
    encode_at_least(lits, k, encoding, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax_cnf::Var;

    fn input_lits(n: usize) -> Vec<Lit> {
        (0..n).map(|i| Lit::positive(Var::new(i as u32))).collect()
    }

    /// Exhaustive semantic check: for every assignment of the `n` input
    /// variables, the encoding extended by forcing that assignment must
    /// be satisfiable iff the constraint holds.
    fn check_exact_at_most(n: usize, k: usize, encoding: CardEncoding) {
        use coremax_sat::SolveOutcome;
        let lits = input_lits(n);
        let mut sink = CnfSink::new(n);
        encode_at_most(&lits, k, encoding, &mut sink);
        for bits in 0u32..(1 << n) {
            let mut solver = crate::test_support::solver_for_sink(&sink);
            let assumptions = crate::test_support::bit_assumptions(n, bits);
            let outcome = solver.solve_with_assumptions(&assumptions);
            let popcount = bits.count_ones() as usize;
            let expected = if popcount <= k {
                SolveOutcome::Sat
            } else {
                SolveOutcome::Unsat
            };
            assert_eq!(
                outcome, expected,
                "{encoding} at_most({n},{k}) bits={bits:b}"
            );
        }
    }

    #[test]
    fn all_encodings_exact_small() {
        for encoding in CardEncoding::ALL {
            for n in 1..=5 {
                for k in 0..=n {
                    check_exact_at_most(n, k, encoding);
                }
            }
        }
    }

    #[test]
    fn all_encodings_exact_n6() {
        for encoding in CardEncoding::ALL {
            for k in [1, 2, 3, 5] {
                check_exact_at_most(6, k, encoding);
            }
        }
    }

    #[test]
    fn at_least_one_is_plain_clause() {
        let lits = input_lits(3);
        let mut sink = CnfSink::new(3);
        encode_at_least(&lits, 1, CardEncoding::Bdd, &mut sink);
        assert_eq!(sink.num_clauses(), 1);
        assert_eq!(sink.clauses().get(0).lits(), lits);
    }

    #[test]
    fn at_least_semantics() {
        use coremax_sat::SolveOutcome;
        for encoding in CardEncoding::ALL {
            let n = 4;
            let lits = input_lits(n);
            let mut sink = CnfSink::new(n);
            encode_at_least(&lits, 3, encoding, &mut sink);
            for bits in 0u32..(1 << n) {
                let mut solver = crate::test_support::solver_for_sink(&sink);
                let assumptions = crate::test_support::bit_assumptions(n, bits);
                let sat = solver.solve_with_assumptions(&assumptions) == SolveOutcome::Sat;
                assert_eq!(sat, bits.count_ones() >= 3, "{encoding} ≥3 bits={bits:b}");
            }
        }
    }

    #[test]
    fn exactly_semantics() {
        use coremax_sat::SolveOutcome;
        for encoding in CardEncoding::ALL {
            let n = 4;
            let k = 2;
            let lits = input_lits(n);
            let mut sink = CnfSink::new(n);
            encode_exactly(&lits, k, encoding, &mut sink);
            for bits in 0u32..(1 << n) {
                let mut solver = crate::test_support::solver_for_sink(&sink);
                let assumptions = crate::test_support::bit_assumptions(n, bits);
                let sat = solver.solve_with_assumptions(&assumptions) == SolveOutcome::Sat;
                assert_eq!(
                    sat,
                    bits.count_ones() as usize == k,
                    "{encoding} =2 bits={bits:b}"
                );
            }
        }
    }

    #[test]
    fn trivial_bounds() {
        let lits = input_lits(3);
        let mut sink = CnfSink::new(3);
        encode_at_most(&lits, 3, CardEncoding::Bdd, &mut sink);
        assert_eq!(sink.num_clauses(), 0);
        encode_at_least(&lits, 0, CardEncoding::Bdd, &mut sink);
        assert_eq!(sink.num_clauses(), 0);
        encode_at_most(&lits, 0, CardEncoding::SortingNetwork, &mut sink);
        assert_eq!(sink.num_clauses(), 3); // three forcing units
        encode_at_least(&lits, 4, CardEncoding::Totalizer, &mut sink);
        assert!(sink.clauses().iter().last().unwrap().is_empty());
    }

    #[test]
    fn negated_input_literals_supported() {
        use coremax_sat::SolveOutcome;
        // Constraint over ¬x literals: Σ ¬xᵢ ≤ 1.
        let lits: Vec<Lit> = (0..3).map(|i| Lit::negative(Var::new(i))).collect();
        for encoding in CardEncoding::ALL {
            let mut sink = CnfSink::new(3);
            encode_at_most(&lits, 1, encoding, &mut sink);
            for bits in 0u32..8 {
                let mut solver = crate::test_support::solver_for_sink(&sink);
                let assumptions = crate::test_support::bit_assumptions(3, bits);
                let sat = solver.solve_with_assumptions(&assumptions) == SolveOutcome::Sat;
                let zeros = 3 - bits.count_ones();
                assert_eq!(sat, zeros <= 1, "{encoding} bits={bits:b}");
            }
        }
    }

    #[test]
    fn encoding_sizes_reported() {
        // Not a semantic test: document relative clause counts so size
        // regressions are caught.
        let lits = input_lits(16);
        let mut sizes = Vec::new();
        for encoding in CardEncoding::ALL {
            if encoding == CardEncoding::Pairwise {
                continue; // binomial(16, 9) clauses — skip
            }
            let mut sink = CnfSink::new(16);
            encode_at_most(&lits, 8, encoding, &mut sink);
            sizes.push((encoding, sink.num_clauses(), sink.num_vars() - 16));
        }
        for (enc, clauses, aux) in sizes {
            assert!(clauses > 0, "{enc} emitted nothing");
            assert!(clauses < 5000, "{enc} blew up: {clauses} clauses");
            assert!(aux < 2000, "{enc} used {aux} aux vars");
        }
    }
}
