//! BDD / ITE-chain encoding of `Σ cᵢ·lᵢ ≤ bound`: msu4 **v1**'s
//! cardinality bound (every `cᵢ = 1`) and pbo's pseudo-Boolean one.
//!
//! Eén & Sörensson, *Translating Pseudo-Boolean Constraints into SAT*
//! (JSAT 2006), §4 and §5.1: build the (reduced, ordered) BDD of the
//! constraint and introduce one Tseitin variable per internal node,
//! encoded as an if-then-else gate. The constraint is monotone, so its
//! BDD has one node per distinct reachable partial sum: it is built
//! top-down with memoisation on `(index, accumulated sum)`, terms sorted
//! by descending coefficient first, which tends to maximise node
//! sharing. At unit coefficients the nodes are the grid of states
//! `(i, j)` = "among `lits[i..]` at most `k − j` may still be true", so
//! a cardinality BDD has `O(n·k)` nodes — exactly how minisat+
//! special-cases cardinality.

use std::collections::HashMap;

use coremax_cnf::Lit;

use crate::CnfSink;

/// A node outcome during BDD construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRef {
    True,
    False,
    Node(Lit),
}

/// Encodes `Σ cᵢ·lᵢ ≤ bound` over `terms = [(cᵢ, lᵢ)]` into `sink` as a
/// BDD: one fresh variable and an if-then-else gate per internal node,
/// and the root asserted by a unit clause. A bound that every
/// assignment meets emits nothing. [`CardEncoding::Bdd`] is this
/// encoding at unit coefficients.
///
/// Every coefficient must be positive.
///
/// [`CardEncoding::Bdd`]: crate::CardEncoding::Bdd
///
/// # Examples
///
/// ```
/// use coremax_cards::{weighted_at_most, CnfSink};
/// use coremax_cnf::{Lit, Var};
///
/// // 3·x₀ + 2·x₁ + x₂ ≤ 3
/// let x: Vec<Lit> = (0..3).map(|i| Lit::positive(Var::new(i))).collect();
/// let mut sink = CnfSink::new(3);
/// weighted_at_most(vec![(3, x[0]), (2, x[1]), (1, x[2])], 3, &mut sink);
/// assert!(sink.num_clauses() > 0);
/// ```
pub fn weighted_at_most(mut terms: Vec<(u64, Lit)>, bound: u64, sink: &mut CnfSink) {
    debug_assert!(terms.iter().all(|&(c, _)| c > 0), "positive coefficients");
    terms.sort_by_key(|&(c, _)| std::cmp::Reverse(c));
    let total = terms.iter().map(|&(c, _)| c).sum();
    let mut bdd = Bdd {
        terms: &terms,
        bound,
        memo: HashMap::new(),
        sink,
    };
    match bdd.build(0, 0, total) {
        NodeRef::True => {}
        NodeRef::False => bdd.sink.add_clause([]),
        NodeRef::Node(l) => bdd.sink.add_clause([l]),
    }
}

/// One constraint's BDD under construction.
struct Bdd<'a> {
    terms: &'a [(u64, Lit)],
    bound: u64,
    memo: HashMap<(usize, u64), NodeRef>,
    sink: &'a mut CnfSink,
}

impl Bdd<'_> {
    /// Builds the node for state `(i, sum)`: the constraint restricted
    /// to `terms[i..]`, whose coefficients add up to `rest`, given that
    /// the true literals among `terms[..i]` add up to `sum`.
    fn build(&mut self, i: usize, sum: u64, rest: u64) -> NodeRef {
        if sum > self.bound {
            return NodeRef::False;
        }
        // All remaining literals may be true without exceeding the bound.
        if sum + rest <= self.bound {
            return NodeRef::True;
        }
        if let Some(&n) = self.memo.get(&(i, sum)) {
            return n;
        }
        let (coeff, cond) = self.terms[i];
        let then_branch = self.build(i + 1, sum + coeff, rest - coeff); // cond true
        let else_branch = self.build(i + 1, sum, rest - coeff); // cond false
        let node = encode_ite(cond, then_branch, else_branch, self.sink);
        self.memo.insert((i, sum), node);
        node
    }
}

/// Tseitin-encodes `t ⇔ ITE(c, a, b)` with terminal simplifications,
/// returning the node's literal (or a terminal when it simplifies away).
fn encode_ite(c: Lit, a: NodeRef, b: NodeRef, sink: &mut CnfSink) -> NodeRef {
    use NodeRef::{False, Node, True};
    match (a, b) {
        (True, True) => True,
        (False, False) => False,
        // t ⇔ (c → a) with b = true, etc. — each case emits the minimal
        // two-sided encoding.
        (True, False) => Node(c),
        (False, True) => Node(!c),
        (True, Node(bl)) => {
            // t ⇔ c ∨ b
            let t = Lit::positive(sink.fresh_var());
            sink.add_clause([!c, t]);
            sink.add_clause([!bl, t]);
            sink.add_clause([c, bl, !t]);
            Node(t)
        }
        (False, Node(bl)) => {
            // t ⇔ ¬c ∧ b
            let t = Lit::positive(sink.fresh_var());
            sink.add_clause([!t, !c]);
            sink.add_clause([!t, bl]);
            sink.add_clause([c, !bl, t]);
            Node(t)
        }
        (Node(al), True) => {
            // t ⇔ ¬c ∨ a
            let t = Lit::positive(sink.fresh_var());
            sink.add_clause([c, t]);
            sink.add_clause([!al, t]);
            sink.add_clause([!c, al, !t]);
            Node(t)
        }
        (Node(al), False) => {
            // t ⇔ c ∧ a
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
            // c → (t ⇔ a)
            sink.add_clause([!c, !al, t]);
            sink.add_clause([!c, al, !t]);
            // ¬c → (t ⇔ b)
            sink.add_clause([c, !bl, t]);
            sink.add_clause([c, bl, !t]);
            // Redundant but propagation-strengthening ("both branches"):
            sink.add_clause([!al, !bl, t]);
            sink.add_clause([al, bl, !t]);
            Node(t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_at_most, CardEncoding};
    use coremax_cnf::Var;

    fn input_lits(n: usize) -> Vec<Lit> {
        (0..n).map(|i| Lit::positive(Var::new(i as u32))).collect()
    }

    #[test]
    fn node_count_is_grid_sized() {
        let n = 30;
        let k = 5;
        let lits = input_lits(n);
        let mut sink = CnfSink::new(n);
        encode_at_most(&lits, k, CardEncoding::Bdd, &mut sink);
        // One aux var per internal node, at most n·(k+1) nodes.
        assert!(sink.num_vars() - n <= n * (k + 1));
        assert!(sink.num_clauses() <= 6 * n * (k + 1) + 1);
    }

    #[test]
    fn memoisation_shares_nodes() {
        let n = 8;
        let lits = input_lits(n);
        let mut sink_a = CnfSink::new(n);
        encode_at_most(&lits, 2, CardEncoding::Bdd, &mut sink_a);
        // Without memoisation the tree would have 2^8 nodes; with it the
        // grid has at most n*(k+1) = 24.
        assert!(sink_a.num_vars() - n <= 24);
    }

    #[test]
    fn root_is_asserted() {
        let lits = input_lits(3);
        let mut sink = CnfSink::new(3);
        encode_at_most(&lits, 1, CardEncoding::Bdd, &mut sink);
        let last = sink.clauses().iter().last().unwrap();
        assert_eq!(last.len(), 1, "root unit clause expected");
    }
}
