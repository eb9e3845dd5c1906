//! BDD / ITE-chain encoding (msu4 **v1**).
//!
//! Eén & Sörensson, *Translating Pseudo-Boolean Constraints into SAT*
//! (JSAT 2006), §5.1: build the (reduced, ordered) BDD of the constraint
//! `Σ lits ≤ k` and introduce one Tseitin variable per internal node,
//! encoded as an if-then-else gate. For a cardinality constraint the
//! BDD collapses to the grid of states `(i, j)` = "among `lits[i..]` at
//! most `k − j` may still be true", so the BDD has `O(n·k)` nodes and
//! memoisation on `(i, j)` builds it directly without a BDD package's
//! generality — exactly how minisat+ special-cases cardinality.

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

pub(crate) fn at_most(lits: &[Lit], k: usize, sink: &mut CnfSink) {
    debug_assert!(k >= 1 && k < lits.len());
    let mut memo: HashMap<(usize, usize), NodeRef> = HashMap::new();
    let root = build(lits, k, 0, 0, &mut memo, sink);
    match root {
        NodeRef::True => {}
        NodeRef::False => sink.add_clause([]),
        NodeRef::Node(l) => sink.add_clause([l]),
    }
}

/// Builds the node for state `(i, j)`: the constraint restricted to
/// suffix `lits[i..]` given that `j` literals among `lits[..i]` are true.
fn build(
    lits: &[Lit],
    k: usize,
    i: usize,
    j: usize,
    memo: &mut HashMap<(usize, usize), NodeRef>,
    sink: &mut CnfSink,
) -> NodeRef {
    if j > k {
        return NodeRef::False;
    }
    // All remaining literals may be true without exceeding the bound.
    if lits.len() - i <= k - j {
        return NodeRef::True;
    }
    if let Some(&n) = memo.get(&(i, j)) {
        return n;
    }
    let cond = lits[i];
    let then_branch = build(lits, k, i + 1, j + 1, memo, sink); // lits[i] true
    let else_branch = build(lits, k, i + 1, j, memo, sink); // lits[i] false
    let node = encode_ite(cond, then_branch, else_branch, sink);
    memo.insert((i, j), node);
    node
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
        at_most(&lits, k, &mut sink);
        // One aux var per internal node, at most n·(k+1) nodes.
        assert!(sink.num_vars() - n <= n * (k + 1));
        assert!(sink.num_clauses() <= 6 * n * (k + 1) + 1);
    }

    #[test]
    fn memoisation_shares_nodes() {
        let n = 8;
        let lits = input_lits(n);
        let mut sink_a = CnfSink::new(n);
        at_most(&lits, 2, &mut sink_a);
        // Without memoisation the tree would have 2^8 nodes; with it the
        // grid has at most n*(k+1) = 24.
        assert!(sink_a.num_vars() - n <= 24);
    }

    #[test]
    fn root_is_asserted() {
        let lits = input_lits(3);
        let mut sink = CnfSink::new(3);
        at_most(&lits, 1, &mut sink);
        let last = sink.clauses().iter().last().unwrap();
        assert_eq!(last.len(), 1, "root unit clause expected");
    }
}
