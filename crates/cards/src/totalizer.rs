//! Bailleux–Boufkhad totalizer encoding.
//!
//! O. Bailleux and Y. Boufkhad, *Efficient CNF Encoding of Boolean
//! Cardinality Constraints*, CP 2003. A balanced tree of unary adders:
//! each node carries output literals `o₁ ≥ o₂ ≥ …` in unary ("at least
//! i inputs are true"), merged from its two children. The at-most-k
//! constraint asserts `¬o_{k+1}` at the root. We emit both implication
//! directions so the same counter also serves at-least bounds and keeps
//! models extractable.

use coremax_cnf::Lit;

use crate::CnfSink;

pub(crate) fn at_most(lits: &[Lit], k: usize, sink: &mut CnfSink) {
    debug_assert!(k >= 1 && k < lits.len());
    let outputs = build_totalizer(lits, sink);
    // Forbid the (k+1)-th output: at most k inputs may be true.
    sink.add_clause([!outputs[k]]);
}

/// Builds the unary counting tree and returns the root's output
/// literals (`out[i]` ⇔ at least `i+1` inputs true).
fn build_totalizer(lits: &[Lit], sink: &mut CnfSink) -> Vec<Lit> {
    if lits.len() == 1 {
        return vec![lits[0]];
    }
    let mid = lits.len() / 2;
    let left = build_totalizer(&lits[..mid], sink);
    let right = build_totalizer(&lits[mid..], sink);
    merge(&left, &right, sink)
}

/// Merges two unary numbers with fresh output literals.
fn merge(a: &[Lit], b: &[Lit], sink: &mut CnfSink) -> Vec<Lit> {
    let n = a.len() + b.len();
    let out: Vec<Lit> = (0..n).map(|_| Lit::positive(sink.fresh_var())).collect();
    // a_i ∧ b_j → out_{i+j+1}  (with the empty-index conventions below)
    for i in 0..=a.len() {
        for j in 0..=b.len() {
            if i + j == 0 {
                continue;
            }
            // Sum direction: i trues on the left and j on the right imply
            // out_{i+j}.
            sink.add_clause(
                (i > 0)
                    .then(|| !a[i - 1])
                    .into_iter()
                    .chain((j > 0).then(|| !b[j - 1]))
                    .chain([out[i + j - 1]]),
            );
            // Converse direction: out_{i+j} implies i trues on the left or
            // j+1 on the right / etc. Encoded as:
            // ¬a_{i+1} ∧ ¬b_{j+1} → ¬out_{i+j+1}.
            if i + j < n {
                sink.add_clause(
                    a.get(i)
                        .copied()
                        .into_iter()
                        .chain(b.get(j).copied())
                        .chain([!out[i + j]]),
                );
            }
        }
    }
    out
}

/// One node of the persistent counting tree.
///
/// Leaves carry the input literal itself as their only "output";
/// internal nodes own the fresh output literals materialised so far.
/// Nodes are stored in post-order (children before parents, root last)
/// so a single forward sweep can extend children before the parents
/// that merge them.
#[derive(Debug, Clone)]
struct TotNode {
    /// `None` for leaves; `Some((left, right))` indexes into the node
    /// vector for internal nodes.
    children: Option<(usize, usize)>,
    /// Number of input literals under this node.
    size: usize,
    /// Materialised output literals: `outs[i]` ⇔ at least `i+1` of this
    /// node's inputs are true. Truncated at `min(size, bound + 1)`.
    outs: Vec<Lit>,
}

/// An incrementally-extensible Bailleux–Boufkhad totalizer.
///
/// The tree is built once over a fixed input set, *truncated* at a
/// bound `k`: each node materialises only its first `min(size, k+1)`
/// output literals and the clauses that define them, which is all an
/// at-most-`k` constraint can ever inspect. [`increase_bound`] later
/// raises the truncation point, reusing every existing internal node
/// and emitting **only** the new output variables and the clauses whose
/// consequent is a newly materialised output — the incremental-reuse
/// contract OLL/RC2-class solvers depend on when a core forces a bound
/// from `k` to `k+1`.
///
/// Output semantics match [`build_totalizer`]: `output(i)` ⇔ at least
/// `i+1` inputs are true. An at-most-`k` bound is enforced by asserting
/// (or assuming, for retractable bounds) `¬output(k)`; both implication
/// directions are emitted so models stay extractable.
///
/// The builder is sink-agnostic across calls: each call takes a fresh
/// [`CnfSink`] whose first free variable continues the caller's
/// allocation (e.g. `CnfSink::new(engine.num_vars())`), and the caller
/// drains the sink's clauses into its persistent solver. Literals
/// stored in the tree remain valid across sinks.
///
/// [`increase_bound`]: IncrementalTotalizer::increase_bound
#[derive(Debug, Clone)]
pub struct IncrementalTotalizer {
    /// Post-order node storage; the root is the last element.
    nodes: Vec<TotNode>,
    /// Current truncation bound: outputs `0..=bound` are materialised
    /// (capped by each node's size).
    bound: usize,
}

impl IncrementalTotalizer {
    /// Builds the counting tree over `lits`, materialising outputs up
    /// to index `bound` (so `output(bound)` exists whenever
    /// `bound < lits.len()`). Fresh variables and clauses go into
    /// `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty.
    #[must_use]
    pub fn new(lits: &[Lit], bound: usize, sink: &mut CnfSink) -> Self {
        assert!(!lits.is_empty(), "totalizer over an empty input set");
        let mut nodes = Vec::with_capacity(2 * lits.len());
        Self::build_tree(lits, &mut nodes);
        let mut tot = IncrementalTotalizer { nodes, bound: 0 };
        tot.materialise(None, bound, sink);
        tot.bound = bound;
        tot
    }

    /// Recursive balanced split, pushing nodes in post-order and
    /// returning the subtree root's index.
    fn build_tree(lits: &[Lit], nodes: &mut Vec<TotNode>) -> usize {
        if lits.len() == 1 {
            nodes.push(TotNode {
                children: None,
                size: 1,
                outs: vec![lits[0]],
            });
            return nodes.len() - 1;
        }
        let mid = lits.len() / 2;
        let left = Self::build_tree(&lits[..mid], nodes);
        let right = Self::build_tree(&lits[mid..], nodes);
        nodes.push(TotNode {
            children: Some((left, right)),
            size: lits.len(),
            outs: Vec::new(),
        });
        nodes.len() - 1
    }

    /// Number of input literals the tree counts.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.nodes.last().map_or(0, |root| root.size)
    }

    /// The current truncation bound.
    #[must_use]
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// The root output literal at index `k` (`⇔` at least `k+1` inputs
    /// true), or `None` when `k` exceeds the input count or has not
    /// been materialised yet.
    #[must_use]
    pub fn output(&self, k: usize) -> Option<Lit> {
        self.nodes.last().and_then(|root| root.outs.get(k)).copied()
    }

    /// Raises the truncation bound, emitting only the new output
    /// variables and the clauses that define them into `sink`. Every
    /// previously emitted variable and clause is reused untouched; a
    /// `new_bound` at or below the current bound is a no-op.
    pub fn increase_bound(&mut self, new_bound: usize, sink: &mut CnfSink) {
        if new_bound <= self.bound {
            return;
        }
        let old = self.bound;
        self.materialise(Some(old), new_bound, sink);
        self.bound = new_bound;
    }

    /// Shared emission sweep: materialises every output index in
    /// `(old_bound, new_bound]` (per node, capped by node size) plus
    /// exactly the merge clauses whose consequent lands in that window.
    /// `old_bound = None` means nothing has been emitted yet.
    fn materialise(&mut self, old_bound: Option<usize>, new_bound: usize, sink: &mut CnfSink) {
        // Post-order storage: children precede parents, so child
        // outputs for this window already exist when the parent merge
        // clauses need them.
        for idx in 0..self.nodes.len() {
            let Some((left, right)) = self.nodes[idx].children else {
                continue;
            };
            let size = self.nodes[idx].size;
            let new_mat = size.min(new_bound + 1);
            let old_mat = old_bound.map_or(0, |b| size.min(b + 1));
            // Extend this node's outputs first: merge clauses below
            // reference them.
            self.nodes[idx].outs.reserve(new_mat - old_mat);
            for _ in old_mat..new_mat {
                let fresh = Lit::positive(sink.fresh_var());
                self.nodes[idx].outs.push(fresh);
            }
            if new_mat == old_mat {
                continue;
            }
            let nodes = &self.nodes;
            let (a, b, outs) = (&nodes[left].outs, &nodes[right].outs, &nodes[idx].outs);
            for i in 0..=a.len() {
                for j in 0..=b.len() {
                    // Sum direction: i trues left ∧ j trues right →
                    // out_{i+j}; consequent index i+j-1 must be new.
                    if i + j >= 1 {
                        let t = i + j - 1;
                        if t >= old_mat && t < new_mat {
                            sink.add_clause(
                                (i > 0)
                                    .then(|| !a[i - 1])
                                    .into_iter()
                                    .chain((j > 0).then(|| !b[j - 1]))
                                    .chain([outs[t]]),
                            );
                        }
                    }
                    // Converse direction: ¬a_{i+1} ∧ ¬b_{j+1} →
                    // ¬out_{i+j+1}; consequent index i+j must be new.
                    // Within the window, `a.get(i)` misses only an
                    // output past the child's size (likewise `b`).
                    let t = i + j;
                    if t < size && t >= old_mat && t < new_mat {
                        sink.add_clause(
                            a.get(i)
                                .copied()
                                .into_iter()
                                .chain(b.get(j).copied())
                                .chain([!outs[t]]),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coremax_cnf::Var;

    #[test]
    fn produces_n_outputs_at_root() {
        let lits: Vec<Lit> = (0..5).map(|i| Lit::positive(Var::new(i))).collect();
        let mut sink = CnfSink::new(5);
        let out = build_totalizer(&lits, &mut sink);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn single_literal_passthrough() {
        let l = Lit::positive(Var::new(0));
        let mut sink = CnfSink::new(1);
        let out = build_totalizer(&[l], &mut sink);
        assert_eq!(out, vec![l]);
        assert_eq!(sink.num_clauses(), 0);
    }

    #[test]
    fn clause_count_quadratic_bound() {
        let n = 16;
        let lits: Vec<Lit> = (0..n).map(|i| Lit::positive(Var::new(i as u32))).collect();
        let mut sink = CnfSink::new(n);
        at_most(&lits, 8, &mut sink);
        // O(n²) clauses for the full (non-k-truncated) totalizer.
        assert!(sink.num_clauses() <= 2 * n * n + 1);
    }

    use crate::test_support::{bit_assumptions, solver_for_sink};
    use coremax_sat::SolveOutcome;

    fn inputs(n: usize) -> Vec<Lit> {
        (0..n).map(|i| Lit::positive(Var::new(i as u32))).collect()
    }

    /// Exhaustively checks that with `¬output(k)` asserted, the sink's
    /// clauses are satisfiable exactly for input patterns with at most
    /// `k` bits set.
    fn assert_at_most_semantics(n: usize, k: usize, tot: &IncrementalTotalizer, sink: &CnfSink) {
        let mut gated = sink.clone();
        gated.add_clause([!tot.output(k).expect("bound output materialised")]);
        let mut solver = solver_for_sink(&gated);
        for bits in 0u32..(1 << n) {
            let expect = bits.count_ones() as usize <= k;
            let outcome = solver.solve_with_assumptions(&bit_assumptions(n, bits));
            let sat = outcome == SolveOutcome::Sat;
            assert_eq!(sat, expect, "n={n} k={k} bits={bits:b}");
        }
    }

    #[test]
    fn truncated_build_is_exact_at_its_bound() {
        for n in 2..=7 {
            for k in 1..n {
                let lits = inputs(n);
                let mut sink = CnfSink::new(n);
                let tot = IncrementalTotalizer::new(&lits, k, &mut sink);
                assert_at_most_semantics(n, k, &tot, &sink);
            }
        }
    }

    #[test]
    fn increase_bound_emits_only_the_new_layers() {
        let n = 8;
        let lits = inputs(n);
        // Grown incrementally 1 → 2 → … → n-1.
        let mut grown_sink = CnfSink::new(n);
        let mut tot = IncrementalTotalizer::new(&lits, 1, &mut grown_sink);
        let mut clause_counts = vec![grown_sink.num_clauses()];
        for k in 2..n {
            tot.increase_bound(k, &mut grown_sink);
            clause_counts.push(grown_sink.num_clauses());
            assert_at_most_semantics(n, k, &tot, &grown_sink);
        }
        // Every extension emitted something (new layers exist while
        // k < n), and the grown encoding is exactly the clauses a
        // direct build at the final bound would have emitted.
        for w in clause_counts.windows(2) {
            assert!(w[1] > w[0], "extension emitted no clauses");
        }
        let mut direct_sink = CnfSink::new(n);
        let _ = IncrementalTotalizer::new(&lits, n - 1, &mut direct_sink);
        assert_eq!(grown_sink.num_clauses(), direct_sink.num_clauses());
        assert_eq!(grown_sink.num_vars(), direct_sink.num_vars());
    }

    #[test]
    fn increase_bound_preserves_existing_outputs() {
        let n = 6;
        let lits = inputs(n);
        let mut sink = CnfSink::new(n);
        let mut tot = IncrementalTotalizer::new(&lits, 1, &mut sink);
        let o0 = tot.output(0).unwrap();
        let o1 = tot.output(1).unwrap();
        assert_eq!(tot.output(2), None, "index 2 not materialised yet");
        tot.increase_bound(3, &mut sink);
        assert_eq!(tot.output(0), Some(o0));
        assert_eq!(tot.output(1), Some(o1));
        assert!(tot.output(2).is_some() && tot.output(3).is_some());
        assert_eq!(tot.bound(), 3);
        // No-op shrink/equal calls change nothing.
        let clauses = sink.num_clauses();
        tot.increase_bound(3, &mut sink);
        tot.increase_bound(1, &mut sink);
        assert_eq!(sink.num_clauses(), clauses);
    }

    #[test]
    fn single_input_tree_passes_the_literal_through() {
        let l = Lit::positive(Var::new(0));
        let mut sink = CnfSink::new(1);
        let mut tot = IncrementalTotalizer::new(&[l], 1, &mut sink);
        assert_eq!(tot.output(0), Some(l));
        assert_eq!(tot.output(1), None);
        assert_eq!(tot.num_inputs(), 1);
        assert_eq!(sink.num_clauses(), 0);
        tot.increase_bound(4, &mut sink);
        assert_eq!(sink.num_clauses(), 0, "nothing to extend past the size");
    }
}
