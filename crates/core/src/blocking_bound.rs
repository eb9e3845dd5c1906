//! The bound `Σ lits ≤ k` a bound-search driver keeps over its blocking
//! literals across SAT calls: Algorithm 1's `Σ_{b∈VB} b ≤ ub − 1`
//! (msu4), the loosening `Σ b ≤ k` of msu2/msu3, and the bounds of the
//! iterated-SAT baselines (linear and binary search).
//!
//! One rule decides how a bound lives in the engine. A driver's set of
//! blocking literals only grows, so its length names it.
//!
//! - A sorting network over the current set is reused while it has
//!   output `k`: the bound is then the one literal `¬out[k]`, and a new
//!   network, with outputs `0..=k`, is built only when the set grows or
//!   `k` passes its last output.
//! - Any other encoding is re-encoded once per distinct `(|lits|, k)`.
//! - `k ≥ |lits|` is vacuous and retires the live encoding.
//!
//! The driver fixes at construction whether the bound is *gated* or
//! *permanent*. A gated encoding carries one activation literal `t` on
//! every clause, the bound is enforced by assuming `¬t` (and `¬out[k]`),
//! and a superseded encoding is retired by the unit `t`, so at most one
//! is live. A permanent bound is added as clauses and units that stay,
//! so it may only tighten.

use coremax_cards::{encode_at_most, sorted_prefix, CardEncoding};
use coremax_cnf::Lit;

use crate::run::CoreRun;

/// `Σ lits ≤ k` over a growing set of blocking literals, kept in one
/// run's engine by the rule of the module docs.
#[derive(Debug)]
pub(crate) struct BlockingBound {
    encoding: CardEncoding,
    gated: bool,
    /// `(|lits|, k)` of the live bound; `None` while none is.
    live: Option<(usize, usize)>,
    /// Activation literal of the live encoding (gated only).
    gate: Option<Lit>,
    /// The live sorting network's outputs: `outputs[i]` ⇔ at least
    /// `i+1` of its inputs are true.
    outputs: Vec<Lit>,
    /// What a gated bound assumes: `¬t`, and `¬out[k]` for a network.
    assumptions: Vec<Lit>,
}

impl BlockingBound {
    /// A bound with no constraint yet, kept with `encoding`, gated or
    /// permanent.
    pub(crate) fn new(encoding: CardEncoding, gated: bool) -> Self {
        BlockingBound {
            encoding,
            gated,
            live: None,
            gate: None,
            outputs: Vec::new(),
            assumptions: Vec::new(),
        }
    }

    /// The assumptions that enforce the bound on the next SAT call;
    /// empty when it is permanent or vacuous.
    pub(crate) fn assumptions(&self) -> &[Lit] {
        &self.assumptions
    }

    /// Makes `Σ lits ≤ k` hold from the next SAT call on. `lits` extends
    /// the set of every earlier call. Each change of a non-vacuous bound
    /// is reported as one relaxation step with the clauses it encoded.
    pub(crate) fn set(&mut self, run: &mut CoreRun, lits: &[Lit], k: usize) {
        let key = (lits.len(), k);
        debug_assert!(
            self.gated || self.live.is_none_or(|(n, j)| n <= lits.len() && k <= j),
            "a permanent bound only tightens"
        );
        if self.live == Some(key) {
            return;
        }
        if k >= lits.len() {
            self.retire(run);
            return;
        }
        let network = self.encoding == CardEncoding::SortingNetwork;
        let reuse =
            network && self.live.is_some_and(|(n, _)| n == lits.len()) && k < self.outputs.len();
        let mut clauses = 0;
        if !reuse {
            self.retire(run);
            self.gate = self.gated.then(|| Lit::positive(run.engine.new_var()));
            (self.outputs, clauses) = run.encode(self.gate, |sink| {
                if network {
                    sorted_prefix(lits, k + 1, sink)
                } else {
                    encode_at_most(lits, k, self.encoding, sink);
                    Vec::new()
                }
            });
        }
        self.live = Some(key);
        self.assumptions.clear();
        self.assumptions.extend(self.gate.map(|t| !t));
        if network {
            let bound = !self.outputs[k];
            if self.gated {
                self.assumptions.push(bound);
            } else {
                run.engine.add_clause([bound]);
            }
        }
        run.relaxed(0, clauses);
    }

    /// Retires the live encoding: a gated one by the unit `t`. A
    /// permanent one stays, and is implied by the bounds after it.
    fn retire(&mut self, run: &mut CoreRun) {
        if let Some(t) = self.gate.take() {
            run.engine.add_clause([t]);
        }
        self.live = None;
        self.outputs.clear();
        self.assumptions.clear();
    }
}
