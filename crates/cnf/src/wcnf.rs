//! Weighted / partial CNF formulas for MaxSAT.

use std::fmt;

use crate::formula::grown_range;
use crate::{Assignment, Clause, ClauseStore, Clauses, CnfFormula, Lit, Var};

/// Clause weight for weighted (partial) MaxSAT.
pub type Weight = u64;

/// Weight sentinel used by WCNF "top": clauses with this weight are hard.
pub const HARD_WEIGHT: Weight = Weight::MAX;

/// A soft clause as a [`WcnfFormula`] hands it out: the clause, a view
/// of the formula's soft-clause store, together with its weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftClause<'a> {
    /// The clause itself.
    pub clause: Clause<'a>,
    /// Cost of falsifying the clause (must be ≥ 1).
    pub weight: Weight,
}

/// Iterator over the soft clauses of a [`WcnfFormula`].
#[derive(Debug, Clone)]
pub struct SoftClauses<'a> {
    clauses: Clauses<'a>,
    weights: std::slice::Iter<'a, Weight>,
}

impl<'a> Iterator for SoftClauses<'a> {
    type Item = SoftClause<'a>;

    fn next(&mut self) -> Option<SoftClause<'a>> {
        Some(SoftClause {
            clause: self.clauses.next()?,
            weight: *self.weights.next()?,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.clauses.size_hint()
    }
}

impl ExactSizeIterator for SoftClauses<'_> {}

/// One weight stratum of a [`WcnfFormula`]: the weight shared by a
/// group of soft clauses together with their indices into
/// [`WcnfFormula::soft_clauses`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightStratum {
    /// The weight every clause of the stratum carries.
    pub weight: Weight,
    /// Indices of the stratum's clauses, in input order.
    pub indices: Vec<usize>,
}

impl WeightStratum {
    /// Total weight of the stratum (`weight × |indices|`), saturating.
    #[must_use]
    pub fn total_weight(&self) -> Weight {
        self.weight.saturating_mul(self.indices.len() as Weight)
    }
}

/// A weighted partial CNF formula: hard clauses that must be satisfied
/// plus soft clauses with falsification costs.
///
/// The hard clauses live in one [`ClauseStore`] and the soft clauses in
/// another, beside their weights, so clause order within each kind is
/// insertion order and no clause is an allocation of its own.
///
/// Plain (unweighted) MaxSAT is the special case "no hard clauses, all
/// weights 1"; partial MaxSAT allows hard clauses; weighted variants
/// carry arbitrary weights. All four standard MaxSAT flavours are
/// expressible.
///
/// # Examples
///
/// ```
/// use coremax_cnf::{WcnfFormula, Lit, Var};
/// let mut w = WcnfFormula::new();
/// let x = w.new_var();
/// w.add_hard([Lit::positive(x)]);
/// w.add_soft([Lit::negative(x)], 1);
/// assert_eq!(w.num_hard(), 1);
/// assert_eq!(w.num_soft(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WcnfFormula {
    pub(crate) num_vars: usize,
    pub(crate) hard: ClauseStore,
    pub(crate) soft: ClauseStore,
    /// The weight of each soft clause, by its index in `soft`.
    pub(crate) weights: Vec<Weight>,
}

impl WcnfFormula {
    /// Creates an empty formula.
    #[must_use]
    pub fn new() -> Self {
        WcnfFormula::default()
    }

    /// Creates an empty formula with `num_vars` pre-allocated variables.
    #[must_use]
    pub fn with_vars(num_vars: usize) -> Self {
        WcnfFormula {
            num_vars,
            ..WcnfFormula::default()
        }
    }

    /// Assembles a formula from its clause stores: the hard clauses, the
    /// soft clauses and the weight of each soft clause, in order. The
    /// variable range is `num_vars`, grown to cover every literal.
    ///
    /// # Panics
    ///
    /// Panics if `weights` and `soft` differ in length, or a weight is 0
    /// or [`HARD_WEIGHT`], as [`WcnfFormula::add_soft`] does.
    #[must_use]
    pub fn from_stores(
        num_vars: usize,
        hard: ClauseStore,
        soft: ClauseStore,
        weights: Vec<Weight>,
    ) -> Self {
        assert_eq!(weights.len(), soft.len(), "one weight per soft clause");
        for &w in &weights {
            check_soft_weight(w);
        }
        let num_vars = hard
            .iter()
            .chain(&soft)
            .fold(num_vars, |n, c| grown_range(n, c.lits()));
        WcnfFormula {
            num_vars,
            hard,
            soft,
            weights,
        }
    }

    /// Builds a plain MaxSAT instance: every clause of `cnf` becomes a
    /// soft clause of weight 1; there are no hard clauses.
    #[must_use]
    pub fn from_cnf_all_soft(cnf: &CnfFormula) -> Self {
        WcnfFormula {
            num_vars: cnf.num_vars(),
            hard: ClauseStore::new(),
            soft: cnf.clauses.clone(),
            weights: vec![1; cnf.num_clauses()],
        }
    }

    /// Allocates and returns a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars as u32);
        self.num_vars += 1;
        v
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Ensures the variable range covers `var`.
    pub fn ensure_var(&mut self, var: Var) {
        if var.index() >= self.num_vars {
            self.num_vars = var.index() + 1;
        }
    }

    /// Adds a hard clause.
    pub fn add_hard<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.num_vars = grown_range(self.num_vars, self.hard.push(lits));
    }

    /// Adds a soft clause with the given weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0` or `weight == HARD_WEIGHT` (use
    /// [`WcnfFormula::add_hard`] for hard clauses).
    pub fn add_soft<I: IntoIterator<Item = Lit>>(&mut self, lits: I, weight: Weight) {
        check_soft_weight(weight);
        self.num_vars = grown_range(self.num_vars, self.soft.push(lits));
        self.weights.push(weight);
    }

    /// Number of hard clauses.
    #[must_use]
    pub fn num_hard(&self) -> usize {
        self.hard.len()
    }

    /// Number of soft clauses.
    #[must_use]
    pub fn num_soft(&self) -> usize {
        self.soft.len()
    }

    /// Total number of clauses (hard + soft).
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.hard.len() + self.soft.len()
    }

    /// Iterates over the hard clauses.
    #[must_use]
    pub fn hard_clauses(&self) -> Clauses<'_> {
        self.hard.iter()
    }

    /// Iterates over the soft clauses with their weights.
    #[must_use]
    pub fn soft_clauses(&self) -> SoftClauses<'_> {
        SoftClauses {
            clauses: self.soft.iter(),
            weights: self.weights.iter(),
        }
    }

    /// The hard clause at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_hard()`.
    #[must_use]
    pub fn hard(&self, index: usize) -> Clause<'_> {
        self.hard.get(index)
    }

    /// The soft clause at `index`, with its weight.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_soft()`.
    #[must_use]
    pub fn soft(&self, index: usize) -> SoftClause<'_> {
        SoftClause {
            clause: self.soft.get(index),
            weight: self.weights[index],
        }
    }

    /// Sum of all soft weights (the cost of falsifying everything),
    /// saturating at [`Weight::MAX`] rather than wrapping: weighted
    /// instances near the representable limit must degrade to a
    /// conservative bound, never to a silently smaller total.
    #[must_use]
    pub fn total_soft_weight(&self) -> Weight {
        self.weights
            .iter()
            .fold(0, |acc: Weight, &w| acc.saturating_add(w))
    }

    /// Sum of all soft weights, or `None` if the total overflows
    /// [`Weight`]. The checked twin of
    /// [`WcnfFormula::total_soft_weight`] for callers that must
    /// *reject* rather than cap.
    #[must_use]
    pub fn checked_total_soft_weight(&self) -> Option<Weight> {
        self.weights
            .iter()
            .try_fold(0, |acc: Weight, &w| acc.checked_add(w))
    }

    /// The distinct soft-clause weights in strictly decreasing order —
    /// the stratum boundaries weight-aware solvers iterate over.
    #[must_use]
    pub fn distinct_soft_weights(&self) -> Vec<Weight> {
        let mut weights = self.weights.clone();
        weights.sort_unstable_by(|a, b| b.cmp(a));
        weights.dedup();
        weights
    }

    /// The largest soft weight, or `None` when there are no soft
    /// clauses.
    #[must_use]
    pub fn max_soft_weight(&self) -> Option<Weight> {
        self.weights.iter().copied().max()
    }

    /// Partitions the soft clauses into weight strata, heaviest first.
    /// Each stratum carries its weight and the indices (into
    /// [`WcnfFormula::soft_clauses`]) of the clauses at that weight.
    /// Concatenating the strata yields every soft index exactly once.
    ///
    /// # Examples
    ///
    /// ```
    /// use coremax_cnf::{Lit, Var, WcnfFormula};
    /// let mut w = WcnfFormula::new();
    /// let x = w.new_var();
    /// w.add_soft([Lit::positive(x)], 5);
    /// w.add_soft([Lit::negative(x)], 1);
    /// w.add_soft([Lit::positive(x)], 5);
    /// let strata = w.weight_strata();
    /// assert_eq!(strata.len(), 2);
    /// assert_eq!(strata[0].weight, 5);
    /// assert_eq!(strata[0].indices, vec![0, 2]);
    /// assert_eq!(strata[1].weight, 1);
    /// ```
    #[must_use]
    pub fn weight_strata(&self) -> Vec<WeightStratum> {
        // Single sort + adjacent grouping: weight_strata runs on every
        // stratified solve, so avoid a per-distinct-weight scan.
        let mut by_weight: Vec<(Weight, usize)> = self
            .weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (w, i))
            .collect();
        by_weight.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut strata: Vec<WeightStratum> = Vec::new();
        for (weight, index) in by_weight {
            match strata.last_mut() {
                Some(stratum) if stratum.weight == weight => stratum.indices.push(index),
                _ => strata.push(WeightStratum {
                    weight,
                    indices: vec![index],
                }),
            }
        }
        strata
    }

    /// Returns `true` if all soft clauses have weight 1.
    #[must_use]
    pub fn is_unweighted(&self) -> bool {
        self.weights.iter().all(|&w| w == 1)
    }

    /// Returns `true` if there are no hard clauses.
    #[must_use]
    pub fn is_plain_maxsat(&self) -> bool {
        self.hard.is_empty()
    }

    /// Cost of `assignment`: the total weight of falsified soft clauses
    /// (saturating at [`Weight::MAX`], like [`total_soft_weight`]
    /// (Self::total_soft_weight) — a wrapped sum could certify a bogus
    /// low cost), or `None` if some hard clause is not satisfied.
    #[must_use]
    pub fn cost(&self, assignment: &Assignment) -> Option<Weight> {
        for h in &self.hard {
            if !h.is_satisfied_by(assignment) {
                return None;
            }
        }
        Some(
            self.soft_clauses()
                .filter(|s| !s.clause.is_satisfied_by(assignment))
                .fold(0, |acc: Weight, s| acc.saturating_add(s.weight)),
        )
    }

    /// Number of satisfied soft clauses (ignoring weights); `None` if a
    /// hard clause is violated.
    #[must_use]
    pub fn num_soft_satisfied(&self, assignment: &Assignment) -> Option<usize> {
        for h in &self.hard {
            if !h.is_satisfied_by(assignment) {
                return None;
            }
        }
        Some(
            self.soft
                .iter()
                .filter(|s| s.is_satisfied_by(assignment))
                .count(),
        )
    }

    /// Flattens to a plain CNF containing the hard clauses followed by
    /// the soft clauses (weights dropped). Useful for satisfiability
    /// pre-checks and for algorithms that treat the instance as plain
    /// MaxSAT.
    #[must_use]
    pub fn to_cnf(&self) -> CnfFormula {
        let mut f = CnfFormula::with_vars(self.num_vars);
        f.clauses.reserve(
            self.num_clauses(),
            self.hard.num_lits() + self.soft.num_lits(),
        );
        for c in self.hard.iter().chain(&self.soft) {
            f.clauses.push(c.iter().copied());
        }
        f
    }
}

/// Panics unless `weight` can weigh a soft clause.
fn check_soft_weight(weight: Weight) {
    assert!(weight > 0, "soft clause weight must be positive");
    assert!(
        weight != HARD_WEIGHT,
        "HARD_WEIGHT is reserved; use add_hard"
    );
}

impl fmt::Display for WcnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wcnf(vars={}, hard={}, soft={})",
            self.num_vars,
            self.hard.len(),
            self.soft.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d).unwrap()
    }

    #[test]
    fn build_and_count() {
        let mut w = WcnfFormula::new();
        w.add_hard([lit(1), lit(2)]);
        w.add_soft([lit(-1)], 3);
        w.add_soft([lit(-2)], 2);
        assert_eq!(w.num_vars(), 2);
        assert_eq!(w.num_hard(), 1);
        assert_eq!(w.num_soft(), 2);
        assert_eq!(w.num_clauses(), 3);
        assert_eq!(w.total_soft_weight(), 5);
        assert!(!w.is_unweighted());
        assert!(!w.is_plain_maxsat());
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let mut w = WcnfFormula::new();
        w.add_soft([lit(1)], 0);
    }

    #[test]
    #[should_panic(expected = "HARD_WEIGHT is reserved")]
    fn hard_weight_rejected_for_soft() {
        let mut w = WcnfFormula::new();
        w.add_soft([lit(1)], HARD_WEIGHT);
    }

    #[test]
    fn cost_semantics() {
        let mut w = WcnfFormula::new();
        w.add_hard([lit(1)]);
        w.add_soft([lit(2)], 4);
        w.add_soft([lit(-2)], 1);
        // x1=T x2=T: hard ok, falsifies (¬x2) → cost 1.
        let a = Assignment::from_bools(&[true, true]);
        assert_eq!(w.cost(&a), Some(1));
        assert_eq!(w.num_soft_satisfied(&a), Some(1));
        // x1=F violates the hard clause.
        let b = Assignment::from_bools(&[false, true]);
        assert_eq!(w.cost(&b), None);
        assert_eq!(w.num_soft_satisfied(&b), None);
    }

    #[test]
    fn from_cnf_all_soft() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1)]);
        f.add_clause([lit(-1)]);
        let w = WcnfFormula::from_cnf_all_soft(&f);
        assert!(w.is_plain_maxsat());
        assert!(w.is_unweighted());
        assert_eq!(w.num_soft(), 2);
        assert_eq!(w.num_vars(), 1);
    }

    #[test]
    fn to_cnf_flattens() {
        let mut w = WcnfFormula::new();
        w.add_hard([lit(1)]);
        w.add_soft([lit(2)], 1);
        let f = w.to_cnf();
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(f.num_vars(), 2);
    }

    #[test]
    fn strata_cover_every_soft_clause_once() {
        let mut w = WcnfFormula::new();
        w.add_soft([lit(1)], 4);
        w.add_soft([lit(-1)], 1);
        w.add_soft([lit(2)], 4);
        w.add_soft([lit(-2)], 9);
        let strata = w.weight_strata();
        assert_eq!(strata.len(), 3);
        assert_eq!(
            strata.iter().map(|s| s.weight).collect::<Vec<_>>(),
            vec![9, 4, 1]
        );
        let mut all: Vec<usize> = strata.iter().flat_map(|s| s.indices.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert_eq!(strata[1].total_weight(), 8);
        assert_eq!(w.distinct_soft_weights(), vec![9, 4, 1]);
        assert_eq!(w.max_soft_weight(), Some(9));
    }

    #[test]
    fn strata_of_empty_formula() {
        let w = WcnfFormula::new();
        assert!(w.weight_strata().is_empty());
        assert!(w.distinct_soft_weights().is_empty());
        assert_eq!(w.max_soft_weight(), None);
    }

    #[test]
    fn weight_adjacent_to_hard_sentinel_accepted() {
        let mut w = WcnfFormula::new();
        w.add_soft([lit(1)], HARD_WEIGHT - 1);
        assert_eq!(w.total_soft_weight(), HARD_WEIGHT - 1);
        assert_eq!(w.checked_total_soft_weight(), Some(HARD_WEIGHT - 1));
    }

    #[test]
    fn total_soft_weight_saturates_instead_of_wrapping() {
        let mut w = WcnfFormula::new();
        w.add_soft([lit(1)], HARD_WEIGHT - 1);
        w.add_soft([lit(-1)], HARD_WEIGHT - 1);
        // A wrapping sum would report ~u64::MAX - 2 wrapped around to a
        // tiny value; the saturating contract pins it at the ceiling.
        assert_eq!(w.total_soft_weight(), Weight::MAX);
        assert_eq!(w.checked_total_soft_weight(), None);
        assert_eq!(w.weight_strata()[0].total_weight(), Weight::MAX);
    }

    #[test]
    fn duplicate_soft_clauses_with_different_weights_kept_separate() {
        let mut w = WcnfFormula::new();
        w.add_soft([lit(1)], 3);
        w.add_soft([lit(1)], 5);
        assert_eq!(w.num_soft(), 2);
        assert_eq!(w.total_soft_weight(), 8);
        // Falsifying the shared literal costs the *sum* of both copies.
        let a = Assignment::from_bools(&[false]);
        assert_eq!(w.cost(&a), Some(8));
        assert_eq!(w.weight_strata().len(), 2);
    }

    #[test]
    fn assembled_from_stores_like_built_clause_by_clause() {
        let mut built = WcnfFormula::with_vars(1);
        built.add_hard([lit(1), lit(2)]);
        built.add_soft([lit(-3)], 4);
        let (mut hard, mut soft) = (ClauseStore::new(), ClauseStore::new());
        hard.push([lit(1), lit(2)]);
        soft.push([lit(-3)]);
        assert_eq!(WcnfFormula::from_stores(1, hard, soft, vec![4]), built);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn assembled_soft_weights_are_checked() {
        let mut soft = ClauseStore::new();
        soft.push([lit(1)]);
        let _ = WcnfFormula::from_stores(1, ClauseStore::new(), soft, vec![0]);
    }

    #[test]
    fn display_summary() {
        let mut w = WcnfFormula::new();
        w.add_hard([lit(1)]);
        assert_eq!(w.to_string(), "wcnf(vars=1, hard=1, soft=0)");
    }
}
