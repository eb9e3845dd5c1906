//! Boundary types between the formula layer and the `coremax_simp`
//! preprocessing subsystem.
//!
//! The simplifier rewrites a [`WcnfFormula`] into a smaller one over a
//! compacted variable space. Three artefacts cross the boundary back to
//! the solvers:
//!
//! - [`VarMap`] — the dense renaming between the original and the
//!   compacted variable spaces;
//! - [`Reconstructor`] — the elimination stack: enough of the removed
//!   clauses to extend any model of the simplified formula to a model
//!   of the original one (MiniSAT/SatELite `elimclauses` style);
//! - [`SimpResult`] — the bundle of simplified formula, map,
//!   reconstructor, and the cost already decided during preprocessing.
//!
//! These types live in `coremax_cnf` (not in the simplifier crate) so
//! that every consumer — the MaxSAT algorithms, the CLI, the benches —
//! can hold them without depending on the simplifier implementation.

use crate::{Assignment, Lit, Var, WcnfFormula, Weight};

/// A renaming between an *original* variable space and the dense
/// *compacted* space of a simplified formula.
///
/// Variables eliminated or fixed during preprocessing have no image;
/// surviving variables map to a contiguous prefix `0..num_new_vars()`.
///
/// # Examples
///
/// ```
/// use coremax_cnf::{simp::VarMap, Lit, Var};
/// // Keep variables 0 and 2 of an original 3-variable space.
/// let map = VarMap::from_kept(&[true, false, true]);
/// assert_eq!(map.num_old_vars(), 3);
/// assert_eq!(map.num_new_vars(), 2);
/// assert_eq!(map.map_var(Var::new(2)), Some(Var::new(1)));
/// assert_eq!(map.map_var(Var::new(1)), None);
/// assert_eq!(map.old_var(Var::new(1)), Var::new(2));
/// let l = Lit::negative(Var::new(2));
/// assert_eq!(map.map_lit(l), Some(Lit::negative(Var::new(1))));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VarMap {
    old_to_new: Vec<Option<Var>>,
    new_to_old: Vec<Var>,
}

impl VarMap {
    /// The identity map over `num_vars` variables.
    #[must_use]
    pub fn identity(num_vars: usize) -> Self {
        VarMap {
            old_to_new: (0..num_vars).map(|i| Some(Var::new(i as u32))).collect(),
            new_to_old: (0..num_vars).map(|i| Var::new(i as u32)).collect(),
        }
    }

    /// Builds the map that keeps exactly the variables flagged in
    /// `keep` (indexed by original variable), renumbering them densely
    /// in ascending order.
    #[must_use]
    pub fn from_kept(keep: &[bool]) -> Self {
        let mut old_to_new = Vec::with_capacity(keep.len());
        let mut new_to_old = Vec::with_capacity(keep.iter().filter(|&&k| k).count());
        for (old, &kept) in keep.iter().enumerate() {
            if kept {
                old_to_new.push(Some(Var::new(new_to_old.len() as u32)));
                new_to_old.push(Var::new(old as u32));
            } else {
                old_to_new.push(None);
            }
        }
        VarMap {
            old_to_new,
            new_to_old,
        }
    }

    /// Size of the original variable space.
    #[must_use]
    pub fn num_old_vars(&self) -> usize {
        self.old_to_new.len()
    }

    /// Size of the compacted variable space.
    #[must_use]
    pub fn num_new_vars(&self) -> usize {
        self.new_to_old.len()
    }

    /// Image of an original variable, or `None` if it was removed.
    #[must_use]
    pub fn map_var(&self, old: Var) -> Option<Var> {
        self.old_to_new.get(old.index()).copied().flatten()
    }

    /// Image of an original literal (same polarity), or `None` if its
    /// variable was removed.
    #[must_use]
    pub fn map_lit(&self, old: Lit) -> Option<Lit> {
        self.map_var(old.var())
            .map(|v| Lit::new(v, old.is_positive()))
    }

    /// Pre-image of a compacted variable.
    ///
    /// # Panics
    ///
    /// Panics if `new` is outside the compacted space.
    #[must_use]
    pub fn old_var(&self, new: Var) -> Var {
        self.new_to_old[new.index()]
    }

    /// Translates a model over the compacted space into a (partial)
    /// assignment over the original space: every surviving variable
    /// receives its value, removed variables stay unassigned.
    #[must_use]
    pub fn lift_model(&self, model: &Assignment) -> Assignment {
        let mut out = Assignment::for_vars(self.num_old_vars());
        for (new_idx, &old) in self.new_to_old.iter().enumerate() {
            if let Some(value) = model.value(Var::new(new_idx as u32)) {
                out.assign(old, value);
            }
        }
        out
    }
}

/// The elimination stack: removed clauses (and forced literals) kept in
/// the order preprocessing removed them, so models of the simplified
/// formula can be extended to models of the original.
///
/// Each step is either a *unit* (a literal the extension must make true
/// unless already satisfied) or a saved *clause* stored pivot-first.
/// [`Reconstructor::extend_model`] walks the stack **in reverse**: if a
/// step's clause is not satisfied by the model built so far, its pivot
/// literal is assigned true. This is exactly the MiniSAT `elimclauses`
/// discipline, and it makes the following invariant hold: if the input
/// model satisfies the simplified formula, the extended model satisfies
/// the original formula's hard clauses, and falsifies exactly the same
/// soft clauses the simplified model does (plus the ones preprocessing
/// already charged to [`SimpResult::cost_offset`]).
///
/// # Examples
///
/// Eliminating `x2` from `(x1 ∨ x2)` saves the clause and a default:
///
/// ```
/// use coremax_cnf::{simp::Reconstructor, Assignment, Lit, Var};
/// let x1 = Var::new(0);
/// let x2 = Var::new(1);
/// let mut r = Reconstructor::new();
/// // Saved side: clauses containing x2, pivot first; default ¬x2.
/// r.push_clause(Lit::positive(x2), &[Lit::positive(x2), Lit::positive(x1)]);
/// r.push_unit(Lit::negative(x2));
/// // A model with x1 = false needs x2 = true…
/// let mut m = Assignment::from_bools(&[false]);
/// r.extend_model(&mut m);
/// assert_eq!(m.value(x2), Some(true));
/// // …while a model with x1 = true takes the default x2 = false.
/// let mut m = Assignment::from_bools(&[true]);
/// r.extend_model(&mut m);
/// assert_eq!(m.value(x2), Some(false));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Reconstructor {
    /// Flat literal storage; clauses are stored pivot-first.
    lits: Vec<Lit>,
    /// Exclusive end offset of each step in `lits`.
    ends: Vec<u32>,
    /// Highest variable index referenced (+1), so extension can grow
    /// the model before assigning.
    var_watermark: usize,
}

impl Reconstructor {
    /// Creates an empty stack.
    #[must_use]
    pub fn new() -> Self {
        Reconstructor::default()
    }

    /// Number of recorded steps.
    #[must_use]
    pub fn num_steps(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` if no step was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Records a forced literal: the extension assigns it true unless
    /// the model already satisfies it. Used for top-level facts, pure
    /// literals, and the default polarity of eliminated variables.
    pub fn push_unit(&mut self, lit: Lit) {
        self.note_var(lit);
        self.lits.push(lit);
        self.ends.push(self.lits.len() as u32);
    }

    /// Records a removed clause with its pivot (the literal of the
    /// eliminated variable). The pivot is stored first; the extension
    /// assigns it true when the rest of the clause is unsatisfied.
    ///
    /// # Panics
    ///
    /// Panics if `pivot` does not occur in `lits`.
    pub fn push_clause(&mut self, pivot: Lit, lits: &[Lit]) {
        assert!(lits.contains(&pivot), "pivot must occur in the clause");
        let first = self.lits.len();
        self.lits.extend_from_slice(lits);
        // Swap the pivot to the front.
        let at = self.lits[first..].iter().position(|&l| l == pivot).unwrap() + first;
        self.lits.swap(first, at);
        for &l in lits {
            self.note_var(l);
        }
        self.ends.push(self.lits.len() as u32);
    }

    fn note_var(&mut self, lit: Lit) {
        self.var_watermark = self.var_watermark.max(lit.var().index() + 1);
    }

    /// Extends `model` (an assignment over the *original* variable
    /// space) by replaying the stack in reverse. See the type docs for
    /// the invariant this establishes.
    pub fn extend_model(&self, model: &mut Assignment) {
        model.grow_to(self.var_watermark);
        for step in (0..self.ends.len()).rev() {
            let start = if step == 0 {
                0
            } else {
                self.ends[step - 1] as usize
            };
            let clause = &self.lits[start..self.ends[step] as usize];
            if !clause.iter().any(|&l| model.satisfies(l)) {
                model.assign_lit(clause[0]);
            }
        }
    }
}

/// Everything a solver needs to work on a simplified formula and still
/// answer questions about the original one.
///
/// Produced by `coremax_simp::Simplifier::simplify`; consumed by the
/// preprocessing wrapper in `coremax` and by the benches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpResult {
    /// The simplified formula, over the compacted variable space.
    pub formula: WcnfFormula,
    /// Renaming between the original and compacted variable spaces.
    pub var_map: VarMap,
    /// Elimination stack for model reconstruction.
    pub reconstructor: Reconstructor,
    /// Weight of soft clauses preprocessing already proved falsified in
    /// every feasible assignment (e.g. soft clauses emptied by hard
    /// unit facts). Add this to any cost computed on
    /// [`SimpResult::formula`] to obtain a cost on the original.
    pub cost_offset: Weight,
    /// `true` when preprocessing refuted the hard clauses outright; the
    /// other fields are then meaningless and the instance is
    /// infeasible.
    pub infeasible: bool,
}

impl SimpResult {
    /// A pass-through result: `formula` is a clone of `wcnf`, the map
    /// is the identity, and reconstruction is a no-op. Useful as the
    /// "preprocessing disabled" value and in tests.
    #[must_use]
    pub fn identity(wcnf: &WcnfFormula) -> Self {
        SimpResult {
            formula: wcnf.clone(),
            var_map: VarMap::identity(wcnf.num_vars()),
            reconstructor: Reconstructor::new(),
            cost_offset: 0,
            infeasible: false,
        }
    }

    /// Turns a model of [`SimpResult::formula`] into a total model of
    /// the original formula: lift through the variable map, default
    /// every non-surviving variable to false, then replay the
    /// elimination stack.
    ///
    /// Defaulting happens *before* the replay: saved clauses may
    /// mention variables owned by no reconstruction step (their last
    /// clauses died as a side effect of another elimination), and the
    /// replay must evaluate such literals under their final value, not
    /// treat them as unsatisfied placeholders. Replay steps then
    /// override the default wherever the stack demands it.
    #[must_use]
    pub fn reconstruct_model(&self, simplified_model: &Assignment) -> Assignment {
        let mut model = self.var_map.lift_model(simplified_model);
        model.grow_to(self.var_map.num_old_vars());
        model.complete_with(false);
        self.reconstructor.extend_model(&mut model);
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d).unwrap()
    }

    #[test]
    fn identity_map_roundtrips() {
        let map = VarMap::identity(3);
        assert_eq!(map.num_old_vars(), 3);
        assert_eq!(map.num_new_vars(), 3);
        for i in 0..3u32 {
            assert_eq!(map.map_var(Var::new(i)), Some(Var::new(i)));
            assert_eq!(map.old_var(Var::new(i)), Var::new(i));
        }
        assert_eq!(map.map_var(Var::new(7)), None, "out of range maps to None");
    }

    #[test]
    fn from_kept_renumbers_densely() {
        let map = VarMap::from_kept(&[false, true, false, true, true]);
        assert_eq!(map.num_new_vars(), 3);
        assert_eq!(map.map_var(Var::new(1)), Some(Var::new(0)));
        assert_eq!(map.map_var(Var::new(3)), Some(Var::new(1)));
        assert_eq!(map.map_var(Var::new(4)), Some(Var::new(2)));
        assert_eq!(map.map_var(Var::new(0)), None);
        assert_eq!(map.map_lit(lit(-4)), Some(Lit::negative(Var::new(1))));
        assert_eq!(map.map_lit(lit(3)), None);
    }

    #[test]
    fn lift_model_assigns_survivors_only() {
        let map = VarMap::from_kept(&[true, false, true]);
        let m = Assignment::from_bools(&[true, false]); // compacted space
        let lifted = map.lift_model(&m);
        assert_eq!(lifted.num_vars(), 3);
        assert_eq!(lifted.value(Var::new(0)), Some(true));
        assert_eq!(lifted.value(Var::new(1)), None);
        assert_eq!(lifted.value(Var::new(2)), Some(false));
    }

    #[test]
    fn unit_steps_fire_only_when_unsatisfied() {
        let mut r = Reconstructor::new();
        r.push_unit(lit(1));
        let mut m = Assignment::for_vars(1);
        m.assign(Var::new(0), false);
        r.extend_model(&mut m);
        // Already assigned false: the unit is *not* satisfied, so the
        // step flips it — unit steps are facts, not suggestions.
        assert_eq!(m.value(Var::new(0)), Some(true));
        let mut m2 = Assignment::for_vars(1);
        r.extend_model(&mut m2);
        assert_eq!(m2.value(Var::new(0)), Some(true));
    }

    #[test]
    fn elimination_reverse_replay() {
        // Eliminate x2 from (x2 ∨ x1)(¬x2 ∨ x3): resolvent (x1 ∨ x3).
        // Save the positive side plus the ¬x2 default.
        let mut r = Reconstructor::new();
        r.push_clause(lit(2), &[lit(2), lit(1)]);
        r.push_unit(lit(-2));
        // Model of the resolvent with x1 false, x3 true: x2 must be true.
        let mut m = Assignment::for_vars(3);
        m.assign(Var::new(0), false);
        m.assign(Var::new(2), true);
        r.extend_model(&mut m);
        assert_eq!(m.value(Var::new(1)), Some(true));
        // Model with x1 true: the default ¬x2 wins and (¬x2 ∨ x3) holds.
        let mut m = Assignment::for_vars(3);
        m.assign(Var::new(0), true);
        m.assign(Var::new(2), false);
        r.extend_model(&mut m);
        assert_eq!(m.value(Var::new(1)), Some(false));
    }

    #[test]
    fn pivot_moved_to_front() {
        let mut r = Reconstructor::new();
        r.push_clause(lit(3), &[lit(1), lit(2), lit(3)]);
        // All other literals false → pivot (x3) must be set true.
        let mut m = Assignment::from_bools(&[false, false]);
        r.extend_model(&mut m);
        assert_eq!(m.value(Var::new(2)), Some(true));
    }

    #[test]
    #[should_panic(expected = "pivot must occur")]
    fn push_clause_requires_pivot_membership() {
        let mut r = Reconstructor::new();
        r.push_clause(lit(4), &[lit(1), lit(2)]);
    }

    #[test]
    fn identity_result_reconstructs_verbatim() {
        let mut w = WcnfFormula::new();
        let x = w.new_var();
        let y = w.new_var();
        w.add_hard([Lit::positive(x)]);
        w.add_soft([Lit::negative(y)], 2);
        let r = SimpResult::identity(&w);
        assert!(!r.infeasible);
        assert_eq!(r.cost_offset, 0);
        assert_eq!(r.formula, w);
        let m = Assignment::from_bools(&[true, false]);
        assert_eq!(r.reconstruct_model(&m), m);
    }

    #[test]
    fn reconstruct_model_is_total() {
        // 4 original vars: var 0 survives, var 1 eliminated with a step,
        // vars 2-3 untouched (default false).
        let mut r = SimpResult::identity(&WcnfFormula::with_vars(4));
        r.var_map = VarMap::from_kept(&[true, false, false, false]);
        r.reconstructor.push_unit(lit(2));
        let m = Assignment::from_bools(&[true]);
        let full = r.reconstruct_model(&m);
        assert!(full.is_total());
        assert_eq!(full.num_vars(), 4);
        assert_eq!(full.value(Var::new(0)), Some(true));
        assert_eq!(full.value(Var::new(1)), Some(true));
        assert_eq!(full.value(Var::new(2)), Some(false));
        assert_eq!(full.value(Var::new(3)), Some(false));
    }
}
