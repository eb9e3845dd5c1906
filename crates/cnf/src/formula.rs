//! Plain CNF formulas.

use std::fmt;

use crate::{Assignment, Clause, ClauseStore, Clauses, Lit, Var};

/// A CNF formula: a conjunction of [`Clause`]s over a dense variable
/// range, held in one [`ClauseStore`].
///
/// The formula tracks the number of variables explicitly so that
/// variables may exist without occurring in any clause (useful for
/// auxiliary/blocking variables and for DIMACS headers).
///
/// # Examples
///
/// ```
/// use coremax_cnf::{CnfFormula, Lit};
/// let mut cnf = CnfFormula::new();
/// let x = cnf.new_var();
/// let y = cnf.new_var();
/// cnf.add_clause([Lit::positive(x), Lit::positive(y)]);
/// cnf.add_clause([Lit::negative(x)]);
/// assert_eq!(cnf.num_vars(), 2);
/// assert_eq!(cnf.num_clauses(), 2);
/// assert_eq!(cnf.clause(1).lits(), [Lit::negative(x)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CnfFormula {
    num_vars: usize,
    pub(crate) clauses: ClauseStore,
}

impl CnfFormula {
    /// Creates an empty formula with no variables.
    #[must_use]
    pub fn new() -> Self {
        CnfFormula::default()
    }

    /// Creates an empty formula that already has `num_vars` variables.
    #[must_use]
    pub fn with_vars(num_vars: usize) -> Self {
        CnfFormula {
            num_vars,
            clauses: ClauseStore::new(),
        }
    }

    /// Allocates and returns a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars as u32);
        self.num_vars += 1;
        v
    }

    /// Allocates `n` fresh variables and returns them.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables (including unused ones).
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

    /// Number of clauses.
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Returns `true` if the formula has no clauses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Adds a clause, growing the variable range as needed.
    /// Returns the index of the new clause.
    pub fn add_clause<I>(&mut self, lits: I) -> usize
    where
        I: IntoIterator<Item = Lit>,
    {
        self.num_vars = grown_range(self.num_vars, self.clauses.push(lits));
        self.clauses.len() - 1
    }

    /// Returns the clause at `index`.
    #[must_use]
    pub fn clause(&self, index: usize) -> Clause<'_> {
        self.clauses.get(index)
    }

    /// Iterates over the clauses.
    #[must_use]
    pub fn clauses(&self) -> Clauses<'_> {
        self.clauses.iter()
    }

    /// Iterates over the clauses (the same as [`CnfFormula::clauses`]).
    #[must_use]
    pub fn iter(&self) -> Clauses<'_> {
        self.clauses.iter()
    }

    /// Counts clauses satisfied by `assignment`.
    #[must_use]
    pub fn num_satisfied(&self, assignment: &Assignment) -> usize {
        self.clauses
            .iter()
            .filter(|c| c.is_satisfied_by(assignment))
            .count()
    }

    /// Counts clauses *not* satisfied by `assignment` (falsified or
    /// undecided).
    #[must_use]
    pub fn num_unsatisfied(&self, assignment: &Assignment) -> usize {
        self.num_clauses() - self.num_satisfied(assignment)
    }

    /// Evaluates the whole formula under a (possibly partial) assignment.
    ///
    /// `Some(true)` iff every clause is satisfied; `Some(false)` iff some
    /// clause is falsified; `None` otherwise.
    #[must_use]
    pub fn eval(&self, assignment: &Assignment) -> Option<bool> {
        let mut undecided = false;
        for c in &self.clauses {
            match c.eval(assignment) {
                Some(false) => return Some(false),
                None => undecided = true,
                Some(true) => {}
            }
        }
        if undecided {
            None
        } else {
            Some(true)
        }
    }
}

/// The variable range `num_vars` grown to cover `lits`.
pub(crate) fn grown_range(num_vars: usize, lits: &[Lit]) -> usize {
    lits.iter()
        .map(|l| l.var().index() + 1)
        .fold(num_vars, usize::max)
}

impl<'a> FromIterator<Clause<'a>> for CnfFormula {
    fn from_iter<I: IntoIterator<Item = Clause<'a>>>(iter: I) -> Self {
        let mut f = CnfFormula::new();
        f.extend(iter);
        f
    }
}

impl<'a> Extend<Clause<'a>> for CnfFormula {
    fn extend<I: IntoIterator<Item = Clause<'a>>>(&mut self, iter: I) {
        for c in iter {
            self.add_clause(c.iter().copied());
        }
    }
}

impl fmt::Display for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return write!(f, "⊤");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d).unwrap()
    }

    #[test]
    fn var_allocation() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(f.num_vars(), 2);
        let more = f.new_vars(3);
        assert_eq!(more.len(), 3);
        assert_eq!(f.num_vars(), 5);
    }

    #[test]
    fn add_clause_grows_vars() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(10)]);
        assert_eq!(f.num_vars(), 10);
        assert_eq!(f.num_clauses(), 1);
    }

    #[test]
    fn ensure_var_never_shrinks() {
        let mut f = CnfFormula::with_vars(5);
        f.ensure_var(Var::new(2));
        assert_eq!(f.num_vars(), 5);
        f.ensure_var(Var::new(9));
        assert_eq!(f.num_vars(), 10);
    }

    #[test]
    fn satisfied_counts() {
        // (x1)(¬x1 ∨ x2)(¬x2): unsat, best is 2.
        let mut f = CnfFormula::new();
        f.add_clause([lit(1)]);
        f.add_clause([lit(-1), lit(2)]);
        f.add_clause([lit(-2)]);
        let a = Assignment::from_bools(&[true, true]);
        assert_eq!(f.num_satisfied(&a), 2);
        assert_eq!(f.num_unsatisfied(&a), 1);
        assert_eq!(f.eval(&a), Some(false));
    }

    #[test]
    fn eval_partial() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1), lit(2)]);
        let mut a = Assignment::for_vars(2);
        assert_eq!(f.eval(&a), None);
        a.assign(Var::new(0), true);
        assert_eq!(f.eval(&a), Some(true));
    }

    #[test]
    fn empty_formula_is_true() {
        let f = CnfFormula::new();
        assert_eq!(f.eval(&Assignment::for_vars(0)), Some(true));
        assert_eq!(f.to_string(), "⊤");
    }

    #[test]
    fn from_and_extend() {
        let (c1, c2) = ([lit(1)], [lit(-2), lit(3)]);
        let mut f: CnfFormula = [Clause::new(&c1)].into_iter().collect();
        assert_eq!(f.num_vars(), 1);
        f.extend([Clause::new(&c2)]);
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 2);
        // A formula's own clauses copy into another.
        let g: CnfFormula = f.clauses().collect();
        assert_eq!(f, g);
    }

    #[test]
    fn clauses_come_back_in_insertion_order() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1)]);
        f.add_clause([]);
        f.add_clause([lit(-2), lit(3)]);
        assert_eq!(f.num_vars(), 3);
        let all: Vec<&[Lit]> = f.clauses().map(Clause::lits).collect();
        assert_eq!(all, [&[lit(1)][..], &[], &[lit(-2), lit(3)]]);
        assert_eq!(f.clause(2).lits(), [lit(-2), lit(3)]);
    }

    #[test]
    fn display_conjunction() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1)]);
        f.add_clause([lit(-2)]);
        f.add_clause([]);
        assert_eq!(f.to_string(), "(x1) ∧ (¬x2) ∧ ⊥");
    }
}
