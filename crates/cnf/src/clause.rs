//! Clause view.

use std::fmt;
use std::ops::Deref;

use crate::{Assignment, Lit};

/// A disjunction of literals, borrowed from the
/// [`ClauseStore`](crate::ClauseStore) of the formula that holds it.
///
/// A `Clause` is a copyable view of a literal slice: it derefs to
/// `[Lit]` and adds evaluation under an assignment. Duplicate literals
/// and tautologies are permitted at this level; solvers normalise on
/// ingest.
///
/// # Examples
///
/// ```
/// use coremax_cnf::{Clause, Lit, Var};
/// let a = Lit::positive(Var::new(0));
/// let b = Lit::negative(Var::new(1));
/// let lits = [a, b];
/// let c = Clause::new(&lits);
/// assert_eq!(c.len(), 2);
/// assert!(c.contains(&a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Clause<'a> {
    lits: &'a [Lit],
}

impl<'a> Clause<'a> {
    /// The clause whose literals are `lits`.
    #[must_use]
    pub fn new(lits: &'a [Lit]) -> Self {
        Clause { lits }
    }

    /// Returns the literals of the clause.
    #[inline]
    #[must_use]
    pub fn lits(self) -> &'a [Lit] {
        self.lits
    }

    /// Evaluates the clause under a (possibly partial) assignment.
    ///
    /// Returns `Some(true)` if some literal is true, `Some(false)` if all
    /// literals are assigned and false, and `None` otherwise (undecided).
    #[must_use]
    pub fn eval(self, assignment: &Assignment) -> Option<bool> {
        let mut undecided = false;
        for &l in self.lits.iter() {
            match assignment.lit_value(l) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => undecided = true,
            }
        }
        if undecided {
            None
        } else {
            Some(false)
        }
    }

    /// Returns `true` if the assignment makes the clause true.
    ///
    /// Unassigned variables count as not satisfying.
    #[must_use]
    pub fn is_satisfied_by(self, assignment: &Assignment) -> bool {
        self.eval(assignment) == Some(true)
    }
}

impl Deref for Clause<'_> {
    type Target = [Lit];

    fn deref(&self) -> &[Lit] {
        self.lits
    }
}

impl<'a> IntoIterator for Clause<'a> {
    type Item = &'a Lit;
    type IntoIter = std::slice::Iter<'a, Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.iter()
    }
}

impl fmt::Display for Clause<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "⊥");
        }
        write!(f, "(")?;
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let lits = [lit(1), lit(-2), lit(3)];
        let c = Clause::new(&lits);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(c.contains(&lit(-2)));
        assert!(!c.contains(&lit(2)));
        assert_eq!(c.lits(), lits);
    }

    #[test]
    fn empty_and_unit() {
        assert!(Clause::default().is_empty());
        assert_eq!(Clause::default(), Clause::new(&[]));
        let five = [lit(5)];
        let unit = Clause::new(&five);
        assert_eq!(unit.len(), 1);
        let mut a = Assignment::for_vars(5);
        a.assign(Var::new(4), true);
        assert_eq!(unit.eval(&a), Some(true));
    }

    #[test]
    fn eval_partial_and_total() {
        let lits = [lit(1), lit(2)];
        let c = Clause::new(&lits);
        let mut a = Assignment::for_vars(2);
        assert_eq!(c.eval(&a), None);
        a.assign(Var::new(0), false);
        assert_eq!(c.eval(&a), None);
        assert!(!c.is_satisfied_by(&a), "undecided is not satisfied");
        a.assign(Var::new(1), false);
        assert_eq!(c.eval(&a), Some(false));
        a.assign(Var::new(1), true);
        assert_eq!(c.eval(&a), Some(true));
        assert!(c.is_satisfied_by(&a));
    }

    #[test]
    fn empty_clause_is_false() {
        let a = Assignment::for_vars(0);
        assert_eq!(Clause::default().eval(&a), Some(false));
        assert!(!Clause::default().is_satisfied_by(&a));
    }

    #[test]
    fn display() {
        let lits = [lit(1), lit(-2)];
        let c = Clause::new(&lits);
        assert_eq!(c.to_string(), "(x1 ∨ ¬x2)");
        assert_eq!(Clause::default().to_string(), "⊥");
    }
}
