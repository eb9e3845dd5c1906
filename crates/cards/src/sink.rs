//! Clause sink with fresh-variable allocation for encoders.

use coremax_cnf::{ClauseStore, Lit, Var};

/// Receives the clauses produced by an encoding and allocates auxiliary
/// variables above a caller-supplied watermark.
///
/// The clauses go into one [`ClauseStore`], so an encoding of any size
/// makes a few growing allocations instead of one per clause.
///
/// # Examples
///
/// ```
/// use coremax_cards::CnfSink;
/// use coremax_cnf::Lit;
/// let mut sink = CnfSink::new(10); // vars 0..10 belong to the problem
/// let aux = sink.fresh_var();
/// assert_eq!(aux.index(), 10);
/// assert_eq!(sink.num_vars(), 11);
/// sink.add_clause([Lit::negative(aux)]);
/// assert_eq!(sink.clauses().get(0).lits(), [Lit::negative(aux)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CnfSink {
    next_var: usize,
    clauses: ClauseStore,
}

impl CnfSink {
    /// Creates a sink whose fresh variables start at `first_free_var`.
    #[must_use]
    pub fn new(first_free_var: usize) -> Self {
        CnfSink {
            next_var: first_free_var,
            clauses: ClauseStore::new(),
        }
    }

    /// Allocates a fresh auxiliary variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var::new(self.next_var as u32);
        self.next_var += 1;
        v
    }

    /// Appends a clause.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.clauses.push(lits);
    }

    /// Total variable count (problem + auxiliary).
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.next_var
    }

    /// Number of clauses emitted so far.
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The emitted clauses.
    #[must_use]
    pub fn clauses(&self) -> &ClauseStore {
        &self.clauses
    }

    /// Consumes the sink, returning the clauses.
    #[must_use]
    pub fn into_clauses(self) -> ClauseStore {
        self.clauses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vars_sequential_above_watermark() {
        let mut s = CnfSink::new(5);
        assert_eq!(s.fresh_var().index(), 5);
        assert_eq!(s.fresh_var().index(), 6);
        assert_eq!(s.num_vars(), 7);
    }

    #[test]
    fn clauses_accumulate() {
        let mut s = CnfSink::new(0);
        let v = s.fresh_var();
        s.add_clause([Lit::positive(v)]);
        s.add_clause([Lit::negative(v)]);
        assert_eq!(s.num_clauses(), 2);
        assert_eq!(s.into_clauses().len(), 2);
    }
}
